"""Unrolled flat pattern of a fabrication plan as an SVG drawing.

The tube is cut along the c = 0 meridian and unrolled into a rectangle of
width 2*pi*r and height equal to the total tube length, at 1 SVG user unit
per millimeter. x runs along the circumference, y along the axis with the
tube base at the top edge.
"""

from __future__ import annotations

from .fabrication import FabricationPlan
from .formats import fmt9

_STYLE = (
    "rect.outline{fill:none;stroke:#000;stroke-width:0.5}"
    "line.cyl{stroke:#888;stroke-width:0.3;stroke-dasharray:4 3}"
    "line.fold{stroke:#c00;stroke-width:0.3}"
    "circle.pt{fill:#c00;stroke:none}"
    "text.lbl{font-family:sans-serif;font-size:6px;fill:#c00}"
)


def flat_pattern(plan: FabricationPlan) -> str:
    """Render a plan as an SVG document string."""
    w, h = fmt9(plan.circumference), fmt9(plan.total_tube_length)
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}mm" '
        f'height="{h}mm" viewBox="0 0 {w} {h}">',
        f"<style>{_STYLE}</style>",
        f'<rect class="outline" x="0" y="0" width="{w}" height="{h}"/>',
    ]

    starts, folds = plan.axial_start.tolist(), plan.s_tilde.tolist()
    # dashed cylinder boundaries (skip the outline edges at 0 and h)
    boundaries = set()
    for z, s, l in zip(starts, folds, plan.cylinders.tolist()):
        boundaries.add(round(z + s, 9))
        boundaries.add(round(z + s + l, 9))
    for z in sorted(boundaries):
        if 1e-9 < z < plan.total_tube_length - 1e-9:
            y = fmt9(z)
            out.append(f'<line class="cyl" x1="0" y1="{y}" x2="{w}" y2="{y}"/>')

    # joint connection points: two marks on one meridian, joined by a guide line
    for i, (z, s, c) in enumerate(zip(starts, folds, plan.circumferential.tolist()), 1):
        if s <= 0.0:
            continue
        x, y0, y1 = fmt9(c), fmt9(z), fmt9(z + s)
        out.append(f'<line class="fold" x1="{x}" y1="{y0}" x2="{x}" y2="{y1}"/>')
        out.append(f'<circle class="pt" cx="{x}" cy="{y0}" r="1.2"/>')
        out.append(f'<circle class="pt" cx="{x}" cy="{y1}" r="1.2"/>')
        out.append(f'<text class="lbl" x="{fmt9(c + 2.5)}" '
                   f'y="{fmt9(z + s / 2.0)}">J{i}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_pattern(plan: FabricationPlan, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(flat_pattern(plan))
