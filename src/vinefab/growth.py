"""Tip position as a function of everted length, and body clearance to obstacles.

Joint angles are fixed into the body before deployment, so growth only
advances the tip along the final shape: the everted portion of the robot at
length L is the first L millimeters of the fully-everted centerline. Bends
are modeled as instantaneous at the (zero-length) joints.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .errors import ValidationError
from .geometry import DHChain, ReadOnly, chain_frames, check_items, float_array, point3

DEFAULT_SWEEP_STEP_MM = 1.0
# most centerline samples one sweep may take: a few hundred MB of arrays
MAX_SWEEP_SAMPLES = 10_000_000


Sphere = namedtuple("Sphere", "center radius")
Box = namedtuple("Box", "min_corner max_corner")  # an axis-aligned box


def _rows(kind: str, records, convert, form: str) -> np.ndarray:
    """convert(*record) of each `kind` record as one float row; errors name the record."""
    rows = []
    for i, record in enumerate(records, start=1):
        try:
            rows.append(convert(*record))
        except (TypeError, ValueError, OverflowError):  # convert's own are ValidationErrors
            raise ValidationError(f"{kind} {i}: must be {form}, got {record!r}") from None
        except ValidationError as exc:
            raise ValidationError(f"{kind} {i}: {exc}") from None
    return np.array(rows, float)


class ObstacleScene(ReadOnly):
    """Spheres and axis-aligned boxes as read-only arrays, checked once.

    Sphere and Box records (or pairs like them) become sphere centers (s, 3)
    and radii (s,) and box min and max corners (b, 3): all finite, radii > 0,
    and per axis min < max with max - min finite. Errors name the first bad one.
    """

    def __init__(self, spheres=(), boxes=()):
        s = _rows("sphere", spheres, lambda c, r: [*point3(c, "sphere center"), float(r)],
                  "a (center, radius) pair with one number as radius").reshape(-1, 4)
        b = _rows("box", boxes, lambda lo, hi: [*point3(lo, "box min corner"),
                                                *point3(hi, "box max corner")],
                  "a (min_corner, max_corner) pair").reshape(-1, 6)
        s.flags.writeable = b.flags.writeable = False
        centers, radii, lows, highs = s[:, :3], s[:, 3], b[:, :3], b[:, 3:]
        check_items("sphere", [np.isfinite(centers).all(axis=1), (radii > 0) & (radii < math.inf)],
                    lambda i: [f"sphere center must be finite, got {centers[i]}",
                               f"sphere radius must be finite and > 0, got {radii[i]}"])
        with np.errstate(over="ignore", invalid="ignore"):  # max - min may overflow
            check_items("box", [np.isfinite(b).all(axis=1), (lows < highs).all(axis=1),
                                np.isfinite(highs - lows).all(axis=1)],
                        lambda i: ["box corners must be finite",
                                   "box min corner must be < max corner per axis",
                                   f"box extent max - min overflows, got {highs[i] - lows[i]}"])
        self.__dict__.update(centers=centers, radii=radii, lows=lows, highs=highs)

    @property
    def spheres(self) -> tuple:
        return tuple(map(Sphere, self.centers, self.radii.tolist()))

    @property
    def boxes(self) -> tuple:
        return tuple(map(Box, self.lows, self.highs))

    @property
    def empty(self) -> bool:
        return not (self.radii.size or self.lows.size)

    def surface_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance to the nearest obstacle surface per point (negative inside).

        A running minimum over the obstacles, each taken on the points' x, y
        and z columns; inf for an empty scene or past float range.
        """
        x, y, z = np.array(np.atleast_2d(points).T, float, order="C")
        best = np.full(x.shape, math.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            for (cx, cy, cz), r in zip(self.centers.tolist(), self.radii.tolist()):
                dx, dy, dz = x - cx, y - cy, z - cz
                np.minimum(best, np.sqrt(dx * dx + dy * dy + dz * dz) - r, out=best)
            # halves first: 0.5 * (lows + highs) overflows for two corners past 9e307
            for (cx, cy, cz), (hx, hy, hz) in zip((0.5 * self.lows + 0.5 * self.highs).tolist(),
                                                  (0.5 * (self.highs - self.lows)).tolist()):
                qx, qy, qz = np.abs(x - cx) - hx, np.abs(y - cy) - hy, np.abs(z - cz) - hz
                mx, my, mz = np.maximum(qx, 0.0), np.maximum(qy, 0.0), np.maximum(qz, 0.0)
                inside = np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
                np.minimum(best, np.sqrt(mx * mx + my * my + mz * mz) + inside, out=best)
        return best


def _on_chain(chain: DHChain, lengths, error: str):
    """Lengths from the base (a float or float array) clamped to the total.

    Each must lie in [0, total], else ValidationError(error); NaN never does.
    A length up to n ulps over the total is the total: summing the n link
    lengths in another order (``a.sum()``), or scaling the total, can land
    that far above ``total_length``.
    """
    total = chain.total_length
    if not np.all((lengths >= 0.0) & (lengths <= total + chain.n * math.ulp(total))):
        raise ValidationError(error)
    return np.minimum(lengths, total)


def _everted(chain: DHChain, everted_length) -> float:
    """The everted length as a float, checked and clamped by _on_chain."""
    everted_length = float(everted_length)
    return float(_on_chain(chain, everted_length, "everted_length must lie in "
                           f"[0, {chain.total_length!r}] mm, got {everted_length!r}"))


def _step(step) -> float:
    """The sweep step as a float, checked to be finite and > 0."""
    step = float(step)
    if not 0.0 < step < math.inf:
        raise ValidationError(f"step must be finite and > 0, got {step!r}")
    return step


def _sweep_grid(everted_length: float, step: float) -> np.ndarray:
    """Arc lengths 0, step, ... up to everted_length: floor(everted/step) + 1 of them.

    `step` is checked by _step. A step that would take more than
    MAX_SWEEP_SAMPLES samples is rejected before allocating.
    """
    if not everted_length / step < MAX_SWEEP_SAMPLES - 1:
        raise ValidationError(
            f"step {step!r} mm would sample the {everted_length!r} mm "
            f"body at more than {MAX_SWEEP_SAMPLES} points; use a larger step")
    return np.arange(int(math.floor(everted_length / step)) + 1) * step


def centerline_points(chain: DHChain, arc_lengths: np.ndarray) -> np.ndarray:
    """Centerline positions (m, 3) at the given arc lengths from the base.

    A joint's bend applies the instant the joint everts, so a point at a link
    boundary lies at that joint. Builds the chain's frames once. The arc
    lengths are a 1-D sequence checked and clamped by _on_chain.
    """
    s = float_array(arc_lengths, "arc lengths")
    if s.ndim != 1:
        raise ValidationError(f"arc lengths must be a 1-D sequence, got shape {s.shape}")
    s = _on_chain(chain, s, "arc lengths must lie within the everted body")
    rots, verts = chain_frames(chain)
    dirs = rots[1:, :, 0]  # frame i's x-axis runs along link i
    cum = np.concatenate([[0.0], np.cumsum(chain.a)])
    idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, chain.n - 1)
    return verts[idx] + dirs[idx] * (s - cum[idx])[:, None]


def sweep_samples(chain: DHChain, everted_length: float,
                  step: float = DEFAULT_SWEEP_STEP_MM) -> tuple[np.ndarray, np.ndarray]:
    """Sample the centerline of the body everted to `everted_length` every `step` mm.

    Returns (arc_lengths, centers): floor(everted/step) + 1 grid samples and
    one tip sample, so both endpoints are always present.
    """
    everted_length, step = _everted(chain, everted_length), _step(step)
    s = np.append(_sweep_grid(everted_length, step), everted_length)
    return s, centerline_points(chain, s)


def growth_trace(chain: DHChain, everted_lengths, scene: ObstacleScene | None,
                 step: float = DEFAULT_SWEEP_STEP_MM
                 ) -> tuple[np.ndarray, list[float | None]]:
    """Tip positions and worst clearance at each everted length, in one sweep.

    Returns (tips, clearances): tips is (m, 3); clearances[k] is the least
    (surface distance - body radius) over `sweep_samples(chain, L_k, step)`,
    negative where the body penetrates, or None when the scene is absent or
    empty. The tips and the grid of the longest body are evaluated in one
    centerline_points call; the body at L_k is its first floor(L_k/step) + 1
    grid points plus its own tip.
    """
    lengths = float_array(everted_lengths, "everted_lengths")
    if lengths.ndim != 1 or lengths.size == 0:
        raise ValidationError("everted_lengths must be a non-empty 1-D sequence")
    # every length, not only the longest: one just below 0 would read grid row -1
    _everted(chain, np.min(lengths))
    longest = _everted(chain, np.max(lengths))
    lengths = np.minimum(lengths, longest)  # a length a few ulps over the total is the total
    step = _step(step)
    if scene is None or scene.empty:
        return centerline_points(chain, lengths), [None] * len(lengths)
    points = centerline_points(chain, np.concatenate([lengths, _sweep_grid(longest, step)]))
    gaps = scene.surface_distance(points) - chain.radius
    grid_worst = np.minimum.accumulate(gaps[lengths.size:])
    clearances = np.minimum(grid_worst[np.floor(lengths / step).astype(int)], gaps[:lengths.size])
    if not np.isfinite(clearances).all():
        raise ValidationError("clearance is not finite: the body and the obstacles "
                              "are too far apart to difference")
    return points[:lengths.size], clearances.tolist()
