"""Command-line interface: plan, pattern, fk, grow, measure, analyze.

Angles are degrees at this boundary (switchable to radians for display);
all file formats are those defined in the formats module. Exit codes:
0 success, 1 parse error, 2 infeasible design, 3 missing data.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from collections import namedtuple

from . import formats
from .errors import (DegenerateDataError, DegenerateGeometryError,
                     InfeasibleLinkError, InversionError, MissingMarkerError,
                     SingularityError, ValidationError, VinefabError)
from .fabrication import GapModel, compile_plan
from .geometry import canonicalize_polyline, fk_chain, polyline_to_dh
from .growth import MAX_SWEEP_SAMPLES, growth_trace
from .measurement import dh_errors, recover_dh
from .pattern import write_pattern
from .stats import analyze_table

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_MISSING_DATA = 3

# refuse to plan folds this close to the 180-degree singularity
MAX_PLAN_THETA_DEG = 175.0


Project = namedtuple("Project", "chain gap scene out_dir degrees")  # chain, scene may be None


def _load_chain(source, flag_radius, config_radius):
    """Chain from a polyline CSV path, a chain JSON path or an inline chain."""
    if isinstance(source, str) and source.lower().endswith(".csv"):
        radius = flag_radius if flag_radius is not None else config_radius
        if radius is None:
            raise ValidationError(
                "a polyline chain source needs a radius (--radius or config "
                "radius_mm)")
        canonical, _ = canonicalize_polyline(formats.read_polyline(source))
        return polyline_to_dh(canonical, radius=radius)
    if flag_radius is not None:
        raise ValidationError(
            "--radius applies only to a polyline CSV chain; a chain JSON "
            "carries its own radius_mm")
    if isinstance(source, dict):
        return formats.chain_from_dict(source, context="config chain")
    if not isinstance(source, str):
        raise ValidationError(
            f"a chain source must be a file path or a chain object, got {source!r}")
    return formats.read_chain(source)


def _build_project(args, need_chain=True) -> Project:
    config, where, base = {}, args.config, ""  # config paths are relative to its directory
    if args.config:
        config = formats.load_json(where)
        if not isinstance(config, dict):
            raise ValidationError(f"{where}: config must be a JSON object")
        base = os.path.dirname(os.path.abspath(where))
    config_radius = (formats._number(config, "radius_mm", where)
                     if "radius_mm" in config else None)

    chain = None
    if need_chain:
        n_sources = bool(args.chain) + ("chain" in config)
        if n_sources != 1:
            raise ValidationError(
                "exactly one chain source required (either --chain or the "
                f"config 'chain' field); got {n_sources}")
        source = args.chain or config["chain"]
        if not args.chain and isinstance(source, str):
            source = os.path.join(base, source)
        chain = _load_chain(source, args.radius, config_radius)

    gap_cfg = formats._typed(config, "gap", where, dict, {})
    method = args.method or gap_cfg.get("method", "tape")
    d_g = args.d_g
    if d_g is None and "d_g_mm" in gap_cfg:
        d_g = formats._number(gap_cfg, "d_g_mm", f"{where} gap")
    gap = GapModel.for_method(method, d_g=d_g)

    scene_path = args.scene or (os.path.join(base, formats._typed(config, "scene", where, str))
                                if "scene" in config else None)
    scene = formats.read_scene(scene_path) if scene_path and args.command == "grow" else None

    units = formats._typed(config, "units", where, str, "deg")
    if units not in ("deg", "rad"):
        raise ValidationError(f"{where}: 'units' must be 'deg' or 'rad', got {units!r}")
    degrees = not args.rad if (args.deg or args.rad) else units == "deg"

    out_dir = args.out or formats._typed(config, "out_dir", where, str, ".")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create output directory {out_dir}: "
                              f"{exc.strerror or exc}") from exc

    return Project(chain=chain, gap=gap, scene=scene, out_dir=out_dir,
                   degrees=degrees)


def _angle_str(project, rad):
    if project.degrees:
        return f"{formats.fmt9(math.degrees(rad))} deg"
    return f"{formats.fmt9(rad)} rad"


def _out(project, name):
    return os.path.join(project.out_dir, name)


# ------------------------------------------------------------------ commands

def cmd_plan(project, args) -> int:
    if not 0.0 < args.max_theta_deg <= 180.0:  # NaN too
        raise ValidationError(
            f"--max-theta-deg must lie in (0, 180], got {args.max_theta_deg}")
    for i, theta in enumerate(project.chain.theta.tolist(), start=1):
        if abs(math.degrees(theta)) >= args.max_theta_deg:
            raise SingularityError(
                f"link {i}: joint angle {math.degrees(theta):.4g} deg is "
                f"within {180 - args.max_theta_deg:.4g} deg of the fold "
                "singularity at 180 deg")
    plan = compile_plan(project.chain, project.gap)
    formats.write_plan(plan, _out(project, "plan.json"))

    print(f"fabrication plan ({project.gap.method}, d_g = "
          f"{formats.fmt9(project.gap.d_g)} mm, radius = "
          f"{formats.fmt9(plan.radius)} mm)")
    print("joint  theta           s_tilde_mm    Z_mm          c_mm")
    for (i, s, z, c, _), theta in zip(plan.joints, project.chain.theta.tolist()):
        print(f"{i:>5}  {_angle_str(project, theta):<14}  {formats.fmt9(s):<12}  "
              f"{formats.fmt9(z):<12}  {formats.fmt9(c)}")
    print("cyl    l_mm")
    for i, l in enumerate(plan.cylinders.tolist(), start=1):
        print(f"{i:>5}  {formats.fmt9(l)}")
    print("step   arc_mm")
    for i, s in enumerate(plan.arc_offsets.tolist(), start=1):
        print(f"{i:>5}  {formats.fmt9(s)}")
    print(f"total tube length: {formats.fmt9(plan.total_tube_length)} mm")
    return EXIT_OK


def cmd_pattern(project, args) -> int:
    plan = compile_plan(project.chain, project.gap)
    path = _out(project, "pattern.svg")
    write_pattern(plan, path)
    print(f"wrote {path} ({formats.fmt9(plan.circumference)} x "
          f"{formats.fmt9(plan.total_tube_length)} mm)")
    return EXIT_OK


def cmd_fk(project, args) -> int:
    frames = fk_chain(project.chain)
    path = _out(project, "fk_frames.csv")
    formats.write_fk_frames(frames, path)
    tip = frames[-1].translation
    print(f"tip: ({formats.fmt9(tip[0])}, {formats.fmt9(tip[1])}, "
          f"{formats.fmt9(tip[2])}) mm over {len(frames) - 1} links")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_grow(project, args) -> int:
    total = project.chain.total_length
    # one row per step: bounded like a sweep, before the rows are built
    if not 1 <= args.steps < MAX_SWEEP_SAMPLES:
        raise ValidationError(
            f"--steps must lie in [1, {MAX_SWEEP_SAMPLES - 1}], got {args.steps}")
    everted = [total * i / args.steps for i in range(args.steps + 1)]
    tips, clearances = growth_trace(project.chain, everted, project.scene,
                                    step=args.sweep_step)
    path = _out(project, "grow_trace.csv")
    formats.write_growth_trace(zip(everted, tips, clearances), path)
    print(f"wrote {path} ({args.steps + 1} rows, total {formats.fmt9(total)} mm)")
    if clearances[0] is not None:
        print(f"worst clearance: {formats.fmt9(min(clearances))} mm")
    return EXIT_OK


def cmd_measure(project, args) -> int:
    records = formats.read_markers(args.markers)
    measured = recover_dh(records, phase=args.phase)
    errors = dh_errors(measured, project.chain)
    formats.write_measured(measured, _out(project, "measured_dh.json"))
    formats.write_errors(errors, _out(project, "dh_errors.csv"))
    error = errors.error.tolist()
    worst = error.index(max(error, key=abs))  # the first of equal maxima
    print(f"recovered {measured.thetas.size} joints, {measured.alphas.size} twists, "
          f"{measured.lengths.size} lengths ({args.phase})")
    kind = errors.kind[worst]
    unit = "deg" if kind in ("joint", "twist") else "mm"
    print(f"largest error: {kind} {errors.index[worst]}: "
          f"{formats.fmt9(errors.error[worst])} {unit}")
    print(f"wrote {_out(project, 'measured_dh.json')} and "
          f"{_out(project, 'dh_errors.csv')}")
    return EXIT_OK


def cmd_analyze(project, args) -> int:
    table = formats.read_samples(args.samples)
    report = analyze_table(table)
    path = _out(project, "report.json")
    formats.write_json(report, path)
    print(f"analyzed {report['row_count']} rows across "
          f"{len(report['parameters'])} parameters")
    for notice in report["notices"]:
        print(f"notice: {notice}")
    for param, factors in report["parameters"].items():
        for factor, block in factors.items():
            omnibus = block.get("omnibus")
            if omnibus:
                print(f"{param}/{factor}: {omnibus['test']} p = "
                      f"{formats.fmt9(omnibus['p_value'])}")
            if block.get("pairwise"):
                for pair in block["pairwise"]:
                    if pair["significant"]:
                        print(f"  {pair['a']} vs {pair['b']}: p = "
                              f"{formats.fmt9(pair['p_value'])} {pair['stars']}")
    print(f"wrote {path}")
    return EXIT_OK


# -------------------------------------------------------------------- parser

def _add_common(sub):
    sub.add_argument("--config", help="project config JSON")
    sub.add_argument("--chain", help="chain JSON or polyline CSV")
    sub.add_argument("--radius", type=float,
                     help="body radius in mm of a polyline CSV chain (rejected "
                          "for a chain JSON, which carries its own)")
    sub.add_argument("--method", choices=("tape", "weld", "loop"),
                     help="fastening method (default tape)")
    sub.add_argument("--d-g", dest="d_g", type=float,
                     help="override gap distance d_g in mm")
    sub.add_argument("--scene", help="obstacle scene JSON")
    sub.add_argument("--out", help="output directory (default '.')")
    units = sub.add_mutually_exclusive_group()
    units.add_argument("--deg", action="store_true",
                       help="display angles in degrees (default)")
    units.add_argument("--rad", action="store_true",
                       help="display angles in radians")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit EXIT_PARSE; argparse's own 2 means infeasible here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.lru_cache(maxsize=1)  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vinefab",
        description="Plan, simulate, and verify preformed everting-tube "
                    "robots with discrete bends.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("plan", help="compile fabrication parameters")
    _add_common(p)
    p.add_argument("--max-theta-deg", type=float, default=MAX_PLAN_THETA_DEG,
                   help="reject joint angles at or beyond this magnitude")
    p.set_defaults(func=cmd_plan)

    p = subs.add_parser("pattern", help="write the unrolled flat pattern SVG")
    _add_common(p)
    p.set_defaults(func=cmd_pattern)

    p = subs.add_parser("fk", help="forward kinematics frames of the chain")
    _add_common(p)
    p.set_defaults(func=cmd_fk)

    p = subs.add_parser("grow", help="growth trace with optional clearance")
    _add_common(p)
    p.add_argument("--steps", type=int, default=100,
                   help="number of growth increments (default 100)")
    p.add_argument("--sweep-step", type=float, default=1.0,
                   help="centerline sampling step in mm (default 1)")
    p.set_defaults(func=cmd_grow)

    p = subs.add_parser("measure", help="recover DH parameters from markers")
    _add_common(p)
    p.add_argument("--markers", required=True, help="marker pose CSV")
    p.add_argument("--phase", choices=("pre", "post"), default="pre",
                   help="measurement phase label (default pre)")
    p.set_defaults(func=cmd_measure)

    p = subs.add_parser("analyze", help="statistical report from a sample CSV")
    _add_common(p)
    p.add_argument("--samples", required=True, help="long-format sample CSV")
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        project = _build_project(args, need_chain=args.command != "analyze")
        return args.func(project, args)
    except (SingularityError, InfeasibleLinkError, InversionError) as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        if isinstance(exc, InfeasibleLinkError):
            print(f"minimum feasible link length: {exc.min_feasible:.9g} mm",
                  file=sys.stderr)
        return EXIT_INFEASIBLE
    except (MissingMarkerError, DegenerateGeometryError,
            DegenerateDataError) as exc:
        print(f"missing data: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except VinefabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
