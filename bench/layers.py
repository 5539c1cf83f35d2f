"""Outside-in layer timing: wrap vinefab's public functions without editing them.

`install()` replaces each listed function by a wrapper in every `vinefab.*`
module namespace that holds it (so `fk_chain` is replaced in geometry,
growth, measurement, cli and the package itself), and counts `RigidPose`
constructions by wrapping its `__post_init__`. A timed wrapper is a span:
its self time is its duration minus the time its child spans cover. A
counted wrapper only counts calls; its time stays in its caller's span. A
function a later version removes reads 0 and does not stop the run.

Run as a script, it executes one traced `vinefab` command line and writes the
layer totals as JSON: `python bench/layers.py OUT.json plan --config ...`.
"""

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name, timed); a span name may be shared
READERS = ("load_json", "read_chain", "read_polyline", "read_scene",
           "read_plan", "read_samples")
WRITERS = ("write_json", "write_chain", "write_polyline", "write_scene",
           "write_plan", "write_markers", "write_measured", "write_errors",
           "write_samples", "write_fk_frames", "write_growth_trace")
SPECS = (
    [("cli", "main", "cli.main", True)]
    + [("formats", f, "formats.read", True) for f in READERS]
    + [("formats", "read_markers", "formats.read_markers", True)]
    + [("formats", f, "formats.write", True) for f in WRITERS]
    + [("geometry", "fk_chain", "geometry.fk_chain", True),
       ("geometry", "polyline_to_dh", "geometry.polyline_to_dh", True),
       ("fabrication", "compile_plan", "fabrication.compile_plan", True),
       ("fabrication", "recover_chain", "fabrication.recover_chain", True),
       ("fabrication", "axial_fold_distance", "fabrication.axial_fold_distance", False),
       ("pattern", "flat_pattern", "pattern.flat_pattern", True),
       ("growth", "tip_pose_at", "growth.tip_pose_at", True),
       ("growth", "clearance", "growth.clearance", True),
       ("growth", "centerline_points", "growth.centerline_points", True),
       ("measurement", "recover_dh", "measurement.recover_dh", True),
       ("measurement", "dh_errors", "measurement.dh_errors", True),
       ("special", "studentized_range_cdf", "special.studentized_range_cdf", True),
       ("special", "normal_range_cdf", "special.normal_range_cdf", False),
       ("special", "t_quantile", "special.t_quantile", False),
       ("stats", "analyze_table", "stats.analyze_table", True),
       ("stats", "tukey_hsd", "stats.tukey_hsd", True)])

# per-layer metrics reported from the spans: (metric, span, field)
METRICS = (
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
    ("formats.read.self_ms", "formats.read", "self_ms"),
    ("formats.write.self_ms", "formats.write", "self_ms"),
    ("formats.read_markers.self_ms", "formats.read_markers", "self_ms"),
    ("geometry.fk_chain.calls", "geometry.fk_chain", "calls"),
    ("geometry.fk_chain.self_ms", "geometry.fk_chain", "self_ms"),
    ("geometry.polyline_to_dh.self_ms", "geometry.polyline_to_dh", "self_ms"),
    ("geometry.RigidPose.count", "geometry.RigidPose", "calls"),
    ("fabrication.compile_plan.self_ms", "fabrication.compile_plan", "self_ms"),
    ("fabrication.recover_chain.self_ms", "fabrication.recover_chain", "self_ms"),
    ("fabrication.axial_fold_distance.calls", "fabrication.axial_fold_distance", "calls"),
    ("pattern.flat_pattern.self_ms", "pattern.flat_pattern", "self_ms"),
    ("growth.tip_pose_at.calls", "growth.tip_pose_at", "calls"),
    ("growth.tip_pose_at.self_ms", "growth.tip_pose_at", "self_ms"),
    ("growth.clearance.calls", "growth.clearance", "calls"),
    ("growth.clearance.self_ms", "growth.clearance", "self_ms"),
    ("growth.centerline_points.self_ms", "growth.centerline_points", "self_ms"),
    ("growth.centerline_points.points", "growth.centerline_points", "items"),
    ("measurement.recover_dh.self_ms", "measurement.recover_dh", "self_ms"),
    ("measurement.dh_errors.self_ms", "measurement.dh_errors", "self_ms"),
    ("special.studentized_range_cdf.calls", "special.studentized_range_cdf", "calls"),
    ("special.studentized_range_cdf.self_ms", "special.studentized_range_cdf", "self_ms"),
    ("special.normal_range_cdf.calls", "special.normal_range_cdf", "calls"),
    ("special.t_quantile.calls", "special.t_quantile", "calls"),
    ("stats.analyze_table.self_ms", "stats.analyze_table", "self_ms"),
    ("stats.tukey_hsd.self_ms", "stats.tukey_hsd", "self_ms"),
)

# spans whose first argument's length is the work size (samples evaluated)
_SIZED = {"growth.centerline_points": 1}


class Tracer:
    """In-memory span totals: calls, self time and work size per span name."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.items = defaultdict(int)
        self._child_ns = [0]

    def reset(self):
        self.calls.clear()
        self.self_ns.clear()
        self.items.clear()
        self._child_ns[:] = [0]

    def timed(self, name, fn):
        size_arg = _SIZED.get(name)
        stack = self._child_ns
        calls, self_ns, items = self.calls, self.self_ns, self.items
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                stack[-1] += duration
                self_ns[name] += duration - child
                calls[name] += 1
                if size_arg is not None and len(args) > size_arg:
                    items[name] += len(args[size_arg])

        span.__wrapped__ = fn
        return span

    def counted(self, name, fn):
        calls = self.calls

        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        count.__wrapped__ = fn
        return count

    def totals(self):
        """Layer totals as {span: {"calls", "self_ms", "items"}}."""
        return {name: {"calls": self.calls[name],
                       "self_ms": self.self_ns[name] / 1e6,
                       "items": self.items[name]}
                for name in set(self.calls) | set(self.self_ns)}


def install(tracer):
    """Wrap every listed vinefab function in all vinefab module namespaces."""
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "vinefab" or name.startswith("vinefab."))]
    for module, attr, name, timed in SPECS:
        home = sys.modules.get(f"vinefab.{module}")
        original = getattr(home, attr, None)
        if original is None:
            continue
        wrapper = (tracer.timed if timed else tracer.counted)(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    pose = getattr(sys.modules.get("vinefab.geometry"), "RigidPose", None)
    post_init = getattr(pose, "__post_init__", None)
    if post_init is not None:
        pose.__post_init__ = tracer.counted("geometry.RigidPose", post_init)


def add_totals(into, totals):
    for name, t in totals.items():
        slot = into.setdefault(name, {"calls": 0, "self_ms": 0.0, "items": 0})
        for field in slot:
            slot[field] += t[field]


def layer_metrics(totals):
    """Per-layer metric values from span totals; missing spans read 0."""
    out = {}
    for metric, span, field in METRICS:
        value = totals.get(span, {}).get(field, 0)
        out[metric] = float(value) if field == "self_ms" else int(value)
    return out


def main(argv):
    out_path, cli_argv = argv[0], argv[1:]
    import vinefab.cli

    tracer = Tracer()
    install(tracer)
    code = vinefab.cli.main(cli_argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.totals(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
