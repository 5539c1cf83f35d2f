"""Timed worker: one fresh process executes a workload's fixed operation list.

Usage: python bench/worker.py MANIFEST RESULT {setup|run|trace}

The worker imports `vinefab.cli`, builds the in-memory inputs and records
the monotonic clock: launch to that point is one set-up sample. With `setup`
it stops there. Otherwise it runs the untimed warm-up, then every operation
of the manifest in order, timing each one alone; digests of the outputs and
everything the checks need are recorded outside the timed region. With
`trace` the layer wrappers of layers.py are installed and their totals, reset
after the warm-up, cover exactly the timed operations.
"""

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time

import vinefab.cli  # the import is part of set-up


def _digest_dir(path):
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(path)):
        for name in sorted(files):
            full = os.path.join(root, name)
            h.update(full.encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class CliCold:
    """Each operation is a fresh `python -m vinefab <cmd>` process."""

    def __init__(self, manifest, mode, run_dir):
        self.pool = manifest["pool"]
        self.warm = manifest["warmup"]
        self.mode = mode
        self.span_dir = os.path.join(run_dir, "spans")
        os.makedirs(self.span_dir, exist_ok=True)
        self.spans = []
        self.peak_rss_kb = 0
        self.records = {}

    def _spawn(self, argv, tag):
        if self.mode == "trace":
            spans = os.path.join(self.span_dir, f"{tag}.json")
            cmd = [sys.executable, os.path.join("bench", "layers.py"), spans, *argv]
        else:
            spans = None
            cmd = [sys.executable, "-m", "vinefab", *argv]
        out_path = os.path.join(self.span_dir, f"{tag}.stdout")
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss, out_path, spans

    def warmup(self):
        for k, argv in enumerate(self.warm):
            self._spawn(argv, f"warm{k}")

    def op(self, index, key):
        entry = self.pool[key]
        code, elapsed, rss_kb, out_path, spans = self._spawn(entry["argv"], f"op{index}")
        self.peak_rss_kb = max(self.peak_rss_kb, rss_kb)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        if spans is not None and os.path.exists(spans):
            with open(spans, encoding="utf-8") as fh:
                self.spans.append(json.load(fh))
        digest = hashlib.sha256(stdout + _digest_dir(entry["out"]).encode()).hexdigest()
        return code == 0, elapsed, digest


class CliInProcess:
    """Each operation is one or more in-process `vinefab.cli.main` calls."""

    def __init__(self, manifest, mode, run_dir):
        self.pool = manifest["pool"]
        self.warm = manifest["warmup"]
        self.records = {}

    @staticmethod
    def _calls(calls):
        sink = io.StringIO()
        codes = []
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            for argv in calls:
                codes.append(vinefab.cli.main(argv))
        return codes, time.perf_counter() - start, sink.getvalue()

    def warmup(self):
        for calls in self.warm:
            self._calls(calls)

    def op(self, index, key):
        entry = self.pool[key]
        codes, elapsed, stdout = self._calls(entry["calls"])
        outs = sorted({argv[argv.index("--out") + 1] for argv in entry["calls"]})
        digest = hashlib.sha256(
            (stdout + "".join(_digest_dir(p) for p in outs)).encode()).hexdigest()
        self.records.setdefault(str(key), {"stdout": stdout})
        return all(c == 0 for c in codes), elapsed, digest


class DesignBatch:
    """polyline_to_dh (waypoint inputs), compile, pattern, recover and FK."""

    def __init__(self, manifest, mode, run_dir):
        self.warm = manifest["warmup"]
        self.inputs = {}
        for key, spec in manifest["inputs"].items():
            gap = vinefab.GapModel.for_method(spec["method"])
            if spec["type"] == "waypoints":
                source = vinefab.formats.read_polyline(spec["path"])
                self.inputs[key] = ("waypoints", source, spec["radius"], gap)
            else:
                self.inputs[key] = ("chain", vinefab.formats.read_chain(spec["path"]),
                                    None, gap)
        self.records = {}

    def _run(self, key):
        # names are looked up on the package at call time so that the layer
        # wrappers, which replace them there, see every call
        kind, source, radius, gap = self.inputs[key]
        start = time.perf_counter()
        chain = vinefab.polyline_to_dh(source, radius) if kind == "waypoints" else source
        plan = vinefab.compile_plan(chain, gap)
        svg = vinefab.flat_pattern(plan)
        recovered = vinefab.recover_chain(plan, gap)
        frames = vinefab.fk_chain(recovered)
        elapsed = time.perf_counter() - start
        return elapsed, plan, svg, recovered, frames

    def warmup(self):
        for key in self.warm:
            self._run(key)

    def op(self, index, key):
        elapsed, plan, svg, recovered, frames = self._run(key)
        digest = hashlib.sha256(svg.encode())
        digest.update(repr((plan.cylinders, [j.s_tilde for j in plan.joints],
                            plan.total_tube_length, recovered.links)).encode())
        for f in frames:
            digest.update(f.translation.tobytes() + f.rotation.tobytes())
        if key not in self.records:
            self.records[key] = {
                "s_tilde": [j.s_tilde for j in plan.joints],
                "cylinders": list(plan.cylinders),
                "total": plan.total_tube_length,
                "svg": svg,
                "recovered": [[l.a, l.alpha, l.theta] for l in recovered.links],
                "frames": [[*f.translation.tolist(), *f.rotation.ravel().tolist()]
                           for f in frames],
            }
        return True, elapsed, digest.hexdigest()


KINDS = {"cli_cold": CliCold, "design_batch": DesignBatch,
         "growth_scene": CliInProcess, "campaign": CliInProcess}


def main(manifest_path, result_path, mode):
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    run_dir = os.path.dirname(manifest_path)
    workload = KINDS[manifest["workload"]](manifest, mode, run_dir)
    result = {"setup_end_ns": time.monotonic_ns()}
    if mode != "setup":
        tracer = None
        if mode == "trace" and manifest["workload"] != "cli_cold":
            import layers

            tracer = layers.Tracer()
            layers.install(tracer)
        workload.warmup()
        if tracer is not None:
            tracer.reset()
        op_s, ok, digests = [], [], []
        for index, key in enumerate(manifest["ops"]):
            try:
                passed, elapsed, digest = workload.op(index, key)
            except Exception as exc:  # an operation that raises counts as failed
                print(f"op {index} ({key}) raised {exc!r}", file=sys.stderr)
                passed, elapsed, digest = False, 0.0, None
            ok.append(passed)
            op_s.append(elapsed)
            digests.append(digest)
        own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update({
            "op_s": op_s, "ok": ok, "digests": digests,
            "records": workload.records,
            "peak_rss_kb": getattr(workload, "peak_rss_kb", own_rss_kb),
        })
        if tracer is not None:
            result["spans"] = [tracer.totals()]
        elif mode == "trace":
            result["spans"] = workload.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(*sys.argv[1:4])
