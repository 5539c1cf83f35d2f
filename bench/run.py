"""vinefab benchmark: one workload, one run, one JSON line of results.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

It compiles src/ to bytecode, writes the workload's seeded inputs under
.bench_run/, launches the timed worker (plus set-up-only workers, so that
set-up time is a median), checks the outputs against bench/oracle.py and
scipy.stats in this process, and prints the result as its last line:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
See bench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
WORKER_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 20


def _env():
    src = os.path.join(ROOT, "src")
    extra = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + extra if extra else ""))


def _launch(manifest_path, result_path, mode, timeout):
    """Run one worker; return (set-up seconds, its result dict)."""
    start = time.monotonic_ns()
    # its own process group, so that a timeout also stops the worker's children
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"),
                             manifest_path, result_path, mode],
                            env=_env(), start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return (result["setup_end_ns"] - start) / 1e9, result


def _best_times(ops, op_s, ok):
    """Each operation's time as the fastest repeat of its input in this run.

    Every input recurs in every round, spread over the whole run. On a
    machine whose speed swings with other tenants' load, the fastest repeat
    is the operation's own cost; single repeats and whole-run sums carry the
    load of the moment. Operations that raised or exited non-zero are left out.
    """
    best = {}
    for key, t, passed in zip(ops, op_s, ok):
        if passed:
            best[str(key)] = min(t, best.get(str(key), t))
    return [best[str(key)] for key, passed in zip(ops, ok) if passed]


def _importtime():
    """Import-time layer metrics (ms) from `python -X importtime`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import vinefab.cli"],
                          env=_env(), capture_output=True, text=True, check=True)
    self_us, cumulative_us, top_us = {}, {}, 0
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        module = name.strip()
        self_us[module] = self_us.get(module, 0) + int(own)
        cumulative_us[module] = int(cumulative)
        if not name[1:].startswith(" ") and module.split(".")[0] == "vinefab":
            top_us += int(cumulative)

    def package(prefix):
        return sum(v for k, v in self_us.items() if k.split(".")[0] == prefix)

    return {"import.vinefab_cli_ms": top_us / 1e3,
            "import.vinefab_special_ms": cumulative_us.get("vinefab.special", 0) / 1e3,
            "import.scipy_ms": package("scipy") / 1e3,
            "import.numpy_ms": package("numpy") / 1e3}


def _trace_metrics(result):
    totals = {}
    for spans in result["spans"]:
        layers.add_totals(totals, spans)
    metrics = layers.layer_metrics(totals)
    samples = [_importtime() for _ in range(IMPORTTIME_SAMPLES)]
    for name in samples[0]:
        metrics[name] = statistics.median(s[name] for s in samples)
    units = {name: "ms" if name.endswith("_ms") else "count" for name in metrics}
    return metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vinefab", "cli.py")):
        print(f"error: no vinefab sources under {os.path.join(ROOT, 'src')}; run the "
              "benchmark from a vinefab checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], check=True,
                   stdout=subprocess.DEVNULL)

    run_dir = os.path.join(".bench_run", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    manifest = inputs.build(args.workload, args.seed, args.seconds, run_dir)
    manifest_path = os.path.join(run_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)

    def setup_only(k):
        return _launch(manifest_path, os.path.join(run_dir, f"setup{k}.json"), "setup",
                       SETUP_TIMEOUT_S)[0]

    # set-up samples taken before and after the timed worker, so that their
    # median does not hang on one moment of the machine's load
    setups = [setup_only(k) for k in range(SETUP_SAMPLES // 2)]
    setup, result = _launch(manifest_path, os.path.join(run_dir, "result.json"),
                            "trace" if args.trace else "run", WORKER_TIMEOUT_S)
    setups.append(setup)
    setups += [setup_only(k) for k in range(len(setups), SETUP_SAMPLES)]

    import check  # scipy.stats is imported here, after the worker has finished

    failed, problems = check.check(manifest, result)
    for problem in problems[:20]:
        print(f"check: {problem}", file=sys.stderr)

    times = _best_times(manifest["ops"], result["op_s"], result["ok"])
    if not times:
        print("error: every operation failed; nothing to time", file=sys.stderr)
        return 1
    ops_per_s = len(times) / sum(times)
    print(f"whole run: {len(result['op_s']) / sum(result['op_s']):.6g} ops/s, median "
          f"{statistics.median(result['op_s']) * 1e3:.6g} ms; best of repeats: "
          f"{ops_per_s:.6g} ops/s, median {statistics.median(times) * 1e3:.6g} ms")
    if args.trace:
        metrics, units = _trace_metrics(result)
    else:
        metrics = {"ops_per_s": ops_per_s,
                   "op_p50_ms": statistics.median(times) * 1e3,
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": result["peak_rss_kb"] / 1024.0}
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "setup_s": "s",
                 "peak_rss_mb": "MB"}
    if problems:
        print(f"outputs kept in {run_dir}", file=sys.stderr)
    else:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(result["op_s"]),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
