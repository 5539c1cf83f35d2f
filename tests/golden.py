"""The golden corpus: CLI runs whose every output byte is pinned.

`build(root)` writes seeded inputs under `root` with this module's own code
(numpy, json and csv, never vinefab's writers, so that a writer change moves
outputs and never inputs), runs `cli.main` in process on each, and returns
{entry: parts}. The parts of an entry are its exit code, stdout and stderr
(with `root` and the bundled data directory replaced by placeholders) and
every file it wrote, in name order. `tests/golden.json` holds one sha256 per
entry, plus a one-digit fingerprint of every line of every part, so that a
moved entry can be traced to its first moved file and line.

The corpus:

* the bundled project: plan (also in radians and for each method), pattern,
  fk, grow, measure pre and post, analyze, and a plan from the bundled
  waypoints;
* analyze on 240 seeded sample tables;
* 60 seeded chains with signed bends, a fifth of them zero, x plan, pattern
  and fk x tape and loop;
* grow on 12 seeded chains in seeded sphere/box scenes, and measure on 20
  seeded noisy marker logs, some of chains with straight joints;
* error runs that exit 1, 2 and 3.

Rewrite the manifest with ``PYTHONPATH=src python tests/golden.py``.
Rewriting it is an output change: list the moved entries and argue them.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import sys

import numpy as np

from oracles import MARKER_HEADER, fk_homogeneous, rotation_to_quaternion
from vinefab import cli

DATA_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "demos", "data"))
MANIFEST = os.path.join(os.path.dirname(__file__), "golden.json")

ANALYZE_TABLES = 240
CHAINS = 60
GROWTH_SCENES = 12
MARKER_LOGS = 20
# one stream per group of entries, so that adding a group moves no other
STREAMS = {"samples": 1, "chains": 2, "growth": 3, "markers": 4}


def _rng(group, seed):
    return np.random.default_rng([STREAMS[group], seed])


def _num(v):
    return repr(float(v))


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_chain(path, a, alpha, theta, radius):
    links = [{"a_mm": float(ai), "alpha_deg": math.degrees(al), "theta_deg": math.degrees(th)}
             for ai, al, th in zip(a, alpha, theta)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"radius_mm": float(radius), "links": links}, fh)


# ------------------------------------------------------------------ inputs

def _samples(path, rng):
    """A long-format sample table: every method x material has 2-5 robots, each
    with 1-3 values per parameter, measured pre and post."""
    quantities = []
    for method in ("tape", "weld", "loop"):
        for material in ("ldpe", "fabric"):
            for k in range(1, int(rng.integers(2, 6)) + 1):
                for param, target, count in (("twist", 45.0, 1), ("joint", 45.0, 2),
                                             ("length", 100.0, 3)):
                    for _ in range(int(rng.integers(1, count + 1))):
                        value = target + rng.normal(rng.uniform(-3.0, 3.0), rng.uniform(0.3, 3.0))
                        quantities.append((method, material, f"{method}-{material}-{k}",
                                           param, value))
    rows = []
    for phase in ("pre", "post"):
        shift = rng.uniform(0.0, 1.0) if phase == "post" else 0.0
        for method, material, robot, param, value in quantities:
            rows.append([_num(value + shift + rng.normal(0.0, 0.2)), method, material,
                         phase, param, robot])
    _write_rows(path, ["value", "method", "material", "phase", "parameter", "robot_id"], rows)


def _signed_chain(rng):
    """1-11 links, a of 120-250 mm, bends of 5-100 deg of either sign or (one in
    five) zero, twists in (-pi, pi)."""
    n = int(rng.integers(1, 12))
    a = rng.uniform(120.0, 250.0, n)
    theta = np.radians(rng.uniform(5.0, 100.0, n)) * rng.choice([-1.0, 1.0], n)
    theta[rng.random(n) < 0.2] = 0.0
    return a, rng.uniform(-math.pi, math.pi, n), theta, rng.uniform(10.0, 20.0)


def _scene(path, rng):
    spheres = [{"center_mm": [float(v) for v in rng.uniform(-600.0, 600.0, 3)],
                "radius_mm": float(rng.uniform(20.0, 120.0))} for _ in range(3)]
    boxes = []
    for _ in range(2):
        lo = rng.uniform(-600.0, 500.0, 3)
        boxes.append({"min_mm": [float(v) for v in lo],
                      "max_mm": [float(v) for v in lo + rng.uniform(30.0, 200.0, 3)]})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spheres": spheres, "boxes": boxes}, fh)


def _marker_log(path, rng, a, alpha, theta, offset=76.5, samples=10, noise_mm=0.1):
    """The jig's marker log (see vinefab.measurement) of a chain, from literal
    4x4 frames, with Gaussian position noise and exact orientations."""
    frames = fk_homogeneous(a, alpha, theta)
    verts = [f[:3, 3] for f in frames]
    units = [(q - p) / np.linalg.norm(q - p) for p, q in zip(verts, verts[1:])]
    n = len(a)
    spots = [("base", verts[0], frames[0])]
    for j in range(2, n + 1):
        o, frame = verts[j - 1], frames[j - 1]
        spots.append((f"j{j}_on", o, frame))
        if j > 2:
            spots.append((f"j{j}_prox", o - offset * units[j - 2], frame))
        if j < n:
            spots.append((f"j{j}_dist", o + offset * units[j - 1], frame))
    spots.append(("tip", verts[-1], frames[-1]))
    rows = []
    for name, p, frame in spots:
        q = rotation_to_quaternion(frame[:3, :3])
        for k in range(samples):
            rows.append([name, _num(k / 20.0), *map(_num, p + rng.normal(0.0, noise_mm, 3)),
                         *map(_num, q)])
    _write_rows(path, MARKER_HEADER, rows)


def _inputs(root):
    """Write every input under root/in; return the corpus as {entry: argv}."""
    src = os.path.join(root, "in")
    os.makedirs(src)
    data = lambda name: os.path.join(DATA_DIR, name)  # noqa: E731
    project = ["--config", data("project.json")]
    runs = {
        "bundled/plan": ["plan", *project],
        "bundled/plan-rad": ["plan", *project, "--rad"],
        "bundled/plan-weld": ["plan", *project, "--method", "weld"],
        "bundled/plan-loop": ["plan", *project, "--method", "loop", "--d-g", "9.3"],
        "bundled/pattern": ["pattern", *project],
        "bundled/fk": ["fk", *project],
        "bundled/grow": ["grow", *project],
        "bundled/measure-pre": ["measure", *project, "--markers", data("markers_pre.csv"),
                                "--phase", "pre"],
        "bundled/measure-post": ["measure", *project, "--markers", data("markers_post.csv"),
                                 "--phase", "post"],
        "bundled/analyze": ["analyze", "--samples", data("dh_samples.csv")],
        "bundled/plan-polyline": ["plan", "--chain", data("path_waypoints.csv"),
                                  "--radius", "16.5"],
    }
    for seed in range(ANALYZE_TABLES):
        path = os.path.join(src, f"samples{seed:03d}.csv")
        _samples(path, _rng("samples", seed))
        runs[f"analyze/{seed:03d}"] = ["analyze", "--samples", path]
    for seed in range(CHAINS):
        path = os.path.join(src, f"chain{seed:03d}.json")
        _write_chain(path, *_signed_chain(_rng("chains", seed)))
        for command in ("plan", "pattern", "fk"):
            for method in ("tape", "loop"):
                runs[f"chain/{seed:03d}/{command}-{method}"] = [command, "--chain", path,
                                                               "--method", method]
    for seed in range(GROWTH_SCENES):
        rng = _rng("growth", seed)
        chain, scene = (os.path.join(src, f"grow{seed:03d}.{kind}.json")
                        for kind in ("chain", "scene"))
        _write_chain(chain, *_signed_chain(rng))
        _scene(scene, rng)
        runs[f"grow/{seed:03d}"] = ["grow", "--chain", chain, "--scene", scene,
                                    "--steps", "20", "--sweep-step", "5"]
    for seed in range(MARKER_LOGS):
        rng = _rng("markers", seed)
        n = int(rng.integers(3, 8))
        a = rng.uniform(120.0, 250.0, n)
        theta = np.radians(rng.uniform(10.0, 120.0, n)) * rng.choice([-1.0, 1.0], n)
        if seed % 2:  # one straight joint among joints 3..n
            theta[rng.integers(2, n)] = 0.0
        chain, log = (os.path.join(src, f"measure{seed:03d}.{kind}")
                      for kind in ("chain.json", "markers.csv"))
        alpha = rng.uniform(-math.pi, math.pi, n)
        _write_chain(chain, a, alpha, theta, 16.5)
        _marker_log(log, rng, a, alpha, theta)
        runs[f"markers/{seed:03d}"] = ["measure", "--chain", chain, "--markers", log,
                                       "--phase", "post" if seed % 3 == 0 else "pre"]
    runs.update(_error_runs(src, project))
    return runs


def _error_runs(src, project):
    """Runs that fail: exit 1 (parse), 2 (infeasible) and 3 (missing data)."""
    def write(name, text, mode="w"):
        path = os.path.join(src, name)
        with open(path, mode, **({} if "b" in mode else {"encoding": "utf-8"})) as fh:
            fh.write(text)
        return path

    near_singular = os.path.join(src, "near_singular.json")
    _write_chain(near_singular, [100.0, 100.0], [0.0, 0.0], [0.0, math.radians(178.0)], 16.5)
    short = os.path.join(src, "short_link.json")
    _write_chain(short, [100.0, 5.0, 100.0], [0.0, 0.5, 0.0],
                 [0.0, math.radians(90.0), math.radians(90.0)], 16.5)
    with open(os.path.join(DATA_DIR, "markers_pre.csv"), encoding="utf-8") as fh:
        log = fh.read().splitlines(keepends=True)
    missing = write("missing_marker.csv",
                    "".join(line for line in log if not line.startswith("j3_on,")))
    # j2's distal marker on top of j2's own: its outgoing direction has no length
    collapsed = write("collapsed.csv", "".join(
        [line for line in log if not line.startswith("j2_dist,")]
        + [line.replace("j2_on,", "j2_dist,", 1) for line in log if line.startswith("j2_on,")]))
    return {
        "error/1-missing-chain": ["fk", "--chain", os.path.join(src, "absent.json")],
        "error/1-bad-json": ["fk", "--chain", write("bad.json", '{"links": [')],
        "error/1-usage": ["plan", *project, "--method", "glue"],
        "error/1-two-chain-sources": ["fk", *project, "--chain", near_singular],
        "error/1-bad-number": ["analyze", "--samples", write(
            "bad_number.csv", "value,method,material,phase,parameter,robot_id\n"
                              "1.5,tape,ldpe,pre,twist,r1\nx,tape,ldpe,pre,twist,r1\n")],
        "error/1-missing-columns": ["analyze", "--samples", write("columns.csv", "value,method\n")],
        "error/1-not-utf8": ["measure", *project, "--markers", write(
            "latin1.csv", (",".join(MARKER_HEADER) + "\nj2\xff_on\n").encode("latin-1"), "wb")],
        "error/2-singular": ["plan", "--chain", near_singular],
        "error/2-short-link": ["plan", "--chain", short],
        "error/3-missing-marker": ["measure", *project, "--markers", missing],
        "error/3-collapsed-marker": ["measure", *project, "--markers", collapsed],
    }


# ----------------------------------------------------------------- running

def _run(argv, out, placeholders):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", out])
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code

    def clean(text):
        for path, name in placeholders:
            text = text.replace(path, name)
        return text.encode()

    parts = [("exit", str(code).encode()), ("stdout", clean(stdout.getvalue())),
             ("stderr", clean(stderr.getvalue()))]
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            parts.append((name, fh.read()))
    return parts


def build(root):
    """Write the corpus's inputs under root, run it, and return {entry: parts},
    each part a (name, bytes) pair."""
    root = os.path.abspath(root)
    runs = _inputs(root)
    placeholders = [(root, "<tmp>"), (DATA_DIR, "<data>")]
    corpus = {}
    for name, argv in runs.items():
        out = os.path.join(root, "out", name)
        os.makedirs(out)
        corpus[name] = _run(argv, out, placeholders)
    return corpus


def digest(parts):
    h = hashlib.sha256()
    for name, data in parts:
        for field in (name.encode(), data):
            h.update(len(field).to_bytes(8, "little"))
            h.update(field)
    return h.hexdigest()


def fingerprints(parts):
    """{part: one hex digit per line, from the line's sha256}. An equal line has
    an equal digit, so the first digit that differs marks a line that moved;
    an earlier moved line keeps its digit one time in 16."""
    return {name: "".join(hashlib.sha256(line).hexdigest()[0] for line in data.split(b"\n"))
            for name, data in parts}


def versions():
    return {"python": platform.python_version(), "numpy": np.__version__}


def write_manifest(corpus, path=MANIFEST):
    """The versions, then one entry per line: {"sha256": ..., "lines": fingerprints}."""
    entries = [f"{json.dumps(name)}: "
               + json.dumps({"sha256": digest(parts), "lines": fingerprints(parts)})
               for name, parts in corpus.items()]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(versions())[:-1] + ', "entries": {\n'
                 + ",\n".join(entries) + "\n}}\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = build(tmp)
    write_manifest(corpus)
    print(f"wrote {len(corpus)} entries to {MANIFEST}", file=sys.stderr)
