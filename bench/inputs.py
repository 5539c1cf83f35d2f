"""Seeded input generators and the fixed operation list of each workload.

Inputs are written with this module's own code (numpy and the standard
library), never with vinefab's writers, so they do not change when the
library does. `build(workload, seed, seconds, run_dir)` writes every input
file under `run_dir` and returns the manifest the worker executes.

Rules every workload follows:

* The operation list is whole rounds of one fixed make-up, and the number of
  rounds depends only on `--seconds`, so a run never stops on a clock and
  every run with the same arguments does the same work in the same order.
* Properties that set an operation's cost (link counts, link-length sums,
  group sizes) are stratified, not drawn, so two seeds cost the same; the
  seed moves angles, twists, positions, noise and order.
* Warm-up inputs come from a fixed stream that ignores the seed and are
  never timed.
"""

import csv
import json
import math
import os

import numpy as np

from oracle import marker_spots, rotation_to_quaternion

WORKLOADS = ("cli_cold", "design_batch", "growth_scene", "campaign")

# rounds per second of --seconds, calibrated on the reference machine of
# bench/README.md in its slower speed regime, so that one run's timed region
# lasts about --seconds or less
ROUNDS_PER_SECOND = {"cli_cold": 0.14, "design_batch": 5.0,
                     "growth_scene": 0.42, "campaign": 0.48}

WARMUP_SEED = 7_000_001
METHODS = ("tape", "weld", "loop")
LOOP_D_G_MM = 9.3

# design_batch: one positive chain per link count, every fourth one given as
# waypoints, plus the mixed-sign slice below
DESIGN_LINK_COUNTS = tuple(range(3, 51))
DESIGN_DISTINCT_ROUNDS = 4
# bends that alternate in sign; compile -> recover -> FK does not give these
# shapes back (ROADMAP D), so their operations count as failed
MIXED_SIGN_LINK_COUNTS = (4, 12, 24, 40)

# growth_scene: every chain has these link lengths in a seeded order
GROWTH_LINKS = 40
GROWTH_LENGTHS_MM = tuple(float(v) for v in np.linspace(40.0, 120.0, GROWTH_LINKS))
GROWTH_STEPS = 40
GROWTH_POOL = 8
GROWTH_SPHERES = 6
GROWTH_BOXES = 4

# campaign: per slot, the chain's link count and the base robots per combo
CAMPAIGN_SLOTS = ((4, 2), (5, 3), (6, 4), (4, 5), (5, 3), (6, 4))
CAMPAIGN_MARKER_SAMPLES = 40
MARKER_OFFSET_MM = 76.5
CAMPAIGN_COMBOS = tuple((m, mat) for m in METHODS for mat in ("ldpe", "fabric"))

# cli_cold: the bundled project, all six subcommands; measure runs on both
# bundled marker logs, which also puts the median inside one command's times
BUNDLED = "demos/data"
CLI_GROW_STEPS = 100
CLI_CYCLE = (
    ("plan", ["plan", "--config", f"{BUNDLED}/project.json"]),
    ("pattern", ["pattern", "--config", f"{BUNDLED}/project.json"]),
    ("fk", ["fk", "--config", f"{BUNDLED}/project.json"]),
    ("grow", ["grow", "--config", f"{BUNDLED}/project.json",
              "--steps", str(CLI_GROW_STEPS)]),
    ("measure_pre", ["measure", "--config", f"{BUNDLED}/project.json",
                     "--markers", f"{BUNDLED}/markers_pre.csv", "--phase", "pre"]),
    ("measure_post", ["measure", "--config", f"{BUNDLED}/project.json",
                      "--markers", f"{BUNDLED}/markers_post.csv", "--phase", "post"]),
    ("analyze", ["analyze", "--samples", f"{BUNDLED}/dh_samples.csv"]),
)


def rounds_for(workload, seconds):
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def _rng(seed, workload):
    return np.random.default_rng([int(seed), WORKLOADS.index(workload)])


# ------------------------------------------------------------------ writers

def write_chain(path, a, alpha, theta, radius):
    doc = {"radius_mm": float(radius),
           "links": [{"a_mm": float(ai), "alpha_deg": math.degrees(al),
                      "theta_deg": math.degrees(th)}
                     for ai, al, th in zip(a, alpha, theta)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _num(v):
    return repr(float(v))


# ------------------------------------------------------------ design_batch

def _positive_chain(rng, n):
    a = rng.uniform(50.0, 150.0, n)
    theta = np.radians(rng.uniform(5.0, 100.0, n))
    alpha = rng.uniform(-math.pi, math.pi, n)
    return a, alpha, theta, float(rng.uniform(10.0, 20.0))


def _waypoints(rng, n):
    """n+1 points from the origin, first segment along +x, turns of 10-100 deg."""
    lengths = rng.uniform(50.0, 150.0, n)
    d = np.array([1.0, 0.0, 0.0])
    pts = [np.zeros(3), np.array([lengths[0], 0.0, 0.0])]
    for i in range(1, n):
        turn = math.radians(rng.uniform(10.0, 100.0))
        perp = np.cross(d, rng.normal(size=3))
        perp /= np.linalg.norm(perp)
        d = math.cos(turn) * d + math.sin(turn) * perp
        pts.append(pts[-1] + lengths[i] * d)
    return np.array(pts)


def mixed_sign_chain(n):
    """Fixed chain of alternating-sign bends (independent of any seed)."""
    idx = np.arange(1, n + 1)
    theta = np.radians((-1.0) ** idx * (20.0 + 7.0 * (idx % 9)))
    alpha = np.radians(15.0 * ((idx % 7) - 3))
    a = 70.0 + 9.0 * (idx % 8)
    return a, alpha, theta, 16.5


def _design_round(rng, in_dir, tag, link_counts, mixed):
    inputs = {}
    for n in link_counts:
        key = f"{tag}-n{n}"
        method = METHODS[int(rng.integers(3))]
        if n % 4 == 0:
            path = os.path.join(in_dir, key + ".csv")
            write_rows(path, ["x_mm", "y_mm", "z_mm"],
                       [[_num(v) for v in p] for p in _waypoints(rng, n)])
            inputs[key] = {"type": "waypoints", "path": path, "method": method,
                           "radius": float(rng.uniform(10.0, 20.0))}
        else:
            a, alpha, theta, r = _positive_chain(rng, n)
            path = os.path.join(in_dir, key + ".json")
            write_chain(path, a, alpha, theta, r)
            inputs[key] = {"type": "chain", "path": path, "method": method}
    for n in mixed:
        key = f"mixed-n{n}"
        path = os.path.join(in_dir, key + ".json")
        write_chain(path, *mixed_sign_chain(n))
        inputs[key] = {"type": "chain", "path": path, "method": "tape",
                       "mixed_sign": True}
    return inputs


def _build_design(seed, seconds, in_dir):
    rng = _rng(seed, "design_batch")
    inputs, rounds = {}, []
    for d in range(DESIGN_DISTINCT_ROUNDS):
        batch = _design_round(rng, in_dir, f"r{d}", DESIGN_LINK_COUNTS,
                              MIXED_SIGN_LINK_COUNTS)
        inputs.update(batch)
        keys = sorted(batch)
        rng.shuffle(keys)
        rounds.append(keys)
    warm_rng = np.random.default_rng(WARMUP_SEED)
    warm = _design_round(warm_rng, in_dir, "warm", DESIGN_LINK_COUNTS[::4], ())
    inputs.update(warm)
    n_rounds = rounds_for("design_batch", seconds)
    ops = [key for r in range(n_rounds) for key in rounds[r % len(rounds)]]
    return {"inputs": inputs, "ops": ops, "warmup": sorted(warm)}


# ------------------------------------------------------------ growth_scene

def _growth_chain(rng):
    a = rng.permutation(np.array(GROWTH_LENGTHS_MM))
    theta = np.radians(rng.uniform(5.0, 60.0, GROWTH_LINKS))
    alpha = rng.uniform(-math.pi, math.pi, GROWTH_LINKS)
    return a, alpha, theta, 16.5


def _scene(rng, path):
    spheres = [{"center_mm": [float(v) for v in rng.uniform(-900.0, 900.0, 3)],
                "radius_mm": float(rng.uniform(30.0, 150.0))}
               for _ in range(GROWTH_SPHERES)]
    boxes = []
    for _ in range(GROWTH_BOXES):
        lo = rng.uniform(-900.0, 800.0, 3)
        boxes.append({"min_mm": [float(v) for v in lo],
                      "max_mm": [float(v) for v in lo + rng.uniform(40.0, 300.0, 3)]})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spheres": spheres, "boxes": boxes}, fh)


def _grow_op(chain, scene, out):
    return ["grow", "--chain", chain, "--scene", scene,
            "--steps", str(GROWTH_STEPS), "--out", out]


def _build_growth(seed, seconds, in_dir, out_dir):
    rng = _rng(seed, "growth_scene")
    scene = os.path.join(in_dir, "scene.json")
    _scene(rng, scene)
    pool = []
    for k in range(GROWTH_POOL):
        path = os.path.join(in_dir, f"chain{k}.json")
        write_chain(path, *_growth_chain(rng))
        pool.append({"chain": path, "scene": scene,
                     "calls": [_grow_op(path, scene, os.path.join(out_dir, f"g{k}"))]})
    warm_rng = np.random.default_rng(WARMUP_SEED)
    warm_scene = os.path.join(in_dir, "warm_scene.json")
    _scene(warm_rng, warm_scene)
    warm_chain = os.path.join(in_dir, "warm_chain.json")
    write_chain(warm_chain, *_growth_chain(warm_rng))
    warmup = [[_grow_op(warm_chain, warm_scene, os.path.join(out_dir, "warm"))]]
    n_rounds = rounds_for("growth_scene", seconds)
    return {"pool": pool, "ops": [k for _ in range(n_rounds) for k in range(len(pool))],
            "warmup": warmup}


# ---------------------------------------------------------------- campaign

def write_marker_log(path, rng, a, alpha, theta, noise_mm, noise_deg):
    """Marker CSV of the documented jig, CAMPAIGN_MARKER_SAMPLES per marker."""
    rows = []
    for marker_id, p, rot in marker_spots(a, alpha, theta, MARKER_OFFSET_MM):
        for k in range(CAMPAIGN_MARKER_SAMPLES):
            pk = p + rng.normal(0.0, noise_mm, 3) if noise_mm > 0.0 else p
            rk = rot
            if noise_deg > 0.0:
                w = rng.normal(0.0, math.radians(noise_deg), 3)
                angle = float(np.linalg.norm(w))
                kx = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]],
                               [-w[1], w[0], 0.0]]) / angle
                rk = rot @ (np.eye(3) + math.sin(angle) * kx
                            + (1.0 - math.cos(angle)) * (kx @ kx))
            q = rotation_to_quaternion(rk)
            q /= np.linalg.norm(q)
            rows.append([marker_id, _num(k / 20.0), *(_num(v) for v in pk),
                         *(_num(v) for v in q)])
    write_rows(path, ["marker_id", "t_s", "x_mm", "y_mm", "z_mm",
                      "qw", "qx", "qy", "qz"], rows)


# per-method bias and spread of fabricated values (deg / mm), and the shift
# repeated growth adds; shaped like the bundled dh_samples.csv
_TARGET = {"twist": 45.0, "joint": 45.0, "length": 100.0}
_BIAS = {"twist": {"tape": -2.0, "weld": -2.5, "loop": 0.1},
         "joint": {"tape": 1.0, "weld": -0.5, "loop": 0.4},
         "length": {"tape": 0.1, "weld": -0.2, "loop": 2.2}}
_SD = {"twist": {"tape": 1.2, "weld": 2.6, "loop": 0.9},
       "joint": {"tape": 1.0, "weld": 2.4, "loop": 0.9},
       "length": {"tape": 0.6, "weld": 0.9, "loop": 0.7}}
_SHIFT = {"twist": 0.8, "joint": 0.7, "length": 0.02}
_NOISE = {"twist": 0.15, "joint": 0.15, "length": 0.1}
_PER_ROBOT = {"twist": 1, "joint": 2, "length": 3}


def write_samples(path, rng, base_robots):
    """Pre/post sample table; each combo has base_robots or base_robots+1 robots."""
    quantities = []
    for method, material in CAMPAIGN_COMBOS:
        for k in range(1, base_robots + 1 + int(rng.integers(2))):
            robot = f"{method}-{material}-{k}"
            for param in ("twist", "joint", "length"):
                for _ in range(_PER_ROBOT[param]):
                    value = (_TARGET[param] + _BIAS[param][method]
                             + rng.normal(0.0, _SD[param][method]))
                    quantities.append((method, material, robot, param, value))
    rows = []
    for phase in ("pre", "post"):
        for method, material, robot, param, value in quantities:
            v = value + rng.normal(0.0, _NOISE[param])
            if phase == "post":
                v += _SHIFT[param]
            rows.append([_num(v), method, material, phase, param, robot])
    write_rows(path, ["value", "method", "material", "phase", "parameter",
                      "robot_id"], rows)


def _campaign(rng, in_dir, out_dir, tag, n_links, base_robots):
    a = rng.uniform(80.0, 140.0, n_links)
    theta = np.radians(rng.uniform(20.0, 90.0, n_links))
    alpha = rng.uniform(-math.pi, math.pi, n_links)
    alpha[-1] = 0.0
    chain = os.path.join(in_dir, f"{tag}_chain.json")
    write_chain(chain, a, alpha, theta, 16.5)
    logs = []
    # one noise-free log (recovered exactly) and two noisy ones
    for k, (phase, noise_mm, noise_deg) in enumerate(
            (("pre", 0.0, 0.0), ("pre", 0.1, 0.2), ("post", 0.1, 0.2))):
        path = os.path.join(in_dir, f"{tag}_markers{k}.csv")
        write_marker_log(path, rng, a, alpha, theta, noise_mm, noise_deg)
        logs.append({"path": path, "phase": phase, "noisy": noise_mm > 0.0,
                     "out": os.path.join(out_dir, tag, f"m{k}")})
    samples = os.path.join(in_dir, f"{tag}_samples.csv")
    write_samples(samples, rng, base_robots)
    analyze_out = os.path.join(out_dir, tag, "a")
    calls = [["measure", "--chain", chain, "--markers", log["path"],
              "--phase", log["phase"], "--out", log["out"]] for log in logs]
    calls.append(["analyze", "--samples", samples, "--out", analyze_out])
    return {"chain": chain, "logs": logs, "samples": samples,
            "report": os.path.join(analyze_out, "report.json"), "calls": calls}


def _build_campaign(seed, seconds, in_dir, out_dir):
    rng = _rng(seed, "campaign")
    pool = [_campaign(rng, in_dir, out_dir, f"c{k}", n, robots)
            for k, (n, robots) in enumerate(CAMPAIGN_SLOTS)]
    order = list(range(len(pool)))
    rng.shuffle(order)
    warm = _campaign(np.random.default_rng(WARMUP_SEED), in_dir, out_dir,
                     "warm", 5, 6)
    n_rounds = rounds_for("campaign", seconds)
    return {"pool": pool, "ops": [int(k) for _ in range(n_rounds) for k in order],
            "warmup": [warm["calls"]]}


# ---------------------------------------------------------------- cli_cold

def _build_cli(seconds, out_dir):
    pool = [{"name": name, "argv": argv + ["--out", os.path.join(out_dir, name)],
             "out": os.path.join(out_dir, name)} for name, argv in CLI_CYCLE]
    n_rounds = rounds_for("cli_cold", seconds)
    warm = ["fk", "--config", f"{BUNDLED}/project.json",
            "--out", os.path.join(out_dir, "warm")]
    return {"pool": pool, "ops": [k for _ in range(n_rounds) for k in range(len(pool))],
            "warmup": [warm]}


def build(workload, seed, seconds, run_dir):
    """Write the workload's inputs under run_dir and return its manifest."""
    in_dir = os.path.join(run_dir, "in")
    out_dir = os.path.join(run_dir, "out")
    os.makedirs(in_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    if workload == "cli_cold":
        manifest = _build_cli(seconds, out_dir)
    elif workload == "design_batch":
        manifest = _build_design(seed, seconds, in_dir)
    elif workload == "growth_scene":
        manifest = _build_growth(seed, seconds, in_dir, out_dir)
    else:
        manifest = _build_campaign(seed, seconds, in_dir, out_dir)
    manifest["workload"] = workload
    return manifest
