"""Regenerate the bundled synthetic datasets (fixed seed, deterministic).

Run from the repository root:  python demos/data/generate.py
"""

import math
import os

import numpy as np

from vinefab import (DHChain, GapModel, ObstacleScene, SampleTable,
                     Sphere, Box, compile_plan, synthetic_markers)
from vinefab import formats

HERE = os.path.dirname(os.path.abspath(__file__))

TARGET_THETA_DEG = 45.0
TARGET_ALPHA_DEG = 45.0
TARGET_A_MM = 100.0

COMBOS = [(m, mat) for m in ("tape", "weld", "loop")
          for mat in ("ldpe", "fabric")]
# welded LDPE bodies tear on first growth; no usable robots of that combo
STATS_COMBOS = [c for c in COMBOS if c != ("weld", "ldpe")]
ROBOTS_PER_COMBO = 3

# synthetic per-method biases/spreads (degrees / mm), loosely shaped like the
# behavior of the three fastening methods
TWIST_BIAS = {"tape": -2.0, "weld": -2.5, "loop": 0.1}
TWIST_SD = {"tape": 1.2, "weld": 2.6, "loop": 0.9}
JOINT_BIAS = {"tape": 1.0, "weld": -0.5, "loop": 0.4}
JOINT_SD = {"tape": 1.0, "weld": 2.4, "loop": 0.9}
LENGTH_BIAS = {"tape": 0.1, "weld": -0.2, "loop": 2.2}
LENGTH_SD = {"tape": 0.6, "weld": 0.9, "loop": 0.7}
POST_TWIST_SHIFT = 0.8
POST_JOINT_SHIFT = 0.7
POST_LENGTH_SHIFT = 0.02


def three_bend_chain():
    return DHChain(
        [TARGET_A_MM] * 3,
        [0.0, math.radians(TARGET_ALPHA_DEG), 0.0],
        [0.0, math.radians(TARGET_THETA_DEG), math.radians(TARGET_THETA_DEG)],
        radius=16.5)


def write_chain_and_scene():
    chain = three_bend_chain()
    formats.write_chain(chain, os.path.join(HERE, "chain_threebend.json"))
    scene = ObstacleScene(
        spheres=(Sphere(center=[150.0, -70.0, 0.0], radius=35.0),
                 Sphere(center=[230.0, 150.0, -60.0], radius=25.0)),
        boxes=(Box(min_corner=[60.0, 60.0, -40.0], max_corner=[130.0, 120.0, 40.0]),))
    formats.write_scene(scene, os.path.join(HERE, "scene.json"))
    formats.write_json({
        "chain": "chain_threebend.json",
        "gap": {"method": "tape"},
        "scene": "scene.json",
        "units": "deg",
    }, os.path.join(HERE, "project.json"))
    # a waypoint path for the polyline design demo
    pts = np.array([[0.0, 0.0, 0.0], [120.0, 0.0, 0.0], [200.0, 90.0, 0.0],
                    [220.0, 170.0, 60.0], [190.0, 240.0, 130.0]])
    formats.write_polyline(pts, os.path.join(HERE, "path_waypoints.csv"))
    return chain


def write_marker_logs(chain, rng):
    pre = synthetic_markers(chain, n_samples=100, rate_hz=20.0,
                            position_noise_mm=0.05, rotation_noise_deg=0.2,
                            rng=rng)
    formats.write_markers(pre, os.path.join(HERE, "markers_pre.csv"))
    # after repeated growth the bends settle slightly away from the target
    post_chain = DHChain(
        [100.31, 99.74, 100.22],
        [0.0, math.radians(TARGET_ALPHA_DEG + 0.9), 0.0],
        [0.0, math.radians(TARGET_THETA_DEG + 0.62),
         math.radians(TARGET_THETA_DEG - 0.41)],
        radius=16.5)
    post = synthetic_markers(post_chain, n_samples=100, rate_hz=20.0,
                             position_noise_mm=0.05, rotation_noise_deg=0.2,
                             rng=rng)
    formats.write_markers(post, os.path.join(HERE, "markers_post.csv"))


def write_sample_table(rng):
    """One twist, two joints, three lengths per robot and phase.

    Each physical quantity keeps its fabrication error across phases (the
    fold does not move); repeated growth adds a small systematic shift plus
    measurement noise, so paired pre/post tests see correlated samples.
    """
    target = {"twist": TARGET_ALPHA_DEG, "joint": TARGET_THETA_DEG,
              "length": TARGET_A_MM}
    bias = {"twist": TWIST_BIAS, "joint": JOINT_BIAS, "length": LENGTH_BIAS}
    spread = {"twist": TWIST_SD, "joint": JOINT_SD, "length": LENGTH_SD}
    shift = {"twist": POST_TWIST_SHIFT, "joint": POST_JOINT_SHIFT,
             "length": POST_LENGTH_SHIFT}
    noise = {"twist": 0.15, "joint": 0.15, "length": 0.1}
    counts = {"twist": 1, "joint": 2, "length": 3}

    quantities = []
    for method, material in STATS_COMBOS:
        for k in range(1, ROBOTS_PER_COMBO + 1):
            robot = f"{method}-{material}-{k}"
            for param in ("twist", "joint", "length"):
                for _ in range(counts[param]):
                    fabricated = (target[param] + bias[param][method]
                                  + rng.normal(0.0, spread[param][method]))
                    quantities.append((method, material, robot, param, fabricated))

    rows = []
    for phase in ("pre", "post"):
        for method, material, robot, param, fabricated in quantities:
            value = fabricated + rng.normal(0.0, noise[param])
            if phase == "post":
                value += shift[param]
            rows.append((value, method, material, phase, param, robot))
    formats.write_samples(SampleTable(*zip(*rows)),
                          os.path.join(HERE, "dh_samples.csv"))


def write_growth_pressures(rng):
    """A plain CSV shaped like minimum-pressure data."""
    base_pressure = {("tape", "ldpe"): 11.5, ("tape", "fabric"): 16.5,
                     ("weld", "fabric"): 17.0, ("loop", "ldpe"): 17.5,
                     ("loop", "fabric"): 22.5}
    with open(os.path.join(HERE, "growth_pressures.csv"), "w",
              encoding="utf-8", newline="") as fh:
        fh.write("method,material,robot_id,min_pressure_kpa\n")
        for (method, material), base in base_pressure.items():
            for k in range(1, ROBOTS_PER_COMBO + 1):
                p = base + rng.normal(0.0, 0.7)
                fh.write(f"{method},{material},{method}-{material}-{k},"
                         f"{formats.fmt9(p)}\n")


def main():
    rng = np.random.default_rng(20240917)
    chain = write_chain_and_scene()
    write_marker_logs(chain, rng)
    write_sample_table(rng)
    write_growth_pressures(rng)
    plan = compile_plan(chain, GapModel.for_method("tape"))
    print(f"wrote bundled data to {HERE}")
    print(f"  three-bend plan total tube length: "
          f"{formats.fmt9(plan.total_tube_length)} mm")


if __name__ == "__main__":
    main()
