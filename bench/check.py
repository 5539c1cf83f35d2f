"""Output checks: vinefab's outputs against oracle.py and scipy.stats.

`check(manifest, result)` returns (failed, problems): the indices of
operations that failed, and a list of problems. Problems make the run
incorrect; a failed operation does not, as long as it is one of the known
mixed-sign round trips of design_batch. This module imports scipy.stats, so
it runs in the `run.py` process, never in the timed worker.
"""

import csv
import json
import math
import os
import re
import statistics

import numpy as np
from scipy import stats

import oracle
from inputs import BUNDLED, CLI_GROW_STEPS, GROWTH_STEPS, LOOP_D_G_MM

P_ATOL = 1e-6           # p-values; the studentized range CDF is good to ~1e-6
ROUND_TRIP_TOL_MM = 1e-6
NOISY_MEDIAN_JOINT_DEG = 0.2   # the acceptance suite's bound under 0.1 mm noise
SWEEP_STEP_MM = 1.0
CLEARANCE_ROW_STRIDE = 4


def _close(got, want, rel=1e-8, abs_=1e-9):
    return abs(float(got) - float(want)) <= abs_ + rel * abs(float(want))


def _read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _chain(path):
    doc = _load_json(path)
    a = [float(l["a_mm"]) for l in doc["links"]]
    alpha = [math.radians(float(l.get("alpha_deg", 0.0))) for l in doc["links"]]
    theta = [math.radians(float(l.get("theta_deg", 0.0))) for l in doc["links"]]
    return a, alpha, theta, float(doc["radius_mm"])


def _repeat_problems(manifest, result, failed):
    """Every repeat of one input must give byte-identical outputs."""
    first, problems = {}, []
    for i, (key, digest) in enumerate(zip(manifest["ops"], result["digests"])):
        if i in failed:
            continue
        if first.setdefault(str(key), digest) != digest:
            problems.append(f"op {i}: outputs differ from an earlier run of input {key}")
    return problems


# ------------------------------------------------------------ fabrication

def _plan_problems(tag, a, theta, r, d_g, s_tilde, cylinders, total):
    s, cyl, tot = oracle.plan(a, theta, r, d_g)
    problems = []
    if not all(_close(x, y) for x, y in zip(s_tilde, s)) or len(s) != len(s_tilde):
        problems.append(f"{tag}: fold distances differ from the closed form")
    if not all(_close(x, y) for x, y in zip(cylinders, cyl)) or len(cyl) != len(cylinders):
        problems.append(f"{tag}: cylinder lengths differ from the closed form")
    if not _close(total, tot):
        problems.append(f"{tag}: total tube length {total} != {tot}")
    return problems


def _svg_problems(tag, svg, total, theta):
    problems = []
    height = re.search(r'height="([^"]+)mm"', svg)
    if height is None or not _close(float(height.group(1)), total):
        problems.append(f"{tag}: pattern height does not match the tube length")
    folds = sum(1 for t in theta if t != 0.0)
    if svg.count("<circle") != 2 * folds:
        problems.append(f"{tag}: pattern marks {svg.count('<circle')} points, "
                        f"expected {2 * folds}")
    return problems


def _fk_problems(tag, a, alpha, theta, poses):
    """poses: per frame (translation (3,), rotation (3, 3))."""
    frames = oracle.fk(a, alpha, theta)
    if len(frames) != len(poses):
        return [f"{tag}: {len(poses)} frames, expected {len(frames)}"]
    scale = 1.0 + sum(a)
    for k, (f, (t, rot)) in enumerate(zip(frames, poses)):
        if (np.max(np.abs(f[:3, 3] - t)) > 1e-9 * scale
                or np.max(np.abs(f[:3, :3] - rot)) > 1e-9):
            return [f"{tag}: frame {k} differs from homogeneous-matrix FK"]
    return []


def check_design(manifest, result):
    failed, problems, unexpected, broken = set(), [], set(), set()
    for key, rec in result["records"].items():
        spec = manifest["inputs"][key]
        d_g = LOOP_D_G_MM if spec["method"] == "loop" else 0.0
        if spec["type"] == "waypoints":
            with open(spec["path"], encoding="utf-8", newline="") as fh:
                pts = np.array([[float(v) for v in row.values()]
                                for row in csv.DictReader(fh)])
            a, theta = oracle.polyline_bends(pts)
            r, design = spec["radius"], pts
        else:
            a, alpha, theta, r = _chain(spec["path"])
            design = oracle.vertices(a, alpha, theta)
        problems += _plan_problems(key, a, theta, r, d_g, rec["s_tilde"],
                                   rec["cylinders"], rec["total"])
        problems += _svg_problems(key, rec["svg"], rec["total"], theta)
        ra, ralpha, rtheta = zip(*rec["recovered"])
        poses = [(np.array(f[:3]), np.array(f[3:]).reshape(3, 3)) for f in rec["frames"]]
        problems += _fk_problems(key, ra, ralpha, rtheta, poses)
        residual = oracle.rigid_residual(design, [t for t, _ in poses])
        if not residual <= ROUND_TRIP_TOL_MM:
            broken.add(key)
            if not spec.get("mixed_sign"):
                problems.append(f"{key}: compile -> recover -> FK is off the "
                                f"designed centerline by {residual:.3g} mm")
    for i, key in enumerate(manifest["ops"]):
        if key in broken or not result["ok"][i]:
            failed.add(i)
            if not manifest["inputs"][key].get("mixed_sign"):
                unexpected.add(i)
    problems += [f"op {i} ({manifest['ops'][i]}) failed" for i in sorted(unexpected)]
    return failed, problems + _repeat_problems(manifest, result, failed)


# ----------------------------------------------------------------- growth

def _scene(path):
    doc = _load_json(path)
    spheres = [(np.array(s["center_mm"], float), float(s["radius_mm"]))
               for s in doc.get("spheres", [])]
    boxes = [(np.array(b["min_mm"], float), np.array(b["max_mm"], float))
             for b in doc.get("boxes", [])]
    return spheres, boxes


def _trace_problems(tag, trace_path, chain_path, scene_path, steps):
    a, alpha, theta, r = _chain(chain_path)
    verts = oracle.vertices(a, alpha, theta)
    spheres, boxes = _scene(scene_path)
    rows = _read_csv(trace_path)
    total = sum(a)
    if len(rows) != steps + 1:
        return [f"{tag}: {len(rows)} trace rows, expected {steps + 1}"]
    for i, row in enumerate(rows):
        everted = total * i / steps
        if not _close(float(row["everted_mm"]), everted):
            return [f"{tag}: row {i} everted length {row['everted_mm']} != {everted}"]
        tip = oracle.tip_along(verts, everted)
        got = [float(row[c]) for c in ("tip_x_mm", "tip_y_mm", "tip_z_mm")]
        if any(abs(g - w) > 1e-8 * (1.0 + total) for g, w in zip(got, tip)):
            return [f"{tag}: row {i} tip {got} != interpolated FK {tip.tolist()}"]
        if i % CLEARANCE_ROW_STRIDE == 0 or i == steps:
            want = oracle.clearance(verts, everted, SWEEP_STEP_MM, r, spheres, boxes)
            if not _close(float(row["clearance_mm"]), want, abs_=1e-7):
                return [f"{tag}: row {i} clearance {row['clearance_mm']} != "
                        f"brute force {want}"]
    return []


def check_growth(manifest, result):
    failed = {i for i, ok in enumerate(result["ok"]) if not ok}
    problems = [f"op {i} exited non-zero" for i in sorted(failed)]
    for key in result["records"]:
        entry = manifest["pool"][int(key)]
        out = entry["calls"][0][entry["calls"][0].index("--out") + 1]
        trace_path = os.path.join(out, "grow_trace.csv")
        problems += _trace_problems(f"chain {key}", trace_path, entry["chain"],
                                    entry["scene"], GROWTH_STEPS)
        worst = min(float(row["clearance_mm"]) for row in _read_csv(trace_path))
        printed = re.search(r"worst clearance: (\S+) mm", result["records"][key]["stdout"])
        if printed is None or not _close(float(printed.group(1)), worst):
            problems.append(f"chain {key}: printed worst clearance is not the "
                            "trace's minimum")
    return failed, problems + _repeat_problems(manifest, result, failed)


# ------------------------------------------------------------ measurement

def _marker_means(path):
    sums = {}
    for row in _read_csv(path):
        p = np.array([float(row[c]) for c in ("x_mm", "y_mm", "z_mm")])
        total, count = sums.get(row["marker_id"], (np.zeros(3), 0))
        sums[row["marker_id"]] = (total + p, count + 1)
    return {k.strip().lower(): total / count for k, (total, count) in sums.items()}


def _measure_problems(tag, out_dir, markers_path, chain_path, exact):
    a, alpha, theta, _ = _chain(chain_path)
    measured = _load_json(os.path.join(out_dir, "measured_dh.json"))
    got_t = {j["joint"]: math.radians(j["theta_deg"]) for j in measured["joints"]}
    got_a = {t["link"]: math.radians(t["alpha_deg"]) for t in measured["twists"]}
    got_l = {l["link"]: l["a_mm"] for l in measured["lengths"]}
    want_t, want_a, want_l = oracle.recover(_marker_means(markers_path))
    if exact:
        # a noise-free log must give back the generating chain
        want_t = {j: abs(theta[j - 1]) for j in want_t}
        want_a = {i: alpha[i - 1] for i in want_a}
        want_l = {i: a[i - 1] for i in want_l}
    problems = []
    for name, got, want, tol in (("joint", got_t, want_t, 1e-7),
                                 ("twist", got_a, want_a, 1e-7),
                                 ("length", got_l, want_l, 1e-5)):
        if set(got) != set(want):
            problems.append(f"{tag}: {name} indices {sorted(got)} != {sorted(want)}")
            continue
        for k in want:
            diff = got[k] - want[k]
            if name != "length":
                diff = math.remainder(diff, 2.0 * math.pi)
            if abs(diff) > tol:
                problems.append(f"{tag}: {name} {k} recovered as {got[k]!r}, "
                                f"expected {want[k]!r}")
                break
    target = {"joint": lambda k: math.degrees(abs(theta[k - 1])),
              "twist": lambda k: math.degrees(alpha[k - 1]),
              "length": lambda k: a[k - 1]}
    joint_errors = []
    for row in _read_csv(os.path.join(out_dir, "dh_errors.csv")):
        k = int(row["joint_or_link_index"])
        want = target[row["parameter"]](k)
        err = float(row["error"])
        if not (_close(row["target"], want, abs_=1e-6)
                and _close(err, float(row["measured"]) - want, abs_=1e-6)):
            problems.append(f"{tag}: error row {row['parameter']} {k} is inconsistent")
            break
        if row["parameter"] == "joint":
            joint_errors.append(abs(err))
    return problems, joint_errors


# ------------------------------------------------------------- statistics

_LEVELS = {"method": ("tape", "weld", "loop"), "material": ("ldpe", "fabric")}


def _p_close(tag, got, want):
    if abs(float(got) - float(want)) > P_ATOL:
        return [f"{tag}: p = {got}, scipy.stats gives {want}"]
    return []


def _report_problems(tag, samples_path, report_path):
    rows = _read_csv(samples_path)
    report = _load_json(report_path)
    problems = []
    params = [p for p in ("twist", "joint", "length")
              if any(r["parameter"] == p for r in rows)]
    if list(report["parameters"]) != params or report["row_count"] != len(rows):
        return [f"{tag}: report covers {list(report['parameters'])}, "
                f"{report['row_count']} rows"]
    for param in params:
        sub = [r for r in rows if r["parameter"] == param]
        for factor, levels in _LEVELS.items():
            where = f"{tag} {param}/{factor}"
            block = report["parameters"][param][factor]
            by_level = {lv: np.array([float(r["value"]) for r in sub if r[factor] == lv])
                        for lv in levels}
            by_level = {lv: g for lv, g in by_level.items() if g.size}
            groups = list(by_level.values())
            for lv, g in by_level.items():
                s = block["groups"][lv]
                half = stats.t.ppf(0.975, g.size - 1) * g.std(ddof=1) / math.sqrt(g.size)
                if not (s["n"] == g.size and _close(s["mean"], g.mean(), abs_=1e-6)
                        and _close(s["ci_high"] - s["ci_low"], 2 * half, rel=1e-6,
                                   abs_=1e-6)):
                    problems.append(f"{where} {lv}: summary differs from scipy.stats.t")
            levene = stats.levene(*groups, center="median").pvalue
            problems += _p_close(f"{where} Levene", block["homogeneity"]["p_value"], levene)
            equal_var = block["homogeneity"]["p_value"] >= 0.05
            omnibus = block["omnibus"]
            if factor == "method":
                want = (stats.f_oneway(*groups) if equal_var else stats.kruskal(*groups))
                name = "one-way ANOVA" if equal_var else "Kruskal-Wallis"
                if omnibus["test"] != name:
                    problems.append(f"{where}: ran {omnibus['test']}, expected {name}")
                problems += _p_close(f"{where} {name}", omnibus["p_value"], want.pvalue)
                tukey = stats.tukey_hsd(*groups).pvalue
                pairs = [(i, j) for i in range(len(groups)) for j in range(i + 1, len(groups))]
                names = list(by_level)
                if [(p["a"], p["b"]) for p in block["pairwise"]] != [
                        (names[i], names[j]) for i, j in pairs]:
                    problems.append(f"{where}: Tukey pairs are not every level pair")
                for pair, (i, j) in zip(block["pairwise"], pairs):
                    problems += _p_close(f"{where} Tukey {pair['a']}-{pair['b']}",
                                         pair["p_value"], tukey[i, j])
            else:
                want = stats.ttest_ind(*groups, equal_var=equal_var).pvalue
                problems += _p_close(f"{where} t-test", omnibus["p_value"], want)

        def phase_values(phase):
            # the documented pairing: stable order by (method, material, robot)
            chosen = [r for r in sub if r["phase"] == phase]
            chosen.sort(key=lambda r: (r["method"], r["material"], r["robot_id"]))
            return np.array([float(r["value"]) for r in chosen])

        paired = report["parameters"][param]["phase"]["omnibus"]
        want = stats.ttest_rel(phase_values("pre"), phase_values("post")).pvalue
        problems += _p_close(f"{tag} {param}/phase paired t-test", paired["p_value"], want)
    return problems


def check_campaign(manifest, result):
    failed = {i for i, ok in enumerate(result["ok"]) if not ok}
    problems = [f"op {i} exited non-zero" for i in sorted(failed)]
    for key in result["records"]:
        entry = manifest["pool"][int(key)]
        for k, log in enumerate(entry["logs"]):
            found, joint_errors = _measure_problems(
                f"campaign {key} log {k}", log["out"], log["path"], entry["chain"],
                exact=not log["noisy"])
            problems += found
            if log["noisy"] and not statistics.median(joint_errors) < NOISY_MEDIAN_JOINT_DEG:
                problems.append(f"campaign {key} log {k}: median joint error "
                                f"{statistics.median(joint_errors):.3g} deg")
        problems += _report_problems(f"campaign {key}", entry["samples"], entry["report"])
    return failed, problems + _repeat_problems(manifest, result, failed)


# ---------------------------------------------------------------- cli_cold

def check_cli(manifest, result):
    failed = {i for i, ok in enumerate(result["ok"]) if not ok}
    problems = [f"op {i} exited non-zero" for i in sorted(failed)]
    out = {entry["name"]: entry["out"] for entry in manifest["pool"]}
    project = _load_json(f"{BUNDLED}/project.json")
    chain_path = os.path.join(BUNDLED, project["chain"])
    scene_path = os.path.join(BUNDLED, project["scene"])
    a, alpha, theta, r = _chain(chain_path)

    plan = _load_json(os.path.join(out["plan"], "plan.json"))
    problems += _plan_problems("plan", a, theta, r, 0.0,
                               [j["s_tilde_mm"] for j in plan["joints"]],
                               plan["cylinders_mm"], plan["total_tube_length_mm"])
    with open(os.path.join(out["pattern"], "pattern.svg"), encoding="utf-8") as fh:
        problems += _svg_problems("pattern", fh.read(), plan["total_tube_length_mm"], theta)

    frames = oracle.fk(a, alpha, theta)
    rows = _read_csv(os.path.join(out["fk"], "fk_frames.csv"))
    if len(rows) != len(frames):
        problems.append(f"fk: {len(rows)} frames, expected {len(frames)}")
    for row, f in zip(rows, frames):
        t = [float(row[c]) for c in ("x_mm", "y_mm", "z_mm")]
        q = np.array([float(row[c]) for c in ("qw", "qx", "qy", "qz")])
        want_q = oracle.rotation_to_quaternion(f[:3, :3])
        if (not all(_close(x, y, abs_=1e-7) for x, y in zip(t, f[:3, 3]))
                or min(np.max(np.abs(q - want_q)), np.max(np.abs(q + want_q))) > 1e-8):
            problems.append(f"fk: frame {row['frame']} differs from homogeneous-matrix FK")
            break

    problems += _trace_problems("grow", os.path.join(out["grow"], "grow_trace.csv"),
                                chain_path, scene_path, CLI_GROW_STEPS)
    for name, markers in (("measure_pre", "markers_pre.csv"),
                          ("measure_post", "markers_post.csv")):
        found, _ = _measure_problems(name, out[name], os.path.join(BUNDLED, markers),
                                     chain_path, exact=False)
        problems += found
    problems += _report_problems("analyze", os.path.join(BUNDLED, "dh_samples.csv"),
                                 os.path.join(out["analyze"], "report.json"))
    return failed, problems + _repeat_problems(manifest, result, failed)


CHECKS = {"cli_cold": check_cli, "design_batch": check_design,
          "growth_scene": check_growth, "campaign": check_campaign}


def check(manifest, result):
    return CHECKS[manifest["workload"]](manifest, result)
