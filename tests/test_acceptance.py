"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a [PASS] line with its runtime (visible with `pytest -s`);
a failure shows up as the test's FAILED line. Run:

    pytest tests/test_acceptance.py -v -s
"""

import json
import math
import os
import time
from contextlib import contextmanager

import numpy as np

from vinefab.fabrication import (GapModel, axial_fold_distance, compile_plan,
                                 recover_chain)
from vinefab.geometry import DHChain, fk_chain
from vinefab.measurement import recover_dh, synthetic_markers
from vinefab.special import studentized_range_cdf
from vinefab.stats import (one_way_anova, t_test_independent, t_test_paired,
                           t_test_welch, tukey_hsd)

from conftest import DATA_DIR, random_feasible_chain, run_cli
from oracles import fk_homogeneous, ks_uniform_distance, mc_studentized_range_cdf

README = os.path.join(os.path.dirname(__file__), "..", "README.md")


@contextmanager
def criterion(name, budget_s):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, \
        f"{name}: runtime {elapsed:.2f}s exceeded budget {budget_s}s"
    print(f"[PASS] {name} ({elapsed:.2f}s)")


def reference_chain():
    return DHChain(
        [100.0, 100.0, 100.0],
        [0.0, math.pi / 4.0, 0.0],
        [0.0, math.pi / 4.0, math.pi / 4.0],
        radius=16.5)


def test_golden_three_bend_compile():
    with criterion("fabrication golden case", budget_s=1.0):
        plan = compile_plan(reference_chain(), GapModel.for_method("tape"))
        np.testing.assert_allclose(plan.cylinders, [93.520, 87.041, 93.520],
                                   atol=1e-3)
        assert abs(plan.joints[1].s_tilde - 25.918) < 1e-3
        assert abs(plan.joints[2].s_tilde - 25.918) < 1e-3
        assert abs(plan.arc_offsets[1] - 12.959) < 1e-3
        # independent direct evaluation of the three formulas
        s = 2.0 * 16.5 * (math.pi / 4.0)
        assert abs(plan.joints[1].s_tilde - s) < 1e-9
        assert abs(plan.cylinders[0] - (100.0 - s / 4.0)) < 1e-9
        assert abs(plan.cylinders[1] - (100.0 - 2.0 * s / 4.0)) < 1e-9
        assert abs(plan.arc_offsets[1] - 16.5 * math.pi / 4.0) < 1e-9


def test_gap_reduction_identity():
    with criterion("gap reduction to the flush model", budget_s=1.0):
        rng = np.random.default_rng(2024)
        thetas = rng.uniform(-math.pi + 0.01, math.pi - 0.01, 10_000)
        radii = rng.uniform(1.0, 60.0, 10_000)
        worst = max(abs(axial_fold_distance(t, r, 0.0) - 2.0 * r * t)
                    for t, r in zip(thetas, radii))
        assert worst < 1e-12


def test_round_trip_compile_recover():
    with criterion("plan round trip (1000 chains, both gaps)", budget_s=10.0):
        rng = np.random.default_rng(2025)
        gaps = (GapModel.for_method("tape"), GapModel.for_method("loop"))
        for _ in range(1000):
            chain = random_feasible_chain(rng, max_links=10)
            for gap in gaps:
                back = recover_chain(compile_plan(chain, gap), gap)
                assert np.max(np.abs(back.theta - chain.theta)) < 1e-9
                assert np.max(np.abs(back.alpha - chain.alpha)) < 1e-9
                assert np.max(np.abs(back.a - chain.a)) < 1e-9


def test_fk_matches_independent_oracle():
    with criterion("FK vs homogeneous-matrix oracle (1000 chains)", budget_s=5.0):
        rng = np.random.default_rng(2026)
        for _ in range(1000):
            chain = random_feasible_chain(rng, max_links=10,
                                          theta_deg=(-170.0, 170.0),
                                          zero_last_alpha=False)
            frames = fk_chain(chain)
            oracle = fk_homogeneous(chain.a, chain.alpha, chain.theta)
            for mine, ref in zip(frames, oracle):
                assert np.max(np.abs(mine.translation - ref[:3, 3])) < 1e-9
                assert np.max(np.abs(mine.rotation - ref[:3, :3])) < 1e-12


def _measurement_chain(rng):
    n = int(rng.integers(3, 8))
    a = rng.uniform(90.0, 250.0, n)
    theta = np.concatenate([[0.0], np.radians(rng.uniform(3.0, 150.0, n - 1))])
    alpha = np.concatenate([[0.0], rng.uniform(-math.pi + 1e-6, math.pi, n - 2),
                            [0.0]])
    return DHChain(a, alpha, theta, radius=16.5)


def test_measurement_inversion():
    with criterion("marker inversion: noiseless exact, noisy median < 0.2 deg",
                   budget_s=30.0):
        rng = np.random.default_rng(2027)
        for _ in range(200):
            chain = _measurement_chain(rng)
            measured = recover_dh(synthetic_markers(chain))
            for (j, th) in measured.joint_thetas:
                assert abs(th - chain.links[j - 1].theta) < 1e-9
            for (i, al) in measured.link_alphas:
                diff = (al - chain.links[i - 1].alpha + math.pi) \
                    % (2.0 * math.pi) - math.pi
                assert abs(diff) < 1e-9
            for (i, a) in measured.link_lengths:
                assert abs(a - chain.links[i - 1].a) < 1e-9

        errors = []
        for _ in range(1000):
            chain = _measurement_chain(rng)
            noisy = synthetic_markers(chain, position_noise_mm=0.1, rng=rng)
            measured = recover_dh(noisy)
            for (j, th) in measured.joint_thetas:
                errors.append(abs(math.degrees(th - chain.links[j - 1].theta)))
        assert float(np.median(errors)) < 0.2


def test_statistics_identities_uniformity_and_range_cdf():
    with criterion("statistics identities + null uniformity + range CDF vs MC",
                   budget_s=300.0):
        rng = np.random.default_rng(2028)

        # algebraic identities on 100 random two-group datasets
        for _ in range(100):
            a = rng.normal(0.0, 1.0, int(rng.integers(4, 20)))
            b = rng.normal(0.5, 1.5, int(rng.integers(4, 20)))
            f = one_way_anova([a, b])
            t = t_test_independent(a, b)
            assert abs(f.statistic - t.statistic ** 2) < 1e-9
            q = tukey_hsd([a, b]).pairs[0].q
            assert abs(q - math.sqrt(2.0) * abs(t.statistic)) < 1e-9

        # p-values are uniform under the null for every parametric test
        n_sim = 5000
        p_anova = np.empty(n_sim)
        p_ind = np.empty(n_sim)
        p_welch = np.empty(n_sim)
        p_paired = np.empty(n_sim)
        for i in range(n_sim):
            groups = [rng.normal(0.0, 1.0, 8) for _ in range(3)]
            p_anova[i] = one_way_anova(groups).p_value
            a = rng.normal(0.0, 1.0, 10)
            b = rng.normal(0.0, 1.0, 10)
            p_ind[i] = t_test_independent(a, b).p_value
            p_welch[i] = t_test_welch(rng.normal(0.0, 1.0, 8),
                                      rng.normal(0.0, 1.0, 12)).p_value
            p_paired[i] = t_test_paired(rng.normal(0.0, 1.0, 12),
                                        rng.normal(0.0, 1.0, 12)).p_value
        for name, p in (("ANOVA", p_anova), ("independent t", p_ind),
                        ("Welch t", p_welch), ("paired t", p_paired)):
            d = ks_uniform_distance(p)
            assert d < 0.05, f"{name}: KS distance {d:.4f}"

        # studentized range CDF vs a 1e7-draw Monte Carlo oracle, 10 points
        spots = [(3, 10.0, (2.0, 3.0, 3.88, 5.0)),
                 (4, 20.0, (2.5, 3.5, 4.5)),
                 (2, 5.0, (1.0, 2.8, 4.0))]
        checked = 0
        for k, df, qs in spots:
            ref = mc_studentized_range_cdf(np.array(qs), k, df,
                                           n_draws=10_000_000, seed=k * 1000)
            for q, r in zip(qs, ref):
                assert abs(studentized_range_cdf(q, k, df) - r) < 2e-3
                checked += 1
        assert checked == 10


def test_scope_statement_in_readme():
    with criterion("hardware-scale results declared out of desk scope",
                   budget_s=1.0):
        text = open(README, encoding="utf-8").read()
        assert "## Validation scope" in text
        lowered = text.lower()
        for phrase in ("physical", "hardware", "synthetic"):
            assert phrase in lowered
        section = text.split("## Validation scope", 1)[1]
        print("validation scope statement present:"
              f" {len(section.splitlines())} lines")


def _run_once(run_dir, data_dir):
    config = os.path.join(data_dir, "project.json")
    samples = os.path.join(data_dir, "dh_samples.csv")
    markers = os.path.join(data_dir, "markers_pre.csv")
    commands = [
        ("plan", ["plan", "--config", config, "--out", "."]),
        ("pattern", ["pattern", "--config", config, "--out", "."]),
        ("fk", ["fk", "--config", config, "--out", "."]),
        ("grow", ["grow", "--config", config, "--steps", "40", "--out", "."]),
        ("measure", ["measure", "--config", config, "--markers", markers,
                     "--out", "."]),
        ("analyze", ["analyze", "--samples", samples, "--out", "."]),
    ]
    stdouts = {}
    for name, argv in commands:
        code, out, err = run_cli(*argv, cwd=run_dir)
        assert code == 0, f"{name}: {err.decode()}"
        stdouts[name] = out
    files = {f: open(os.path.join(run_dir, f), "rb").read()
             for f in sorted(os.listdir(run_dir))}
    return stdouts, files


def test_cli_determinism(tmp_path):
    with criterion("CLI determinism: byte-identical repeated runs",
                   budget_s=120.0):
        data_dir = os.path.abspath(DATA_DIR)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        dir_a.mkdir()
        dir_b.mkdir()
        out_a, files_a = _run_once(str(dir_a), data_dir)
        out_b, files_b = _run_once(str(dir_b), data_dir)
        assert out_a == out_b
        assert sorted(files_a) == sorted(files_b)
        expected = {"plan.json", "pattern.svg", "fk_frames.csv",
                    "grow_trace.csv", "measured_dh.json", "dh_errors.csv",
                    "report.json"}
        assert expected <= set(files_a)
        for name in files_a:
            assert files_a[name] == files_b[name], f"{name} differs between runs"
        # sanity: the outputs carry real content
        report = json.loads(files_a["report.json"])
        assert report["row_count"] == 180
