import math

import numpy as np
import pytest

from vinefab.errors import DegenerateDataError, ValidationError
from vinefab.stats import (SampleRow, SampleTable, analyze_table,
                           group_summary, kruskal_wallis, levene_test,
                           one_way_anova, significance_stars,
                           t_test_independent, t_test_paired, t_test_welch,
                           tukey_hsd)

from oracles import anova_brute, t_independent_brute


def test_anova_equal_means_zero_f():
    groups = [[1.0, 2.0, 3.0], [1.5, 2.0, 2.5], [0.0, 2.0, 4.0]]
    res = one_way_anova(groups)
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0, abs=1e-12)


def test_anova_matches_brute_force():
    rng = np.random.default_rng(79)
    for _ in range(50):
        groups = [rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2),
                             rng.integers(3, 15)).tolist() for _ in range(4)]
        res = one_way_anova(groups)
        f_ref, df1, df2 = anova_brute(groups)
        assert res.statistic == pytest.approx(f_ref, rel=1e-12)
        assert res.df == (df1, df2)


def test_anova_f_equals_t_squared():
    rng = np.random.default_rng(83)
    for _ in range(100):
        a = rng.normal(0, 1, rng.integers(3, 20))
        b = rng.normal(0.4, 1.3, rng.integers(3, 20))
        f = one_way_anova([a, b])
        t = t_test_independent(a, b)
        assert f.statistic == pytest.approx(t.statistic ** 2, abs=1e-9)
        assert f.p_value == pytest.approx(t.p_value, abs=1e-9)


def test_anova_degenerate():
    with pytest.raises(ValidationError):
        one_way_anova([[1.0, 2.0]])
    with pytest.raises(ValidationError):
        one_way_anova([[1.0], [2.0, 3.0]])
    with pytest.raises(DegenerateDataError):
        one_way_anova([[1.0, 1.0], [2.0, 2.0]])


def test_order_invariance():
    rng = np.random.default_rng(89)
    a, b, c = (rng.normal(m, 1, 12) for m in (0.0, 0.5, 1.0))
    shuffled = [rng.permutation(g) for g in (a, b, c)]
    assert one_way_anova([a, b, c]).p_value == pytest.approx(
        one_way_anova(shuffled).p_value, abs=1e-12)
    assert kruskal_wallis([a, b, c]).statistic == pytest.approx(
        kruskal_wallis(shuffled).statistic, abs=1e-12)
    assert levene_test([a, b, c]).statistic == pytest.approx(
        levene_test(shuffled).statistic, abs=1e-12)


def test_levene_behavior():
    rng = np.random.default_rng(97)
    equal = [rng.normal(0, 1.0, 30) for _ in range(3)]
    assert levene_test(equal).p_value > 0.1
    scaled = [rng.normal(0, 1.0, 30), rng.normal(0, math.sqrt(10.0), 30),
              rng.normal(0, 1.0, 30)]
    assert levene_test(scaled).p_value < 0.05
    with pytest.raises(ValidationError):
        levene_test([[1.0], [2.0]])


def test_kruskal_wallis_identical_groups():
    res = kruskal_wallis([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0, abs=1e-12)


def test_kruskal_wallis_all_tied():
    res = kruskal_wallis([[5.0, 5.0, 5.0], [5.0, 5.0], [5.0, 5.0, 5.0]])
    assert res.statistic == 0.0
    assert math.isfinite(res.p_value)


def test_kruskal_wallis_monotone_invariance():
    rng = np.random.default_rng(101)
    groups = [rng.normal(m, 1, 10) for m in (0.0, 0.8, 1.6)]
    base = kruskal_wallis(groups)
    transformed = kruskal_wallis([np.exp(g) for g in groups])
    assert base.statistic == pytest.approx(transformed.statistic, abs=1e-12)
    assert base.p_value == pytest.approx(transformed.p_value, abs=1e-12)


def test_tukey_identical_groups_not_significant():
    rng = np.random.default_rng(103)
    g = rng.normal(0, 1, 10)
    res = tukey_hsd([g, g + 0.0, np.array(g)], labels=["a", "b", "c"])
    assert not any(p.significant for p in res.pairs)
    assert all(p.p_value == pytest.approx(1.0, abs=1e-9) for p in res.pairs)


def test_tukey_two_groups_q_is_sqrt2_t():
    rng = np.random.default_rng(107)
    for _ in range(100):
        a = rng.normal(0, 1, rng.integers(3, 15))
        b = rng.normal(0.5, 1, rng.integers(3, 15))
        res = tukey_hsd([a, b])
        t = t_test_independent(a, b)
        assert res.pairs[0].q == pytest.approx(
            math.sqrt(2.0) * abs(t.statistic), abs=1e-9)


def test_tukey_one_shifted_group():
    rng = np.random.default_rng(109)
    groups = [rng.normal(0, 1, 15), rng.normal(0, 1, 15), rng.normal(4, 1, 15)]
    res = tukey_hsd(groups, labels=["tape", "weld", "loop"])
    flags = {(p.a, p.b): p.significant for p in res.pairs}
    assert flags[("tape", "loop")] and flags[("weld", "loop")]
    assert not flags[("tape", "weld")]
    for p in res.pairs:
        if p.significant:
            assert p.stars != ""


def test_significance_star_levels():
    assert significance_stars(0.04) == "*"
    assert significance_stars(0.009) == "**"
    assert significance_stars(0.0009) == "***"
    assert significance_stars(0.06) == ""
    assert significance_stars(0.05) == ""


def test_t_tests_against_brute_force():
    rng = np.random.default_rng(113)
    for _ in range(50):
        a = rng.normal(0, 1, rng.integers(4, 20))
        b = rng.normal(0.3, 1.4, rng.integers(4, 20))
        res = t_test_independent(a, b)
        assert res.statistic == pytest.approx(t_independent_brute(list(a), list(b)),
                                              rel=1e-12)


def test_welch_equals_independent_for_matched_groups():
    rng = np.random.default_rng(127)
    a = rng.normal(0, 1, 12)
    b = a + 0.5  # identical sample variance, equal sizes
    ind = t_test_independent(a, b)
    welch = t_test_welch(a, b)
    assert welch.statistic == pytest.approx(ind.statistic, abs=1e-9)
    assert welch.p_value == pytest.approx(ind.p_value, abs=1e-9)
    assert welch.df[0] == pytest.approx(ind.df[0], abs=1e-9)


def test_paired_t_identical_is_unit_p():
    res = t_test_paired([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.statistic == 0.0
    assert res.p_value == 1.0
    # identical constant groups: zero variance and zero mean difference
    for test in (t_test_independent, t_test_welch):
        res = test([2.5, 2.5, 2.5], [2.5, 2.5])
        assert (res.statistic, res.p_value, res.df) == (0.0, 1.0, (3,))
        with pytest.raises(DegenerateDataError):
            test([2.5, 2.5, 2.5], [3.5, 3.5])
    with pytest.raises(ValidationError):
        t_test_paired([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateDataError):
        t_test_paired([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])


def test_group_summary_edges():
    res = group_summary({"one": [5.0], "flat": [2.0, 2.0, 2.0],
                         "normal": [1.0, 2.0, 3.0]})
    assert res["one"].n == 1 and res["one"].ci_low is None
    assert res["flat"].ci_low == res["flat"].ci_high == 2.0
    assert res["normal"].ci_low < 2.0 < res["normal"].ci_high


def test_group_summary_coverage():
    rng = np.random.default_rng(131)
    hits = 0
    trials = 10_000
    for _ in range(trials):
        s = group_summary({"g": rng.normal(3.0, 1.5, 10)})["g"]
        hits += s.ci_low <= 3.0 <= s.ci_high
    assert 0.94 < hits / trials < 0.96


# ---------------------------------------------------------------- SampleTable

def _row(value, method="tape", material="ldpe", phase="pre", parameter="joint",
         robot="r1"):
    return SampleRow(value=value, method=method, material=material,
                     phase=phase, parameter=parameter, robot_id=robot)


def test_sample_row_validation():
    with pytest.raises(ValidationError, match="method"):
        _row(1.0, method="glue")
    with pytest.raises(ValidationError, match="finite"):
        _row(math.nan)


def test_summarize_by_factor():
    table = SampleTable(rows=(
        _row(1.0, method="tape"), _row(3.0, method="tape"),
        _row(10.0, method="loop"), _row(12.0, method="loop")))
    summaries = group_summary(table.values_by("method"))
    assert list(summaries) == ["tape", "loop"]
    assert summaries["tape"].mean == 2.0
    assert summaries["loop"].ci_low < 11.0 < summaries["loop"].ci_high


def test_values_by_canonical_order():
    table = SampleTable(rows=(
        _row(1.0, method="loop"), _row(2.0, method="tape"),
        _row(3.0, method="weld"), _row(4.0, method="tape")))
    groups = table.values_by("method")
    assert list(groups) == ["tape", "weld", "loop"]
    np.testing.assert_array_equal(groups["tape"], [2.0, 4.0])
    with pytest.raises(ValidationError):
        table.values_by("color")


def test_paired_phases_matching():
    rows = []
    for robot in ("r1", "r2"):
        rows.append(_row(1.0, phase="pre", robot=robot))
        rows.append(_row(2.0, phase="post", robot=robot))
    pre, post = SampleTable(rows=tuple(rows)).paired_phases()
    np.testing.assert_array_equal(pre, [1.0, 1.0])
    np.testing.assert_array_equal(post, [2.0, 2.0])
    bad = SampleTable(rows=tuple(rows[:-1]))
    with pytest.raises(ValidationError, match="pair"):
        bad.paired_phases()


def test_analyze_single_group_notices():
    table = SampleTable(rows=tuple(_row(v) for v in (1.0, 2.0, 3.0)))
    report = analyze_table(table)
    assert report["parameters"]["joint"]["method"]["omnibus"] is None
    assert any("single group" in n for n in report["notices"])


def test_analyze_constant_data_trips_guards():
    rows = tuple(_row(5.0, method=m, robot=f"r{i}")
                 for m in ("tape", "weld") for i in range(4))
    report = analyze_table(SampleTable(rows=rows))
    assert any("zero variance" in n.lower() or "deviations" in n.lower()
               for n in report["notices"])


def test_analyze_full_table_runs_expected_tests():
    rng = np.random.default_rng(137)
    rows = []
    for method, mean in (("tape", 44.0), ("weld", 43.0), ("loop", 45.0)):
        for material in ("ldpe", "fabric"):
            for k in range(3):
                robot = f"{method}-{material}-{k}"
                base = rng.normal(mean, 1.0)
                rows.append(SampleRow(base, method, material, "pre", "joint", robot))
                rows.append(SampleRow(base + 0.5 + rng.normal(0, 0.1), method,
                                      material, "post", "joint", robot))
    report = analyze_table(SampleTable(rows=tuple(rows)))
    block = report["parameters"]["joint"]
    assert block["method"]["homogeneity"]["test"].startswith("Levene")
    assert block["method"]["omnibus"]["test"] in ("one-way ANOVA", "Kruskal-Wallis")
    assert len(block["method"]["pairwise"]) == 3
    assert block["material"]["omnibus"]["test"].endswith("t-test")
    assert block["phase"]["omnibus"]["test"] == "paired t-test"
    assert block["phase"]["omnibus"]["p_value"] < 0.01  # the shift is real
