import math
import re

import numpy as np
import pytest

from vinefab.errors import DegenerateDataError, ValidationError
from vinefab.special import studentized_range_cdf
from vinefab import stats
from vinefab.stats import (SampleTable, _median, _ranks_with_ties, _test_dict, analyze_table,
                           group_summary, kruskal_wallis, levene_test,
                           one_way_anova, significance_stars,
                           t_test_independent, t_test_paired, t_test_welch,
                           tukey_hsd)

from oracles import RowTable, anova_brute, ranks_with_ties_loop, t_independent_brute


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


def test_median_from_one_sort_equals_np_median_bit_for_bit():
    # rounding to one decimal makes ties and -0.0 entries
    rng = np.random.default_rng(101)
    groups = [np.array(g) for g in ([-0.0], [-0.0, -0.0], [-0.0, 0.0], [-1.0, 1.0])]
    for i in range(20_000):
        g = rng.normal(0.0, 3.0, int(rng.integers(1, 40)))
        groups.append(np.round(g, 1) if i % 2 else g)
    for g in groups:
        want = np.median(g)
        got = _median(g)
        assert type(got) is type(want) and got.tobytes() == want.tobytes(), g


def test_kruskal_wallis_identical_groups():
    res = kruskal_wallis([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
    assert res.statistic == pytest.approx(0.0, abs=1e-12)
    assert res.p_value == pytest.approx(1.0, abs=1e-12)


def test_kruskal_wallis_all_tied():
    res = kruskal_wallis([[5.0, 5.0, 5.0], [5.0, 5.0], [5.0, 5.0, 5.0]])
    assert res.statistic == 0.0
    assert math.isfinite(res.p_value)


def test_kruskal_ranks_match_the_loop_oracle():
    rng = np.random.default_rng(149)
    for _ in range(300):
        # rounded values tie; -0.0 and 0.0 tie too
        pooled = np.round(rng.normal(0, 1, rng.integers(1, 40)), rng.integers(0, 3))
        pooled[rng.random(pooled.size) < 0.1] *= -0.0
        ranks, ties = _ranks_with_ties(pooled)
        want_ranks, want_ties = ranks_with_ties_loop(pooled)
        assert np.array_equal(ranks, want_ranks) and ties == want_ties


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


def test_tukey_p_values_are_one_minus_the_scalar_cdf():
    # the family goes to studentized_range_cdf in one call; each pair's p is
    # still exactly what a call for that pair alone gives
    rng = np.random.default_rng(113)
    for n_groups in (2, 3, 5, 8):
        groups = [rng.normal(rng.uniform(0, 3), 1, rng.integers(3, 12))
                  for _ in range(n_groups)]
        res = tukey_hsd(groups)
        assert len(res.pairs) == n_groups * (n_groups - 1) // 2
        for pair in res.pairs:
            assert type(pair.p_value) is float
            assert pair.p_value == 1.0 - studentized_range_cdf(pair.q, n_groups, res.df)


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


@pytest.mark.parametrize("test, a, b, message", [
    (t_test_independent, [1e307, -1e307, 0.5e307], [1, 2, 3],
     "independent t-test: group 1: values overflow the mean or SD"),
    (t_test_welch, [1e307, -1e307, 0.5e307], [1, 2, 3],
     "Welch t-test: group 1: values overflow the mean or SD"),
    (t_test_paired, [1.0, math.nan], [1.0, 2.0], "paired t-test: group 1 has non-finite values"),
    (t_test_paired, [1.0, 2.0], [1.0, math.inf], "paired t-test: group 2 has non-finite values"),
    (t_test_paired, [[1, 2], [3]], [1.0, 2.0], "paired t-test: group 1 must be numbers"),
    (t_test_paired, [1e308, -1e308], [1.0, 2.0],
     "paired t-test: group 1: values overflow the mean or SD"),
], ids=["independent-overflow", "welch-overflow", "paired-nan", "paired-inf",
        "paired-ragged", "paired-overflow"])
def test_t_tests_check_their_groups(test, a, b, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}"):
        test(a, b)


def test_welch_df_of_huge_variances_stays_in_range():
    # (va + vb) ** 2 passes float range here, although t and df do not
    big, small = np.arange(1, 7) * 1e100, 1.0 + np.arange(6) * 0.01
    res = t_test_welch(big, small)
    assert res.df == (5.0,) and res.statistic == pytest.approx(3.5e100 / np.std(big, ddof=1)
                                                              * math.sqrt(6), rel=1e-12)
    # below 2**500 nothing is scaled: df is the plain formula, bit for bit
    va, vb = np.var(big / 1e90, ddof=1) / 6, np.var(small, ddof=1) / 6
    assert t_test_welch(big / 1e90, small).df == ((va + vb) ** 2 / (va ** 2 / 5 + vb ** 2 / 5),)


def test_group_summary_edges():
    res = group_summary({"one": [5.0], "flat": [2.0, 2.0, 2.0],
                         "normal": [1.0, 2.0, 3.0]})
    assert res["one"].n == 1 and res["one"].ci_low is None
    assert res["flat"].ci_low == res["flat"].ci_high == 2.0
    assert res["normal"].ci_low < 2.0 < res["normal"].ci_high


def test_group_summary_rejects_overflowing_groups():
    # the mean of [1e308, 1e308] and the SD of [1e308, -1e308] pass float range
    for values in ([1.0, 2.0], [1e308, 1e308]), ([1.0, 2.0], [1e308, -1e308]):
        with pytest.raises(ValidationError, match=re.escape(
                "group 'weld': values overflow the mean or SD")):
            group_summary({"tape": values[0], "weld": values[1]})


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
    return (value, method, material, phase, parameter, robot)


def _table(rows):
    return SampleTable(*zip(*rows))


def test_sample_row_validation():
    with pytest.raises(ValidationError, match="method"):
        _table([_row(1.0, method="glue")])
    with pytest.raises(ValidationError, match="finite"):
        _table([_row(math.nan)])
    # the first bad row, and in it the first bad field in column order
    with pytest.raises(ValidationError) as err:
        _table([_row(1.0), _row(2.0, material="foil", phase="during"),
                _row(math.inf, method="glue")])
    assert str(err.value) == ("row 2: material must be one of ('ldpe', 'fabric'), "
                              "got 'foil'")
    with pytest.raises(ValidationError, match="^line 7: sample value must be finite, got inf$"):
        SampleTable(*zip(_row(1.0), _row(math.inf, method="glue")), lines=[4, 7])
    with pytest.raises(ValidationError, match="six columns of equal length"):
        SampleTable([1.0, 2.0], ["tape"], ["ldpe"], ["pre"], ["joint"], ["r1"])


def test_sample_table_columns_are_read_only_codes():
    table = _table([_row(1.5, method="loop", robot="a"), _row(2.5, phase="post", robot=7)])
    assert table.value.dtype == np.float64 and table.robot_id.tolist() == ["a", "7"]
    np.testing.assert_array_equal(table.method, [2, 0])
    np.testing.assert_array_equal(table.phase, [0, 1])
    sub = table.subset(phase="post")
    for t in (table, sub):
        assert not any(getattr(t, c).flags.writeable for c in
                       ("value", "method", "material", "phase", "parameter", "robot_id"))
    assert len(sub) == 1 and sub.value.tolist() == [2.5]
    assert len(table.subset(method="glue")) == 0
    with pytest.raises(ValidationError, match="unknown sample column"):
        table.subset(colour="red")


def test_summarize_by_factor():
    table = _table([_row(1.0, method="tape"), _row(3.0, method="tape"),
                    _row(10.0, method="loop"), _row(12.0, method="loop")])
    summaries = group_summary(table.values_by("method"))
    assert list(summaries) == ["tape", "loop"]
    assert summaries["tape"].mean == 2.0
    assert summaries["loop"].ci_low < 11.0 < summaries["loop"].ci_high


def test_values_by_canonical_order():
    table = _table([_row(1.0, method="loop"), _row(2.0, method="tape"),
                    _row(3.0, method="weld"), _row(4.0, method="tape")])
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
    pre, post = _table(rows).paired_phases()
    np.testing.assert_array_equal(pre, [1.0, 1.0])
    np.testing.assert_array_equal(post, [2.0, 2.0])
    bad = _table(rows[:-1])
    with pytest.raises(ValidationError, match="pair"):
        bad.paired_phases()
    swapped = _table(rows[:-1] + [_row(2.0, phase="post", robot="r3")])
    with pytest.raises(ValidationError) as err:
        swapped.paired_phases()
    assert str(err.value) == ("cannot pair phases: pre/post rows do not match up "
                              "(tape/ldpe/r2 vs tape/ldpe/r3)")


def _random_rows(rng):
    """Shuffled pre/post rows of random quantities: unequal groups, levels
    left out at random, robot ids repeated across methods and materials."""
    methods = [m for m in ("tape", "weld", "loop") if rng.random() < 0.8] or ["loop"]
    materials = [m for m in ("ldpe", "fabric") if rng.random() < 0.8] or ["fabric"]
    params = [p for p in ("twist", "joint", "length") if rng.random() < 0.8] or ["joint"]
    quantities = [(rng.choice(methods), rng.choice(materials), rng.choice(params),
                   f"r{rng.integers(4)}", rng.normal(45.0, 2.0))
                  for _ in range(rng.integers(2, 40))]
    phases = ("pre", "post") if rng.random() < 0.8 else ("pre",)
    rows = [(value + (phase == "post") * rng.normal(0.5, 0.3), method, material, phase,
             param, robot)
            for phase in phases for method, material, param, robot, value in quantities]
    if rng.random() < 0.2:  # a robot id that has no partner in the other phase
        rows[-1] = (*rows[-1][:5], "r9")
    return [rows[i] for i in rng.permutation(len(rows))]


def _paired_or_error(table):
    try:
        return table.paired_phases()
    except ValidationError as exc:
        return str(exc)


def test_grouping_matches_the_row_loop_oracle():
    rng = np.random.default_rng(139)
    for _ in range(60):
        rows = _random_rows(rng)
        table, oracle = _table(rows), RowTable(rows)
        assert table.parameters() == oracle.parameters()
        for param in (None, *oracle.parameters()):
            sub = table if param is None else table.subset(parameter=param)
            ref = oracle if param is None else oracle.subset(parameter=param)
            for factor in ("method", "material", "phase"):
                got, want = sub.values_by(factor), ref.values_by(factor)
                assert list(got) == list(want)
                assert all(np.array_equal(got[k], want[k]) for k in want)
            got, want = _paired_or_error(sub), _paired_or_error(ref)
            if isinstance(want, str):
                assert got == want
            else:
                assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert analyze_table(table) == analyze_table(oracle)


def test_analyze_checks_each_group_list_once_and_reports_the_public_tests(monkeypatch):
    # group_summary is the one check of a (parameter, factor) group list: the
    # method and material tests run unchecked twins, and only the public paired
    # t-test checks its pairs; the report holds what the public tests return
    contexts = []
    real = stats._as_groups

    def counted(groups, *args, **kwargs):
        contexts.append(kwargs["context"])
        return real(groups, *args, **kwargs)

    monkeypatch.setattr(stats, "_as_groups", counted)
    rng, tested = np.random.default_rng(35), 0
    for _ in range(40):
        table = _table(_random_rows(rng))
        contexts.clear()
        report = analyze_table(table)
        checks = list(contexts)
        for param in table.parameters():
            for factor in ("method", "material"):
                groups = table.subset(parameter=param).values_by(factor)
                block = report["parameters"][param][factor]
                if block["homogeneity"] is None:
                    continue
                tested += 1
                arrays = list(groups.values())
                levene = levene_test(arrays)
                equal_var = levene.p_value >= 0.05
                if factor == "method":
                    omnibus = (one_way_anova if equal_var else kruskal_wallis)(arrays)
                    assert block["pairwise"] == [pair._asdict() for pair in tukey_hsd(
                        arrays, labels=list(groups)).pairs]
                else:
                    omnibus = (t_test_independent if equal_var else t_test_welch)(*arrays)
                assert block["homogeneity"] == _test_dict(levene)
                assert block["omnibus"] == _test_dict(omnibus)
        # the paired t-test runs on the matched pairs, at most once per parameter
        assert set(checks) <= {"paired t-test"}
        assert len(checks) <= len(table.parameters())
    assert tested > 0


def test_analyze_single_group_notices():
    table = _table([_row(v) for v in (1.0, 2.0, 3.0)])
    report = analyze_table(table)
    assert report["parameters"]["joint"]["method"]["omnibus"] is None
    assert any("single group" in n for n in report["notices"])


def test_analyze_constant_data_trips_guards():
    rows = [_row(5.0, method=m, robot=f"r{i}") for m in ("tape", "weld") for i in range(4)]
    report = analyze_table(_table(rows))
    assert any("zero variance" in n.lower() or "deviations" in n.lower()
               for n in report["notices"])


def test_analyze_reports_an_overflowing_f_as_a_notice():
    # groups 1e-15 wide around +-1e160: their summaries are finite, but the
    # between-group sum of squares passes float range, and so does F. Around
    # 1e200 the spacing of floats, 1.7e184, already overflows a group's SD.
    c = 1e160
    rows = [_row(c * (1.0 + k * 1e-15), robot=f"t{k}") for k in (0, 1, 3)]
    rows += [_row(-c * (1.0 - k * 1e-15), method="weld", material="fabric", phase="post",
                  robot=f"w{k}") for k in (0, 1, 3)]
    groups = [[value for value, method, *_ in rows if method == m] for m in ("tape", "weld")]
    with pytest.raises(DegenerateDataError, match=re.escape(
            "one-way ANOVA: the statistic overflows, got inf")):
        one_way_anova(groups)
    report = analyze_table(_table(rows))
    assert "joint/method: one-way ANOVA: the statistic overflows, got inf" in report["notices"]
    assert report["parameters"]["joint"]["method"]["omnibus"] is None
    assert math.isfinite(report["parameters"]["joint"]["material"]["omnibus"]["statistic"])


def test_analyze_full_table_runs_expected_tests():
    rng = np.random.default_rng(137)
    rows = []
    for method, mean in (("tape", 44.0), ("weld", 43.0), ("loop", 45.0)):
        for material in ("ldpe", "fabric"):
            for k in range(3):
                robot = f"{method}-{material}-{k}"
                base = rng.normal(mean, 1.0)
                rows.append((base, method, material, "pre", "joint", robot))
                rows.append((base + 0.5 + rng.normal(0, 0.1), method,
                             material, "post", "joint", robot))
    report = analyze_table(_table(rows))
    block = report["parameters"]["joint"]
    assert block["method"]["homogeneity"]["test"].startswith("Levene")
    assert block["method"]["omnibus"]["test"] in ("one-way ANOVA", "Kruskal-Wallis")
    assert len(block["method"]["pairwise"]) == 3
    assert block["material"]["omnibus"]["test"].endswith("t-test")
    assert block["phase"]["omnibus"]["test"] == "paired t-test"
    assert block["phase"]["omnibus"]["p_value"] < 0.01  # the shift is real
