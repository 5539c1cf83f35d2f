"""Group summaries and the hypothesis-test battery for measurement comparisons.

The analysis flow mirrors how discrete-bend accuracy data is compared across
fabrication factors: check homogeneity of variance first (median-centered
Levene, i.e. Brown-Forsythe), run a one-way ANOVA when it holds and a
Kruskal-Wallis test when it does not, then Tukey's HSD for pairwise method
differences; materials get an independent t-test (Welch under unequal
variances) and pre/post growth a paired t-test. All p-values are two-sided.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .special import chi2_sf, f_sf, studentized_range_cdf, t_quantile, t_sf_two_sided

METHOD_LEVELS = ("tape", "weld", "loop")
MATERIAL_LEVELS = ("ldpe", "fabric")
PHASE_LEVELS = ("pre", "post")
PARAMETER_LEVELS = ("twist", "joint", "length")

FACTORS = {"method": METHOD_LEVELS, "material": MATERIAL_LEVELS,
           "phase": PHASE_LEVELS}

ALPHA_DEFAULT = 0.05


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    p_value: float
    df: tuple

    def __post_init__(self):
        object.__setattr__(self, "statistic", float(self.statistic))
        object.__setattr__(self, "df", tuple(float(v) for v in self.df))
        p = float(self.p_value)
        if math.isnan(p) or p < -1e-12 or p > 1.0 + 1e-12:
            raise ValidationError(f"{self.name}: p-value {p} outside [0, 1]")
        object.__setattr__(self, "p_value", min(1.0, max(0.0, p)))


def significance_stars(p: float) -> str:
    """Asterisk levels: * for p<0.05, ** for p<0.01, *** for p<0.001."""
    if p < 0.001:
        return "***"
    if p < 0.01:
        return "**"
    if p < 0.05:
        return "*"
    return ""


def _as_groups(groups, min_groups=2, min_size=2, context="test"):
    arrays = [np.asarray(g, float).ravel() for g in groups]
    if len(arrays) < min_groups:
        raise ValidationError(f"{context} needs >= {min_groups} groups")
    for i, g in enumerate(arrays, start=1):
        if g.size < min_size:
            raise ValidationError(
                f"{context}: group {i} needs >= {min_size} samples, has {g.size}")
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"{context}: group {i} has non-finite values")
    return arrays


def _anova_f(arrays):
    """F statistic and degrees of freedom from between/within sums of squares."""
    n = np.array([g.size for g in arrays], float)
    means = np.array([g.mean() for g in arrays])
    total = int(n.sum())
    grand = float(np.concatenate(arrays).mean())
    ss_between = float(np.sum(n * (means - grand) ** 2))
    ss_within = float(sum(np.sum((g - m) ** 2) for g, m in zip(arrays, means)))
    df1, df2 = len(arrays) - 1, total - len(arrays)
    if ss_within <= 0.0:
        raise DegenerateDataError(
            "zero within-group variance; F statistic undefined")
    return ss_between / df1 / (ss_within / df2), df1, df2, ss_within / df2


def one_way_anova(groups) -> TestResult:
    """One-way fixed-effects ANOVA across two or more groups."""
    arrays = _as_groups(groups, context="one-way ANOVA")
    f, df1, df2, _ = _anova_f(arrays)
    return TestResult("one-way ANOVA", f, f_sf(f, df1, df2), (df1, df2))


def levene_test(groups) -> TestResult:
    """Homogeneity of variance, median-centered (Brown-Forsythe) variant."""
    arrays = _as_groups(groups, context="Levene test")
    z = [np.abs(g - np.median(g)) for g in arrays]
    try:
        f, df1, df2, _ = _anova_f(z)
    except DegenerateDataError:
        raise DegenerateDataError(
            "Levene test: absolute deviations have zero variance") from None
    return TestResult("Levene (Brown-Forsythe)", f, f_sf(f, df1, df2), (df1, df2))


def _ranks_with_ties(pooled):
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(pooled.size)
    ranks[order] = np.arange(1, pooled.size + 1, dtype=float)
    # average ranks over tied runs
    sorted_vals = pooled[order]
    i = 0
    tie_sizes = []
    while i < sorted_vals.size:
        j = i
        while j + 1 < sorted_vals.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i:j + 1]] = 0.5 * (i + 1 + j + 1)
            tie_sizes.append(j - i + 1)
        i = j + 1
    return ranks, tie_sizes


def kruskal_wallis(groups) -> TestResult:
    """Kruskal-Wallis rank test with tie correction."""
    arrays = _as_groups(groups, min_size=1, context="Kruskal-Wallis test")
    pooled = np.concatenate(arrays)
    total = pooled.size
    ranks, tie_sizes = _ranks_with_ties(pooled)
    h = 0.0
    start = 0
    for g in arrays:
        r = ranks[start:start + g.size]
        h += r.sum() ** 2 / g.size
        start += g.size
    h = 12.0 / (total * (total + 1)) * h - 3.0 * (total + 1)
    correction = 1.0 - sum(t ** 3 - t for t in tie_sizes) / (total ** 3 - total)
    h = 0.0 if correction <= 0.0 else h / correction
    df = len(arrays) - 1
    return TestResult("Kruskal-Wallis", h, chi2_sf(h, df), (df,))


@dataclass(frozen=True)
class PairResult:
    a: str
    b: str
    mean_diff: float
    q: float
    p_value: float
    stars: str
    significant: bool


@dataclass(frozen=True)
class TukeyResult:
    pairs: tuple
    alpha: float
    df: float


def tukey_hsd(groups, labels=None, alpha: float = ALPHA_DEFAULT) -> TukeyResult:
    """Tukey's honest significant difference over all group pairs.

    Uses the Tukey-Kramer statistic for unequal group sizes; p-values come
    from the studentized range distribution.
    """
    arrays = _as_groups(groups, context="Tukey HSD")
    if labels is None:
        labels = [str(i + 1) for i in range(len(arrays))]
    if len(labels) != len(arrays):
        raise ValidationError("labels must match the number of groups")
    k = len(arrays)
    _, _, df2, ms_within = _anova_f(arrays)
    pairs = []
    for i in range(k):
        for j in range(i + 1, k):
            gi, gj = arrays[i], arrays[j]
            diff = float(gi.mean() - gj.mean())
            se = math.sqrt(ms_within / 2.0 * (1.0 / gi.size + 1.0 / gj.size))
            q = abs(diff) / se
            p = 1.0 - studentized_range_cdf(q, k, df2)
            pairs.append(PairResult(labels[i], labels[j], diff, q, p,
                                    significance_stars(p), p < alpha))
    return TukeyResult(pairs=tuple(pairs), alpha=alpha, df=float(df2))


def _t_result(name, t, df) -> TestResult:
    # t = 0 gives p = 1.0 exactly: the incomplete beta returns x = 1.0
    return TestResult(name, t, t_sf_two_sided(abs(t), df), (df,))


def t_test_independent(a, b) -> TestResult:
    """Two-sample t-test with pooled variance, two-sided."""
    ga, gb = _as_groups([a, b], context="independent t-test")
    na, nb = ga.size, gb.size
    df = na + nb - 2
    diff = float(ga.mean() - gb.mean())
    sp2 = ((na - 1) * ga.var(ddof=1) + (nb - 1) * gb.var(ddof=1)) / df
    if sp2 <= 0.0:
        if diff == 0.0:
            return _t_result("independent t-test", 0.0, df)
        raise DegenerateDataError(
            "independent t-test: zero variance with unequal means")
    t = diff / math.sqrt(sp2 * (1.0 / na + 1.0 / nb))
    return _t_result("independent t-test", t, df)


def t_test_welch(a, b) -> TestResult:
    """Welch two-sample t-test (unequal variances), two-sided."""
    ga, gb = _as_groups([a, b], context="Welch t-test")
    va, vb = ga.var(ddof=1) / ga.size, gb.var(ddof=1) / gb.size
    diff = float(ga.mean() - gb.mean())
    if va + vb <= 0.0:
        if diff == 0.0:
            return _t_result("Welch t-test", 0.0, ga.size + gb.size - 2)
        raise DegenerateDataError("Welch t-test: zero variance with unequal means")
    df = (va + vb) ** 2 / (va ** 2 / (ga.size - 1) + vb ** 2 / (gb.size - 1))
    t = diff / math.sqrt(va + vb)
    return _t_result("Welch t-test", t, df)


def t_test_paired(a, b) -> TestResult:
    """Paired (dependent) t-test on elementwise differences, two-sided."""
    ga = np.asarray(a, float).ravel()
    gb = np.asarray(b, float).ravel()
    if ga.size != gb.size:
        raise ValidationError(
            f"paired t-test needs equal lengths, got {ga.size} and {gb.size}")
    if ga.size < 2:
        raise ValidationError("paired t-test needs >= 2 pairs")
    d = ga - gb
    sd = d.std(ddof=1)
    df = ga.size - 1
    if sd <= 0.0:
        if float(d.mean()) == 0.0:
            return _t_result("paired t-test", 0.0, df)
        raise DegenerateDataError(
            "paired t-test: constant nonzero differences have zero variance")
    t = float(d.mean()) / (sd / math.sqrt(ga.size))
    return _t_result("paired t-test", t, df)


@dataclass(frozen=True)
class GroupSummary:
    n: int
    mean: float
    sd: float | None
    ci_low: float | None
    ci_high: float | None


def group_summary(values_by_group: dict, confidence: float = 0.95) -> dict:
    """Mean and t-based confidence interval per group.

    Groups of size 1 get mean only (sd and CI flagged as unavailable).
    """
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must lie in (0, 1), got {confidence}")
    out = {}
    for label, values in values_by_group.items():
        g = np.asarray(values, float).ravel()
        if g.size == 0:
            raise ValidationError(f"group {label!r} is empty")
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"group {label!r} has non-finite values")
        mean = float(g.mean())
        if g.size == 1:
            out[label] = GroupSummary(1, mean, None, None, None)
            continue
        sd = float(g.std(ddof=1))
        half = t_quantile(0.5 + confidence / 2.0, g.size - 1) * sd / math.sqrt(g.size)
        out[label] = GroupSummary(int(g.size), mean, sd, mean - half, mean + half)
    return out


@dataclass(frozen=True)
class SampleRow:
    value: float
    method: str
    material: str
    phase: str
    parameter: str
    robot_id: str

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValidationError(f"sample value must be finite, got {self.value}")
        for field, levels in (("method", METHOD_LEVELS),
                              ("material", MATERIAL_LEVELS),
                              ("phase", PHASE_LEVELS),
                              ("parameter", PARAMETER_LEVELS)):
            v = getattr(self, field)
            if v not in levels:
                raise ValidationError(
                    f"{field} must be one of {levels}, got {v!r}")
        object.__setattr__(self, "robot_id", str(self.robot_id))


@dataclass(frozen=True)
class SampleTable:
    """Long-format labeled observations with fabrication factor columns."""

    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))

    def __len__(self):
        return len(self.rows)

    def subset(self, **criteria) -> "SampleTable":
        rows = [r for r in self.rows
                if all(getattr(r, k) == v for k, v in criteria.items())]
        return SampleTable(rows=tuple(rows))

    def parameters(self):
        present = {r.parameter for r in self.rows}
        return tuple(p for p in PARAMETER_LEVELS if p in present)

    def values_by(self, factor: str) -> dict:
        """Values grouped by a factor, keyed in canonical level order."""
        if factor not in FACTORS:
            raise ValidationError(f"unknown factor {factor!r}")
        out = {}
        for level in FACTORS[factor]:
            vals = [r.value for r in self.rows if getattr(r, factor) == level]
            if vals:
                out[level] = np.array(vals)
        return out

    def paired_phases(self):
        """Pre/post value pairs matched by (method, material, robot_id, order).

        Rows describing the same physical quantity must appear in the same
        relative order within each phase for the positional match to be valid.
        """
        def keyed(phase):
            rows = [r for r in self.rows if r.phase == phase]
            rows.sort(key=lambda r: (r.method, r.material, r.robot_id))
            return rows

        pre, post = keyed("pre"), keyed("post")
        if len(pre) != len(post):
            raise ValidationError(
                f"cannot pair phases: {len(pre)} pre rows vs {len(post)} post rows")
        for a, b in zip(pre, post):
            if (a.method, a.material, a.robot_id) != (b.method, b.material, b.robot_id):
                raise ValidationError(
                    "cannot pair phases: pre/post rows do not match up "
                    f"({a.method}/{a.material}/{a.robot_id} vs "
                    f"{b.method}/{b.material}/{b.robot_id})")
        return (np.array([r.value for r in pre]),
                np.array([r.value for r in post]))


def _test_dict(result: TestResult) -> dict:
    return {"test": result.name, "statistic": result.statistic,
            "df": list(result.df), "p_value": result.p_value}


def _summary_dict(summaries: dict) -> dict:
    out = {}
    for label, s in summaries.items():
        out[label] = {"n": s.n, "mean": s.mean, "sd": s.sd,
                      "ci_low": s.ci_low, "ci_high": s.ci_high}
    return out


def analyze_table(table: SampleTable, alpha: float = ALPHA_DEFAULT) -> dict:
    """Full per-parameter, per-factor report of summaries and tests.

    For each parameter: method groups get Levene then ANOVA (or
    Kruskal-Wallis when homogeneity fails) plus Tukey HSD pairs; material
    groups get an independent t-test (Welch when homogeneity fails); phases
    get a paired t-test. Skipped or degenerate tests are reported as notices
    rather than raised.
    """
    notices = []
    report = {"row_count": len(table), "alpha": alpha, "parameters": {},
              "notices": notices}

    for param in table.parameters():
        sub = table.subset(parameter=param)
        param_block = {}
        report["parameters"][param] = param_block

        for factor in ("method", "material", "phase"):
            groups = sub.values_by(factor)
            block = {"groups": _summary_dict(group_summary(groups)),
                     "homogeneity": None, "omnibus": None, "pairwise": None}
            param_block[factor] = block
            labels = list(groups)

            if len(labels) < 2:
                notices.append(f"{param}/{factor}: single group, tests skipped")
                continue
            if any(groups[l].size < 2 for l in labels):
                notices.append(
                    f"{param}/{factor}: a group has fewer than 2 samples, "
                    "tests skipped")
                continue

            arrays = [groups[l] for l in labels]
            try:
                if factor == "phase":
                    pre, post = sub.paired_phases()
                    block["omnibus"] = _test_dict(t_test_paired(pre, post))
                    block["omnibus"]["mean_diff"] = float(np.mean(post - pre))
                    continue

                homogeneity = levene_test(arrays)
                block["homogeneity"] = _test_dict(homogeneity)
                equal_var = homogeneity.p_value >= alpha

                if factor == "method":
                    omnibus = one_way_anova(arrays) if equal_var \
                        else kruskal_wallis(arrays)
                    if not equal_var:
                        notices.append(
                            f"{param}/{factor}: homogeneity of variance failed "
                            f"(p = {homogeneity.p_value:.4g}), using "
                            "Kruskal-Wallis")
                    block["omnibus"] = _test_dict(omnibus)
                    hsd = tukey_hsd(arrays, labels=labels, alpha=alpha)
                    block["pairwise"] = [
                        {"a": p.a, "b": p.b, "mean_diff": p.mean_diff,
                         "q": p.q, "p_value": p.p_value, "stars": p.stars,
                         "significant": p.significant}
                        for p in hsd.pairs]
                else:
                    omnibus = t_test_independent(*arrays) if equal_var \
                        else t_test_welch(*arrays)
                    if not equal_var:
                        notices.append(
                            f"{param}/{factor}: homogeneity of variance failed "
                            f"(p = {homogeneity.p_value:.4g}), using Welch")
                    block["omnibus"] = _test_dict(omnibus)
            except (DegenerateDataError, ValidationError) as exc:
                notices.append(f"{param}/{factor}: {exc}")

    return report
