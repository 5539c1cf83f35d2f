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
from collections import namedtuple

import numpy as np

from .errors import DegenerateDataError, ValidationError
from .geometry import ReadOnly, _trusted, check_items, float_array
from .special import chi2_sf, f_sf, studentized_range_cdf, t_quantile, t_sf_two_sided

METHOD_LEVELS = ("tape", "weld", "loop")
MATERIAL_LEVELS = ("ldpe", "fabric")
PHASE_LEVELS = ("pre", "post")
PARAMETER_LEVELS = ("twist", "joint", "length")

FACTORS = {"method": METHOD_LEVELS, "material": MATERIAL_LEVELS,
           "phase": PHASE_LEVELS}

ALPHA_DEFAULT = 0.05


class TestResult(namedtuple("TestResult", "name statistic p_value df")):
    """One test: a finite statistic, its p-value clamped into [0, 1] and its dfs as floats."""

    __slots__ = ()

    def __new__(cls, name, statistic, p_value, df):
        statistic = float(statistic)
        if not math.isfinite(statistic):
            raise DegenerateDataError(f"{name}: the statistic overflows, got {statistic}")
        df = tuple(float(v) for v in df)
        p = float(p_value)
        if math.isnan(p) or p < -1e-12 or p > 1.0 + 1e-12:
            raise ValidationError(f"{name}: p-value {p} outside [0, 1]")
        return super().__new__(cls, name, statistic, min(1.0, max(0.0, p)), df)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too


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
    """The groups as checked float arrays. Each public test checks its own groups;
    the private twins (_anova, _levene, ...) take groups already checked, as
    analyze_table's are by group_summary."""
    arrays = [float_array(g, f"{context}: group {i}").ravel()
              for i, g in enumerate(groups, start=1)]
    if len(arrays) < min_groups:
        raise ValidationError(f"{context} needs >= {min_groups} groups")
    for i, g in enumerate(arrays, start=1):
        if g.size < min_size:
            raise ValidationError(
                f"{context}: group {i} needs >= {min_size} samples, has {g.size}")
        if not np.all(np.isfinite(g)):
            raise ValidationError(f"{context}: group {i} has non-finite values")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected here
            if not math.isfinite(g.var()):
                raise ValidationError(f"{context}: group {i}: values overflow the mean or SD")
    return arrays


def _anova_f(arrays):
    """F statistic and degrees of freedom from between/within sums of squares."""
    n = np.array([g.size for g in arrays], float)
    total = int(n.sum())
    # sums past float range are inf: TestResult rejects an F that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        means = np.array([g.mean() for g in arrays])
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
    return _anova(_as_groups(groups, context="one-way ANOVA"))


def _anova(arrays) -> TestResult:
    f, df1, df2, _ = _anova_f(arrays)
    return TestResult("one-way ANOVA", f, f_sf(f, df1, df2), (df1, df2))


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D array, bit for bit, from one sort:
    np.median's first call imports numpy.ma. Its sum starts from 0.0, so a
    median of -0.0 comes out as 0.0."""
    ordered = np.sort(values)
    half = ordered.size // 2
    if ordered.size % 2:
        return 0.0 + ordered[half]
    return (0.0 + ordered[half - 1] + ordered[half]) / 2.0


def levene_test(groups) -> TestResult:
    """Homogeneity of variance, median-centered (Brown-Forsythe) variant."""
    return _levene(_as_groups(groups, context="Levene test"))


def _levene(arrays) -> TestResult:
    z = [np.abs(g - _median(g)) for g in arrays]
    try:
        f, df1, df2, _ = _anova_f(z)
    except DegenerateDataError:
        raise DegenerateDataError(
            "Levene test: absolute deviations have zero variance") from None
    return TestResult("Levene (Brown-Forsythe)", f, f_sf(f, df1, df2), (df1, df2))


def _ranks_with_ties(pooled):
    """Ranks from 1, each tied run at its average rank, and the sizes of the tied runs."""
    order = np.argsort(pooled, kind="stable")
    ordered = pooled[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])  # where each run starts
    counts = np.diff(np.r_[first, pooled.size])
    ranks = np.empty(pooled.size)
    ranks[order] = np.repeat(0.5 * (2 * first + counts + 1), counts)
    return ranks, counts[counts > 1].tolist()


def kruskal_wallis(groups) -> TestResult:
    """Kruskal-Wallis rank test with tie correction."""
    return _kruskal(_as_groups(groups, min_size=1, context="Kruskal-Wallis test"))


def _kruskal(arrays) -> TestResult:
    pooled = np.concatenate(arrays)
    total = pooled.size
    ranks, tie_sizes = _ranks_with_ties(pooled)
    splits = np.cumsum([g.size for g in arrays])[:-1]
    h = sum(r.sum() ** 2 / r.size for r in np.split(ranks, splits))
    h = 12.0 / (total * (total + 1)) * h - 3.0 * (total + 1)
    correction = 1.0 - sum(t ** 3 - t for t in tie_sizes) / (total ** 3 - total)
    h = 0.0 if correction <= 0.0 else h / correction
    df = len(arrays) - 1
    return TestResult("Kruskal-Wallis", h, chi2_sf(h, df), (df,))


PairResult = namedtuple("PairResult", "a b mean_diff q p_value stars significant")
TukeyResult = namedtuple("TukeyResult", "pairs alpha df")


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
    return _tukey(arrays, labels, alpha)


def _tukey(arrays, labels, alpha) -> TukeyResult:
    k = len(arrays)
    _, _, df2, ms_within = _anova_f(arrays)
    index, diffs, qs = [], [], []
    for i in range(k):
        for j in range(i + 1, k):
            gi, gj = arrays[i], arrays[j]
            diff = float(gi.mean() - gj.mean())
            se = math.sqrt(ms_within / 2.0 * (1.0 / gi.size + 1.0 / gj.size))
            index.append((i, j))
            diffs.append(diff)
            qs.append(abs(diff) / se)
    # one call for the family: every pair shares k and df
    ps = (1.0 - studentized_range_cdf(np.array(qs), k, df2)).tolist()
    pairs = tuple(PairResult(labels[i], labels[j], diff, q, p, significance_stars(p), p < alpha)
                  for (i, j), diff, q, p in zip(index, diffs, qs, ps))
    return TukeyResult(pairs=pairs, alpha=alpha, df=float(df2))


def _t_result(name, t, df) -> TestResult:
    # t = 0 gives p = 1.0 exactly: the incomplete beta returns x = 1.0
    return TestResult(name, t, t_sf_two_sided(abs(t), df), (df,))


def t_test_independent(a, b) -> TestResult:
    """Two-sample t-test with pooled variance, two-sided."""
    return _t_pooled(*_as_groups([a, b], context="independent t-test"))


def _t_pooled(ga, gb) -> TestResult:
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
    return _welch(*_as_groups([a, b], context="Welch t-test"))


def _welch(ga, gb) -> TestResult:
    va, vb = ga.var(ddof=1) / ga.size, gb.var(ddof=1) / gb.size
    diff = float(ga.mean() - gb.mean())
    if va + vb <= 0.0:
        if diff == 0.0:
            return _t_result("Welch t-test", 0.0, ga.size + gb.size - 2)
        raise DegenerateDataError("Welch t-test: zero variance with unequal means")
    # past 2**500 a power-of-two scale, which leaves df as is, keeps (va + vb) ** 2 in range
    sa, sb = np.ldexp([va, vb], -max(math.frexp(max(va, vb))[1] - 500, 0))
    df = (sa + sb) ** 2 / (sa ** 2 / (ga.size - 1) + sb ** 2 / (gb.size - 1))
    t = diff / math.sqrt(va + vb)
    return _t_result("Welch t-test", t, df)


def t_test_paired(a, b) -> TestResult:
    """Paired (dependent) t-test on elementwise differences, two-sided."""
    ga, gb = _as_groups([a, b], min_size=1, context="paired t-test")
    if ga.size != gb.size:
        raise ValidationError(
            f"paired t-test needs equal lengths, got {ga.size} and {gb.size}")
    if ga.size < 2:
        raise ValidationError("paired t-test needs >= 2 pairs")
    with np.errstate(over="ignore", invalid="ignore"):  # TestResult rejects a t past range
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


GroupSummary = namedtuple("GroupSummary", "n mean sd ci_low ci_high")  # sd and CI may be None


def group_summary(values_by_group: dict, confidence: float = 0.95) -> dict:
    """Mean and t-based confidence interval per group.

    Groups of size 1 get mean only (sd and CI flagged as unavailable).
    """
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must lie in (0, 1), got {confidence}")
    out = {}
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        for label, values in values_by_group.items():
            g = np.asarray(values, float).ravel()
            if g.size == 0:
                raise ValidationError(f"group {label!r} is empty")
            if not np.all(np.isfinite(g)):
                raise ValidationError(f"group {label!r} has non-finite values")
            mean = float(g.mean())
            sd = float(g.std(ddof=1)) if g.size > 1 else 0.0
            if not (math.isfinite(mean) and math.isfinite(sd)):
                raise ValidationError(f"group {label!r}: values overflow the mean or SD")
            if g.size == 1:
                out[label] = GroupSummary(1, mean, None, None, None)
                continue
            half = t_quantile(0.5 + confidence / 2.0, g.size - 1) * sd / math.sqrt(g.size)
            out[label] = GroupSummary(int(g.size), mean, sd, mean - half, mean + half)
    return out


# the coded columns of a sample table, in the order its check reports them
COLUMNS = {**FACTORS, "parameter": PARAMETER_LEVELS}
# each code's place in the alphabetical order of its level names, which the pairing sorts by
_ALPHABETICAL = {name: np.array([sorted(COLUMNS[name]).index(level) for level in COLUMNS[name]])
                 for name in ("method", "material")}


class SampleTable(ReadOnly):
    """Long-format labeled observations as read-only columns, checked once.

    ``value`` is an (m,) float array; ``method``, ``material``, ``phase`` and
    ``parameter`` are small-int codes into the ``*_LEVELS`` tuples; and
    ``robot_id`` is an (m,) str array. The constructor takes level names and
    checks every row: each value finite, each name one of its levels. Errors
    name the first bad row, or its file line ``lines[i]`` when given, and its
    first bad field in the order value, method, material, phase, parameter.
    """

    def __init__(self, value, method, material, phase, parameter, robot_id, lines=None):
        value = float_array(value, "sample values")
        names = [np.asarray(c, dtype=object) for c in (method, material, phase, parameter)]
        robot_id = np.array(robot_id, dtype=str)
        if value.ndim != 1 or any(a.shape != value.shape for a in (*names, robot_id)):
            raise ValidationError("a sample table needs six columns of equal length")
        codes = [np.full(value.shape, -1, np.intp) for _ in COLUMNS]
        for code, levels, column in zip(codes, COLUMNS.values(), names):
            for i, level in enumerate(levels):
                code[column == level] = i
        check_items(lambda i: f"row {i + 1}" if lines is None else f"line {lines[i]}",
                    [np.isfinite(value), *(code >= 0 for code in codes)],
                    lambda i: [f"sample value must be finite, got {value[i]}",
                               *(f"{name} must be one of {levels}, got {column[i]!r}"
                                 for (name, levels), column in zip(COLUMNS.items(), names))])
        for column in (value, *codes, robot_id):
            column.flags.writeable = False
        self.__dict__.update(zip(("value", *COLUMNS, "robot_id"), (value, *codes, robot_id)))

    def __len__(self):
        return self.value.shape[0]

    def subset(self, **criteria) -> "SampleTable":
        """The rows whose columns equal the given values (level names for coded columns)."""
        mask = np.ones(len(self), bool)
        for name, wanted in criteria.items():
            if name in COLUMNS:
                wanted = COLUMNS[name].index(wanted) if wanted in COLUMNS[name] else -1
            elif name not in ("value", "robot_id"):
                raise ValidationError(f"unknown sample column {name!r}")
            mask &= getattr(self, name) == wanted
        columns = {name: getattr(self, name)[mask] for name in ("value", *COLUMNS, "robot_id")}
        for column in columns.values():
            column.flags.writeable = False
        return _trusted(SampleTable, **columns)

    def parameters(self):
        return tuple(p for i, p in enumerate(PARAMETER_LEVELS) if (self.parameter == i).any())

    def values_by(self, factor: str) -> dict:
        """Values grouped by a factor, keyed in canonical level order."""
        if factor not in FACTORS:
            raise ValidationError(f"unknown factor {factor!r}")
        codes = getattr(self, factor)
        groups = {level: self.value[codes == i] for i, level in enumerate(FACTORS[factor])}
        return {level: values for level, values in groups.items() if values.size}

    def paired_phases(self):
        """Pre/post value pairs matched by (method, material, robot_id, order).

        Each phase's rows are sorted stably by their method, material and
        robot_id names, alphabetically, so rows describing the same physical
        quantity must keep the same relative order in both phases.
        """
        def keyed(phase):
            rows = np.flatnonzero(self.phase == PHASE_LEVELS.index(phase))
            return rows[np.lexsort((self.robot_id[rows],  # the last key sorts first
                                    _ALPHABETICAL["material"][self.material[rows]],
                                    _ALPHABETICAL["method"][self.method[rows]]))]

        pre, post = keyed("pre"), keyed("post")
        if len(pre) != len(post):
            raise ValidationError(
                f"cannot pair phases: {len(pre)} pre rows vs {len(post)} post rows")
        differ = ((self.method[pre] != self.method[post])
                  | (self.material[pre] != self.material[post])
                  | (self.robot_id[pre] != self.robot_id[post]))
        if differ.any():
            i = int(np.argmax(differ))
            a, b = (f"{METHOD_LEVELS[self.method[j]]}/{MATERIAL_LEVELS[self.material[j]]}/"
                    f"{self.robot_id[j]}" for j in (pre[i], post[i]))
            raise ValidationError(
                f"cannot pair phases: pre/post rows do not match up ({a} vs {b})")
        return self.value[pre], self.value[post]


def _test_dict(result: TestResult) -> dict:
    return {"test": result.name, "statistic": result.statistic,
            "df": list(result.df), "p_value": result.p_value}


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
            block = {"groups": {label: summary._asdict() for label, summary
                                in group_summary(groups).items()},
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

            try:
                if factor == "phase":
                    pre, post = sub.paired_phases()
                    block["omnibus"] = _test_dict(t_test_paired(pre, post))
                    block["omnibus"]["mean_diff"] = float(np.mean(post - pre))
                    continue

                arrays = [groups[l] for l in labels]  # checked by group_summary above
                homogeneity = _levene(arrays)
                block["homogeneity"] = _test_dict(homogeneity)
                equal_var = homogeneity.p_value >= alpha

                if factor == "method":
                    omnibus = (_anova if equal_var else _kruskal)(arrays)
                else:
                    omnibus = (_t_pooled if equal_var else _welch)(*arrays)
                if not equal_var:
                    fallback = "Kruskal-Wallis" if factor == "method" else "Welch"
                    notices.append(
                        f"{param}/{factor}: homogeneity of variance failed "
                        f"(p = {homogeneity.p_value:.4g}), using {fallback}")
                block["omnibus"] = _test_dict(omnibus)
                if factor == "method":
                    hsd = _tukey(arrays, labels, alpha)
                    block["pairwise"] = [pair._asdict() for pair in hsd.pairs]
            except (DegenerateDataError, ValidationError) as exc:
                notices.append(f"{param}/{factor}: {exc}")

    return report
