"""Special functions backing the statistical tests.

The incomplete beta is a continued fraction (modified Lentz iteration) and
the chi-square tail of an integer df a finite sum of positive terms, so each
p-value in the package traces back to a few dozen lines of code. The
studentized range CDF integrates the known-sigma range probability R(w) over
the distribution of the pooled standard deviation estimate s with one fixed
Gauss-Legendre rule, evaluated as one array: 48 nodes on each of four panels
in t = ln(s). R comes from one Chebyshev table per k, fitted once to a
112-node Gauss-Legendre integral over the normal maximum. The result agrees
with adaptive quadrature (scipy) to ~5e-13. The normal tails in that
integral come from a numpy-only erfc, t*exp(-z^2 + c(y)) with c a Chebyshev
series, within 10 ulp of math.erfc. The rules and tables are built on first
use, so importing this module costs no quadrature set-up.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

_EPS = 3e-16
_FPMIN = 1e-300
_MAX_ITER = 500


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 - qab * x / qap
    h = d = 1.0 / (_FPMIN if abs(d) < _FPMIN else d)
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # the even and the odd term of step m, each one update of d, c and h
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            d = 1.0 / (_FPMIN if abs(d) < _FPMIN else d)
            c = 1.0 + aa / c
            c = _FPMIN if abs(c) < _FPMIN else c
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ValidationError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    a, b, x = float(a), float(b), float(x)
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValidationError(f"a and b must be finite and > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _gamma_prefactor(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a), accurate also for a large a near x = a."""
    if a < 50.0 or x < 0.5 * a:
        return math.exp(-x + a * math.log(x) - math.lgamma(a))
    # near x = a, -x + a*log(x) and lgamma(a) cancel (to ~1e-9 relative at
    # a = 1e6). With Stirling's series for lgamma the log is
    # a*(log1p(t) - t) + log(a/2pi)/2 - stirling(a), t = (x - a)/a; below
    # x = a/2 rounding in t would spoil log1p(t), and the factor underflows
    t = (x - a) / a
    inv2 = 1.0 / (a * a)
    stirling = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680))) / a
    return math.exp(a * (math.log1p(t) - t) + 0.5 * math.log(a / (2.0 * math.pi))
                    - stirling)


def t_sf_two_sided(t: float, df: float) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom."""
    t, df = float(t), float(df)
    if not 0.0 < df < math.inf:  # NaN too
        raise ValidationError(f"df must be finite and > 0, got {df}")
    if math.isnan(t):
        raise ValidationError(f"t must not be NaN, got {t}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def f_sf(f: float, df1: float, df2: float) -> float:
    """P(F >= f) for the F distribution."""
    f, df1, df2 = float(f), float(df1), float(df2)
    if not (0.0 < df1 < math.inf and 0.0 < df2 < math.inf):  # NaN too
        raise ValidationError(f"df must be finite and > 0, got df1={df1}, df2={df2}")
    if math.isnan(f):
        raise ValidationError(f"f must not be NaN, got {f}")
    if f <= 0.0:
        return 1.0
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def chi2_sf(x: float, df: float) -> float:
    """P(X >= x) for the chi-square distribution with an integer df >= 1.

    With y = x/2, Q(df/2, y) is erfc(sqrt(y)) for odd df plus the positive
    terms t_s = y^s e^-y / Gamma(s + 1), s = df/2 - 1, df/2 - 2, ... >= 0
    (Abramowitz & Stegun 26.4.4-5). The sum walks out both ways from its
    largest term until a term is below _EPS of the total: O(sqrt(df)) terms.
    """
    x, df = float(x), float(df)
    # past 2^53 the walk's s -/+ 1 rounds back to s and would never end
    if not (1.0 <= df <= 2.0 ** 53 and df.is_integer()):
        raise ValidationError(f"df must be an integer in [1, 2^53], got {df}")
    if math.isnan(x):
        raise ValidationError(f"x must not be NaN, got {x}")
    y = 0.5 * x
    if y <= 0.0:  # also where x/2 underflows
        return 1.0
    if y == math.inf:
        return 0.0
    if df == 1.0:
        return math.erfc(math.sqrt(y))
    top = 0.5 * df - 1.0
    bottom = top % 1.0
    # t_s rises while s < y, so the peak is the last s <= y on the lattice;
    # t_0 is e^-y itself, which exp(log y) / y misses by ulps for tiny y
    peak_s = min(top, bottom + max(0, math.floor(y - bottom)))
    peak = math.exp(-y) if peak_s == 0.0 else _gamma_prefactor(peak_s + 1.0, y) / y
    total = peak + (math.erfc(math.sqrt(y)) if bottom else 0.0)
    for step in (-1.0, 1.0):  # t_{s-1} = t_s s/y, t_{s+1} = t_s y/(s + 1)
        term, s = peak, peak_s
        while bottom <= s + step <= top and term > _EPS * total:
            term *= s / y if step < 0.0 else y / (s + step)
            s += step
            total += term
    return min(total, 1.0)  # rounding can lift the sum an ulp past 1 for small y


@lru_cache(maxsize=4096)
def t_quantile(p: float, df: float) -> float:
    """Inverse CDF of Student's t, by bisection on the monotone CDF."""
    p, df = float(p), float(df)
    if not 0.0 < df < math.inf:  # NaN too
        raise ValidationError(f"df must be finite and > 0, got {df}")
    if not 0.0 < p < 1.0:
        raise ValidationError(f"p must lie in (0, 1), got {p}")
    if p == 0.5:
        return 0.0
    tail = p if p > 0.5 else 1.0 - p

    def cdf(t):
        return 1.0 - 0.5 * t_sf_two_sided(t, df)

    hi = 1.0
    while cdf(hi) < tail:
        hi *= 2.0
        if hi > 1e12:
            raise ValidationError(f"t quantile out of range for p={p}, df={df}")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < tail:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    t = 0.5 * (lo + hi)
    return t if p > 0.5 else -t


# erfc(z) = t*exp(-z^2 + c(y)) for z >= 0, with t = 2/(2+z) and y = 2t - 1 in
# (-1, 1]. c is smooth on the whole half-line, so one Chebyshev series in y
# covers it (the form of Cody, Math. Comp. 23, 1969, and Numerical Recipes'
# erfccheb). _ERFC_CHEB holds c's degree-24 Chebyshev coefficients, the
# first one halved, interpolated at 400 Chebyshev points with mpmath at 40
# digits; tests/test_special.py refits them.
_ERFC_CHEB = (
    -0.6513268598908547, 0.6419697923564902, 0.019476473204185836,
    -0.009561514786808632, -0.0009465953444820369, 0.00036683949785276145,
    4.252332480690777e-05, -2.0278578112534242e-05, -1.6242900046470256e-06,
    1.3036558355805232e-06, 1.5626441722066142e-08, -8.523809591492654e-08,
    6.5290544390988515e-09, 5.059343495551469e-09, -9.91364156493033e-10,
    -2.273651222931836e-10, 9.646791102015527e-11, 2.3940380830391146e-12,
    -6.886027526497553e-12, 8.944879273090725e-13, 3.130921399342958e-13,
    -1.1270822361367252e-13, 3.810905255189232e-16, 7.106097613609237e-15,
    -1.5230282014571043e-15,
)
# erfc(40) underflows to 0; clamping there keeps inf and overflow out of the kernel
_ERFC_Z_MAX = 40.0


def _chebyshev_sum(coefs, y: np.ndarray) -> np.ndarray:
    """sum_n c_n T_n(y) at every entry of y, coefs holding c with c_0 halved.

    Clenshaw's recurrence b_n = 2y b_{n+1} - b_{n+2} + c_n, in four arrays
    the size of y, updated in place: fresh arrays on every step would cost
    an allocation per coefficient.
    """
    two_y = np.multiply(y, 2.0)
    b, b_next, scratch = np.zeros_like(y), np.zeros_like(y), np.empty_like(y)
    for coef in coefs[:0:-1]:
        np.multiply(two_y, b, out=scratch)
        scratch -= b_next
        scratch += coef
        b_next, b, scratch = b, scratch, b_next
    value = np.multiply(y, b, out=scratch)  # y b_1 - b_2 + c_0
    value -= b_next
    value += coefs[0]
    return value


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc of every entry of x, within 10 ulp of math.erfc where erfc > 1e-300."""
    z = np.minimum(np.abs(x), _ERFC_Z_MAX)
    t = 2.0 / (z + 2.0)
    # exp(-z^2) as exp(-zh^2) * exp(-(z - zh)(z + zh)): zh^2 is exact for
    # zh = round(16 z)/16, so the rounding of z^2 (up to 1600 here) never
    # reaches the exponent
    zh = np.round(z * 16.0) / 16.0
    log_ratio = _chebyshev_sum(_ERFC_CHEB, t * 2.0 - 1.0) - (z - zh) * (z + zh)
    upper = np.exp(-(zh * zh)) * t * np.exp(log_ratio)
    return np.where(x < 0.0, 2.0 - upper, upper)


# Inner rule for the known-sigma range probability R(w): 112 Gauss-Legendre
# points over [-9, 9], the effective support of the normal density; it runs
# only to build each k's table of R (_range_table). Outer rule: four 48-point
# panels in t = ln(s), s the pooled SD estimate. Over k = 2..20, df =
# 0.5..1000 and q = 0.05..40 the pair agrees with scipy to 5.1e-13 (4.7e-11
# at k = 30, 5.5e-10 at k = 50), and 160 x 64 points to 5.0e-13; smaller
# rules lose digits (104 x 40: 7.6e-12).
_INNER_HALF_WIDTH = 9.0
_INNER_POINTS = 112
_OUTER_POINTS = 48
# the outer rule leaves out t where the density of t is below e^-30 of its
# peak, and integrates only the density's mass where R(q*s) < e^-30
_LOG_TAIL = 30.0
_SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=1)
def _rules():
    """(inner nodes, inner weights times the normal pdf, normal cdf at the
    inner nodes, outer nodes, outer weights); built once, on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(_INNER_POINTS)
    x = _INNER_HALF_WIDTH * nodes
    pdf_w = (_INNER_HALF_WIDTH * weights * np.exp(-0.5 * x * x)
             / math.sqrt(2.0 * math.pi))
    cdf = 0.5 * _erfc(-x / _SQRT2)
    outer_nodes, outer_weights = np.polynomial.legendre.leggauss(_OUTER_POINTS)
    rules = (x, pdf_w, cdf, outer_nodes, outer_weights)
    for array in rules:
        array.flags.writeable = False  # shared by every caller through the cache
    return rules


def _range_cdf(w: np.ndarray, k: int) -> np.ndarray:
    """P(range of k standard normals <= w) for every entry of w."""
    x, pdf_w, cdf, _, _ = _rules()
    # integrate over the maximum x: the k-1 others must lie in [x - w, x],
    # with probability cdf(x) - cdf(x - w)
    between = np.maximum(cdf - 0.5 * _erfc(np.subtract.outer(w, x) / _SQRT2), 0.0)
    return k * (between ** (k - 1) @ pdf_w)


# R(w) depends on k alone, so each k gets one Chebyshev table of it, and a
# whole Tukey family's w grid is one Clenshaw pass over it: the tabulation
# route of AS 190 (Lund & Lund, 1983; Copenhaver & Holland, 1988). The table
# spans [0, W_k], W_k the smallest w with C(k,2) erfc(w/2) < 2^-54. That
# union bound on 1 - R(w) makes R round to 1.0 past W_k; W_k runs from 11.8
# at k = 2 to 13.0 at k = 50. _range_cdf at 128 Chebyshev points of the
# window gives a series within 5e-14 of it for k <= 20. Above, the two
# differ by the direct rule's own quadrature noise (7.6e-11 at k = 50),
# which more points do not close.
_RANGE_POINTS = 128
_RANGE_TAIL = 2.0 ** -54


@lru_cache(maxsize=256)
def _range_table(k: int) -> tuple[float, tuple]:
    """(W_k, the Chebyshev coefficients of R on [0, W_k] with the first
    halved); built once per k, on first use."""
    pairs = 0.5 * k * (k - 1)
    below, width = 0.0, 2.0 * _ERFC_Z_MAX  # the bound falls as w grows
    for _ in range(64):
        mid = 0.5 * (below + width)
        if pairs * math.erfc(0.5 * mid) < _RANGE_TAIL:
            width = mid
        else:
            below = mid
    angles = math.pi / _RANGE_POINTS * (np.arange(_RANGE_POINTS) + 0.5)
    values = _range_cdf(0.5 * width * (1.0 + np.cos(angles)), k)
    coefs = np.cos(np.outer(np.arange(_RANGE_POINTS), angles)) @ values
    coefs *= 2.0 / _RANGE_POINTS
    coefs[0] *= 0.5
    return width, tuple(coefs.tolist())


def _tabulated_range_cdf(w: np.ndarray, k: int) -> np.ndarray:
    """R at every entry of w (all >= 0), from k's table: 1.0 past W_k."""
    width, coefs = _range_table(k)
    y = np.minimum(w, width)
    y *= 2.0 / width
    y -= 1.0
    r = _chebyshev_sum(coefs, y)
    r[w > width] = 1.0
    return r


def _log_sd_log_density(t, df):
    """Log density of t = ln(s), s^2 ~ chi2(df)/df, relative to its peak at t = 0."""
    return df * (t - 0.5 * np.expm1(2.0 * t))


@lru_cache(maxsize=256)
def _log_sd_bounds(df: float) -> tuple[float, float]:
    """The t-interval outside which the density of t is below e^-_LOG_TAIL of its peak."""
    level = -_LOG_TAIL

    def crossing(outside):
        inside = 0.0
        for _ in range(60):
            mid = 0.5 * (inside + outside)
            if _log_sd_log_density(mid, df) > level:
                inside = mid
            else:
                outside = mid
        return outside

    # t - (e^2t - 1)/2 <= t + 1/2 bounds the left end; the right end follows
    # from e^2t growing past 1 + 2*_LOG_TAIL/df
    return (crossing(level / df - 1.0),
            crossing(1.0 + 0.5 * math.log1p(2.0 * _LOG_TAIL / df)))


def studentized_range_cdf(q: float | np.ndarray, k: int, df: float) -> float | np.ndarray:
    """CDF of the studentized range: range of k group means over pooled SE.

    q is a scalar or a 1-D array; the result is a float or an array of the
    same length. Integrates the known-sigma range probability R(q*s), read
    from k's Chebyshev table, against the distribution of the pooled
    standard deviation estimate s (chi with df degrees of freedom, scaled by
    1/sqrt(df)), in t = ln(s), with a fixed Gauss-Legendre rule on four
    panels of t per q. The first holds only
    density mass: there R(q*s) < e^-_LOG_TAIL. The other three are cut at
    the density's peak t = 0 and near the rise of R(q*s), where the range of
    k normals is about 2*sqrt(2 ln k). Each entry is computed alone: the
    array form equals the scalar form entry by entry.
    """
    k, df = int(k), float(df)
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    if not 0.0 < df < math.inf:
        raise ValidationError(f"df must be finite and > 0, got {df}")
    qs = np.array(q, float, ndmin=1)
    if qs.ndim != 1:
        raise ValidationError(f"q must be a scalar or a 1-D array, got shape {qs.shape}")
    if np.isnan(qs).any():
        raise ValidationError("q must not be NaN")

    lo, hi = _log_sd_bounds(df)
    # q <= 0 gets log q = -inf, so t_r = inf below and P = 0
    log_q = np.log(qs, out=np.full(qs.shape, -math.inf), where=qs > 0.0)
    # R(w) <= k * (w / sqrt(2 pi))^(k-1), which is < e^-_LOG_TAIL below t_r
    t_r = 0.5 * math.log(2.0 * math.pi) - log_q - (_LOG_TAIL + math.log(k)) / (k - 1)
    live = t_r < hi
    start = np.maximum(lo, t_r[live])
    rise = math.log(2.0 * math.sqrt(2.0 * math.log(k))) - log_q[live]
    cuts = np.sort(np.clip(np.stack([np.zeros_like(rise), rise], axis=1),
                           start[:, None], hi), axis=1)
    edges = np.column_stack([np.full_like(start, lo), start, cuts, np.full_like(start, hi)])
    _, _, _, nodes, weights = _rules()
    half = 0.5 * np.diff(edges)[:, :, None]
    mid = 0.5 * (edges[:, :-1] + edges[:, 1:])[:, :, None]
    t = (half * nodes + mid).reshape(len(start), 4 * len(nodes))
    density = (half * weights).reshape(t.shape) * np.exp(_log_sd_log_density(t, df))
    # R is evaluated past the density-only first panel; normalizing by the
    # rule's own mass keeps the truncated tails out of P
    tail = slice(len(nodes), None)
    r = _tabulated_range_cdf(qs[live, None] * np.exp(t[:, tail]), k)
    value = np.zeros(qs.shape)
    value[live] = np.einsum("ij,ij->i", density[:, tail], r) / density.sum(axis=1)
    value = np.clip(value, 0.0, 1.0)
    return float(value[0]) if np.ndim(q) == 0 else value
