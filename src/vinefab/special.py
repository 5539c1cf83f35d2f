"""Special functions backing the statistical tests.

The incomplete beta and gamma functions are evaluated with the classic
series / continued-fraction splits (modified Lentz iteration), which keeps
every p-value in the package traceable to a few dozen lines of code. The
studentized range CDF integrates the known-sigma range probability over the
distribution of the pooled standard deviation estimate s with one fixed
tensor Gauss-Legendre rule, evaluated as one array: 64 nodes on each of four
panels in t = ln(s), times 160 nodes over the normal maximum. It agrees with
adaptive quadrature to ~1e-12. The rules are built on first use, so importing
this module costs no quadrature set-up.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ValidationError

_EPS = 3e-16
_FPMIN = 1e-300
_MAX_ITER = 500


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValidationError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ValidationError(f"incomplete beta did not converge for a={a}, b={b}, x={x}")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    a, b, x = float(a), float(b), float(x)
    if a <= 0.0 or b <= 0.0:
        raise ValidationError(f"shape parameters must be > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return x
    ln_front = (log_gamma(a + b) - log_gamma(a) - log_gamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _gamma_iterations(a: float) -> int:
    # near x = a the series needs about 8*sqrt(a) terms, the fraction 3*sqrt(a)
    return _MAX_ITER + int(10.0 * math.sqrt(a))


def _gamma_prefactor(a: float, x: float) -> float:
    """x^a e^-x / Gamma(a), the factor shared by the series and the fraction."""
    if a < 50.0 or x < 0.5 * a:
        return math.exp(-x + a * math.log(x) - log_gamma(a))
    # near x = a, -x + a*log(x) and lgamma(a) cancel (to ~1e-9 relative at
    # a = 1e6). With Stirling's series for lgamma the log is
    # a*(log1p(t) - t) + log(a/2pi)/2 - stirling(a), t = (x - a)/a; below
    # x = a/2 rounding in t would spoil log1p(t), and the factor underflows
    t = (x - a) / a
    inv2 = 1.0 / (a * a)
    stirling = (1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 / 1680))) / a
    return math.exp(a * (math.log1p(t) - t) + 0.5 * math.log(a / (2.0 * math.pi))
                    - stirling)


def _gamma_series(a: float, x: float) -> float:
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_gamma_iterations(a)):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * _gamma_prefactor(a, x)
    raise ValidationError(f"incomplete gamma series did not converge for a={a}, x={x}")


def _gamma_cf(a: float, x: float) -> float:
    b = x + 1.0 - a
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _gamma_iterations(a) + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * _gamma_prefactor(a, x)
    raise ValidationError(f"incomplete gamma fraction did not converge for a={a}, x={x}")


def _gamma_args(a: float, x: float) -> tuple[float, float]:
    a, x = float(a), float(x)
    if not 0.0 < a < math.inf:
        raise ValidationError(f"a must be finite and > 0, got {a}")
    if x < 0.0:
        raise ValidationError(f"x must be >= 0, got {x}")
    return a, x


def regularized_incomplete_gamma_p(a: float, x: float) -> float:
    """P(a, x): lower regularized incomplete gamma."""
    a, x = _gamma_args(a, x)
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cf(a, x)


def regularized_incomplete_gamma_q(a: float, x: float) -> float:
    """Q(a, x) = 1 - P(a, x): upper regularized incomplete gamma."""
    a, x = _gamma_args(a, x)
    if x == 0.0:
        return 1.0
    if x < a + 1.0:
        return 1.0 - _gamma_series(a, x)
    return _gamma_cf(a, x)


def normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-float(z) / math.sqrt(2.0))


def t_sf_two_sided(t: float, df: float) -> float:
    """P(|T| >= t) for Student's t with df degrees of freedom."""
    t, df = float(t), float(df)
    if df <= 0.0:
        raise ValidationError(f"df must be > 0, got {df}")
    if math.isinf(t):
        return 0.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def f_sf(f: float, df1: float, df2: float) -> float:
    """P(F >= f) for the F distribution."""
    f, df1, df2 = float(f), float(df1), float(df2)
    if df1 <= 0.0 or df2 <= 0.0:
        raise ValidationError(f"df must be > 0, got df1={df1}, df2={df2}")
    if f <= 0.0:
        return 1.0
    return regularized_incomplete_beta(df2 / 2.0, df1 / 2.0, df2 / (df2 + df1 * f))


def chi2_sf(x: float, df: float) -> float:
    """P(X >= x) for the chi-square distribution."""
    x, df = float(x), float(df)
    if df <= 0.0:
        raise ValidationError(f"df must be > 0, got {df}")
    if x <= 0.0:
        return 1.0
    return regularized_incomplete_gamma_q(df / 2.0, x / 2.0)


@lru_cache(maxsize=4096)
def t_quantile(p: float, df: float) -> float:
    """Inverse CDF of Student's t, by bisection on the monotone CDF."""
    p, df = float(p), float(df)
    if df <= 0.0:
        raise ValidationError(f"df must be > 0, got {df}")
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


# Inner rule for the known-sigma range probability: 160 Gauss-Legendre points
# over [-9, 9], the effective support of the normal density, give ~1e-10.
# Outer rule: four 64-point panels in t = ln(s), s the pooled SD estimate.
_INNER_HALF_WIDTH = 9.0
_INNER_POINTS = 160
_OUTER_POINTS = 64
# the outer rule leaves out t where the density of t is below e^-30 of its
# peak, and integrates only the density's mass where R(q*s) < e^-30
_LOG_TAIL = 30.0
_SQRT2 = math.sqrt(2.0)
_erfc = np.frompyfunc(math.erfc, 1, 1)


@lru_cache(maxsize=1)
def _rules():
    """(inner nodes, inner weights times the normal pdf, normal cdf at the
    inner nodes, outer nodes, outer weights); built once, on first use."""
    nodes, weights = np.polynomial.legendre.leggauss(_INNER_POINTS)
    x = _INNER_HALF_WIDTH * nodes
    pdf_w = (_INNER_HALF_WIDTH * weights * np.exp(-0.5 * x * x)
             / math.sqrt(2.0 * math.pi))
    cdf = 0.5 * _erfc(-x / _SQRT2).astype(float)
    outer_nodes, outer_weights = np.polynomial.legendre.leggauss(_OUTER_POINTS)
    rules = (x, pdf_w, cdf, outer_nodes, outer_weights)
    for array in rules:
        array.flags.writeable = False  # shared by every caller through the cache
    return rules


def _range_cdf(w: np.ndarray, k: int) -> np.ndarray:
    """P(range of k standard normals <= w) for every entry of w."""
    x, pdf_w, cdf, _, _ = _rules()
    # integrate over the maximum x: the k-1 others must lie in [x - w, x]
    shifted = 0.5 * _erfc((w[:, None] - x) / _SQRT2).astype(float)
    return k * (np.maximum(cdf - shifted, 0.0) ** (k - 1) @ pdf_w)


def _log_sd_log_density(t, df):
    """Log density of t = ln(s), s^2 ~ chi2(df)/df, relative to its peak at t = 0."""
    return df * (t - 0.5 * np.expm1(2.0 * t))


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


def studentized_range_cdf(q: float, k: int, df: float) -> float:
    """CDF of the studentized range: range of k group means over pooled SE.

    Integrates the known-sigma range probability R(q*s) against the
    distribution of the pooled standard deviation estimate s (chi with df
    degrees of freedom, scaled by 1/sqrt(df)), in t = ln(s), with a fixed
    Gauss-Legendre rule on four panels of t. The first holds only density
    mass: there R(q*s) < e^-_LOG_TAIL. The other three are cut at the
    density's peak t = 0 and near the rise of R(q*s), where the range of k
    normals is about 2*sqrt(2 ln k).
    """
    q, k, df = float(q), int(k), float(df)
    if k < 2:
        raise ValidationError(f"k must be >= 2, got {k}")
    if not 0.0 < df < math.inf:
        raise ValidationError(f"df must be finite and > 0, got {df}")
    if math.isnan(q):
        raise ValidationError("q must not be NaN")
    if q <= 0.0:
        return 0.0

    lo, hi = _log_sd_bounds(df)
    log_q = math.log(q)
    # R(w) <= k * (w / sqrt(2 pi))^(k-1), which is < e^-_LOG_TAIL below t_r
    t_r = 0.5 * math.log(2.0 * math.pi) - log_q - (_LOG_TAIL + math.log(k)) / (k - 1)
    if t_r >= hi:
        return 0.0
    start = max(lo, t_r)
    rise = math.log(2.0 * math.sqrt(2.0 * math.log(k))) - log_q
    edges = np.array([lo, start] + sorted(min(max(v, start), hi) for v in (0.0, rise))
                     + [hi])
    _, _, _, nodes, weights = _rules()
    half = 0.5 * np.diff(edges)[:, None]
    t = (half * nodes + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    density = (half * weights).ravel() * np.exp(_log_sd_log_density(t, df))
    # R is evaluated past the density-only first panel; normalizing by the
    # rule's own mass keeps the truncated tails out of P
    tail = slice(len(nodes), None)
    value = density[tail] @ _range_cdf(q * np.exp(t[tail]), k) / density.sum()
    return float(min(1.0, max(0.0, value)))
