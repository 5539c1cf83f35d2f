import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaincc
from scipy.stats import studentized_range

from vinefab.errors import ValidationError
from vinefab.special import (_range_cdf, chi2_sf, f_sf, log_gamma, normal_cdf,
                             regularized_incomplete_beta,
                             regularized_incomplete_gamma_p,
                             regularized_incomplete_gamma_q,
                             studentized_range_cdf, t_quantile,
                             t_sf_two_sided)

from oracles import mc_normal_range_cdf, mc_studentized_range_cdf


def test_log_gamma_exact_points():
    assert log_gamma(1.0) == 0.0
    assert log_gamma(2.0) == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), abs=1e-14)
    assert log_gamma(6.0) == pytest.approx(math.log(120.0), abs=1e-12)
    with pytest.raises(ValidationError):
        log_gamma(0.0)
    with pytest.raises(ValidationError):
        log_gamma(-1.5)


def test_incomplete_beta_identities():
    for x in np.linspace(0.0, 1.0, 21):
        assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-14)
    # closed form: I_x(1/2, 1/2) = (2/pi) asin(sqrt(x))
    for x in (0.1, 0.37, 0.5, 0.9):
        assert regularized_incomplete_beta(0.5, 0.5, x) == pytest.approx(
            2.0 / math.pi * math.asin(math.sqrt(x)), abs=1e-12)
    # symmetry
    rng = np.random.default_rng(59)
    for _ in range(200):
        a, b = rng.uniform(0.2, 50.0, 2)
        x = rng.uniform(0.0, 1.0)
        assert regularized_incomplete_beta(a, b, x) == pytest.approx(
            1.0 - regularized_incomplete_beta(b, a, 1.0 - x), abs=1e-12)


def test_incomplete_beta_against_quadrature():
    rng = np.random.default_rng(61)
    for _ in range(25):
        a, b = rng.uniform(0.5, 20.0, 2)
        x = rng.uniform(0.05, 0.95)
        norm = math.exp(log_gamma(a) + log_gamma(b) - log_gamma(a + b))
        mine = regularized_incomplete_beta(a, b, x)
        # integrate whichever tail is smaller so the oracle keeps precision
        if mine <= 0.5:
            integral, _ = quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1),
                               0.0, x, epsabs=1e-14, epsrel=1e-12)
            assert mine == pytest.approx(integral / norm, abs=1e-10)
        else:
            integral, _ = quad(lambda t: t ** (a - 1) * (1 - t) ** (b - 1),
                               x, 1.0, epsabs=1e-14, epsrel=1e-12)
            assert 1.0 - mine == pytest.approx(integral / norm, abs=1e-10)


def test_incomplete_beta_domain():
    with pytest.raises(ValidationError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        regularized_incomplete_beta(1.0, 1.0, 1.5)


def test_incomplete_gamma_identities():
    for x in (0.1, 0.7, 2.0, 9.0):
        assert regularized_incomplete_gamma_p(1.0, x) == pytest.approx(
            1.0 - math.exp(-x), abs=1e-13)
        assert regularized_incomplete_gamma_p(0.5, x) == pytest.approx(
            math.erf(math.sqrt(x)), abs=1e-13)
        assert regularized_incomplete_gamma_p(3.0, x) + \
            regularized_incomplete_gamma_q(3.0, x) == pytest.approx(1.0, abs=1e-13)
    assert regularized_incomplete_gamma_p(2.0, 0.0) == 0.0
    assert regularized_incomplete_gamma_q(2.0, 0.0) == 1.0
    for bad_a in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="a must be finite and > 0"):
            regularized_incomplete_gamma_q(bad_a, 1.0)


@pytest.mark.parametrize("a", [0.5, 3.0, 50.0, 1e3, 5e3, 1e4, 1e5, 1e6])
def test_incomplete_gamma_against_scipy(a):
    # x from a - 8 sqrt(a) to a + 20 sqrt(a): near x = a the series and the
    # fraction need terms in proportion to sqrt(a). abs 1e-12 covers tails
    # where scipy itself is off (6e-7 relative at P(1e6, a - 6e3)); the
    # mpmath check below holds large shapes to a tighter bound
    for z in (-8.0, -6.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 6.0, 20.0):
        x = a + z * math.sqrt(a)
        if x <= 0.0:
            continue
        assert regularized_incomplete_gamma_p(a, x) == pytest.approx(
            gammainc(a, x), rel=1e-8, abs=1e-12)
        assert regularized_incomplete_gamma_q(a, x) == pytest.approx(
            gammaincc(a, x), rel=1e-8, abs=1e-12)
    assert chi2_sf(2.0 * a, 2.0 * a) == pytest.approx(gammaincc(a, a),
                                                      rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("a", [1e3, 1e5, 1e6])
def test_incomplete_gamma_against_mpmath(a):
    # the prefactor x^a e^-x / Gamma(a) of a large shape must not come from
    # -x + a log(x) - lgamma(a), whose terms near 1e7 cancel to ~1e-9 at 1e6.
    # Reference: P = x^a e^-x / Gamma(a + 1) * M(1, a + 1, x) (DLMF 8.5.1)
    for z in (-6.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 6.0):
        x = a + z * math.sqrt(a)
        with mpmath.workdps(40):
            ma, mx = mpmath.mpf(a), mpmath.mpf(x)
            p = (mpmath.exp(-mx + ma * mpmath.log(mx) - mpmath.loggamma(ma + 1))
                 * mpmath.hyp1f1(1, ma + 1, mx, maxterms=10**7))
            p, q = float(p), float(1 - p)
        assert regularized_incomplete_gamma_p(a, x) == pytest.approx(p, rel=1e-11, abs=0)
        assert regularized_incomplete_gamma_q(a, x) == pytest.approx(q, rel=1e-11, abs=0)
    # far below the mean the factor underflows instead of failing in log1p
    assert regularized_incomplete_gamma_p(a, 1e-300) == 0.0
    assert regularized_incomplete_gamma_q(a, 1e-300) == 1.0


def test_tail_function_relations():
    rng = np.random.default_rng(67)
    for _ in range(50):
        t = rng.uniform(0.0, 5.0)
        df = rng.uniform(2.0, 60.0)
        # F(1, df) of t^2 equals the two-sided t tail
        assert f_sf(t * t, 1.0, df) == pytest.approx(t_sf_two_sided(t, df), abs=1e-12)
        z = rng.uniform(0.0, 4.0)
        # chi-square with 1 df of z^2 equals the two-sided normal tail
        assert chi2_sf(z * z, 1.0) == pytest.approx(2.0 * (1.0 - normal_cdf(z)),
                                                    abs=1e-12)


def test_t_quantile_inverts_cdf():
    rng = np.random.default_rng(71)
    for _ in range(50):
        p = rng.uniform(0.01, 0.99)
        df = rng.uniform(1.5, 80.0)
        t = t_quantile(p, df)
        cdf = 1.0 - 0.5 * t_sf_two_sided(abs(t), df)
        cdf = cdf if t >= 0 else 1.0 - cdf
        assert cdf == pytest.approx(p, abs=1e-10)
    assert t_quantile(0.5, 10.0) == 0.0
    assert t_quantile(0.975, 9.0) == pytest.approx(2.2621571628, abs=1e-6)
    assert t_quantile(0.025, 9.0) == pytest.approx(-2.2621571628, abs=1e-6)
    with pytest.raises(ValidationError):
        t_quantile(1.0, 10.0)


def test_normal_range_cdf_against_monte_carlo():
    # the known-sigma range kernel that studentized_range_cdf integrates
    for w, k in ((2.0, 3), (3.5, 5), (1.0, 2)):
        ref = mc_normal_range_cdf(w, k, 200_000, seed=91)
        assert _range_cdf(np.array([w]), k)[0] == pytest.approx(ref, abs=5e-3)
    assert _range_cdf(np.array([0.0]), 3)[0] == 0.0
    assert _range_cdf(np.array([50.0]), 4)[0] == pytest.approx(1.0, abs=1e-9)


def test_studentized_range_spot_value():
    # a classic 5% critical point: k = 3, df = 10, q = 3.88
    assert studentized_range_cdf(3.88, 3, 10) == pytest.approx(0.95, abs=2e-3)


def test_studentized_range_against_monte_carlo():
    qs = np.array([2.0, 3.0, 4.5])
    ref = mc_studentized_range_cdf(qs, 3, 10.0, 1_000_000, seed=97)
    for q, r in zip(qs, ref):
        assert studentized_range_cdf(q, 3, 10.0) == pytest.approx(r, abs=3e-3)


@pytest.mark.parametrize("k", [2, 3, 5, 10, 20])
def test_studentized_range_against_scipy(k):
    qs = np.array([0.05, 0.3, 1.0, 2.5, 4.0, 6.0, 10.0, 20.0, 40.0])
    # df < 2 puts most of the pooled SD's density far below its mode, where
    # the fixed rule is widest
    for df in (0.5, 1.0, 1.5, 2.0, 4.0, 7.0, 30.0, 120.0, 500.0, 1000.0):
        ref = studentized_range.cdf(qs, k, df)
        for q, r in zip(qs, ref):
            assert studentized_range_cdf(q, k, df) == pytest.approx(r, abs=1e-10), \
                (q, k, df)


def test_studentized_range_domain():
    assert studentized_range_cdf(0.0, 3, 10.0) == 0.0
    assert studentized_range_cdf(-1.0, 3, 10.0) == 0.0
    assert studentized_range_cdf(math.inf, 3, 10.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValidationError):
        studentized_range_cdf(2.0, 1, 10.0)
    for df in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            studentized_range_cdf(2.0, 3, df)
    with pytest.raises(ValidationError):
        studentized_range_cdf(math.nan, 3, 10.0)


def test_probability_outputs_bounded():
    rng = np.random.default_rng(73)
    for _ in range(200):
        p = f_sf(rng.gamma(2.0), rng.uniform(1, 10), rng.uniform(2, 50))
        assert 0.0 <= p <= 1.0
        p = chi2_sf(rng.gamma(2.0) * 5, rng.uniform(1, 20))
        assert 0.0 <= p <= 1.0
