import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaincc
from scipy.stats import studentized_range

from vinefab.errors import ValidationError
from vinefab.special import (_ERFC_CHEB, _RANGE_TAIL, _erfc, _range_cdf, _range_table,
                             _tabulated_range_cdf, chi2_sf, f_sf,
                             regularized_incomplete_beta, studentized_range_cdf,
                             t_quantile, t_sf_two_sided)

from oracles import mc_normal_range_cdf, mc_studentized_range_cdf


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
        norm = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
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
    for bad in (math.inf, math.nan):
        for a, b in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValidationError, match="must be finite and > 0"):
                regularized_incomplete_beta(a, b, 0.5)


def test_incomplete_gamma_identities():
    # chi2_sf(x, df) = Q(df/2, x/2), which has closed forms for df = 1 to 4
    for y in (0.1, 0.7, 2.0, 9.0):
        x, root = 2.0 * y, math.sqrt(y)
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-y), rel=1e-13, abs=0)
        assert chi2_sf(x, 1) == pytest.approx(math.erfc(root), rel=1e-13, abs=0)
        assert chi2_sf(x, 4) == pytest.approx(math.exp(-y) * (1.0 + y), rel=1e-13, abs=0)
        assert chi2_sf(x, 3) == pytest.approx(
            math.erfc(root) + 2.0 * math.sqrt(y / math.pi) * math.exp(-y), rel=1e-13, abs=0)
    # down to tiny y, where exp(log y) / y would miss t_0 = e^-y by 1e-14
    for x in (1e-300, 1e-200, 1e-100, 1e-20, 1e-6):
        y = 0.5 * x
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-y), rel=1e-15, abs=0)
        assert chi2_sf(x, 4) == pytest.approx(math.exp(-y) * (1.0 + y), rel=1e-15, abs=0)
    assert chi2_sf(0.0, 4) == 1.0


def test_chi2_sf_domain():
    assert chi2_sf(math.inf, 2) == 0.0
    assert chi2_sf(math.inf, 3) == 0.0
    assert chi2_sf(-1.0, 3) == 1.0
    assert chi2_sf(5e-324, 2) == 1.0  # x/2 underflows to 0
    with pytest.raises(ValidationError, match="x must not be NaN"):
        chi2_sf(math.nan, 2)
    for bad_df in (0.0, -1.0, 2.5, 2.0 ** 54, math.inf, math.nan):
        with pytest.raises(ValidationError, match=r"df must be an integer in \[1, 2\^53\]"):
            chi2_sf(1.0, bad_df)


def test_tails_and_t_quantile_name_the_bad_argument():
    # a NaN statistic or a df that is NaN, infinite or not > 0 is rejected at
    # entry, not as the incomplete beta's x, a or b
    nan, inf = math.nan, math.inf
    for function, args, message in [
            (t_sf_two_sided, (nan, 5.0), "t must not be NaN, got nan"),
            (f_sf, (nan, 2.0, 10.0), "f must not be NaN, got nan"),
            (t_sf_two_sided, (1.0, nan), "df must be finite and > 0, got nan"),
            (t_sf_two_sided, (1.0, 0.0), "df must be finite and > 0, got 0.0"),
            (t_sf_two_sided, (1.0, inf), "df must be finite and > 0, got inf"),
            (t_quantile, (0.9, nan), "df must be finite and > 0, got nan"),
            (t_quantile, (0.9, -1.0), "df must be finite and > 0, got -1.0"),
            (t_quantile, (0.9, inf), "df must be finite and > 0, got inf"),
            (f_sf, (1.0, nan, 10.0), "df must be finite and > 0, got df1=nan, df2=10.0"),
            (f_sf, (1.0, 2.0, nan), "df must be finite and > 0, got df1=2.0, df2=nan"),
            (f_sf, (1.0, 2.0, 0.0), "df must be finite and > 0, got df1=2.0, df2=0.0"),
            (f_sf, (1.0, 2.0, inf), "df must be finite and > 0, got df1=2.0, df2=inf")]:
        with pytest.raises(ValidationError) as info:
            function(*args)
        assert str(info.value) == message
    assert t_sf_two_sided(math.inf, 5.0) == t_sf_two_sided(-math.inf, 5.0) == 0.0


def test_chi2_sf_against_mpmath_grid():
    # the sum's terms come from exp of a log, so deep tails lose about
    # |log t| ulps: 1.0e-13 worst on this grid
    worst = 0.0
    for df in [*range(1, 41), 99, 100, 999, 2000]:
        for x in [*np.geomspace(1e-6, 3000.0, 61), float(df)]:
            with mpmath.workdps(40):
                q = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf,
                                    regularized=True)
            if q < mpmath.mpf("1e-290"):
                continue
            q = float(q)
            worst = max(worst, abs(chi2_sf(x, df) - q) / q)
    assert worst < 1e-12


@pytest.mark.parametrize("a", [0.5, 3.0, 50.0, 1e3, 5e3, 1e4, 1e5, 1e6])
def test_incomplete_gamma_against_scipy(a):
    # chi2_sf(x, 2a) = Q(a, x/2), at x/2 from a - 8 sqrt(a) to a + 20 sqrt(a),
    # where the sum runs over terms in proportion to sqrt(a). abs 1e-12
    # covers tails where scipy itself is off (6e-7 relative at P(1e6, a -
    # 6e3)); the mpmath check below holds large shapes to a tighter bound
    for z in (-8.0, -6.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 6.0, 20.0):
        y = a + z * math.sqrt(a)
        if y <= 0.0:
            continue
        assert chi2_sf(2.0 * y, 2.0 * a) == pytest.approx(gammaincc(a, y),
                                                          rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("a", [1e3, 1e5, 1e6])
def test_incomplete_gamma_against_mpmath(a):
    # the peak term y^s e^-y / Gamma(s + 1) of a large df must not come from
    # -y + s log(y) - lgamma(s + 1), whose terms near 1e7 cancel to ~1e-9 at
    # s = 1e6. Reference: P = y^a e^-y / Gamma(a + 1) * M(1, a + 1, y) (DLMF
    # 8.5.1), and Q = 1 - P
    for z in (-6.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 6.0):
        y = a + z * math.sqrt(a)
        with mpmath.workdps(40):
            ma, my = mpmath.mpf(a), mpmath.mpf(y)
            p = (mpmath.exp(-my + ma * mpmath.log(my) - mpmath.loggamma(ma + 1))
                 * mpmath.hyp1f1(1, ma + 1, my, maxterms=10**7))
            q = float(1 - p)
        assert chi2_sf(2.0 * y, 2.0 * a) == pytest.approx(q, rel=1e-11, abs=0)
    # far below the mean the terms underflow instead of failing in log1p
    assert chi2_sf(2e-300, 2.0 * a) == 1.0


def test_tail_function_relations():
    rng = np.random.default_rng(67)
    for _ in range(50):
        t = rng.uniform(0.0, 5.0)
        df = rng.uniform(2.0, 60.0)
        # F(1, df) of t^2 equals the two-sided t tail
        assert f_sf(t * t, 1.0, df) == pytest.approx(t_sf_two_sided(t, df), abs=1e-12)
        z = rng.uniform(0.0, 4.0)
        # chi-square with 1 df of z^2 equals the two-sided normal tail
        normal_cdf = 0.5 * math.erfc(-z / math.sqrt(2.0))
        assert chi2_sf(z * z, 1.0) == pytest.approx(2.0 * (1.0 - normal_cdf), abs=1e-12)


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


def test_erfc_kernel_against_math_erfc():
    x = np.linspace(-40.0, 40.0, 400_001)
    ref = np.array([math.erfc(v) for v in x])
    got = _erfc(x)
    normal = ref > 1e-300
    ulps = np.abs(got[normal] - ref[normal]) / np.spacing(ref[normal])
    assert ulps.max() <= 10.0, x[normal][np.argmax(ulps)]
    assert np.all(got[~normal] <= 1e-300) and np.all(got >= 0.0)
    assert _erfc(np.array([0.0, -0.0, math.inf, -math.inf])).tolist() == [1.0, 1.0, 0.0, 2.0]


def test_erfc_chebyshev_coefficients_refit():
    # c(y) = log(erfc(z)/t) + z^2, t = 2/(2+z), y = 2t - 1, interpolated at
    # n Chebyshev points of y with 40 digits; the first coefficient is halved
    n = 400
    with mpmath.workdps(40):
        angles = [mpmath.pi * (j + mpmath.mpf(0.5)) / n for j in range(n)]
        values = []
        for angle in angles:
            t = (1 + mpmath.cos(angle)) / 2
            z = 2 / t - 2
            values.append(mpmath.log(mpmath.erfc(z) / t) + z * z)
        refit = [2 * mpmath.fsum(v * mpmath.cos(m * a) for v, a in zip(values, angles)) / n
                 for m in range(len(_ERFC_CHEB))]
        refit[0] /= 2
    np.testing.assert_allclose(np.array(refit, float), _ERFC_CHEB, rtol=0, atol=1e-14)


def test_normal_range_cdf_against_monte_carlo():
    # the known-sigma range kernel that studentized_range_cdf integrates
    for w, k in ((2.0, 3), (3.5, 5), (1.0, 2)):
        ref = mc_normal_range_cdf(w, k, 200_000, seed=91)
        assert _range_cdf(np.array([w]), k)[0] == pytest.approx(ref, abs=5e-3)
    assert _range_cdf(np.array([0.0]), 3)[0] == 0.0
    assert _range_cdf(np.array([50.0]), 4)[0] == pytest.approx(1.0, abs=1e-9)


def test_range_table_matches_the_direct_kernel():
    for k in range(2, 21):
        width, _ = _range_table(k)
        # the window is the smallest w whose union bound on 1 - R is below 2^-54
        pairs = k * (k - 1) / 2
        assert pairs * math.erfc(width / 2) < _RANGE_TAIL
        assert pairs * math.erfc(math.nextafter(width, 0.0) / 2) >= _RANGE_TAIL
        w = np.linspace(0.0, 1.2 * width, 2401)
        table = _tabulated_range_cdf(w, k)
        np.testing.assert_allclose(table, _range_cdf(w, k), rtol=0, atol=5e-14, err_msg=k)
        assert (table[w > width] == 1.0).all()


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
    worst = 0.0
    for df in (0.5, 1.0, 1.5, 2.0, 4.0, 7.0, 30.0, 120.0, 500.0, 1000.0):
        ref = studentized_range.cdf(qs, k, df)
        for q, r in zip(qs, ref):
            assert studentized_range_cdf(q, k, df) == pytest.approx(r, abs=1e-10), \
                (q, k, df)
        worst = max(worst, np.abs(studentized_range_cdf(qs, k, df) - ref).max())
    # the 112 x 48 rule reaches 5.1e-13 over this grid
    assert worst <= 1e-12


@pytest.mark.parametrize("k, bound", [(30, 1e-10), (50, 1e-9)])
def test_studentized_range_against_scipy_at_large_k(k, bound):
    # past k = 20 the direct rule's own quadrature noise grows, and the
    # table inherits it: 4.7e-11 at k = 30, 5.5e-10 at k = 50
    qs = np.array([0.05, 0.3, 1.0, 2.5, 4.0, 6.0, 10.0, 20.0, 40.0])
    for df in (0.5, 1.0, 1.5, 2.0, 4.0, 7.0, 30.0, 120.0, 500.0, 1000.0):
        np.testing.assert_allclose(studentized_range_cdf(qs, k, df),
                                   studentized_range.cdf(qs, k, df), rtol=0, atol=bound,
                                   err_msg=df)


def test_studentized_range_array_form_equals_scalar_form():
    rng = np.random.default_rng(89)
    for k, df in ((2, 0.5), (3, 10.0), (6, 27.0), (20, 1000.0)):
        qs = np.concatenate([[0.0, -1.0, 1e-300, math.inf, 60.0], rng.uniform(0.0, 12.0, 40)])
        values = studentized_range_cdf(qs, k, df)
        assert values.shape == qs.shape
        scalars = [studentized_range_cdf(q, k, df) for q in qs]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_array_equal(values, scalars)
        np.testing.assert_array_equal(studentized_range_cdf(qs[:1], k, df), scalars[:1])
    assert studentized_range_cdf(np.array([]), 3, 10.0).shape == (0,)
    with pytest.raises(ValidationError):
        studentized_range_cdf(np.ones((2, 2)), 3, 10.0)
    with pytest.raises(ValidationError):
        studentized_range_cdf([2.0, math.nan], 3, 10.0)


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
        p = chi2_sf(rng.gamma(2.0) * 5, rng.integers(1, 21))
        assert 0.0 <= p <= 1.0
    # near x = 0 the rounded sum of e^-y (1 + y + ...) can land an ulp past 1
    for _ in range(5000):
        p = chi2_sf(10.0 ** rng.uniform(-18.0, 0.5), rng.integers(1, 12))
        assert 0.0 <= p <= 1.0
