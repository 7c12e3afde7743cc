"""Tests for exact generation-sum moments and the enumeration oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from bmclab.errors import ComputationRejected, ConfigError, ResourceCapError
from bmclab.kernels import BarParams
from bmclab.moments import (
    ENUM_DEPTH_MAX,
    _node_mean_var,
    _pair_cov,
    _pair_depths,
    _pair_expects,
    common_ancestor_depth,
    enumerated_cross_moment,
    enumerated_mean,
    enumerated_second_moment,
    exact_cross_moment,
    exact_mean,
    exact_second_moment,
)
from bmclab.rng import derive_keys, seed_key
from bmclab.spectral import SpectralFn, apply_kernel, from_monomial
from bmclab.treesim import InitialLaw, generation_sums
from oracles import (
    constant,
    gaussian_expect,
    identity,
    per_pair_cross_moment,
    reference_cross_moment,
    reference_mean,
)

A_GRID = (0.3, 1.0 / math.sqrt(2.0), 0.85)
POLY_GRID = ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])


def _quad_pair_expect(cf, cg, mean1, var1, mean2, var2, cov):
    """Nested-quadrature oracle for E[f(X) g(Y)], (X, Y) jointly Gaussian."""
    if var1 == 0.0:
        if var2 == 0.0:
            return P.polyval(mean1, cf) * P.polyval(mean2, cg)
        return P.polyval(mean1, cf) * gaussian_expect(
            lambda y: P.polyval(y, cg), mean=mean2, std=math.sqrt(var2), order=96
        )
    resid = var2 - cov**2 / var1
    std_in = math.sqrt(max(resid, 0.0))

    def outer(xs):
        xs = np.atleast_1d(xs)
        out = np.empty_like(xs)
        for i, x in enumerate(xs):
            mean_in = mean2 + cov / var1 * (x - mean1)
            if std_in == 0.0:
                inner = P.polyval(mean_in, cg)
            else:
                inner = gaussian_expect(lambda y: P.polyval(y, cg),
                                        mean=mean_in, std=std_in, order=96)
            out[i] = P.polyval(x, cf) * inner
        return out

    return gaussian_expect(outer, mean=mean1, std=math.sqrt(var1), order=96)


def test_gaussian_pair_expect_against_quadrature():
    # A cubic times a quadratic has degree sum 5 = 2 * order - 1 for the rule of
    # order 3 that _pair_expects picks: the highest degree that rule is exact for.
    rng = np.random.default_rng(4)
    for _ in range(6):
        params = BarParams(rng.uniform(-0.95, 0.95), rng.uniform(0.5, 1.5))
        cf = rng.normal(size=4)
        cg = rng.normal(size=3)
        f, g = (from_monomial(c, params.sigma_a()) for c in (cf, cg))
        x = rng.normal()
        n, m = rng.integers(0, ENUM_DEPTH_MAX + 1, size=2)
        depths = range(min(n, m) + 1)
        got = _pair_expects(f, g, params, n, m, depths, x)
        mean1, var1 = _node_mean_var(params.a, params.sigma, n, x)
        mean2, var2 = _node_mean_var(params.a, params.sigma, m, x)
        for d in depths:
            cov = _pair_cov(params.a, params.sigma, n, m, d)
            want = _quad_pair_expect(cf, cg, mean1, var1, mean2, var2, cov)
            assert got[d] == pytest.approx(want, rel=1e-10, abs=1e-10)
    # One node with itself at a = 0, sigma = 1: E[X^4] = 3 for X ~ N(0, 1).
    square = from_monomial([0.0, 0.0, 1.0], 1.0)
    got = _pair_expects(square, square, BarParams(0.0), 1, 1, [1], 0.0)
    assert got[0] == pytest.approx(3.0, rel=1e-12)


def test_mean_closed_forms():
    params = BarParams(0.5)
    one = constant(1.0, params.sigma_a())
    for n in range(5):
        assert exact_mean(one, params, n, 0.3) == pytest.approx(2.0**n, rel=1e-12)
    f = identity(params.sigma_a())
    assert exact_mean(f, params, 3, 1.0) == pytest.approx(1.0, rel=1e-12)
    g = from_monomial([0.0, 0.0, 1.0], params.sigma_a())
    assert exact_mean(g, params, 0, 2.0) == pytest.approx(4.0, rel=1e-12)


def test_second_moment_closed_forms():
    params = BarParams(0.5)
    sig = params.sigma_a()
    one = constant(1.0, sig)
    for n in range(5):
        assert exact_second_moment(one, params, n, 0.7) == pytest.approx(
            4.0**n, rel=1e-12)
    f = from_monomial([0.2, 1.0, 0.5], sig)
    assert exact_second_moment(f, params, 0, 1.3) == pytest.approx(
        f(1.3) ** 2, rel=1e-12)
    x_fn = identity(sig)
    for sigma in (1.0, 0.7):
        p = BarParams(0.5, sigma=sigma)
        assert exact_second_moment(identity(p.sigma_a()), p, 1, 0.0) == pytest.approx(
            2.0 * sigma**2, rel=1e-12)
    assert exact_second_moment(x_fn, params, 1, 0.0) == pytest.approx(2.0, rel=1e-12)


def test_critical_second_moment_growth():
    a = 1.0 / math.sqrt(2.0)
    params = BarParams(a)
    f = identity(params.sigma_a())
    sig2 = params.sigma_a() ** 2
    for n in range(1, 7):
        want = sig2 * n * 2.0 ** (n - 1)
        assert exact_second_moment(f, params, n, 0.0) == pytest.approx(want, rel=1e-12)


def test_cross_moment_reductions():
    params = BarParams(0.6)
    sig = params.sigma_a()
    f = from_monomial([0.0, 1.0, 0.3], sig)
    g = from_monomial([0.5, 0.7], sig)
    one = constant(1.0, sig)
    for n, m in ((3, 2), (4, 1), (2, 2)):
        with_one = exact_cross_moment(f, one, params, n, m, 0.8)
        assert with_one == pytest.approx(2.0**m * exact_mean(f, params, n, 0.8),
                                         rel=1e-12)
        swapped = exact_cross_moment(g, f, params, m, n, 0.8)
        assert exact_cross_moment(f, g, params, n, m, 0.8) == pytest.approx(
            swapped, rel=1e-12)
    assert exact_cross_moment(f, f, params, 3, 3, 0.8) == pytest.approx(
        exact_second_moment(f, params, 3, 0.8), rel=1e-12)


@pytest.mark.parametrize("a", [0.6, -0.85])
def test_cross_moment_with_the_root_is_the_pushed_product(a):
    # At m = 0 there is no split generation: the moment is 2^n Q^n f(x) g(x),
    # bit for bit, with no child-pair product.
    params = BarParams(a)
    sig = params.sigma_a()
    f = from_monomial([0.1, 1.0, 0.3, -0.2], sig)
    g = from_monomial([0.5, 0.7], sig)
    for n in range(5):
        for x in (-1.3, 0.0, 0.8):
            want = math.ldexp(apply_kernel(f, a, n).evaluate(x) * g.evaluate(x), n)
            assert exact_cross_moment(f, g, params, n, 0, x) == want
            assert exact_cross_moment(g, f, params, 0, n, x) == want


def test_variance_nonnegative_and_cauchy_schwarz():
    for a in A_GRID:
        params = BarParams(a)
        sig = params.sigma_a()
        funcs = [from_monomial(c, sig) for c in POLY_GRID]
        for x in (0.0, 1.0):
            for n in range(5):
                for f in funcs:
                    m1 = exact_mean(f, params, n, x)
                    m2 = exact_second_moment(f, params, n, x)
                    assert m2 - m1**2 >= -1e-9 * max(1.0, abs(m2))
                cross = exact_cross_moment(funcs[0], funcs[1], params, n, max(n - 1, 0), x)
                bound = math.sqrt(
                    exact_second_moment(funcs[0], params, n, x)
                    * exact_second_moment(funcs[1], params, max(n - 1, 0), x))
                assert abs(cross) <= bound * (1.0 + 1e-10)


def test_exact_matches_enumeration():
    for a in A_GRID:
        params = BarParams(a)
        sig = params.sigma_a()
        funcs = [from_monomial(c, sig) for c in POLY_GRID]
        for x in (0.0, 1.0):
            for n in range(5):
                for f in funcs:
                    ref = enumerated_mean(f, params, n, x)
                    got = exact_mean(f, params, n, x)
                    assert got == pytest.approx(ref, rel=1e-8, abs=1e-8)
                    ref = enumerated_second_moment(f, params, n, x)
                    got = exact_second_moment(f, params, n, x)
                    assert got == pytest.approx(ref, rel=1e-8, abs=1e-8)
            for n, m in ((2, 0), (3, 2), (4, 4), (4, 1)):
                ref = enumerated_cross_moment(funcs[1], funcs[0], params, n, m, x)
                got = exact_cross_moment(funcs[1], funcs[0], params, n, m, x)
                assert got == pytest.approx(ref, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("degree", [33, 64])
def test_exact_matches_enumeration_past_the_product_cap(degree):
    # Degree sums 66 and 128 exceed the cap of one SpectralFn product; the
    # closed forms take their expectations on the rule the enumeration uses,
    # so they accept every pair it accepts.  c_j ~ N(0, 1)/sqrt(j!) keeps
    # each degree's share of the moment of order one.
    rng = np.random.default_rng(degree)
    params = BarParams(0.5, 1.3)
    scale = np.array([1.0 / math.sqrt(math.factorial(j)) for j in range(degree + 1)])
    f, g = (SpectralFn(params.sigma_a(), rng.normal(size=degree + 1) * scale)
            for _ in range(2))
    for n, m in ((1, 1), (3, 2), (4, 4)):
        want = enumerated_cross_moment(f, g, params, n, m, 0.3)
        got = exact_cross_moment(f, g, params, n, m, 0.3)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (n, m)


@pytest.mark.parametrize("a", (0.3, 1.0 / math.sqrt(2.0), 0.85, -0.6))
def test_enumeration_matches_per_pair_reference_bitwise(a):
    polys = ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0], [0.3, 1.0, 0.5, 0.2])
    for sigma in (1.0, 1.3):
        params = BarParams(a, sigma=sigma)
        funcs = [from_monomial(c, params.sigma_a()) for c in polys]
        one = constant(1.0, params.sigma_a())
        for x in (0.0, 1.0, -0.7):
            for n in range(5):
                for f in funcs:
                    want = per_pair_cross_moment(f, one, params, n, 0, x)
                    assert enumerated_mean(f, params, n, x).hex() == want.hex()
                    want = per_pair_cross_moment(f, f, params, n, n, x)
                    assert enumerated_second_moment(f, params, n, x).hex() == want.hex()
                for m in range(5):
                    for f in funcs:
                        for g in funcs:
                            want = per_pair_cross_moment(f, g, params, n, m, x)
                            got = enumerated_cross_moment(f, g, params, n, m, x)
                            assert got.hex() == want.hex(), (sigma, x, n, m)


REFERENCE_POLYS = ([1.0], [0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0],
                   [0.3, 1.0, 0.5, 0.2])


@pytest.mark.parametrize("a", (0.3, 1.0 / math.sqrt(2.0), 0.85, -0.6, 0.99))
def test_exact_moments_match_the_spectral_reference(a):
    # The closed forms on coefficient arrays round differently from the
    # reference built one SpectralFn at a time.  Each gap is bounded by 1e-12
    # times the same sum over absolute values: at a = 0.99 (sigma_a ~ 7.1)
    # the Hermite basis cancels, and a true zero reads about 1e-7 from terms
    # of about 1e5 on both sides.  Both sides swap (f, n) and (g, m) when
    # n < m, so those cases are checked as that swap, bit for bit.
    params = BarParams(a)
    funcs = [from_monomial(c, params.sigma_a()) for c in REFERENCE_POLYS]
    for x in (0.0, 1.0, -0.7, 3.0):
        for n in range(9):
            for f in funcs:
                gap = exact_mean(f, params, n, x) - reference_mean(f, params, n, x)
                scale = reference_mean(f, params, n, x, absolute=True)
                assert abs(gap) <= 1e-12 * scale, (x, n)
            for m in range(9):
                for f in funcs:
                    for g in funcs:
                        got = exact_cross_moment(f, g, params, n, m, x)
                        if n < m:
                            swapped = exact_cross_moment(g, f, params, m, n, x)
                            assert got.hex() == swapped.hex()
                            continue
                        want = reference_cross_moment(f, g, params, n, m, x)
                        if abs(got - want) <= 1e-13 * abs(want):
                            continue  # the absolute scale is never below |want|
                        scale = reference_cross_moment(f, g, params, n, m, x, absolute=True)
                        assert abs(got - want) <= 1e-12 * scale, (x, n, m)


@pytest.mark.parametrize("moment", [
    lambda f, g, params: exact_mean(f, params, 2, 1.0),
    lambda f, g, params: exact_second_moment(f, params, 2, 1.0),
    lambda f, g, params: exact_cross_moment(f, g, params, 2, 1, 1.0),
    lambda f, g, params: exact_cross_moment(g, f, params, 2, 1, 1.0),
], ids=["exact_mean", "exact_second_moment", "cross_f", "cross_g"])
def test_exact_moments_reject_a_function_off_the_stationary_scale(moment):
    # x^2 expanded at sigma_a = 1 while BarParams(0.5) has sigma_a = 1.1547:
    # the closed forms used to read its coefficients at the wrong scale and
    # return 4.0 for a mean the enumeration puts at 5.25.
    params = BarParams(0.5, 1.0)
    off = from_monomial([0.0, 0.0, 1.0], 1.0)
    on = from_monomial([0.0, 0.0, 1.0], params.sigma_a())
    with pytest.raises(ConfigError, match="stationary scale"):
        moment(off, on, params)
    assert exact_mean(on, params, 2, 1.0) == pytest.approx(5.25, rel=1e-14)
    assert exact_second_moment(on, params, 2, 1.0) == pytest.approx(42.0625, rel=1e-14)
    assert exact_cross_moment(on, on, params, 2, 1, 1.0) == pytest.approx(16.125, rel=1e-14)
    assert enumerated_mean(off, params, 2, 1.0) == pytest.approx(5.25, rel=1e-14)
    assert enumerated_cross_moment(off, off, params, 2, 1, 1.0) == pytest.approx(
        16.125, rel=1e-14)


def test_pair_depths_follow_common_ancestor_depth():
    for n in range(ENUM_DEPTH_MAX + 1):
        for m in range(ENUM_DEPTH_MAX + 1):
            want = [common_ancestor_depth(n, i, m, j)
                    for i in range(1 << n) for j in range(1 << m)]
            assert list(_pair_depths(n, m)) == want


def test_pair_depth_cache_stays_bounded():
    # Depths past the cap are rejected before the cache is read, so it holds
    # at most one tuple per (n, m) with n, m <= ENUM_DEPTH_MAX.
    params = BarParams(0.5)
    f = identity(params.sigma_a())
    for n in range(ENUM_DEPTH_MAX + 3):
        for m in range(ENUM_DEPTH_MAX + 3):
            if max(n, m) > ENUM_DEPTH_MAX:
                with pytest.raises(ResourceCapError):
                    enumerated_cross_moment(f, f, params, n, m, 0.0)
            else:
                enumerated_cross_moment(f, f, params, n, m, 0.0)
    assert _pair_depths.cache_info().currsize <= (ENUM_DEPTH_MAX + 1) ** 2


def test_monte_carlo_agreement():
    params = BarParams(0.5)
    sig = params.sigma_a()
    f = from_monomial([0.0, 0.0, 1.0], sig)
    g = identity(sig)
    n, rows = 6, 4000
    keys = derive_keys(seed_key(77), np.arange(rows))
    sums = generation_sums([(params, [f, g])], InitialLaw.dirac(1.0), n, keys)[0]
    mf = sums[:, n, 0]
    mg4 = sums[:, 4, 1]

    want = exact_mean(f, params, n, 1.0)
    se = mf.std(ddof=1) / math.sqrt(rows)
    assert abs(mf.mean() - want) < 4 * se

    sq = mf**2
    want = exact_second_moment(f, params, n, 1.0)
    se = sq.std(ddof=1) / math.sqrt(rows)
    assert abs(sq.mean() - want) < 4 * se

    prod = mf * mg4
    want = exact_cross_moment(f, g, params, n, 4, 1.0)
    se = prod.std(ddof=1) / math.sqrt(rows)
    assert abs(prod.mean() - want) < 4 * se


def test_guards():
    params = BarParams(0.5)
    f = identity(params.sigma_a())
    with pytest.raises(ResourceCapError):
        enumerated_mean(f, params, 5, 0.0)
    with pytest.raises(ResourceCapError):
        enumerated_cross_moment(f, f, params, 5, 2, 0.0)


@pytest.mark.parametrize("moment", [exact_mean, exact_second_moment,
                                    enumerated_mean, enumerated_second_moment])
def test_moments_that_overflow_are_rejected(moment):
    # (1e120)^3 overflows: the closed forms would return inf and nan with numpy
    # warnings, and the enumeration would raise a bare OverflowError.
    params = BarParams(0.5)
    f = from_monomial([0.0, 0.0, 0.0, 1.0], params.sigma_a())
    with pytest.raises(ComputationRejected, match="overflows"):
        moment(f, params, 2, 1e120)
    assert math.isfinite(moment(f, params, 2, 1e30))


def test_enumeration_rejects_an_integrand_that_overflows_both_ways():
    # f(X_u) g(X_v) is +inf at some quadrature nodes and -inf at others: the
    # per-depth sum is rejected like the moment, not left to fsum's ValueError.
    params = BarParams(0.5)
    f = SpectralFn(params.sigma_a(), np.array([0.0, 0.0, 0.0, 1e307]))
    g = SpectralFn(params.sigma_a(), np.array([0.0, 1e307]))
    with pytest.raises(ComputationRejected, match="overflows"):
        enumerated_cross_moment(f, g, params, 2, 2, 0.0)


@pytest.mark.parametrize("moment", [
    lambda f, params, n: exact_mean(f, params, n, 0.0),
    lambda f, params, n: exact_second_moment(f, params, n, 0.0),
    lambda f, params, n: exact_cross_moment(f, f, params, n, 3, 0.0),
], ids=["exact_mean", "exact_second_moment", "exact_cross_moment"])
def test_moments_past_the_largest_power_of_two_are_rejected(moment):
    # 2.0**1100 overflows before any kernel value is formed; the depth-1023
    # mean of the constant 1 is 2^1023, the largest power of two a double holds.
    params = BarParams(0.5)
    one = constant(1.0, params.sigma_a())
    with pytest.raises(ComputationRejected, match="overflows"):
        moment(one, params, 1100)
    assert exact_mean(one, params, 1023, 0.0) == 2.0**1023
