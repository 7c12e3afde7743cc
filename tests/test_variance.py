"""Tests for the limit variance series and the additive martingale."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmclab.errors import ConfigError, RegimeError
from bmclab.experiments import (ExperimentConfig, martingale_path, replicate,
                                supercritical_study)
from bmclab.kernels import CRITICAL, SUBCRITICAL, BarParams
from bmclab.rng import derive_keys, seed_key
from bmclab.spectral import SpectralFn, from_monomial, project_linear
from bmclab.treesim import InitialLaw, generation_sums
from bmclab.variance import limit_variance
from oracles import constant, identity, offset_sums, pair_count_variance

A_CRIT = 1.0 / math.sqrt(2.0)


def _mode_weights(coeffs, a):
    """Per-degree factors n! c_n^2 (1 - a^(2n)) / (1 - 2 a^(2n)) for n >= 1."""
    out = []
    for n in range(1, len(coeffs)):
        a2n = a ** (2 * n)
        out.append(math.factorial(n) * coeffs[n] ** 2 * (1.0 - a2n) / (1.0 - 2.0 * a2n))
    return out


def test_single_identity_closed_form():
    params = BarParams(0.5)
    report = limit_variance(identity(params.sigma_a()), params)
    assert report.value == pytest.approx(2.0, abs=1e-10)
    assert report.sigma1 == pytest.approx(2.0, abs=1e-10)
    assert report.sigma2 == 0.0
    assert report.regime == SUBCRITICAL

    params = BarParams(0.3, sigma=1.7)
    report = limit_variance(identity(params.sigma_a()), params)
    assert report.value == pytest.approx(1.7**2 / (1.0 - 2.0 * 0.09), rel=1e-10)


def test_tree_identity_closed_form():
    params = BarParams(0.5)
    report = limit_variance(identity(params.sigma_a()), params, tree=True)
    assert report.sigma1 == pytest.approx(4.0, abs=1e-9)
    assert report.sigma2 == pytest.approx(4.0, abs=1e-9)
    assert report.value == pytest.approx(12.0, abs=1e-9)


def test_single_coefficient_oracle():
    a = 0.55
    params = BarParams(a)
    rng = np.random.default_rng(21)
    coeffs = rng.normal(size=6)
    f = SpectralFn(params.sigma_a(), coeffs)
    report = limit_variance(f, params)
    assert report.value == pytest.approx(math.fsum(_mode_weights(coeffs, a)), rel=1e-9)


def test_tree_coefficient_oracle():
    a = 0.45
    params = BarParams(a)
    rng = np.random.default_rng(22)
    coeffs = rng.normal(size=5)
    f = SpectralFn(params.sigma_a(), coeffs)
    report = limit_variance(f, params, tree=True)
    weights = _mode_weights(coeffs, a)
    sigma1 = 2.0 * math.fsum(weights)
    sigma2 = 2.0 * math.fsum(
        w * a**n / (1.0 - a**n) for n, w in enumerate(weights, start=1))
    assert report.sigma1 == pytest.approx(sigma1, rel=1e-8)
    assert report.sigma2 == pytest.approx(sigma2, rel=1e-8)
    assert report.value == pytest.approx(sigma1 + 2.0 * sigma2, rel=1e-8)
    assert report.sigma1 == 2.0 * limit_variance(f, params).sigma1


def test_offset_sums_oracle():
    a = 0.5
    params = BarParams(a)
    rng = np.random.default_rng(23)
    c0 = rng.normal(size=4)
    c1 = rng.normal(size=3)

    def bracket(ch, cl, gap):
        total = 0.0
        for n in range(1, min(len(ch), len(cl))):
            a2n = a ** (2 * n)
            total += (math.factorial(n) * ch[n] * cl[n] * a ** (n * gap)
                      * (1.0 - a2n) / (1.0 - 2.0 * a2n))
        return total

    # The oracle against a hand sum over two offsets.
    sigma1, sigma2 = offset_sums([c0, c1], a)
    assert sigma1 == pytest.approx(bracket(c0, c0, 0) + 0.5 * bracket(c1, c1, 0),
                                   rel=1e-10)
    assert sigma2 == pytest.approx(bracket(c1, c0, 1), rel=1e-10)

    # The generation sum is offset 0 alone; the tree sum repeats f at every
    # offset, and 120 offsets leave a tail far below rounding.
    f = SpectralFn(params.sigma_a(), c0)
    single = limit_variance(f, params)
    assert (single.sigma1, single.sigma2) == pytest.approx(offset_sums([c0], a),
                                                           rel=1e-12)
    tree = limit_variance(f, params, tree=True)
    sigma1, sigma2 = offset_sums([c0] * 120, a)
    assert tree.sigma1 == pytest.approx(sigma1, rel=1e-10)
    assert tree.sigma2 == pytest.approx(sigma2, rel=1e-10, abs=1e-10 * sigma1)
    assert tree.value == pytest.approx(sigma1 + 2.0 * sigma2, rel=1e-10)

    # At the critical slope only degree one counts: x, x^2 and x at offsets
    # 0, 1 and 2 give sigma1 = 1 + 1/4 and sigma2 = 1/2.
    params = BarParams(A_CRIT)
    x = identity(params.sigma_a())
    even = from_monomial([0.0, 0.0, 1.0], params.sigma_a())
    sigma1, sigma2 = offset_sums([x.coeffs, even.coeffs, x.coeffs], A_CRIT)
    assert sigma1 == pytest.approx(1.25, rel=1e-12)
    assert sigma2 == pytest.approx(0.5, rel=1e-12)


def test_constant_functions_give_zero():
    params = BarParams(0.4)
    flat = constant(2.5, params.sigma_a())
    report = limit_variance(flat, params, tree=True)
    assert report.value == report.sigma1 == report.sigma2 == 0.0

    params = BarParams(A_CRIT)
    report = limit_variance(constant(1.0, params.sigma_a()), params)
    assert report.value == 0.0


def test_critical_closed_forms():
    params = BarParams(A_CRIT)
    sig = params.sigma_a()
    f = identity(sig)

    report = limit_variance(f, params)
    assert report.value == pytest.approx(1.0, rel=1e-12)
    assert report.sigma2 == 0.0

    report = limit_variance(f, params, tree=True)
    assert report.sigma1 == pytest.approx(2.0, abs=1e-9)
    assert report.sigma2 == pytest.approx(2.0 + 2.0 * math.sqrt(2.0), abs=1e-9)
    assert report.value == pytest.approx(6.0 + 4.0 * math.sqrt(2.0), abs=1e-9)
    assert report.regime == CRITICAL

    even = from_monomial([0.0, 0.0, 1.0], sig)
    assert limit_variance(even, params, tree=True).value == 0.0


# Degree-one coefficients away from the subnormal range, where the two
# multiplication orders round differently by more than a few ulps.
_COEFF = st.floats(-10.0, 10.0).filter(lambda c: c == 0.0 or abs(c) >= 1e-6)


@settings(derandomize=True, database=None, deadline=None)
@given(a=st.sampled_from([A_CRIT, 2.0**-0.5, -(2.0**-0.5)]),
       coeffs=st.lists(_COEFF, min_size=1, max_size=4), tree=st.booleans())
def test_critical_matches_offset_sums(a, coeffs, tree):
    params = BarParams(a)
    f = SpectralFn(params.sigma_a(), coeffs)
    report = limit_variance(f, params, tree)
    # The tree sum repeats f at every offset; past 120 offsets the tail is
    # below 2^-60 of sigma1.
    sigma1, sigma2 = offset_sums([f.coeffs] * (120 if tree else 1), a)
    rel = 1e-10 if tree else 1e-12
    tol = {"rel": rel, "abs": rel * sigma1}
    assert report.regime == CRITICAL
    assert report.sigma1 == pytest.approx(sigma1, **tol)
    assert report.sigma2 == pytest.approx(sigma2, **tol)
    assert report.value == pytest.approx(sigma1 + 2.0 * sigma2, **tol)


@pytest.mark.parametrize("a", [0.5, -0.5, A_CRIT, -A_CRIT])
@pytest.mark.parametrize("tree", [False, True])
@pytest.mark.parametrize("poly", [[0.0, 1.0], [0.3, 1.0, 0.5, 0.2]])
def test_limit_matches_pair_counts(a, tree, poly):
    # The finite-depth variance approaches its limit as c/n at the critical
    # slope and geometrically below it; 2 V(2n) - V(n) cancels the c/n.
    params = BarParams(a)
    f = from_monomial(poly, params.sigma_a())
    extrapolated = (2.0 * pair_count_variance(f, a, 80, tree)
                    - pair_count_variance(f, a, 40, tree))
    assert limit_variance(f, params, tree).value == pytest.approx(extrapolated, rel=1e-6)


def test_quadratic_scaling():
    params = BarParams(0.6)
    sig = params.sigma_a()
    f = from_monomial([0.3, 1.0, 0.2], sig)
    tripled = from_monomial([0.9, 3.0, 0.6], sig)
    base = limit_variance(f, params, tree=True)
    scaled = limit_variance(tripled, params, tree=True)
    assert scaled.value == pytest.approx(9.0 * base.value, rel=1e-9)

    params = BarParams(A_CRIT)
    f = from_monomial([0.0, 1.0, 0.4], params.sigma_a())
    tripled = from_monomial([0.0, 3.0, 1.2], params.sigma_a())
    base = limit_variance(f, params, tree=True)
    scaled = limit_variance(tripled, params, tree=True)
    assert scaled.value == pytest.approx(9.0 * base.value, rel=1e-9)


SERIES_POLYS = {
    "x": [0.0, 1.0],
    "x^2": [0.0, 0.0, 1.0],
    "x^3": [0.0, 0.0, 0.0, 1.0],
    "0.3+x+0.2x^2": [0.3, 1.0, 0.2],
    "x+0.5x^2+0.2x^3": [0.0, 1.0, 0.5, 0.2],
}

# Values of the truncated three-level series (tolerance 1e-10) that bmclab
# 0.1.0 summed before the closed forms replaced it, at every grid point
# where that series was finite.
TRUNCATED_SERIES = {
    ("single", 0.3, "x"): 1.2195121951211374,
    ("single", 0.3, "x^2"): 2.4350522419231972,
    ("single", 0.3, "x^3"): 21.221869292543428,
    ("single", 0.3, "0.3+x+0.2x^2"): 1.3169142847980795,
    ("single", 0.3, "x+0.5x^2+0.2x^3"): 4.285297976913764,
    ("single", 0.5, "x"): 1.9999999999975753,
    ("single", 0.5, "x^2"): 3.8095238095233497,
    ("single", 0.5, "x^3"): 46.45161290322464,
    ("single", 0.5, "0.3+x+0.2x^2"): 2.1523809523785276,
    ("single", 0.5, "x+0.5x^2+0.2x^3"): 8.010445468508026,
    ("single", 0.6, "x"): 3.5714285714256766,
    ("single", 0.6, "x^2"): 5.737041036715462,
    ("single", 0.6, "x^3"): 102.53972720337082,
    ("single", 0.6, "0.3+x+0.2x^2"): 3.800910212895169,
    ("single", 0.6, "x+0.5x^2+0.2x^3"): 15.803706490169205,
    ("single", -0.4, "x"): 1.4705882352929538,
    ("single", -0.4, "x^2"): 2.91094515377802,
    ("single", -0.4, "x^3"): 28.922406544083483,
    ("single", -0.4, "0.3+x+0.2x^2"): 1.587026041444082,
    ("single", -0.4, "x+0.5x^2+0.2x^3"): 5.456061121635428,
    ("single", 0.55, "x"): 2.531645569617278,
    ("single", 0.55, "x^2"): 4.571388209842879,
    ("single", 0.55, "x^3"): 65.03313883472825,
    ("single", 0.55, "0.3+x+0.2x^2"): 2.7145010980121977,
    ("single", 0.55, "x+0.5x^2+0.2x^3"): 10.631337435029797,
    ("tree", 0.3, "x"): 4.529616724690616,
    ("tree", 0.3, "x^2"): 5.833421854251932,
    ("tree", 0.3, "x^3"): 66.0492368452571,
    ("tree", 0.3, "0.3+x+0.2x^2"): 4.762953598860903,
    ("tree", 0.3, "x+0.5x^2+0.2x^3"): 14.6030626177788,
    ("tree", 0.5, "x"): 11.999999999949072,
    ("tree", 0.5, "x^2"): 12.69841269836466,
    ("tree", 0.5, "x^3"): 229.16129032254602,
    ("tree", 0.5, "0.3+x+0.2x^2"): 12.507936507884654,
    ("tree", 0.5, "x+0.5x^2+0.2x^3"): 43.541054787463054,
    ("tree", 0.6, "x"): 28.57142857137661,
    ("tree", 0.6, "x^2"): 24.382424406003587,
    ("tree", 0.6, "x^3"): 702.4437528990578,
    ("tree", 0.6, "0.3+x+0.2x^2"): 29.546725547629755,
    ("tree", 0.6, "x+0.5x^2+0.2x^3"): 116.33621336028922,
    ("tree", -0.4, "x"): 1.2605042016729828,
    ("tree", -0.4, "x^2"): 8.039753281828421,
    ("tree", -0.4, "x^3"): 33.961975723095364,
    ("tree", -0.4, "0.3+x+0.2x^2"): 1.582094332945402,
    ("tree", -0.4, "x+0.5x^2+0.2x^3"): 6.429641839183561,
    ("tree", 0.55, "x"): 17.44022503511721,
    ("tree", 0.55, "x^2"): 17.073069944973476,
    ("tree", 0.55, "x^3"): 373.55936718222836,
    ("tree", 0.55, "0.3+x+0.2x^2"): 18.123147832919383,
    ("tree", 0.55, "x+0.5x^2+0.2x^3"): 66.6555554411993,
}


@pytest.mark.parametrize("shape,a,poly", sorted(TRUNCATED_SERIES))
def test_matches_truncated_series_pins(shape, a, poly):
    params = BarParams(a)
    f = from_monomial(SERIES_POLYS[poly], params.sigma_a())
    got = limit_variance(f, params, shape == "tree").value
    assert got == pytest.approx(TRUNCATED_SERIES[shape, a, poly], rel=1e-9)


@settings(derandomize=True, database=None, deadline=None)
@given(a=st.floats(-0.7, 0.7) | st.sampled_from([A_CRIT, -A_CRIT]),
       coeffs=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=7),
       tree=st.booleans())
def test_closed_form_finite_and_nonnegative(a, coeffs, tree):
    params = BarParams(a)
    report = limit_variance(SpectralFn(params.sigma_a(), coeffs), params, tree)
    assert math.isfinite(report.value)
    # Below zero slope the tree's odd degrees have negative cross terms, so
    # the rounding error scales with the diagonal sum.
    assert report.value >= -1e-12 * max(1.0, report.sigma1)


def test_nonnegative_on_random_sequences():
    # The tree sum as 120 offsets of one random function, at slopes of both
    # signs: below zero its odd degrees have negative cross terms.
    rng = np.random.default_rng(8)
    for a in (0.55, -0.55):
        params = BarParams(a)
        for _ in range(5):
            f = SpectralFn(params.sigma_a(), rng.normal(size=rng.integers(2, 5)))
            sigma1, sigma2 = offset_sums([f.coeffs] * 120, a)
            report = limit_variance(f, params, tree=True)
            assert report.value == pytest.approx(sigma1 + 2.0 * sigma2, rel=1e-10,
                                                 abs=1e-10 * sigma1)
            assert report.value >= -1e-12
            assert limit_variance(f, params).value >= -1e-12


def test_regime_guards():
    for a in (0.71, -0.8, 0.99):
        params = BarParams(a)
        f = identity(params.sigma_a())
        for tree in (False, True):
            with pytest.raises(RegimeError):
                limit_variance(f, params, tree)
    params = BarParams(0.5)
    f = identity(params.sigma_a())
    with pytest.raises(RegimeError):
        supercritical_study(ExperimentConfig(params, InitialLaw.dirac(0.0),
                                             f, 3, 2, 0))
    zero_slope = BarParams(0.0)
    with pytest.raises(RegimeError):
        martingale_path(identity(zero_slope.sigma_a()), zero_slope,
                        InitialLaw.dirac(0.0), 3, 0)


def test_limit_variance_rejects_mismatched_scale():
    # x^2 expanded at twice sigma_a gave 60.95 at a = 0.5 instead of 80/21.
    params = BarParams(0.5)
    f = from_monomial([0.0, 0.0, 1.0], params.sigma_a())
    wrong = from_monomial([0.0, 0.0, 1.0], 2.0 * params.sigma_a())
    assert limit_variance(f, params).value == pytest.approx(80 / 21)
    for tree in (False, True):
        with pytest.raises(ConfigError, match="functional scale"):
            limit_variance(wrong, params, tree)


def test_martingale_path_rejects_mismatched_scale():
    params = BarParams(0.85)
    wrong = from_monomial([0.0, 1.0], 2.0 * params.sigma_a())
    with pytest.raises(ConfigError, match="functional scale"):
        martingale_path(wrong, params, InitialLaw.dirac(1.0), 4, 0)


def test_limit_variance_matches_simulation():
    n, rows = 12, 3000
    for a in (0.3, 0.5, 0.6):
        params = BarParams(a)
        f = from_monomial([0.0, 0.5, 1.0], params.sigma_a())
        series = limit_variance(f, params).value
        cfg = ExperimentConfig(params, InitialLaw.stationary(), f, n, rows, 4)
        values = replicate(cfg)
        emp = values.var(ddof=1)
        centered = values - values.mean()
        se = math.sqrt(max(np.mean(centered**4) - emp**2, 0.0) / rows)
        assert abs(emp - series) < 4.0 * se


def test_martingale_path_properties():
    a, n, rows = 0.85, 8, 2000
    params = BarParams(a)
    f = from_monomial([0.0, 1.0, 0.3], params.sigma_a())
    lin = project_linear(f)
    keys = derive_keys(seed_key(55), np.arange(rows))
    sums = generation_sums([(params, [lin])], InitialLaw.dirac(1.0), n, keys)[0]
    scales = (2.0 * a) ** (-np.arange(n + 1))
    paths = sums[:, :, 0] * scales

    path0 = martingale_path(f, params, InitialLaw.dirac(1.0), n, 55)
    assert np.allclose(path0, paths[0], rtol=1e-12)

    for g in (2, 5, 8):
        se = paths[:, g].std(ddof=1) / math.sqrt(rows)
        assert abs(paths[:, g].mean() - 1.0) < 4.0 * se
    early = np.abs(paths[:, 3] - paths[:, 2]).mean()
    late = np.abs(paths[:, n] - paths[:, n - 1]).mean()
    assert late < early


def test_supercritical_ratio():
    a, n, rows = 0.85, 10, 400
    params = BarParams(a)
    f = from_monomial([0.2, 1.0, 0.1], params.sigma_a())
    res = supercritical_study(ExperimentConfig(
        params, InitialLaw.stationary(), f, n, rows, 91))
    assert res.flags == ()
    want = 2.0 * a / (2.0 * a - 1.0)
    assert abs(res.ratio_median - want) < 0.1
