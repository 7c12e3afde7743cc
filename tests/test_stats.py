"""Tests for the shared statistical helpers."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtri

import bmclab
from bmclab.stats import (_shape_moments, fit_line, ks_normal_distance, ks_threshold,
                          sample_moments)

_EXTREME_SCALES = (2.0**400, 1e110, 1e150, 1e-160, 2.0**-500)


def test_sample_moments_pinned():
    m = sample_moments([1.0, 2.0, 3.0, 4.0])
    assert m.mean == pytest.approx(2.5)
    assert m.variance == pytest.approx(5.0 / 3.0)
    assert m.skewness == pytest.approx(0.0, abs=1e-14)
    assert m.kurtosis == pytest.approx(2.5625 / 1.5625 - 3.0, rel=1e-12)


def test_sample_moments_degenerate():
    m = sample_moments(np.full(10, 7.0))
    assert (m.mean, m.variance, m.skewness, m.kurtosis) == (7.0, 0.0, 0.0, 0.0)
    m = sample_moments([3.0])
    assert (m.variance, m.skewness, m.kurtosis) == (0.0, 0.0, 0.0)
    # The mean of three 0.1s rounds, which once left a variance of 3e-34
    # and a NaN skewness.
    m = sample_moments(np.full(3, 0.1))
    assert (m.variance, m.skewness, m.kurtosis) == (0.0, 0.0, 0.0)


def test_sample_moments_scale_free_at_extreme_magnitudes():
    # Third and fourth powers of 1e110 or 1e-160 overflow or underflow;
    # skewness and kurtosis must still match the unit-scale sample.
    x = np.array([0.3, -1.2, 0.7, 2.1, -0.4, 0.05])
    unit = sample_moments(x)
    for scale in _EXTREME_SCALES:
        m = sample_moments(x * scale)
        assert m.skewness == pytest.approx(unit.skewness, rel=1e-13)
        assert m.kurtosis == pytest.approx(unit.kurtosis, rel=1e-13)
    # Inside 2^-100..2^100 the sample is used as given.
    m = sample_moments(x * 1e20)
    assert (m.skewness, m.kurtosis) == (sps.skew(x * 1e20), sps.kurtosis(x * 1e20))


def test_ks_distance_on_exact_quantiles():
    grid = ndtri((np.arange(1000) + 0.5) / 1000.0)
    assert ks_normal_distance(grid) == pytest.approx(0.0005, abs=1e-12)
    shifted = 2.0 + 0.5 * grid
    assert ks_normal_distance(shifted, mean=2.0, std=0.5) == pytest.approx(
        0.0005, abs=1e-12)
    assert ks_normal_distance(shifted) > 0.5
    with pytest.raises(ValueError):
        ks_normal_distance(grid, std=0.0)


def test_ks_threshold():
    assert ks_threshold(400) == pytest.approx(0.068)
    assert ks_threshold(100) == pytest.approx(0.136)


def test_fit_line_exact():
    x = np.arange(8.0)
    slope, stderr = fit_line(x, 3.0 * x - 2.0)
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)


def _same_bits(got, want) -> bool:
    """Equal as doubles, bit for bit, or both NaN."""
    got, want = float(got), float(want)
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return np.float64(got).tobytes() == np.float64(want).tobytes()


def _oracle_samples():
    """Seeded samples for the scipy.stats comparisons: sizes 2, 3 and 5000,
    ties, a constant sample whose mean rounds, spreads that cancel against
    the mean, and random sizes at scales from 1e-5 to 1e5."""
    rng = np.random.default_rng(20261018)
    x = rng.standard_normal(5000)
    yield from (x[:2], x[:3], x, np.round(x[:300], 1), np.full(7, 0.1))
    # Here m2**2.0, a scalar pow as in scipy.stats, and m2*m2 differ in the
    # last bit of the kurtosis.
    yield np.random.default_rng(114).standard_normal(8)
    yield 1e17 + 16.0 * np.array([0.0, 1.0, 1.0, 2.0])
    yield 1e17 + rng.standard_normal(50)
    for _ in range(200):
        size = int(rng.integers(2, 60))
        scale = 10.0 ** rng.uniform(-5.0, 5.0)
        yield scale * (rng.standard_normal(size) + rng.uniform(-3.0, 3.0))


def _quietly(fn, *args, **kwargs):
    """scipy.stats warns of the cancellation its moments return NaN for."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kwargs)


def test_helpers_match_scipy_stats_bit_for_bit():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the helpers themselves never warn
        for x in _oracle_samples():
            skew, kurt = _shape_moments(x)
            assert _same_bits(skew, _quietly(sps.skew, x)), x
            assert _same_bits(kurt, _quietly(sps.kurtosis, x)), x
            for mean, std in ((0.0, 1.0), (float(x[0]), float(np.ptp(x)) or 1.0)):
                want = sps.kstest(x, "norm", args=(mean, std)).statistic
                assert _same_bits(ks_normal_distance(x, mean, std), want), x
            grid = np.log(np.arange(2.0, len(x) + 2))
            pairs = [(grid, x)] + ([(x, grid)] if np.ptp(x) > 0.0 else [])
            for u, v in pairs:
                want = _quietly(sps.linregress, u, v)
                slope, stderr = fit_line(u, v)
                assert _same_bits(slope, want.slope), (u, v)
                assert _same_bits(stderr, want.stderr), (u, v)


def test_cancelling_and_constant_samples():
    # Both scipy.stats and the helper call a spread below eps*|mean| NaN;
    # sample_moments keeps the finite variance, and a constant sample zero.
    x = 1e17 + 16.0 * np.array([0.0, 1.0, 1.0, 2.0])
    m = sample_moments(x)
    assert m.variance > 0.0 and math.isnan(m.skewness) and math.isnan(m.kurtosis)
    assert all(map(math.isnan, _shape_moments(np.full(7, 0.1))))
    assert sample_moments(np.full(7, 0.1)).skewness == 0.0


def test_rescaled_moments_match_scipy_on_the_scaled_sample():
    x = np.random.default_rng(7).standard_normal(40)
    for scale in _EXTREME_SCALES:
        sample = x * scale
        exponent = int(np.frexp(np.max(np.abs(sample)))[1])
        scaled = np.ldexp(sample, -exponent)
        m = sample_moments(sample)
        assert _same_bits(m.skewness, sps.skew(scaled))
        assert _same_bits(m.kurtosis, sps.kurtosis(scaled))


def test_cli_import_leaves_scipy_stats_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(bmclab.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, bmclab.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path}, check=True)
    assert out.stdout.strip() == "[]"
