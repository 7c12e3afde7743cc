"""Tests for the shared statistical helpers."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtri

from bmclab.stats import fit_line, ks_normal_distance, ks_threshold, sample_moments


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
    for scale in (2.0**400, 1e110, 1e150, 1e-160, 2.0**-500):
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
    slope, stderr, intercept = fit_line(x, 3.0 * x - 2.0)
    assert slope == pytest.approx(3.0, abs=1e-12)
    assert intercept == pytest.approx(-2.0, abs=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)
