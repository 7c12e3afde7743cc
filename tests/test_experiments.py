"""Tests for the experiment drivers."""

from __future__ import annotations

import math

import numpy as np
import pytest

import bmclab.experiments as experiments
from bmclab.errors import ComputationRejected, ConfigError, RegimeError, ResourceCapError
from bmclab.experiments import (
    SLOPE_RUNS_MAX,
    ExperimentConfig,
    _fit_loglog,
    clt_study,
    h1,
    h2,
    slope_study,
    slope_summary,
    supercritical_study,
)
from bmclab.kernels import CRITICAL, SUBCRITICAL, BarParams
from bmclab.spectral import constant, from_monomial, identity
from bmclab.treesim import FunctionalSeq, InitialLaw

A_CRIT = 1.0 / math.sqrt(2.0)


def _single_config(a, poly, n, replicas, seed, nu=None, sigma=1.0):
    params = BarParams.symmetric_params(a, sigma)
    f = from_monomial(poly, params.sigma_a())
    return ExperimentConfig(
        params=params,
        nu=nu if nu is not None else InitialLaw.stationary(),
        fseq=FunctionalSeq.single(f),
        n=n,
        replicas=replicas,
        master_seed=seed,
    )


def test_h_exponents():
    assert h1(0.5) == pytest.approx(-1.0)
    assert h1(A_CRIT) == pytest.approx(-1.0)
    assert h2(2.0 ** -0.25) == pytest.approx(-1.0)
    assert h2(0.8) == pytest.approx(-1.0)
    assert h1(0.9) == pytest.approx(math.log2(0.81), rel=1e-12)
    assert h2(0.9) == pytest.approx(math.log2(0.9**4), rel=1e-12)
    for bad in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ConfigError):
            h1(bad)
        with pytest.raises(ConfigError):
            h2(bad)


def test_config_validation():
    params = BarParams.symmetric_params(0.5)
    f = identity(params.sigma_a())
    fseq = FunctionalSeq.single(f)
    nu = InitialLaw.stationary()
    with pytest.raises(ConfigError):
        ExperimentConfig(params, nu, fseq, n=10, replicas=1, master_seed=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(params, nu, fseq, n=2, replicas=10, master_seed=0)


def test_fit_loglog_recovers_exponent():
    sizes = 2.0 ** np.arange(5, 13)
    variances = 3.0 * sizes**-0.7
    slope, stderr = _fit_loglog(sizes, variances)
    assert slope == pytest.approx(-0.7, abs=1e-10)
    assert stderr == pytest.approx(0.0, abs=1e-10)


def test_clt_study_subcritical():
    cfg = _single_config(0.5, [0.0, 1.0], n=10, replicas=2000, seed=12)
    res = clt_study(cfg)
    assert res.regime == SUBCRITICAL
    assert res.series_variance == pytest.approx(2.0, abs=1e-9)
    assert abs(res.empirical_variance - 2.0) < 0.25
    assert res.ks_distance < res.ks_threshold
    assert res.ks_threshold == pytest.approx(1.36 / math.sqrt(2000))
    assert abs(res.moments.mean) < 0.13
    assert abs(res.moments.skewness) < 0.2
    assert abs(res.moments.kurtosis) < 0.35
    assert res.flags == ()
    assert len(res.values) == 2000


def test_clt_study_critical():
    cfg = _single_config(A_CRIT, [0.0, 1.0], n=10, replicas=2000, seed=13,
                         nu=InitialLaw.dirac(0.0))
    res = clt_study(cfg)
    assert res.regime == CRITICAL
    assert res.series_variance == pytest.approx(1.0, rel=1e-12)
    assert abs(res.empirical_variance - 1.0) < 0.13
    assert res.ks_distance < res.ks_threshold


def test_clt_study_constant_function():
    params = BarParams.symmetric_params(0.5)
    cfg = ExperimentConfig(
        params=params,
        nu=InitialLaw.stationary(),
        fseq=FunctionalSeq.single(constant(4.0, params.sigma_a())),
        n=6,
        replicas=100,
        master_seed=0,
    )
    res = clt_study(cfg)
    assert res.empirical_variance == 0.0
    assert res.series_variance == 0.0
    assert math.isnan(res.ks_distance)
    assert "ks-skipped:point-mass" in res.flags
    m = res.moments
    assert (m.mean, m.variance, m.skewness, m.kurtosis) == (0.0, 0.0, 0.0, 0.0)


def test_clt_study_rejects_supercritical(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the regime was checked")

    monkeypatch.setattr(experiments, "replicate", no_simulation)
    cfg = _single_config(0.85, [0.0, 1.0], n=8, replicas=100, seed=0)
    with pytest.raises(RegimeError):
        clt_study(cfg)


def test_supercritical_study():
    a = 0.85
    cfg = _single_config(a, [0.0, 1.0, 0.2], n=10, replicas=300, seed=17)
    res = supercritical_study(cfg)
    want = 2.0 * a / (2.0 * a - 1.0)
    assert abs(res.ratio_median - want) < 0.1
    assert len(res.martingale_l1_diffs) == 10
    assert res.martingale_l1_diffs[-1] < res.martingale_l1_diffs[2]

    sub = _single_config(0.5, [0.0, 1.0], n=8, replicas=50, seed=0)
    with pytest.raises(RegimeError):
        supercritical_study(sub)

    params = BarParams.symmetric_params(a)
    f = identity(params.sigma_a())
    custom = ExperimentConfig(params, InitialLaw.stationary(),
                              FunctionalSeq.custom([f, f]), 8, 50, 0)
    with pytest.raises(ConfigError):
        supercritical_study(custom)

    # A constant f centers to zero, so no replica has a defined ratio.
    flat = _single_config(a, [1.0], n=4, replicas=5, seed=0)
    with pytest.raises(ComputationRejected):
        supercritical_study(flat)


def test_slope_study_locates_exponents():
    results = slope_study([0.3, 0.9], [0.0, 1.0], n_max=10, replicas=300,
                          master_seed=3)
    by_alpha = {res.alpha: res for res in results}
    assert abs(by_alpha[0.3].slope - h1(0.3)) < 0.15
    assert abs(by_alpha[0.9].slope - h1(0.9)) < 0.15
    for res in results:
        assert res.flags == ()
        assert res.stderr >= 0.0
        assert res.h1 == h1(res.alpha)
        assert res.h2 == h2(res.alpha)
        assert (res.n_min, res.n_max, res.outer_repeat) == (5, 10, 0)


def test_slope_study_target_consistency():
    shared = dict(n_max=10, replicas=200, master_seed=9)
    g_res = slope_study([0.4], [0.0, 1.0], target="Gn", **shared)[0]
    t_res = slope_study([0.4], [0.0, 1.0], target="Tn", **shared)[0]
    bound = 2.0 * (g_res.stderr + t_res.stderr)
    assert abs(g_res.slope - t_res.slope) <= bound


def test_slope_study_outer_repeats_and_summary():
    results = slope_study([0.5], [0.0, 1.0], n_max=9, replicas=100,
                          outer_repeats=3, master_seed=4)
    assert [res.outer_repeat for res in results] == [0, 1, 2]
    slopes = [res.slope for res in results]
    assert len(set(slopes)) == 3
    summaries = slope_summary(results)
    assert len(summaries) == 1
    summary = summaries[0]
    assert summary.outer_repeats == 3
    assert min(slopes) <= summary.mean_slope <= max(slopes)
    assert summary.sd_slope > 0.0
    assert summary.h1 == h1(0.5)


def test_slope_grid_shares_trees_across_alphas():
    # Outer repeat k draws its normals from master.split(k) whatever the
    # grid, so each alpha's rows are the rows of that alpha run alone; rows
    # stay alpha-major.
    alphas = [0.3, 0.6, 0.8]
    shared = dict(n_max=9, replicas=40, outer_repeats=2, master_seed=12, target="Tn")
    grid = slope_study(alphas, [0.0, 1.0, 0.5], **shared)
    assert [(res.alpha, res.outer_repeat) for res in grid] == [
        (alpha, k) for alpha in alphas for k in range(2)]
    for i, alpha in enumerate(alphas):
        assert grid[2 * i:2 * i + 2] == slope_study([alpha], [0.0, 1.0, 0.5], **shared)


def test_slope_study_degenerate_points():
    results = slope_study([0.5], [5.0], n_max=9, replicas=50, master_seed=0)
    res = results[0]
    assert math.isnan(res.slope)
    assert "insufficient-points" in res.flags
    assert any(flag.startswith("degenerate-variance:") for flag in res.flags)


def test_slope_study_validation():
    with pytest.raises(ConfigError):
        slope_study([1.2], [0.0, 1.0], n_max=10, replicas=50)
    with pytest.raises(ConfigError):
        slope_study([0.5], [0.0, 1.0], n_max=7, n_min=5, replicas=50)
    with pytest.raises(ConfigError):
        slope_study([0.5], [0.0, 1.0], n_max=10, replicas=1)
    with pytest.raises(ConfigError):
        slope_study([0.5], [0.0, 1.0], n_max=10, replicas=50, target="An")
    with pytest.raises(ConfigError):
        slope_study([0.5], [0.0, 1.0], n_max=10, replicas=50, outer_repeats=0)
    # A negative depth would index the deepest generations from the end.
    for n_min in (-1, -3, -40):
        with pytest.raises(ConfigError, match="n_min"):
            slope_study([0.5], [0.0, 1.0], n_max=5, n_min=n_min, replicas=10)


def test_slope_study_caps_runs_before_simulating(monkeypatch):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the run cap was checked")

    monkeypatch.setattr(experiments, "generation_sums", no_simulation)
    with pytest.raises(ResourceCapError, match="cap"):
        slope_study([0.5], [0.0, 1.0], n_max=8, replicas=4, outer_repeats=10**6)
    with pytest.raises(ResourceCapError, match="cap"):
        slope_study([0.5, 0.6], [0.0, 1.0], n_max=8, replicas=4,
                    outer_repeats=SLOPE_RUNS_MAX // 2 + 1)


def test_thread_count_does_not_change_results():
    cfg = _single_config(0.5, [0.0, 1.0], n=8, replicas=64, seed=21)
    assert np.array_equal(clt_study(cfg).values, clt_study(cfg, threads=4).values)
    one = slope_study([0.6], [0.0, 1.0], n_max=9, replicas=64, master_seed=2)
    four = slope_study([0.6], [0.0, 1.0], n_max=9, replicas=64, master_seed=2,
                       threads=4)
    assert one[0].slope == four[0].slope
