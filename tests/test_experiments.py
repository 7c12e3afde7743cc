"""Tests for the experiment drivers."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import bmclab.experiments as experiments
from bmclab.errors import ComputationRejected, ConfigError, RegimeError, ResourceCapError
from bmclab.experiments import (
    SLOPE_RUNS_MAX,
    ExperimentConfig,
    _fit_slope,
    clt_study,
    h1,
    h2,
    martingale_path,
    replicate,
    slope_study,
    supercritical_study,
)
from bmclab.kernels import CRITICAL, SUBCRITICAL, BarParams
from bmclab.rng import derive_keys, seed_key
from bmclab.spectral import from_monomial, project_linear
from bmclab.treesim import InitialLaw, generation_sums
from oracles import constant, identity

A_CRIT = 1.0 / math.sqrt(2.0)


def _single_config(a, poly, n, replicas, seed, nu=None, sigma=1.0):
    params = BarParams(a, sigma)
    f = from_monomial(poly, params.sigma_a())
    return ExperimentConfig(
        params=params,
        nu=nu if nu is not None else InitialLaw.stationary(),
        f=f,
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
    params = BarParams(0.5)
    f = identity(params.sigma_a())
    nu = InitialLaw.stationary()
    with pytest.raises(ConfigError):
        ExperimentConfig(params, nu, f, n=10, replicas=1, master_seed=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(params, nu, f, n=2, replicas=10, master_seed=0)


def test_fit_loglog_recovers_exponent():
    # Two replicas at +-c per depth have a size-averaged variance of 2 c^2,
    # here 3 size^-0.7.
    depths = np.arange(13)
    sizes = 2.0**depths
    sums = np.outer([1.0, -1.0], sizes * np.sqrt(1.5 * sizes**-0.7))
    slope, stderr, flags = _fit_slope(sums, 5, 12, False)
    assert slope == pytest.approx(-0.7, abs=1e-10)
    assert stderr == pytest.approx(0.0, abs=1e-10)
    assert flags == ()
    # The whole tree's sums are the differences of its totals.  Those round,
    # and the stderr is the square root of the rounding in 1 - r^2.
    sizes = 2.0 ** (depths + 1) - 1.0
    totals = np.outer([1.0, -1.0], sizes * np.sqrt(1.5 * sizes**-0.7))
    slope, stderr, flags = _fit_slope(np.diff(totals, prepend=0.0), 5, 12, True)
    assert slope == pytest.approx(-0.7, abs=1e-10)
    assert stderr == pytest.approx(0.0, abs=1e-7)
    assert flags == ()


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
    params = BarParams(0.5)
    cfg = ExperimentConfig(
        params=params,
        nu=InitialLaw.stationary(),
        f=constant(4.0, params.sigma_a()),
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


def test_config_rejects_every_mismatched_function():
    # The config checks the function's stationary scale, so neither
    # replicate, clt_study nor supercritical_study ever sees a mismatch.
    for a in (0.5, A_CRIT, 0.85):
        params = BarParams(a)
        wrong = from_monomial([0.0, 1.0, 0.3], 2.0 * params.sigma_a())
        for tree in (False, True):
            with pytest.raises(ConfigError, match="functional scale"):
                ExperimentConfig(params, InitialLaw.stationary(), wrong, 6, 50, 0, tree)


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

    # A constant f centers to zero, so no replica has a defined ratio.
    flat = _single_config(a, [1.0], n=4, replicas=5, seed=0)
    with pytest.raises(ComputationRejected):
        supercritical_study(flat)


# Supercritical runs on which two arithmetics for one number differ in the
# last bit: slopes of both signs, a stationary and an off-centre dirac root,
# and a cubic f at sigma = 1.3, so every He degree up to 3 is present.
_SUPER_GRID = [(a, seed, nu) for a in (0.75, 0.85, -0.9, 0.95) for seed in range(5)
               for nu in (InitialLaw.stationary(), InitialLaw.dirac(0.5))]


def _super_config(a, seed, nu):
    return _single_config(a, [0.3, 1.0, 0.5, 0.2], n=8, replicas=40, seed=seed,
                          nu=nu, sigma=1.3)


def test_supercritical_ratio_is_the_ratio_of_replicates_statistics():
    # ratio_median is the median of replicate's tree statistic over its
    # generation statistic, over replicas whose generation statistic is
    # nonzero, bit for bit: both drivers take one normalized statistic.
    misses = []
    for a, seed, nu in _SUPER_GRID:
        cfg = _super_config(a, seed, nu)
        single = replicate(cfg)
        tree = replicate(replace(cfg, tree=True))
        usable = single != 0.0
        want = float(np.median(tree[usable] / single[usable]))
        if supercritical_study(cfg).ratio_median != want:
            misses.append((a, seed, nu.kind))
    assert misses == [], f"{len(misses)} of {len(_SUPER_GRID)}: {misses}"


def test_martingale_increments_and_path_take_the_scalar_powers():
    # Each replica's martingale path is its linear-part generation sums times
    # Python's scalar (2a)^(-g).  supercritical_study's mean absolute
    # increments and martingale_path, which follows replica 0, are that path
    # bit for bit: both drivers take one martingale scaling.
    misses = []
    for a, seed, nu in _SUPER_GRID:
        cfg = _super_config(a, seed, nu)
        keys = derive_keys(seed_key(seed), np.arange(cfg.replicas))
        sums = generation_sums([(cfg.params, [project_linear(cfg.f)])], nu, cfg.n,
                               keys)[0, :, :, 0]
        paths = sums * np.array([(2.0 * a) ** (-g) for g in range(cfg.n + 1)])
        l1_diffs = np.abs(np.diff(paths, axis=1)).mean(axis=0)
        if not np.array_equal(supercritical_study(cfg).martingale_l1_diffs, l1_diffs):
            misses.append(("increments", a, seed, nu.kind))
        if not np.array_equal(martingale_path(cfg.f, cfg.params, nu, cfg.n, seed),
                              paths[0]):
            misses.append(("path", a, seed, nu.kind))
    assert misses == [], f"{len(misses)} of {2 * len(_SUPER_GRID)}: {misses}"


def test_slope_study_locates_exponents():
    results = slope_study([0.3, 0.9], [0.0, 1.0], n_max=10, replicas=300,
                          master_seed=3)
    assert [res.alpha for res in results] == [0.3, 0.9]
    for res in results:
        assert abs(res.slopes[0] - h1(res.alpha)) < 0.15
        assert res.flags == ((),)
        assert res.stderrs[0] >= 0.0
        assert (res.mean_slope, res.sd_slope) == (res.slopes[0], 0.0)


def test_slope_study_target_consistency():
    shared = dict(n_max=10, replicas=200, master_seed=9)
    g_res = slope_study([0.4], [0.0, 1.0], tree=False, **shared)[0]
    t_res = slope_study([0.4], [0.0, 1.0], tree=True, **shared)[0]
    bound = 2.0 * (g_res.stderrs[0] + t_res.stderrs[0])
    assert abs(g_res.slopes[0] - t_res.slopes[0]) <= bound


def test_slope_study_outer_repeats_and_summary():
    results = slope_study([0.5], [0.0, 1.0], n_max=9, replicas=100,
                          outer_repeats=3, master_seed=4)
    assert len(results) == 1
    res = results[0]
    assert len(res.slopes) == len(res.stderrs) == len(res.flags) == 3
    assert len(set(res.slopes)) == 3
    assert min(res.slopes) <= res.mean_slope <= max(res.slopes)
    assert res.sd_slope > 0.0
    assert res.mean_slope == float(np.mean(res.slopes))
    assert res.sd_slope == float(np.std(res.slopes, ddof=1))


def test_slope_grid_shares_trees_across_alphas():
    # Outer repeat k draws its normals from master.split(k) whatever the
    # grid, so each alpha's record is the record of that alpha run alone;
    # records stay in grid order, a repeated slope included.
    alphas = [0.3, 0.6, 0.8, 0.6]
    shared = dict(n_max=9, replicas=40, outer_repeats=2, master_seed=12, tree=True)
    grid = slope_study(alphas, [0.0, 1.0, 0.5], **shared)
    assert [res.alpha for res in grid] == alphas
    for res, alpha in zip(grid, alphas):
        assert len(res.slopes) == 2
        assert [res] == slope_study([alpha], [0.0, 1.0, 0.5], **shared)


def test_slope_study_degenerate_points():
    results = slope_study([0.5], [5.0], n_max=9, replicas=50, master_seed=0)
    res = results[0]
    assert math.isnan(res.slopes[0])
    assert math.isnan(res.mean_slope) and math.isnan(res.sd_slope)
    assert "insufficient-points" in res.flags[0]
    assert any(flag.startswith("degenerate-variance:") for flag in res.flags[0])


def test_slope_study_validation():
    with pytest.raises(ConfigError):
        slope_study([1.2], [0.0, 1.0], n_max=10, replicas=50)
    with pytest.raises(ConfigError):
        slope_study([0.5], [0.0, 1.0], n_max=7, n_min=5, replicas=50)
    with pytest.raises(ConfigError):
        slope_study([0.5], [0.0, 1.0], n_max=10, replicas=1)
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
    assert one == four
