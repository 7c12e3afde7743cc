"""Experiment drivers: limit-law verification and the slope phase transition.

replicate samples the regime-normalized fluctuation statistic; clt_study
compares its empirical law with the Gaussian limit of the variance series.
supercritical_study tracks the rescaled statistics and the additive
martingale above the critical slope, and martingale_path follows that
martingale along one tree.  slope_study regresses log-variance of
the averaged statistic against log of the population size over a grid of
slopes, reproducing the phase transition in the decay exponent.

All drivers derive their randomness from the key of a master seed through
per-replica (and, for slope_study, per-outer-repeat) key splits, so results are
reproducible and independent of chunking or thread count.  slope_study
simulates every grid slope on the same trees' normals (common random
numbers): each slope's estimate keeps its law, and estimates at different
slopes are correlated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationRejected, ConfigError, RegimeError, ResourceCapError
from .kernels import SUBCRITICAL, SUPERCRITICAL, BarParams, classify_regime
from .rng import derive_keys, seed_key
from .spectral import SpectralFn, center, check_scale, from_monomial, project_linear
from .stats import SampleMoments, fit_line, ks_normal_distance, ks_threshold, sample_moments
from .treesim import InitialLaw, generation_sums, keys_for_replicas
from .variance import limit_variance

DEFAULT_N_MIN = 5
DEFAULT_OUTER_REPEATS = 20
SLOPE_RUNS_MAX = 1 << 16  # grid slopes x outer repeats, one lane of a batch each


@dataclass(frozen=True)
class ExperimentConfig:
    """A reproducible experiment: kernel, initial law, test function, sizes,
    and the sum taken: over the deepest generation, or the whole tree."""

    params: BarParams
    nu: InitialLaw
    f: SpectralFn
    n: int
    replicas: int
    master_seed: int
    tree: bool = False

    def __post_init__(self) -> None:
        if self.replicas < 2:
            raise ConfigError("variance estimation needs at least 2 replicas")
        if self.n < 3:
            raise ConfigError("experiments need depth n >= 3")
        check_scale(self.f, self.params.sigma_a())


@dataclass(frozen=True)
class CltResult:
    """Outcome of one limit-law run at a fixed depth."""

    n: int
    regime: str
    empirical_variance: float
    series_variance: float
    ks_distance: float
    ks_threshold: float
    moments: SampleMoments
    flags: tuple[str, ...]
    values: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SupercriticalResult:
    """Outcome of one supercritical run at a fixed depth."""

    ratio_median: float
    ratio_limit: float
    martingale_l1_diffs: np.ndarray
    flags: tuple[str, ...]


@dataclass(frozen=True)
class SlopeResult:
    """The regressions of log-variance on log population size at one grid
    slope, one per outer repetition, with the mean and spread of the slopes
    that are defined (NaN when none is, 0 when one is)."""

    alpha: float
    slopes: tuple[float, ...]
    stderrs: tuple[float, ...]
    flags: tuple[tuple[str, ...], ...]
    mean_slope: float
    sd_slope: float


def h1(alpha: float) -> float:
    """Decay exponent of the averaged statistic for degree-one functions."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError("h1 needs 0 < alpha < 1")
    return math.log2(max(alpha**2, 0.5))


def h2(alpha: float) -> float:
    """Decay exponent of the averaged statistic for degree-two functions."""
    if not 0.0 < alpha < 1.0:
        raise ConfigError("h2 needs 0 < alpha < 1")
    return math.log2(max(alpha**4, 0.5))


def replicate(cfg: ExperimentConfig, threads: int = 1) -> np.ndarray:
    """Per-replica values of the regime-normalized fluctuation statistic.

    It sums the centered f over the deepest generation, or over the whole
    tree if cfg.tree.  Replica r is simulated from the key of (master_seed,
    r), so the output is ordered by replica index and is a pure function of
    the configuration.  A statistic that overflows raises ComputationRejected.
    """
    keys = keys_for_replicas(seed_key(cfg.master_seed), cfg.replicas, cfg.n, 1)
    sums = generation_sums([(cfg.params, [center(cfg.f)])], cfg.nu, cfg.n, keys,
                           threads=threads)[0, :, :, 0]
    values = _normalized(sums, cfg.params.a, cfg.tree)
    if not np.all(np.isfinite(values)):
        raise ComputationRejected("the fluctuation statistic overflows double precision")
    return values


@np.errstate(over="ignore", invalid="ignore")
def _normalized(sums: np.ndarray, a: float, tree: bool) -> np.ndarray:
    """Deepest generation sum, or all n+1 added deepest-first to a zero start if
    tree, over a's regime scale: one order, so every driver gets the same bits."""
    n = sums.shape[1] - 1
    raw = np.zeros(len(sums))
    for g in range(n, -1, -1) if tree else [n]:
        raw += sums[:, g]
    regime = classify_regime(a)
    if regime == SUPERCRITICAL:
        return raw / (2.0 * a) ** n
    return raw / math.sqrt((1 if regime == SUBCRITICAL else n) * 2.0**n)


@np.errstate(over="ignore", invalid="ignore")
def _martingale_paths(sums: np.ndarray, a: float) -> np.ndarray:
    """Generation-g sums times (2a)^(-g), non-finite if a power overflows.
    The powers are Python's scalar ones, not numpy's vectorized ones: the two
    can differ in the last bit, and martingale.csv is written from these."""
    try:
        scales = np.array([(2.0 * a) ** (-g) for g in range(sums.shape[-1])])
    except OverflowError:
        scales = math.inf
    return sums * scales


def clt_study(cfg: ExperimentConfig, threads: int = 1) -> CltResult:
    """Replicate the normalized statistic and compare with its Gaussian limit.

    The statistic is normalized over the deepest generation; the limit
    variance comes from the variance series for the configured regime.  The
    Kolmogorov-Smirnov distance is measured against N(0, series_variance)
    and skipped with a flag when that limit is a point mass; skewness and
    kurtosis are NaN, and flagged, when the sample's spread cancels against
    its mean.
    """
    series = limit_variance(cfg.f, cfg.params, cfg.tree)
    values = replicate(cfg, threads=threads)
    moments = sample_moments(values)
    flags: list[str] = []
    if series.value > 0.0:
        ks = ks_normal_distance(values, 0.0, math.sqrt(series.value))
    else:
        ks = math.nan
        flags.append("ks-skipped:point-mass")
    if math.isnan(moments.skewness):
        flags.append("moments-skipped:cancellation")
    return CltResult(
        n=cfg.n,
        regime=series.regime,
        empirical_variance=moments.variance,
        series_variance=series.value,
        ks_distance=ks,
        ks_threshold=ks_threshold(cfg.replicas),
        moments=moments,
        flags=tuple(flags),
        values=values,
    )


def supercritical_study(cfg: ExperimentConfig, threads: int = 1) -> SupercriticalResult:
    """Track the rescaled statistics and the additive martingale.

    Reports the median over replicas of the whole-tree to deepest-generation
    ratio of replicate's statistic, the limit 2a/(2a-1) of that ratio, and
    the mean absolute martingale increment at each depth.  Replicas whose
    deepest-generation statistic is zero are left out of the median and
    flagged; when none is left, the ratio is undefined and ComputationRejected
    is raised, as it is when a statistic, the ratio or an increment
    overflows.  Both sums are taken, so cfg.tree is not read.
    """
    a = cfg.params.a
    if classify_regime(a) != SUPERCRITICAL:
        raise RegimeError(f"the supercritical study needs 2 a^2 > 1, got a={a}")
    keys = keys_for_replicas(seed_key(cfg.master_seed), cfg.replicas, cfg.n, 2)
    sums = generation_sums([(cfg.params, [center(cfg.f), project_linear(cfg.f)])],
                           cfg.nu, cfg.n, keys, threads=threads)[0]
    gen_stat, tree_stat = (_normalized(sums[:, :, 0], a, tree) for tree in (False, True))
    usable = gen_stat != 0.0
    flags = [] if np.all(usable) else [f"ratio-excluded:{int(np.sum(~usable))}"]
    if not np.any(usable):
        raise ComputationRejected(
            "every replica's deepest-generation statistic is zero, so the "
            "ratio is undefined")
    with np.errstate(over="ignore", invalid="ignore"):
        ratio_median = float(np.median(tree_stat[usable] / gen_stat[usable]))
        l1_diffs = np.abs(np.diff(_martingale_paths(sums[:, :, 1], a), axis=1)).mean(axis=0)
    if not (np.all(np.isfinite(gen_stat)) and np.all(np.isfinite(tree_stat))
            and math.isfinite(ratio_median) and np.all(np.isfinite(l1_diffs))):
        raise ComputationRejected("the supercritical statistics overflow double precision")
    return SupercriticalResult(
        ratio_median=ratio_median,
        ratio_limit=2.0 * a / (2.0 * a - 1.0),
        martingale_l1_diffs=l1_diffs,
        flags=tuple(flags),
    )


def martingale_path(f: SpectralFn, params: BarParams, nu: InitialLaw, n: int,
                    master_seed: int) -> np.ndarray:
    """Values of (2a)^(-g) times the generation-g sum of the linear part of f.

    The tree is replica 0 of the master seed, the same tree the other
    drivers simulate first; one tree is one chunk, so there is no thread
    count.  For a nonzero slope this sequence is a martingale in g; above
    the critical slope it converges and its limit drives the supercritical
    fluctuations.
    """
    check_scale(f, params.sigma_a())
    a = params.a
    if a == 0.0:
        raise RegimeError("the additive martingale needs a nonzero slope")
    keys = keys_for_replicas(seed_key(master_seed), 1, n, 1)
    sums = generation_sums([(params, [project_linear(f)])], nu, n, keys)[0]
    path = _martingale_paths(sums[0, :, 0], a)
    if not np.all(np.isfinite(path)):
        raise ComputationRejected("the martingale path overflows double precision")
    return path


def slope_study(alphas, f, n_max: int, replicas: int, tree: bool = False,
                n_min: int = DEFAULT_N_MIN, outer_repeats: int = 1,
                master_seed: int = 0, sigma: float = 1.0,
                nu: InitialLaw = InitialLaw.stationary(),
                threads: int = 1) -> list[SlopeResult]:
    """Fit the variance decay exponent of the averaged statistic per slope.

    Each outer repetition k simulates `replicas` trees to depth n_max from
    the keys below the key of (master_seed, k), with every grid slope alpha
    as one lane over the same normals.  Per slope it computes across
    replicas the variance of the size-averaged sum of f over the deepest
    generation, or over the whole tree if tree, at every depth in
    [n_min, n_max], and regresses log-variance on log-size.  f is a monomial
    coefficient vector rescaled per alpha.  Depths with zero or overflowing
    variance are flagged and omitted from the regression.  Returns one
    SlopeResult per grid slope, in grid order.
    """
    alphas = [float(alpha) for alpha in alphas]
    if not alphas:
        raise ConfigError("the slope grid alphas needs at least one slope")
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"grid slopes must lie in (0, 1), got {alpha}")
    if n_min < 0:
        raise ConfigError(f"n_min must be nonnegative, got {n_min}")
    if n_max < n_min + 3:
        raise ConfigError(f"need n_max >= n_min + 3, got [{n_min}, {n_max}]")
    if replicas < 2:
        raise ConfigError("variance estimation needs at least 2 replicas")
    if outer_repeats < 1:
        raise ConfigError("outer_repeats must be positive")
    if len(alphas) * outer_repeats > SLOPE_RUNS_MAX:
        raise ResourceCapError(f"{len(alphas)} x {outer_repeats} slope runs exceed "
                               f"the cap of {SLOPE_RUNS_MAX:,}")

    outer_keys = derive_keys(seed_key(master_seed), np.arange(outer_repeats))
    lanes = []
    for alpha in alphas:
        params = BarParams(alpha, sigma)
        lanes.append((params, [from_monomial(f, params.sigma_a())]))
    fits: list[list[tuple[float, float, tuple[str, ...]]]] = [[] for _ in alphas]
    for outer_key in outer_keys:
        keys = keys_for_replicas(int(outer_key), replicas, n_max, len(lanes))
        sums = generation_sums(lanes, nu, n_max, keys, threads=threads)
        for i, per_repeat in enumerate(fits):
            per_repeat.append(_fit_slope(sums[i, :, :, 0], n_min, n_max, tree))
    results = []
    for alpha, per_repeat in zip(alphas, fits):
        slopes, stderrs, flags = zip(*per_repeat)
        defined = np.array([s for s in slopes if not math.isnan(s)])
        if len(defined) == 0:
            mean = sd = math.nan
        else:
            mean = float(defined.mean())
            sd = float(defined.std(ddof=1)) if len(defined) > 1 else 0.0
        results.append(SlopeResult(alpha, slopes, stderrs, flags, mean, sd))
    return results


@np.errstate(over="ignore", invalid="ignore")
def _fit_slope(sums: np.ndarray, n_min: int, n_max: int,
               tree: bool) -> tuple[float, float, tuple[str, ...]]:
    """Slope, stderr and flags of one regression from the (replicas,
    n_max+1) generation sums of f."""
    populations = np.cumsum(sums, axis=1) if tree else sums
    flags: list[str] = []
    sizes: list[float] = []
    variances: list[float] = []
    for n in range(n_min, n_max + 1):
        size = 2.0 ** (n + 1) - 1.0 if tree else 2.0**n
        var = float((populations[:, n] / size).var(ddof=1))
        if not 0.0 < var < math.inf:
            flags.append(f"degenerate-variance:n={n}")
            continue
        sizes.append(size)
        variances.append(var)
    if len(sizes) < 2:
        flags.append("insufficient-points")
        return math.nan, math.nan, tuple(flags)
    slope, stderr = fit_line(np.log(sizes), np.log(variances))
    return slope, stderr, tuple(flags)
