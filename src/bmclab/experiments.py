"""Experiment drivers: limit-law verification and the slope phase transition.

clt_study replicates the regime-normalized fluctuation statistic and compares
its empirical law with the Gaussian limit predicted by the variance series.
supercritical_study tracks the rescaled statistics and the additive
martingale above the critical slope, and martingale_path follows that
martingale along one tree.  slope_study regresses log-variance of
the averaged statistic against log of the population size over a grid of
slopes, reproducing the phase transition in the decay exponent.

All drivers derive their randomness from a master seed through per-replica
(and, for slope_study, per-outer-repeat) stream splits, so results are
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
from .kernels import SUPERCRITICAL, BarParams, classify_regime
from .rng import RandomStream
from .spectral import SpectralFn, center, from_monomial, project_linear
from .stats import SampleMoments, fit_line, ks_normal_distance, ks_threshold, sample_moments
from .treesim import (FunctionalSeq, InitialLaw, generation_sums, keys_for_replicas,
                      replicate)
from .variance import limit_variance

DEFAULT_N_MIN = 5
DEFAULT_OUTER_REPEATS = 20
SLOPE_RUNS_MAX = 1 << 16  # grid slopes x outer repeats, one lane of a batch each


@dataclass(frozen=True)
class ExperimentConfig:
    """A reproducible experiment: kernel, initial law, functions, and sizes."""

    params: BarParams
    nu: InitialLaw
    fseq: FunctionalSeq
    n: int
    replicas: int
    master_seed: int

    def __post_init__(self) -> None:
        if self.replicas < 2:
            raise ConfigError("variance estimation needs at least 2 replicas")
        if self.n < 3:
            raise ConfigError("experiments need depth n >= 3")


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
    martingale_l1_diffs: np.ndarray
    flags: tuple[str, ...]


@dataclass(frozen=True)
class SlopeResult:
    """One regression of log-variance against log population size."""

    alpha: float
    n_min: int
    n_max: int
    slope: float
    stderr: float
    replicas: int
    target: str
    outer_repeat: int
    h1: float
    h2: float
    flags: tuple[str, ...]


@dataclass(frozen=True)
class SlopeSummary:
    """Mean and spread of the fitted slope over outer repetitions."""

    alpha: float
    target: str
    mean_slope: float
    sd_slope: float
    outer_repeats: int
    h1: float
    h2: float


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


def clt_study(cfg: ExperimentConfig, threads: int = 1) -> CltResult:
    """Replicate the normalized statistic and compare with its Gaussian limit.

    The statistic is normalized over the deepest generation; the limit
    variance comes from the variance series for the configured regime.  The
    Kolmogorov-Smirnov distance is measured against N(0, series_variance)
    and skipped with a flag when that limit is a point mass; skewness and
    kurtosis are NaN, and flagged, when the sample's spread cancels against
    its mean.
    """
    series = limit_variance(cfg.fseq, cfg.params)
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
    ratio of the (2a)^(-n)-rescaled centered sums, and the mean absolute
    martingale increment at each depth.  Replicas whose deepest-generation
    statistic is zero are left out of the median and flagged; when none is
    left, the ratio is undefined and ComputationRejected is raised.
    """
    a = cfg.params.a
    if classify_regime(a) != SUPERCRITICAL:
        raise RegimeError(f"the supercritical study needs 2 a^2 > 1, got a={a}")
    if cfg.fseq.shape == "custom":
        raise ConfigError("the supercritical study takes a single test function")
    f = cfg.fseq.funcs[0]

    keys = keys_for_replicas(RandomStream.from_seed(cfg.master_seed), cfg.replicas,
                             cfg.n, 2)
    sums = generation_sums([(cfg.params, [center(f), project_linear(f)])], cfg.nu,
                           cfg.n, keys, threads=threads)[0]

    flags: list[str] = []
    scale = (2.0 * a) ** (-cfg.n)
    gen_stat = scale * sums[:, cfg.n, 0]
    tree_stat = scale * sums[:, :, 0].sum(axis=1)
    usable = gen_stat != 0.0
    if not np.all(usable):
        flags.append(f"ratio-excluded:{int(np.sum(~usable))}")
    if not np.any(usable):
        raise ComputationRejected(
            "every replica's deepest-generation statistic is zero, so the "
            "ratio is undefined")
    ratio_median = float(np.median(tree_stat[usable] / gen_stat[usable]))

    paths = sums[:, :, 1] * (2.0 * a) ** (-np.arange(cfg.n + 1))
    l1_diffs = np.abs(np.diff(paths, axis=1)).mean(axis=0)
    return SupercriticalResult(
        ratio_median=ratio_median,
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
    a = params.a
    if a == 0.0:
        raise RegimeError("the additive martingale needs a nonzero slope")
    keys = keys_for_replicas(RandomStream.from_seed(master_seed), 1, n, 1)
    sums = generation_sums([(params, [project_linear(f)])], nu, n, keys)[0]
    # Python's scalar power, not numpy's vectorized one: the two can differ
    # in the last bit, and these values are written to martingale.csv.
    try:
        path = np.array([(2.0 * a) ** (-g) * float(sum_g)
                         for g, sum_g in enumerate(sums[0, :, 0])])
    except OverflowError:
        path = np.array([math.inf])
    if not np.all(np.isfinite(path)):
        raise ComputationRejected("the martingale path overflows double precision")
    return path


def _fit_loglog(sizes, variances) -> tuple[float, float]:
    """Slope and stderr of log(variance) regressed on log(size)."""
    xs = np.log(np.asarray(sizes, dtype=np.float64))
    ys = np.log(np.asarray(variances, dtype=np.float64))
    slope, stderr, _ = fit_line(xs, ys)
    return slope, stderr


def slope_study(alphas, f, n_max: int, replicas: int, target: str = "Gn",
                n_min: int = DEFAULT_N_MIN, outer_repeats: int = 1,
                master_seed: int = 0, sigma: float = 1.0,
                nu: InitialLaw = InitialLaw.stationary(),
                threads: int = 1) -> list[SlopeResult]:
    """Fit the variance decay exponent of the averaged statistic per slope.

    Each outer repetition k simulates `replicas` trees to depth n_max from
    the keys below master.split(k), with every grid slope alpha as one lane
    over the same normals.  Per slope it computes across replicas the
    variance of the size-averaged sum of f over the target population at
    every depth in [n_min, n_max], and regresses log-variance on log-size.
    f is a monomial coefficient vector rescaled per alpha.  Depths with zero
    or overflowing variance are flagged and omitted from the regression.
    Results are ordered by alpha, then by outer repetition.
    """
    alphas = [float(alpha) for alpha in alphas]
    for alpha in alphas:
        if not 0.0 < alpha < 1.0:
            raise ConfigError(f"grid slopes must lie in (0, 1), got {alpha}")
    if n_min < 0:
        raise ConfigError(f"n_min must be nonnegative, got {n_min}")
    if n_max < n_min + 3:
        raise ConfigError(f"need n_max >= n_min + 3, got [{n_min}, {n_max}]")
    if replicas < 2:
        raise ConfigError("variance estimation needs at least 2 replicas")
    if target not in ("Gn", "Tn"):
        raise ConfigError(f"unknown target {target!r}")
    if outer_repeats < 1:
        raise ConfigError("outer_repeats must be positive")
    if len(alphas) * outer_repeats > SLOPE_RUNS_MAX:
        raise ResourceCapError(f"{len(alphas)} x {outer_repeats} slope runs exceed "
                               f"the cap of {SLOPE_RUNS_MAX:,}")

    master = RandomStream.from_seed(master_seed)
    lanes = []
    for alpha in alphas:
        params = BarParams(alpha, sigma)
        lanes.append((params, [from_monomial(f, params.sigma_a())]))
    runs: list[list[SlopeResult]] = [[] for _ in alphas]
    for outer in range(outer_repeats):
        keys = keys_for_replicas(master.split(outer), replicas, n_max, len(lanes))
        sums = generation_sums(lanes, nu, n_max, keys, threads=threads)
        for i, alpha in enumerate(alphas):
            runs[i].append(_fit_slope(alpha, sums[i, :, :, 0], n_min, n_max, target,
                                      outer))
    return [res for per_alpha in runs for res in per_alpha]


@np.errstate(over="ignore", invalid="ignore")
def _fit_slope(alpha: float, sums: np.ndarray, n_min: int, n_max: int,
               target: str, outer: int) -> SlopeResult:
    """One regression from the (replicas, n_max+1) generation sums of f."""
    totals = np.cumsum(sums, axis=1)
    flags: list[str] = []
    sizes: list[float] = []
    variances: list[float] = []
    for n in range(n_min, n_max + 1):
        if target == "Gn":
            size = 2.0**n
            raw = sums[:, n]
        else:
            size = 2.0 ** (n + 1) - 1.0
            raw = totals[:, n]
        var = float((raw / size).var(ddof=1))
        if not 0.0 < var < math.inf:
            flags.append(f"degenerate-variance:n={n}")
            continue
        sizes.append(size)
        variances.append(var)
    if len(sizes) < 2:
        flags.append("insufficient-points")
        slope, stderr = math.nan, math.nan
    else:
        slope, stderr = _fit_loglog(sizes, variances)
    return SlopeResult(
        alpha=alpha,
        n_min=n_min,
        n_max=n_max,
        slope=slope,
        stderr=stderr,
        replicas=len(sums),
        target=target,
        outer_repeat=outer,
        h1=h1(alpha),
        h2=h2(alpha),
        flags=tuple(flags),
    )


def slope_summary(results) -> list[SlopeSummary]:
    """Mean and standard deviation of the slope per grid point.

    Groups SlopeResults by (alpha, target) preserving first-seen order;
    repeats with an undefined slope are dropped from the aggregation.
    """
    groups: dict[tuple[float, str], list[SlopeResult]] = {}
    for res in results:
        groups.setdefault((res.alpha, res.target), []).append(res)
    out = []
    for (alpha, target), group in groups.items():
        slopes = np.array([g.slope for g in group if not math.isnan(g.slope)])
        if len(slopes) == 0:
            mean = sd = math.nan
        else:
            mean = float(slopes.mean())
            sd = float(slopes.std(ddof=1)) if len(slopes) > 1 else 0.0
        out.append(SlopeSummary(
            alpha=alpha,
            target=target,
            mean_slope=mean,
            sd_slope=sd,
            outer_repeats=len(group),
            h1=group[0].h1,
            h2=group[0].h2,
        ))
    return out
