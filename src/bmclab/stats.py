"""Small statistical helpers shared by the experiment drivers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as sps

from .errors import ComputationRejected


@dataclass(frozen=True)
class SampleMoments:
    """First four sample moments: mean, variance, skewness, excess kurtosis.

    A constant sample reports zero variance, skewness and kurtosis, though
    its mean may round, so that degenerate statistics stay finite.
    """

    mean: float
    variance: float
    skewness: float
    kurtosis: float


def sample_moments(sample) -> SampleMoments:
    """Moments of a sample; ComputationRejected when one is not finite.

    Skewness and kurtosis are scale-free, so a sample whose largest
    magnitude lies outside 2^-100..2^100 is scaled by an exact power of two
    to below 1 first, where its fourth powers cannot overflow or underflow.
    """
    sample = np.asarray(sample, dtype=np.float64)
    mean = float(sample.mean())
    variance = float(sample.var(ddof=1)) if np.ptp(sample) > 0.0 else 0.0
    skewness = kurtosis = 0.0
    if variance != 0.0:
        exponent = int(np.frexp(np.max(np.abs(sample)))[1])
        if abs(exponent) > 100:
            sample = np.ldexp(sample, -exponent)
        skewness, kurtosis = float(sps.skew(sample)), float(sps.kurtosis(sample))
    if not all(map(math.isfinite, (mean, variance, skewness, kurtosis))):
        raise ComputationRejected("the sample moments are not finite in double precision")
    return SampleMoments(mean, variance, skewness, kurtosis)


def ks_normal_distance(sample, mean: float = 0.0, std: float = 1.0) -> float:
    """One-sample Kolmogorov-Smirnov distance to N(mean, std^2)."""
    if not std > 0.0:
        raise ValueError("ks_normal_distance needs std > 0")
    return float(sps.kstest(sample, "norm", args=(mean, std)).statistic)


def ks_threshold(count: int) -> float:
    """Asymptotic 5%-level critical value for the one-sample KS distance."""
    return 1.36 / math.sqrt(count)


def fit_line(x, y) -> tuple[float, float, float]:
    """Least-squares line fit; returns (slope, stderr_of_slope, intercept)."""
    result = sps.linregress(np.asarray(x, dtype=np.float64),
                            np.asarray(y, dtype=np.float64))
    return float(result.slope), float(result.stderr), float(result.intercept)
