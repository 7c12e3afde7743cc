"""Small statistical helpers shared by the experiment drivers.

Each helper repeats the arithmetic of the scipy.stats function it stands
for (scipy 1.17) step for step, so its values are scipy's bit for bit; the
tests keep scipy.stats as their oracle.  Importing scipy.stats would cost
every command about 0.8 s of CPU and 46 MB, and these need only numpy and
scipy.special.ndtr.
- Skewness and kurtosis follow `skew` and `kurtosis` (biased, Fisher): means
  of d^2, d^2*d and (d^2)^2 for d = x - mean, and NaN when m2 <= (eps*mean)^2,
  where the centered values cancelled.
- `ks_normal_distance` follows `kstest(x, "norm", args=(mean, std))`: the
  larger of D+ and D- on ndtr((sorted x - mean)/std), without the p-value.
- `fit_line` follows `linregress` on the biased `np.cov(x, y, bias=1)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ComputationRejected


@dataclass(frozen=True)
class SampleMoments:
    """First four sample moments: mean, variance, skewness, excess kurtosis.

    A constant sample reports zero variance, skewness and kurtosis, though
    its mean may round, so that degenerate statistics stay finite.  When the
    spread cancels against the mean, skewness and kurtosis are NaN.
    """

    mean: float
    variance: float
    skewness: float
    kurtosis: float


def _shape_moments(sample: np.ndarray) -> tuple[float, float]:
    mean = sample.mean(keepdims=True)
    d = sample - mean
    d2 = d**2
    m2, m3, m4 = d2.mean(), (d2 * d).mean(), (d2**2).mean()
    if m2 <= (np.finfo(np.float64).eps * mean[0]) ** 2:
        return math.nan, math.nan
    return float(m3 / m2**1.5), float(m4 / m2**2.0 - 3)


@np.errstate(over="ignore", invalid="ignore")
def sample_moments(sample) -> SampleMoments:
    """Moments of a sample; ComputationRejected if the mean or variance overflows.

    Skewness and kurtosis are scale-free, so a sample whose largest
    magnitude lies outside 2^-100..2^100 is scaled by an exact power of two
    to below 1 first, where its fourth powers cannot overflow or underflow.
    """
    sample = np.asarray(sample, dtype=np.float64)
    mean = float(sample.mean())
    variance = float(sample.var(ddof=1)) if np.ptp(sample) > 0.0 else 0.0
    if not (math.isfinite(mean) and math.isfinite(variance)):
        raise ComputationRejected("the sample moments are not finite in double precision")
    skewness = kurtosis = 0.0
    if variance != 0.0:
        exponent = int(np.frexp(np.max(np.abs(sample)))[1])
        if abs(exponent) > 100:
            sample = np.ldexp(sample, -exponent)
        skewness, kurtosis = _shape_moments(sample)
    return SampleMoments(mean, variance, skewness, kurtosis)


def ks_normal_distance(sample, mean: float = 0.0, std: float = 1.0) -> float:
    """One-sample Kolmogorov-Smirnov distance to N(mean, std^2)."""
    if not std > 0.0:
        raise ValueError("ks_normal_distance needs std > 0")
    x = np.sort(np.asarray(sample, dtype=np.float64))
    cdf, n = ndtr((x - mean) / std), len(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdf).max()
    d_minus = (cdf - np.arange(0.0, n) / n).max()
    return float(d_plus if d_plus > d_minus else d_minus)


def ks_threshold(count: int) -> float:
    """Asymptotic 5%-level critical value for the one-sample KS distance."""
    return 1.36 / math.sqrt(count)


def fit_line(x, y) -> tuple[float, float]:
    """Least-squares line fit; returns (slope, stderr_of_slope)."""
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    if len(x) < 2 or np.amax(x) == np.amin(x):
        raise ValueError("fit_line needs two distinct x values")
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    slope = ssxym / ssxm
    if len(x) == 2:
        return float(slope), 0.0
    if ssxm == 0.0 or ssym == 0.0:
        r = np.nan if ssxym == 0 else 0.0
    else:
        r = min(max(ssxym / np.sqrt(ssxm * ssym), -1.0), 1.0)
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))
    return float(slope), float(stderr)
