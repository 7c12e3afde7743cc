"""Limit variances of the normalized fluctuation statistics.

The centered multi-generation statistic has a limiting Gaussian whose
variance is a sum over the Hermite degrees of the test functions.  The
lineage kernel multiplies the degree-n coefficient by lambda = a^n
(Mehler's formula), so the branching, depth-gap and generation-offset sums
of the series are geometric and are summed here in closed form, leaving a
finite sum over degrees and offsets.  Below the critical slope degree n
carries the factor n! (1 - lambda^2) / (1 - 2 lambda^2); at the critical
slope only the degree-one coefficients survive.  See Guyon, "Limit theorems
for bifurcating Markov chains", Ann. Appl. Probab. 17 (2007).

Above the critical slope there is no finite limit variance; the rescaled
sums and the additive martingale of that regime are simulated by the
experiments module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationRejected, RegimeError
from .kernels import CRITICAL, SUBCRITICAL, BarParams, classify_regime
from .treesim import FunctionalSeq


@dataclass(frozen=True)
class VarianceReport:
    """A limit variance with its decomposition.

    value is sigma1 + 2 * sigma2, where sigma1 collects the diagonal
    (equal-offset) terms and sigma2 the strictly off-diagonal ones.
    """

    value: float
    sigma1: float
    sigma2: float
    regime: str


def _report(sigma1: float, sigma2: float, regime: str) -> VarianceReport:
    value = sigma1 + 2.0 * sigma2
    if not math.isfinite(value):
        raise ComputationRejected(f"the {regime} limit variance is not finite")
    return VarianceReport(value=value, sigma1=sigma1, sigma2=sigma2, regime=regime)


def _rejects_overflow(variance):
    """Reject a variance whose terms overflow: a float power or math.fsum
    then raises OverflowError, or ValueError for inf - inf."""
    @functools.wraps(variance)
    def checked(fseq: FunctionalSeq, params: BarParams) -> VarianceReport:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return variance(fseq, params)
        except (OverflowError, ValueError):
            raise ComputationRejected("the limit variance is not finite") from None
    return checked


@_rejects_overflow
def subcritical_variance(fseq: FunctionalSeq, params: BarParams) -> VarianceReport:
    """Limit variance of the fluctuation statistic below the critical slope.

    With lambda_n = a^n and w_n = n! (1 - lambda_n^2) / (1 - 2 lambda_n^2),
    centered functions f, g at depth gap d are coupled by
    B(f, g, d) = sum_n w_n f_n g_n lambda_n^d.  For the function f_l at
    offset l, sigma1 = sum_l 2^-l B(f_l, f_l, 0) and
    sigma2 = sum_{l<k} 2^-l B(f_k, f_l, k - l).  The tree shape repeats f at
    every offset, so both sums are geometric: sigma1 = 2 sum_n w_n f_n^2 and
    sigma2 = 2 sum_n w_n f_n^2 lambda_n / (1 - lambda_n).
    """
    a = params.a
    if classify_regime(a) != SUBCRITICAL:
        raise RegimeError(f"the subcritical series needs 2 a^2 < 1, got a={a}")
    length = max(len(f.coeffs) for f in fseq.funcs)
    coeffs = np.zeros((len(fseq.funcs), length - 1))
    for row, f in zip(coeffs, fseq.funcs):
        row[: len(f.coeffs) - 1] = f.coeffs[1:]
    degrees = np.arange(1, length)
    lam = np.power(float(a), degrees)
    factorials = np.array([math.factorial(n) for n in degrees], dtype=np.float64)
    weights = factorials * (1.0 - lam * lam) / (1.0 - 2.0 * lam * lam)

    if fseq.shape == "tree":
        diagonal = weights * coeffs[0] ** 2
        return _report(2.0 * math.fsum(diagonal),
                       2.0 * math.fsum(diagonal * lam / (1.0 - lam)), SUBCRITICAL)
    sigma1_terms: list[float] = []
    sigma2_terms: list[float] = []
    for low, f_low in enumerate(coeffs):
        scaled = 0.5**low * weights * f_low
        sigma1_terms.extend(scaled * f_low)
        for high in range(low + 1, len(coeffs)):
            sigma2_terms.extend(scaled * coeffs[high] * lam ** (high - low))
    return _report(math.fsum(sigma1_terms), math.fsum(sigma2_terms), SUBCRITICAL)


@_rejects_overflow
def critical_variance(fseq: FunctionalSeq, params: BarParams) -> VarianceReport:
    """Limit variance of the fluctuation statistic at the critical slope.

    Only the degree-one coefficient c_k of each test function contributes:
    the diagonal sum weights a^2 c_k^2 at offset k by 2^(-k) and the
    off-diagonal sum weights a^2 c_k c_l at offsets l < k by 2^(-(k+l)/2).
    For the tree shape these are geometric: sigma1 = 2 a^2 c^2 and
    sigma2 = sigma1 r / (1 - r) with r = 2^(-1/2).
    """
    a = params.a
    if classify_regime(a) != CRITICAL:
        raise RegimeError(f"the critical series needs 2 a^2 = 1, got a={a}")
    coeffs = [float(f.coeffs[1]) if f.degree >= 1 else 0.0 for f in fseq.funcs]
    a2 = a * a
    root_half = math.sqrt(0.5)
    if fseq.shape == "tree":
        sigma1 = 2.0 * a2 * coeffs[0] ** 2
        return _report(sigma1, sigma1 * root_half / (1.0 - root_half), CRITICAL)
    sigma1 = math.fsum(0.5**high * a2 * c**2 for high, c in enumerate(coeffs))
    sigma2 = math.fsum(
        root_half ** (high + low) * a2 * coeffs[high] * coeffs[low]
        for high in range(len(coeffs)) for low in range(high))
    return _report(sigma1, sigma2, CRITICAL)
