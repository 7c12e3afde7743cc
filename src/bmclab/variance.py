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

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationRejected, RegimeError
from .kernels import SUBCRITICAL, SUPERCRITICAL, BarParams, classify_regime
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


def limit_variance(fseq: FunctionalSeq, params: BarParams) -> VarianceReport:
    """Limit variance of the fluctuation statistic at or below the critical slope.

    Centered functions f, g at depth gap d are coupled by
    B(f, g, d) = sum_n w_n f_n g_n lambda_n^d.  Below the critical slope
    lambda_n = a^n and w_n = n! (1 - lambda_n^2) / (1 - 2 lambda_n^2); at
    the critical slope only degree one survives, with w_1 = a^2 and
    lambda_1 = 2^(-1/2).  For the function f_l at offset l,
    sigma1 = sum_l 2^-l B(f_l, f_l, 0) and
    sigma2 = sum_{l<k} 2^-l B(f_k, f_l, k - l).  The tree shape repeats f at
    every offset, so both sums are geometric: sigma1 = 2 sum_n w_n f_n^2 and
    sigma2 = 2 sum_n w_n f_n^2 lambda_n / (1 - lambda_n).
    """
    a = params.a
    regime = classify_regime(a)
    if regime == SUPERCRITICAL:
        raise RegimeError(
            "no finite limit variance above the critical slope (2 a^2 > 1); "
            "use the supercritical study")
    length = max(len(f.coeffs) for f in fseq.funcs)
    if regime == SUBCRITICAL:
        lam = np.power(float(a), np.arange(1, length))
        factorials = np.array([math.factorial(n) for n in range(1, length)],
                              dtype=np.float64)
        weights = factorials * (1.0 - lam * lam) / (1.0 - 2.0 * lam * lam)
    else:
        length = min(length, 2)
        lam = np.full(length - 1, math.sqrt(0.5))
        weights = np.full(length - 1, a * a)
    coeffs = np.zeros((len(fseq.funcs), length - 1))
    for row, f in zip(coeffs, fseq.funcs):
        kept = f.coeffs[1:length]
        row[: len(kept)] = kept

    # math.fsum raises OverflowError when the terms overflow, or ValueError
    # for inf - inf.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if fseq.shape == "tree":
                diagonal = weights * coeffs[0] ** 2
                sigma1 = 2.0 * math.fsum(diagonal)
                sigma2 = 2.0 * math.fsum(diagonal * lam / (1.0 - lam))
            else:
                sigma1_terms: list[float] = []
                sigma2_terms: list[float] = []
                for low, f_low in enumerate(coeffs):
                    scaled = 0.5**low * weights
                    sigma1_terms.extend(scaled * f_low**2)
                    for high in range(low + 1, len(coeffs)):
                        sigma2_terms.extend(
                            scaled * f_low * coeffs[high] * lam ** (high - low))
                sigma1, sigma2 = math.fsum(sigma1_terms), math.fsum(sigma2_terms)
    except (OverflowError, ValueError):
        raise ComputationRejected(f"the {regime} limit variance is not finite") from None
    value = sigma1 + 2.0 * sigma2
    if not math.isfinite(value):
        raise ComputationRejected(f"the {regime} limit variance is not finite")
    return VarianceReport(value=value, sigma1=sigma1, sigma2=sigma2, regime=regime)
