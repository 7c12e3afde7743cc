"""Limit variances of the normalized fluctuation statistics.

The centered multi-generation statistic has a limiting Gaussian whose
variance is a sum over the Hermite degrees of the test function.  The
lineage kernel multiplies the degree-n coefficient by lambda = a^n
(Mehler's formula), so the branching, depth-gap and generation-offset sums
of the series are geometric and are summed here in closed form, leaving a
finite sum over degrees.  Below the critical slope degree n
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

from .errors import RegimeError, finite_fsum
from .kernels import SUBCRITICAL, SUPERCRITICAL, BarParams, classify_regime
from .spectral import SpectralFn, check_scale


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


def limit_variance(f: SpectralFn, params: BarParams,
                   tree: bool = False) -> VarianceReport:
    """Limit variance of the fluctuation statistic at or below the critical slope.

    Centered functions f, g at depth gap d are coupled by
    B(f, g, d) = sum_n w_n f_n g_n lambda_n^d, with lambda_n = a^n in both
    regimes, so lambda_1 keeps the sign of the slope.  Below the critical
    slope w_n = n! (1 - lambda_n^2) / (1 - 2 lambda_n^2); at the critical
    slope only degree one survives, with w_1 = a^2.  For the function f_l at
    offset l from the deepest generation, sigma1 = sum_l 2^-l B(f_l, f_l, 0)
    and sigma2 = sum_{l<k} 2^-l B(f_k, f_l, k - l).  The generation sum
    (tree=False) puts f at offset 0 only, so sigma1 = sum_n w_n f_n^2 and
    sigma2 = 0.  The whole-tree sum (tree=True) repeats f at every offset,
    so both sums are geometric: sigma1 = 2 sum_n w_n f_n^2 and
    sigma2 = 2 sum_n w_n f_n^2 lambda_n / (1 - lambda_n).
    """
    check_scale(f, params.sigma_a())
    a = params.a
    regime = classify_regime(a)
    if regime == SUPERCRITICAL:
        raise RegimeError(
            "no finite limit variance above the critical slope (2 a^2 > 1); "
            "use the supercritical study")
    length = len(f.coeffs) if regime == SUBCRITICAL else min(len(f.coeffs), 2)
    coeffs = f.coeffs[1:length]
    lam = np.power(float(a), np.arange(1, length))
    weights = lam * lam
    if regime == SUBCRITICAL:
        factorials = np.array([math.factorial(n) for n in range(1, length)], dtype=np.float64)
        weights = factorials * (1.0 - weights) / (1.0 - 2.0 * weights)

    message = f"the {regime} limit variance is not finite"
    with np.errstate(over="ignore", invalid="ignore"):
        diagonal = weights * coeffs**2
        sigma1, sigma2 = finite_fsum(diagonal, message), 0.0
        if tree:
            sigma1 = 2.0 * sigma1
            sigma2 = 2.0 * finite_fsum(diagonal * lam / (1.0 - lam), message)
    value = finite_fsum((sigma1, 2.0 * sigma2), message)
    return VarianceReport(value=value, sigma1=sigma1, sigma2=sigma2, regime=regime)
