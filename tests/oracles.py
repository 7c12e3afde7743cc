"""Reference implementations the tests check the program against.

Each is a direct transcription of its definition: the scalar Philox4x32
block cipher, the transition densities of the symmetric Gaussian BAR
relative to its invariant law, Gauss-Hermite expectations under a
Gaussian law, and the offset sums of the critical limit variance.  The
program itself needs none of them.
"""

from __future__ import annotations

import math

import numpy as np

from bmclab.kernels import BarParams
from bmclab.quadrature import hermite_nodes

_M0, _M1 = 0xD2511F53, 0xCD9E8D57
_W0, _W1 = 0x9E3779B9, 0xBB67AE85


def philox4x32(counter, key, rounds: int = 10) -> tuple[int, int, int, int]:
    """Philox4x32 on one full 4-word counter and 2-word key (scalar reference).

    Pure-Python ground truth for the vectorised path; matches the published
    Random123 known-answer test vectors.
    """
    x0, x1, x2, x3 = (int(c) & 0xFFFFFFFF for c in counter)
    k0, k1 = (int(k) & 0xFFFFFFFF for k in key)
    for _ in range(rounds):
        p0 = _M0 * x0
        p1 = _M1 * x2
        x0, x1, x2, x3 = (
            (p1 >> 32) ^ x1 ^ k0,
            p1 & 0xFFFFFFFF,
            (p0 >> 32) ^ x3 ^ k1,
            p0 & 0xFFFFFFFF,
        )
        k0 = (k0 + _W0) & 0xFFFFFFFF
        k1 = (k1 + _W1) & 0xFFFFFFFF
    return x0, x1, x2, x3


def transition_density(x, y, params: BarParams):
    """One-step density of the lineage chain relative to its invariant law."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    a = params.a
    s2 = 2.0 * params.sigma**2
    return np.exp((2.0 * a * x * y - a * a * (x * x + y * y)) / s2) / math.sqrt(1.0 - a * a)


def pair_density(x, y, z, params: BarParams):
    """Joint density of the child pair given the parent trait, relative to
    the product of invariant laws."""
    return transition_density(x, y, params) * transition_density(x, z, params)


def gaussian_expect(fn, mean: float = 0.0, std: float = 1.0, order: int = 64) -> float:
    """E[fn(X)] for X ~ N(mean, std^2) by Gauss-Hermite quadrature.

    `fn` must accept a numpy array.
    """
    t, w = hermite_nodes(order)
    x = mean + std * np.sqrt(2.0) * t
    return float(np.dot(w, fn(x)) / np.sqrt(np.pi))


def critical_offset_sums(coeffs, a: float) -> tuple[float, float]:
    """sigma1 and sigma2 of the critical limit variance, offset by offset.

    coeffs[k] is the degree-one coefficient of the function at offset k:
    sigma1 = sum_k 2^-k a^2 c_k^2 and
    sigma2 = sum_{l<h} 2^(-(h+l)/2) a^2 c_h c_l.
    """
    a2 = a * a
    root_half = math.sqrt(0.5)
    sigma1 = math.fsum(0.5**k * a2 * c**2 for k, c in enumerate(coeffs))
    sigma2 = math.fsum(root_half ** (high + low) * a2 * coeffs[high] * coeffs[low]
                       for high in range(len(coeffs)) for low in range(high))
    return sigma1, sigma2
