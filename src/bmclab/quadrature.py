"""Gauss-Hermite quadrature for expectations under Gaussian laws.

Nodes and weights for the weight exp(-t^2) are numpy's Gauss-Hermite rule;
expectations against N(mean, std^2) use the change of variables
x = mean + std*sqrt(2)*t.

This module is deliberately independent of the spectral-coefficient code so
it can serve as an oracle for it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss


@lru_cache(maxsize=None)
def hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against exp(-t^2) on the real line.

    The arrays are cached, so they are read-only; the weights sum to
    sqrt(pi).
    """
    if order < 1:
        raise ValueError("quadrature order must be at least 1")
    nodes, weights = hermgauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gaussian_expect(fn, mean: float = 0.0, std: float = 1.0, order: int = 64) -> float:
    """E[fn(X)] for X ~ N(mean, std^2) by Gauss-Hermite quadrature.

    `fn` must accept a numpy array.
    """
    t, w = hermite_nodes(order)
    x = mean + std * np.sqrt(2.0) * t
    return float(np.dot(w, fn(x)) / np.sqrt(np.pi))
