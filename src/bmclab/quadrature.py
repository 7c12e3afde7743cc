"""Gauss-Hermite nodes and weights for integrals against exp(-t^2).

The rule is numpy's; the assumption checker integrates against Gaussian
laws on these nodes, and the tests use them as an independent oracle.
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

