"""Gauss-Hermite quadrature for expectations under Gaussian laws.

Nodes and weights are computed for the weight exp(-t^2) by Newton iteration
on the orthonormal Hermite three-term recurrence, to absolute tolerance 1e-14
on each node.  Expectations against N(mean, std^2) use the change of
variables x = mean + std*sqrt(2)*t.

This module is deliberately independent of the spectral-coefficient code so
it can serve as an oracle for it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_NODE_TOL = 1e-14
_MAX_NEWTON = 100
_PI_QUARTER = np.pi ** -0.25


@lru_cache(maxsize=None)
def hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against exp(-t^2) on the real line.

    Nodes are in decreasing order on the positive half and mirrored; the
    weights sum to sqrt(pi).
    """
    if order < 1:
        raise ValueError("quadrature order must be at least 1")
    nodes = np.empty(order)
    weights = np.empty(order)
    half = (order + 1) // 2
    z = 0.0
    for i in range(half):
        if i == 0:
            z = np.sqrt(2.0 * order + 1.0) - 1.85575 * (2.0 * order + 1.0) ** (-1.0 / 6.0)
        elif i == 1:
            z -= 1.14 * order**0.426 / z
        elif i == 2:
            z = 1.86 * z - 0.86 * nodes[0]
        elif i == 3:
            z = 1.91 * z - 0.91 * nodes[1]
        else:
            z = 2.0 * z - nodes[i - 2]
        for _ in range(_MAX_NEWTON):
            p_cur = _PI_QUARTER
            p_prev = 0.0
            for j in range(1, order + 1):
                p_cur, p_prev = (
                    z * np.sqrt(2.0 / j) * p_cur - np.sqrt((j - 1.0) / j) * p_prev,
                    p_cur,
                )
            derivative = np.sqrt(2.0 * order) * p_prev
            step = p_cur / derivative
            z -= step
            if abs(step) <= _NODE_TOL:
                break
        else:
            raise RuntimeError(f"Hermite node {i} of order {order} did not converge")
        nodes[i] = z
        nodes[order - 1 - i] = -z
        w = 2.0 / derivative**2
        weights[i] = w
        weights[order - 1 - i] = w
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
