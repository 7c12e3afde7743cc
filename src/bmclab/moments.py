"""Exact generation-sum moments for the symmetric kernel.

For M_n(f), the sum of f over generation n started from a point x, the
first two moments reduce to iterated one-step kernels: the mean is
2^n Q^n f(x), the second moment adds one branching correction per split
generation, and the cross moment of two generations follows the same
pattern after lifting the shallower sum to the deeper generation.

The enumerated_* variants compute the same quantities by brute force over
all node pairs, using the common-ancestor covariance of the joint Gaussian
and a recursion for bivariate Gaussian moments.  Pairs are still enumerated
one by one, but the Gaussian expectation is computed once per
common-ancestor depth.  They are exponential in the depth and exist to
cross-check the kernel formulas at small n.  A moment that is not
a finite double raises ComputationRejected.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import hermite_e

from .errors import ComputationRejected, ResourceCapError
from .kernels import BarParams
from .spectral import SpectralFn, as_monomial, check_scale, hermemul

ENUM_DEPTH_MAX = 4


def _finite_fsum(terms) -> float:
    """math.fsum of the terms (an iterable, maybe lazy), rejected unless finite."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a power or partial sum overflows; inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise ComputationRejected("the moment overflows double precision")
    return total


def exact_mean(f: SpectralFn, params: BarParams, n: int, x: float) -> float:
    """E_x of the sum of f over generation n: 2^n Q^n f(x)."""
    return exact_cross_moment(f, SpectralFn(f.sigma_a, np.ones(1)), params, n, 0, x)


def exact_second_moment(f: SpectralFn, params: BarParams, n: int, x: float) -> float:
    """E_x of the squared sum of f over generation n."""
    return exact_cross_moment(f, f, params, n, n, x)


@np.errstate(over="ignore", invalid="ignore")
def exact_cross_moment(f: SpectralFn, g: SpectralFn, params: BarParams,
                       n: int, m: int, x: float) -> float:
    """E_x of the product of the generation-n sum of f and generation-m sum of g.

    With n >= m, g times Q^(n-m) f is pushed down m generations, and each
    split generation k < m adds the branching correction 2^(n+k) Q^(m-k-1)
    applied to the child-pair expectation of Q^(k+1) g and Q^(n-m+k+1) f.
    Row r below is Q^r g times Q^(n-m+r) f; the last one needs no push.
    """
    for fn in (f, g):
        check_scale(fn, params.sigma_a())
    if n < m:
        f, g = g, f
        n, m = m, n
    steps = np.arange(m + 1)[:, None]
    gs = g.coeffs * params.a ** (steps * np.arange(len(g.coeffs)))
    fs = f.coeffs * params.a ** ((n - m + steps) * np.arange(len(f.coeffs)))
    u = x / f.sigma_a
    values = [hermite_e.hermeval(u, gs[-1]) * hermite_e.hermeval(u, fs[-1])]
    if m:  # no split generation, so no child-pair product, when m = 0
        pairs = hermemul(gs[:-1], fs[:-1])
        pushed = pairs * params.a ** ((m - steps[:-1]) * np.arange(pairs.shape[1]))
        values = np.append(hermite_e.hermeval(u, pushed.T), values)
    return _finite_fsum(np.ldexp(values, n + np.maximum(steps[:, 0] - 1, 0)))


def _check_enum_depth(n: int) -> None:
    if n > ENUM_DEPTH_MAX:
        raise ResourceCapError(
            f"enumeration over {(1 << n)}^2 node pairs exceeds the "
            f"depth cap {ENUM_DEPTH_MAX}"
        )


def _node_mean_var(a: float, sigma: float, gen: int, x: float) -> tuple[float, float]:
    return a**gen * x, _pair_cov(a, sigma, gen, gen, gen)


def common_ancestor_depth(n: int, i: int, m: int, j: int) -> int:
    """Generation of the deepest common ancestor of nodes (n, i) and (m, j).

    Node (g, k) has parent (g-1, k >> 1), so both ranks are cut to the
    shallower generation and every bit where they still differ is one more
    generation above it.
    """
    d = min(n, m)
    return d - ((i >> (n - d)) ^ (j >> (m - d))).bit_length()


@functools.cache
def _pair_depths(n: int, m: int) -> tuple[int, ...]:
    """common_ancestor_depth of every node pair in pair order (n, m <= ENUM_DEPTH_MAX)."""
    return tuple(common_ancestor_depth(n, i, m, j)
                 for i in range(1 << n) for j in range(1 << m))


def _pair_cov(a: float, sigma: float, gen_u: int, gen_v: int, depth: int) -> float:
    return sigma**2 * sum(a ** (gen_u + gen_v - 2 * j) for j in range(1, depth + 1))


def _centered_pair_moment(p: int, q: int, var1: float, var2: float, cov: float,
                          memo: dict) -> float:
    """E[A^p B^q] for a centered bivariate Gaussian, by integration by parts."""
    if p < 0 or q < 0:
        return 0.0
    if p == 0 and q == 0:
        return 1.0
    key = (p, q)
    if key in memo:
        return memo[key]
    if p > 0:
        value = (p - 1) * var1 * _centered_pair_moment(p - 2, q, var1, var2, cov, memo)
        value += q * cov * _centered_pair_moment(p - 1, q - 1, var1, var2, cov, memo)
    else:
        value = (q - 1) * var2 * _centered_pair_moment(0, q - 2, var1, var2, cov, memo)
    memo[key] = value
    return value


def _gaussian_pair_expect(cf: np.ndarray, cg: np.ndarray,
                          mean1: float, var1: float,
                          mean2: float, var2: float, cov: float) -> float:
    """E[f(X) g(Y)] for monomial coefficient vectors and jointly Gaussian (X, Y)."""
    memo: dict = {}
    terms = []
    for i, ci in enumerate(cf):
        for j, cj in enumerate(cg):
            if ci == 0.0 or cj == 0.0:
                continue
            raw = _finite_fsum(
                math.comb(i, p) * math.comb(j, q)
                * mean1 ** (i - p) * mean2 ** (j - q)
                * _centered_pair_moment(p, q, var1, var2, cov, memo)
                for p in range(i + 1) for q in range(j + 1))
            terms.append(ci * cj * raw)
    return _finite_fsum(terms)


def enumerated_mean(f: SpectralFn, params: BarParams, n: int, x: float) -> float:
    """Brute-force mean of the generation-n sum of f (small n only)."""
    one = SpectralFn(f.sigma_a, np.ones(1))
    return enumerated_cross_moment(f, one, params, n, 0, x)


def enumerated_second_moment(f: SpectralFn, params: BarParams, n: int,
                             x: float) -> float:
    """Brute-force second moment of the generation-n sum of f (small n only)."""
    return enumerated_cross_moment(f, f, params, n, n, x)


@np.errstate(over="ignore", invalid="ignore")
def enumerated_cross_moment(f: SpectralFn, g: SpectralFn, params: BarParams,
                            n: int, m: int, x: float) -> float:
    """Brute-force E_x of the product of two generation sums (small n, m only)."""
    a = params.a
    _check_enum_depth(max(n, m))
    cf = as_monomial(f)
    cg = as_monomial(g)
    mean_u, var_u = _node_mean_var(a, params.sigma, n, x)
    mean_v, var_v = _node_mean_var(a, params.sigma, m, x)
    # Each depth 0..min(n, m) occurs and fixes the pair's term; terms go to fsum
    # in pair order, because fsum's intermediate overflow depends on the order.
    by_depth = [_gaussian_pair_expect(cf, cg, mean_u, var_u, mean_v, var_v,
                                      _pair_cov(a, params.sigma, n, m, d))
                for d in range(min(n, m) + 1)]
    return _finite_fsum(map(by_depth.__getitem__, _pair_depths(n, m)))
