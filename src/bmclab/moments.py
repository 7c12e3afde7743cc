"""Exact generation-sum moments for the symmetric kernel.

For M_n(f), the sum of f over generation n started from a point x, the
first two moments split over the depth of each node pair's deepest common
ancestor: the pairs at depth d add Q^d of the product of the two functions
pushed down to it.  The closed forms count those pairs in closed form, push
by the diagonal Mehler action and take Q^d under the ancestor's 1-D law.

The enumerated_* variants compute the same quantities by brute force over
all node pairs: each pair is jointly Gaussian with the covariance of its
common ancestor, and a tensor Gauss-Hermite rule in the Cholesky factors
integrates f times g exactly.  Pairs are still enumerated one by one, but
the expectation is computed once per common-ancestor depth.  They are
exponential in the depth and exist to cross-check the kernel formulas at
small n.  A moment that is not a finite double raises ComputationRejected.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial import hermite_e

from .errors import ResourceCapError, finite_fsum
from .kernels import BarParams, hermite_nodes
from .spectral import SpectralFn, check_scale

ENUM_DEPTH_MAX = 4


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

    With n >= m, the node pairs whose deepest common ancestor is at depth d
    add T_d = Q^d[(Q^(m-d) g) (Q^(n-d) f)](x), times 2^n at d = m and
    2^(n+m-d-1) below it.  Row r below is depth m - r.  T_0 is the product of
    the two values at x.  For d >= 1, Q^d is the mean under the ancestor's law
    N(a^d x, sigma_a^2 (1 - a^(2d))), which the Gauss-Hermite rule of order
    (deg f + deg g) // 2 + 1 takes exactly; each depth is summed by fsum,
    correctly rounded, so an odd integrand at x = 0 gives exactly 0.
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
    if m:  # no common ancestor below the root when m = 0
        t, w = hermite_nodes((f.degree + g.degree) // 2 + 1)
        push = params.a ** (m - steps[:-1, 0])
        nodes = push * u + np.sqrt(1.0 - push * push) * (math.sqrt(2.0) * t[:, None])
        terms = (w[:, None] / math.sqrt(math.pi)
                 * hermite_e.hermeval(nodes, gs[:-1].T, tensor=False)
                 * hermite_e.hermeval(nodes, fs[:-1].T, tensor=False))
        values = [finite_fsum(depth, "the moment overflows double precision")
                  for depth in terms.T.tolist()] + values
    return finite_fsum(np.ldexp(values, n + np.maximum(steps[:, 0] - 1, 0)),
                       "the moment overflows double precision")


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


def _pair_expects(f: SpectralFn, g: SpectralFn, params: BarParams,
                  n: int, m: int, depths, x: float) -> list[float]:
    """E_x[f(X_u) g(X_v)] for u at generation n and v at m, per common-ancestor depth.

    (X_u, X_v) is its means plus the Cholesky factor of its covariance times
    two standard normals, so the tensor Gauss-Hermite rule of order
    (deg f + deg g) // 2 + 1 integrates the polynomial exactly.  Each depth's
    products are summed by fsum, correctly rounded: a one-depth call gives the
    bits of a batched one, and terms that cancel exactly (an odd integrand at
    x = 0) sum to 0.
    """
    t, w = hermite_nodes((f.degree + g.degree) // 2 + 1)
    z = math.sqrt(2.0) * t
    w = w / math.sqrt(math.pi)
    mean_u, var_u = _node_mean_var(params.a, params.sigma, n, x)
    mean_v, var_v = _node_mean_var(params.a, params.sigma, m, x)
    sd_u = math.sqrt(var_u)
    covs = [_pair_cov(params.a, params.sigma, n, m, d) for d in depths]
    lo = np.array([cov / sd_u if cov else 0.0 for cov in covs])[:, None, None]
    hi = np.sqrt(np.maximum(var_v - lo * lo, 0.0))
    fx = w * f.evaluate(mean_u + sd_u * z)
    terms = fx[:, None] * g.evaluate(mean_v + lo * z[:, None] + hi * z) * w
    return [finite_fsum(depth, "the moment overflows double precision")
            for depth in terms.reshape(len(covs), -1).tolist()]


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
    _check_enum_depth(max(n, m))
    # Each depth 0..min(n, m) occurs and fixes the pair's term; terms go to fsum
    # in pair order, because fsum's intermediate overflow depends on the order.
    by_depth = _pair_expects(f, g, params, n, m, range(min(n, m) + 1), x)
    return finite_fsum(map(by_depth.__getitem__, _pair_depths(n, m)),
                       "the moment overflows double precision")
