"""Reference implementations the tests check the program against.

Each is a direct transcription of its definition: the constant and
coordinate functions in the Hermite basis, the scalar Philox4x32 block
cipher, the transition densities of the symmetric Gaussian BAR relative to
its invariant law, Gauss-Hermite expectations under a Gaussian law, the
offset sums of the limit variance, the finite-depth variance summed over
node pairs, the closed-form moments built one SpectralFn at a time with
numpy's Hermite product, the absolute series that bounds their rounding,
numpy's He-to-monomial conversion, the enumerated cross moment with one
Gauss-Hermite pair expectation per node pair, the L2 size of one density
row, and Gauss-Hermite sums of the three norm integrals the assumption
checker decides in closed form.  The program itself needs none of them.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import hermite_e

from bmclab.kernels import (
    CRITICAL,
    BarParams,
    classify_regime,
    hermite_nodes,
)
from bmclab.moments import _check_enum_depth, _pair_expects, common_ancestor_depth
from bmclab.spectral import SpectralFn, apply_kernel

_M0, _M1 = 0xD2511F53, 0xCD9E8D57
_W0, _W1 = 0x9E3779B9, 0xBB67AE85


def constant(value: float, sigma_a: float) -> SpectralFn:
    """The constant function f(x) = value."""
    return SpectralFn(sigma_a=sigma_a, coeffs=np.array([float(value)]))


def identity(sigma_a: float) -> SpectralFn:
    """The coordinate function f(x) = x."""
    return SpectralFn(sigma_a=sigma_a, coeffs=np.array([0.0, sigma_a]))


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


def offset_sums(coeff_rows, a: float) -> tuple[float, float]:
    """sigma1 and sigma2 of the limit variance, offset by offset.

    coeff_rows[l] holds the Hermite coefficients of the function f_l at
    offset l from the deepest generation.  Functions at depth gap d are
    coupled by B(f, g, d) = sum_n w_n f_n g_n lambda_n^d, and
    sigma1 = sum_l 2^-l B(f_l, f_l, 0),
    sigma2 = sum_{l<k} 2^-l B(f_k, f_l, k - l).
    In both regimes lambda_n = a^n.  Below the critical slope
    w_n = n! (1 - lambda_n^2) / (1 - 2 lambda_n^2) for n >= 1; at the
    critical slope only degree one counts, with w_1 = a^2.
    """
    critical = classify_regime(a) == CRITICAL
    top = 2 if critical else max(len(c) for c in coeff_rows)
    rows = np.zeros((len(coeff_rows), top - 1))
    for row, c in zip(rows, coeff_rows):
        kept = np.asarray(c, dtype=np.float64)[1:top]
        row[: len(kept)] = kept
    degrees = np.arange(1, top)
    lam = np.power(float(a), degrees)
    if critical:
        weights = np.full(top - 1, a * a)
    else:
        factorials = np.array([math.factorial(n) for n in degrees], dtype=np.float64)
        weights = factorials * (1.0 - lam**2) / (1.0 - 2.0 * lam**2)

    def bracket(f, g, gap):
        return math.fsum(weights * f * g * lam**gap)

    sigma1 = math.fsum(0.5**low * bracket(f, f, 0) for low, f in enumerate(rows))
    sigma2 = math.fsum(0.5**low * bracket(rows[high], rows[low], high - low)
                       for high in range(len(rows)) for low in range(high))
    return sigma1, sigma2


def pair_count_variance(f: SpectralFn, a: float, n: int, tree: bool) -> float:
    """Variance of the normalized statistic at depth n for a stationary root,
    summed over node pairs.

    Nodes u, v at depths i, j whose deepest common ancestor is at depth g
    have Cov(f(X_u), f(X_v)) = sum_{k>=1} k! c_k^2 a^(k (i + j - 2g))
    (Mehler's formula).  There are 2^max(i,j) ordered pairs with
    g = min(i, j), one node the other's ancestor, and 2^(i+j-g-1) with
    g < min(i, j).  The statistic sums f over generation n, or over
    generations 0..n if tree, and is divided by sqrt(2^n), or by
    sqrt(n 2^n) at the critical slope.
    """
    degrees = np.arange(1, len(f.coeffs))
    modes = np.array([math.factorial(k) for k in degrees], dtype=np.float64)
    modes *= f.coeffs[1:] ** 2
    cov = np.power(float(a), np.outer(np.arange(2 * n + 1), degrees)) @ modes
    depths = np.arange(n + 1) if tree else np.array([n])
    cells = np.meshgrid(depths, depths, np.arange(n + 1), indexing="ij")
    i, j, g = (axis[cells[2] <= np.minimum(cells[0], cells[1])] for axis in cells)
    pairs = np.where(g == np.minimum(i, j), np.ldexp(1.0, np.maximum(i, j)),
                     np.ldexp(1.0, i + j - g - 1))
    scale = 2.0**n * (n if classify_regime(a) == CRITICAL else 1)
    return math.fsum(pairs * cov[i + j - 2 * g]) / scale


def absolute_series(coeffs, u):
    """sum |c_n| He+_n(|u|), with He+_{n+1}(t) = t He+_n(t) + n He+_{n-1}(t):
    it bounds every partial sum either summation order forms."""
    t = np.abs(u)
    total = np.full_like(u, abs(coeffs[0]))
    prev, cur = np.ones_like(u), t.copy()
    for n in range(1, len(coeffs)):
        total += abs(coeffs[n]) * cur
        prev, cur = cur, t * cur + n * prev
    return total


def reference_cross_moment(f: SpectralFn, g: SpectralFn, params: BarParams,
                           n: int, m: int, x: float, absolute: bool = False) -> float:
    """E_x of the product of the generation-n sum of f and the generation-m
    sum of g, one SpectralFn per kernel step and numpy's hermemul per product.

    With n >= m, g times Q^(n-m) f is pushed down m generations, and each
    split generation k < m adds 2^(n+k) Q^(m-k-1) of the child-pair product
    of Q^(k+1) g and Q^(n-m+k+1) f.  With absolute=True the slope, every
    coefficient and x enter in absolute value and each function is summed as
    its absolute series: the size of the terms that rounding acts on.
    """
    a = abs(params.a) if absolute else params.a
    if absolute:
        f, g = (SpectralFn(h.sigma_a, np.abs(h.coeffs)) for h in (f, g))

    def value(h):
        if absolute:
            return float(absolute_series(h.coeffs, np.float64(x) / h.sigma_a))
        return h(x)

    def times(h1, h2):
        return SpectralFn(h1.sigma_a, hermite_e.hermemul(h1.coeffs, h2.coeffs))

    if n < m:
        f, g = g, f
        n, m = m, n
    lifted = times(g, apply_kernel(f, a, steps=n - m))
    terms = [(n, value(apply_kernel(lifted, a, steps=m)))]
    for k in range(m):
        gk = apply_kernel(g, a, steps=k)
        fk = apply_kernel(f, a, steps=n - m + k)
        branch = times(apply_kernel(gk, a, 1), apply_kernel(fk, a, 1))
        terms.append((n + k, value(apply_kernel(branch, a, steps=m - k - 1))))
    return math.fsum(2.0**p * v for p, v in terms)


def reference_mean(f: SpectralFn, params: BarParams, n: int, x: float,
                   absolute: bool = False) -> float:
    """E_x of the sum of f over generation n, 2^n Q^n f(x), as the cross
    moment with the constant 1 at generation 0 (the product with 1 is exact)."""
    return reference_cross_moment(f, constant(1.0, f.sigma_a), params, n, 0, x, absolute)


def reference_monomial(f: SpectralFn) -> np.ndarray:
    """Monomial coefficients in x by numpy's herme2poly, padded to len(coeffs)."""
    in_u = np.zeros(len(f.coeffs))
    converted = hermite_e.herme2poly(f.coeffs)
    in_u[:len(converted)] = converted
    return in_u * f.sigma_a ** -np.arange(len(in_u))


def per_pair_cross_moment(f: SpectralFn, g: SpectralFn, params: BarParams,
                          n: int, m: int, x: float) -> float:
    """E_x of the product of the generation-n sum of f and the generation-m
    sum of g, as the fsum of one moments._pair_expects call per node pair.

    moments.enumerated_cross_moment makes one call for all common-ancestor
    depths instead and must match this bit for bit.
    """
    _check_enum_depth(max(n, m))
    terms = [_pair_expects(f, g, params, n, m, [common_ancestor_depth(n, i, m, j)], x)[0]
             for i in range(1 << n) for j in range(1 << m)]
    return math.fsum(terms)


def density_row_norm(x, a: float):
    """L2 size of one density row: (integral of q(x,.)^2 d(invariant))^(1/2).

    Closed form (1-a^4)^(-1/4) * exp(a^2(1-a^2)/(1+a^2) * x^2/2) at sigma = 1.
    """
    x = np.asarray(x, dtype=np.float64)
    c = (1.0 - a**4) ** -0.25
    g = a * a * (1.0 - a * a) / ((1.0 + a * a) * 2.0)
    return c * np.exp(g * x * x)


@np.errstate(over="ignore")
def direct_quadrature_sums(a: float, order: int) -> tuple[float, float, float]:
    """Gauss-Hermite sums of the three norm integrals of the assumption checker.

    With h = density_row_norm(., a), the sums approximate E[h^4], E[(Qh)^4]
    and E[(Q((Qh)^2) * Qh)^2] under the invariant law at sigma = 1: the
    powers of the closed-form norms h_L4, Qh_L4 and hilsch2_L2.  The kernel
    step of h on the two-level grid sums h(a*mids[i, j] + rt2*t_k) over k
    directly, two outer rows at a time.
    """
    sa = math.sqrt(1.0 / (1.0 - a * a))
    rt2 = math.sqrt(2.0)
    t, w = hermite_nodes(order)
    wn = w / math.sqrt(math.pi)
    xs = sa * rt2 * t
    h_xs = density_row_norm(xs, a)
    i1 = float(np.dot(wn, h_xs**4))
    mids = a * xs[:, None] + rt2 * t[None, :]
    qh_xs = np.dot(density_row_norm(mids, a), wn)
    i2 = float(np.dot(wn, qh_xs**4))
    qh_mids = np.empty_like(mids)
    for i in range(0, order, 2):
        deep = a * mids[i:i + 2, :, None] + rt2 * t[None, None, :]
        qh_mids[i:i + 2] = np.dot(density_row_norm(deep, a), wn)
    q_qh_sq = np.dot(qh_mids**2, wn)
    i3 = float(np.dot(wn, (q_qh_sq * qh_xs) ** 2))
    return i1, i2, i3
