"""Exact function algebra in the Hermite eigenbasis of the induced chain.

For the symmetric autoregressive kernel with slope `a` and noise scale
`sigma`, the one-step chain along a random lineage has the Gaussian
invariant law N(0, sigma_a^2) with sigma_a = sigma/sqrt(1-a^2), and acts
diagonally on the scaled probabilists' Hermite polynomials

    basis_n(x) = He_n(x / sigma_a),      eigenvalue a^n.

A SpectralFn stores finitely many coefficients in that basis, which makes
kernel application, stationary inner products, centering, and the two-child
product expectation exact up to rounding.  The basis satisfies
<basis_m, basis_n> = n! * 1{m=n} under the invariant law.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import hermite_e

from .errors import ConfigError, DegreeCapError

DEGREE_CAP = 64

# Trailing coefficients with |c_n|*sqrt(n!) below this are dropped: they are
# invisible to every inner product at double precision.
TRIM_EPS = 1e-300

_FACTORIALS = np.cumprod(np.concatenate(([1.0], np.arange(1.0, DEGREE_CAP + 1))))
_SQRT_FACTORIALS = np.sqrt(_FACTORIALS)


def _trimmed(coeffs: np.ndarray) -> np.ndarray:
    keep = len(coeffs)
    scale = np.abs(coeffs) * _SQRT_FACTORIALS[: len(coeffs)]
    while keep > 1 and scale[keep - 1] < TRIM_EPS:
        keep -= 1
    return coeffs[:keep]


@dataclass(frozen=True)
class SpectralFn:
    """A function with finite expansion in the scaled Hermite basis.

    Immutable; all operations return new values.  `coeffs[n]` multiplies
    basis_n(x) = He_n(x / sigma_a).
    """

    sigma_a: float
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma_a) and self.sigma_a > 0.0):
            raise ConfigError("sigma_a must be finite and positive")
        c = np.atleast_1d(np.asarray(self.coeffs, dtype=np.float64))
        if c.ndim != 1 or not np.all(np.isfinite(c)):
            raise ConfigError("coefficients must be a finite 1-d array")
        if len(c) > DEGREE_CAP + 1:
            tail = c[DEGREE_CAP + 1 :]
            if np.any(np.abs(tail) * np.sqrt(_FACTORIALS[-1]) >= TRIM_EPS):
                raise DegreeCapError(
                    f"degree {len(c) - 1} exceeds the cap {DEGREE_CAP}"
                )
            c = c[: DEGREE_CAP + 1]
        c = _trimmed(c).copy()
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def evaluate(self, x):
        """Pointwise values, summed by numpy's Clenshaw recurrence."""
        values = hermite_e.hermeval(np.asarray(x, dtype=np.float64) / self.sigma_a,
                                    self.coeffs)
        return float(values) if np.ndim(values) == 0 else values

    def __call__(self, x):
        return self.evaluate(x)


def _check_same_scale(f: SpectralFn, g: SpectralFn) -> None:
    if abs(f.sigma_a - g.sigma_a) > 1e-12 * max(f.sigma_a, g.sigma_a):
        raise ConfigError(
            f"mismatched stationary scales {f.sigma_a} and {g.sigma_a}"
        )


def from_monomial(poly, sigma_a: float) -> SpectralFn:
    """Convert monomial coefficients (low degree first) into the basis.

    `poly[j]` multiplies x^j.  The polynomial is rewritten in u = x/sigma_a
    and then expanded over He_n(u).
    """
    p = np.atleast_1d(np.asarray(poly, dtype=np.float64))
    if p.ndim != 1 or not np.all(np.isfinite(p)):
        raise ConfigError("monomial coefficients must be a finite 1-d array")
    while len(p) > 1 and p[-1] == 0.0:
        p = p[:-1]
    if len(p) - 1 > DEGREE_CAP:
        raise DegreeCapError(f"degree {len(p) - 1} exceeds the cap {DEGREE_CAP}")
    if not (np.isfinite(sigma_a) and sigma_a > 0.0):
        raise ConfigError("sigma_a must be finite and positive")
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = p * np.power(sigma_a, np.arange(len(p)))
    if not np.all(np.isfinite(scaled)):
        raise ConfigError(
            f"the coefficients overflow once rescaled by sigma_a = {sigma_a:g}")
    return SpectralFn(sigma_a=sigma_a, coeffs=hermite_e.poly2herme(scaled))


def as_monomial(f: SpectralFn) -> np.ndarray:
    """Monomial coefficients in x (low degree first); exact basis change."""
    in_u = hermite_e.herme2poly(f.coeffs)
    return in_u * np.power(f.sigma_a, -np.arange(len(in_u)))


def apply_kernel(f: SpectralFn, a: float, steps: int = 1) -> SpectralFn:
    """k-step action of the lineage chain: coefficient n picks up a^(k n)."""
    if not (-1.0 < a < 1.0):
        raise ConfigError("autoregression slope must lie in (-1, 1)")
    if steps < 0:
        raise ConfigError("step count must be nonnegative")
    if steps == 0:
        return f
    factors = np.power(float(a), steps * np.arange(len(f.coeffs), dtype=np.float64))
    return SpectralFn(sigma_a=f.sigma_a, coeffs=f.coeffs * factors)


def stationary_inner(f: SpectralFn, g: SpectralFn) -> float:
    """Inner product under the invariant law: sum of n! c_n d_n."""
    _check_same_scale(f, g)
    k = min(len(f.coeffs), len(g.coeffs))
    return float(np.dot(_FACTORIALS[:k], f.coeffs[:k] * g.coeffs[:k]))


def product(f: SpectralFn, g: SpectralFn) -> SpectralFn:
    """Pointwise product, expanded back into the basis."""
    _check_same_scale(f, g)
    if f.degree + g.degree > DEGREE_CAP:
        raise DegreeCapError(
            f"product degree {f.degree + g.degree} exceeds the cap {DEGREE_CAP}"
        )
    return SpectralFn(sigma_a=f.sigma_a, coeffs=hermite_e.hermemul(f.coeffs, g.coeffs))


def center(f: SpectralFn) -> SpectralFn:
    """Subtract the stationary mean: zero the constant coefficient."""
    c = f.coeffs.copy()
    c[0] = 0.0
    return SpectralFn(sigma_a=f.sigma_a, coeffs=c)


def project_linear(f: SpectralFn) -> SpectralFn:
    """Orthogonal projection onto the degree-1 eigenfunction span."""
    c = np.zeros(min(len(f.coeffs), 2))
    if len(f.coeffs) > 1:
        c[1] = f.coeffs[1]
    return SpectralFn(sigma_a=f.sigma_a, coeffs=c)


def pair_expect(f: SpectralFn, g: SpectralFn, a: float) -> SpectralFn:
    """Expected product over the two children, as a function of the parent.

    For the symmetric kernel the children are conditionally independent, so
    this is (Kf)(Kg) with K the one-step lineage chain.
    """
    return product(apply_kernel(f, a, 1), apply_kernel(g, a, 1))


def constant(value: float, sigma_a: float) -> SpectralFn:
    return SpectralFn(sigma_a=sigma_a, coeffs=np.array([float(value)]))


def identity(sigma_a: float) -> SpectralFn:
    """The coordinate function f(x) = x."""
    return SpectralFn(sigma_a=sigma_a, coeffs=np.array([0.0, sigma_a]))
