"""Transition kernel of the symmetric Gaussian autoregressive branching model.

Each node with trait x has two children with traits

    (a*x + sigma*e0,  a*x + sigma*e1),

with e0, e1 independent standard normals.  The chain observed along a
uniformly random lineage is the AR(1) chain with invariant law
N(0, sigma_a^2), sigma_a = sigma/sqrt(1-a^2).

The module also houses the numeric checker for the integrability conditions
the limit theorems rest on; these reduce symbolically to sign conditions on
Gaussian envelope exponents, which quadrature then cross-checks.  Its cached
Gauss-Hermite rules also serve the exact and enumerated moments in `moments`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .errors import ConfigError

EPS_REGIME = 1e-12

SUBCRITICAL = "subcritical"
CRITICAL = "critical"
SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class BarParams:
    """Kernel parameters: the slope a and the noise scale sigma."""

    a: float
    sigma: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.a) and -1.0 < self.a < 1.0):
            raise ConfigError(f"a must lie in (-1, 1), got {self.a}")
        # sigma^2 must be a normal float: every variance and density below
        # divides by it or by a multiple of it.
        var = self.sigma * self.sigma
        if not (self.sigma > 0.0 and sys.float_info.min <= var < math.inf):
            raise ConfigError(
                f"sigma must be positive with a finite normal square, got {self.sigma}")

    @classmethod
    def symmetric_params(cls, a: float, sigma: float = 1.0) -> "BarParams":
        """BarParams(a, sigma); kept only for perfbench/workloads.py."""
        return cls(a, sigma)

    def sigma_a(self) -> float:
        return self.sigma / math.sqrt(1.0 - self.a * self.a)


def classify_regime(a: float) -> str:
    """Ergodicity regime of the generation sizes versus the mixing rate."""
    if not (-1.0 < a < 1.0):
        raise ConfigError(f"slope must lie in (-1, 1), got {a}")
    two_a_sq = 2.0 * a * a
    if two_a_sq < 1.0 - EPS_REGIME:
        return SUBCRITICAL
    if two_a_sq <= 1.0 + EPS_REGIME:
        return CRITICAL
    return SUPERCRITICAL


def density_row_norm(x, a: float):
    """L2 size of one density row: (integral of q(x,.)^2 d(invariant))^(1/2).

    Closed form (1-a^4)^(-1/4) * exp(a^2(1-a^2)/(1+a^2) * x^2/2) at sigma = 1.
    """
    if not (-1.0 < a < 1.0):
        raise ConfigError(f"slope must lie in (-1, 1), got {a}")
    x = np.asarray(x, dtype=np.float64)
    c, g = _row_envelope(a)
    return c * np.exp(g * x * x)


def _row_envelope(a: float) -> tuple[float, float]:
    """(c, g) with density_row_norm(x, a) = c * exp(g * x^2)."""
    return (1.0 - a**4) ** -0.25, a * a * (1.0 - a * a) / ((1.0 + a * a) * 2.0)


# --- assumption checker ----------------------------------------------------
#
# Every function below is a Gaussian envelope c*exp(g*x^2); the kernel maps
# (c, g) -> (c*(1-2g s^2)^(-1/2), g a^2/(1-2g s^2)) when 2g s^2 < 1 and to a
# divergent result otherwise, and the invariant integral of c*exp(g*x^2) is
# c*(1-2g sa^2)^(-1/2) when 2g sa^2 < 1.  Finiteness of each norm is thus a
# sign condition, decided exactly; quadrature serves as the cross-check.
# Rescaling x by sigma changes no c or margin, so the checker works at sigma = 1.


@dataclass(frozen=True)
class AssumptionReport:
    a: float
    h_in_L4: bool
    Qh_in_L4: bool
    hilsch2_holds: bool
    norms: dict
    flags: tuple

    def as_json_dict(self) -> dict:
        """The report's fields in declaration order, as JSON values."""
        return {**asdict(self), "flags": list(self.flags)}


@lru_cache(maxsize=None)
def hermite_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's cached, read-only Gauss-Hermite rule for weight exp(-t^2)."""
    nodes, weights = hermgauss(order)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _push_envelope(c: float, g: float, a: float) -> tuple[float, float, float]:
    """Kernel action on c*exp(g x^2); returns (c', g', validity margin)."""
    margin = 1.0 - 2.0 * g
    if margin <= 0.0:
        return math.inf, math.inf, margin
    return c / math.sqrt(margin), g * a * a / margin, margin

_NEAR_THRESHOLD = 1e-3
_CROSS_CHECK_ORDERS = (32, 64, 128)
# 16 * 128^2 = 2^18 multiply-adds per product: OpenBLAS's single-thread cutoff.
_SLAB_ROWS = 16


def check_assumptions(a: float) -> AssumptionReport:
    """Decide the three integrability conditions for slope a.

    Returns exact sign-condition booleans; the finite norms; and flags for
    near-threshold margins or quadrature disagreement.  Booleans are never
    silently flipped by the numeric cross-check.
    """
    BarParams(a)
    var_a = 1.0 / (1.0 - a * a)
    flags: list[str] = []
    norms: dict[str, float] = {}

    c_h, g_h = _row_envelope(a)

    def l_norm(c: float, g: float, power: int) -> tuple[bool, float, float]:
        """(finite?, norm value, margin) of the L^power invariant norm.

        The integral of (c e^{g x^2})^power under the invariant law is
        finite exactly when 2*power*g*var_a < 1.
        """
        margin = 1.0 - 2.0 * power * g * var_a
        if margin <= 0.0:
            return False, math.inf, margin
        return True, (c**power / math.sqrt(margin)) ** (1.0 / power), margin

    h_finite, h_norm, h_margin = l_norm(c_h, g_h, 4)
    c_qh, g_qh, _ = _push_envelope(c_h, g_h, a)
    qh_finite, qh_norm, qh_margin = l_norm(c_qh, g_qh, 4)

    # Composite: (one kernel step of (Qh)^2) times Qh, measured in L2.
    c_sq, g_sq, push_margin = _push_envelope(c_qh**2, 2.0 * g_qh, a)
    if push_margin > 0.0:
        c_mix, g_mix = c_sq * c_qh, g_sq + g_qh
        hs_finite, hs_norm, hs_margin = l_norm(c_mix, g_mix, 2)
    else:
        hs_finite, hs_norm, hs_margin = False, math.inf, push_margin

    for name, margin in (("h_L4", h_margin), ("Qh_L4", qh_margin), ("hilsch2", hs_margin)):
        norms[f"{name}_margin"] = margin
        if abs(margin) < _NEAR_THRESHOLD:
            flags.append(f"near-threshold:{name}")
    if h_finite:
        norms["h_L4"] = h_norm
    if qh_finite:
        norms["Qh_L4"] = qh_norm
    if hs_finite:
        norms["hilsch2_L2"] = hs_norm

    targets = (("h_L4", h_finite, h_norm, 4), ("Qh_L4", qh_finite, qh_norm, 4),
               ("hilsch2", hs_finite, hs_norm, 2))
    flags.extend(_quadrature_cross_check(a, targets))
    return AssumptionReport(
        a=a,
        h_in_L4=h_finite,
        Qh_in_L4=qh_finite,
        hilsch2_holds=hs_finite,
        norms=norms,
        flags=tuple(flags),
    )


@np.errstate(over="ignore")
def _quadrature_sums(a: float, order: int) -> tuple[float, float, float]:
    """Gauss-Hermite sums of the three norm integrals at one order.

    The composite integrand needs, on the grid mids[i, j] = a*xs_i + rt2*t_j,
    the k-sum of wn_k h(a*mids[i, j] + rt2*t_k) with h(z) = c*exp(g z^2).
    Expanding the square makes each term h(a*mids[i, j]) * left[i, k] * right[j, k],
    so the order^3 sum is the matrix product left @ right (right is symmetric).
    """
    rt2 = math.sqrt(2.0)
    t, w = hermite_nodes(order)
    wn = w / math.sqrt(math.pi)
    xs = math.sqrt(1.0 / (1.0 - a * a)) * rt2 * t
    i1 = float(np.dot(wn, density_row_norm(xs, a) ** 4))
    mids = a * xs[:, None] + rt2 * t[None, :]
    qh_xs = np.dot(density_row_norm(mids, a), wn)
    i2 = float(np.dot(wn, qh_xs**4))
    g = _row_envelope(a)[1]
    left = np.exp((2.0 * rt2 * g * a * a) * np.outer(xs, t)) * (wn * np.exp(2.0 * g * t * t))
    right = np.exp((4.0 * g * a) * np.outer(t, t))
    slabs = [left[i:i + _SLAB_ROWS] @ right for i in range(0, order, _SLAB_ROWS)]
    qh_mids = np.concatenate(slabs) * density_row_norm(a * mids, a)
    q_qh_sq = np.dot(qh_mids**2, wn)
    i3 = float(np.dot(wn, (q_qh_sq * qh_xs) ** 2))
    return i1, i2, i3


def _quadrature_cross_check(a, targets) -> list[str]:
    """Evaluate the three norm integrals numerically at increasing orders.

    targets holds (name, finite?, closed-form norm, power) per integral.
    Finite cases must approach the closed form; divergent cases must grow
    with the order.  Either failure is reported as a flag.
    """
    flags: list[str] = []
    seq = np.array([_quadrature_sums(a, k) for k in _CROSS_CHECK_ORDERS])
    for j, (name, finite, norm, power) in enumerate(targets):
        vals = seq[:, j]
        if finite:
            closed = norm**power
            if not math.isfinite(closed) or abs(vals[-1] - closed) > 1e-3 * (1.0 + closed):
                flags.append(f"quadrature-slow-convergence:{name}")
        else:
            diverging = (not np.all(np.isfinite(vals))) or np.all(np.diff(vals) > 0.0)
            if not diverging:
                flags.append(f"quadrature-not-diverging:{name}")
    return flags
