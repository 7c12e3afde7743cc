"""Transition kernel of the symmetric Gaussian autoregressive branching model.

Each node with trait x has two children with traits

    (a*x + sigma*e0,  a*x + sigma*e1),

with e0, e1 independent standard normals.  The chain observed along a
uniformly random lineage is the AR(1) chain with invariant law
N(0, sigma_a^2), sigma_a = sigma/sqrt(1-a^2).

The module also houses the checker for the integrability conditions the
limit theorems rest on; these reduce symbolically to sign conditions on
Gaussian envelope exponents, decided exactly.  Its cached Gauss-Hermite rules
serve the exact and enumerated moments in `moments`.
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


# --- assumption checker ----------------------------------------------------
#
# Every function below is a Gaussian envelope c*exp(g*x^2); the kernel maps
# (c, g) -> (c*(1-2g s^2)^(-1/2), g a^2/(1-2g s^2)) when 2g s^2 < 1 and to a
# divergent result otherwise, and the invariant integral of c*exp(g*x^2) is
# c*(1-2g sa^2)^(-1/2) when 2g sa^2 < 1.  Finiteness of each norm is thus a
# sign condition, decided exactly.
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


def check_assumptions(a: float) -> AssumptionReport:
    """Decide the three integrability conditions for slope a.

    Returns exact sign-condition booleans, the finite norms with every
    margin, and a near-threshold flag for each margin within 1e-3 of zero.
    """
    BarParams(a)
    var_a = 1.0 / (1.0 - a * a)
    flags: list[str] = []
    norms: dict[str, float] = {}

    # The L2 size of density row x is c_h * exp(g_h * x^2) at sigma = 1.
    c_h, g_h = (1.0 - a**4) ** -0.25, a * a * (1.0 - a * a) / ((1.0 + a * a) * 2.0)

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
    return AssumptionReport(
        a=a,
        h_in_L4=h_finite,
        Qh_in_L4=qh_finite,
        hilsch2_holds=hs_finite,
        norms=norms,
        flags=tuple(flags),
    )
