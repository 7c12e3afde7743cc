"""Numerical laboratory for autoregressive processes on binary trees.

The package simulates bifurcating autoregressive processes on full binary
trees, evaluates the limit variances of the associated central limit
theorems in closed form, cross-checks simulations against closed-form
moment formulas, and drives the phase-transition slope experiment.
`bmclab.cli` exposes the same studies as a command-line tool.
"""

from __future__ import annotations

import types

__version__ = "0.1.0"

from .errors import (
    BmcLabError,
    ComputationRejected,
    ConfigError,
    DegreeCapError,
    RegimeError,
    ResourceCapError,
)
from .experiments import (
    CltResult,
    ExperimentConfig,
    SlopeResult,
    SlopeSummary,
    SupercriticalResult,
    clt_study,
    h1,
    h2,
    martingale_path,
    slope_study,
    slope_summary,
    supercritical_study,
)
from .kernels import (
    CRITICAL,
    SUBCRITICAL,
    SUPERCRITICAL,
    AssumptionReport,
    BarParams,
    check_assumptions,
    classify_regime,
)
from .moments import (
    enumerated_cross_moment,
    enumerated_mean,
    enumerated_second_moment,
    exact_cross_moment,
    exact_mean,
    exact_second_moment,
)
from .rng import RandomStream
from .spectral import (
    SpectralFn,
    apply_kernel,
    as_monomial,
    center,
    from_monomial,
    pair_expect,
    product,
    project_linear,
    stationary_inner,
)
from .treesim import FunctionalSeq, InitialLaw, generation_sums, replicate
from .variance import VarianceReport, limit_variance

# The public names imported above: no submodule, no __future__ feature.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and name != "annotations"
    and not isinstance(value, types.ModuleType)
) + ["__version__"]
