"""Numerical laboratory for autoregressive processes on binary trees.

The package simulates bifurcating autoregressive processes on full binary
trees, evaluates the limit variances of the associated central limit
theorems in closed form, cross-checks simulations against closed-form
moment formulas, and drives the phase-transition slope experiment.
`bmclab.cli` exposes the same studies as a command-line tool.
"""

from __future__ import annotations

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
from .variance import VarianceReport, critical_variance, subcritical_variance

__all__ = [
    "AssumptionReport",
    "BarParams",
    "BmcLabError",
    "CRITICAL",
    "CltResult",
    "ComputationRejected",
    "ConfigError",
    "DegreeCapError",
    "ExperimentConfig",
    "FunctionalSeq",
    "InitialLaw",
    "RandomStream",
    "RegimeError",
    "ResourceCapError",
    "SUBCRITICAL",
    "SUPERCRITICAL",
    "SlopeResult",
    "SlopeSummary",
    "SpectralFn",
    "SupercriticalResult",
    "VarianceReport",
    "apply_kernel",
    "as_monomial",
    "center",
    "check_assumptions",
    "classify_regime",
    "clt_study",
    "critical_variance",
    "enumerated_cross_moment",
    "enumerated_mean",
    "enumerated_second_moment",
    "exact_cross_moment",
    "exact_mean",
    "exact_second_moment",
    "from_monomial",
    "generation_sums",
    "h1",
    "h2",
    "martingale_path",
    "pair_expect",
    "product",
    "project_linear",
    "replicate",
    "slope_study",
    "slope_summary",
    "stationary_inner",
    "subcritical_variance",
    "supercritical_study",
    "__version__",
]
