"""Numerical laboratory for autoregressive processes on binary trees.

The package simulates bifurcating autoregressive processes on full binary
trees, evaluates the limit variances of the associated central limit
theorems in closed form, cross-checks simulations against closed-form
moment formulas, and drives the phase-transition slope experiment.
`bmclab.cli` exposes the same studies as a command-line tool.
"""

from __future__ import annotations

import os
import types

__version__ = "0.1.0"

# numpy and scipy.special each load an OpenBLAS that would start a helper
# thread spinning ~0.1 s of CPU; nothing here uses it.  A caller's own setting
# wins, and the caller's environment is given back.
_blas_threads = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
try:
    from . import experiments  # numpy, and scipy.special through rng
finally:
    if _blas_threads is None:
        os.environ.pop("OPENBLAS_NUM_THREADS", None)

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
    SupercriticalResult,
    clt_study,
    h1,
    h2,
    martingale_path,
    replicate,
    slope_study,
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
from .rng import derive_keys, seed_key
from .spectral import (
    SpectralFn,
    apply_kernel,
    center,
    from_monomial,
    product,
    project_linear,
    stationary_inner,
)
from .treesim import InitialLaw, generation_sums
from .variance import VarianceReport, limit_variance

# The public names imported above: no submodule, no __future__ feature.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and name != "annotations"
    and not isinstance(value, types.ModuleType)
) + ["__version__"]
