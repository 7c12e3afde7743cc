"""Exception hierarchy shared across the package.

The command-line front end maps these onto process exit codes, so the split
mirrors the user-visible failure classes: bad configuration, a computation
that is rejected on mathematical grounds, and resource caps.
"""

from __future__ import annotations

import math


class BmcLabError(Exception):
    """Base class for all package errors."""


class ConfigError(BmcLabError):
    """Invalid or inconsistent parameters, options, or input files."""


class ComputationRejected(BmcLabError):
    """The requested quantity is not defined for the given inputs."""


class RegimeError(ComputationRejected):
    """Operation called outside the ergodicity regime it is defined for."""


class DegreeCapError(ComputationRejected):
    """A spectral operation would exceed the polynomial degree cap."""


class ResourceCapError(BmcLabError):
    """The request exceeds a hard memory or enumeration limit."""


def finite_fsum(terms, message: str) -> float:
    """math.fsum of the terms (an iterable, maybe lazy), rejected unless finite."""
    try:
        total = math.fsum(terms)
    except (OverflowError, ValueError):  # a power or partial sum overflows; inf - inf
        total = math.nan
    if not math.isfinite(total):
        raise ComputationRejected(message)
    return total
