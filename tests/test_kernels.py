import math

import numpy as np
import pytest
from scipy.stats import kstest

from bmclab.errors import ConfigError
from bmclab.kernels import (
    CRITICAL,
    SUBCRITICAL,
    SUPERCRITICAL,
    BarParams,
    check_assumptions,
    classify_regime,
)
from bmclab.rng import derive_keys, seed_key
from bmclab.treesim import _advance
from oracles import (
    density_row_norm,
    direct_quadrature_sums,
    gaussian_expect,
    pair_density,
    transition_density,
)

# The slopes whose reports raise flags, divergent slopes, the critical slope,
# the ends of (-1, 1) and a grid across it.
CROSS_CHECK_SLOPES = sorted(
    {0.5772, -0.5772, 0.7239, -0.7239, 0.7596, -0.7596, 0.9, 0.999, -0.999,
     2.0**-0.5, 1.0 - 2.0**-53, -(1.0 - 2.0**-53), 5e-324, 0.0,
     *np.linspace(-0.98, 0.98, 25).tolist()})
# Gauss-Hermite at order 128 misses a closed-form norm by more than 1e-3 at
# margins up to 0.0218 (a fine scan of the three thresholds; a = 0.7543 at
# 0.0216 is on the grid below), so the check starts at 0.025.
_QUADRATURE_MARGIN = 0.025


def test_params_validation():
    with pytest.raises(ConfigError):
        BarParams(a=1.0)
    # sigma^2 must be a finite normal float: 1e-160 squares to a subnormal,
    # 1e-200 to zero and 1e200 to inf.
    for sigma in (0.0, -1.0, math.nan, math.inf, 1e-160, 1e-200, 1e200):
        with pytest.raises(ConfigError):
            BarParams(a=0.5, sigma=sigma)
    for sigma in (1.5e-154, 1e-100, 1e100, 1.3e154):
        assert BarParams(a=0.5, sigma=sigma).sigma == sigma
    q = BarParams.symmetric_params(0.5)  # the benchmark's constructor
    assert q == BarParams(0.5, 1.0)
    assert abs(q.sigma_a() - 1.0 / math.sqrt(0.75)) < 1e-15


def test_regime_classification():
    assert classify_regime(0.5) == SUBCRITICAL
    assert classify_regime(-0.5) == SUBCRITICAL
    assert classify_regime(1.0 / math.sqrt(2.0)) == CRITICAL
    assert classify_regime(0.85) == SUPERCRITICAL
    eps = 1e-13
    assert classify_regime(math.sqrt(0.5 * (1.0 + eps))) == CRITICAL
    assert classify_regime(math.sqrt(0.5 * (1.0 + 1e-10))) == SUPERCRITICAL
    assert classify_regime(math.sqrt(0.5 * (1.0 - 1e-10))) == SUBCRITICAL
    with pytest.raises(ConfigError):
        classify_regime(1.0)


def _children(x, params, seed, count):
    """count child pairs below trait x: one step of the engine's _advance."""
    keys = np.array([seed_key(seed)], dtype=np.uint64)
    tree = np.full((1, 1, 2 * count), float(x))
    _advance(tree, count, [(params, [])], keys, np.empty((1, 1, 0)), None)
    return tree[0, 0, 0::2], tree[0, 0, 1::2]


def _lineage(x, n, params, seed, count):
    """count traits n generations down the first-child lineage, by _advance."""
    keys = derive_keys(seed_key(seed), np.arange(count))
    tree = np.full((1, count, 2), float(x))
    for g in range(n):
        _advance(tree, 1, [(params, [])], derive_keys(keys, g + 1),
                 np.empty((1, count, 0)), None)
    return tree[0, :, 0]


def test_children_deterministic_limit():
    y, z = _children(1.0, BarParams(a=0.5, sigma=1e-12), 1, 1)
    assert abs(y[0] - 0.5) < 1e-9
    assert abs(z[0] - 0.5) < 1e-9


def test_children_independent_when_uncorrelated():
    y, z = _children(0.0, BarParams(0.5), 2, 100_000)
    corr = np.corrcoef(y, z)[0, 1]
    assert abs(corr) < 0.01


def test_children_match_one_step_chain():
    # Averaging over either child reproduces one lineage step (3 SE).
    params = BarParams(0.5)
    x = 0.7
    y, z = _children(x, params, 4, 100_000)
    for side in (y, z):
        vals = side**2
        want = gaussian_expect(lambda v: v**2, mean=0.5 * x, std=1.0, order=64)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - want) < 3.0 * se


def test_lineage_endpoints():
    assert _lineage(3.25, 0, BarParams(0.5), 5, 3).tolist() == [3.25] * 3
    # Fifty steps forget the start: the trait follows the invariant law.
    draws = _lineage(0.0, 50, BarParams(0.5), 5, 10_000)
    sigma_a = BarParams(0.5).sigma_a()
    assert kstest(draws, "norm", args=(0.0, sigma_a)).statistic < 0.02


def test_lineage_mean():
    # Two steps from x = 4 at a = 0.5: mean a^2 x = 1 and variance
    # (1 - a^4) sigma_a^2, the closed-form n-step law.
    params = BarParams(0.5)
    draws = _lineage(4.0, 2, params, 6, 100_000)
    se = draws.std(ddof=1) / math.sqrt(len(draws))
    assert abs(draws.mean() - 1.0) < 3.0 * se
    var = (1.0 - 0.5**4) * params.sigma_a() ** 2
    assert abs(draws.var(ddof=1) - var) < 4.0 * var * math.sqrt(2.0 / len(draws))


def test_transition_density_pinned():
    assert abs(transition_density(0.3, -1.2, BarParams(0.0)) - 1.0) < 1e-15
    got = transition_density(0.0, 0.0, BarParams(0.5))
    assert abs(got - 0.75**-0.5) < 1e-12
    assert abs(got - 1.1547) < 1e-4
    xs = np.array([0.4, -1.0, 2.2])
    ys = np.array([-0.3, 0.9, 1.1])
    assert np.allclose(
        transition_density(xs, ys, BarParams(0.6)), transition_density(ys, xs, BarParams(0.6))
    )


def test_densities_normalize():
    params = BarParams(0.5)
    sigma_a = params.sigma_a()
    for x in [0.0, 1.0, 2.0]:
        total = gaussian_expect(
            lambda y: transition_density(x, y, params), std=sigma_a, order=64
        )
        assert abs(total - 1.0) < 1e-10
        pair_total = gaussian_expect(
            lambda y: np.array(
                [
                    gaussian_expect(
                        lambda z: pair_density(x, yi, z, params), std=sigma_a, order=64
                    )
                    for yi in y
                ]
            ),
            std=sigma_a,
            order=64,
        )
        assert abs(pair_total - 1.0) < 1e-8


def test_pair_density_factorizes_symmetric():
    params = BarParams(0.6)
    got = pair_density(0.5, 1.0, -0.7, params)
    want = transition_density(0.5, 1.0, params) * transition_density(0.5, -0.7, params)
    assert got == want


def test_row_norm_closed_form():
    for a in [0.0, 0.3, 0.5, 0.85]:
        assert abs(density_row_norm(0.0, a) - (1.0 - a**4) ** -0.25) < 1e-14
    assert density_row_norm(2.0, 0.0) == 1.0
    # Defining integral: h(x)^2 is the invariant-law integral of q(x,.)^2.
    params = BarParams(0.5)
    sigma_a = params.sigma_a()
    for x in [0.0, 1.0, -2.0]:
        direct = gaussian_expect(
            lambda y: transition_density(x, y, params) ** 2, std=sigma_a, order=96
        )
        got = density_row_norm(x, 0.5) ** 2
        assert abs(got - direct) < 1e-8 * (1.0 + abs(direct))


def test_assumption_booleans_pinned():
    r = check_assumptions(0.5)
    assert r.h_in_L4 and r.Qh_in_L4 and r.hilsch2_holds
    assert check_assumptions(0.76).Qh_in_L4 is False
    assert check_assumptions(0.75).Qh_in_L4 is True
    r73 = check_assumptions(0.73)
    assert r73.hilsch2_holds is False
    assert r73.Qh_in_L4 is True
    assert check_assumptions(0.57).h_in_L4 is True
    assert check_assumptions(0.58).h_in_L4 is False
    assert check_assumptions(0.724).hilsch2_holds is True
    assert check_assumptions(0.725).hilsch2_holds is False


def test_assumption_report_details():
    r = check_assumptions(0.5)
    for key in ("h_L4", "Qh_L4", "hilsch2_L2"):
        assert r.norms[key] > 0.0
    assert r.norms["h_L4_margin"] > 0.0
    d = r.as_json_dict()
    assert list(d.keys()) == ["a", "h_in_L4", "Qh_in_L4", "hilsch2_holds", "norms", "flags"]
    near = check_assumptions(0.724)
    assert any(f.startswith("near-threshold:hilsch2") for f in near.flags)
    diverged = check_assumptions(0.9)
    assert "h_L4" not in diverged.norms
    assert not diverged.h_in_L4


@pytest.mark.parametrize(
    "a", sorted({*CROSS_CHECK_SLOPES, *np.linspace(-0.999, 0.999, 99).tolist()}))
def test_factored_quadrature_sums_match_the_direct_sum(a):
    # The checker factors each norm integral into Gaussian envelopes.  Away
    # from its threshold a finite norm is the direct Gauss-Hermite sum at
    # order 128; past it, the sums blow up or grow with the order.
    report = check_assumptions(a)
    targets = (("h_L4", "h_L4", report.h_in_L4, 4), ("Qh_L4", "Qh_L4", report.Qh_in_L4, 4),
               ("hilsch2", "hilsch2_L2", report.hilsch2_holds, 2))
    orders = (128,) if all(t[2] for t in targets) else (32, 64, 128)
    sums = np.array([direct_quadrature_sums(a, k) for k in orders])
    for j, (name, key, finite, power) in enumerate(targets):
        if not finite:
            assert key not in report.norms
            assert not np.all(np.isfinite(sums[:, j])) or np.all(np.diff(sums[:, j]) > 0.0)
        elif report.norms[f"{name}_margin"] >= _QUADRATURE_MARGIN:
            closed = report.norms[key] ** power
            assert math.isfinite(closed)
            assert abs(sums[-1, j] - closed) <= 1e-3 * (1.0 + closed)
