"""Tests for the binary-tree simulation engine and fluctuation statistics."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from bmclab.errors import ConfigError, RegimeError, ResourceCapError
from bmclab.kernels import BarParams
from bmclab.rng import RandomStream
from bmclab.spectral import apply_kernel, center, constant, from_monomial, identity
from bmclab import treesim
from bmclab.treesim import (
    FunctionalSeq,
    GenerationBuffer,
    InitialLaw,
    TreeIndex,
    common_ancestor_depth,
    fluctuation_statistic,
    generation_sum,
    generation_sums,
    iter_generations,
    replicate,
    simulate,
)


def _config(params, nu, fseq, n, replicas, master_seed):
    return SimpleNamespace(
        params=params, nu=nu, fseq=fseq, n=n, replicas=replicas,
        master_seed=master_seed,
    )


def test_tree_index_navigation():
    root = TreeIndex(0, 0)
    left, right = root.children()
    assert (left.gen, left.pos) == (1, 0)
    assert (right.gen, right.pos) == (1, 1)
    assert left.parent() == root
    assert right.parent() == root
    node = TreeIndex(4, 11)
    for child in node.children():
        assert child.parent() == node
    with pytest.raises(ConfigError):
        root.parent()
    with pytest.raises(ConfigError):
        TreeIndex(2, 4)
    with pytest.raises(ConfigError):
        TreeIndex(-1, 0)


def test_common_ancestor_depth():
    assert common_ancestor_depth(TreeIndex(3, 0), TreeIndex(3, 1)) == 2
    assert common_ancestor_depth(TreeIndex(3, 0), TreeIndex(3, 3)) == 1
    assert common_ancestor_depth(TreeIndex(3, 0), TreeIndex(3, 4)) == 0
    assert common_ancestor_depth(TreeIndex(3, 3), TreeIndex(2, 1)) == 2
    assert common_ancestor_depth(TreeIndex(2, 1), TreeIndex(3, 3)) == 2
    node = TreeIndex(5, 19)
    assert common_ancestor_depth(node, node) == 5
    assert common_ancestor_depth(node, node.parent()) == 4


def test_generation_buffer_validation():
    buf = GenerationBuffer(gen=2, values=np.arange(4.0))
    assert len(buf) == 4
    assert not buf.values.flags.writeable
    with pytest.raises(ConfigError):
        GenerationBuffer(gen=2, values=np.arange(3.0))


def test_initial_law():
    assert InitialLaw.dirac(1.5).label() == "dirac(1.5)"
    assert InitialLaw.stationary().label() == "stationary"
    assert InitialLaw.gaussian(0.5, 2.0).label() == "gaussian(0.5,2)"
    with pytest.raises(ConfigError):
        InitialLaw.gaussian(0.0, 0.0)
    with pytest.raises(ConfigError):
        InitialLaw(kind="uniform")


def test_functional_seq_shapes():
    f = identity(1.0)
    g = from_monomial([0.0, 0.0, 1.0], 1.0)

    single = FunctionalSeq.single(f)
    assert single.func_at(0) is f
    assert single.func_at(1) is None

    tree = FunctionalSeq.tree(f)
    assert tree.func_at(0) is f
    assert tree.func_at(7) is f

    custom = FunctionalSeq.custom([f, g])
    assert custom.func_at(0) is f
    assert custom.func_at(1) is g
    assert custom.func_at(2) is None

    with pytest.raises(ConfigError):
        FunctionalSeq(shape="single", funcs=(f, g))
    with pytest.raises(ConfigError):
        FunctionalSeq.custom([])
    with pytest.raises(ConfigError):
        FunctionalSeq.custom([f, lambda x: x])


def test_buffer_lengths_and_generations():
    params = BarParams.symmetric_params(0.5)
    gens = simulate(InitialLaw.stationary(), params, 5, RandomStream.from_seed(3))
    assert [len(buf) for buf in gens] == [1, 2, 4, 8, 16, 32]
    assert [buf.gen for buf in gens] == [0, 1, 2, 3, 4, 5]


def test_near_deterministic_limit():
    params = BarParams.symmetric_params(0.5, sigma=1e-12)
    gens = simulate(InitialLaw.dirac(1.0), params, 2, RandomStream.from_seed(0))
    assert np.allclose(gens[1].values, 0.5, atol=1e-9)
    assert np.allclose(gens[2].values, 0.25, atol=1e-9)
    f = identity(params.sigma_a())
    assert generation_sum(gens[2], f) == pytest.approx(1.0, abs=1e-9)


def test_streaming_matches_full():
    params = BarParams(a0=0.4, a1=0.7, b0=0.5, b1=-0.2, sigma=1.1, rho=0.3)
    nu = InitialLaw.gaussian(0.3, 0.8)
    stream = RandomStream.from_seed(11)
    gens = simulate(nu, params, 6, stream)
    f = from_monomial([0.0, 1.0, 0.5], 1.0)
    accs = (len, lambda buf: generation_sum(buf, f), lambda buf: float(buf.values.max()))
    streamed = simulate(nu, params, 6, stream, mode="streaming", accumulators=accs)
    assert len(streamed) == 7
    for buf, row in zip(gens, streamed):
        assert row[0] == len(buf)
        assert row[1] == generation_sum(buf, f)
        assert row[2] == buf.values.max()
    with pytest.raises(ConfigError):
        simulate(nu, params, 3, stream, mode="lazy")


def test_same_stream_same_tree():
    params = BarParams.symmetric_params(0.6)
    nu = InitialLaw.stationary()
    first = simulate(nu, params, 7, RandomStream.from_seed(42))
    second = simulate(nu, params, 7, RandomStream.from_seed(42))
    for a, b in zip(first, second):
        assert np.array_equal(a.values, b.values)
    other = simulate(nu, params, 7, RandomStream.from_seed(43))
    assert not np.array_equal(first[7].values, other[7].values)


def test_depth_cap():
    params = BarParams.symmetric_params(0.5)
    nu = InitialLaw.dirac(0.0)
    with pytest.raises(ResourceCapError, match="bytes"):
        simulate(nu, params, treesim.N_MAX + 1, RandomStream.from_seed(0))
    with pytest.raises(ResourceCapError):
        generation_sums(params, nu, [identity(params.sigma_a())], treesim.N_MAX + 1,
                        RandomStream.from_seed(0).split_keys(np.arange(2)))
    with pytest.raises(ResourceCapError):
        simulate(nu, params, 6, RandomStream.from_seed(0), n_cap=5)
    with pytest.raises(ConfigError):
        simulate(nu, params, -1, RandomStream.from_seed(0))


def test_stationary_root_needs_symmetric_kernel():
    params = BarParams(a0=0.4, a1=0.7)
    with pytest.raises(ConfigError):
        simulate(InitialLaw.stationary(), params, 2, RandomStream.from_seed(0))


def test_child_pair_joint_moments():
    params = BarParams(a0=0.4, a1=0.7, b0=0.5, b1=-0.25, sigma=1.2, rho=0.6)
    rows = 40_000
    keys = RandomStream.from_seed(7).split_keys(np.arange(rows))
    parents = np.full((rows, 1), 2.0)
    children = treesim._advance(parents, params, keys)
    y, z = children[:, 0], children[:, 1]
    se_mean = 4 * params.sigma / math.sqrt(rows)
    assert abs(y.mean() - (0.4 * 2.0 + 0.5)) < se_mean
    assert abs(z.mean() - (0.7 * 2.0 - 0.25)) < se_mean
    var = params.sigma**2
    se_var = 4 * var * math.sqrt(2.0 / rows)
    assert abs(y.var(ddof=1) - var) < se_var
    assert abs(z.var(ddof=1) - var) < se_var
    cov = np.cov(y, z)[0, 1]
    se_cov = 4 * math.sqrt((var**2 + params.rho**2) / rows)
    assert abs(cov - params.rho) < se_cov


def test_leaf_marginal_distribution():
    a, n, x0 = 0.6, 6, 0.7
    params = BarParams.symmetric_params(a)
    nu = InitialLaw.dirac(x0)
    master = RandomStream.from_seed(19)
    leaves = np.array([
        simulate(nu, params, n, master.split(r))[n].values[0]
        for r in range(1500)
    ])
    mean = a**n * x0
    std = math.sqrt((1.0 - a ** (2 * n)) * params.sigma_a() ** 2)
    result = stats.kstest(leaves, "norm", args=(mean, std))
    assert result.pvalue > 0.01


def test_generation_mean_matches_iterated_kernel():
    x0 = 1.0
    rows = 2000
    n = 8
    for a in (0.3, 1.0 / math.sqrt(2.0), 0.85):
        params = BarParams.symmetric_params(a)
        f = from_monomial([0.0, 0.0, 1.0], params.sigma_a())
        keys = RandomStream.from_seed(101).split_keys(np.arange(rows))
        sums = generation_sums(params, InitialLaw.dirac(x0), [f], n, keys)
        sample = sums[:, n, 0]
        exact = 2.0**n * apply_kernel(f, a, steps=n)(x0)
        se = sample.std(ddof=1) / math.sqrt(rows)
        assert abs(sample.mean() - exact) < 4 * se


def test_fluctuation_statistic_shapes():
    params = BarParams.symmetric_params(0.5)
    sigma_a = params.sigma_a()
    n = 6
    gens = simulate(InitialLaw.stationary(), params, n, RandomStream.from_seed(5))
    f = from_monomial([0.2, 1.0, 0.3], sigma_a)
    g = from_monomial([0.0, 0.0, 1.0], sigma_a)
    scale = math.sqrt(2.0**n)

    single = fluctuation_statistic(gens, FunctionalSeq.single(f), n)
    assert single == pytest.approx(generation_sum(gens[n], center(f)) / scale, rel=1e-12)

    tree = fluctuation_statistic(gens, FunctionalSeq.tree(f), n)
    whole = sum(generation_sum(buf, center(f)) for buf in gens)
    assert tree == pytest.approx(whole / scale, rel=1e-12)

    custom = fluctuation_statistic(gens, FunctionalSeq.custom([f, g]), n)
    manual = (generation_sum(gens[n], center(f))
              + generation_sum(gens[n - 1], center(g))) / scale
    assert custom == pytest.approx(manual, rel=1e-12)

    flat = constant(3.0, sigma_a)
    assert fluctuation_statistic(gens, FunctionalSeq.single(flat), n) == 0.0
    with pytest.raises(ConfigError):
        fluctuation_statistic(gens[:n], FunctionalSeq.single(f), n)


def test_replicate_matches_simulate_per_replica():
    params = BarParams.symmetric_params(0.5)
    f = from_monomial([0.1, 1.0, 0.4], params.sigma_a())
    n, seed = 6, 909
    nu = InitialLaw.stationary()
    for fseq in (FunctionalSeq.single(f), FunctionalSeq.tree(f)):
        values = replicate(_config(params, nu, fseq, n, 3, seed))
        master = RandomStream.from_seed(seed)
        for r in range(3):
            gens = simulate(nu, params, n, master.split(r))
            manual = fluctuation_statistic(gens, fseq, n)
            assert values[r] == pytest.approx(manual, rel=1e-12, abs=1e-12)


def test_replicate_critical_and_supercritical_scaling():
    n, seed = 5, 31
    nu = InitialLaw.dirac(0.0)

    a_crit = 1.0 / math.sqrt(2.0)
    params = BarParams.symmetric_params(a_crit)
    f = identity(params.sigma_a())
    values = replicate(_config(params, nu, FunctionalSeq.single(f), n, 2, seed))
    master = RandomStream.from_seed(seed)
    gens = simulate(nu, params, n, master.split(0))
    raw = generation_sum(gens[n], center(f))
    assert values[0] == pytest.approx(raw / math.sqrt(n * 2.0**n), rel=1e-12)

    params = BarParams.symmetric_params(0.85)
    f = from_monomial([0.3, 1.0, 0.2], params.sigma_a())
    single = replicate(_config(params, nu, FunctionalSeq.single(f), n, 2, seed))
    tree = replicate(_config(params, nu, FunctionalSeq.tree(f), n, 2, seed))
    gens = simulate(nu, params, n, RandomStream.from_seed(seed).split(0))
    scale = (2.0 * 0.85) ** n
    assert single[0] == pytest.approx(generation_sum(gens[n], center(f)) / scale,
                                      rel=1e-12)
    whole = sum(generation_sum(buf, center(f)) for buf in gens)
    assert tree[0] == pytest.approx(whole / scale, rel=1e-12)

    with pytest.raises(RegimeError):
        replicate(_config(params, nu, FunctionalSeq.custom([f, f]), n, 2, seed))
    params_crit = BarParams.symmetric_params(a_crit)
    f_crit = identity(params_crit.sigma_a())
    with pytest.raises(ConfigError):
        replicate(_config(params_crit, nu, FunctionalSeq.single(f_crit), 0, 2, seed))


def test_replicate_validation():
    params = BarParams.symmetric_params(0.5)
    f = identity(params.sigma_a())
    nu = InitialLaw.stationary()
    with pytest.raises(ConfigError):
        replicate(_config(params, nu, FunctionalSeq.single(f), 4, 0, 1))
    asym = BarParams(a0=0.4, a1=0.6)
    with pytest.raises(ConfigError):
        replicate(_config(asym, nu, FunctionalSeq.single(f), 4, 2, 1))
    wrong_scale = identity(2.0 * params.sigma_a())
    with pytest.raises(ConfigError):
        replicate(_config(params, nu, FunctionalSeq.single(wrong_scale), 4, 2, 1))


def test_chunking_and_threads_do_not_change_results(monkeypatch):
    params = BarParams.symmetric_params(0.6)
    f = from_monomial([0.0, 1.0, 0.2], params.sigma_a())
    config = _config(params, InitialLaw.stationary(), FunctionalSeq.tree(f), 6, 64, 5)
    baseline = replicate(config)
    monkeypatch.setattr(treesim, "CHUNK_VALUES", 64)
    chunked = replicate(config)
    threaded = replicate(config, threads=8)
    assert np.array_equal(baseline, chunked)
    assert np.array_equal(baseline, threaded)
