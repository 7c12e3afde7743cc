"""Tests for the binary-tree simulation engine and fluctuation statistics."""

from __future__ import annotations

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from bmclab.errors import ConfigError, ResourceCapError
from bmclab.experiments import ExperimentConfig, replicate
from bmclab.kernels import BarParams
from bmclab.moments import common_ancestor_depth
from bmclab.rng import batch_normal_pairs, derive_keys, seed_key
from bmclab.spectral import apply_kernel, center, from_monomial
from bmclab import treesim
from bmclab.treesim import InitialLaw, generation_sums
from oracles import constant, identity


def _advance1(parents, params, keys):
    """One generation step of a single lane, in a buffer twice as wide."""
    rows, width = parents.shape
    tree = np.empty((1, rows, 2 * width))
    tree[0, :, :width] = parents
    treesim._advance(tree, width, [(params, [])], keys, np.empty((1, rows, 0)), None)
    return tree[0]


def test_tree_index_navigation():
    # Node (g, p) has its children at (g + 1, 2p) and (g + 1, 2p + 1): each is
    # a*x_p plus sigma times one normal of the row's pair at counter p, with
    # exactly this rounding.
    a, sigma = -0.7, 1.1
    parents = np.array([[0.0, 1.0, -2.0, 3.5], [10.0, -1.0, 0.25, 7.0]])
    keys = _keys(4, 2)
    children = _advance1(parents, BarParams(a, sigma), keys)
    z0, z1 = batch_normal_pairs(keys, 4)
    assert children.shape == (2, 8)
    for p in range(4):
        assert np.array_equal(children[:, 2 * p], a * parents[:, p] + sigma * z0[:, p])
        assert np.array_equal(children[:, 2 * p + 1], a * parents[:, p] + sigma * z1[:, p])
    for gen, pos in ((0, 0), (2, 3), (4, 11)):
        for child in (2 * pos, 2 * pos + 1):
            assert common_ancestor_depth(gen + 1, child, gen, pos) == gen
            assert child >> 1 == pos


def test_common_ancestor_depth():
    assert common_ancestor_depth(3, 0, 3, 1) == 2
    assert common_ancestor_depth(3, 0, 3, 3) == 1
    assert common_ancestor_depth(3, 0, 3, 4) == 0
    assert common_ancestor_depth(3, 3, 2, 1) == 2
    assert common_ancestor_depth(2, 1, 3, 3) == 2
    assert common_ancestor_depth(5, 19, 5, 19) == 5
    assert common_ancestor_depth(5, 19, 4, 19 >> 1) == 4
    for gen, pos in ((0, 0), (4, 11)):
        assert common_ancestor_depth(gen + 1, 2 * pos, gen + 1, 2 * pos + 1) == gen
        assert common_ancestor_depth(gen + 1, 2 * pos + 1, gen, pos) == gen

    def climb(n, i, m, j):
        d = min(n, m)
        while (i >> (n - d)) != (j >> (m - d)):
            d -= 1
        return d

    for n in range(7):
        for m in range(7):
            for i in range(1 << n):
                for j in range(1 << m):
                    assert common_ancestor_depth(n, i, m, j) == climb(n, i, m, j)


def test_initial_law():
    assert InitialLaw.dirac(1.5) == InitialLaw(kind="dirac", x0=1.5)
    assert InitialLaw.gaussian(0.5, 2.0) == InitialLaw(kind="gaussian", mean=0.5, var=2.0)
    for bad in ((0.0, 0.0), (math.inf, 1.0), (math.nan, 1.0), (0.0, math.inf),
                (0.0, math.nan)):
        with pytest.raises(ConfigError):
            InitialLaw.gaussian(*bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError):
            InitialLaw.dirac(bad)
    with pytest.raises(ConfigError):
        InitialLaw(kind="uniform")


def test_functional_seq_shapes():
    # replicate reads the generation sums from the deepest generation up: the
    # single shape only offset 0, the tree shape every offset, each added in
    # that order to a zero start.  The order decides the last bit of every
    # value, so it is pinned bit for bit.
    params = BarParams(0.5)
    h = from_monomial([0.1, 1.0, 0.4], params.sigma_a())
    n, nu, seed = 3, InitialLaw.stationary(), 8
    sums = generation_sums([(params, [center(h)])], nu, n, _keys(seed, 2))[0, :, :, 0]
    gen_sum, tree_sum = np.zeros(2), np.zeros(2)
    gen_sum += sums[:, n]
    for g in range(n, -1, -1):
        tree_sum += sums[:, g]

    def values(tree):
        return replicate(ExperimentConfig(params, nu, h, n, 2, seed, tree))

    scale = math.sqrt(2.0**n)
    assert np.array_equal(values(False), gen_sum / scale)
    assert np.array_equal(values(True), tree_sum / scale)


def _keys(seed, rows=1):
    return derive_keys(seed_key(seed), np.arange(rows))


def test_buffer_lengths_and_generations():
    params = BarParams(0.5)
    one = constant(1.0, params.sigma_a())
    sums = generation_sums([(params, [one])], InitialLaw.stationary(), 5, _keys(3, 2))[0]
    assert sums.shape == (2, 6, 1)
    assert np.array_equal(sums[:, :, 0], np.tile(2.0 ** np.arange(6), (2, 1)))


def test_near_deterministic_limit():
    params = BarParams(0.5, sigma=1e-12)
    sigma_a = params.sigma_a()
    funcs = [identity(sigma_a), from_monomial([0.0, 0.0, 1.0], sigma_a)]
    sums = generation_sums([(params, funcs)], InitialLaw.dirac(1.0), 2, _keys(0))[0]
    # With the sum of x at 2^g a^g and of x^2 at 2^g a^(2g), every one of
    # the 2^g traits equals a^g.
    for g in (1, 2):
        size = 2.0**g
        assert sums[0, g, 0] == pytest.approx(size * 0.5**g, abs=1e-9)
        assert sums[0, g, 1] == pytest.approx(size * 0.25**g, abs=1e-9)


def test_rows_are_independent_of_the_batch(monkeypatch):
    params = BarParams(a=0.7, sigma=1.1)
    nu = InitialLaw.gaussian(0.3, 0.8)
    funcs = [identity(1.0), from_monomial([0.0, 1.0, 0.5], 1.0)]
    keys = _keys(11, 5)
    batch = generation_sums([(params, funcs)], nu, 6, keys)[0]
    monkeypatch.setattr(treesim, "CHUNK_VALUES", 64)
    assert np.array_equal(generation_sums([(params, funcs)], nu, 6, keys)[0], batch)
    monkeypatch.setattr(treesim, "TILE_VALUES", 7)
    assert np.array_equal(generation_sums([(params, funcs)], nu, 6, keys)[0], batch)
    for r in range(len(keys)):
        alone = generation_sums([(params, funcs)], nu, 6, keys[r:r + 1])[0]
        assert np.array_equal(batch[r], alone[0])


@pytest.mark.parametrize("tile", [7, 64])
def test_tile_grid_does_not_change_results(monkeypatch, tile):
    # Depth 9 has rows of 1..256 parents: generations narrower than a tile
    # run as blocks of whole rows, wider ones as column slices of a row.
    params = BarParams(a=0.7, sigma=1.1)
    nu = InitialLaw.gaussian(0.3, 0.8)
    funcs = [identity(1.0), from_monomial([0.0, 1.0, 0.5], 1.0)]
    keys = _keys(11, 5)
    parents = np.random.default_rng(3).standard_normal((3, 100))
    baseline = generation_sums([(params, funcs)], nu, 9, keys)[0]
    children = _advance1(parents, params, keys[:3])
    monkeypatch.setattr(treesim, "TILE_VALUES", tile)
    assert np.array_equal(generation_sums([(params, funcs)], nu, 9, keys)[0], baseline)
    assert np.array_equal(_advance1(parents, params, keys[:3]), children)


def test_one_tree_buffer_bounds_peak_memory():
    # A deep single row keeps one 2^n tree buffer, one row of evaluated
    # values and tile-sized temporaries: about 3.4 buffers at depth 18.  A
    # fresh child generation beside its parent plus whole-row evaluation
    # temporaries took 5.9.  numpy reports its allocations to tracemalloc.
    n = 18
    params = BarParams(0.85)
    funcs = [from_monomial([0.0, 0.0, 1.0], params.sigma_a())]
    generation_sums([(params, funcs)], InitialLaw.dirac(0.0), 3, _keys(5))
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        generation_sums([(params, funcs)], InitialLaw.dirac(0.0), n, _keys(5))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 4.5 * (1 << n) * 8, peak / ((1 << n) * 8)


@pytest.mark.parametrize("tile", [treesim.TILE_VALUES, 16], ids=["default", "16"])
def test_calling_thread_owns_the_tree_buffers(monkeypatch, tile):
    # Chunks of 3 rows at depth 10 make 9 spans, the last of one row.  Worker
    # threads that allocate their own trees keep the freed memory in their
    # malloc arenas, so only the calling thread may allocate a tree-sized
    # array of doubles, and no more of them than spans can run at once.  At
    # 16-value tiles the rows wider than 32 values are evaluated in slices,
    # into a row the calling thread lent too.
    n, threads = 10, 2
    params = BarParams(0.7)
    funcs = [identity(params.sigma_a())]
    monkeypatch.setattr(treesim, "CHUNK_VALUES", 3 << n)
    monkeypatch.setattr(treesim, "TILE_VALUES", tile)
    empty, allocs = np.empty, []

    def recording(*args, **kwargs):
        out = empty(*args, **kwargs)
        if out.dtype == np.float64 and out.size >= 1 << n:
            allocs.append((threading.get_ident(), out.size))
        return out

    monkeypatch.setattr(np, "empty", recording)
    generation_sums([(params, funcs)], InitialLaw.dirac(0.0), n, _keys(5, 25),
                    threads=threads)
    assert allocs
    assert {ident for ident, _ in allocs} == {threading.get_ident()}
    assert len(allocs) <= min(threads, 9), allocs


def test_borrowed_tree_buffers_survive_thread_switches(monkeypatch):
    # Eight workers on a short switch interval lend 2-row buffers across 20
    # spans of three lanes; two spans filling one buffer would change bits.
    lanes, keys = _lanes(), _keys(31, 40)
    baseline = generation_sums(lanes, InitialLaw.stationary(), 8, keys)
    monkeypatch.setattr(treesim, "CHUNK_VALUES", 6 << 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = generation_sums(lanes, InitialLaw.stationary(), 8, keys, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(threaded, baseline)


def test_same_stream_same_tree():
    params = BarParams(0.6)
    nu = InitialLaw.stationary()
    funcs = [identity(params.sigma_a()),
             from_monomial([0.0, 0.0, 1.0], params.sigma_a())]
    first = generation_sums([(params, funcs)], nu, 7, _keys(42))[0]
    second = generation_sums([(params, funcs)], nu, 7, _keys(42))[0]
    assert np.array_equal(first, second)
    other = generation_sums([(params, funcs)], nu, 7, _keys(43))[0]
    assert not np.array_equal(first[0, 7], other[0, 7])


def test_depth_cap(monkeypatch):
    params = BarParams(0.5)
    nu = InitialLaw.dirac(0.0)
    f = [identity(params.sigma_a())]
    with pytest.raises(ResourceCapError, match="bytes"):
        generation_sums([(params, f)], nu, treesim.N_MAX + 1, _keys(0, 2))
    with pytest.raises(ConfigError):
        generation_sums([(params, f)], nu, -1, _keys(0))
    monkeypatch.setattr(treesim, "N_MAX", 5)
    with pytest.raises(ResourceCapError):
        generation_sums([(params, f)], nu, 6, _keys(0))


def test_replica_cap():
    # The cap is checked before any key or sum is allocated; 2^62 replicas
    # would not even fit numpy's index range.
    master = seed_key(0)
    with pytest.raises(ResourceCapError, match="replicas"):
        treesim.keys_for_replicas(master, 2**62, 3, 1)
    limit = treesim.SUMS_BYTES_MAX // (8 * 8)
    with pytest.raises(ResourceCapError):
        treesim.keys_for_replicas(master, limit + 1, 6, 1)
    keys = treesim.keys_for_replicas(master, 5, 6, 2)
    assert np.array_equal(keys, derive_keys(master, np.arange(5)))
    params = BarParams(0.5)
    config = ExperimentConfig(params, InitialLaw.stationary(),
                              identity(params.sigma_a()), 3, 2**62, 0)
    with pytest.raises(ResourceCapError):
        replicate(config)


def test_child_pair_joint_moments():
    rows = 40_000
    keys = _keys(7, rows)
    parents = np.full((rows, 1), 2.0)
    params = BarParams(a=0.4, sigma=1.2)
    children = _advance1(parents, params, keys)
    y, z = children[:, 0], children[:, 1]
    se_mean = 4 * params.sigma / math.sqrt(rows)
    assert abs(y.mean() - 0.4 * 2.0) < se_mean
    assert abs(z.mean() - 0.4 * 2.0) < se_mean
    var = params.sigma**2
    se_var = 4 * var * math.sqrt(2.0 / rows)
    assert abs(y.var(ddof=1) - var) < se_var
    assert abs(z.var(ddof=1) - var) < se_var
    assert abs(np.cov(y, z)[0, 1]) < 4 * var / math.sqrt(rows)


def test_leaf_marginal_distribution():
    a, n, x0 = 0.6, 6, 0.7
    params = BarParams(a)
    nu = InitialLaw.dirac(x0)
    keys = _keys(19, 1500)
    vals = treesim._root_values(nu, [(params, [])], keys)[0]
    for g in range(n):
        vals = _advance1(vals, params, treesim.derive_keys(keys, g + 1))
    leaves = vals[:, 0]
    mean = a**n * x0
    std = math.sqrt((1.0 - a ** (2 * n)) * params.sigma_a() ** 2)
    result = stats.kstest(leaves, "norm", args=(mean, std))
    assert result.pvalue > 0.01


def test_generation_mean_matches_iterated_kernel():
    x0 = 1.0
    rows = 2000
    n = 8
    for a in (0.3, 1.0 / math.sqrt(2.0), 0.85):
        params = BarParams(a)
        f = from_monomial([0.0, 0.0, 1.0], params.sigma_a())
        keys = _keys(101, rows)
        sums = generation_sums([(params, [f])], InitialLaw.dirac(x0), n, keys)[0]
        sample = sums[:, n, 0]
        exact = 2.0**n * apply_kernel(f, a, steps=n)(x0)
        se = sample.std(ddof=1) / math.sqrt(rows)
        assert abs(sample.mean() - exact) < 4 * se


def test_fluctuation_statistic_shapes():
    params = BarParams(0.5)
    sigma_a = params.sigma_a()
    n, seed = 6, 5
    nu = InitialLaw.stationary()
    f = from_monomial([0.2, 1.0, 0.3], sigma_a)
    sums = generation_sums([(params, [center(f)])], nu, n, _keys(seed, 3))[0]
    scale = math.sqrt(2.0**n)

    single = replicate(ExperimentConfig(params, nu, f, n, 3, seed))
    assert single == pytest.approx(sums[:, n, 0] / scale, rel=1e-12, abs=1e-12)
    tree = replicate(ExperimentConfig(params, nu, f, n, 3, seed, tree=True))
    assert tree == pytest.approx(sums[:, :, 0].sum(axis=1) / scale,
                                 rel=1e-12, abs=1e-12)

    flat = constant(3.0, sigma_a)
    zeros = replicate(ExperimentConfig(params, nu, flat, n, 3, seed))
    assert np.array_equal(zeros, np.zeros(3))


def test_replicate_matches_simulate_per_replica():
    # Replica r of replicate is the tree of key r simulated on its own.
    params = BarParams(0.5)
    f = from_monomial([0.1, 1.0, 0.4], params.sigma_a())
    n, seed = 6, 909
    nu = InitialLaw.stationary()
    keys = _keys(seed, 3)
    scale = math.sqrt(2.0**n)
    single = replicate(ExperimentConfig(params, nu, f, n, 3, seed))
    tree = replicate(ExperimentConfig(params, nu, f, n, 3, seed, tree=True))
    for r in range(3):
        alone = generation_sums([(params, [center(f)])], nu, n, keys[r:r + 1])[0, 0, :, 0]
        assert single[r] == pytest.approx(alone[n] / scale, rel=1e-12, abs=1e-12)
        assert tree[r] == pytest.approx(alone.sum() / scale, rel=1e-12, abs=1e-12)


def test_replicate_critical_and_supercritical_scaling():
    n, seed = 5, 31
    nu = InitialLaw.dirac(0.0)

    a_crit = 1.0 / math.sqrt(2.0)
    params = BarParams(a_crit)
    f = identity(params.sigma_a())
    values = replicate(ExperimentConfig(params, nu, f, n, 2, seed))
    sums = generation_sums([(params, [center(f)])], nu, n, _keys(seed, 2))[0]
    assert values == pytest.approx(sums[:, n, 0] / math.sqrt(n * 2.0**n), rel=1e-12)

    params = BarParams(0.85)
    f = from_monomial([0.3, 1.0, 0.2], params.sigma_a())
    single = replicate(ExperimentConfig(params, nu, f, n, 2, seed))
    tree = replicate(ExperimentConfig(params, nu, f, n, 2, seed, tree=True))
    sums = generation_sums([(params, [center(f)])], nu, n, _keys(seed, 2))[0]
    scale = (2.0 * 0.85) ** n
    assert single == pytest.approx(sums[:, n, 0] / scale, rel=1e-12)
    assert tree == pytest.approx(sums[:, :, 0].sum(axis=1) / scale, rel=1e-12)

    params_crit = BarParams(a_crit)
    f_crit = identity(params_crit.sigma_a())
    # The critical normalization divides by sqrt(n 2^n); configs need n >= 3.
    with pytest.raises(ConfigError):
        ExperimentConfig(params_crit, nu, f_crit, 0, 2, seed)


def test_replicate_validation():
    params = BarParams(0.5)
    f = identity(params.sigma_a())
    nu = InitialLaw.stationary()
    with pytest.raises(ConfigError):
        replicate(ExperimentConfig(params, nu, f, 4, 0, 1))
    wrong_scale = identity(2.0 * params.sigma_a())
    for tree in (False, True):
        with pytest.raises(ConfigError, match="functional scale"):
            replicate(ExperimentConfig(params, nu, wrong_scale, 4, 2, 1, tree))


def test_chunking_and_threads_do_not_change_results(monkeypatch):
    params = BarParams(0.6)
    f = from_monomial([0.0, 1.0, 0.2], params.sigma_a())
    config = ExperimentConfig(params, InitialLaw.stationary(), f, 6, 64, 5, tree=True)
    baseline = replicate(config)
    monkeypatch.setattr(treesim, "CHUNK_VALUES", 64)
    monkeypatch.setattr(treesim, "TILE_VALUES", 7)
    chunked = replicate(config)
    threaded = replicate(config, threads=8)
    assert np.array_equal(baseline, chunked)
    assert np.array_equal(baseline, threaded)


def _lanes():
    # Two functions per lane; the slopes include a negative one and the
    # noise scales differ, so every lane has its own affine step.
    lanes = []
    for a, sigma in ((0.3, 1.0), (-0.6, 0.7), (0.85, 1.3)):
        params = BarParams(a, sigma)
        lanes.append((params, [identity(params.sigma_a()),
                               from_monomial([0.2, -1.0, 0.5], params.sigma_a())]))
    return lanes


_ROOTS = [InitialLaw.dirac(0.4), InitialLaw.stationary(),
          InitialLaw.gaussian(-0.3, 1.7)]


@pytest.mark.parametrize("nu", _ROOTS, ids=["dirac", "stationary", "gaussian"])
def test_each_lane_is_its_single_lane_call(nu):
    lanes, keys = _lanes(), _keys(23, 6)
    sums = generation_sums(lanes, nu, 9, keys)
    assert sums.shape == (3, 6, 10, 2)
    for l, lane in enumerate(lanes):
        assert np.array_equal(sums[l], generation_sums([lane], nu, 9, keys)[0])


@pytest.mark.parametrize("nu", _ROOTS, ids=["dirac", "stationary", "gaussian"])
def test_lane_bits_ignore_chunks_tiles_and_threads(monkeypatch, nu):
    lanes, keys = _lanes(), _keys(29, 7)
    baseline = generation_sums(lanes, nu, 8, keys)
    assert np.array_equal(generation_sums(lanes, nu, 8, keys, threads=5), baseline)
    monkeypatch.setattr(treesim, "TILE_VALUES", 7)
    # Rows hold 2^8 values: 1536 gives chunks of 2 rows of all 3 lanes; 512
    # and 64 are below one row per lane, so lanes run in groups of 2 and 1.
    for chunk in (1536, 512, 64):
        monkeypatch.setattr(treesim, "CHUNK_VALUES", chunk)
        assert np.array_equal(generation_sums(lanes, nu, 8, keys), baseline)
        assert np.array_equal(generation_sums(lanes, nu, 8, keys, threads=5),
                              baseline)


def test_lanes_need_matching_function_counts():
    params = BarParams(0.5)
    f = identity(params.sigma_a())
    with pytest.raises(ConfigError, match="lane"):
        generation_sums([(params, [f]), (params, [f, f])], InitialLaw.stationary(),
                        3, _keys(0))
    with pytest.raises(ConfigError, match="lane"):
        generation_sums([], InitialLaw.stationary(), 3, _keys(0))
