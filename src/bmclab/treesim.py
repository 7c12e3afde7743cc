"""Generation-by-generation simulation on the full binary tree.

Traits are stored per generation in level order: node (g, k) has children
(g+1, 2k) and (g+1, 2k+1), so one generation is a flat array and the two
child arrays interleave into the next one.  The noise behind generation g of
replica r comes from the counter-based stream keyed by (master seed, r, g)
with the parent position as the counter, which makes every simulation a pure
function of (config, seed) regardless of chunking or thread count.

generation_sums is the one simulation engine: it advances a batch of
replicas in a buffer as wide as the deepest generation, refilled in place,
and keeps only per-generation sums of the test functions.  The calling
thread owns one buffer per thread and lends it to one piece of work after
another.  A single replica is a batch of one key.  It runs several lanes
over one key set: a lane is one BarParams with its test functions, and every
lane applies its own affine step to the same normals (common random
numbers), so each lane's bits are those of a call with that lane alone.
"""

from __future__ import annotations

import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ResourceCapError
from .rng import batch_normal_pairs, derive_keys

N_MAX = 22

# Chunks of lanes x replicas are sized so one chunk's tree buffer holds at
# most this many doubles (one row at depth 21; a chunk at depth 22 is one
# row); the chunk grid depends only on (replicas, n, lanes), never threads.
CHUNK_VALUES = 1 << 21

TILE_VALUES = 1 << 15  # parents per tile of one generation step

# Bytes the replica keys and per-generation sums of one batch may take.
SUMS_BYTES_MAX = 1 << 30


@dataclass(frozen=True)
class InitialLaw:
    """Law of the root trait: a point mass, the invariant law, or a Gaussian."""

    kind: str
    x0: float = 0.0
    mean: float = 0.0
    var: float = 1.0

    @classmethod
    def dirac(cls, x0: float) -> "InitialLaw":
        return cls(kind="dirac", x0=float(x0))

    @classmethod
    def stationary(cls) -> "InitialLaw":
        return cls(kind="stationary")

    @classmethod
    def gaussian(cls, mean: float, var: float) -> "InitialLaw":
        return cls(kind="gaussian", mean=float(mean), var=float(var))

    def __post_init__(self) -> None:
        if self.kind not in ("dirac", "stationary", "gaussian"):
            raise ConfigError(f"unknown initial law {self.kind!r}")
        if not (math.isfinite(self.x0) and math.isfinite(self.mean)):
            raise ConfigError("the initial law needs a finite point and mean")
        if not (math.isfinite(self.var) and self.var > 0.0):
            raise ConfigError("the initial law needs a finite var > 0")


def keys_for_replicas(master: int, replicas: int, n: int, columns: int) -> np.ndarray:
    """Keys of replicas 0..replicas-1 below `master`, after checking that
    they and their n+1 sums per column (lanes x functions) fit under the cap."""
    need = replicas * (n + 2) * columns * 8
    if need > SUMS_BYTES_MAX:
        raise ResourceCapError(
            f"{replicas} replicas at depth {n} need {need:,} bytes of keys and "
            f"sums, over the cap of {SUMS_BYTES_MAX:,}")
    return derive_keys(master, np.arange(replicas))


def _root_values(nu: InitialLaw, lanes, keys: np.ndarray) -> np.ndarray:
    """Roots of every lane, shape (lanes, rows, 1), from one shared draw."""
    if nu.kind == "dirac":
        return np.full((len(lanes), len(keys), 1), nu.x0)
    z = batch_normal_pairs(derive_keys(keys, 0), 1)[0]
    if nu.kind == "stationary":
        return np.stack([params.sigma_a() * z for params, _ in lanes])
    return np.stack([nu.mean + math.sqrt(nu.var) * z] * len(lanes))


def _advance(tree: np.ndarray, width: int, lanes, gen_keys: np.ndarray,
             sums: np.ndarray) -> None:
    """Expand the parents tree[l, :, :width] into their children
    tree[l, :, :2*width] in place: children 2c and 2c+1 come from parent c and
    counter c of the row's key, with lane l's slope and noise scale.  Tiles of
    at most TILE_VALUES parents (whole rows, or column slices of a wider row)
    keep the Philox words in cache and draw each normal once for all lanes, by
    counter, so tiles change no bit.  Column tiles run right to left and read
    their parents before writing children over them.  sums[l, r, j] gets the
    sum of lane l's funcs[j] over child row r."""
    rows = tree.shape[1]
    cols, step = min(width, TILE_VALUES), max(1, TILE_VALUES // width)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        for c in reversed(range(0, width, cols)):
            d = min(c + cols, width)
            z0, z1 = batch_normal_pairs(gen_keys[lo:hi], d - c, c)
            for l, (params, _) in enumerate(lanes):
                av = params.a * tree[l, lo:hi, c:d]
                tree[l, lo:hi, 2 * c:2 * d:2] = av + params.sigma * z0
                tree[l, lo:hi, 2 * c + 1:2 * d:2] = av + params.sigma * z1
        _sum_funcs(tree[:, lo:hi, :2 * width], lanes, sums[:, lo:hi])


@np.errstate(over="ignore", invalid="ignore")
def _sum_funcs(values: np.ndarray, lanes, sums: np.ndarray) -> None:
    """sums[l, r, j] = sum of lane l's funcs[j] over row r of values[l]; rows
    over 2*TILE_VALUES are evaluated in slices into one reused row (same bits)."""
    width, span = values.shape[2], 2 * TILE_VALUES
    buf = np.empty(values.shape[1:]) if width > span else None
    for l, (_, funcs) in enumerate(lanes):
        for j, f in enumerate(funcs):
            if buf is None:
                sums[l, :, j] = np.sum(f.evaluate(values[l]), axis=1)
                continue
            for c in range(0, width, span):
                buf[:, c:c + span] = f.evaluate(values[l, :, c:c + span])
            sums[l, :, j] = np.sum(buf, axis=1)


def generation_sums(lanes, nu: InitialLaw, n: int, replica_keys: np.ndarray,
                    threads: int = 1) -> np.ndarray:
    """Per-lane, per-replica, per-generation sums of each lane's functions.

    `lanes` is a sequence of (BarParams, funcs) pairs with the same number of
    functions each.  Returns an array of shape (lanes, replicas, n+1, funcs)
    whose [l, r, g, j] entry is the sum of lane l's funcs[j] over generation
    g of replica r.  Every lane simulates replica r from the same normals,
    so lane l is bit for bit the output of a call with lanes[l] alone.  Work
    runs in fixed (lane group, replica chunk) pieces; the thread count never
    changes results.  The calling thread allocates one tree buffer per
    concurrent piece and each piece borrows one; worker threads allocate no
    tree, only tile temporaries and _sum_funcs' row for rows over 2^16.
    """
    if n < 0:
        raise ConfigError("tree depth must be nonnegative")
    if n > N_MAX:
        raise ResourceCapError(
            f"depth {n} exceeds the cap {N_MAX}; one generation alone needs "
            f"about {(1 << n) * 8:,} bytes per replica")
    lanes = [(params, list(funcs)) for params, funcs in lanes]
    widths = {len(funcs) for _, funcs in lanes}
    if len(widths) != 1:
        raise ConfigError("need one or more lanes with equal function counts")
    keys = np.asarray(replica_keys, dtype=np.uint64)
    rows = len(keys)
    out = np.empty((len(lanes), rows, n + 1, widths.pop()))

    # Lane rows per chunk; a grid too wide for one row per lane runs in groups.
    budget = max(1, CHUNK_VALUES >> n)
    group = min(len(lanes), budget)
    chunk_rows = budget // group
    spans = [(l0, min(l0 + group, len(lanes)), lo, min(lo + chunk_rows, rows))
             for l0 in range(0, len(lanes), group)
             for lo in range(0, rows, chunk_rows)]

    workers = min(max(threads, 1), len(spans))
    free = queue.SimpleQueue()  # flat tree buffers, as large as the largest span
    for _ in range(workers):
        free.put(np.empty(max((l1 - l0) * (hi - lo) for l0, l1, lo, hi in spans) << n))

    def work(span):
        l0, l1, lo, hi = span
        part, sums = lanes[l0:l1], out[l0:l1, lo:hi]
        buf = free.get()
        try:
            tree = buf[:(l1 - l0) * (hi - lo) << n].reshape(l1 - l0, hi - lo, 1 << n)
            tree[:, :, :1] = _root_values(nu, part, keys[lo:hi])
            _sum_funcs(tree[:, :, :1], part, sums[:, :, 0])
            for g in range(n):
                _advance(tree, 1 << g, part, derive_keys(keys[lo:hi], g + 1),
                         sums[:, :, g + 1])
        finally:
            free.put(buf)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, spans))
    else:
        for span in spans:
            work(span)
    return out
