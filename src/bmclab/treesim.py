"""Generation-by-generation simulation on the full binary tree.

Traits are stored per generation in level order: node (g, k) has children
(g+1, 2k) and (g+1, 2k+1), so one generation is a flat array and the two
child arrays interleave into the next one.  The noise behind generation g of
replica r comes from the counter-based stream keyed by (master seed, r, g)
with the parent position as the counter, which makes every simulation a pure
function of (config, seed) regardless of chunking or thread count.

generation_sums is the one simulation engine: it advances a batch of
replicas and keeps only per-generation sums of the test functions, never a
whole tree.  A single replica is a batch of one key.  It runs several lanes
over one key set: a lane is one BarParams with its test functions, and every
lane applies its own affine step to the same normals (common random
numbers), so each lane's bits are those of a call with that lane alone.
replicate turns those sums into the normalized fluctuation statistics.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ComputationRejected, ConfigError, RegimeError, ResourceCapError
from .kernels import CRITICAL, SUBCRITICAL, BarParams, classify_regime
from .rng import RandomStream, batch_normal_pairs, derive_keys
from .spectral import SpectralFn, center

N_MAX = 22

# Chunks of lanes x replicas are sized so one generation buffer stays near
# this many doubles; the chunk grid depends only on (replicas, n, lanes),
# never on threads.
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


@dataclass(frozen=True)
class FunctionalSeq:
    """A per-generation family of test functions with a tagged shape.

    shape "single" weights only the deepest generation, "tree" applies one
    function to every generation, "custom" lists one function per offset
    from the deepest generation (zero beyond the list).
    """

    shape: str
    funcs: tuple

    @classmethod
    def single(cls, f: SpectralFn) -> "FunctionalSeq":
        return cls(shape="single", funcs=(f,))

    @classmethod
    def tree(cls, f: SpectralFn) -> "FunctionalSeq":
        return cls(shape="tree", funcs=(f,))

    @classmethod
    def custom(cls, funcs) -> "FunctionalSeq":
        return cls(shape="custom", funcs=tuple(funcs))

    def __post_init__(self) -> None:
        if self.shape not in ("single", "tree", "custom"):
            raise ConfigError(f"unknown functional shape {self.shape!r}")
        if self.shape in ("single", "tree") and len(self.funcs) != 1:
            raise ConfigError(f"shape {self.shape!r} takes exactly one function")
        if not self.funcs or not all(isinstance(f, SpectralFn) for f in self.funcs):
            raise ConfigError("funcs must be SpectralFn instances")

    def func_at(self, offset: int) -> SpectralFn | None:
        """Function applied at generation n - offset, or None when zero."""
        if self.shape == "single":
            return self.funcs[0] if offset == 0 else None
        if self.shape == "tree":
            return self.funcs[0]
        return self.funcs[offset] if offset < len(self.funcs) else None


def keys_for_replicas(master: RandomStream, replicas: int, n: int,
                      columns: int) -> np.ndarray:
    """Keys of replicas 0..replicas-1 below `master`, after checking that
    they and their n+1 sums per column (lanes x functions) fit under the cap."""
    need = replicas * (n + 2) * columns * 8
    if need > SUMS_BYTES_MAX:
        raise ResourceCapError(
            f"{replicas} replicas at depth {n} need {need:,} bytes of keys and "
            f"sums, over the cap of {SUMS_BYTES_MAX:,}")
    return master.split_keys(np.arange(replicas))


def _root_values(nu: InitialLaw, lanes, keys: np.ndarray) -> np.ndarray:
    """Roots of every lane, shape (lanes, rows, 1), from one shared draw."""
    if nu.kind == "dirac":
        return np.full((len(lanes), len(keys), 1), nu.x0)
    z = batch_normal_pairs(derive_keys(keys, 0), 1)[0]
    if nu.kind == "stationary":
        return np.stack([params.sigma_a() * z for params, _ in lanes])
    return np.stack([nu.mean + math.sqrt(nu.var) * z] * len(lanes))


def _advance(values: np.ndarray, lanes, gen_keys: np.ndarray,
             sums=None) -> np.ndarray:
    """Children of every parent in every lane: out[l, :, 2c] and
    out[l, :, 2c+1] come from values[l, :, c] and counter c of the row's key,
    with the slope and noise scale of lanes[l] = (params, funcs).  Tiles of
    at most TILE_VALUES parents (whole rows, or column slices of a wider row)
    keep the Philox words in cache and draw each normal once for all lanes;
    draws are addressed by counter, so tiles change no bit.  sums[l, r, j]
    gets the sum of lane l's funcs[j] over child row r once it is done."""
    _, rows, width = values.shape
    out = np.empty((len(lanes), rows, 2 * width))
    cols = min(width, TILE_VALUES)
    step = max(1, TILE_VALUES // width)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        for c in range(0, width, cols):
            d = min(c + cols, width)
            z0, z1 = batch_normal_pairs(gen_keys[lo:hi], d - c, c)
            for l, (params, _) in enumerate(lanes):
                av = params.a * values[l, lo:hi, c:d]
                out[l, lo:hi, 2 * c:2 * d:2] = av + params.sigma * z0
                out[l, lo:hi, 2 * c + 1:2 * d:2] = av + params.sigma * z1
        if sums is not None:
            _sum_funcs(out[:, lo:hi], lanes, sums[:, lo:hi])
    return out


def _sum_funcs(values: np.ndarray, lanes, sums: np.ndarray) -> None:
    """sums[l, r, j] = sum of lane l's funcs[j] over row r of values[l]."""
    for l, (_, funcs) in enumerate(lanes):
        for j, f in enumerate(funcs):
            sums[l, :, j] = np.sum(f.evaluate(values[l]), axis=1)


def generation_sums(lanes, nu: InitialLaw, n: int, replica_keys: np.ndarray,
                    threads: int = 1) -> np.ndarray:
    """Per-lane, per-replica, per-generation sums of each lane's functions.

    `lanes` is a sequence of (BarParams, funcs) pairs with the same number of
    functions each.  Returns an array of shape (lanes, replicas, n+1, funcs)
    whose [l, r, g, j] entry is the sum of lane l's funcs[j] over generation
    g of replica r.  Every lane simulates replica r from the same normals,
    so lane l is bit for bit the output of a call with lanes[l] alone.  Work
    runs in fixed (lane group, replica chunk) pieces; the thread count never
    changes results.
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

    def work(span):
        l0, l1, lo, hi = span
        part, sums = lanes[l0:l1], out[l0:l1, lo:hi]
        vals = _root_values(nu, part, keys[lo:hi])
        _sum_funcs(vals, part, sums[:, :, 0])
        for g in range(n):
            vals = _advance(vals, part, derive_keys(keys[lo:hi], g + 1),
                            sums[:, :, g + 1])

    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(work, spans))
    else:
        for span in spans:
            work(span)
    return out


def replicate(config, threads: int = 1) -> np.ndarray:
    """Per-replica values of the regime-normalized fluctuation statistic.

    `config` carries params, nu, fseq, n, replicas, and master_seed (see the
    experiments module).  Replica r always uses the stream derived from
    (master_seed, r), so the output is ordered by replica index and is a
    pure function of the configuration.  A statistic that overflows double
    precision raises ComputationRejected.
    """
    params: BarParams = config.params
    fseq: FunctionalSeq = config.fseq
    n = int(config.n)
    replicas = int(config.replicas)
    if replicas < 1:
        raise ConfigError("need at least one replica")
    a = params.a
    sigma_a = params.sigma_a()
    if abs(fseq.funcs[0].sigma_a - sigma_a) > 1e-12 * sigma_a:
        raise ConfigError("functional scale does not match the kernel parameters")

    master = RandomStream.from_seed(int(config.master_seed))
    keys = keys_for_replicas(master, replicas, n, len(fseq.funcs))
    centered = [center(f) for f in fseq.funcs]
    sums = generation_sums([(params, centered)], config.nu, n, keys, threads=threads)[0]

    regime = classify_regime(a)
    if regime in (SUBCRITICAL, CRITICAL):
        if regime == CRITICAL and n == 0:
            raise ConfigError("the critical normalization needs depth n >= 1")
        index_of = {id(f): j for j, f in enumerate(fseq.funcs)}
        raw = np.zeros(replicas)
        for offset in range(n + 1):
            f = fseq.func_at(offset)
            if f is not None:
                raw += sums[:, n - offset, index_of[id(f)]]
        scale = math.sqrt(2.0**n) if regime == SUBCRITICAL else math.sqrt(n * 2.0**n)
    elif fseq.shape == "single":
        raw, scale = sums[:, n, 0], (2.0 * a) ** n
    elif fseq.shape == "tree":
        raw, scale = sums[:, :, 0].sum(axis=1), (2.0 * a) ** n
    else:
        raise RegimeError("custom functional sequences have no supercritical normalization")
    values = raw / scale
    if not np.all(np.isfinite(values)):
        raise ComputationRejected("the fluctuation statistic overflows double precision")
    return values
