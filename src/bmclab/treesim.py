"""Generation-by-generation simulation on the full binary tree.

Traits are stored per generation in level order: node (g, k) has children
(g+1, 2k) and (g+1, 2k+1), so one generation is a flat array and the two
child arrays interleave into the next one.  The noise behind generation g of
replica r comes from the counter-based stream keyed by (master seed, r, g)
with the parent position as the counter, which makes every simulation a pure
function of (config, seed) regardless of chunking or thread count.

generation_sums is the one simulation engine: it advances a batch of
replicas and keeps only per-generation sums of the test functions, never a
whole tree.  A single replica is a batch of one key.  replicate turns those
sums into the normalized fluctuation statistics.
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

# Replica chunks are sized so one generation buffer stays near this many
# doubles; the chunk grid depends only on (replicas, n), never on threads.
CHUNK_VALUES = 1 << 22

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
                      n_funcs: int) -> np.ndarray:
    """Keys of replicas 0..replicas-1 below `master`, after checking that
    they and their n+1 sums per function fit under the cap."""
    need = replicas * (n + 2) * n_funcs * 8
    if need > SUMS_BYTES_MAX:
        raise ResourceCapError(
            f"{replicas} replicas at depth {n} need {need:,} bytes of keys and "
            f"sums, over the cap of {SUMS_BYTES_MAX:,}")
    return master.split_keys(np.arange(replicas))


def _root_values(nu: InitialLaw, params: BarParams, keys: np.ndarray) -> np.ndarray:
    rows = len(keys)
    if nu.kind == "dirac":
        return np.full((rows, 1), nu.x0)
    z = batch_normal_pairs(derive_keys(keys, 0), 1)[0]
    if nu.kind == "stationary":
        return params.sigma_a() * z
    return nu.mean + math.sqrt(nu.var) * z


def _advance(values: np.ndarray, params: BarParams, gen_keys: np.ndarray,
             funcs=(), sums=None) -> np.ndarray:
    """Children of every parent: out[:, 2c] and out[:, 2c+1] come from
    values[:, c] and counter c of the row's key.  Tiles of at most TILE_VALUES
    parents (whole rows, or column slices of a wider row) keep the Philox
    words in cache; draws are addressed by counter, so tiles change no bit.
    sums[r, j] gets the sum of funcs[j] over child row r once it is done."""
    rows, width = values.shape
    out = np.empty((rows, 2 * width))
    cols = min(width, TILE_VALUES)
    step = max(1, TILE_VALUES // width)
    for lo in range(0, rows, step):
        hi = min(lo + step, rows)
        for c in range(0, width, cols):
            d = min(c + cols, width)
            z0, z1 = batch_normal_pairs(gen_keys[lo:hi], d - c, c)
            av = params.a * values[lo:hi, c:d]
            out[lo:hi, 2 * c:2 * d:2] = av + params.sigma * z0
            out[lo:hi, 2 * c + 1:2 * d:2] = av + params.sigma * z1
        for j, f in enumerate(funcs):
            sums[lo:hi, j] = np.sum(f.evaluate(out[lo:hi]), axis=1)
    return out


def generation_sums(params: BarParams, nu: InitialLaw, funcs, n: int,
                    replica_keys: np.ndarray, threads: int = 1) -> np.ndarray:
    """Per-replica, per-generation sums of each function.

    Returns an array of shape (replicas, n+1, len(funcs)) whose [r, g, j]
    entry is the sum of funcs[j] over generation g of replica r.  Replicas
    are processed in fixed chunks; the thread count never changes results.
    """
    if n < 0:
        raise ConfigError("tree depth must be nonnegative")
    if n > N_MAX:
        raise ResourceCapError(
            f"depth {n} exceeds the cap {N_MAX}; one generation alone needs "
            f"about {(1 << n) * 8:,} bytes per replica")
    funcs = list(funcs)
    keys = np.asarray(replica_keys, dtype=np.uint64)
    rows = len(keys)
    out = np.empty((rows, n + 1, len(funcs)))

    chunk_rows = max(1, CHUNK_VALUES >> n)
    spans = [(lo, min(lo + chunk_rows, rows)) for lo in range(0, rows, chunk_rows)]

    def work(span):
        lo, hi = span
        vals = _root_values(nu, params, keys[lo:hi])
        for j, f in enumerate(funcs):
            out[lo:hi, 0, j] = np.sum(f.evaluate(vals), axis=1)
        for g in range(n):
            vals = _advance(vals, params, derive_keys(keys[lo:hi], g + 1),
                            funcs, out[lo:hi, g + 1])

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
    sums = generation_sums(params, config.nu, centered, n, keys, threads=threads)

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
