"""Keys and counter-based draws for reproducible tree simulation.

A draw is a pure function of a 64-bit key and a counter: nothing mutates
state.  The master key is splitmix64 of the seed (seed_key), child keys are
derived from it by a splitmix64 chain, one level per index (replica,
generation, ...), and the block cipher behind each key is Philox4x32-10
evaluated vectorised over counter blocks.  A node's noise therefore depends
only on its (key, position) pair and not on scheduling, chunking, or thread
count, and a counter range split into tiles (a `start` offset per tile)
yields exactly the draws of the whole range.

Standard normals come from the inverse normal CDF applied to 53-bit uniforms,
which keeps every draw bit-stable across platforms at double precision.
Each counter block yields one pair of normals; the tree simulation uses the
pair as the independent noises of a parent's two children.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_SH11 = np.uint64(11)
_BELOW_ONE = 1.0 - 2.0 ** -53


def splitmix64(x):
    """splitmix64 finaliser, vectorised over uint64 arrays (wraps mod 2^64)."""
    x = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = x.copy()
        z ^= z >> np.uint64(30)
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> np.uint64(27)
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> np.uint64(31)
    return z


def seed_key(seed: int) -> int:
    """Master key of a seed; seeds are taken mod 2^64."""
    return int(splitmix64(seed & _MASK64))


def derive_keys(key, indices) -> np.ndarray:
    """Child keys for an array of branch indices; `key` scalar or matching array."""
    idx = np.asarray(indices, dtype=np.uint64)
    with np.errstate(over="ignore"):
        t = np.asarray(key, dtype=np.uint64) ^ ((idx + np.uint64(1)) * np.uint64(_GOLDEN))
    return splitmix64(t)


def _philox_words(keys: np.ndarray, count: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Run Philox4x32-10 over counter blocks start..start+count-1 for each key.

    Returns two (len(keys), count) uint64 arrays, the high and low output
    words of each block assembled as 64-bit integers.  Counters must stay
    below 2^32 (N_MAX keeps them below 2^21): three counter words are then
    zero and round 1 is one multiply.
    """
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))
    shape = (keys.shape[0], count)
    k0 = (keys & _MASK32)[:, None]
    k1 = (keys >> _SH32)[:, None]
    p0, p1, t = (np.empty(shape, dtype=np.uint64) for _ in range(3))
    with np.errstate(over="ignore"):
        # Round 1 on the counter (pos, 0, 0, 0): only pos * M0 is nonzero.
        pos = np.arange(start, start + count, dtype=np.uint64) * _M0
        c0 = np.broadcast_to(k0, shape).copy()
        c1 = np.zeros(shape, dtype=np.uint64)
        c2 = (pos >> _SH32) ^ k1
        c3 = np.broadcast_to(pos & _MASK32, shape).copy()
        for _ in range(9):
            k0 = (k0 + _W0) & _MASK32
            k1 = (k1 + _W1) & _MASK32
            np.multiply(c0, _M0, out=p0)
            np.multiply(c2, _M1, out=p1)
            np.right_shift(p1, _SH32, out=t)
            np.bitwise_xor(t, c1, out=t)
            np.bitwise_xor(t, k0, out=t)
            np.bitwise_and(p1, _MASK32, out=c1)
            c0, t = t, c0
            np.right_shift(p0, _SH32, out=t)
            np.bitwise_xor(t, c3, out=t)
            np.bitwise_xor(t, k1, out=t)
            np.bitwise_and(p0, _MASK32, out=c3)
            c2, t = t, c2
        np.left_shift(c0, _SH32, out=c0)
        np.bitwise_or(c0, c1, out=c0)
        np.left_shift(c2, _SH32, out=c2)
        np.bitwise_or(c2, c3, out=c2)
    return c0, c2


def _to_uniform(words: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in the open interval (0, 1)."""
    u = (words >> _SH11).astype(np.float64)
    u += 0.5
    u *= 2.0 ** -53
    # 2^53 - 1 + 0.5 rounds to 2^53, so the all-ones word would give 1.0
    # (and ndtri inf); it gets the largest double below 1 instead.
    np.minimum(u, _BELOW_ONE, out=u)
    return u


def batch_uniform_pairs(keys, count: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two (R, count) uniform arrays, one pair per key and counter block
    start..start+count-1."""
    hi, lo = _philox_words(keys, count, start)
    return _to_uniform(hi), _to_uniform(lo)


def batch_normal_pairs(keys, count: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Two (R, count) standard-normal arrays via the inverse CDF."""
    u0, u1 = batch_uniform_pairs(keys, count, start)
    return ndtri(u0), ndtri(u1)
