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

    Returns two (len(keys), count) uint64 arrays, the output words hi = c0:c1
    and lo = c2:c3, which are also the round state: with p0 = c0*M0 and
    p1 = c2*M1, a round sets hi = (hi << 32) ^ k0:0 ^ p1 and lo = (lo << 32)
    ^ k1:0 ^ p0.  Counters must stay below 2^32 (N_MAX keeps them below
    2^21): three counter words are then zero and round 1 is one multiply.
    """
    keys = np.atleast_1d(np.asarray(keys, dtype=np.uint64))[:, None]
    with np.errstate(over="ignore"):
        # The keys of rounds 1..10 in the high half (k:0), shape (10, R, 1).
        bumps = np.arange(10, dtype=np.uint64)[:, None, None] << _SH32
        rk0 = (keys << _SH32) + bumps * _W0
        rk1 = (keys & ~_MASK32) + bumps * _W1
        # Round 1 on the counter (pos, 0, 0, 0) leaves hi = k0:0 and
        # lo = pos*M0 ^ k1:0, so round 2 has hi << 32 = 0 and p0 = k0*M0.
        lo = (np.arange(start, start + count, dtype=np.uint64) * _M0) ^ rk1[0]
        hi = (lo >> _SH32) * _M1 ^ rk0[1]
        lo <<= _SH32
        lo ^= rk1[1] ^ (keys & _MASK32) * _M0
        p0, p1 = np.empty_like(lo), np.empty_like(lo)
        for k0, k1 in zip(rk0[2:], rk1[2:]):
            np.multiply(np.right_shift(hi, _SH32, out=p0), _M0, out=p0)
            np.multiply(np.right_shift(lo, _SH32, out=p1), _M1, out=p1)
            np.left_shift(hi, _SH32, out=hi)
            np.bitwise_xor(hi, k0, out=hi)
            np.bitwise_xor(hi, p1, out=hi)
            np.left_shift(lo, _SH32, out=lo)
            np.bitwise_xor(lo, k1, out=lo)
            np.bitwise_xor(lo, p0, out=lo)
    return hi, lo


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
