import hashlib

import numpy as np
from scipy.special import ndtri

from bmclab.rng import (
    _philox_words,
    _to_uniform,
    batch_normal_pairs,
    batch_uniform_pairs,
    derive_keys,
    seed_key,
    splitmix64,
)
from bmclab.treesim import TILE_VALUES
from oracles import philox4x32

# Published 10-round test vectors for the 4x32 counter-based generator.
PHILOX_KAT = [
    (
        (0x00000000, 0x00000000, 0x00000000, 0x00000000),
        (0x00000000, 0x00000000),
        (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8),
    ),
    (
        (0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
        (0xFFFFFFFF, 0xFFFFFFFF),
        (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
    ),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


def test_reference_cipher_known_answers():
    for counter, key, expected in PHILOX_KAT:
        assert philox4x32(counter, key) == expected


def test_vectorised_path_matches_reference():
    # Each 64-bit output word of the vectorised rounds is two 32-bit words
    # of the reference cipher on counter (position, 0, 0, 0).
    rng = np.random.default_rng(7)
    keys = [0, 1, 0xDEADBEEFCAFEF00D, *map(int, rng.integers(0, 2**64, 5, dtype=np.uint64))]
    hi, lo = _philox_words(np.array(keys, dtype=np.uint64), 1001)
    for row, key in enumerate(keys):
        for counter in [0, 1, 2, 17, 1000]:
            h = int(hi[row, counter])
            l = int(lo[row, counter])
            want = philox4x32(
                (counter & 0xFFFFFFFF, counter >> 32, 0, 0),
                (key & 0xFFFFFFFF, key >> 32),
            )
            assert (h >> 32, h & 0xFFFFFFFF, l >> 32, l & 0xFFFFFFFF) == want


def _reference_words(key: int, counter: int) -> tuple[int, int, int, int]:
    return philox4x32((counter & 0xFFFFFFFF, counter >> 32, 0, 0),
                      (key & 0xFFFFFFFF, key >> 32))


def test_philox_offset_matches_reference_across_a_tile_edge():
    # A tile of the generation step starts at a counter offset; the words
    # on both sides of a tile edge and near the top of the counter range
    # must be the reference cipher's.
    keys = [3, 0xDEADBEEFCAFEF00D, 2**64 - 1]
    edge = TILE_VALUES
    for start, count in ((edge - 3, 6), (edge, 1), (2**21 - 2, 4), (2**32 - 2, 2)):
        hi, lo = _philox_words(np.array(keys, dtype=np.uint64), count, start)
        assert hi.shape == lo.shape == (len(keys), count)
        for row, key in enumerate(keys):
            for i in range(count):
                h, l = int(hi[row, i]), int(lo[row, i])
                assert (h >> 32, h & 0xFFFFFFFF, l >> 32, l & 0xFFFFFFFF) == \
                    _reference_words(key, start + i)


def test_batch_pairs_with_offset_are_column_slices():
    keys = derive_keys(5, np.arange(4))
    full_u = batch_uniform_pairs(keys, 100)
    full_z = batch_normal_pairs(keys, 100)
    for start, count in ((0, 100), (1, 7), (37, 63), (64, 36), (99, 1)):
        cols = slice(start, start + count)
        for part, full in ((batch_uniform_pairs(keys, count, start), full_u),
                           (batch_normal_pairs(keys, count, start), full_z)):
            assert np.array_equal(part[0], full[0][:, cols])
            assert np.array_equal(part[1], full[1][:, cols])


_MASK64 = (1 << 64) - 1


def _splitmix_ref(x: int) -> int:
    z = x & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


def _derive_key_ref(key: int, index: int) -> int:
    return _splitmix_ref(key ^ (((index + 1) * 0x9E3779B97F4A7C15) & _MASK64))


def test_splitmix_scalar_and_array_agree():
    xs = np.array([0, 1, 12345, 2**63, 2**64 - 1], dtype=np.uint64)
    out = splitmix64(xs)
    for x, y in zip(xs, out):
        assert int(y) == _splitmix_ref(int(x))
        assert int(splitmix64(int(x))) == _splitmix_ref(int(x))
    # The finaliser fixes zero; key derivation mixes the index in first.
    assert int(splitmix64(np.uint64(0))) == 0
    assert int(derive_keys(0, 0)) != 0


def _key(seed: int, *indices: int) -> int:
    """The key of seed, split once per index with the scalar derive_keys."""
    key = seed_key(seed)
    for index in indices:
        key = int(derive_keys(key, index))
    return key


def test_derive_keys_matches_scalar():
    base = seed_key(42)
    assert isinstance(base, int)
    vec = derive_keys(base, np.arange(16))
    for i in range(16):
        assert int(vec[i]) == _key(42, i) == _derive_key_ref(base, i)
    assert _key(42, 3, 1) == _derive_key_ref(_derive_key_ref(base, 3), 1)
    # Seeds are taken mod 2^64, so negative and oversized seeds are valid.
    for seed in (0, 7, -1, -(2**70) + 3, 2**64 - 1, 2**64 + 5, 2**80):
        assert seed_key(seed) == _splitmix_ref(seed & _MASK64)


def _row(key: int) -> np.ndarray:
    return np.array([key], dtype=np.uint64)


def test_streams_are_pure():
    keys = _row(_key(11, 3, 1))
    a = batch_normal_pairs(keys, 64)
    b = batch_normal_pairs(keys, 64)
    assert np.array_equal(a, b)
    assert np.array_equal(batch_uniform_pairs(keys, 31), batch_uniform_pairs(keys, 31))


def test_split_changes_draws():
    a = batch_normal_pairs(_row(_key(5, 0)), 8)
    b = batch_normal_pairs(_row(_key(5, 1)), 8)
    assert not np.array_equal(a, b)
    assert _key(5, 0, 1) != _key(5, 1, 0)


def test_uniforms_open_interval():
    u0, u1 = batch_uniform_pairs(_row(seed_key(3)), 5_000)
    for u in (u0, u1):
        assert u.min() > 0.0
        assert u.max() < 1.0
    # The extreme 64-bit words map strictly inside (0, 1), so ndtri of
    # every word is finite.
    ends = _to_uniform(np.array([0, 2**64 - 1], dtype=np.uint64))
    assert 0.0 < ends[0] and ends[1] < 1.0
    assert np.all(np.isfinite(ndtri(ends)))


def test_normal_moments():
    z = np.concatenate(batch_normal_pairs(_row(seed_key(2)), 200_000), axis=1)
    n = z.size
    assert abs(z.mean()) < 4.0 / np.sqrt(n)
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / n)
    assert abs((z**3).mean()) < 4.0 * np.sqrt(15.0 / n)


def test_batch_helpers_consistent_with_stream():
    # Normals are ndtri of the uniforms, and each row of a batch is the
    # draw of its key alone, whatever else is in the batch.
    keys = derive_keys(seed_key(9), np.arange(4))
    u0, u1 = batch_uniform_pairs(keys, 5)
    z0, z1 = batch_normal_pairs(keys, 5)
    assert np.array_equal(z0, ndtri(u0))
    assert np.array_equal(z1, ndtri(u1))
    for i in range(4):
        assert int(keys[i]) == _key(9, i)
        a0, a1 = batch_normal_pairs(keys[i:i + 1], 5)
        assert np.array_equal(a0[0], z0[i])
        assert np.array_equal(a1[0], z1[i])


def test_lane_decorrelation():
    # Hi and lo words of one block feed different variates; check they look
    # independent at the usual four-sigma level.
    z0, z1 = batch_normal_pairs(_row(seed_key(13)), 200_000)
    r = float(np.mean(z0 * z1))
    assert abs(r) < 4.0 / np.sqrt(z0.size)


def test_stream_digest_is_pinned():
    # The frozen stream: Philox words and normals over two full 2^15-block
    # tiles from counter 0, over a tile edge, and past 2^21 - 5, for keys at
    # both ends of the range.  Any change to a bit changes the digest.
    keys = np.array([0, 3, 0xDEADBEEFCAFEF00D, 2**64 - 1], dtype=np.uint64)
    digest = hashlib.blake2b(digest_size=16)
    for start, count in ((0, 2 * 2**15), (2**15, 2 * 2**15 + 3), (2**21 - 5, 9)):
        for a in (*_philox_words(keys, count, start),
                  *batch_normal_pairs(keys, count, start)):
            assert a.shape == (len(keys), count)
            digest.update(a.astype(a.dtype.newbyteorder("<")).tobytes())
    assert digest.hexdigest() == "5a51e4797adc396ca4006013bfda0a00"
