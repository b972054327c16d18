import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adasketch.errors import ParameterError
from adasketch.rng import RngStream, rademacher, sign_bits, unpack_signs


def test_same_seed_and_label_is_bit_identical():
    a = RngStream(123).child("x").generator.standard_normal(64)
    b = RngStream(123).child("x").generator.standard_normal(64)
    assert np.array_equal(a, b)


def test_distinct_labels_differ():
    root = RngStream(123)
    a = root.child("alpha").generator.standard_normal(64)
    b = root.child("beta").generator.standard_normal(64)
    assert not np.array_equal(a, b)


def test_child_at_indexes_independent_streams():
    root = RngStream(9)
    draws = [root.child_at("trial", t).generator.integers(0, 2**30) for t in range(8)]
    assert len(set(draws)) == len(draws)
    again = [root.child_at("trial", t).generator.integers(0, 2**30) for t in range(8)]
    assert draws == again


def test_nested_children_differ_from_flat():
    root = RngStream(5)
    nested = root.child("a").child("b").generator.standard_normal(8)
    flat = root.child("a/b").generator.standard_normal(8)
    # labels hash structurally, not by joined text
    assert not np.array_equal(nested, flat)


def test_seed_must_be_non_negative():
    with pytest.raises(ParameterError):
        RngStream(-1)
    with pytest.raises(ParameterError):
        RngStream(3).child_at("t", -2)


def test_rademacher_values_and_determinism():
    gen = RngStream(11).child("signs").generator
    a = rademacher(gen, (50, 37))
    assert a.shape == (50, 37) and a.dtype == np.float64
    assert set(np.unique(a)) <= {-1.0, 1.0}
    b = rademacher(RngStream(11).child("signs").generator, (50, 37))
    assert np.array_equal(a, b)


def test_unpack_signs_are_int8_and_ignore_the_padding_bits():
    # bit 1 is +1 and bit 0 is -1, most significant bit first
    packed = np.array([[0b10110000, 0b10000000], [0b01001111, 0b01111111]], dtype=np.uint8)
    signs = unpack_signs(packed, 9)
    assert signs.dtype == np.int8 and signs.shape == (2, 9)
    assert signs.tolist() == [[1, -1, 1, 1, -1, -1, -1, -1, 1],
                              [-1, 1, -1, -1, 1, 1, 1, 1, -1]]
    gen = RngStream(12).child("padding").generator
    for k in (1, 7, 8, 9, 701):
        bits = sign_bits(gen, 5, k)
        noisy = bits.copy()
        if k % 8:  # set random padding bits past k
            noisy[:, -1] |= gen.integers(0, 256, size=5, dtype=np.uint8) >> (k % 8)
        assert np.array_equal(unpack_signs(noisy, k), unpack_signs(bits, k))
        assert np.array_equal(unpack_signs(bits, k),
                              2 * np.unpackbits(bits, axis=1, count=k).astype(np.int8) - 1)


def byte_draw(gen, rows, k):
    """numpy's uint8 draw of ceil(k/8) bytes per row, padding bits cleared:
    the bytes ``sign_bits`` takes from whole 64-bit outputs."""
    packed = gen.integers(0, 256, size=(rows, (k + 7) // 8), dtype=np.uint8)
    packed[:, -1] &= np.uint8((0xFF << (-k % 8)) & 0xFF)
    return packed


@pytest.mark.parametrize("halves_before,k,rows", [
    *itertools.product([0, 1, 3], [1, 7, 8, 24, 701, 703], [0, 1, 3, 4096]),
    # whole 32-bit words per row, the shape of the count-sketch plan's draw
    *itertools.product([0, 1], [32, 64, 96], [1, 5, 39]),
])
def test_sign_bits_are_the_uint8_draw(rows, k, halves_before):
    # on a fresh stream, and after an odd number of 32-bit draws, which
    # leaves a half-word buffered at entry: the same bytes, then the same
    # stream, seen by two 32-bit draws (a buffered half first, if any) and
    # the 128-bit state
    label = f"words-{rows}-{k}-{halves_before}"
    ours, theirs = RngStream(31).child(label).generator, RngStream(31).child(label).generator
    for gen in (ours, theirs):
        gen.integers(0, 2**32, size=halves_before, dtype=np.uint32)
    bits = sign_bits(ours, rows, k)
    expected = byte_draw(theirs, rows, k)
    assert bits.dtype == np.uint8 and bits.shape == expected.shape
    assert bits.tobytes() == expected.tobytes()
    if k % 32 == 0:  # and the little-endian bytes of the uint32 draw of k/32 words a row
        words = RngStream(31).child(label).generator
        words.integers(0, 2**32, size=halves_before, dtype=np.uint32)
        expected = words.integers(0, 2**32, size=(rows, k // 32), dtype=np.uint32)
        assert bits.tobytes() == expected.astype("<u4", copy=False).tobytes()
    after = ours.integers(0, 2**32, size=2, dtype=np.uint32)
    assert after.tobytes() == theirs.integers(0, 2**32, size=2, dtype=np.uint32).tobytes()
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_rademacher_is_roughly_balanced():
    gen = RngStream(4).child("signs").generator
    a = rademacher(gen, 200_000)
    # 5 sigma band for a fair coin
    assert abs(a.mean()) < 5 / np.sqrt(a.size)


def blake2b_key(label):
    return int.from_bytes(hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest(),
                          "little")


_STEPS = st.lists(st.tuples(st.text(max_size=12),
                            st.none() | st.integers(0, 2**70) | st.sampled_from([0, 2**32])),
                  max_size=6)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64) | st.integers(2**128, 2**160), steps=_STEPS)
@example(seed=0, steps=[])
@example(seed=2**128, steps=[("trial", 0), ("hash", None)])
@example(seed=7, steps=[("trial", 2**32), ("", 2**64 - 1)])
def test_stream_generator_is_the_spawned_seed_sequence(seed, steps):
    # a stream's generator is PCG64(SeedSequence(seed, spawn_key=path)), the
    # path holding each label's 64-bit blake2b key and each index
    rng, path = RngStream(seed), ()
    for label, index in steps:
        if index is None:
            rng, path = rng.child(label), path + (blake2b_key(label),)
        else:
            rng, path = rng.child_at(label, index), path + (blake2b_key(label), index)
    expected = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=path))
    assert rng.generator.bit_generator.state == expected.state
