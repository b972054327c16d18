import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adasketch.errors import ParameterError
from adasketch.rng import RngStream, rademacher


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
    assert a.shape == (50, 37)
    assert set(np.unique(a)) <= {-1.0, 1.0}
    b = rademacher(RngStream(11).child("signs").generator, (50, 37))
    assert np.array_equal(a, b)


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
