import math

import numpy as np
import pytest

from adasketch.errors import DimensionError, ParameterError
from adasketch.hashing import (
    bucket_of,
    bucket_sizes,
    equi_buckets_of,
    equi_hash,
    equi_partition,
    hash_size_for,
    next_prime,
    pairwise_hash,
)
from adasketch.oracle import lp_norm
from adasketch.rng import RngStream


def stream(label, seed=1234):
    return RngStream(seed).child(label)


def test_next_prime():
    assert [next_prime(n) for n in (1, 2, 3, 4, 10, 64, 100)] == [2, 2, 3, 5, 11, 67, 101]


def test_equi_hash_bucket_size_law_examples():
    h = equi_hash(10, 3, stream("a"))
    assert sorted(bucket_sizes(h, 3)) == [3, 3, 4]
    h = equi_hash(6, 6, stream("b"))
    assert list(bucket_sizes(h, 6)) == [1] * 6
    h = equi_hash(5, 1, stream("c"))
    assert list(bucket_sizes(h, 1)) == [5]


def test_equi_hash_law_holds_on_a_grid():
    for m in (1, 2, 7, 16, 33, 100):
        for d in {1, min(2, m), min(3, m), m // 2 or 1, m}:
            batch = equi_hash(m, d, stream(f"{m}-{d}"), draws=20)
            lo, hi = m // d, -(-m // d)
            for row in batch:
                sizes = bucket_sizes(row, d)
                assert set(sizes) <= {lo, hi}
                assert sizes.sum() == m


def test_equi_hash_bucket_cardinality_cap():
    for m, d in ((100, 7), (64, 9), (33, 5)):
        h = equi_hash(m, d, stream(f"cap-{m}-{d}"))
        cap = -(-m // d)
        for j in range(m):
            assert bucket_of(h, j).size <= cap


def test_equi_hash_rejects_bad_bucket_counts():
    with pytest.raises(ParameterError):
        equi_hash(5, 6, stream("x"))
    with pytest.raises(ParameterError):
        equi_hash(5, 0, stream("x"))


def test_equi_partition_matches_law_and_covers():
    m, d = 103, 9
    order, bounds = equi_partition(m, d, stream("part"))
    assert np.array_equal(np.sort(order), np.arange(m))
    sizes = np.diff(bounds)
    assert set(sizes) <= {m // d, -(-m // d)}


def test_equi_buckets_of_follows_the_restricted_law():
    # the buckets of 3 designated coordinates of [0, 10) cut into 3 buckets
    # (sizes 3, 3, 4) must match the restricted full-permutation law:
    # marginals proportional to bucket sizes, pair collisions
    # sum_d s_d (s_d - 1) / (m (m - 1)) = 24/90, and with every coordinate
    # designated, exactly s_d members in bucket d
    m, d, draws = 10, 3, 20_000
    root = stream("sparse-law")
    groups = np.empty((draws, 3), dtype=np.int64)
    for t in range(draws):
        groups[t], bounds = equi_buckets_of(m, d, 3, root.child_at("t", t))
    sizes = np.diff(bounds)
    assert list(sizes) == [3, 3, 4]
    for column in groups.T:
        freq = np.bincount(column, minlength=d) / draws
        assert np.allclose(freq, sizes / m, atol=4 * math.sqrt(0.25 / draws))
    collide = np.mean(groups[:, 0] == groups[:, 1])
    assert abs(collide - 24 / 90) <= 4 * math.sqrt(0.25 / draws)
    full, _ = equi_buckets_of(m, d, m, stream("sparse-full"))
    assert list(np.bincount(full, minlength=d)) == [3, 3, 4]
    assert equi_buckets_of(m, d, 0, stream("sparse-none"))[0].size == 0
    with pytest.raises(ParameterError):
        equi_buckets_of(m, d, m + 1, stream("sparse-bad"))


def test_pairwise_hash_degenerate_cases():
    assert np.array_equal(pairwise_hash(5, 1, stream("pw1")), np.ones(5, dtype=int))
    v = pairwise_hash(1, 7, stream("pw2"))
    assert v.shape == (1,) and 1 <= v[0] <= 7


def test_pairwise_collision_rate_m2_d2():
    # exact collision probability is at most 1/D = 0.5
    batch = pairwise_hash(2, 2, stream("pwc"), draws=100_000)
    rate = np.mean(batch[:, 0] == batch[:, 1])
    assert rate <= 0.5 + 0.01


@pytest.mark.parametrize("draw", ["equi", "pairwise"])
def test_pairwise_collision_bound_both_families(draw):
    m, d, trials = 64, 8, 100_000
    label = f"coll-{draw}"
    if draw == "equi":
        batch = equi_hash(m, d, stream(label), draws=trials)
    else:
        batch = pairwise_hash(m, d, stream(label), draws=trials)
    margin = 4 * math.sqrt((1 / d) * (1 - 1 / d) / trials)
    for i, j in ((0, 1), (3, 40), (17, 63)):
        rate = np.mean(batch[:, i] == batch[:, j])
        assert rate <= 1 / d + margin


@pytest.mark.parametrize("alpha", [0.1, 0.25])
@pytest.mark.parametrize("draw", ["equi", "pairwise"])
def test_subvector_norm_tail_bound(alpha, draw, p=1.5):
    # P(||v_{B_j \ {j}}||_p > (alpha*D)^(-1/p) * ||v_{[m] \ {j}}||_p) <= alpha
    m, d, trials, j = 256, 16, 10_000, 5
    gen = stream(f"tail-vec-{draw}-{alpha}").generator
    v = gen.standard_normal(m)
    v /= lp_norm(v, p)
    rest = v.copy()
    rest[j] = 0.0
    threshold = (alpha * d) ** (-1 / p) * lp_norm(rest, p)
    label = f"tail-{draw}-{alpha}"
    if draw == "equi":
        batch = equi_hash(m, d, stream(label), draws=trials)
    else:
        batch = pairwise_hash(m, d, stream(label), draws=trials)
    same = batch == batch[:, [j]]
    same[:, j] = False
    exceed = 0
    powers = np.abs(rest) ** p
    mass = same @ powers  # ||v_{B_j minus j}||_p^p per draw
    exceed = np.mean(mass ** (1 / p) > threshold)
    assert exceed <= alpha + 3 * math.sqrt(alpha / trials)


def test_bucket_of_examples():
    h = np.array([1, 2, 1])
    assert list(bucket_of(h, 0)) == [0, 2]
    assert list(bucket_of(h, 1)) == [1]
    assert list(bucket_of(np.array([3, 3, 3]), 1)) == [0, 1, 2]
    with pytest.raises(DimensionError):
        bucket_of(h, 3)


def test_hash_size_for_examples():
    assert hash_size_for(1, 0.5, 0.25, 2, 10**9) == 16
    assert hash_size_for(2, 0.5, 1.0, 2, 10**9) == 16
    assert hash_size_for(4, 0.5, 1.0, 2, 256) == 256


def test_hash_size_for_domain_checks():
    with pytest.raises(ParameterError):
        hash_size_for(0.5, 0.5, 0.25, 2, 100)
    with pytest.raises(ParameterError):
        hash_size_for(1, 1.5, 0.25, 2, 100)
    with pytest.raises(ParameterError):
        hash_size_for(1, 0.5, 0.25, 0.5, 100)


def test_hash_size_for_caps_at_m():
    assert hash_size_for(1, 0.01, 0.1, 100, 64) == 64


def test_hash_size_for_pairwise_variant():
    # alternate sizing 2/delta0 * (gamma/eps)^p for pairwise draws
    assert hash_size_for(1, 0.5, 0.25, 2, 10**9, pairwise=True) == 32
    with pytest.raises(ParameterError):
        hash_size_for(3, 0.5, 0.25, 2, 10**9, pairwise=True)


def test_heavy_hitter_isolation_event():
    # with D = hash_size_for(...), an eps-large coordinate is gamma-dominant
    # in its bucket with probability >= 1 - delta0
    p, eps, delta0, gamma = 1.0, 0.2, 0.25, 3.0
    m, trials, j = 512, 10_000, 17
    d = hash_size_for(p, eps, delta0, gamma, m)
    gen = stream("hh-vec").generator
    v = gen.standard_normal(m)
    v[j] = 0.0
    v *= (1 - eps) / lp_norm(v, p)
    v[j] = eps
    batch = equi_hash(m, d, stream("hh"), draws=trials)
    same = batch == batch[:, [j]]
    same[:, j] = False
    mass = same @ (v * v)
    good = np.mean(np.sqrt(mass) <= abs(v[j]) / gamma)
    assert good >= 1 - delta0 - 3 * math.sqrt(delta0 / trials)
