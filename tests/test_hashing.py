import math
from collections import Counter

import numpy as np
import pytest

from adasketch.discover import bucket_count
from adasketch.errors import DimensionError, ParameterError
from adasketch.hashing import (
    affine_values,
    bucket_order,
    equi_bounds,
    equi_buckets_of,
    equi_hash,
    next_prime,
    pairwise_hash,
    run_starts,
    sorted_union,
)
from adasketch.oracle import lp_norm
from adasketch.rng import RngStream


def stream(label, seed=1234):
    return RngStream(seed).child(label)


def stacked_draws(family, m, d, label, trials):
    """``trials`` single draws of one family from one stream, one per row."""
    rng = stream(label)
    if family == "equi":
        return np.array([equi_hash(m, d, rng) for _ in range(trials)])
    idx = np.arange(m)
    return np.array([pairwise_hash(idx, m, d, rng) for _ in range(trials)])


def test_next_prime():
    assert [next_prime(n) for n in (1, 2, 3, 4, 10, 64, 100)] == [2, 2, 3, 5, 11, 67, 101]


def divisible(n, limit):
    """Whether n has a divisor in [2, limit], by trial division."""
    divisors = np.arange(2, limit + 1, dtype=np.int64)
    return bool(np.any(n % divisors == 0))


def test_next_prime_equals_trial_division():
    # every n < 10^5, against trial division of all n < 100,004 at once
    n = np.arange(100_004)
    prime = n >= 2
    for d in range(2, math.isqrt(n.size) + 1):
        prime &= (n % d != 0) | (n == d)
    primes = np.flatnonzero(prime)
    expected = primes[np.searchsorted(primes, np.arange(100_000))]
    uncached = next_prime.__wrapped__  # keeps 10^5 entries out of the cache
    assert [uncached(n) for n in range(100_000)] == expected.tolist()
    # near 2^40, where spot's label primes live at large m: 2^40 - 87 and
    # 2^40 + 15 are prime, and nothing between them and the start is
    for start, prime in ((2**40 - 100, 2**40 - 87), (2**40, 2**40 + 15)):
        assert next_prime(start) == prime
        assert not divisible(prime, math.isqrt(prime))
        assert all(divisible(n, 1000) for n in range(start, prime))


def test_next_prime_is_exact_up_to_its_limit():
    # 2^61 - 1 (a Mersenne prime) and 2^61 + 15 are the primes next to 2^61
    assert next_prime(2**61 - 2) == next_prime(2**61 - 1) == 2**61 - 1
    assert next_prime(2**61) == 2**61 + 15
    # a strong pseudoprime to the first nine prime bases is skipped
    pseudoprime = 149491 * 747451 * 34233211
    assert pseudoprime == 3825123056546413051
    assert next_prime(pseudoprime) > pseudoprime
    # the least composite that passes all twelve bases is the limit
    limit = 399165290221 * 798330580441
    assert limit == 318665857834031151167461
    assert next_prime(limit - 30) == limit - 20  # the last prime below it
    for n in (limit - 19, limit):
        with pytest.raises(ParameterError, match="318,665,857,834,031,151,167,461"):
            next_prime(n)


def test_equi_hash_bucket_size_law_examples():
    # np.bincount(h)[1:] counts the occurrences of each hash value 1..D
    h = equi_hash(10, 3, stream("a"))
    assert sorted(np.bincount(h, minlength=4)[1:]) == [3, 3, 4]
    h = equi_hash(6, 6, stream("b"))
    assert list(np.bincount(h, minlength=7)[1:]) == [1] * 6
    h = equi_hash(5, 1, stream("c"))
    assert list(np.bincount(h, minlength=2)[1:]) == [5]


def test_equi_hash_law_holds_on_a_grid():
    for m in (1, 2, 7, 16, 33, 100):
        for d in {1, min(2, m), min(3, m), m // 2 or 1, m}:
            batch = stacked_draws("equi", m, d, f"{m}-{d}", 20)
            lo, hi = m // d, -(-m // d)
            for row in batch:
                sizes = np.bincount(row, minlength=d + 1)[1:]
                assert set(sizes) <= {lo, hi}
                assert sizes.sum() == m


def test_equi_hash_bucket_cardinality_cap():
    for m, d in ((100, 7), (64, 9), (33, 5)):
        h = equi_hash(m, d, stream(f"cap-{m}-{d}"))
        cap = -(-m // d)
        for j in range(m):
            assert np.count_nonzero(h == h[j]) <= cap  # j's bucket


def test_equi_hash_is_the_ceil_of_the_scaled_rank():
    # rank r (0-based) of the same permutation draw hashes to
    # ceil((r + 1) D / m), computed here in Python integers: the bounds
    # rule and the ceil formula label every rank alike
    for m, d in ((1, 1), (7, 1), (7, 3), (7, 7), (97, 1), (97, 13), (97, 96), (97, 97),
                 (1000, 333), (2**16, 701), (2**16, 2**16)):
        hashed = equi_hash(m, d, stream(f"ceil-{m}-{d}"))
        ranks = stream(f"ceil-{m}-{d}").generator.permutation(m).tolist()
        assert hashed.dtype == np.int64
        assert hashed.tolist() == [-(-(r + 1) * d // m) for r in ranks], (m, d)


def test_equi_hash_rejects_bad_bucket_counts():
    with pytest.raises(ParameterError):
        equi_hash(5, 6, stream("x"))
    with pytest.raises(ParameterError):
        equi_hash(5, 0, stream("x"))


def test_equi_buckets_of_follows_the_restricted_law():
    # the buckets of 3 designated coordinates of [0, 10) cut into 3 buckets
    # (sizes 3, 3, 4) must match the restricted full-permutation law:
    # marginals proportional to bucket sizes, pair collisions
    # sum_d s_d (s_d - 1) / (m (m - 1)) = 24/90, and with every coordinate
    # designated, exactly s_d members in bucket d
    m, d, draws = 10, 3, 20_000
    root = stream("sparse-law")
    bounds = equi_bounds(m, d)
    groups = np.empty((draws, 3), dtype=np.int64)
    for t in range(draws):
        groups[t] = equi_buckets_of(bounds, 3, root.child_at("t", t))
    sizes = np.diff(bounds)
    assert list(sizes) == [3, 3, 4]
    for column in groups.T:
        freq = np.bincount(column, minlength=d) / draws
        assert np.allclose(freq, sizes / m, atol=4 * math.sqrt(0.25 / draws))
    collide = np.mean(groups[:, 0] == groups[:, 1])
    assert abs(collide - 24 / 90) <= 4 * math.sqrt(0.25 / draws)
    full = equi_buckets_of(bounds, m, stream("sparse-full"))
    assert list(np.bincount(full, minlength=d)) == [3, 3, 4]
    assert equi_buckets_of(bounds, 0, stream("sparse-none")).size == 0
    with pytest.raises(ParameterError):
        equi_buckets_of(bounds, m + 1, stream("sparse-bad"))
    with pytest.raises(ParameterError):
        equi_buckets_of(equi_bounds(5, 6), 1, stream("sparse-bad"))


def test_equi_bounds_are_exact_past_int64_products():
    # bounds[d] = floor(d m / D) in Python integers, where d * m itself
    # leaves int64; a D with D^2 >= 2^63 is refused before any allocation
    for m, d in ((2**62, 3), (2**60, 27), (10**18 + 7, 1_234_567)):
        assert equi_bounds(m, d).tolist() == [i * m // d for i in range(d + 1)]
    with pytest.raises(ParameterError, match="D\\^2 < 2\\^63"):
        equi_bounds(2**62, 2**32)


@pytest.mark.parametrize("count", [1, 256, 257, 65_536, 65_537])
def test_bucket_order_is_the_stable_argsort_of_the_ids(count):
    # these counts cross each dtype boundary of np.min_scalar_type(count - 1)
    gen = stream(f"order-{count}").generator
    for size in (0, 1, 5_000):
        ids = gen.integers(0, count, size=size)
        ids[: min(size, 2)] = count - 1  # the largest id, twice
        expected = np.argsort(np.asarray(ids, np.intp), kind="stable")
        order = bucket_order(ids, count)
        assert order.dtype == expected.dtype and np.array_equal(order, expected)


def test_run_starts_marks_the_first_of_each_run():
    assert run_starts(np.array([], dtype=np.int64)).tolist() == []
    assert run_starts(np.array([4])).tolist() == [True]
    assert run_starts(np.full(5, 3)).tolist() == [True, False, False, False, False]
    assert run_starts(np.array([0, 0, 2, 5, 5, 5, 6])).tolist() == [
        True, False, True, True, False, False, True]


def test_sorted_union_is_the_union_of_sorted_coordinate_sets():
    # against np.union1d (two pieces) and np.unique of the concatenation:
    # one piece or up to 12, empty pieces, repeats within and across pieces,
    # and values near 2^62
    gen = stream("sorted-union").generator
    empty = np.empty(0, dtype=np.intp)
    assert sorted_union([empty]).dtype == np.intp and sorted_union([empty, empty]).size == 0
    assert sorted_union([np.array([2, 2, 5])]).tolist() == [2, 5]
    for _ in range(600):
        base = int(gen.choice([0, 2**62 - 64]))
        span = int(gen.choice([1, 8, 1000]))
        pieces = [np.sort(gen.integers(base, base + span, size=int(gen.integers(0, 20)))
                          .astype(np.intp)) for _ in range(int(gen.integers(1, 13)))]
        union = sorted_union(pieces)
        expected = np.unique(np.concatenate(pieces))
        assert union.dtype == np.intp and union.tobytes() == expected.tobytes()
        if len(pieces) == 2:
            assert union.tobytes() == np.union1d(*pieces).tobytes()


def test_affine_values_equal_python_integer_arithmetic():
    # random (a, b, P, D, indices) with P, D and the indices up to 2^62, on
    # both sides of the int64 guard, against the formula in Python integers
    gen = stream("affine-exact").generator
    sides = Counter()
    for _ in range(1200):
        prime, buckets = (int(gen.integers(2, 2 ** int(gen.integers(2, 63))))
                          for _ in range(2))
        a, b = int(gen.integers(1, prime)), int(gen.integers(0, prime))
        top = int(gen.integers(1, 2 ** int(gen.integers(1, 63))))
        idx = gen.integers(0, top, size=int(gen.integers(0, 9)))
        labels = affine_values(idx, a, b, prime, buckets)
        assert labels.dtype == np.int64
        assert labels.tolist() == [(a * i + b) % prime * buckets // prime + 1
                                   for i in idx.tolist()]
        sides[prime * buckets < 2**62 and (int(idx.max(initial=0)) + 1) * a < 2**62] += 1
    assert min(sides[True], sides[False]) >= 100, sides


def test_pairwise_hash_degenerate_cases():
    assert np.array_equal(pairwise_hash(np.arange(5), 5, 1, stream("pw1")),
                          np.ones(5, dtype=int))
    v = pairwise_hash([0], 1, 7, stream("pw2"))
    assert v.shape == (1,) and 1 <= v[0] <= 7
    assert pairwise_hash([], 9, 4, stream("pw3")).shape == (0,)
    # float indices raise before (a, b) is drawn, integral or not
    for indices in ([0.5, 3.7], [1.0, 2.0]):
        rng = stream("pw4")
        with pytest.raises(DimensionError):
            pairwise_hash(indices, 9, 4, rng)
        assert rng.generator.random() == stream("pw4").generator.random()


def test_pairwise_hash_labels_the_given_coordinates_of_one_draw():
    # labelling a subset draws the same (a, b) as labelling all of [0, m)
    m, d = 1000, 3072
    full = pairwise_hash(np.arange(m), m, d, stream("pw-sub"))
    some = np.array([3, 17, 400, 999])
    assert np.array_equal(pairwise_hash(some, m, d, stream("pw-sub")), full[some])
    assert full.min() >= 1 and full.max() <= d


def test_pairwise_collision_rate_m2_d2():
    # exact collision probability is at most 1/D = 0.5
    batch = stacked_draws("pairwise", 2, 2, "pwc", 100_000)
    rate = np.mean(batch[:, 0] == batch[:, 1])
    assert rate <= 0.5 + 0.01


@pytest.mark.parametrize("draw", ["equi", "pairwise"])
def test_pairwise_collision_bound_both_families(draw):
    m, d, trials = 64, 8, 100_000
    batch = stacked_draws(draw, m, d, f"coll-{draw}", trials)
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
    batch = stacked_draws(draw, m, d, f"tail-{draw}-{alpha}", trials)
    same = batch == batch[:, [j]]
    same[:, j] = False
    exceed = 0
    powers = np.abs(rest) ** p
    mass = same @ powers  # ||v_{B_j minus j}||_p^p per draw
    exceed = np.mean(mass ** (1 / p) > threshold)
    assert exceed <= alpha + 3 * math.sqrt(alpha / trials)


def test_heavy_hitter_isolation_event():
    # at bucket_count's operating point (gamma = sqrt(5), delta0 = 1/6), an
    # eps-large coordinate is gamma-dominant in its bucket, in l_2, with
    # probability >= 1 - delta0; one point per regime, p <= 2 and p > 2
    delta0, gamma = 1 / 6, math.sqrt(5)
    trials, j = 10_000, 17
    for p, eps, m in ((1.0, 0.2, 512), (3.0, 0.9, 512)):
        d = bucket_count(p, eps, m)
        assert d < m
        gen = stream("hh-vec").generator
        v = gen.standard_normal(m)
        v[j] = 0.0
        v *= (1 - eps) / lp_norm(v, p)
        v[j] = eps
        batch = stacked_draws("equi", m, d, "hh", trials)
        same = batch == batch[:, [j]]
        same[:, j] = False
        mass = same @ (v * v)
        good = np.mean(np.sqrt(mass) <= abs(v[j]) / gamma)
        assert good >= 1 - delta0 - 3 * math.sqrt(delta0 / trials)
