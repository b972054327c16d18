import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import binom

from adasketch.errors import ParameterError
from adasketch.oracle import MeasurementOracle, lp_norm
from adasketch.precondition import (
    precond,
    precond_measurements,
    sign_filter,
    sign_filter_mask,
    sign_tail_probability,
    signs_of,
)
from adasketch.rng import RngStream, rademacher, sign_rows


def stream(label, seed=4242):
    return RngStream(seed).child(label)


def one_segment_filter(oracle, candidates, k, rng):
    """The fast path ``sign_filter`` on one candidate set, as a detection pass
    runs it on one bucket; ``precond`` is its direct construction."""
    idx = np.asarray(candidates, dtype=np.intp)
    live_mask = np.isin(idx, oracle.nonzero_indices())
    live = idx[live_mask]
    kept, _ = sign_filter(oracle, live, np.zeros(live.size, np.intp), [idx.size], k, rng,
                          lambda: idx[~live_mask])
    return kept


# each path keyed by whether it materializes every sign bit, as its streams are labelled
PATHS = ((False, one_segment_filter), (True, precond))


def test_measurement_count_examples():
    gamma = 4100 * math.sqrt(2 * math.log(64))
    assert precond_measurements(gamma, 1 / 5) == 701
    assert precond_measurements(2.0, 0.5) == math.ceil(36 * math.log(2.6 / 0.5)) == 60
    assert precond_measurements(10.0, 0.1) == math.ceil(36 * math.log(410)) == 217
    with pytest.raises(ParameterError):
        precond_measurements(0.9, 0.1)
    with pytest.raises(ParameterError):
        precond_measurements(2.0, 0.0)


def test_sign_filter_mask_is_exact_rational_comparison():
    # d_H <= k/6 at k = 12 means distance <= 2, i.e. |corr| >= 8
    k = 12
    corr = np.array([8.0, 7.0, -8.0, 12.0, 0.0])
    assert list(sign_filter_mask(corr, k)) == [True, False, True, True, False]
    # k = 7: floor(k/6) = 1, |corr| >= ceil(2*7/3) -> 3*|corr| >= 14 -> |corr| >= 5
    k = 7
    corr = np.array([5.0, 4.0, -5.0])
    assert list(sign_filter_mask(corr, k)) == [True, False, True]


def exact_sign_tails(k_max):
    """The exact tails 2 * P(Bin(k, 1/2) <= floor(k/6)), capped at 1, as
    fractions for k = 1..k_max; binomial coefficients from Pascal's rule."""
    row, tails = [1], {}
    for k in range(1, k_max + 1):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        tails[k] = min(Fraction(1), Fraction(2 * sum(row[:k // 6 + 1]), 2 ** k))
    return tails


def test_sign_tail_probability_matches_binomial():
    # the exact tail, rounded once: equality here is stricter than equality
    # with binom.cdf, which is 1 ulp off at k = 120 and ~200 ulps at k = 701
    for k, exact in exact_sign_tails(1000).items():
        assert sign_tail_probability(k) == float(exact), k
        assert sign_tail_probability(k) == pytest.approx(
            min(1.0, 2 * float(binom.cdf(k // 6, k, 0.5))), rel=1e-12, abs=0.0), k
    assert sign_tail_probability(1) == 1.0


@pytest.mark.parametrize("n", [1, 4095, 65535, 2 ** 30])
def test_sign_tail_draw_is_zero_under_either_tail_value(n):
    # at k = 701 the tail is ~3.7e-76, so q = 1 - p is 1.0 for both values
    # and the zero-candidate Binomial draw uses the stream identically
    ours = sign_tail_probability(701)
    theirs = 2 * float(binom.cdf(701 // 6, 701, 0.5))
    assert 0.0 < ours < 1e-75 and 0.0 < theirs < 1e-75
    for seed in range(20):
        gen_ours, gen_theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        assert gen_ours.binomial(n, ours) == 0 == gen_theirs.binomial(n, theirs)
        assert gen_ours.random() == gen_theirs.random()


def test_singleton_bucket_always_survives():
    for sign in (3.0, -0.25):
        for materialize, run in PATHS:
            oracle = MeasurementOracle([0.0, sign, 0.0])
            got = run(oracle, [1], 60, stream(f"s{sign}-{materialize}"))
            assert list(got) == [1]
            assert oracle.cost == 60


def test_empty_candidates_are_free():
    oracle = MeasurementOracle([1.0, 2.0])
    assert precond(oracle, [], 60, stream("e")).size == 0
    assert oracle.cost == 0


def test_cost_is_exactly_k():
    gen = stream("ck").generator
    x = gen.standard_normal(64) * (gen.random(64) < 0.3)
    for k in (7, 60, 121):
        for materialize, run in PATHS:
            oracle = MeasurementOracle(x)
            run(oracle, np.arange(64), k, stream(f"ck-{k}-{materialize}"))
            assert oracle.cost == k


def test_sign_filter_replays_the_direct_filter_on_its_sign_block():
    # with no zero candidates the segmented filter is a function of its one
    # sign block (row j = column a_j): replaying that block per segment with
    # measure_rows and float correlations must give the same survivors.
    # Segment 0 cancels exactly on rows where its two signs agree, so
    # sign(0) = +1 is exercised; segment 1 is empty and charged k all the same.
    k = 24
    gen = stream("replay-x").generator
    hidden = np.zeros(40)
    hidden[[1, 2]] = [0.5, -0.5]
    hidden[[10, 11, 12]] = [1.0, 0.01, -0.02]
    hidden[20:25] = gen.standard_normal(5)
    live = np.array([20, 1, 10, 21, 22, 2, 11, 12, 23, 24])
    segment_of = np.array([3, 0, 2, 3, 3, 0, 2, 2, 3, 3])
    sizes = np.bincount(segment_of, minlength=4)
    oracle = MeasurementOracle(hidden)
    coords, cuts = sign_filter(oracle, live, segment_of, sizes, k, stream("replay"), None)
    assert oracle.cost == 4 * k
    assert cuts[0] == 0 and cuts[-1] == coords.size
    got = [coords[a:b] for a, b in zip(cuts[:-1], cuts[1:])]

    grouped = live[np.argsort(segment_of, kind="stable")]
    block, _ = sign_rows(stream("replay").generator, live.size, k)
    expected, zero_rows = [], 0
    for d in range(4):
        rows = np.flatnonzero(np.isin(grouped, live[segment_of == d]))
        if not rows.size:
            continue
        matrix = block[rows].T
        y = MeasurementOracle(hidden).measure_rows(grouped[rows], matrix)
        zero_rows += np.count_nonzero(y == 0.0)
        kept = grouped[rows][sign_filter_mask(signs_of(y) @ matrix, k)]
        if kept.size:
            expected.append(np.sort(kept))
    assert zero_rows > 0
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def test_zero_vector_retention_rate_both_paths():
    # on a zero bucket every candidate's retention is the Binomial tail event;
    # rate must (a) stay below the 2*exp(-k/36) guarantee and (b) agree with
    # the exact tail probability within Monte Carlo noise on both paths
    k, size, trials = 60, 128, 600
    p_exact = sign_tail_probability(k)
    for materialize, run in PATHS:
        kept = 0
        rng = stream(f"zero-{materialize}")
        for _ in range(trials):
            oracle = MeasurementOracle(np.zeros(size))
            kept += run(oracle, np.arange(size), k, rng).size
        rate = kept / (trials * size)
        n = trials * size
        assert rate <= 2 * math.exp(-k / 36) + 3 * math.sqrt(2 * math.exp(-k / 36) / n)
        assert abs(rate - p_exact) <= 5 * math.sqrt(max(p_exact, 1e-12) / n) + 5 / n


def test_fast_and_materialized_paths_agree_statistically():
    # mixed bucket: one dominant coordinate, some small live ones, many zeros;
    # survivor-set statistics must match across the two samplers
    k, trials = 60, 400
    size = 96
    gen = stream("agree-x").generator
    results = {}
    for materialize, run in PATHS:
        keep_dom = 0
        extra = 0
        rng = stream(f"agree-{materialize}")
        for t in range(trials):
            x = np.zeros(size)
            x[7] = 1.0
            small = gen.standard_normal(10) * 0.01
            x[20:30] = small
            oracle = MeasurementOracle(x)
            got = run(oracle, np.arange(size), k, rng)
            keep_dom += 7 in got
            extra += got.size - (7 in got)
        results[materialize] = (keep_dom / trials, extra / trials)
    (dom_fast, extra_fast), (dom_dense, extra_dense) = results[False], results[True]
    assert dom_fast >= 0.95 and dom_dense >= 0.95
    assert abs(extra_fast - extra_dense) <= 0.2


def test_retention_rate_under_mild_dominance():
    # sqrt(5)-dominant coordinate is kept with prob >= 1 - exp(-k/36)
    size, trials = 256, 10_000
    gen = stream("ret-x").generator
    for k in (60, 120):
        alpha = math.exp(-k / 36)
        rng = stream(f"ret-{k}")
        x = gen.standard_normal(size)
        x[0] = 0.0
        x *= (1 / math.sqrt(5)) / lp_norm(x, 2)
        x[0] = 1.0
        oracle_proto = x
        kept = 0
        for _ in range(trials):
            oracle = MeasurementOracle(oracle_proto)
            kept += 0 in precond(oracle, np.arange(size), k, rng)
        assert kept / trials >= 1 - alpha - 3 * math.sqrt(alpha / trials)


def test_residual_norm_event_rate():
    # P(||x_{S minus j*}||_2 > |x_j*| / gamma) <= (2/5) gamma^2 exp(-k/36)
    size, trials, k = 128, 4000, 120
    gen = stream("res-x").generator
    rng = stream("res")
    x = gen.standard_normal(size)
    x[0] = 0.0
    x *= (1 / math.sqrt(5)) / lp_norm(x, 2)
    x[0] = 1.0
    for gamma in (2.0, 4.0):
        bound = 0.4 * gamma * gamma * math.exp(-k / 36)
        bad = 0
        for _ in range(trials):
            oracle = MeasurementOracle(x)
            got = precond(oracle, np.arange(size), k, rng)
            rest = [j for j in got if j != 0]
            bad += lp_norm(x[rest], 2) > 1.0 / gamma if rest else False
        assert bad / trials <= bound + 3 * math.sqrt(max(bound, 1e-4) / trials)


def test_materialized_filter_replays_from_its_sign_draw():
    gen = stream("draw-x").generator
    x = gen.standard_normal(32)
    oracle = MeasurementOracle(x)
    got = precond(oracle, np.arange(32), 24, stream("draw"))
    assert oracle.cost == 24
    # the filter's (k x candidates) sign matrix is the stream's first draw
    matrix = rademacher(stream("draw").generator, (24, 32))
    signs = np.where(matrix @ x >= 0, 1.0, -1.0)
    # survivors replay via the k/6 rule: Hamming distance <= 4 to s or to -s
    survivors = [
        j for j in range(32)
        if np.count_nonzero(matrix[:, j] != signs) <= 4
        or np.count_nonzero(matrix[:, j] != -signs) <= 4
    ]
    assert list(got) == survivors
