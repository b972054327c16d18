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
from adasketch.rng import RngStream, rademacher, sign_bits, unpack_signs


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


def replay_sign_filter(hidden, live, segment_of, segments, k, label):
    """``sign_filter`` with no zero candidates, and its replay: the same one
    sign block (row j = column a_j) measured per segment with measure_rows
    and float correlations. Returns (sets, replayed sets, cost, rows that
    measured exactly 0.0)."""
    live, segment_of = np.asarray(live, dtype=np.intp), np.asarray(segment_of, dtype=np.intp)
    sizes = np.bincount(segment_of, minlength=segments)
    oracle = MeasurementOracle(hidden)
    coords, cuts = sign_filter(oracle, live, segment_of, sizes, k, stream(label), None)
    assert cuts[0] == 0 and cuts[-1] == coords.size
    got = [coords[a:b] for a, b in zip(cuts[:-1], cuts[1:])]

    grouped = live[np.argsort(segment_of, kind="stable")]
    block = unpack_signs(sign_bits(stream(label).generator, live.size, k), k)
    expected, zero_rows = [], 0
    for d in range(segments):
        rows = np.flatnonzero(np.isin(grouped, live[segment_of == d]))
        if not rows.size:
            continue
        matrix = block[rows].T
        y = MeasurementOracle(hidden).measure_rows(grouped[rows], matrix)
        zero_rows += np.count_nonzero(y == 0.0)
        kept = grouped[rows][sign_filter_mask(signs_of(y) @ matrix, k)]
        if kept.size:
            expected.append(np.sort(kept))
    return got, expected, oracle.cost, zero_rows


# (label, live, segment_of, segments): every segment lone, one shared
# segment among lone ones, one live segment lone or shared, none live
LONE_AND_SHARED = [("all-lone", [3, 17, 30, 38], [1, 0, 4, 2], 6),
                   ("one-shared", [4, 20, 21, 22, 23, 24, 33], [2, 3, 3, 3, 3, 3, 0], 5),
                   ("single-lone", [11], [2], 4),
                   ("single-shared", [20, 21, 22, 23], [1, 1, 1, 1], 3),
                   ("none-live", [], [], 3)]


def test_sign_filter_replays_the_direct_filter_on_its_sign_block():
    # with no zero candidates the segmented filter is a function of its one
    # sign block: replaying that block per segment must give the same
    # survivors. Segment 0 cancels exactly on rows where its two signs
    # agree, so sign(0) = +1 is exercised; segment 1 is empty and charged k
    # all the same.
    k = 24
    gen = stream("replay-x").generator
    hidden = np.zeros(40)
    hidden[[1, 2]] = [0.5, -0.5]
    hidden[[10, 11, 12]] = [1.0, 0.01, -0.02]
    hidden[20:25] = gen.standard_normal(5)
    hidden[[3, 4, 17, 30, 33, 38]] = [2.0, -1e-300, -0.3, 5e-324, 7.0, -1.0]
    live = [20, 1, 10, 21, 22, 2, 11, 12, 23, 24]
    segment_of = [3, 0, 2, 3, 3, 0, 2, 2, 3, 3]
    got, expected, cost, zero_rows = replay_sign_filter(hidden, live, segment_of, 4, k, "replay")
    assert zero_rows > 0 and cost == 4 * k
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    # a lone segment's candidate survives without being measured
    for label, live, segment_of, segments in LONE_AND_SHARED:
        got, expected, cost, _ = replay_sign_filter(hidden, live, segment_of, segments, k, label)
        assert cost == k * segments, label
        assert len(got) == len(expected), label
        assert all(np.array_equal(a, b) for a, b in zip(got, expected)), label


class MeasureLog(MeasurementOracle):
    """An oracle that records the group count of each measure_rows call."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.group_counts = []

    def measure_rows(self, support, rows, stage=None, groups=None, group_count=None):
        self.group_counts.append(group_count)
        return super().measure_rows(support, rows, stage, groups, group_count)


def test_sign_filter_measures_only_shared_segments():
    # a pass whose live segments are all lone makes no measurement; one
    # shared segment among lone ones is measured with one lone segment, so
    # the call keeps two groups and the grouped kernel; with no lone
    # segment every live segment is measured, as by one grouped call
    hidden = stream("measured-x").generator.standard_normal(40)
    expected = {"all-lone": [], "one-shared": [2], "single-lone": [],
                "single-shared": [1], "none-live": []}
    for label, live, segment_of, segments in LONE_AND_SHARED:
        oracle, segment_of = MeasureLog(hidden), np.array(segment_of, dtype=np.intp)
        sign_filter(oracle, live, segment_of, np.bincount(segment_of, minlength=segments), 60,
                    stream(label), None)
        assert oracle.group_counts == expected[label], label
        assert oracle.cost == 60 * segments, label
    oracle = MeasureLog(hidden)
    sign_filter(oracle, np.arange(9), [0, 0, 1, 1, 1, 2, 2, 3, 3], [2, 3, 2, 2, 5], 60,
                stream("all-shared"), lambda: np.arange(9, 40))
    assert oracle.group_counts == [4] and oracle.cost == 5 * 60


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
