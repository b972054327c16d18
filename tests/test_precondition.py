import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from adasketch.errors import DimensionError, ParameterError
from adasketch import precondition as precondition_module
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
    ((kept, _),) = sign_filter(
        oracle, live, [(np.zeros(live.size, np.intp), [idx.size], rng)], k, lambda: idx[~live_mask])
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
    for k in (0, 60.5):  # k is checked on an empty set too, and never truncated
        with pytest.raises(ParameterError):
            precond(oracle, [], k, stream("e"))
    # float candidates raise, not measured as [0, 1], and draw nothing
    rng = stream("e")
    with pytest.raises(DimensionError):
        precond(oracle, [0.5, 1.7], 60, rng)
    assert rng.generator.random() == stream("e").generator.random()
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
    ((coords, cuts),) = sign_filter(oracle, live, [(segment_of, sizes, stream(label))], k, None)
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
        y = MeasurementOracle(hidden).measure_rows(grouped[rows], matrix, stage="t")
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


@pytest.mark.parametrize("k", [1, 12, 24, 30, 60, 64, 100, 701, 703])
@pytest.mark.parametrize("lone", [False, True])
def test_sign_filter_correlations_are_exact_in_every_word_width(monkeypatch, k, lone):
    # the filter popcounts each XOR row in the widest word that divides it
    # (bytes at k = 1, 24 and 100; 16, 32 and 64 bits at k = 12, 30 and
    # 60-703): the correlations k - 2 * distance it hands to the mask equal
    # the exact ones, signs_of(y) @ a_j, of the same sign block, with no
    # lone segment and with one
    gen = stream(f"widths-{k}-{lone}").generator
    segment_of = np.repeat(np.arange(4), [7, 3, 1 if lone else 2, 12])
    segment_of = gen.permutation(segment_of)
    live = np.sort(gen.choice(60, size=segment_of.size, replace=False))
    hidden = np.zeros(60)
    hidden[live] = gen.standard_normal(live.size)
    seen = []

    def spy(corr, k):
        seen.append(np.array(corr))
        return sign_filter_mask(corr, k)

    monkeypatch.setattr(precondition_module, "sign_filter_mask", spy)
    label = f"widths-{k}-{lone}-signs"
    sign_filter(MeasurementOracle(hidden), live, [(segment_of, np.bincount(segment_of),
                                                   stream(label))], k, None)
    order = np.argsort(segment_of, kind="stable")
    block = unpack_signs(sign_bits(stream(label).generator, live.size, k), k)  # segment order
    expected = []
    for d in range(4):
        rows = np.flatnonzero(segment_of[order] == d)
        if rows.size > 1:
            y = MeasurementOracle(hidden).measure_rows(live[order][rows], block[rows].T,
                                                       stage="t")
            expected.append(block[rows].astype(np.int64) @ signs_of(y).astype(np.int64))
    assert len(seen) == 1
    assert seen[0].dtype == np.int64 and np.array_equal(seen[0], np.concatenate(expected))


def random_segments(gen, layout):
    """(live, segment_of, segments) for a random layout, ``live`` ascending as
    ``sign_filter`` takes it: every live segment lone, one shared segment
    among lone ones, a single shared segment, no live segment, or shared and
    lone segments mixed. A shared segment holds 2 candidates one time in
    two, else 3-40."""
    segments = int(gen.integers(2, 10))
    counts = np.zeros(segments, dtype=np.intp)
    shared, *others = gen.permutation(segments)
    if layout == "all-lone":
        counts[gen.random(segments) < 0.6] = 1
        counts[shared] = 1
    elif layout == "mixed":
        counts = gen.integers(0, 6, size=segments)
    elif layout != "none-live":  # "one-shared" and "single-shared"
        if layout == "one-shared":
            counts[others[:int(gen.integers(1, segments))]] = 1
        counts[shared] = 2 if gen.random() < 0.5 else gen.integers(3, 41)
    segment_of = gen.permutation(np.repeat(np.arange(segments), counts))
    live = np.sort(gen.choice(segment_of.size + 20, size=segment_of.size, replace=False))
    return live, segment_of, segments


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 24, 701]),
       st.sampled_from(["all-lone", "one-shared", "single-shared", "none-live", "mixed"]))
def test_sign_filter_replays_per_segment_on_random_layouts(seed, k, layout):
    # survivors and cost equal a per-segment ungrouped replay of the same
    # sign block; the largest segment's first two candidates are an exact
    # +-0.5 pair, which cancels to 0 in a two-candidate segment and so
    # exercises sign(0)
    gen = RngStream(seed).child("layout").generator
    live, segment_of, segments = random_segments(gen, layout)
    hidden = np.zeros(live.size + 20)
    hidden[live] = gen.standard_normal(live.size) * 10.0 ** gen.uniform(-3.0, 3.0, live.size)
    if live.size:
        pair = live[segment_of == np.argmax(np.bincount(segment_of))][:2]
        hidden[pair] = [0.5, -0.5][:pair.size]
    got, expected, cost, _ = replay_sign_filter(hidden, live, segment_of, segments, k,
                                                f"layout-{seed}")
    assert cost == k * segments
    assert len(got) == len(expected)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


class MeasureLog(MeasurementOracle):
    """An oracle that records the group count of each measure_rows call."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.group_counts = []

    def measure_rows(self, support, rows, stage, groups=None, group_count=None,
                     row_count=None):
        self.group_counts.append(group_count)
        return super().measure_rows(support, rows, stage, groups, group_count, row_count)


def test_sign_filter_measures_only_shared_segments():
    # a pass whose live segments are all lone makes no measurement; one
    # shared segment among lone ones is measured alone, as one group; with
    # no lone segment every live segment is measured, as by one grouped call
    hidden = stream("measured-x").generator.standard_normal(40)
    expected = {"all-lone": [], "one-shared": [1], "single-lone": [],
                "single-shared": [1], "none-live": []}
    for label, live, segment_of, segments in LONE_AND_SHARED:
        oracle, segment_of = MeasureLog(hidden), np.array(segment_of, dtype=np.intp)
        sizes = np.bincount(segment_of, minlength=segments)
        sign_filter(oracle, live, [(segment_of, sizes, stream(label))], 60, None)
        assert oracle.group_counts == expected[label], label
        assert oracle.cost == 60 * segments, label
    oracle = MeasureLog(hidden)
    sign_filter(oracle, np.arange(9), [([0, 0, 1, 1, 1, 2, 2, 3, 3], [2, 3, 2, 2, 5],
                                        stream("all-shared"))], 60, lambda: np.arange(9, 40))
    assert oracle.group_counts == [4] and oracle.cost == 5 * 60


def random_pass(gen, live, m):
    """A pass's sign-filter input on the hidden vector of nonzero support
    ``live`` (ascending) in [0, m): 1-12 segments, each live candidate in a
    uniform one. One time in three the segments hold no zero candidate;
    otherwise they partition [0, m)."""
    segments = int(gen.integers(1, 13))
    segment_of = gen.integers(0, segments, size=live.size)
    sizes = np.bincount(segment_of, minlength=segments)
    if gen.random() < 1 / 3:
        return segment_of, sizes
    return segment_of, sizes + gen.multinomial(m - live.size, np.full(segments, 1.0 / segments))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 7, 24, 701]), st.integers(1, 4))
@example(12, 7, 4).via("passes 1 and 3 have no zero candidate")
@example(13, 1, 4).via("passes 0 and 1 have no zero candidate")
def test_sign_filter_on_several_passes_replays_each_pass_alone(seed, k, count):
    # a batch of passes on one hidden vector is filtered by at most one
    # measure_rows call, grouped by the shared segments of every pass, yet
    # each pass's survivor sets, cost and stream equal its one-pass call;
    # at k <= 7 the zero tail fires in every pass that has zero candidates,
    # so a batch can mix passes whose tail fires with passes that have none
    gen = RngStream(seed).child("batch").generator
    m = 300
    hidden = np.zeros(m)
    live = np.sort(gen.choice(m, size=int(gen.integers(0, 41)), replace=False))
    hidden[live] = gen.standard_normal(live.size) * 10.0 ** gen.uniform(-3.0, 3.0, live.size)
    layouts = [random_pass(gen, live, m) for _ in range(count)]

    def zero_pool():
        return np.flatnonzero(hidden == 0.0)

    def passes():  # new streams on every call
        return [(segment_of, sizes, stream(f"batch-{seed}-{i}"))
                for i, (segment_of, sizes) in enumerate(layouts)]

    batch, together = MeasureLog(hidden), passes()
    got = sign_filter(batch, live, together, k, zero_pool)
    group_counts, cost = [], 0
    for (coords, cuts), one_pass, first in zip(got, passes(), together):
        alone = MeasureLog(hidden)
        ((alone_coords, alone_cuts),) = sign_filter(alone, live, [one_pass], k, zero_pool)
        assert coords.dtype == alone_coords.dtype and np.array_equal(coords, alone_coords)
        assert cuts.dtype == alone_cuts.dtype and np.array_equal(cuts, alone_cuts)
        assert alone.cost == k * one_pass[1].size
        assert first[2].generator.integers(2**63) == one_pass[2].generator.integers(2**63)
        if one_pass[1].sum() == live.size:
            assert not np.any(hidden[coords] == 0.0)
        elif k <= 7:  # at least 260 zero candidates, each kept w.p. >= 1/8
            assert np.any(hidden[coords] == 0.0)
        group_counts += alone.group_counts
        cost += alone.cost
    assert batch.cost == cost
    assert batch.group_counts == ([sum(group_counts)] if group_counts else [])


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
