import copy
import hashlib
import math

import numpy as np
import pytest

from adasketch.discover import BASIC, DiscoverConfig, discover
from adasketch.errors import DimensionError, ParameterError
from adasketch.hashing import pairwise_hash
from adasketch.oracle import MeasurementOracle, lp_norm
from adasketch.rng import RngStream
from adasketch.spotting import (
    SpotParams,
    shrink,
    shrink_depth,
    shrink_schedule,
    spot,
    spot_cost_cap,
    spot_heavy_hitter_constant,
)


def stream(label, seed=777):
    return RngStream(seed).child(label)


def test_shrink_schedule_examples():
    assert shrink_schedule(0, 1 / 4) == 4096
    assert shrink_schedule(1, 1 / 4) == 16384
    assert shrink_schedule(0, 1 / 3) == 3072


def test_shrink_schedule_exceeds_base_growth():
    for step in range(8):
        for delta2 in (1 / 4, 1 / 3, 0.9):
            assert shrink_schedule(step, delta2) > 2 ** (8 * (9 / 8) ** step)
    with pytest.raises(ParameterError):
        shrink_schedule(-1, 0.25)
    with pytest.raises(ParameterError):
        shrink_schedule(0, 1.5)


def test_shrink_depth_examples():
    assert shrink_depth(256) == 0
    assert shrink_depth(512) == 1
    assert shrink_depth(65536) == 6
    assert shrink_depth(1) == 0
    with pytest.raises(ParameterError):
        shrink_depth(0.5)


def test_shrink_depth_schedule_covers_the_set():
    for ratio in (1, 2, 300, 4096, 10_000, 2**20, 123456.7):
        depth = shrink_depth(ratio)
        for delta2 in (1 / 4, 1 / 3):
            assert shrink_schedule(depth, delta2) >= math.ceil(ratio)
        if depth > 0:  # minimality: one step less does not cover
            assert 2 ** (8 * (9 / 8) ** (depth - 1)) < math.ceil(ratio)


def test_heavy_hitter_constant_values():
    assert spot_heavy_hitter_constant(1 / 3) == pytest.approx(8556.24, abs=0.01)
    assert spot_heavy_hitter_constant(1 / 4) == pytest.approx(11824.62, abs=0.01)
    # formula value at delta2 -> 1: 1025 * sqrt(2 log 16)
    assert spot_heavy_hitter_constant(1 - 1e-12) == pytest.approx(
        1025 * math.sqrt(2 * math.log(16)), rel=1e-9
    )


def test_shrink_one_sparse_returns_its_bucket():
    x = np.zeros(8)
    x[3] = 2.5
    oracle = MeasurementOracle(x)
    sub = np.array([1, 3, 6])
    labels = np.array([2, 5, 2])
    got = shrink(oracle, sub, labels, 7, stream("sh1"))
    assert list(got) == [3]
    assert oracle.cost == 2


def test_shrink_zero_vector_returns_empty_after_two_measurements():
    oracle = MeasurementOracle(np.zeros(6))
    got = shrink(oracle, np.arange(6), np.arange(1, 7), 6, stream("sh0"))
    assert got.size == 0
    assert oracle.cost == 2


def test_shrink_empty_set_is_free():
    oracle = MeasurementOracle(np.ones(4))
    assert shrink(oracle, [], [], 3, stream("she")).size == 0
    assert oracle.cost == 0


def test_shrink_dominant_spike_monte_carlo():
    # x = (10, 0.01, -0.01), labels (1, 2, 2): the ratio rounds to 1 unless
    # the first measurement is unusually small
    x = np.array([10.0, 0.01, -0.01])
    labels = np.array([1, 2, 2])
    rng = stream("shmc")
    hits = 0
    trials = 10_000
    for _ in range(trials):
        oracle = MeasurementOracle(x)
        got = shrink(oracle, np.arange(3), labels, 2, rng)
        hits += got.size == 1 and got[0] == 0
    assert hits / trials >= 0.99


def test_spot_singleton_is_free():
    oracle = MeasurementOracle(np.ones(10))
    got = spot(oracle, np.array([5]), SpotParams(1 / 3, 4), stream("s1"))
    assert list(got) == [5]
    assert oracle.cost == 0
    got = spot(oracle, np.array([], dtype=np.intp), SpotParams(1 / 3, 4), stream("s2"))
    assert got.size == 0
    assert oracle.cost == 0


def test_float_candidates_raise_before_any_charge_or_draw():
    # not truncated to coordinate 3, or to [0, 3]; integral floats raise too
    for run in (lambda o, c, rng: spot(o, c, SpotParams(0.25, 0), rng),
                lambda o, c, rng: shrink(o, c, [1, 2], 2, rng)):
        for candidates in ([2.9, 3.2], [0.5, 3.7], [2.0, 3.0]):
            oracle, rng = MeasurementOracle(np.arange(5.0)), stream("float")
            with pytest.raises(DimensionError):
                run(oracle, candidates, rng)
            assert oracle.cost == 0
            assert rng.generator.random() == stream("float").generator.random()


def test_spot_one_sparse_exactness():
    rng = stream("sp-ex")
    pos_gen = stream("sp-pos").generator
    for trial in range(1000):
        m = int(pos_gen.integers(2, 200))
        j = int(pos_gen.integers(0, m))
        x = np.zeros(m)
        x[j] = float(pos_gen.standard_normal() or 1.0)
        oracle = MeasurementOracle(x)
        params = SpotParams(1 / 3, shrink_depth(m))
        got = spot(oracle, np.arange(m), params, rng)
        assert list(got) == [j]


def test_spot_cost_cap_random_runs():
    rng = stream("sp-cost")
    gen = stream("sp-cost-inputs").generator
    for trial in range(2000):
        depth = trial % 7
        m = int(gen.integers(2, 300))
        x = gen.standard_normal(m) * (gen.random(m) < 0.2)
        oracle = MeasurementOracle(x)
        params = SpotParams(1 / 3 if trial % 2 else 1 / 4, depth)
        got = spot(oracle, np.arange(m), params, rng)
        assert got.size <= 1
        assert oracle.cost <= 2 * (depth + 1) == spot_cost_cap(params)


def spot_chain(x, candidates, params, rng):
    """Replay ``spot``'s loop from its parts on a fresh oracle over ``x``.

    Returns every candidate set (the input, then each performed shrink
    step's output) and the replay's cost. Run on a copy of the stream that
    ``spot`` is given, it makes the same draws; ``spot`` returns the last set
    whenever that has at most one element.
    """
    oracle = MeasurementOracle(x)
    chain = [np.asarray(candidates, dtype=np.intp)]
    if chain[-1].size <= 1:
        return chain, oracle.cost
    for step in range(params.depth):
        label_count = shrink_schedule(step, params.delta2)
        labels = pairwise_hash(chain[-1], oracle.dimension, label_count, rng)
        chain.append(shrink(oracle, chain[-1], labels, label_count, rng))
        if chain[-1].size <= 1:
            return chain, oracle.cost
    current = chain[-1]
    if current.size <= shrink_schedule(params.depth, params.delta2):
        chain.append(shrink(oracle, current, np.arange(1, current.size + 1),
                            current.size, rng))
    return chain, oracle.cost


def traced_spot(x, candidates, params, rng):
    """``spot``'s output and cost, checked against its replayed chain, and the chain."""
    replay_rng = copy.deepcopy(rng)
    oracle = MeasurementOracle(x)
    got = spot(oracle, candidates, params, rng)
    chain, cost = spot_chain(x, candidates, params, replay_rng)
    assert np.array_equal(chain[-1], got) and cost == oracle.cost
    return chain, oracle.cost


def test_spot_cost_is_two_per_performed_shrink():
    # each performed shrink step costs exactly 2; with no early exit that is
    # exactly 2 * (depth + 1) in total
    rng = stream("sp-two")
    gen = stream("sp-two-x").generator
    for trial in range(300):
        m = int(gen.integers(2, 200))
        depth = trial % 5
        x = gen.standard_normal(m) * (gen.random(m) < 0.3)
        chain, cost = traced_spot(x, np.arange(m), SpotParams(1 / 4, depth), rng)
        assert np.array_equal(chain[0], np.arange(m))
        assert cost == 2 * (len(chain) - 1)
        if all(s.size > 1 for s in chain[:-1]) and len(chain) == depth + 2:
            assert cost == 2 * (depth + 1)


def test_spot_nesting_of_traced_sets():
    rng = stream("sp-trace")
    gen = stream("sp-trace-x").generator
    for _ in range(50):
        m = 400
        x = gen.standard_normal(m)
        chain, _ = traced_spot(x, np.arange(m), SpotParams(1 / 4, shrink_depth(m)), rng)
        assert np.array_equal(chain[0], np.arange(m))
        for prev, nxt in zip(chain, chain[1:]):
            assert np.all(np.isin(nxt, prev))


def test_spot_oversized_final_set_fails_cleanly():
    # depth 0 with a set larger than the final schedule: declared failure
    m = 20_000
    oracle = MeasurementOracle(np.ones(m))
    params = SpotParams(1 / 3, 0)
    assert shrink_schedule(0, 1 / 3) < m
    got = spot(oracle, np.arange(m), params, stream("sp-big"))
    assert got.size == 0
    assert oracle.cost == 0


def test_spot_heavy_hitter_boundary_monte_carlo():
    # dominance exactly at the guaranteed threshold for delta2 = 1/3:
    # success rate must stay near 2/3 or above
    m, trials, delta2 = 512, 4000, 1 / 3
    gamma = spot_heavy_hitter_constant(delta2)
    gen = stream("sp-hh-x").generator
    rng = stream("sp-hh")
    params = SpotParams(delta2, shrink_depth(m))
    hits = 0
    for _ in range(trials):
        j = int(gen.integers(0, m))
        x = gen.standard_normal(m)
        x[j] = 0.0
        x *= (1.0 / gamma) / lp_norm(x, 2)
        x[j] = 1.0
        oracle = MeasurementOracle(x)
        got = spot(oracle, np.arange(m), params, rng)
        hits += got.size == 1 and got[0] == j
    margin = 3 * math.sqrt((2 / 3) * (1 / 3) / trials)
    assert hits / trials >= 2 / 3 - margin


def test_spot_stream_use_is_pinned():
    """Outputs and costs of seeded ``spot`` calls and basic passes, pinned by
    their sha256.

    Sets of two or more elements are the only ones ``spot`` draws on, so
    this pins how it consumes its stream: 400 calls at depth 1 to 4 on sets
    of 2 to 400 elements, each holding one spike of random size in a dense
    vector, then 20 basic discover passes at depth 3. A refactor that draws
    as before leaves the digest unchanged.
    """
    digest = hashlib.sha256()

    def record(found, oracle):
        digest.update(np.asarray(found, dtype=np.int64).tobytes())
        digest.update(repr(sorted(oracle.stage_costs().items())).encode())

    gen = stream("pin-x").generator
    rng = stream("pin")
    for trial in range(400):
        m = int(gen.integers(400, 5000))
        size = int(gen.integers(2, 401))
        x = gen.standard_normal(m) * (gen.random(m) < 0.5)
        candidates = np.sort(gen.choice(m, size=size, replace=False))
        x[candidates[0]] = gen.exponential(30.0)  # dominant or not
        oracle = MeasurementOracle(x)
        params = SpotParams(1 / 3 if trial % 2 else 1 / 4, 1 + trial % 4)
        record(spot(oracle, candidates, params, rng), oracle)
    cfg = DiscoverConfig.with_buckets(0.25, 2**16, 32, BASIC)
    assert cfg.depth == 3
    gen = stream("pin-pass-x").generator
    rng = stream("pin-pass")
    for t in range(20):
        x = gen.standard_normal(cfg.m) * (gen.random(cfg.m) < 0.001)
        oracle = MeasurementOracle(x)
        record(discover(oracle, cfg, rng.child_at("trial", t)), oracle)
    assert digest.hexdigest() == (
        "dc871127c4690e8ef90b780cb62a479c25128550cce76fdea2c720e367ed27e4")
