import contextlib
import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adasketch.adaptive import (
    AdaptivePlan,
    approximate,
    level_sensitivity,
    levels_for_accuracy,
    levels_for_budget,
    plan_cost_cap,
    repetitions,
)
from adasketch.discover import BASIC, PRECONDITIONED, discover
from adasketch.errors import ParameterError
from adasketch.families import VectorFamily, gen_vector
from adasketch.oracle import MeasurementOracle, lp_norm
from adasketch.rng import RngStream


def stream(label, seed=31337):
    return RngStream(seed).child(label)


def test_bucket_counts_per_level():
    def buckets(level, p, m, variant=PRECONDITIONED):
        plan = AdaptivePlan(m=m, p=p, q=p + 1, levels=level, reps=2, variant=variant)
        return plan.configs[level - 1].buckets

    assert buckets(3, 1.0, 10**7) == 108
    assert buckets(3, 1.0, 10**7, BASIC) == 273800
    assert buckets(1, 2.0, 10**7) == 60
    # caps at m
    assert buckets(3, 1.0, 50) == 50
    with pytest.raises(ParameterError):
        level_sensitivity(0, 1.0)


def test_level_sensitivity():
    assert level_sensitivity(4, 1.0) == 2.0**-4
    assert level_sensitivity(4, 2.0) == 2.0**-2
    assert level_sensitivity(4, 3.0) == 2.0**-2  # p' = min(2, p)
    assert level_sensitivity(3, 1.5) == 2.0 ** (-3 / 1.5)


def test_repetitions_examples():
    assert repetitions(1, 2) == 2
    assert repetitions(2, 3) == 2
    assert repetitions(3, 4) == 2
    assert repetitions(1, 5) == 5
    with pytest.raises(ParameterError):
        repetitions(2, 2)


def test_plan_sizes_are_integers():
    # a float size fails at construction, not in ``configs`` or as a float cap
    sizes = {"m": 64, "levels": 2, "reps": 2}
    for name, bad in (("m", 64.0), ("levels", 1.5), ("reps", 1.5)):
        with pytest.raises(ParameterError, match="must be an integer"):
            AdaptivePlan(p=1, q=2, **{**sizes, name: bad})
    numpy_sizes = {name: np.int64(size) for name, size in sizes.items()}
    assert (plan_cost_cap(AdaptivePlan(p=1, q=2, **numpy_sizes))
            == plan_cost_cap(AdaptivePlan(p=1, q=2, **sizes)))


def test_levels_for_accuracy_examples():
    assert levels_for_accuracy(0.1, 1, 2) == 9
    assert levels_for_accuracy(math.sqrt(3) / 2, 1, 2) == 2
    assert levels_for_accuracy(0.25, 2, 4) == 10


def test_levels_for_accuracy_meets_the_bound():
    for p, q, eps in ((1.0, 2.0, 0.07), (1.5, 3.0, 0.2), (2.0, 5.0, 0.33)):
        levels = levels_for_accuracy(eps, p, q)
        plan = AdaptivePlan(m=2**20, p=p, q=q, levels=levels, reps=repetitions(p, q))
        assert plan.error_bound() <= eps
        if levels > 1:
            smaller = AdaptivePlan(m=2**20, p=p, q=q, levels=levels - 1,
                                   reps=repetitions(p, q))
            assert smaller.error_bound() > eps


def test_levels_for_budget_zero_and_boundary():
    assert levels_for_budget(0, 2**16, 1, 2) == 0
    cap1 = plan_cost_cap(AdaptivePlan(m=2**16, p=1, q=2, levels=1, reps=2))
    cap2 = plan_cost_cap(AdaptivePlan(m=2**16, p=1, q=2, levels=2, reps=2))
    assert levels_for_budget(cap1 - 1, 2**16, 1, 2) == 0
    assert levels_for_budget(cap1, 2**16, 1, 2) == 1
    assert levels_for_budget(cap2 - 1, 2**16, 1, 2) == 1
    assert levels_for_budget(cap2, 2**16, 1, 2) == 2


def test_levels_for_budget_past_saturation():
    # basic variant at desk scale: level 1's buckets already saturate at
    # m = 4096, so every coordinate is its own bucket and level 1 recovers x
    # exactly. The search stops there, however many more levels would fit
    # (1,830 at budget 30,000,000, 6,103 at 100,000,000).
    m, p, q = 4096, 3.0, 4.0
    plan = AdaptivePlan(m=m, p=p, q=q, levels=1, reps=2, variant=BASIC)
    assert plan.configs[0].buckets == m and plan_cost_cap(plan) == 16_384 + m
    for budget in (30_000_000, 1830 * 16_384 + m, 1831 * 16_384 + m - 1, 100_000_000,
                   plan_cost_cap(plan)):
        assert levels_for_budget(budget, m, p, q, BASIC) == 1
    assert levels_for_budget(plan_cost_cap(plan) - 1, m, p, q, BASIC) == 0
    # both variants, saturating after a few levels: the largest fitting count,
    # up to the first saturated level
    for variant in (BASIC, PRECONDITIONED):
        for budget in (10**4, 10**5, 4 * 10**5):
            levels = levels_for_budget(budget, 64, 1.5, 2.5, variant)
            plans = [AdaptivePlan(m=64, p=1.5, q=2.5, levels=n, reps=2, variant=variant)
                     for n in (levels, levels + 1)]
            caps = [plan_cost_cap(plan) for plan in plans]
            buckets = [cfg.buckets for cfg in plans[0].configs]
            assert caps[0] <= budget
            assert 64 not in buckets[:-1]
            if buckets[-1:] != [64]:
                assert budget < caps[1]


@settings(max_examples=300, deadline=None)
@given(
    m=st.one_of(st.integers(1, 64), st.integers(1, 2**20)),
    budget=st.one_of(st.sampled_from([0, 1]),
                     st.integers(0, 12_000).map(lambda k: int(10 ** (k / 1000)))),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    q_gap=st.sampled_from([0.5, 1.0, 2.0]),
    variant=st.sampled_from([BASIC, PRECONDITIONED]),
    reps=st.sampled_from([None, 1, 2, 3, 4]),
)
def test_levels_for_budget_fits_and_stops_at_the_first_saturated_level(
        m, budget, p, q_gap, variant, reps):
    q = p + q_gap
    levels = levels_for_budget(budget, m, p, q, variant, reps)
    use_reps = repetitions(p, q) if reps is None else reps

    def plan(n):
        return AdaptivePlan(m=m, p=p, q=q, levels=n, reps=use_reps, variant=variant)

    buckets = [cfg.buckets for cfg in plan(levels).configs]
    assert plan_cost_cap(plan(levels)) <= budget
    assert m not in buckets[:-1]
    assert buckets[-1:] == [m] or plan_cost_cap(plan(levels + 1)) > budget


def test_budgeted_plan_never_exceeds_the_budget():
    m, budget = 2**20, 100_000
    levels = levels_for_budget(budget, m, 1, 2, PRECONDITIONED)
    assert levels == 1
    plan = AdaptivePlan(m=m, p=1, q=2, levels=levels, reps=2)
    assert plan_cost_cap(plan) <= budget
    gen = stream("bud-x").generator
    rng = stream("bud")
    for t in range(5):
        x = np.zeros(m)
        x[gen.choice(m, size=8, replace=False)] = 1 / 8
        oracle = MeasurementOracle(x)
        approximate(oracle, plan, rng.child_at("trial", t))
        assert oracle.cost <= budget


def test_zero_input_gives_exact_zero_output():
    plan = AdaptivePlan(m=2**10, p=1, q=2, levels=2, reps=2)
    oracle = MeasurementOracle(np.zeros(2**10))
    out = approximate(oracle, plan, stream("z"))
    assert np.array_equal(out, np.zeros(2**10))
    assert oracle.cost <= plan_cost_cap(plan)
    # the sign filter drops every coordinate: no candidate, so no read and
    # no "reads" entry in the ledger
    assert out.index.size == 0 and "reads" not in oracle.stage_costs()


def test_zero_levels_is_the_zero_algorithm():
    plan = AdaptivePlan(m=64, p=1, q=2, levels=0, reps=2)
    oracle = MeasurementOracle(np.ones(64) / 64)
    out = approximate(oracle, plan, stream("z0"))
    assert np.array_equal(out, np.zeros(64))
    assert oracle.cost == 0
    assert plan_cost_cap(plan) == 0


def test_single_spike_recovered_every_time():
    m, trials = 2**10, 1000
    plan = AdaptivePlan(m=m, p=1, q=2, levels=1, reps=2)
    gen = stream("e1-pos").generator
    rng = stream("e1")
    for t in range(trials):
        j = int(gen.integers(0, m))
        x = np.zeros(m)
        x[j] = 1.0
        oracle = MeasurementOracle(x)
        out = approximate(oracle, plan, rng.child_at("trial", t))
        assert out[j] == 1.0
        assert lp_norm(x - out, 2) == 0.0


def test_support_correctness():
    # output entries are exactly the hidden values on the discovered set,
    # exactly zero elsewhere
    m = 2**10
    plan = AdaptivePlan(m=m, p=1, q=2, levels=3, reps=2)
    gen = stream("sup-x").generator
    rng = stream("sup")
    for t in range(20):
        x = gen.standard_normal(m) * (gen.random(m) < 0.03)
        x /= max(1.0, lp_norm(x, 1))
        oracle = MeasurementOracle(x)
        out = np.asarray(approximate(oracle, plan, rng.child_at("trial", t)))
        mismatch = (out != 0.0) & (out != x)
        assert not mismatch.any()


class ReadLog(MeasurementOracle):
    """An oracle that keeps the index array of every direct read and the
    stage of every ``measure_rows`` call."""

    def __init__(self, hidden):
        super().__init__(hidden)
        self.reads, self.measured = [], []

    def measure_rows(self, support, rows, stage, groups=None, group_count=None,
                     row_count=None):
        self.measured.append(stage)
        return super().measure_rows(support, rows, stage, groups, group_count, row_count)

    def read_entries(self, indices, stage):
        self.reads.append(indices)
        return super().read_entries(indices, stage)


@contextlib.contextmanager
def materialized_streams():
    """Collects every generator materialized inside the block, by the entropy
    words of its stream."""
    made = {}
    materialize = RngStream.generator.fget

    def generator(self):
        gen = materialize(self)
        made.setdefault(self._words, gen)
        return gen

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RngStream, "generator", property(generator))
        yield made


def next_draws(made):
    """The next draw of each collected generator; empties the collection."""
    draws = {words: int(gen.integers(2**63)) for words, gen in made.items()}
    made.clear()
    return draws


def assert_approximate_replays_its_passes(x, plan, rng):
    """``approximate`` filters its passes in batches, but its output bytes,
    stage costs and the next draw of every stream it materializes equal a
    replay by one-pass ``discover`` calls, each on its own oracle, followed
    by one read of their union. Returns (per-pass outputs, the oracle)."""
    with materialized_streams() as made:
        found, costs = [], Counter()
        for level, cfg in enumerate(plan.configs, start=1):
            for rep in range(1, plan.reps + 1):
                alone = MeasurementOracle(x)
                found.append(discover(alone, cfg, rng.child(f"discover-l{level}-r{rep}")))
                costs.update(alone.stage_costs())
        replayed = next_draws(made)
        oracle = ReadLog(x)
        out = approximate(oracle, plan, rng)
        assert next_draws(made) == replayed
    union = np.unique(np.concatenate(found)) if found else np.empty(0, dtype=np.intp)
    if union.size:
        costs["reads"] += union.size
        (read,) = oracle.reads
        assert read.dtype == union.dtype and np.array_equal(read, union)
    else:
        assert oracle.reads == []
    assert oracle.stage_costs() == dict(costs)
    expected = np.zeros(plan.m)
    expected[union] = np.asarray(x)[union]
    assert np.asarray(out).tobytes() == expected.tobytes()
    return found, oracle


@pytest.mark.parametrize("variant, family, levels, precond_calls", [
    pytest.param(BASIC, "spikes:4", 3, 0, id=BASIC),
    pytest.param(PRECONDITIONED, "spikes:4", 3, 1, id=PRECONDITIONED),
    # 64 nonzeros: passes l1-r1 to l4-r2 fill one 512-row chunk, l5-r1 to
    # l6-r2 the next
    pytest.param(PRECONDITIONED, "spikes:64", 6, 2, id="two-batches"),
    pytest.param(PRECONDITIONED, "geometric", 4, 1, id="geometric"),
    # 1,024 nonzeros: every pass is a batch of its own
    pytest.param(PRECONDITIONED, "uniform_ball", 2, 4, id="batch-per-pass"),
])
def test_approximate_reads_the_union_of_its_passes(variant, family, levels, precond_calls):
    # approximate reads np.unique of the per-pass discover outputs, each pass
    # on its own child stream, in one call; a batch of passes makes one
    # sign-filter measurement
    m = 2**10
    plan = AdaptivePlan(m=m, p=1, q=2, levels=levels, reps=2, variant=variant)
    x = gen_vector(VectorFamily.parse(family, 1.0), m, stream(f"union-x-{family}"))
    found, oracle = assert_approximate_replays_its_passes(x, plan, stream(f"union-{family}"))
    assert oracle.measured.count("precond") == precond_calls
    if family == "spikes:4":  # the passes overlap
        assert sum(hits.size for hits in found) > np.unique(np.concatenate(found)).size


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 3),
    p=st.sampled_from([1.0, 3.0]),
    levels=st.integers(0, 3),
    variant=st.sampled_from([BASIC, PRECONDITIONED]),
    family=st.sampled_from(["zero", "spikes:1", "uniform_ball"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_approximate_replays_its_passes_at_tiny_m(m, p, levels, variant, family, seed):
    plan = AdaptivePlan(m=m, p=p, q=p + 1.0, levels=levels, reps=repetitions(p, p + 1.0),
                        variant=variant)
    x = gen_vector(VectorFamily.parse(family, p), m, RngStream(seed).child("x"))
    _, oracle = assert_approximate_replays_its_passes(x, plan, RngStream(seed).child("run"))
    if family == "zero" and variant == PRECONDITIONED:
        # no live row: nothing to measure, and k per bucket
        filter_cost = sum(plan.reps * cfg.precond_size * cfg.buckets for cfg in plan.configs)
        assert oracle.measured == []
        assert oracle.stage_costs() == ({"precond": filter_cost} if levels else {})


def test_filter_batches_fill_one_product_chunk():
    # every pass filters all live rows, and a batch takes as many passes as
    # fit them into one 512-row chunk of the grouped product: the 12 passes
    # of 8 nonzeros are one batch, and at 4,096 nonzeros every pass is a
    # batch of its own
    m = 2**16
    plan = AdaptivePlan(m=m, p=1, q=2, levels=6, reps=2)
    for t in range(3):
        x = gen_vector(VectorFamily.parse("spikes:8", 1.0), m, stream("batch-x").child_at("x", t))
        oracle = ReadLog(x)
        approximate(oracle, plan, stream("batch").child_at("trial", t))
        assert oracle.measured.count("precond") == 1
    oracle = ReadLog(gen_vector(VectorFamily.parse("zero", 1.0), m, stream("batch-zero")))
    approximate(oracle, plan, stream("batch-zero"))
    assert oracle.measured == []
    assert oracle.cost == sum(plan.reps * cfg.precond_size * cfg.buckets for cfg in plan.configs)
    dense = AdaptivePlan(m=2**12, p=1, q=2, levels=2, reps=2)
    oracle = ReadLog(gen_vector(VectorFamily.parse("uniform_ball", 1.0), 2**12,
                                stream("batch-dense")))
    approximate(oracle, dense, stream("batch-dense"))
    assert oracle.measured.count("precond") == dense.levels * dense.reps


def test_approximate_outputs_ledgers_and_streams_are_pinned():
    """``approximate`` over a small grid, pinned by one sha256.

    Each run adds its output's index and value bytes, its sorted stage
    costs and the next draw of every stream it materialized. A refactor
    that consumes every random stream as before leaves the digest
    unchanged; a change that declares a stream change updates it.
    """
    digest = hashlib.sha256()
    for m in (64, 4096, 2**16):
        families = ("spikes:1", "spikes:8", "geometric",
                    *(("uniform_ball",) if m <= 4096 else ()))
        for family, variant, levels in itertools.product(families, (BASIC, PRECONDITIONED),
                                                         (1, 3)):
            plan = AdaptivePlan(m=m, p=1.0, q=2.0, levels=levels, reps=2, variant=variant)
            cell = stream(f"pin-{m}-{family}-{variant}-{levels}")
            for t in range(3):
                x = gen_vector(VectorFamily.parse(family, 1.0), m, cell.child_at("x", t))
                oracle = MeasurementOracle(x)
                with materialized_streams() as made:
                    out = approximate(oracle, plan, cell.child_at("run", t))
                    draws = next_draws(made)
                digest.update(out.index.astype(np.int64).tobytes())
                digest.update(out.values.tobytes())
                digest.update(repr(sorted(oracle.stage_costs().items())).encode())
                digest.update(repr(sorted(draws.items())).encode())
    assert digest.hexdigest() == "430d6be4988ee1b878b0173ade2e1b0a552d3c5d906199ad906fbe0b093e67b7"


@pytest.mark.parametrize("t", [2.0, -3.0, 1e-3])
def test_homogeneity_under_coupled_randomness(t):
    m = 2**10
    plan = AdaptivePlan(m=m, p=1, q=2, levels=2, reps=2)
    gen = stream(f"hom-x-{t}").generator
    for trial in range(20):
        x = gen.standard_normal(m) * (gen.random(m) < 0.05)
        rng_label = f"hom-{t}-{trial}"
        base = approximate(MeasurementOracle(x), plan, stream(rng_label))
        scaled = approximate(MeasurementOracle(t * x), plan, stream(rng_label))
        assert np.allclose(scaled, t * np.asarray(base), rtol=1e-12, atol=1e-300)


def test_cost_cap_on_random_instances():
    m = 2**11
    for variant in (BASIC, PRECONDITIONED):
        plan = AdaptivePlan(m=m, p=1, q=2, levels=3, reps=2, variant=variant)
        cap = plan_cost_cap(plan)
        gen = stream(f"cap-x-{variant}").generator
        rng = stream(f"cap-{variant}")
        for t in range(10):
            x = gen.standard_normal(m) * (gen.random(m) < 0.02)
            oracle = MeasurementOracle(x)
            approximate(oracle, plan, rng.child_at("trial", t))
            assert oracle.cost <= cap


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(1, 2**10),
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    q_gap=st.sampled_from([0.5, 1.0, 2.0]),
    levels=st.integers(0, 3),
    variant=st.sampled_from([BASIC, PRECONDITIONED]),
    family=st.sampled_from(["zero", "spikes:1", "spikes:4", "geometric",
                            "spike_plus_tail:1", "uniform_ball"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cost_within_cap_and_filter_cost_exact(m, p, q_gap, levels, variant, family, seed):
    fam = VectorFamily.parse(family, p)
    assume(m > fam.count if fam.kind == "spike_plus_tail" else m >= fam.count)
    q = p + q_gap
    plan = AdaptivePlan(m=m, p=p, q=q, levels=levels, reps=repetitions(p, q),
                        variant=variant)
    oracle = MeasurementOracle(gen_vector(fam, m, RngStream(seed).child("x")))
    approximate(oracle, plan, RngStream(seed).child("run"))
    assert oracle.cost <= plan_cost_cap(plan)
    filter_cost = sum(plan.reps * cfg.precond_size * cfg.buckets for cfg in plan.configs)
    assert oracle.stage_costs().get("precond", 0) == filter_cost


def _qmoment(plan, family_vectors, label):
    rng = stream(label)
    errs = []
    for t, x in enumerate(family_vectors):
        oracle = MeasurementOracle(x)
        out = approximate(oracle, plan, rng.child_at("trial", t))
        errs.append(lp_norm(x - out, plan.q) ** plan.q)
    return float(np.mean(errs) ** (1 / plan.q))


def test_error_bound_and_monotone_improvement():
    m, trials = 2**12, 300
    gen = stream("dec-x").generator
    vectors = []
    for _ in range(trials):
        x = np.zeros(m)
        x[gen.choice(m, size=8, replace=False)] = (1 / 8) * np.where(
            gen.random(8) < 0.5, -1.0, 1.0
        )
        vectors.append(x)
    results = {}
    for levels in (3, 5):
        plan = AdaptivePlan(m=m, p=1, q=2, levels=levels, reps=2)
        err = _qmoment(plan, vectors, f"dec-{levels}")
        assert err <= plan.error_bound() * 1.2
        results[levels] = err
    ci = 3 / math.sqrt(trials)  # generous width for errors bounded by 1
    assert results[5] <= results[3] + ci
