import math

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
    repetitions_for_confidence,
)
from adasketch.discover import BASIC, PRECONDITIONED
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


def test_repetitions_for_confidence():
    assert repetitions_for_confidence(2, 0.5) == 2
    assert repetitions_for_confidence(2, 0.25) == 4
    assert repetitions_for_confidence(3, 0.1) == 12


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
    # basic variant at desk scale: every level's buckets saturate at m = 4096,
    # so each level adds R * m * 2 = 16,384 to the cap and the reads stay at m.
    # The count follows in closed form, far past level 1,024, where eps^-2
    # leaves the float range.
    m, p, q = 4096, 3.0, 4.0
    levels = levels_for_budget(30_000_000, m, p, q, BASIC)
    assert levels == (30_000_000 - m) // 16_384 == 1830
    plan = AdaptivePlan(m=m, p=p, q=q, levels=levels, reps=2, variant=BASIC)
    deeper = AdaptivePlan(m=m, p=p, q=q, levels=levels + 1, reps=2, variant=BASIC)
    assert plan_cost_cap(plan) == levels * 16_384 + m
    assert plan_cost_cap(deeper) > 30_000_000
    assert {cfg.buckets for cfg in deeper.configs} == {m}
    for budget in (plan_cost_cap(plan), plan_cost_cap(deeper) - 1):
        assert levels_for_budget(budget, m, p, q, BASIC) == levels
    # both variants, saturating after a few levels: still the largest fitting count
    for variant in (BASIC, PRECONDITIONED):
        for budget in (10**4, 10**5, 4 * 10**5):
            levels = levels_for_budget(budget, 64, 1.5, 2.5, variant)
            caps = [plan_cost_cap(AdaptivePlan(m=64, p=1.5, q=2.5, levels=n, reps=2,
                                               variant=variant))
                    for n in (levels, levels + 1)]
            assert caps[0] <= budget < caps[1]
    # 6,103 affordable levels would need eps = 2^-3051.5, which is 0.0 as a float
    assert level_sensitivity(6103, p) == 0.0
    with pytest.raises(ParameterError, match="sensitivity"):
        levels_for_budget(100_000_000, m, p, q, BASIC)


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
        out = approximate(oracle, plan, rng.child_at("trial", t))
        mismatch = (out != 0.0) & (out != x)
        assert not mismatch.any()


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
        assert np.allclose(scaled, t * base, rtol=1e-12, atol=1e-300)


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
