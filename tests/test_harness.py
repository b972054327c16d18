import math
import tracemalloc

import numpy as np
import pytest

from adasketch import harness
from adasketch.adaptive import AdaptivePlan, plan_cost_cap, repetitions
from adasketch.discover import BASIC, PRECONDITIONED, DiscoverConfig, discover
from adasketch.errors import CapViolationError, ParameterError
from adasketch.families import VectorFamily, gen_vector
from adasketch.nonadaptive import countsketch_params
from adasketch.harness import (
    CSV_COLUMNS,
    METHOD_NAMES,
    ExperimentConfig,
    Method,
    compare_methods,
    estimate_error,
    make_method,
    param_table,
    _trial_streams,
    write_csv,
)
from adasketch.oracle import SparseVector, lp_norm
from adasketch.rng import RngStream
from adasketch.spotting import SpotParams, spot


def config(method, family="spikes:4", m=256, p=1.0, q=2.0, trials=50, seed=11):
    return ExperimentConfig(method=method, family=VectorFamily.parse(family, p),
                            m=m, q=q, trials=trials, seed=seed)


def test_zero_method_error_equals_input_norm():
    method = make_method("zero", 256, 1.0, 2.0)
    est = estimate_error(config(method))
    # spikes:4 has l_2 norm exactly 1/2
    assert est.mean_err == pytest.approx(0.5, rel=1e-12)
    assert est.qmoment_err == pytest.approx(0.5, rel=1e-12)
    assert est.mean_cost == 0 and est.max_cost == 0


def test_qmoment_at_q_infinity_is_the_largest_trial_error():
    # the limit of mean(err^q)^(1/q); spikes:4 at p = 1 has sup norm 1/4
    est = estimate_error(config(make_method("zero", 256, 1.0, math.inf), q=math.inf))
    assert est.qmoment_err == est.mean_err == 0.25
    est = estimate_error(config(make_method("zero", 64, 1.0, math.inf),
                                family="uniform_ball", m=64, q=math.inf, trials=40))
    assert 0.0 < est.mean_err < est.qmoment_err < 1.0


def test_read_all_method_is_exact():
    method = make_method("read_all", 256, 1.0, 2.0)
    est = estimate_error(config(method))
    assert est.mean_err == 0.0
    assert est.mean_cost == 256 and est.max_cost == 256


# the oracle stage labels each method's measurements may carry
METHOD_STAGES = {
    ("zero", PRECONDITIONED): set(),
    ("read_all", PRECONDITIONED): {"reads"},
    ("adaptive", BASIC): {"spot", "reads"},
    ("adaptive", PRECONDITIONED): {"precond", "spot", "reads"},
    ("linsketch", PRECONDITIONED): {"linsketch"},
    ("linsketch_denoised", PRECONDITIONED): {"linsketch"},
    ("countsketch", PRECONDITIONED): {"countsketch"},
    ("countsketch_denoised", PRECONDITIONED): {"countsketch"},
}


@pytest.mark.parametrize("name, variant", sorted(METHOD_STAGES))
def test_every_measurement_carries_its_stage_label(name, variant):
    assert {n for n, _ in METHOD_STAGES} == set(METHOD_NAMES)
    knobs = {"levels": 2} if name == "adaptive" else {"budget": 2000}
    method = make_method(name, 256, 1.0, 2.0, variant=variant, **knobs)
    est = estimate_error(config(method, family="geometric", trials=10))
    assert set(est.stage_costs) <= METHOD_STAGES[name, variant]
    assert sum(est.stage_costs.values()) / 10 == est.mean_cost
    assert bool(est.stage_costs) == (name != "zero")


def test_adaptive_method_on_zero_family():
    method = make_method("adaptive", 256, 1.0, 2.0, levels=1)
    est = estimate_error(config(method, family="zero"))
    assert est.mean_err == 0.0
    assert est.max_cost <= method.cap


def test_ci_matches_reference_computation():
    method = make_method("zero", 64, 1.0, 2.0)
    cfg = config(method, family="uniform_ball", m=64, trials=40)
    est = estimate_error(cfg)
    # recompute the per-trial errors independently
    errs = []
    for t in range(40):
        vec_rng, _ = _trial_streams(11, cfg.family, "zero", t)
        x = gen_vector(cfg.family, 64, vec_rng)
        errs.append(lp_norm(x, 2.0))
    errs = np.array(errs)
    assert est.mean_err == pytest.approx(errs.mean(), rel=1e-12)
    assert est.ci == pytest.approx(1.96 * errs.std(ddof=1) / math.sqrt(40), rel=1e-12)
    assert est.qmoment_err == pytest.approx(np.mean(errs**2) ** 0.5, rel=1e-12)


def test_estimate_error_enforces_the_cap():
    lying = Method("read_all", 10, lambda oracle, rng: oracle.read_entries(
        np.arange(oracle.dimension), stage="reads"))
    with pytest.raises(CapViolationError):
        estimate_error(config(lying))


def test_cost_audit_spot_cap():
    # spot alone with depth 6 must stay within 14 measurements
    params = SpotParams(1 / 3, 6)

    def run_spot(oracle, rng):
        spot(oracle, np.arange(oracle.dimension), params, rng)
        return np.zeros(oracle.dimension)

    method = Method("spot", 14, run_spot)
    est = estimate_error(config(method, family="uniform_ball", m=200, trials=200))
    assert est.max_cost <= 14
    assert list(est.stage_costs) == ["spot"]  # every shrink step is labelled
    assert est.stage_costs["spot"] / 200 == est.mean_cost


def test_cost_audit_preconditioned_discover_cap():
    # 60 buckets at depth 4: cap 60 * (703 + 8) = 42660
    m = 60 * 4096
    cfg = DiscoverConfig.with_buckets(1 / math.sqrt(2), m, 60, PRECONDITIONED)
    assert cfg.depth == 4

    def run_discover(oracle, rng):
        discover(oracle, cfg, rng)
        return np.zeros(oracle.dimension)

    method = Method("discover", 60 * (703 + 8), run_discover)
    est = estimate_error(config(method, family="spikes:4", m=m, p=2.0, trials=20))
    assert est.max_cost <= 42660
    assert est.stage_costs["precond"] == 20 * 60 * 701


def test_cost_audit_linsketch_exact_cost():
    method = make_method("linsketch", 64, 1.0, 2.0, budget=128)
    est = estimate_error(config(method, m=64, trials=10))
    assert est.max_cost == 128 and est.mean_cost == 128
    assert est.stage_costs == {"linsketch": 1280}


def test_cost_audit_flags_violations():
    # a method that overspends from its third trial on: the run stops at
    # that trial, and the error names it, its cost, the cap and its stages
    runs = []

    def overspend_from_trial_2(oracle, rng):
        runs.append(len(runs))
        out = np.zeros(oracle.dimension)
        read = oracle.dimension if len(runs) > 2 else 8
        out[:read] = oracle.read_entries(np.arange(read), stage="reads")
        return out

    lying = Method("read_all", 10, overspend_from_trial_2)
    with pytest.raises(CapViolationError) as raised:
        estimate_error(config(lying, m=64, trials=5))
    assert runs == [0, 1, 2]
    assert str(raised.value) == (
        "read_all: trial 2 cost 64 exceeds cap 10 (stages {'reads': 64})")


def test_param_table_for_accuracies():
    rows = param_table(1.0, 2.0, 2**16, eps_values=[0.1, 0.5])
    assert rows[0]["L"] == 9 and rows[0]["R"] == 2
    assert rows[0]["error_bound"] <= 0.1
    buckets = [int(b) for b in rows[0]["buckets_per_level"].split("|")]
    assert len(buckets) == 9 and buckets[0] == 27


def test_param_table_r_is_constant_in_every_row():
    rows = param_table(2.0, 3.0, 2**12, eps_values=[0.5, 0.3, 0.2, 0.1])
    assert all(row["R"] == 2 for row in rows)


def test_param_table_budget_zero_is_the_zero_algorithm():
    rows = param_table(1.0, 2.0, 2**12, budgets=[0])
    assert rows[0]["L"] == 0 and rows[0]["cost_cap"] == 0


def test_param_table_rejects_double_mode():
    with pytest.raises(ParameterError):
        param_table(1.0, 2.0, 64, eps_values=[0.1], budgets=[10])


def test_compare_rows_and_budget_zero(tmp_path):
    budgets = [0, 1500]
    families = [VectorFamily.parse("spikes:4", 1.0),
                VectorFamily.parse("geometric", 1.0)]
    rows = compare_methods(256, 1.0, 2.0, budgets, families, trials=20, seed=7)
    assert len(rows) == 5 * len(budgets) * len(families)
    # at budget 0 every method degenerates to the zero algorithm: identical
    # errors on identical per-trial vectors, and zero cost
    zero_rows = [r for r in rows if r["budget"] == 0]
    for family in families:
        errs = {r["mean_err"] for r in zero_rows if r["family"] == family.label()}
        assert len(errs) == 1
    assert all(r["max_cost"] == 0 for r in zero_rows)
    # costs never exceed the budget
    assert all(r["max_cost"] <= r["budget"] for r in rows)

    out = tmp_path / "rows.csv"
    write_csv(out, rows)
    text = out.read_text(encoding="utf-8").splitlines()
    assert text[0] == ",".join(CSV_COLUMNS)
    assert len(text) == 1 + len(rows)


def test_compare_is_reproducible():
    families = [VectorFamily.parse("spikes:4", 1.0)]
    a = compare_methods(128, 1.0, 2.0, [0, 600], families, trials=10, seed=3)
    b = compare_methods(128, 1.0, 2.0, [0, 600], families, trials=10, seed=3)
    assert a == b


def test_make_method_validation():
    with pytest.raises(ParameterError):
        make_method("warp", 64, 1.0, 2.0)
    with pytest.raises(ParameterError):
        make_method("adaptive", 64, 1.0, 2.0)  # needs budget or levels
    # tiny budgets collapse the sketches to the zero method
    method = make_method("countsketch_denoised", 64, 1.0, 2.0, budget=10)
    assert method.cap == 0
    assert make_method("linsketch_denoised", 64, 1.0, 2.0, budget=0).cap == 0
    # a linsketch without a budget is an error, not a silent zero method
    for name in ("linsketch", "linsketch_denoised"):
        with pytest.raises(ParameterError):
            make_method(name, 64, 1.0, 2.0)
    for name in ("linsketch", "linsketch_denoised", "countsketch", "countsketch_denoised"):
        for budget in (-5, 10.5):  # a float budget is rejected, not taken as the cap
            with pytest.raises(ParameterError):
                make_method(name, 64, 1.0, 2.0, budget=budget)
    # a given budget bounds the resolved cap, whatever chose the size
    for name, knobs in (("read_all", {}), ("adaptive", {"levels": 3}),
                        ("countsketch", {"levels": 2})):
        cap = make_method(name, 1024, 1.0, 2.0, **knobs).cap
        assert make_method(name, 1024, 1.0, 2.0, budget=cap, **knobs).cap == cap
        with pytest.raises(ParameterError, match="exceeds budget"):
            make_method(name, 1024, 1.0, 2.0, budget=cap - 1, **knobs)
    # a size knob is an error for a method that does not read it
    for name in ("zero", "read_all", "linsketch", "linsketch_denoised"):
        with pytest.raises(ParameterError, match="does not read levels"):
            make_method(name, 64, 1.0, 2.0, budget=100, levels=2)
    for name in set(METHOD_NAMES) - {"adaptive"}:
        with pytest.raises(ParameterError, match="does not read reps"):
            make_method(name, 64, 1.0, 2.0, budget=100, reps=2)
    # a count sketch names at most 2^32 groups (level 28), by --L or by budget;
    # resolving the method rejects more before any trial runs. A budget
    # reaches level 29 only where m > 2^28 (below, it stops at 2^level >= m)
    m = 2**30
    reps, _ = countsketch_params(0, m)
    for name in ("countsketch", "countsketch_denoised"):
        assert make_method(name, m, 1.0, 2.0, levels=28).cap == reps * 2**32
        assert make_method(name, m, 1.0, 2.0, budget=reps * 2**33 - 1).levels == 28
        for knobs in ({"levels": 29}, {"levels": 60}, {"budget": reps * 2**33},
                      {"budget": 2**62}):
            with pytest.raises(ParameterError, match="above the cap of 2\\^32"):
                make_method(name, m, 1.0, 2.0, **knobs)


def test_budgeted_countsketch_takes_the_largest_level_that_fits():
    # the level's definition, checked level by level: its cost fits the
    # budget and the next level's does not, unless it is the first level
    # with 2^level >= m; below level 0 it is the zero method, and past
    # level 28 (2^32 groups) a parameter error
    for m in (1, 3, 64, 4096, 10**9):
        reps, _ = countsketch_params(0, m)  # the rounds do not depend on the level
        saturated = (m - 1).bit_length()
        for budget in [*range(0, 3000, 7), 10**6, reps * 2**33 - 1, reps * 2**33,
                       10**12, 10**18, 2**62]:
            if budget // reps >= 2**33 and saturated > 28:
                with pytest.raises(ParameterError, match="above the cap of 2\\^32"):
                    make_method("countsketch", m, 1.0, 2.0, budget=budget)
                continue
            method = make_method("countsketch", m, 1.0, 2.0, budget=budget)
            level = -1 if method.levels is None else method.levels
            if level >= 0:
                assert (reps, 2 ** (4 + level)) == countsketch_params(level, m)
                assert method.cap == reps * 2 ** (4 + level) <= budget
            else:
                assert method.cap == 0
            assert level == saturated or reps * 2 ** (5 + level) > budget
            assert level <= saturated


def test_every_method_on_tiny_dimensions_and_extreme_budgets():
    # each cell is a parameter error at resolution (only a read_all that the
    # budget cannot pay for), or three trials within the cap (estimate_error
    # raises otherwise) with finite statistics
    for name in METHOD_NAMES:
        for m in (1, 2, 3):
            for budget in (0, 1, m, 10**6):
                for p, q in ((1.0, 2.0), (3.0, 4.0)):
                    try:
                        method = make_method(name, m, p, q, budget=budget)
                    except ParameterError:
                        assert name == "read_all" and budget < m, (name, m, budget, p, q)
                        continue
                    for family in ("zero", "spikes:1"):
                        est = estimate_error(config(method, family=family, m=m, p=p,
                                                    q=q, trials=3))
                        assert all(map(math.isfinite, (est.mean_err, est.qmoment_err,
                                                       est.ci, est.mean_cost))), \
                            (name, m, budget, p, q, family)


@pytest.mark.parametrize("levels", [2, 6])
def test_adaptive_runs_in_the_papers_regime_in_sparse_memory(levels):
    # m from 2^16 to 2^60; from 2^30 on the cost cap is far below m (n << m).
    # A dense vector would take 8 GiB at 2^30, so the trials must stay O(nnz)
    # end to end: the family draw, the oracle, the output and the error. At
    # 2^60 the products d * m of the equi-hash bounds leave int64. The cap's
    # share cap/m falls as m grows
    shares = []
    tracemalloc.start()
    try:
        for m in (2**16, 2**24, 2**30, 2**40, 2**60):
            method = make_method("adaptive", m, 1.0, 2.0, levels=levels, reps=2)
            plan = AdaptivePlan(m=m, p=1.0, q=2.0, levels=levels, reps=2)
            assert m < 2**30 or method.cap * 400 < m  # n << m
            shares.append(method.cap / m)
            for family in ("spikes:4", "geometric", "multiscale:10"):
                est = estimate_error(config(method, family=family, m=m, trials=50, seed=30))
                assert est.max_cost <= method.cap  # estimate_error also asserts it per trial
                assert est.qmoment_err <= plan.error_bound(), (m, levels, family)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
    assert all(later < earlier for earlier, later in zip(shares, shares[1:])), shares


def test_adaptive_error_at_p_3_is_nonzero_within_the_bound_and_falls_with_L():
    # a Monte Carlo gate at p > 2 with a nonzero error: uniform_ball at
    # m = 2^12 is dense enough that level 1 leaves an error (0.218 at the
    # fixed seed), and levels 2 and 3 bring it down (0.117, 0.021), each under
    # error_bound() (1.010, 0.849, 0.714). Fixed: p = 3, q = 6, preconditioned,
    # R = repetitions(3, 6) = 3, 20 trials, seed 5
    m, p, q = 2**12, 3.0, 6.0
    reps = repetitions(p, q)
    assert reps == 3
    errors = []
    for levels in (1, 2, 3):
        method = make_method("adaptive", m, p, q, levels=levels, reps=reps)
        plan = AdaptivePlan(m=m, p=p, q=q, levels=levels, reps=reps)
        est = estimate_error(config(method, family="uniform_ball", m=m, p=p, q=q,
                                    trials=20, seed=5))
        assert est.qmoment_err <= plan.error_bound(), (levels, est.qmoment_err)
        errors.append(est.qmoment_err)
    assert errors[0] > 0.0
    assert errors[0] >= errors[1] >= errors[2], errors


# the order gate's tolerance on the fitted slope, fixed before its first run
ORDER_SLOPE_TOLERANCE = 0.1


def test_adaptive_error_falls_at_the_bounds_polynomial_order_in_the_papers_regime():
    # multiscale:10 puts 1/10 of the l_1 mass on each of 10 scales (1,023
    # nonzeros), so each level detects more of it and the error keeps moving
    # where the other sparse families reach 0. At m = 2^30 (n << m), p = 1,
    # q = 2, preconditioned, R = 2, L = 1..6: qmoment_err <= error_bound()
    # at every L, and the fitted slope of log qmoment_err against log mean
    # cost is no shallower than that of error_bound() against plan_cost_cap,
    # up to ORDER_SLOPE_TOLERANCE. Fixed: 20 trials per level, seed 11
    m, p, q = 2**30, 1.0, 2.0
    errors, costs, bounds, caps = [], [], [], []
    for levels in range(1, 7):
        method = make_method("adaptive", m, p, q, levels=levels, reps=2)
        plan = AdaptivePlan(m=m, p=p, q=q, levels=levels, reps=2)
        est = estimate_error(config(method, family="multiscale:10", m=m, p=p, q=q,
                                    trials=20, seed=11))
        assert 0.0 < est.qmoment_err <= plan.error_bound(), (levels, est.qmoment_err)
        errors.append(est.qmoment_err)
        costs.append(est.mean_cost)
        bounds.append(plan.error_bound())
        caps.append(plan_cost_cap(plan))
    slope = np.polyfit(np.log(costs), np.log(errors), 1)[0]
    bound_slope = np.polyfit(np.log(caps), np.log(bounds), 1)[0]
    assert slope <= bound_slope + ORDER_SLOPE_TOLERANCE, (slope, bound_slope, errors)


def test_adaptive_error_at_p_3_on_a_sparse_multiscale_vector():
    # the sparse p > 2 cell: multiscale:12 (4,095 nonzeros) at m = 2^16,
    # p = 3, q = 6, preconditioned, R = repetitions(3, 6) = 3, L = 1..3,
    # each under error_bound(); level 1 leaves an error and more levels
    # bring it down. Fixed: 20 trials per level, seed 5
    m, p, q = 2**16, 3.0, 6.0
    reps = repetitions(p, q)
    errors = []
    for levels in (1, 2, 3):
        method = make_method("adaptive", m, p, q, levels=levels, reps=reps)
        plan = AdaptivePlan(m=m, p=p, q=q, levels=levels, reps=reps)
        est = estimate_error(config(method, family="multiscale:12", m=m, p=p, q=q,
                                    trials=20, seed=5))
        assert est.qmoment_err <= plan.error_bound(), (levels, est.qmoment_err)
        errors.append(est.qmoment_err)
    assert errors[0] > 0.0
    assert errors[0] >= errors[1] >= errors[2], errors


def test_zero_method_runs_in_the_papers_regime_in_sparse_memory():
    # the zero output is a sparse zero, so a zero row on a sparse family is
    # O(nnz) at m = 2^30: its error is exactly ||x||_q and it costs nothing
    m, trials = 2**30, 3
    method = make_method("zero", m, 1.0, 2.0)
    for family in ("spikes:4", "geometric"):
        cfg = config(method, family=family, m=m, trials=trials, seed=30)
        tracemalloc.start()
        try:
            est = estimate_error(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, (family, peak)
        norms = []
        for t in range(trials):
            vec_rng, _ = _trial_streams(30, cfg.family, "zero", t)
            norms.append(lp_norm(gen_vector(cfg.family, m, vec_rng).values, 2.0))
        assert est.mean_err == np.mean(norms) and est.max_cost == est.mean_cost == 0


def test_union_support_error_matches_the_dense_norm():
    # the error of two sparse vectors leaves their common zeros out of the
    # sum, which may only change its rounding: within a few ulps of the
    # dense norm at finite q, and equal at q = inf (a max has no order)
    gen = RngStream(19).child("union-error").generator

    def draw(m):
        size = int(gen.integers(0, min(m, 70) + 1))
        support = np.sort(gen.choice(m, size=size, replace=False))
        return SparseVector(m, support, gen.standard_normal(size)
                            * 10.0 ** gen.uniform(-3.0, 3.0, size=size))

    for trial in range(200):
        m = int(gen.integers(1, 300))
        x, out = draw(m), draw(m)
        if trial % 2:  # an output that reads x exactly on part of x's support
            keep = x.index[gen.random(x.index.size) < 0.5]
            out = SparseVector(m, keep, x[keep])
        dense = np.asarray(x) - np.asarray(out)
        for q in (1.5, 2.0, 3.0):
            assert harness._error(x, out, q) == pytest.approx(lp_norm(dense, q), rel=1e-14, abs=0)
        assert harness._error(x, out, math.inf) == lp_norm(dense, math.inf)
        assert harness._error(x, np.asarray(out), 2.0) == lp_norm(dense, 2.0)
