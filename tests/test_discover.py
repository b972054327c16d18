import dataclasses
import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from adasketch.discover import (
    BASIC,
    GAMMA_BASIC,
    GAMMA_PRECONDITIONED,
    PRECOND_MEASUREMENTS,
    PRECONDITIONED,
    DiscoverConfig,
    _candidate_sets,
    bucket_count,
    discover,
    discover_cost_cap,
)
from adasketch.errors import ParameterError
from adasketch.hashing import equi_hash
from adasketch.oracle import MeasurementOracle
from adasketch.precondition import precond, precond_measurements, sign_tail_probability
from adasketch.rng import RngStream
from adasketch.spotting import shrink_depth, spot, spot_heavy_hitter_constant


def stream(label, seed=99):
    return RngStream(seed).child(label)


def test_constants_are_their_lemma_values():
    # spot's dominance factor at delta2 = 1/3 (basic) and 1/4 (preconditioned),
    # and precond's measurement count lifting sqrt(5)- to that dominance at 1/5
    assert GAMMA_BASIC == spot_heavy_hitter_constant(1 / 3) == 8556.24041957283
    assert GAMMA_PRECONDITIONED == spot_heavy_hitter_constant(1 / 4) == 11824.62047012724
    assert PRECOND_MEASUREMENTS == precond_measurements(GAMMA_PRECONDITIONED, 1 / 5) == 701
    assert DiscoverConfig.for_sensitivity(1, 0.5, 64).precond_size == PRECOND_MEASUREMENTS


def test_bucket_count_basic_examples():
    gamma = 3075 * math.sqrt(2 * math.log(48))
    assert GAMMA_BASIC == pytest.approx(gamma, rel=1e-12)
    assert bucket_count(1, 0.1, 10**7, BASIC) == math.ceil(40 * gamma) == 342250
    # p = 2 at eps = 0.5 wants ~1.17e9 buckets and caps at m
    assert bucket_count(2, 0.5, 2**20, BASIC) == 2**20
    assert math.ceil(4 * gamma**2 * 4) == 1171348002
    # p > 2 regime scales with m^(1-2/p)
    m = 10**20
    expected = math.ceil(4 * gamma**2 * m ** (1 - 2 / 4) * 0.5**-2)
    assert expected < m
    assert bucket_count(4, 0.5, m, BASIC) == expected
    # the constant 4*gamma^2 is 75,645,000 * log 48
    assert 4 * gamma**2 == pytest.approx(75_645_000 * math.log(48), rel=1e-12)


def test_bucket_count_preconditioned_examples():
    assert bucket_count(2, 0.1, 10**7, PRECONDITIONED) == 3000
    assert bucket_count(1, 0.5, 10**7, PRECONDITIONED) == 27
    assert bucket_count(1, 1 - 1e-12, 10**7, PRECONDITIONED) == 14
    m = 2**20
    expected = math.ceil(30 * m ** (1 - 2 / 4) * 0.5**-2)
    assert bucket_count(4, 0.5, m, PRECONDITIONED) == expected


def test_bucket_count_domain_checks():
    with pytest.raises(ParameterError):
        bucket_count(0.5, 0.1, 100)
    with pytest.raises(ParameterError):
        bucket_count(1, 1.0, 100)
    with pytest.raises(ParameterError):
        bucket_count(1, 0.1, 100, "fancy")


def test_config_derivation():
    cfg = DiscoverConfig.for_sensitivity(1.0, 0.25, 2**14, PRECONDITIONED)
    assert cfg.buckets == 54
    assert cfg.delta2 == 0.25
    assert cfg.precond_size == 701
    assert cfg.depth == shrink_depth(2**14 / 54) == 1
    basic = DiscoverConfig.for_sensitivity(1.0, 0.25, 2**14, BASIC)
    assert basic.delta2 == pytest.approx(1 / 3)
    assert basic.precond_size == 0
    assert basic.buckets == 2**14  # capped: constant is huge at desk scale


def test_config_rejects_a_filter_size_off_its_variant():
    # the basic variant takes no sign measurements, the preconditioned one some
    cfg = DiscoverConfig.with_buckets(0.5, 2**12, 60, BASIC)
    for variant, size in ((BASIC, 1), (PRECONDITIONED, 0), (BASIC, -1)):
        with pytest.raises(ParameterError):
            dataclasses.replace(cfg, variant=variant, precond_size=size)


def test_cost_caps_formulae():
    cfg = DiscoverConfig.with_buckets(0.5, 2**12, 60, PRECONDITIONED)
    assert discover_cost_cap(cfg) == 60 * (703 + 2 * cfg.depth)
    cfg = DiscoverConfig.with_buckets(0.5, 2**12, 60, BASIC)
    assert discover_cost_cap(cfg) == 60 * 2 * (cfg.depth + 1)


@pytest.mark.parametrize("variant", [BASIC, PRECONDITIONED])
def test_one_sparse_detection_is_certain(variant):
    m = 2**12
    cfg = DiscoverConfig.for_sensitivity(1.0, 0.25, m, variant)
    rng = stream(f"1s-{variant}")
    pos = stream(f"1s-pos-{variant}").generator
    for t in range(300):
        j = int(pos.integers(0, m))
        x = np.zeros(m)
        x[j] = 1.0
        oracle = MeasurementOracle(x)
        found = discover(oracle, cfg, rng.child_at("trial", t))
        assert j in found
        assert found.size <= cfg.buckets
        assert oracle.cost <= discover_cost_cap(cfg)


def test_zero_vector_stays_within_bounds():
    m = 2**10
    for variant in (BASIC, PRECONDITIONED):
        cfg = DiscoverConfig.for_sensitivity(1.0, 0.5, m, variant)
        oracle = MeasurementOracle(np.zeros(m))
        found = discover(oracle, cfg, stream(f"z-{variant}"))
        assert found.size <= cfg.buckets
        assert np.all((0 <= found) & (found < m))
        assert oracle.cost <= discover_cost_cap(cfg)


def test_preconditioned_cost_is_deterministic_in_the_filter_stage():
    # every bucket pays exactly precond_size sign measurements
    m = 2**12
    cfg = DiscoverConfig.for_sensitivity(1.0, 0.25, m, PRECONDITIONED)
    gen = stream("cost-x").generator
    x = gen.standard_normal(m) * (gen.random(m) < 0.01)
    oracle = MeasurementOracle(x)
    discover(oracle, cfg, stream("cost"))
    assert oracle.stage_costs()["precond"] == cfg.buckets * cfg.precond_size


def test_basic_variant_cost_cap_with_nontrivial_depth():
    m = 2**16
    cfg = DiscoverConfig.with_buckets(0.25, m, 32, BASIC)
    assert cfg.depth == 3
    gen = stream("basic-x").generator
    rng = stream("basic")
    for t in range(20):
        x = gen.standard_normal(m) * (gen.random(m) < 0.001)
        oracle = MeasurementOracle(x)
        found = discover(oracle, cfg, rng.child_at("trial", t))
        assert found.size <= 32
        assert oracle.cost <= discover_cost_cap(cfg) == 32 * 8


def test_quarter_mass_spikes_detection_rate():
    # four spikes of 0.25 at sensitivity 0.25: each must be found with
    # probability at least 1/2 (empirically far higher)
    m, trials = 2**14, 1000
    cfg = DiscoverConfig.for_sensitivity(1.0, 0.25, m, PRECONDITIONED)
    cap = discover_cost_cap(cfg)
    gen = stream("q-x").generator
    rng = stream("q")
    found_count = 0
    for t in range(trials):
        where = gen.choice(m, size=4, replace=False)
        x = np.zeros(m)
        x[where] = 0.25
        oracle = MeasurementOracle(x)
        found = discover(oracle, cfg, rng.child_at("trial", t))
        assert oracle.cost <= cap
        found_count += np.isin(where, found).sum()
    rate = found_count / (4 * trials)
    assert rate >= 0.5 - 0.02


def test_quarter_mass_spikes_basic_variant_degenerates_to_exact():
    # at desk scale the basic constants force D = m: singleton buckets,
    # free spotting, every coordinate returned
    m = 2**12
    cfg = DiscoverConfig.for_sensitivity(1.0, 0.25, m, BASIC)
    assert cfg.buckets == m
    gen = stream("deg-x").generator
    where = gen.choice(m, size=4, replace=False)
    x = np.zeros(m)
    x[where] = 0.25
    oracle = MeasurementOracle(x)
    found = discover(oracle, cfg, stream("deg"))
    assert np.isin(where, found).all()
    assert oracle.cost == 0


def test_discover_is_deterministic_given_the_stream():
    m = 2**10
    cfg = DiscoverConfig.for_sensitivity(1.0, 0.4, m, PRECONDITIONED)
    gen = stream("det-x").generator
    x = gen.standard_normal(m) * (gen.random(m) < 0.02)
    a = discover(MeasurementOracle(x), cfg, stream("det"))
    b = discover(MeasurementOracle(x), cfg, stream("det"))
    assert np.array_equal(a, b)


def test_one_stream_replays_one_pass():
    # discover takes its hash, filter and spot streams from ``rng`` by label,
    # so independent passes need independent child streams
    m = 2**10
    cfg = DiscoverConfig.for_sensitivity(1.0, 0.25, m, PRECONDITIONED)
    gen = stream("replay-x").generator
    x = gen.standard_normal(m) * (gen.random(m) < 0.05)
    rng = stream("replay")
    same = [discover(MeasurementOracle(x), cfg, rng) for _ in range(3)]
    assert all(np.array_equal(same[0], other) for other in same[1:])
    fresh = [discover(MeasurementOracle(x), cfg, rng.child_at("trial", t))
             for t in range(20)]
    assert any(not np.array_equal(fresh[0], other) for other in fresh[1:])


@pytest.mark.parametrize("buckets", [255, 256, 65_535, 65_536])
def test_basic_candidate_sets_are_the_stable_argsort_of_the_hash(buckets):
    # the basic pass sorts the hash values in the narrowest dtype that holds
    # them; these counts cross each dtype boundary of np.min_scalar_type
    m = 2**17
    cfg = DiscoverConfig.with_buckets(0.25, m, buckets, BASIC)
    coords, _ = _candidate_sets(MeasurementOracle(np.zeros(m)), cfg, stream("argsort"))
    hashed = equi_hash(m, buckets, stream("argsort").child("hash"))
    expected = np.argsort(hashed, kind="stable")
    assert coords.dtype == expected.dtype and np.array_equal(coords, expected)


def test_saturated_basic_pass_draws_no_hash():
    # at buckets == m every bucket is a singleton, which spot keeps whatever
    # the hash, so the pass returns [0, m) without drawing the hash
    labels = []

    class LabelLog(RngStream):
        def child(self, label):
            labels.append(label)
            return super().child(label)

    m = 64
    cfg = DiscoverConfig.with_buckets(0.25, m, m, BASIC)
    x = stream("saturated-x").generator.standard_normal(m) * (np.arange(m) % 3 == 0)
    coords, cuts = _candidate_sets(MeasurementOracle(x), cfg, LabelLog(5))
    assert labels == []
    assert np.array_equal(coords, np.arange(m)) and np.array_equal(cuts, np.arange(m + 1))
    oracle = MeasurementOracle(x)
    assert np.array_equal(discover(oracle, cfg, stream("saturated")), np.arange(m))
    assert oracle.cost == 0


def sets_of(coords, cuts):
    return [coords[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def per_set_pass(oracle, cfg, rng):
    """``discover`` with its candidate sets handed to ``spot`` one by one, in
    ascending set order, singletons included. Returns (found, set sizes)."""
    sets = sets_of(*_candidate_sets(oracle, cfg, rng))
    spot_rng = rng.child("spot")
    hits = [spot(oracle, s, cfg.spot_params, spot_rng) for s in sets]
    found = np.unique(np.concatenate(hits)) if hits else np.empty(0, dtype=np.intp)
    return found, [s.size for s in sets]


@pytest.mark.parametrize("buckets", [50, 25, 17, None])
def test_bulk_spot_replays_the_per_set_loop(buckets):
    # discover resolves sets of at most one element without calling spot;
    # spot draws nothing on them, so one stream must give the per-set loop's
    # output and stage costs exactly. None: the preconditioned pass with a
    # weak filter (k = 6), whose survivor sets often hold several elements.
    if buckets is None:
        m, density = 2**10, 0.05
        cfg = dataclasses.replace(
            DiscoverConfig.for_sensitivity(1.0, 0.25, m, PRECONDITIONED), precond_size=6)
    else:
        m, density = 50, 0.6
        cfg = DiscoverConfig.with_buckets(0.25, m, buckets, BASIC)
    gen = stream(f"bulk-x-{buckets}").generator
    rng = stream(f"bulk-{buckets}")
    sizes = []
    for t in range(30):
        x = gen.standard_normal(m) * (gen.random(m) < density)
        fast, loop = MeasurementOracle(x), MeasurementOracle(x)
        found = discover(fast, cfg, rng.child_at("trial", t))
        expected, set_sizes = per_set_pass(loop, cfg, rng.child_at("trial", t))
        assert np.array_equal(found, expected)
        assert found.dtype == expected.dtype
        assert fast.stage_costs() == loop.stage_costs()
        sizes += set_sizes
    if buckets == 50:
        assert max(sizes) == 1
    else:
        assert sum(size >= 2 for size in sizes) >= 30


# -- the preconditioned pass against its direct reference --------------------
#
# Each comparison is a chi-square homogeneity test at level ALPHA on
# per-pass records from independent passes, fast path against reference:
# detection of each nonzero coordinate, survivor count, survivor-set count,
# zero survivors and total cost. Trial counts and ALPHA are fixed here.

ALPHA = 1e-3


def reference_pass(oracle, cfg, rng):
    """One preconditioned pass built directly: the full ``equi_hash``,
    ``precond`` on every bucket, then ``spot`` on every non-empty survivor
    set. Returns (found, survivor sets)."""
    hashed = equi_hash(cfg.m, cfg.buckets, rng.child("hash"))
    precond_rng, spot_rng = rng.child("precond"), rng.child("spot")
    survivor_sets, hits = [], []
    for d in range(1, cfg.buckets + 1):
        kept = precond(oracle, np.flatnonzero(hashed == d), cfg.precond_size, precond_rng)
        if kept.size:
            survivor_sets.append(kept)
            hits.append(spot(oracle, kept, cfg.spot_params, spot_rng))
    found = np.unique(np.concatenate(hits)) if hits else np.empty(0, dtype=np.intp)
    return found, survivor_sets


def _pass_records(x, cfg, trials, label, fast):
    """Per-pass records of independent passes: the fast ``discover`` path,
    with its survivor sets replayed from the same stream on a second oracle,
    when ``fast`` is true, else the reference."""
    root = stream(label)
    live = np.flatnonzero(x)
    detected = np.zeros((trials, live.size), dtype=bool)
    columns = ("survivors", "sets", "zero_survivors", "zero_found", "cost")
    records = {name: np.zeros(trials, dtype=np.int64) for name in columns}
    for t in range(trials):
        oracle = MeasurementOracle(x)
        rng = root.child_at("trial", t)
        if fast:
            found = discover(oracle, cfg, rng)
            sets = sets_of(*_candidate_sets(MeasurementOracle(x), cfg, rng))
        else:
            found, sets = reference_pass(oracle, cfg, rng)
        assert oracle.stage_costs()["precond"] == cfg.precond_size * cfg.buckets
        assert oracle.cost <= discover_cost_cap(cfg)
        pooled = np.concatenate(sets) if sets else np.empty(0, dtype=np.intp)
        assert np.unique(pooled).size == pooled.size  # disjoint buckets
        assert all(np.all(np.diff(s) > 0) for s in sets)
        detected[t] = np.isin(live, found)
        records["survivors"][t] = pooled.size
        records["sets"][t] = len(sets)
        records["zero_survivors"][t] = np.count_nonzero(x[pooled] == 0.0)
        records["zero_found"][t] = np.count_nonzero(x[found] == 0.0)
        records["cost"][t] = oracle.cost
    return detected, records


def _homogeneity_pvalue(a, b, min_pooled=20):
    """Chi-square p-value that two integer samples share one law; adjacent
    values are merged until each bin holds ``min_pooled`` observations."""
    values, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    edges, run = [], 0
    for value, count in zip(values, counts):
        run += count
        if run >= min_pooled:
            edges.append(value)
            run = 0
    if len(edges) < 2:
        return 1.0
    bins = len(edges)
    table = [np.bincount(np.minimum(np.searchsorted(edges, sample), bins - 1),
                         minlength=bins) for sample in (a, b)]
    return chi2_contingency(table).pvalue


def _assert_same_law(x, cfg, trials, label):
    fast_detected, fast = _pass_records(x, cfg, trials, f"{label}-fast", True)
    ref_detected, ref = _pass_records(x, cfg, trials, f"{label}-ref", False)
    for j, coordinate in enumerate(np.flatnonzero(x)):
        p_value = _homogeneity_pvalue(fast_detected[:, j], ref_detected[:, j])
        assert p_value >= ALPHA, (label, "detection", coordinate, p_value)
    for name in fast:
        p_value = _homogeneity_pvalue(fast[name], ref[name])
        assert p_value >= ALPHA, (label, name, p_value)
    return fast_detected, fast


def test_fast_pass_matches_reference_on_sparse_spikes():
    m = 2**10
    cfg = DiscoverConfig.for_sensitivity(1.0, 0.25, m, PRECONDITIONED)
    x = np.zeros(m)
    x[[5, 100, 377, 640, 1001]] = [0.35, -0.25, 0.2, -0.12, 0.08]
    detected, records = _assert_same_law(x, cfg, 600, "eq-spikes")
    assert detected[:, 0].mean() >= 0.5  # the spike above eps
    assert records["zero_survivors"].sum() == 0  # tail ~3.7e-76 per bucket


def test_fast_pass_matches_reference_with_exact_cancellation():
    # two buckets of 16; when +-0.5 share one, every row with equal signs
    # measures exactly 0.0 and takes sign +1. k = 12 keeps the survivor
    # counts non-degenerate and lets zero candidates through the tail.
    m = 32
    cfg = dataclasses.replace(
        DiscoverConfig.with_buckets(0.25, m, 2, PRECONDITIONED), precond_size=12)
    x = np.zeros(m)
    x[3], x[11] = 0.5, -0.5
    detected, records = _assert_same_law(x, cfg, 2000, "eq-cancel")
    assert 0.3 <= detected[:, 0].mean() <= 0.9
    assert records["zero_survivors"].sum() > 0


def test_fast_pass_matches_reference_when_the_zero_tail_fires():
    m, trials = 2**10, 400
    cfg = dataclasses.replace(
        DiscoverConfig.for_sensitivity(1.0, 0.25, m, PRECONDITIONED), precond_size=6)
    tail = sign_tail_probability(6)
    assert tail == pytest.approx(0.21875)
    x = np.zeros(m)
    x[[5, 100, 377, 640, 1001]] = [0.35, -0.25, 0.2, -0.12, 0.08]
    _, records = _assert_same_law(x, cfg, trials, "eq-tail")
    # extras are distinct zero coordinates (checked per pass above), and the
    # branch fires in nearly every pass at rate tail per zero coordinate
    zero_kept = records["zero_survivors"]
    assert np.mean(zero_kept > 0) >= 0.9
    n = trials * np.count_nonzero(x == 0.0)
    rate = zero_kept.sum() / n
    assert abs(rate - tail) <= 4.0 * math.sqrt(tail * (1.0 - tail) / n)
