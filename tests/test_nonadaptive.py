import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from adasketch.errors import ParameterError
from adasketch.families import VectorFamily, gen_vector
from adasketch.harness import make_method
from adasketch.nonadaptive import (
    countsketch,
    countsketch_estimates,
    countsketch_params,
    countsketch_plan,
    denoised_countsketch,
    denoised_linsketch,
    keep_largest,
    linsketch,
    linsketch_keep_count,
    linsketch_matrix,
)
from adasketch.oracle import MeasurementOracle, SparseVector, lp_norm
from adasketch.rng import RngStream, rademacher


def stream(label, seed=2718):
    return RngStream(seed).child(label)


# -- Gaussian sketch ----------------------------------------------------------

# the materialized reference and the sampled law: one sketch per call, both
# charged under stage "linsketch"
GAUSSIAN_SKETCHES = {
    "linsketch": linsketch,
    "gaussian_sketch": lambda oracle, n, rng: oracle.gaussian_sketch(
        n, rng, stage="linsketch"),
}


def test_linsketch_zero_input():
    for sketch in GAUSSIAN_SKETCHES.values():
        oracle = MeasurementOracle(np.zeros(16))
        out = sketch(oracle, 8, stream("z"))
        assert np.array_equal(out, np.zeros(16))
        assert oracle.cost == 8 and oracle.stage_costs() == {"linsketch": 8}


def test_linsketch_cost_is_exactly_n():
    for sketch in GAUSSIAN_SKETCHES.values():
        for n in (1, 64, 130, 300):
            oracle = MeasurementOracle(np.ones(8))
            sketch(oracle, n, stream(f"c{n}"))
            assert oracle.cost == n and oracle.stage_costs() == {"linsketch": n}
        oracle = MeasurementOracle(np.ones(8))
        for n in (0, 2.5):  # a float count raises, it is not truncated
            with pytest.raises(ParameterError):
                sketch(oracle, n, stream("c0"))
        assert oracle.cost == 0


def test_gaussian_sketch_stream_use_is_pinned():
    """The bytes of one seeded ``gaussian_sketch`` draw, pinned by their sha256.

    The draw takes chisquare(n) and then standard_normal(m) from the stream;
    a refactor that draws and combines them as before leaves the digest
    unchanged.
    """
    x = stream("pin-x").generator.standard_normal(16)
    out = MeasurementOracle(x).gaussian_sketch(32, stream("pin"), stage="t")
    digest = hashlib.sha256(out.tobytes()).hexdigest()
    assert digest == "e58cecf373bd5131f78d3fd8ba8f7617d86d6c745f1c1f1d73f6abf5750d6b85"


def test_linsketch_matrix_matches_execution_draws():
    m, n = 8, 300
    mat = linsketch_matrix(m, n, stream("mat"))
    x = stream("mat-x").generator.standard_normal(m)
    oracle = MeasurementOracle(x)
    out = linsketch(oracle, n, stream("mat"))
    assert np.allclose(out, mat.T @ (mat @ x) / n, rtol=1e-12, atol=1e-14)


def test_linsketch_matrix_draw_is_pinned():
    """The bytes of one seeded ``linsketch_matrix`` draw, pinned by their sha256.

    The matrix is one standard_normal((n, m)) draw, row-major; drawing it
    in row blocks takes the same words in the same order.
    """
    mat = linsketch_matrix(16, 300, stream("mat-pin"))
    assert mat.shape == (300, 16)
    digest = hashlib.sha256(mat.tobytes()).hexdigest()
    assert digest == "26961b3db33672e248c3775d853309536e6c252d2e1e23976ef8963b1641ea7e"


def test_linsketch_linearity_under_coupled_draws():
    m, n = 16, 64
    gen = stream("lin-x").generator
    x, z = gen.standard_normal(m), gen.standard_normal(m)
    out_x = linsketch(MeasurementOracle(x), n, stream("lin"))
    out_z = linsketch(MeasurementOracle(z), n, stream("lin"))
    out_sum = linsketch(MeasurementOracle(x + z), n, stream("lin"))
    assert np.allclose(out_sum, out_x + out_z, rtol=1e-12, atol=1e-12)
    out_scaled = linsketch(MeasurementOracle(2.5 * x), n, stream("lin"))
    assert np.allclose(out_scaled, 2.5 * out_x, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", sorted(GAUSSIAN_SKETCHES))
def test_gaussian_sketch_moments_match_closed_form(name):
    # E out = x and Var(out_j) = (||x||_2^2 + x_j^2) / n per coordinate; each
    # sample moment must lie within 4 of its own standard errors
    sketch = GAUSSIAN_SKETCHES[name]
    m, n, trials = 16, 32, 10_000
    x = stream("unb-x").generator.standard_normal(m)
    x /= lp_norm(x, 2)
    rng = stream("unb")
    outs = np.array([sketch(MeasurementOracle(x), n, rng) for _ in range(trials)])
    mean = outs.mean(axis=0)
    std = np.sqrt(np.maximum((outs * outs).mean(axis=0) - mean**2, 0.0))
    assert np.all(np.abs(mean - x) <= 4 * std / math.sqrt(trials) + 1e-12)
    var = (lp_norm(x, 2) ** 2 + x * x) / n
    dev2 = (outs - mean) ** 2
    sample_var = dev2.mean(axis=0)
    var_sem = dev2.std(axis=0) / math.sqrt(trials)
    assert np.all(np.abs(sample_var - var) <= 4 * var_sem), sample_var / var


def test_gaussian_sketch_law_matches_materialized_sketch():
    # where the methods use it: top-k of the law against top-k of the
    # materialized sketch, by two-sample KS tests on the l_2 error of the
    # denoised output and on every raw coordinate, Bonferroni at 1e-3
    m, n, trials, alpha = 16, 32, 3_000, 1e-3
    k = linsketch_keep_count(m, n, 1)
    sparse = np.zeros(m)
    sparse[5] = 1.0
    dense = stream("eq-x").generator.standard_normal(m)
    dense /= lp_norm(dense, 1)
    pvalues = []
    for label, x in (("sparse", sparse), ("dense", dense)):
        draws = {}
        for name, sketch in GAUSSIAN_SKETCHES.items():
            rng = stream(f"eq-{label}-{name}")
            draws[name] = np.array([sketch(MeasurementOracle(x), n, rng)
                                    for _ in range(trials)])
        ref, law = draws["linsketch"], draws["gaussian_sketch"]
        err_ref, err_law = ([lp_norm(x - keep_largest(out, k), 2) for out in outs]
                            for outs in (ref, law))
        pvalues.append(ks_2samp(err_ref, err_law).pvalue)
        pvalues.extend(ks_2samp(ref[:, j], law[:, j]).pvalue for j in range(m))
    assert min(pvalues) >= alpha / len(pvalues), min(pvalues)


def test_gaussian_sketch_in_one_dimension():
    # m = 1: the law is x S / n with S ~ chi^2_n, with no projection residue
    n = 8
    for x in (3.25, -0.5, 1e-300):
        oracle = MeasurementOracle([x])
        out = oracle.gaussian_sketch(n, stream(f"g1-{x}"), stage="t")
        s = stream(f"g1-{x}").generator.chisquare(n)
        assert out[0] == pytest.approx(x * s / n, rel=1e-15, abs=0.0)
        assert np.sign(out[0]) == np.sign(x)
        assert np.sign(linsketch(MeasurementOracle([x]), n, stream("g1"))[0]) == np.sign(x)


def test_linsketch_sup_error_bound_monte_carlo():
    # mean l_inf error <= 2 sqrt(2 log m / n) on the unit l_2 sphere
    m, n, trials = 16, 128, 300
    bound = 2 * math.sqrt(2 * math.log(m) / n)
    rng = stream("sup")
    x = np.zeros(m)
    x[3] = 1.0
    errs = []
    for _ in range(trials):
        out = linsketch(MeasurementOracle(x), n, rng)
        errs.append(lp_norm(x - out, math.inf))
    assert np.mean(errs) <= bound


# -- count sketch -------------------------------------------------------------

def test_countsketch_m1_is_exact():
    for reps in (1, 5, 9):
        oracle = MeasurementOracle([3.25])
        out = countsketch(oracle, reps, 1, stream(f"m1-{reps}"))
        assert out[0] == 3.25
        assert oracle.cost == reps


def test_countsketch_zero_input():
    oracle = MeasurementOracle(np.zeros(32))
    out = countsketch(oracle, 5, 8, stream("z"))
    assert np.array_equal(out, np.zeros(32))
    assert oracle.cost == 40


@pytest.mark.parametrize("reps", [1, 5, 39])
def test_countsketch_is_the_np_median_of_its_round_estimates(reps):
    # countsketch reads the median as the middle order statistic; its bytes
    # must be np.median's, the sign of zero included. The zero vector's
    # estimates are all ±0.0, and x = [1, -1] in one group cancels exactly
    # whenever the two signs agree.
    ball = gen_vector(VectorFamily("uniform_ball"), 2**12, stream("med-ball-x"))
    for name, x, groups in (("zero", np.zeros(64), 8),
                            ("cancel", np.array([1.0, -1.0]), 1),
                            ("ball", ball, 256)):
        label = f"med-{name}-{reps}"
        out = countsketch(MeasurementOracle(x), reps, groups, stream(label))
        plan = countsketch_plan(x.size, reps, groups, stream(label))
        est = countsketch_estimates(MeasurementOracle(x), plan)  # (m, reps)
        assert out.tobytes() == np.median(est, axis=1).tobytes()


def reference_plan(m, reps, group_count, gen):
    """The per-round draw loop that ``countsketch_plan`` reads in one block:
    each round draws its m group ids, then its m signs."""
    groups = np.empty((reps, m), dtype=np.int64)
    signs = np.empty((reps, m))
    for r in range(reps):
        groups[r] = gen.integers(0, group_count, size=m)
        signs[r] = rademacher(gen, m)
    return groups, signs


@pytest.mark.parametrize("m", [1, 3, 7, 24, 1000, 4096])
def test_countsketch_plan_replays_the_per_round_draws(m):
    # byte for byte, over four consecutive plans from one stream and a
    # 32-bit draw after them: a half-word one call leaves buffered in the
    # generator must be the next call's first word, as in the loop
    for group_count in (1, 4, 512, 2**32):
        for reps in (1, 5, 39):
            label = f"replay-{m}-{group_count}-{reps}"
            rng, gen = stream(label), stream(label).generator
            for _ in range(4):
                plan = countsketch_plan(m, reps, group_count, rng)
                groups, signs = reference_plan(m, reps, group_count, gen)
                assert plan.reps == reps, label
                for r in range(reps):
                    plan_groups, plan_signs = plan.round(r)
                    assert plan_groups.tobytes() == groups[r].tobytes(), label
                    assert plan_signs.tobytes() == signs[r].tobytes(), label
            after = rng.generator.integers(0, 1000, size=3)
            assert after.tobytes() == gen.integers(0, 1000, size=3).tobytes(), label


def _rounds_digest(plan):
    """sha256 of the plan's group ids, then its signs, stacked round by round."""
    groups, signs = zip(*(plan.round(r) for r in range(plan.reps)))
    return hashlib.sha256(np.stack(groups).tobytes() + np.stack(signs).tobytes()).hexdigest()


def test_countsketch_plan_is_pinned():
    plan = countsketch_plan(4096, 39, 512, stream("plan-pin"))
    assert _rounds_digest(plan) == (
        "12af6128414c8fa1b5dd05b2a725e6c03e8818a9c99835d6f36ce6ea3653d523")
    # at G = 2^32 a round's group ids are its whole words; no output can be
    # pinned there, as the oracle's per-round group sums would need 32 GiB
    plan = countsketch_plan(3, 39, 2**32, stream("pin-g32"))
    assert _rounds_digest(plan) == (
        "546c6da0fe963b3d84d0b929718588efb6b745ed410a7b7ff4c5527dcd319d82")


def _digest(array):
    return hashlib.sha256(np.asarray(array).tobytes()).hexdigest()


def test_countsketch_outputs_are_pinned():
    # output bytes of the benchmark's cell (m = 2^12, level 5, uniform_ball),
    # one group, and spikes:8 through a SparseVector oracle (G = 2^32 is
    # pinned by its plan alone, in test_countsketch_plan_is_pinned)
    ball = gen_vector(VectorFamily("uniform_ball"), 4096, stream("pin-ball-x"))
    reps, groups = countsketch_params(5, 4096)
    assert _digest(countsketch(MeasurementOracle(ball), reps, groups, stream("pin-ball"))) == (
        "b30f974be3afa3a5a8e714c990604168cbab9af04b41f1bd1ba6daae6793297f")
    assert _digest(denoised_countsketch(MeasurementOracle(ball), 5, stream("pin-ball"))) == (
        "9a7b93883b565c6c241fe9d73c0553b6c25582699fe4ba741829ea2bd87a2480")
    x = stream("pin-g1-x").generator.standard_normal(1000)
    assert _digest(countsketch(MeasurementOracle(x), 5, 1, stream("pin-g1"))) == (
        "9a903361888d3950c57f2999535603829c75aa6fd8fb85e87d3081c47e927da9")
    spikes = gen_vector(VectorFamily.parse("spikes:8", 1.0), 2**16, stream("pin-sparse-x"))
    assert isinstance(spikes, SparseVector)
    reps, groups = countsketch_params(2, 2**16)
    assert _digest(countsketch(MeasurementOracle(spikes), reps, groups,
                               stream("pin-sparse"))) == (
        "6fb25fe299a22b8996cb34b218222da600b28a44c4581b3a3c1fc849a12023c7")
    assert _digest(denoised_countsketch(MeasurementOracle(spikes), 2, stream("pin-sparse"))) == (
        "0a1a28efa66114e20ee14b021f527b2ce927b43f40b2250f4078c2821bf054f3")


def test_countsketch_plan_rejects_group_counts_off_the_word_draw():
    # group ids are the top bits of one 32-bit word: G must be 2^b, b <= 32
    for group_count in (0, 3, 12, 513, 2**32 + 1, 2**33):
        with pytest.raises(ParameterError, match="power of two at most 2\\^32"):
            countsketch_plan(8, 1, group_count, stream("bad-g"))
    with pytest.raises(ParameterError, match="above the cap of 2\\^32"):
        countsketch_params(29, 8)
    with pytest.raises(ParameterError, match="must be an integer"):  # not 2^5.5 groups
        countsketch_params(1.5, 100)
    for reps, group_count in ((1, 4.0), (3.0, 4)):  # integral floats raise too
        with pytest.raises(ParameterError, match="must be an integer"):
            countsketch_plan(8, reps, group_count, stream("bad-g"))
    assert countsketch_params(28, 8) == (11, 2**32)


def test_countsketch_rejects_even_reps():
    oracle = MeasurementOracle(np.zeros(4))
    with pytest.raises(ParameterError):
        countsketch(oracle, 4, 8, stream("even"))


def test_countsketch_params_examples():
    assert countsketch_params(2, 1024) == (33, 64)
    assert countsketch_params(0, 2) == (5, 16)
    assert countsketch_params(1, 4) == (9, 32)


def test_countsketch_round_estimates_are_unbiased():
    m, trials, i = 64, 10_000, 7
    gen = stream("cs-unb-x").generator
    x = gen.standard_normal(m)
    x /= lp_norm(x, 1)
    rng = stream("cs-unb")
    values = np.empty(trials)
    for t in range(trials):
        plan = countsketch_plan(m, 1, 16, rng)
        est = countsketch_estimates(MeasurementOracle(x), plan)
        values[t] = est[i, 0]
    sem = values.std(ddof=1) / math.sqrt(trials)
    assert abs(values.mean() - x[i]) <= 3 * sem + 1e-12


def test_countsketch_per_coordinate_median_guarantee():
    # P(|Z_i - x_i| > k^(-1/p)) <= (1/2) (8k / G)^(R/2) for G > 8k
    m, reps, groups, trials, k = 16, 5, 32, 10_000, 2
    x = np.zeros(m)
    x[2] = 0.5
    x[11] = -0.5
    threshold = k ** (-1.0)
    bound = 0.5 * (8 * k / groups) ** (reps / 2)
    rng = stream("cs-med")
    bad = 0
    for _ in range(trials):
        out = countsketch(MeasurementOracle(x), reps, groups, rng)
        bad += abs(out[2] - x[2]) > threshold
    assert bad / trials <= bound + 3 * math.sqrt(bound / trials)


def test_countsketch_uniform_error_bound():
    # mean l_inf error <= 4 * 2^(-L/p) with the standard parameterization
    m, level, trials = 2**8, 2, 300
    reps, groups = countsketch_params(level, m)
    gen = stream("cs-sup-x").generator
    rng = stream("cs-sup")
    errs = []
    for _ in range(trials):
        x = np.zeros(m)
        x[gen.choice(m, size=8, replace=False)] = np.where(
            gen.random(8) < 0.5, -1.0, 1.0) / 8
        out = countsketch(MeasurementOracle(x), reps, groups, rng)
        errs.append(lp_norm(x - out, math.inf))
    assert np.mean(errs) <= 4 * 2.0**-level


def test_countsketch_non_adaptive_replay():
    # the full functional list is fixed by (stream, parameters) before any
    # measurement; replaying it one functional at a time reproduces the run
    m, reps, groups = 24, 3, 4
    gen = stream("rep-x").generator
    x = gen.standard_normal(m)
    plan = countsketch_plan(m, reps, groups, stream("rep"))
    oracle = MeasurementOracle(x)
    est = countsketch_estimates(oracle, plan)
    assert oracle.cost == reps * groups

    replay = MeasurementOracle(x)
    for r in range(reps):
        round_groups, round_signs = plan.round(r)
        for g in range(groups):
            members = np.flatnonzero(round_groups == g)
            value = replay.measure_rows(members, round_signs[members][None], stage="t")[0]
            mask = round_groups == g
            est_rg = round_signs[mask] * value
            assert np.allclose(est[mask, r], est_rg, rtol=1e-12, atol=1e-14)
    assert replay.cost == oracle.cost


# -- denoising ----------------------------------------------------------------

def test_keep_largest_ties_break_to_smaller_index():
    z = np.array([1.0, -1.0, 1.0, 0.5])
    assert np.array_equal(keep_largest(z, 2), [1.0, -1.0, 0.0, 0.0])
    assert np.array_equal(keep_largest(z, 3), [1.0, -1.0, 1.0, 0.0])
    with pytest.raises(ParameterError, match="must be an integer"):
        keep_largest(z, 1.5)


# ties, signed zeros, infinities and NaN, drawn often enough to collide
_TOP_K_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, math.inf, -math.inf, math.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(z=st.one_of(st.lists(_TOP_K_VALUES, min_size=1, max_size=40),
                   st.builds(lambda v, n: [v] * n, _TOP_K_VALUES, st.integers(1, 40))),
       k=st.integers(0, 43))
def test_keep_largest_is_the_stable_argsort_top_k(z, k):
    # by bytes, so which of several ±0.0 entries are kept shows
    z = np.array(z)
    m = z.size
    for kk in (0, 1, m - 1, m, m + 3, k):
        expected = np.zeros(m)
        keep = np.argsort(-np.abs(z), kind="stable")[:kk]
        expected[keep] = z[keep]
        assert keep_largest(z, kk).tobytes() == expected.tobytes(), (z, kk)


def test_keep_largest_preserves_values_and_sparsity():
    gen = stream("top-x").generator
    for _ in range(25):
        z = gen.standard_normal(40)
        k = int(gen.integers(0, 45))
        out = keep_largest(z, k)
        nz = np.flatnonzero(out)
        assert nz.size <= k
        assert np.array_equal(out[nz], z[nz])


def test_every_k_sparse_output_errs_on_the_equal_mass_vector():
    # brute force: on a vector with 2k+1 equal entries, any k-sparse w has
    # ||w - x||_q >= ((k+1) (2k+1)^(-q/p))^(1/q)
    from itertools import combinations

    p = 1.0
    for q in (2.0, 3.0):
        for k in (1, 2, 3):
            m = 2 * k + 3
            x = np.zeros(m)
            x[: 2 * k + 1] = (2 * k + 1) ** (-1 / p)
            floor_bound = ((k + 1) * (2 * k + 1) ** (-q / p)) ** (1 / q)
            best = math.inf
            for support in combinations(range(m), k):
                # the optimal w on a fixed support matches x there exactly
                w = np.zeros(m)
                w[list(support)] = x[list(support)]
                best = min(best, lp_norm(x - w, q))
            assert best >= floor_bound * (1 - 1e-12)
    # the k = 2, q = 2 case has the closed-form value sqrt(3/25)
    assert ((2 + 1) * 5 ** (-2.0)) ** 0.5 == pytest.approx(math.sqrt(3 / 25))


def test_denoised_countsketch_basics():
    m, level = 2**8, 3
    oracle = MeasurementOracle(np.zeros(m))
    assert np.array_equal(denoised_countsketch(oracle, level, stream("dz")),
                          np.zeros(m))
    gen = stream("dc-x").generator
    rng = stream("dc")
    for _ in range(10):
        x = gen.standard_normal(m) * (gen.random(m) < 0.05)
        x /= max(1.0, lp_norm(x, 1))
        out = denoised_countsketch(MeasurementOracle(x), level, rng)
        assert np.count_nonzero(out) <= 2**level


def test_denoised_countsketch_error_bound():
    # l_q error <= (1 + 5*4) * eps^(1 - p/q) with eps = 2^(-L/p); denoising
    # also cannot spoil the sup-norm guarantee beyond (1 + 2*4) * eps
    m, level, trials = 2**10, 3, 200
    bound = 21 * (2.0**-level) ** (1 - 1 / 2)
    sup_bound = 9 * 2.0**-level
    gen = stream("dce-x").generator
    rng = stream("dce")
    errs = []
    sup_errs = []
    for _ in range(trials):
        x = np.zeros(m)
        x[gen.choice(m, size=2**level + 1, replace=False)] = 1.0 / (2**level + 1)
        out = denoised_countsketch(MeasurementOracle(x), level, rng)
        errs.append(lp_norm(x - out, 2))
        sup_errs.append(lp_norm(x - out, math.inf))
    assert np.mean(errs) <= bound
    assert np.mean(errs) <= 1.0  # never worse than the trivial method here
    assert np.mean(sup_errs) <= sup_bound + 3 * np.std(sup_errs) / math.sqrt(trials)


def test_denoised_linsketch_zero_fallback():
    # n below m^(1-2/p) log m means k = 0: the sketch itself refuses to run,
    # and the budgeted method resolves to the zero method, cap 0
    m, n = 256, 3
    assert linsketch_keep_count(m, n, 2) == 0 < linsketch_keep_count(m, 6, 2)
    oracle = MeasurementOracle(np.ones(m) / math.sqrt(m))
    with pytest.raises(ParameterError, match="keep no entry"):
        denoised_linsketch(oracle, n, 2, stream("dl0"))
    assert oracle.cost == 0
    method = make_method("linsketch_denoised", m, 2.0, 3.0, budget=n)
    assert method.cap == 0
    out = method.run(oracle, stream("dl0"))
    assert np.array_equal(out, np.zeros(m))
    assert oracle.cost == 0


def test_denoised_linsketch_sparsity_and_error():
    m, n, trials = 256, 4096, 100
    k_cap = math.floor(n / math.log(m))
    eps = math.sqrt(math.log(m) / n)  # p = 2: m^(1-2/p) = 1
    bound = (1 + 5 * 2 * math.sqrt(2)) * eps ** (1 - 2 / 4)
    gen = stream("dl-x").generator
    rng = stream("dl")
    errs = []
    for _ in range(trials):
        x = np.zeros(m)
        x[gen.choice(m, size=4, replace=False)] = 0.5
        oracle = MeasurementOracle(x)
        out = denoised_linsketch(oracle, n, 2, rng)
        assert oracle.cost == n
        assert np.count_nonzero(out) <= min(k_cap, m)
        errs.append(lp_norm(x - out, 4))
    assert np.mean(errs) <= bound


def test_denoised_linsketch_rejects_bad_pq():
    # make_method checks the denoised baselines' domain at every budget,
    # including those that resolve to the zero method
    for name in ("linsketch_denoised", "countsketch_denoised"):
        for p, q in ((2, 2), (3, 2), (0.5, 2), (1, math.inf)):
            for budget in (0, 4, 5000):
                with pytest.raises(ParameterError):
                    make_method(name, 8, p, q, budget=budget)
