"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time
from contextlib import contextmanager
from itertools import combinations

import numpy as np

from adasketch.adaptive import AdaptivePlan, approximate, levels_for_budget
from adasketch.discover import (
    PRECONDITIONED,
    DiscoverConfig,
    bucket_count,
    discover,
    discover_cost_cap,
)
from adasketch.families import VectorFamily
from adasketch.harness import ExperimentConfig, estimate_error, make_method
from adasketch.hashing import equi_hash
from adasketch.nonadaptive import (
    countsketch,
    countsketch_params,
    denoised_countsketch,
    linsketch,
)
from adasketch.oracle import MeasurementOracle, lp_norm
from adasketch.precondition import precond, precond_measurements
from adasketch.rng import RngStream
from adasketch.spotting import (
    SpotParams,
    shrink_depth,
    spot,
    spot_heavy_hitter_constant,
)

SEED = 987654321


def stream(label):
    return RngStream(SEED).child(label)


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:02d} FAIL: {description}")
        raise
    print(f"criterion {number:02d} PASS ({time.perf_counter() - start:.1f}s): {description}")


def test_criterion_01_parameter_exactness():
    with criterion(1, "closed-form parameter values"):
        gamma = 4100 * math.sqrt(2 * math.log(64))
        assert precond_measurements(gamma, 1 / 5) == 701
        assert 8556.2 <= spot_heavy_hitter_constant(1 / 3) <= 8556.3
        assert 11824.5 <= spot_heavy_hitter_constant(1 / 4) <= 11824.7
        assert bucket_count(2.0, 0.1, 10**7, PRECONDITIONED) == 3000


def test_criterion_02_equi_hash_law():
    # The bucket-size multiset of an equi-hash draw is a deterministic
    # function of (m, D): the value map ceil(s*D/m) on ranks s = 1..m fixes
    # the counts no matter which permutation is drawn. The literal sweep
    # (50 fresh draws for each of the 131,328 pairs) costs ~6x the runtime
    # budget, so the check is split into equivalent parts, each exact and
    # with zero tolerated failures:
    #   (a) every pair (m <= 512, D <= m): 2 fresh draws, per-draw check;
    #   (b) full 50-draw sweeps for every pair with m <= 64 and for 1500
    #       randomly sampled larger pairs.
    with criterion(2, "equi-hash bucket sizes are floor(m/D) or ceil(m/D)"):
        root = stream("equilaw")
        picker = np.random.Generator(np.random.PCG64(2024))

        def check(m, d, draws, pair_rng):
            batch = equi_hash(m, d, pair_rng, draws=draws)
            lo, hi = m // d, -(-m // d)
            flat = batch + np.arange(draws)[:, None] * (d + 1)
            counts = np.bincount(flat.ravel(), minlength=draws * (d + 1))
            counts = counts.reshape(draws, d + 1)[:, 1:]
            assert np.all((counts == lo) | (counts == hi))
            assert counts.sum() == draws * m

        big_pairs = []
        for m in range(1, 513):
            row_rng = root.child_at("m", m)  # draws consumed in d order
            for d in range(1, m + 1):
                check(m, d, 2, row_rng)
                if m <= 64:
                    check(m, d, 50, row_rng)
                else:
                    big_pairs.append((m, d))
        sample_rng = root.child("sample")
        for idx in picker.choice(len(big_pairs), size=1500, replace=False):
            m, d = big_pairs[idx]
            check(m, d, 50, sample_rng)


def test_criterion_03_spot_cost_cap_and_one_sparse_recovery():
    with criterion(3, "spot cost cap 2(depth+1); exact 1-sparse recovery"):
        rng = stream("spotcap")
        gen = stream("spotcap-x").generator
        for run in range(10_000):
            depth = run % 7
            m = int(gen.integers(2, 256))
            x = gen.standard_normal(m) * (gen.random(m) < 0.25)
            oracle = MeasurementOracle(x)
            params = SpotParams(1 / 3 if run % 2 else 1 / 4, depth)
            got = spot(oracle, np.arange(m), params, rng)
            assert got.size <= 1
            assert oracle.cost <= 2 * (depth + 1)

        for run in range(1000):
            m = int(gen.integers(2, 300))
            j = int(gen.integers(0, m))
            x = np.zeros(m)
            x[j] = float(gen.standard_normal() or 1.0)
            oracle = MeasurementOracle(x)
            got = spot(oracle, np.arange(m), SpotParams(1 / 3, shrink_depth(m)), rng)
            assert list(got) == [j]


def test_criterion_04_spot_heavy_hitter_guarantee():
    with criterion(4, "spot succeeds w.p. >= 2/3 - 0.05 at the dominance boundary"):
        m, trials, delta2 = 4096, 10_000, 1 / 3
        gamma = spot_heavy_hitter_constant(delta2)
        gen = stream("spothh-x").generator
        j = 1234
        x = gen.standard_normal(m)
        x[j] = 0.0
        x *= (1.0 / gamma) / lp_norm(x, 2)
        x[j] = 1.0
        params = SpotParams(delta2, shrink_depth(m))
        rng = stream("spothh")
        hits = 0
        for _ in range(trials):
            oracle = MeasurementOracle(x)
            got = spot(oracle, np.arange(m), params, rng)
            hits += got.size == 1 and got[0] == j
        assert hits / trials >= 2 / 3 - 0.05


def test_criterion_05_precond_guarantee():
    with criterion(5, "sign filter keeps sqrt(5)-dominant coordinate and "
                      "upgrades dominance, w.p. >= 0.8 - 0.02"):
        size, trials, k = 1024, 10_000, 701
        gamma = 4100 * math.sqrt(2 * math.log(64))
        assert precond_measurements(gamma, 1 / 5) == k
        gen = stream("pc-x").generator
        j = 17
        x = gen.standard_normal(size)
        x[j] = 0.0
        x *= (1.0 / math.sqrt(5)) / lp_norm(x, 2)
        x[j] = 1.0
        rng = stream("pc")
        good = 0
        for _ in range(trials):
            oracle = MeasurementOracle(x)
            kept = precond(oracle, np.arange(size), k, rng)
            assert oracle.cost == k
            if j in kept:
                rest = kept[kept != j]
                good += lp_norm(x[rest], 2) <= 1.0 / gamma
        assert good / trials >= 0.8 - 0.02


def test_criterion_06_discover_sensitivity():
    with criterion(6, "each quarter-mass spike is detected w.p. >= 0.5 - 0.02 "
                      "within the cost cap"):
        m, trials = 2**14, 10_000
        cfg = DiscoverConfig.for_sensitivity(1.0, 0.25, m, PRECONDITIONED)
        cap = discover_cost_cap(cfg)
        assert cap == cfg.buckets * (703 + 2 * cfg.depth)
        gen = stream("dsc-x").generator
        rng = stream("dsc")
        detected = 0
        for t in range(trials):
            where = gen.choice(m, size=4, replace=False)
            x = np.zeros(m)
            x[where] = 0.25
            oracle = MeasurementOracle(x)
            found = discover(oracle, cfg, rng.child_at("trial", t))
            assert oracle.cost <= cap
            detected += int(np.isin(where, found).sum())
        assert detected / (4 * trials) >= 0.5 - 0.02


def test_criterion_07_adaptive_error_decay():
    with criterion(7, "q-moment error <= 3^(1/q) 2^(-L/2) (+20%) at levels 2, 4, 6"):
        m, trials = 2**16, 2000
        for levels in (2, 4, 6):
            bound = math.sqrt(3.0) * 2.0 ** (-levels / 2)
            method = make_method("adaptive", m, 1.0, 2.0, levels=levels)
            assert method.reps == 2
            families = [
                VectorFamily("spikes", p=1.0, count=1),
                VectorFamily("spikes", p=1.0, count=2 ** (levels // 2)),
                VectorFamily("spikes", p=1.0, count=2**levels),
                VectorFamily("geometric", p=1.0),
            ]
            worst = 0.0
            for family in families:
                cfg = ExperimentConfig(method=method, family=family, m=m,
                                       q=2.0, trials=trials, seed=SEED)
                est = estimate_error(cfg)  # also enforces the cost cap
                worst = max(worst, est.qmoment_err)
            assert worst <= bound * 1.2, (levels, worst, bound)


def test_criterion_08_homogeneity():
    with criterion(8, "coupled runs satisfy A(t x) = t A(x) to 1e-12 relative"):
        m = 2**10
        plan = AdaptivePlan(m=m, p=1.0, q=2.0, levels=2, reps=2)
        gen = stream("hom-x").generator
        for instance in range(100):
            x = gen.standard_normal(m) * (gen.random(m) < 0.05)
            label = f"hom-{instance}"
            base = approximate(MeasurementOracle(x), plan, stream(label))
            for t in (2.0, -3.0, 1e-3):
                scaled = approximate(MeasurementOracle(t * x), plan, stream(label))
                assert np.allclose(scaled, t * base, rtol=1e-12, atol=0.0)


def test_criterion_09_countsketch():
    with criterion(9, "count-sketch parameters, exact cost, and uniform error"):
        m, trials = 2**10, 1000
        for level in (2, 4):
            reps, groups = countsketch_params(level, m)
            assert (reps, groups) == (33, 2 ** (4 + level))
            bound = 4 * 2.0**-level
            for family in (VectorFamily("spikes", p=1.0, count=2**level),
                           VectorFamily("geometric", p=1.0),
                           VectorFamily("spike_plus_tail", p=1.0, count=2)):
                gen_rng = stream(f"cs-x-{level}-{family.label()}")
                rng = stream(f"cs-{level}-{family.label()}")
                errs = np.empty(trials)
                for t in range(trials):
                    from adasketch.families import gen_vector
                    x = gen_vector(family, m, gen_rng.child_at("t", t))
                    oracle = MeasurementOracle(x)
                    out = countsketch(oracle, reps, groups, rng)
                    assert oracle.cost == reps * groups
                    errs[t] = lp_norm(x - out, math.inf)
                assert errs.mean() <= bound, (level, family.label(), errs.mean())


def test_criterion_10_linsketch():
    with criterion(10, "Gaussian sketch sup-norm error and exact linearity"):
        m, n, trials = 16, 128, 1000
        bound = 2 * math.sqrt(2 * math.log(m) / n)
        assert bound <= 0.4163
        gen = stream("ls-x").generator
        rng = stream("ls")
        errs = np.empty(trials)
        for t in range(trials):
            x = np.zeros(m)
            x[int(gen.integers(0, m))] = 1.0  # unit l_2 spike
            oracle = MeasurementOracle(x)
            out = linsketch(oracle, n, rng)
            assert oracle.cost == n
            errs[t] = lp_norm(x - out, math.inf)
        assert errs.mean() <= bound

        x = gen.standard_normal(m)
        z = gen.standard_normal(m)
        out_x = linsketch(MeasurementOracle(x), n, stream("ls-lin"))
        out_z = linsketch(MeasurementOracle(z), n, stream("ls-lin"))
        out_sum = linsketch(MeasurementOracle(x + z), n, stream("ls-lin"))
        assert np.allclose(out_sum, out_x + out_z, rtol=1e-12, atol=1e-12)


def test_criterion_11_denoising_sandwich():
    with criterion(11, "top-k denoising: empirical upper bound and exact lower bound"):
        # upper half: denoised count sketch at p=1, q=2, level 4
        m, level, trials = 2**12, 4, 1000
        eps = 2.0**-level
        bound = (1 + 5 * 4) * eps ** (1 - 1 / 2)
        for family in (VectorFamily("denoise_adversarial", p=1.0, count=2**level),
                       VectorFamily("spikes", p=1.0, count=2**level)):
            gen_rng = stream(f"dn-x-{family.label()}")
            rng = stream(f"dn-{family.label()}")
            errs = np.empty(trials)
            for t in range(trials):
                from adasketch.families import gen_vector
                x = gen_vector(family, m, gen_rng.child_at("t", t))
                out = denoised_countsketch(MeasurementOracle(x), level, 1.0, 2.0, rng)
                assert np.count_nonzero(out) <= 2**level
                errs[t] = lp_norm(x - out, 2.0)
            assert errs.mean() <= bound
            assert errs.mean() <= 1.0  # never worse than the initial error

        # lower half: on the (2k+1)-equal-entry vector every k-sparse output w
        # has ||w - x||_q >= ((k+1)(2k+1)^(-q/p))^(1/q); for a fixed support
        # the best w copies x there, so scanning supports covers all w
        p = 1.0
        for q in (2.0, 3.0):
            for k in (1, 2, 3):
                m_small = 2 * k + 3
                assert m_small <= 9
                x = np.zeros(m_small)
                x[: 2 * k + 1] = (2 * k + 1) ** (-1 / p)
                floor_bound = ((k + 1) * (2 * k + 1) ** (-q / p)) ** (1 / q)
                best = min(
                    lp_norm(x - np.where(np.isin(np.arange(m_small), sup), x, 0.0), q)
                    for sup in map(list, combinations(range(m_small), k))
                )
                assert best >= floor_bound * (1 - 1e-12)


def test_criterion_12_budget_soundness():
    with criterion(12, "budget-derived plans never exceed the budget"):
        gen = stream("budget-pick").generator
        configs = [(2**21, 100_000, 1.0, 2.0), (2**20, 65_536, 1.0, 2.0),
                   (2**20, 48_000, 1.5, 3.0), (2**20, 40_000, 1.0, 3.0),
                   (2**20, 63_000, 2.0, 4.0)]
        while len(configs) < 20:
            m = 2 ** int(gen.integers(10, 18))
            n = int(gen.integers(16, m // 16 + 1))
            p = float(gen.choice([1.0, 1.5, 2.0, 3.0]))
            q = p + float(gen.choice([0.5, 1.0, 2.0]))
            configs.append((m, n, p, q))
        for idx, (m, n, p, q) in enumerate(configs):
            assert m >= 16 * n
            levels = levels_for_budget(n, m, p, q, PRECONDITIONED)
            method = make_method("adaptive", m, p, q, budget=n)
            assert method.levels == levels
            assert method.cap <= n
            family = VectorFamily("spikes", p=p, count=4)
            cfg = ExperimentConfig(method=method, family=family, m=m, q=q,
                                   trials=200, seed=SEED + idx)
            est = estimate_error(cfg)  # raises if any trial exceeds the cap
            assert est.max_cost <= n


def test_criterion_13_reproducibility(tmp_path):
    with criterion(13, "identical compare configurations give byte-identical CSV"):
        from adasketch.cli import main

        args = ["compare", "--m", "256", "--p", "1", "--q", "2",
                "--budget", "0,1500", "--family", "spikes:4,geometric",
                "--trials", "50", "--seed", str(SEED)]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        blob1, blob2 = out1.read_bytes(), out2.read_bytes()
        assert blob1 == blob2
        assert blob1.decode("utf-8").splitlines()[0].startswith("method,variant,m,")
