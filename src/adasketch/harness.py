"""Experiment driver: Monte Carlo error estimation, cost audits, parameter
tables, and CSV comparisons of adaptive vs non-adaptive methods.

Each trial draws a fresh vector from the family (a stream derived only from
seed, family and trial index, so different methods see identical inputs),
runs the method against a fresh oracle, and records the l_q error and the
measured cost. Every trial hard-asserts the measured cost against the
method's closed-form cap. Identical configurations (including the seed)
produce byte-identical CSV output.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import adaptive, nonadaptive
from .discover import PRECONDITIONED, VARIANTS
from .errors import CapViolationError, ParameterError
from .families import VectorFamily, gen_vector
from .oracle import MeasurementOracle, lp_norm
from .rng import RngStream

CSV_COLUMNS = [
    "method", "variant", "m", "p", "q", "budget", "L", "R", "family",
    "trials", "mean_err", "qmoment_err", "ci", "mean_cost", "max_cost", "seed",
]

PARAM_COLUMNS = [
    "mode", "value", "L", "R", "variant", "cost_cap", "error_bound", "buckets_per_level",
]

METHOD_NAMES = (
    "zero", "read_all", "adaptive", "linsketch", "linsketch_denoised",
    "countsketch", "countsketch_denoised",
)


@dataclass(frozen=True)
class Method:
    """A runnable method plus its declared worst-case cost cap."""

    name: str
    cap: int
    runner: callable
    variant: str = ""
    levels: int | None = None
    reps: int | None = None

    def run(self, oracle: MeasurementOracle, rng: RngStream) -> np.ndarray:
        return self.runner(oracle, rng)


def _countsketch_level_for_budget(budget: int, m: int) -> int | None:
    """Largest level with reps * groups <= budget, or None if even level 0 misses.

    The rounds do not depend on the level and groups = 2^(4+level), so the
    level is floor(log2(budget // reps)) - 4.
    """
    reps, _ = nonadaptive.countsketch_params(0, m)
    level = (budget // reps).bit_length() - 5
    return level if level >= 0 else None


def _zero(oracle: MeasurementOracle, rng: RngStream) -> np.ndarray:
    return np.zeros(oracle.dimension)


def make_method(name: str, m: int, p: float, q: float, budget: int | None = None,
                levels: int | None = None, reps: int | None = None,
                variant: str = PRECONDITIONED) -> Method:
    """Resolve a method name plus budget/level knobs into a runnable Method.

    A given budget bounds the resolved cap; a knob the method does not read is an error.
    """
    if name not in METHOD_NAMES:
        raise ParameterError(f"unknown method {name!r}")
    if variant not in VARIANTS:
        raise ParameterError(f"unknown variant {variant!r}")
    if budget is not None and budget < 0:
        raise ParameterError("budget must be >= 0")
    if levels is not None and name not in ("adaptive", "countsketch", "countsketch_denoised"):
        raise ParameterError(f"{name} does not read levels")
    if reps is not None and name != "adaptive":
        raise ParameterError(f"{name} does not read reps")
    if name.endswith("_denoised"):
        adaptive.check_pq(p, q)
    method = _resolve_method(name, m, p, q, budget, levels, reps, variant)
    if budget is not None and method.cap > budget:
        raise ParameterError(f"{name}: cost cap {method.cap} exceeds budget {budget}")
    return method


def _resolve_method(name, m, p, q, budget, levels, reps, variant) -> Method:
    if name == "zero":
        return Method("zero", 0, _zero)
    if name == "read_all":
        def run_read_all(oracle, rng):
            return oracle.read_entries(np.arange(oracle.dimension), stage="reads")
        return Method("read_all", m, run_read_all)

    if name == "adaptive":
        if levels is None:
            if budget is None:
                raise ParameterError("adaptive needs --L or --budget")
            levels = adaptive.levels_for_budget(budget, m, p, q, variant)
        use_reps = reps if reps is not None else adaptive.repetitions(p, q)
        plan = adaptive.AdaptivePlan(m=m, p=p, q=q, levels=levels,
                                     reps=use_reps, variant=variant)
        return Method(
            "adaptive", adaptive.plan_cost_cap(plan),
            lambda oracle, rng: adaptive.approximate(oracle, plan, rng),
            variant=variant, levels=plan.levels, reps=plan.reps,
        )

    if name in ("linsketch", "linsketch_denoised"):
        if budget is None:
            raise ParameterError(f"{name} needs --budget")
        if budget == 0:
            return Method(name, 0, _zero)
        if name == "linsketch":
            runner = lambda oracle, rng: nonadaptive.linsketch(oracle, budget, rng)
        else:
            runner = lambda oracle, rng: nonadaptive.denoised_linsketch(
                oracle, budget, p, rng)
        return Method(name, budget, runner)

    # countsketch variants: largest level whose round cost fits the budget
    if levels is None:
        if budget is None:
            raise ParameterError("countsketch needs --L or --budget")
        levels = _countsketch_level_for_budget(budget, m)
        if levels is None:
            return Method(name, 0, _zero)
    cs_reps, cs_groups = nonadaptive.countsketch_params(levels, m)
    if name == "countsketch":
        runner = lambda oracle, rng: nonadaptive.countsketch(
            oracle, cs_reps, cs_groups, rng)
    else:
        runner = lambda oracle, rng: nonadaptive.denoised_countsketch(
            oracle, levels, rng)
    return Method(name, cs_reps * cs_groups, runner, levels=levels, reps=cs_reps)


@dataclass(frozen=True)
class ExperimentConfig:
    method: Method
    family: VectorFamily
    m: int
    q: float
    trials: int
    seed: int

    def __post_init__(self):
        if self.trials < 1:
            raise ParameterError("trials must be >= 1")
        if not self.q > 1.0:
            raise ParameterError("q must exceed 1")


@dataclass
class ErrorEstimate:
    mean_err: float
    qmoment_err: float
    ci: float            # 95% normal-approximation half width of the mean error
    mean_cost: float
    max_cost: int
    stage_costs: dict = field(default_factory=dict)


def _trial_streams(seed: int, family: VectorFamily, method_name: str, t: int):
    trial = RngStream(seed).child_at("trial", t)
    return (trial.child(f"vector-{family.label()}"),
            trial.child(f"method-{method_name}"))


def _trials(cfg: ExperimentConfig):
    """Run the trials of ``cfg`` in order, yielding each one's l_q error and oracle."""
    for t in range(cfg.trials):
        vec_rng, method_rng = _trial_streams(cfg.seed, cfg.family,
                                             cfg.method.name, t)
        x = gen_vector(cfg.family, cfg.m, vec_rng)
        oracle = MeasurementOracle(x)
        out = cfg.method.run(oracle, method_rng)
        yield lp_norm(x - out, cfg.q), oracle


def _estimate(cfg: ExperimentConfig) -> ErrorEstimate:
    """Fold the trials of ``cfg`` into one estimate; the cap is not checked."""
    errors, costs, stage_totals = [], [], Counter()
    for error, oracle in _trials(cfg):
        errors.append(error)
        costs.append(oracle.cost)
        stage_totals.update(oracle.stage_costs())
    errors, costs = np.array(errors), np.array(costs, dtype=np.int64)
    qmoment = (float(errors.max()) if cfg.q == math.inf  # the limit of mean(err^q)^(1/q)
               else float(np.mean(errors ** cfg.q) ** (1.0 / cfg.q)))
    spread = float(np.std(errors, ddof=1)) if cfg.trials > 1 else 0.0
    return ErrorEstimate(
        mean_err=float(errors.mean()),
        qmoment_err=qmoment,
        ci=1.96 * spread / math.sqrt(cfg.trials),
        mean_cost=float(costs.mean()),
        max_cost=int(costs.max()),
        stage_costs=dict(stage_totals),
    )


def estimate_error(cfg: ExperimentConfig) -> ErrorEstimate:
    """Monte Carlo l_q error and cost of one method on one family; raises
    :class:`CapViolationError` if any trial cost more than the method's cap."""
    est = _estimate(cfg)
    if est.max_cost > cfg.method.cap:
        raise CapViolationError(
            f"{cfg.method.name}: cost {est.max_cost} exceeds cap {cfg.method.cap}")
    return est


@dataclass
class AuditReport:
    method: Method
    estimate: ErrorEstimate

    @property
    def ok(self) -> bool:
        return self.estimate.max_cost <= self.method.cap

    def lines(self):
        est = self.estimate
        yield f"method {self.method.name}: cap {self.method.cap}, max cost {est.max_cost}, " \
              f"mean cost {est.mean_cost:.2f} -> {'OK' if self.ok else 'CAP VIOLATION'}"
        yield "  hashing: 0 (draws no information)"
        for stage in sorted(est.stage_costs):
            yield f"  {stage}: {est.stage_costs[stage]}"


def cost_audit(cfg: ExperimentConfig) -> AuditReport:
    """Check measured costs against the declared cap; report per-stage totals.

    Unlike :func:`estimate_error` this never raises on a violation: the
    report carries the verdict so callers can surface it (the CLI exits
    nonzero).
    """
    return AuditReport(cfg.method, _estimate(cfg))


def param_table(p: float, q: float, m: int, eps_values=None, budgets=None,
                variant: str = PRECONDITIONED) -> list[dict]:
    """One row of derived parameters per requested accuracy or budget."""
    if (eps_values is None) == (budgets is None):
        raise ParameterError("give exactly one of eps_values or budgets")
    rows = []
    reps = adaptive.repetitions(p, q)
    if eps_values is not None:
        pairs = [("eps", float(e), adaptive.levels_for_accuracy(e, p, q))
                 for e in eps_values]
    else:
        pairs = [("budget", int(n), adaptive.levels_for_budget(n, m, p, q, variant))
                 for n in budgets]
    for mode, value, levels in pairs:
        plan = adaptive.AdaptivePlan(m=m, p=p, q=q, levels=levels, reps=reps,
                                     variant=variant)
        rows.append(dict(zip(PARAM_COLUMNS, (
            mode, value, levels, reps, variant, adaptive.plan_cost_cap(plan),
            plan.error_bound(), "|".join(str(c.buckets) for c in plan.configs)))))
    return rows


_COMPARE_METHODS = (
    ("zero", ""),
    ("adaptive", "basic"),
    ("adaptive", "preconditioned"),
    ("linsketch_denoised", ""),
    ("countsketch_denoised", ""),
)


def estimate_row(method: Method, family: VectorFamily, m: int, p: float, q: float,
                 budget, trials: int, seed: int) -> dict:
    """One CSV row (see ``CSV_COLUMNS``) of the Monte Carlo estimate; ``budget`` may be None."""
    est = estimate_error(ExperimentConfig(method=method, family=family, m=m, q=q,
                                          trials=trials, seed=seed))
    return {
        "method": method.name, "variant": method.variant,
        "m": m, "p": p, "q": q, "budget": "" if budget is None else budget,
        "L": "" if method.levels is None else method.levels,
        "R": "" if method.reps is None else method.reps,
        "family": family.label(), "trials": trials,
        "mean_err": est.mean_err, "qmoment_err": est.qmoment_err, "ci": est.ci,
        "mean_cost": est.mean_cost, "max_cost": est.max_cost, "seed": seed,
    }


def compare_methods(m: int, p: float, q: float, budgets, families, trials: int,
                    seed: int) -> list[dict]:
    """Error/cost rows for every (method, budget, family) combination."""
    rows = []
    for name, variant in _COMPARE_METHODS:
        for budget in map(int, budgets):
            method = make_method(name, m, p, q, budget=budget,
                                 variant=variant or PRECONDITIONED)
            rows.extend(estimate_row(method, family, m, p, q, budget, trials, seed)
                        for family in families)
    return rows


def write_csv(target, rows, columns=None):
    """UTF-8 CSV with a header row and '.' decimal separator.

    ``target`` is a path, or an open text stream such as ``sys.stdout``.
    """
    if not hasattr(target, "write"):
        with open(target, "w", newline="", encoding="utf-8") as handle:
            return write_csv(handle, rows, columns)
    columns = list(columns) if columns is not None else CSV_COLUMNS
    writer = csv.DictWriter(target, fieldnames=columns)
    writer.writeheader()
    for row in rows:
        writer.writerow({key: row.get(key, "") for key in columns})
