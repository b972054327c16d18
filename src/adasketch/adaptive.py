"""The multi-sensitivity recovery algorithm.

The algorithm runs ``reps`` independent detection passes at each of
``levels`` sensitivity levels eps_l = 2^(-l / min(2, p)), unions every
detected coordinate into one candidate set K, reads the entries on K
directly, and outputs the vector that agrees with the hidden one on K and
is zero elsewhere, as an ``oracle.SparseVector`` of K and its reads. With
reps = ceil(q / min(2, p)) the q-th moment error on the unit l_p ball
decays like 3^(1/q) * 2^(-(1/p' )(1-p/q) L).

The passes are independent and each takes its sign measurements before its
adaptive ``spot`` stage, so ``discover.candidate_sets``, which owns the
batch, sign-filters the preconditioned passes in plan order, one grouped
measurement per batch. Only the order of oracle calls across passes differs
from a pass-by-pass run; outputs, costs and streams are the same.

Every adaptive decision inside the pipeline depends only on ratios and
signs of measurements, so with coupled randomness the whole algorithm is
homogeneous: scaling the hidden vector scales the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .discover import (
    PRECONDITIONED,
    VARIANTS,
    DiscoverConfig,
    candidate_sets,
    discover,
    discover_cost_cap,
)
from .errors import DimensionError, ParameterError
from .hashing import sorted_union
from .oracle import MeasurementOracle, SparseVector, as_count
from .rng import RngStream


def check_pq(p: float, q: float):
    """Reject (p, q) outside the paper's domain 1 <= p < q < inf."""
    if not (1.0 <= p < q < math.inf):
        raise ParameterError("need 1 <= p < q < inf")


def repetitions(p: float, q: float) -> int:
    """Default passes per level: ceil(q / min(2, p))."""
    check_pq(p, q)
    return math.ceil(q / min(2.0, p))


def level_sensitivity(level: int, p: float) -> float:
    """Magnitude threshold targeted by level ``level``: 2^(-level / min(2, p))."""
    if level < 1:
        raise ParameterError("level must be >= 1")
    return 2.0 ** (-level / min(2.0, float(p)))


def levels_for_accuracy(eps: float, p: float, q: float) -> int:
    """Smallest level count whose q-moment error bound is at most eps."""
    check_pq(p, q)
    if not 0.0 < eps < 1.0:
        raise ParameterError("eps must lie in (0, 1)")
    pp = min(2.0, p)
    value = math.log2(3.0 ** (1.0 / q) / eps) / ((1.0 / pp) * (1.0 - p / q))
    return max(1, math.ceil(value))


@dataclass(frozen=True)
class AdaptivePlan:
    """Levels, repetitions and derived per-level parameters of one run."""

    m: int
    p: float
    q: float
    levels: int
    reps: int
    variant: str = PRECONDITIONED

    def __post_init__(self):
        check_pq(self.p, self.q)
        for name in ("m", "levels", "reps"):
            as_count(getattr(self, name), name)
        if self.m < 1:
            raise ParameterError("m must be >= 1")
        if self.levels < 0:
            raise ParameterError("levels must be >= 0")
        if self.reps < 1:
            raise ParameterError("reps must be >= 1")
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown variant {self.variant!r}")

    @cached_property
    def configs(self) -> tuple:
        """One detection-pass configuration per level 1..levels."""
        return tuple(
            DiscoverConfig.for_sensitivity(self.p, level_sensitivity(level, self.p),
                                           self.m, self.variant)
            for level in range(1, self.levels + 1)
        )

    def error_bound(self) -> float:
        """The q-moment accuracy guarantee 3^(1/q) * 2^(-(1/p')(1-p/q) L)."""
        pp = min(2.0, self.p)
        return 3.0 ** (1.0 / self.q) * 2.0 ** (
            -(self.levels / pp) * (1.0 - self.p / self.q)
        )


def plan_cost_cap(plan: AdaptivePlan) -> int:
    """Closed-form worst-case cost: all detection passes plus all direct reads."""
    detect = sum(plan.reps * discover_cost_cap(cfg) for cfg in plan.configs)
    reads = min(plan.m, sum(plan.reps * cfg.buckets for cfg in plan.configs))
    return detect + reads


def levels_for_budget(budget: int, m: int, p: float, q: float,
                      variant: str = PRECONDITIONED, reps: int | None = None) -> int:
    """Largest level count, at ``reps`` passes per level (default
    ``repetitions(p, q)``), whose cost cap fits the budget, stopping at the
    first level whose m buckets are all singletons. A singleton survives
    either variant's pass, so that level recovers x exactly and deeper ones
    add cost, not accuracy. Buckets grow like 2^level, so the search tries
    about log2(m) + 1 counts at most. Zero means the zero algorithm.
    """
    check_pq(p, q)
    if budget < 0:
        raise ParameterError("budget must be >= 0")
    reps = repetitions(p, q) if reps is None else reps
    levels = 0
    while True:
        plan = AdaptivePlan(m=m, p=p, q=q, levels=levels + 1, reps=reps, variant=variant)
        if plan_cost_cap(plan) > budget:
            return levels
        levels += 1
        if plan.configs[-1].buckets == m:
            return levels


def approximate(oracle: MeasurementOracle, plan: AdaptivePlan, rng: RngStream) -> SparseVector:
    """Run the full multi-sensitivity algorithm and return the recovered vector:
    the sorted candidates and their reads, which may include zeros."""
    if oracle.dimension != plan.m:
        raise DimensionError("oracle dimension does not match the plan")
    passes = [(cfg, rng.child(f"discover-l{level}-r{rep}"))
              for level, cfg in enumerate(plan.configs, start=1)
              for rep in range(1, plan.reps + 1)]
    pieces = []
    for (cfg, pass_rng), sets in zip(passes, candidate_sets(oracle, passes)):
        found = discover(oracle, cfg, pass_rng, sets)
        if found.size:
            pieces.append(found)
    if not pieces:  # no candidate, so no read and no ``reads`` entry in the ledger
        return SparseVector(plan.m, [], [])
    candidates = sorted_union(pieces)  # passes can repeat a coordinate
    return SparseVector(plan.m, candidates, oracle.read_entries(candidates, stage="reads"))
