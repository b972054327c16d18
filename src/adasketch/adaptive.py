"""The multi-sensitivity recovery algorithm.

The algorithm runs ``reps`` independent detection passes at each of
``levels`` sensitivity levels eps_l = 2^(-l / min(2, p)), unions every
detected coordinate into one candidate set K, reads the entries on K
directly, and outputs the vector that agrees with the hidden one on K and
is zero elsewhere. With reps = ceil(q / min(2, p)) the q-th moment error
on the unit l_p ball decays like 3^(1/q) * 2^(-(1/p' )(1-p/q) L).

Every adaptive decision inside the pipeline depends only on ratios and
signs of measurements, so with coupled randomness the whole algorithm is
homogeneous: scaling the hidden vector scales the output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .discover import (
    PRECONDITIONED,
    VARIANTS,
    DiscoverConfig,
    discover,
    discover_cost_cap,
)
from .errors import DimensionError, ParameterError
from .oracle import MeasurementOracle
from .rng import RngStream


def _check_pq(p: float, q: float):
    if not (1.0 <= p < q < math.inf):
        raise ParameterError("need 1 <= p < q < inf")


def repetitions(p: float, q: float) -> int:
    """Default passes per level: ceil(q / min(2, p))."""
    _check_pq(p, q)
    return math.ceil(q / min(2.0, p))


def repetitions_for_confidence(base_reps: int, delta: float) -> int:
    """Scale the per-level passes to push the failure probability below delta."""
    if base_reps < 1:
        raise ParameterError("base_reps must be >= 1")
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    return base_reps * max(1, math.ceil(math.log2(1.0 / delta)))


def level_sensitivity(level: int, p: float) -> float:
    """Magnitude threshold targeted by level ``level``: 2^(-level / min(2, p))."""
    if level < 1:
        raise ParameterError("level must be >= 1")
    return 2.0 ** (-level / min(2.0, float(p)))


def levels_for_accuracy(eps: float, p: float, q: float) -> int:
    """Smallest level count whose q-moment error bound is at most eps."""
    _check_pq(p, q)
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
        _check_pq(self.p, self.q)
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
                      variant: str = PRECONDITIONED) -> int:
    """Largest level count whose worst-case cost cap fits the budget.

    Exact search: level counts are tried upward while the closed-form cap
    stays within ``budget``. Once a level's buckets saturate at m, every
    deeper level does too and adds the same detection cost (the reads are
    already capped at m), so the rest of the count is one division. Zero
    means the zero algorithm (no measurements, output 0).
    """
    _check_pq(p, q)
    if budget < 0:
        raise ParameterError("budget must be >= 0")
    reps = repetitions(p, q)
    levels = 0
    while True:
        plan = AdaptivePlan(m=m, p=p, q=q, levels=levels + 1, reps=reps, variant=variant)
        cap = plan_cost_cap(plan)
        if cap > budget:
            return levels
        levels += 1
        deepest = plan.configs[-1]
        if deepest.buckets == m:
            levels += (budget - cap) // (reps * discover_cost_cap(deepest))
            if level_sensitivity(levels, p) == 0.0:
                raise ParameterError(
                    f"budget {budget} affords {levels} levels, beyond the smallest "
                    "positive sensitivity a float can hold")
            return levels


def approximate(oracle: MeasurementOracle, plan: AdaptivePlan, rng: RngStream) -> np.ndarray:
    """Run the full multi-sensitivity algorithm and return the recovered vector."""
    if oracle.dimension != plan.m:
        raise DimensionError("oracle dimension does not match the plan")
    pieces = []
    for level, cfg in enumerate(plan.configs, start=1):
        for rep in range(1, plan.reps + 1):
            found = discover(oracle, cfg, rng.child(f"discover-l{level}-r{rep}"))
            if found.size:
                pieces.append(found)
    out = np.zeros(plan.m)
    if pieces:
        candidates = np.unique(np.concatenate(pieces))
        out[candidates] = oracle.read_entries(candidates, stage="reads")
    return out
