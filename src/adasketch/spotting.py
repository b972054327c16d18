"""Isolating a single dominant coordinate inside a candidate set.

``spot`` runs a chain of two-measurement shrinking steps. Each intermediate
step labels the current candidates with one ``pairwise_hash`` draw into the
step's sub-bucket count, measures y1 = <g, x> and y2 = <g * label, x> with
fresh Gaussian weights g, and keeps the sub-bucket whose label the ratio
y2/y1 rounds to: when one coordinate carries almost all the mass of the set,
the ratio concentrates at that coordinate's label. The last step labels the
surviving candidates injectively, so the output has at most one element. A
step budget of ``depth`` intermediate shrinks keeps the cost of one spot
call at most 2 * (depth + 1) measurements. Candidates pass
``oracle.as_index_array`` before any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .hashing import pairwise_hash
from .oracle import MeasurementOracle, as_index_array
from .rng import RngStream

_EMPTY = np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class SpotParams:
    """Failure probability and intermediate-step budget for one spot call."""

    delta2: float
    depth: int

    def __post_init__(self):
        if not 0.0 < self.delta2 < 1.0:
            raise ParameterError("delta2 must lie in (0, 1)")
        if self.depth < 0:
            raise ParameterError("depth must be non-negative")


def shrink_schedule(step: int, delta2: float) -> int:
    """Sub-bucket count used by shrink step ``step``: ceil(2^(8*(9/8)^step + step + 2) / delta2).

    Grows doubly exponentially, and always exceeds 2^(8*(9/8)^step).
    """
    if step < 0:
        raise ParameterError("step must be non-negative")
    if not 0.0 < delta2 < 1.0:
        raise ParameterError("delta2 must lie in (0, 1)")
    return math.ceil(2.0 ** (8.0 * (9.0 / 8.0) ** step + step + 2) / delta2)


def shrink_depth(ratio: float) -> int:
    """Smallest step count whose schedule covers a candidate set of size ceil(ratio)."""
    if ratio < 1:
        raise ParameterError("ratio must be >= 1")
    size = math.ceil(ratio)
    inner = math.log2(size) / 8.0 if size > 1 else 0.0
    if inner <= 1.0:
        return 0
    return max(0, math.ceil(math.log(inner) / math.log(9.0 / 8.0)))


def spot_heavy_hitter_constant(delta2: float) -> float:
    """Dominance factor gamma under which spot succeeds with probability >= 1 - delta2.

    A coordinate j in the candidate set J is found whenever
    ||x_{J \\ {j}}||_2 <= |x_j| / gamma.
    """
    if not 0.0 < delta2 < 1.0:
        raise ParameterError("delta2 must lie in (0, 1)")
    return (1.0 / delta2) * 1025.0 * math.sqrt(2.0 * math.log(16.0 / delta2))


def _round_half_away(x: float) -> int:
    return int(math.floor(abs(x) + 0.5)) * (1 if x >= 0 else -1)


def shrink(oracle: MeasurementOracle, indices, labels, label_count: int,
           rng: RngStream) -> np.ndarray:
    """One shrinking step: two measurements, then keep the indicated sub-bucket.

    ``labels`` assigns each candidate a value in [1, label_count]. Returns
    the empty set when the first measurement vanishes or the rounded ratio
    falls outside [1, label_count]. Exactly 2 measurements unless
    ``indices`` is empty (then none).
    """
    idx = as_index_array(indices, oracle.dimension)
    if idx.size == 0:
        return _EMPTY
    labels = np.asarray(labels, dtype=np.float64)
    g = rng.generator.standard_normal(idx.size)
    y = oracle.measure_rows(idx, np.vstack([g, g * labels]), stage="spot")
    if y[0] == 0.0:
        return _EMPTY
    ratio = y[1] / y[0]
    if not math.isfinite(ratio):
        return _EMPTY
    r = _round_half_away(ratio)
    if r < 1 or r > label_count:
        return _EMPTY
    return idx[labels == r]


def spot(oracle: MeasurementOracle, candidates, params: SpotParams,
         rng: RngStream) -> np.ndarray:
    """Return at most one candidate from ``candidates`` (empty set on failure).

    Sets of size <= 1 are returned immediately at zero cost. Otherwise each
    intermediate step labels the current set with one ``pairwise_hash`` draw
    into the step's scheduled sub-bucket count and shrinks; the final
    step enumerates the survivors injectively. If survivors still outnumber
    the final schedule slot (possible only when the caller's set exceeds the
    depth's design size), the attempt counts as a failure.
    """
    current = as_index_array(candidates, oracle.dimension)
    if current.size <= 1:
        return current.copy()
    for step in range(params.depth):
        label_count = shrink_schedule(step, params.delta2)
        labels = pairwise_hash(current, oracle.dimension, label_count, rng)
        current = shrink(oracle, current, labels, label_count, rng)
        if current.size <= 1:
            return current
    if current.size > shrink_schedule(params.depth, params.delta2):
        return _EMPTY
    return shrink(oracle, current, np.arange(1, current.size + 1), current.size, rng)


def spot_cost_cap(params: SpotParams) -> int:
    """Hard upper bound on the oracle cost of one spot call."""
    return 2 * (params.depth + 1)
