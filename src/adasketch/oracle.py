"""Hidden-vector container with linear-only access and exact cost accounting.

Algorithms never touch the hidden vector directly: they submit linear
functionals to a :class:`MeasurementOracle` and get back exact inner
products, each evaluation incrementing the information-cost counter by
exactly one. A functional is a support plus one coefficient row; the entry
points (`measure_rows`, `measure_segments`, `measure_partition`,
`read_entries`, `charge`) take several functionals per call and charge one
unit apiece, which keeps Monte Carlo experiments fast without changing the
cost model.

An oracle instance is single-writer (its counter mutates per call); use one
oracle per concurrent unit. The pure helper `lp_norm` is safe from any
thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_array

from .errors import DimensionError, ParameterError


def as_vector(entries) -> np.ndarray:
    """Validate and return a 1-d float64 vector (finite entries, length >= 1)."""
    v = np.asarray(entries, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DimensionError("a vector must be one-dimensional with length >= 1")
    if not np.all(np.isfinite(v)):
        raise ParameterError("vector entries must be finite")
    return v


def lp_norm(v, p) -> float:
    """The classical l_p norm for p in [1, inf]; p = inf gives max |v_i|."""
    v = np.asarray(v, dtype=np.float64)
    if p == math.inf:
        return float(np.max(np.abs(v))) if v.size else 0.0
    p = float(p)
    if p < 1.0:
        raise ParameterError(f"norm index must satisfy p >= 1, got {p}")
    a = np.abs(v)
    top = float(a.max()) if a.size else 0.0
    if top == 0.0:
        return 0.0
    # scale by the max entry so large p never overflows
    return top * float(np.sum((a / top) ** p)) ** (1.0 / p)


def _as_index_array(indices, m: int) -> np.ndarray:
    idx = np.asarray(indices, dtype=np.intp).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= m):
        raise DimensionError(f"coordinate indices must lie in [0, {m})")
    return idx


@dataclass
class _CostLedger:
    total: int = 0
    by_stage: dict = field(default_factory=dict)

    def add(self, count: int, stage):
        self.total += count
        if stage is not None:
            self.by_stage[stage] = self.by_stage.get(stage, 0) + count


class MeasurementOracle:
    """Answers linear-functional evaluations on a hidden vector, counting each.

    The counter increases by exactly one per evaluated functional, never
    decreases, and changes in no other way. Optional ``stage`` labels feed
    the per-stage cost breakdown used by audits.
    """

    def __init__(self, hidden):
        self._hidden = as_vector(hidden).copy()
        self._hidden.setflags(write=False)
        self._ledger = _CostLedger()
        self._nonzero = None

    @property
    def dimension(self) -> int:
        return self._hidden.size

    @property
    def cost(self) -> int:
        return self._ledger.total

    def stage_costs(self) -> dict:
        return dict(self._ledger.by_stage)

    # -- measurement entry points -------------------------------------------

    def measure_rows(self, support, rows, stage=None) -> np.ndarray:
        """Evaluate each row of ``rows`` as a functional on ``support``; cost += #rows."""
        sup = _as_index_array(support, self.dimension)
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != sup.size:
            raise DimensionError("rows must be (count, len(support))")
        self._ledger.add(rows.shape[0], stage)
        return rows @ self._hidden[sup]

    def measure_segments(self, support, rows, starts, stage=None) -> np.ndarray:
        """Evaluate every row of ``rows`` on each segment of ``support`` separately.

        Segment s is ``support[starts[s]:starts[s+1]]`` together with the
        matching columns of ``rows``; ``starts`` runs from 0 to
        len(support). Returns a (#rows, #segments) array;
        cost += #rows * #segments. Several segments take one sparse
        block-diagonal product; pass ``rows`` as the transpose of a
        C-contiguous (len(support), #rows) array to avoid a copy.
        """
        sup = _as_index_array(support, self.dimension)
        rows = np.asarray(rows, dtype=np.float64)
        starts = np.asarray(starts, dtype=np.intp)
        if rows.ndim != 2 or rows.shape[1] != sup.size:
            raise DimensionError("rows must be (count, len(support))")
        if (starts.ndim != 1 or starts.size < 2 or starts[0] != 0
                or starts[-1] != sup.size or np.any(np.diff(starts) < 0)):
            raise DimensionError("segment starts must rise from 0 to len(support)")
        segments = starts.size - 1
        self._ledger.add(rows.shape[0] * segments, stage)
        if segments == 1:
            return (rows @ self._hidden[sup])[:, None]
        blocks = csr_array((self._hidden[sup], np.arange(sup.size), starts),
                           shape=(segments, sup.size))
        return (blocks @ rows.T).T

    def measure_partition(self, groups, weights, group_count, stage=None) -> np.ndarray:
        """Evaluate ``group_count`` disjoint-support functionals in one pass.

        ``groups`` assigns each coordinate a group id in [0, group_count);
        ``weights`` is its coefficient. Returns the per-group sums;
        cost += group_count.
        """
        groups = np.asarray(groups)
        weights = np.asarray(weights, dtype=np.float64)
        if groups.shape != (self.dimension,) or weights.shape != (self.dimension,):
            raise DimensionError("groups and weights must cover every coordinate")
        group_count = int(group_count)
        if group_count < 1 or groups.min() < 0 or groups.max() >= group_count:
            raise ParameterError("group ids must lie in [0, group_count)")
        self._ledger.add(group_count, stage)
        return np.bincount(groups, weights=weights * self._hidden, minlength=group_count)

    def read_entries(self, indices, stage=None) -> np.ndarray:
        idx = _as_index_array(indices, self.dimension)
        self._ledger.add(idx.size, stage)
        return self._hidden[idx].copy()

    def charge(self, count: int, stage=None):
        """Count ``count`` evaluations whose values are deterministically known.

        Used when a whole block of functionals is supported on coordinates
        that are provably zero (every value is 0.0); the cost model stays
        exact without doing the arithmetic.
        """
        count = int(count)
        if count < 0:
            raise ParameterError("charge count must be non-negative")
        self._ledger.add(count, stage)

    # -- simulation affordances (free: no information cost) ------------------

    def nonzero_indices(self) -> np.ndarray:
        """Sorted indices of nonzero hidden entries.

        Simulation affordance for distribution-exact fast paths; it does not
        count toward the information cost and is never used to alter the
        distribution of any algorithm's output.
        """
        if self._nonzero is None:
            self._nonzero = np.flatnonzero(self._hidden)
            self._nonzero.setflags(write=False)
        return self._nonzero
