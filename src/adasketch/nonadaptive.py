"""Non-adaptive baselines: a Gaussian linear sketch, a count sketch, and
top-k denoising.

Non-adaptive means every measurement functional is fixed before the first
evaluation. Both sketches draw their functionals from the stream and the
parameters alone, so they replay without an oracle: the count sketch as a
``CountSketchPlan``, the Gaussian sketch as ``linsketch_matrix``. Each
count-sketch round is one grouped ``measure_rows`` call: its signs are the
one row, its group ids split the coordinates, one functional per group.

The Gaussian-sketch methods (``denoised_linsketch`` here, the harness's
``linsketch``) sample the sketch's output from its exact law through
``MeasurementOracle.gaussian_sketch``, in O(m) and at the same cost n.
``linsketch`` and ``linsketch_matrix`` are the materialized, replayable
reference: the linear method that applies the n x m matrix itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .oracle import MeasurementOracle
from .rng import RngStream, rademacher

_LINSKETCH_BLOCK_ROWS = 128  # fixed so blocked and one-shot draws agree


# -- Gaussian linear sketch ---------------------------------------------------

def _linsketch_blocks(m: int, n: int, rng: RngStream):
    """The n x m Gaussian measurement matrix, drawn row-block by row-block."""
    gen = rng.generator
    for start in range(0, n, _LINSKETCH_BLOCK_ROWS):
        yield gen.standard_normal((min(_LINSKETCH_BLOCK_ROWS, n - start), m))


def linsketch_matrix(m: int, n: int, rng: RngStream) -> np.ndarray:
    """The whole n x m Gaussian measurement matrix that ``linsketch`` applies."""
    return np.vstack([np.empty((0, m)), *_linsketch_blocks(m, n, rng)])


def linsketch(oracle: MeasurementOracle, n: int, rng: RngStream) -> np.ndarray:
    """Output (1/n) N^T N x from n Gaussian measurements (a linear method)."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    m = oracle.dimension
    support = np.arange(m)
    acc = np.zeros(m)
    for rows in _linsketch_blocks(m, n, rng):  # streamed: bounded memory
        y = oracle.measure_rows(support, rows, stage="linsketch")
        acc += y @ rows
    return acc / n


# -- count sketch -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CountSketchPlan:
    """All functionals of a count-sketch run, fixed before any measurement."""

    groups: np.ndarray  # (reps, m) group id of each coordinate per round
    signs: np.ndarray   # (reps, m) ±1 coefficient of each coordinate per round
    group_count: int

    @property
    def reps(self) -> int:
        return self.groups.shape[0]


def countsketch_params(level: int, m: int) -> tuple[int, int]:
    """Rounds and group count for accuracy level ``level``.

    Groups G = 2^(4+level); rounds R = smallest odd number with
    R >= max(5, 2 + 3*log2(m)).
    """
    if level < 0:
        raise ParameterError("level must be >= 0")
    if m < 1:
        raise ParameterError("m must be >= 1")
    reps = max(5, math.ceil(2.0 + 3.0 * math.log2(m)))
    if reps % 2 == 0:
        reps += 1
    return reps, 2 ** (4 + level)


def countsketch_plan(m: int, reps: int, group_count: int, rng: RngStream) -> CountSketchPlan:
    if reps < 1 or reps % 2 == 0:
        raise ParameterError("reps must be odd and >= 1")
    if group_count < 1:
        raise ParameterError("group_count must be >= 1")
    gen = rng.generator
    groups = np.empty((reps, m), dtype=np.int64)
    signs = np.empty((reps, m))
    for r in range(reps):  # per round: group ids first, then signs
        groups[r] = gen.integers(0, group_count, size=m)
        signs[r] = rademacher(gen, m)
    return CountSketchPlan(groups, signs, group_count)


def countsketch_estimates(oracle: MeasurementOracle, plan: CountSketchPlan) -> np.ndarray:
    """Per-round unbiased estimates sign * Y[group] of every coordinate, shape (reps, m)."""
    est = np.empty_like(plan.signs)
    support = np.arange(oracle.dimension)
    for r in range(plan.reps):
        y = oracle.measure_rows(support, plan.signs[r][None], stage="countsketch",
                                groups=plan.groups[r], group_count=plan.group_count)
        est[r] = plan.signs[r] * y[0, plan.groups[r]]
    return est


def countsketch(oracle: MeasurementOracle, reps: int, group_count: int,
                rng: RngStream) -> np.ndarray:
    """Componentwise median of the per-round estimates; cost reps * group_count."""
    plan = countsketch_plan(oracle.dimension, reps, group_count, rng)
    # reps is odd, so the median is the middle order statistic; + 0.0 turns
    # -0.0 into +0.0 as np.median's mean of one element does
    middle = reps // 2
    return np.partition(countsketch_estimates(oracle, plan), middle, axis=0)[middle] + 0.0


# -- denoising ----------------------------------------------------------------

def keep_largest(z, k: int) -> np.ndarray:
    """Zero all but the k largest-magnitude entries (ties: smaller index wins)."""
    z = np.asarray(z, dtype=np.float64)
    if k < 0:
        raise ParameterError("k must be >= 0")
    out = np.zeros_like(z)
    if k == 0:
        return out
    if k >= z.size:
        return z.copy()
    keep = np.argsort(-np.abs(z), kind="stable")[:k]
    out[keep] = z[keep]
    return out


def denoised_countsketch(oracle: MeasurementOracle, level: int, rng: RngStream) -> np.ndarray:
    """Count sketch at accuracy level ``level`` followed by top-2^level denoising."""
    reps, group_count = countsketch_params(level, oracle.dimension)
    z = countsketch(oracle, reps, group_count, rng)
    # sensitivity eps = 2^(-level/p), hence exactly k = 2^level kept entries
    return keep_largest(z, 2 ** level)


def linsketch_keep_count(m: int, n: int, p: float) -> int:
    """Entries k = floor((n / (m^(1-2/p) log m))^(p/2)) that the denoised Gaussian
    sketch keeps; at k = 0 it cannot beat the zero method."""
    if n < 1:
        raise ParameterError("n must be >= 1")
    noise = m ** (1.0 - 2.0 / p) * math.log(m) / n
    return math.floor(noise ** (-p / 2.0)) if noise > 0 else m


def denoised_linsketch(oracle: MeasurementOracle, n: int, p: float,
                       rng: RngStream) -> np.ndarray:
    """Gaussian sketch with n measurements, then keep the top
    ``linsketch_keep_count(m, n, p)`` entries; a count of 0 is a parameter error."""
    m = oracle.dimension
    k = linsketch_keep_count(m, n, p)
    if k == 0:
        raise ParameterError(f"{n} Gaussian measurements keep no entry at m = {m}, p = {p}")
    return keep_largest(oracle.gaussian_sketch(n, rng, stage="linsketch"), k)
