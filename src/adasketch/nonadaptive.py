"""Non-adaptive baselines: a Gaussian linear sketch, a count sketch, and
top-k denoising.

Non-adaptive means every measurement functional is fixed before the first
evaluation. Both sketches draw their functionals from the stream and the
parameters alone, so they replay without an oracle: the count sketch as a
``CountSketchPlan``, the Gaussian sketch as ``linsketch_matrix``. Each
count-sketch round is one grouped ``measure_rows`` call: its signs are the
one row, its group ids split the coordinates, one functional per group.

The plan is one ``sign_bits`` draw, one row of raw bytes per round: the
little-endian bytes of one 32-bit word per coordinate, whose top log2(G)
bits are its group id, then the round's packed signs, 4 * ceil(m/32)
bytes. Those are the bytes of the words, in order, that per-round
``integers(0, G, m)`` and ``rademacher(m)`` calls take: numpy's bounded
draw (Lemire's rule) keeps the top bits of a word and never rejects one
when G is a power of two, so G must be 2^b with b <= 32; at G = 1 a round
draws no group words. ``CountSketchPlan.round`` decodes a round's group
ids and signs from its row when the round is measured. The round's
estimates fill one column of a coordinate-major (m, reps) block, so each
coordinate's median comes from one in-place sort of its contiguous row.

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
from .oracle import MeasurementOracle, as_count
from .rng import RngStream, sign_bits, unpack_signs

_MAX_GROUP_COUNT = 2**32  # group ids are the top bits of one 32-bit word


# -- Gaussian linear sketch ---------------------------------------------------

def linsketch_matrix(m: int, n: int, rng: RngStream) -> np.ndarray:
    """The n x m Gaussian measurement matrix that ``linsketch`` applies, in one draw."""
    return rng.generator.standard_normal((n, m))


def linsketch(oracle: MeasurementOracle, n: int, rng: RngStream) -> np.ndarray:
    """Output (1/n) N^T N x from n Gaussian measurements (a linear method):
    one ``linsketch_matrix`` draw, measured by one ``measure_rows`` call."""
    if as_count(n, "n") < 1:
        raise ParameterError("n must be >= 1")
    m = oracle.dimension
    matrix = linsketch_matrix(m, n, rng)
    y = oracle.measure_rows(np.arange(m), matrix, stage="linsketch")
    return y @ matrix / n


# -- count sketch -------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CountSketchPlan:
    """All functionals of a count-sketch run, fixed before any measurement.

    ``bits`` is the plan's one draw: row r holds the bytes of round r's m
    group words (none when G = 1), then its packed sign bytes. ``round(r)``
    decodes round r's functionals from its row alone, so a run never holds
    a (reps, m) block of group ids or signs.
    """

    bits: np.ndarray  # (reps, 4W) uint8, W = m + ceil(m/32), or ceil(m/32) at G = 1
    dimension: int
    group_count: int

    @property
    def reps(self) -> int:
        return self.bits.shape[0]

    def round(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Round r's group id (intp) and ±1 sign (float64) of each coordinate."""
        m, row = self.dimension, self.bits[r]
        if self.group_count > 1:  # Lemire's rule at G = 2^b keeps the word's top b bits
            groups = row[:4 * m].view("<u4").astype(np.intp)
            groups >>= 33 - self.group_count.bit_length()
            row = row[4 * m:]
        else:
            groups = np.zeros(m, dtype=np.intp)
        return groups, unpack_signs(row[None], m)[0].astype(np.float64)


def countsketch_params(level: int, m: int) -> tuple[int, int]:
    """Rounds and group count for accuracy level ``level``.

    Groups G = 2^(4+level), at most 2^32 (level <= 28); rounds R = smallest
    odd number with R >= max(5, 2 + 3*log2(m)).
    """
    if as_count(level, "level") < 0:
        raise ParameterError("level must be >= 0")
    if 2 ** (4 + level) > _MAX_GROUP_COUNT:
        raise ParameterError(f"count-sketch level {level} needs 2^{4 + level} groups, "
                             "above the cap of 2^32")
    if as_count(m, "m") < 1:
        raise ParameterError("m must be >= 1")
    reps = max(5, math.ceil(2.0 + 3.0 * math.log2(m)))
    if reps % 2 == 0:
        reps += 1
    return reps, 2 ** (4 + level)


def countsketch_level_for_budget(budget: int, m: int) -> int | None:
    """Largest level whose cost reps * groups fits ``budget``, stopping at the
    first level with 2^level >= m, or None if even level 0 misses; each level
    doubles level 0's groups at the same rounds. At that first level the
    top-2^level denoising keeps every coordinate, so deeper levels add cost
    and memory, not accuracy (``adaptive.levels_for_budget`` stops at its
    first saturated level the same way)."""
    reps, groups = countsketch_params(0, m)
    level = min((budget // reps // groups).bit_length() - 1, (m - 1).bit_length())
    return level if level >= 0 else None


def countsketch_plan(m: int, reps: int, group_count: int, rng: RngStream) -> CountSketchPlan:
    m, reps = as_count(m, "m"), as_count(reps, "reps")
    group_count = as_count(group_count, "group_count")
    if reps < 1 or reps % 2 == 0:
        raise ParameterError("reps must be odd and >= 1")
    if group_count < 1 or group_count & (group_count - 1) or group_count > _MAX_GROUP_COUNT:
        raise ParameterError(f"group_count must be a power of two at most 2^32, got {group_count}")
    # per round (see the module docstring): m group words, none when G = 1,
    # then the sign words, 4 packed sign bytes each
    group_words = m if group_count > 1 else 0
    bits = sign_bits(rng.generator, reps, 32 * (group_words + -(-m // 32)))
    return CountSketchPlan(bits, m, group_count)


def countsketch_estimates(oracle: MeasurementOracle, plan: CountSketchPlan) -> np.ndarray:
    """Per-round unbiased estimates sign * Y[group] of every coordinate,
    coordinate-major: shape (m, reps), column r from round r."""
    m = oracle.dimension
    est = np.empty((m, plan.reps))
    support = np.arange(m)
    for r in range(plan.reps):
        groups, signs = plan.round(r)
        y = oracle.measure_rows(support, signs[None], stage="countsketch",
                                groups=groups, group_count=plan.group_count)
        np.multiply(signs, y[0].take(groups), out=est[:, r])
    return est


def countsketch(oracle: MeasurementOracle, reps: int, group_count: int,
                rng: RngStream) -> np.ndarray:
    """Componentwise median of the per-round estimates; cost reps * group_count."""
    plan = countsketch_plan(oracle.dimension, reps, group_count, rng)
    est = countsketch_estimates(oracle, plan)
    # each coordinate's rounds are one contiguous row; reps is odd, so the
    # median is the middle of the sorted row; + 0.0 turns -0.0 into +0.0 as
    # np.median's mean of one element does
    est.sort()
    return est[:, reps // 2] + 0.0


# -- denoising ----------------------------------------------------------------

def keep_largest(z, k: int) -> np.ndarray:
    """Zero all but the k largest-magnitude entries (ties: smaller index wins)."""
    z = np.asarray(z, dtype=np.float64)
    if as_count(k, "k") < 0:
        raise ParameterError("k must be >= 0")
    out = np.zeros_like(z)
    if k == 0:
        return out
    if k >= z.size:
        return z.copy()
    # the k-th smallest key -|z| splits the kept set: every smaller key, then
    # the lowest-index ties; NaN keys become +inf, last as in an argsort
    key = -np.abs(z)
    key[np.isnan(key)] = np.inf
    kth = np.partition(key, k - 1)[k - 1]
    keep = key < kth
    keep[np.flatnonzero(key == kth)[: k - np.count_nonzero(keep)]] = True
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
