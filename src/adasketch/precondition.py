"""Sign-measurement filtering of candidate sets.

``precond`` takes k Rademacher measurements of the hidden vector restricted
to the candidate set, keeps only the measurement signs s, and retains a
candidate j when its sign-pattern column a_j agrees with s or with -s in
all but k/6 positions (exact integer comparison). Under a mild sqrt(5)
dominance of one coordinate this both keeps that coordinate and strips the
bucket down until the survivor set satisfies a much stronger dominance, at
a fixed price of k measurements.

``precond`` is the direct construction, the filter as the paper defines it
on one candidate set: k sign bits for every candidate, zero or not. The
tests use it as the reference. ``sign_filter`` is its fast path, the one a
detection pass runs: the same filter on many disjoint candidate sets
(segments, the buckets) at once. Two distribution-exact devices keep it
fast:

* Sign columns are drawn only for live candidates, those whose hidden
  entry is nonzero, since zero entries cannot influence a measured sign.
  The live columns of all segments form one (live x k) block, measured by
  one ``measure_rows`` call grouped by segment; the correlations <a_j, s>
  are exact integer popcounts of packed sign bits.
* A zero candidate's retention is then an independent Binomial(k, 1/2)
  tail event of probability ``sign_tail_probability(k)`` (about 3.7e-76 at
  k = 701). Their total over all segments is one Binomial draw. When it is
  positive, that many zero candidates are drawn without replacement from
  the zero pool and placed in uniformly drawn zero slots of the segments,
  which is their exact conditional law.

``tests/test_discover.py`` checks the fast path against ``precond`` at the
level of whole detection passes, and ``tests/test_precondition.py`` on
single candidate sets (``sign_filter`` with one segment).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.stats import binom

from .errors import ParameterError
from .oracle import MeasurementOracle
from .rng import RngStream, rademacher, sign_rows

_EMPTY = np.empty(0, dtype=np.intp)


def precond_measurements(gamma: float, delta1: float) -> int:
    """Measurement count k upgrading sqrt(5)-dominance to gamma-dominance w.p. 1 - delta1."""
    if not gamma > 1.0:
        raise ParameterError("gamma must exceed 1")
    if not 0.0 < delta1 < 1.0:
        raise ParameterError("delta1 must lie in (0, 1)")
    return math.ceil(36.0 * math.log((1.0 + 0.4 * gamma * gamma) / delta1))


@lru_cache(maxsize=None)
def sign_tail_probability(k: int) -> float:
    """P(a fresh ±1 column passes the k/6 filter against any fixed sign vector).

    The agreement distance is Binomial(k, 1/2); both filter events together
    have probability 2 * P(Bin(k, 1/2) <= floor(k/6)).
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    return min(1.0, 2.0 * float(binom.cdf(k // 6, k, 0.5)))


def sign_filter_mask(corr: np.ndarray, k: int) -> np.ndarray:
    """Retention mask from the column/sign correlations <a_j, s>.

    Hamming distance of a_j to s (resp. -s) is (k -+ corr_j)/2, so the
    k/6 filter is 3*|corr_j| >= 2*k, compared in exact integers.
    """
    corr_int = np.rint(corr).astype(np.int64)
    return 3 * np.abs(corr_int) >= 2 * k


def signs_of(values: np.ndarray) -> np.ndarray:
    """Sign vector with sign(0) := +1."""
    return np.where(values >= 0.0, 1.0, -1.0)


def sign_filter(oracle: MeasurementOracle, live, segment_of, sizes, k: int,
                rng: RngStream, zero_pool) -> tuple:
    """Survivor sets of the k-measurement sign filter on disjoint segments.

    Segment d holds the live candidates ``live[segment_of == d]`` (nonzero
    hidden entries) and ``sizes[d]`` candidates in all; the rest are zero
    candidates. ``zero_pool()`` returns every zero candidate of every
    segment (their segment does not matter: it is drawn here); it is called
    only when the Binomial tail keeps one. Each segment costs exactly k
    measurements; segments without live candidates are charged in bulk,
    since their measured values are all exactly 0.0. Returns
    ``(coords, cuts)``: the non-empty survivor sets in ascending segment
    order, set i being ``coords[cuts[i]:cuts[i+1]]`` (sorted); ``cuts``
    starts at 0 and ends at ``coords.size``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    segment_of = np.asarray(segment_of, dtype=np.intp)
    gen = rng.generator
    by_segment = np.argsort(segment_of, kind="stable")
    live, segment_of = np.asarray(live, dtype=np.intp)[by_segment], segment_of[by_segment]
    live_segments, member = np.unique(segment_of, return_inverse=True)
    idle = sizes.size - live_segments.size
    if idle:
        oracle.charge(k * idle, stage="precond")

    kept = np.empty(0, dtype=bool)
    if live.size:
        signs, a_bits = sign_rows(gen, live.size, k)  # row j is the column a_j
        y = oracle.measure_rows(live, signs.T, stage="precond", groups=member,
                                group_count=live_segments.size)
        s_bits = np.packbits(y.T >= 0.0, axis=1)  # sign(0) := +1
        distance = np.bitwise_count(a_bits ^ s_bits[member]).sum(axis=1, dtype=np.int64)
        kept = sign_filter_mask(k - 2 * distance, k)
    coords, where = [live[kept]], [segment_of[kept]]

    n_zero = int(sizes.sum()) - live.size
    extra = int(gen.binomial(n_zero, sign_tail_probability(k))) if n_zero else 0
    if extra:
        zero_slots = np.cumsum(sizes - np.bincount(segment_of, minlength=sizes.size))
        slots = gen.choice(n_zero, size=extra, replace=False)
        where.append(np.searchsorted(zero_slots, slots, side="right"))
        coords.append(gen.choice(zero_pool(), size=extra, replace=False))

    coords, where = np.concatenate(coords), np.concatenate(where)
    order = np.lexsort((coords, where))
    cuts = np.append(np.flatnonzero(np.diff(where[order], prepend=-1)), order.size)
    return coords[order], cuts


def precond(oracle: MeasurementOracle, candidates, k: int, rng: RngStream):
    """Filter ``candidates`` with k sign measurements; cost is exactly k.

    The direct construction: k sign bits for every candidate, zero or not.
    Returns the sorted surviving indices; an empty candidate set returns
    empty at zero cost.
    """
    idx = np.sort(np.asarray(candidates, dtype=np.intp))
    if idx.size == 0:
        return _EMPTY
    k = int(k)
    if k < 1:
        raise ParameterError("k must be >= 1")
    matrix = rademacher(rng.generator, (k, idx.size))
    y = oracle.measure_rows(idx, matrix, stage="precond")
    return idx[sign_filter_mask(signs_of(y) @ matrix, k)]
