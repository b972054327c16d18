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
  are exact integer popcounts of packed sign bits. A lone segment (one
  live candidate) needs no arithmetic: its signs are its column's, so its
  candidate survives; it takes only its sign bytes and its charge.
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

from .errors import ParameterError
from .oracle import MeasurementOracle
from .rng import RngStream, rademacher, sign_bits, unpack_signs

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
    have probability 2 * P(Bin(k, 1/2) <= floor(k/6)). The value is exact,
    correctly rounded: an integer ratio, rounded once by int/int division.
    """
    if k < 1:
        raise ParameterError("k must be >= 1")
    return min(1.0, 2 * sum(math.comb(k, i) for i in range(k // 6 + 1)) / 2 ** k)


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


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Mask of the entries that start a run of equal ids."""
    starts = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=starts[1:])
    return starts


def sign_filter(oracle: MeasurementOracle, live, segment_of, sizes, k: int,
                rng: RngStream, zero_pool) -> tuple:
    """Survivor sets of the k-measurement sign filter on disjoint segments.

    Segment d holds the live candidates ``live[segment_of == d]`` (nonzero
    hidden entries), ascending within each segment (``live`` ascending, as
    ``nonzero_indices`` returns it, suffices), and ``sizes[d]`` candidates
    in all; the rest are zero candidates. ``zero_pool()`` returns every zero
    candidate of every segment (their segment does not matter: it is drawn
    here); it is called only when the Binomial tail keeps one. Each segment
    costs exactly k measurements. Every live row takes its sign bytes, but
    only shared segments (two or more live candidates) are measured, each
    summed as in one grouped call over all segments. The others are charged
    in bulk: an idle segment measures 0.0, and a lone one measures
    x_j * a_j exactly, so its j survives at distance 0. Returns
    ``(coords, cuts)``: the non-empty survivor sets in ascending segment
    order, set i being ``coords[cuts[i]:cuts[i+1]]`` (sorted); ``cuts``
    starts at 0 and ends at ``coords.size``.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    segment_of = np.asarray(segment_of, dtype=np.intp)
    gen = rng.generator
    by_segment = np.argsort(segment_of, kind="stable")
    live, segment_of = np.asarray(live, dtype=np.intp)[by_segment], segment_of[by_segment]
    head = _run_starts(segment_of)  # first live row of its segment
    lone = head.copy()
    lone[:-1] &= head[1:]  # the only live row of its segment

    a_bits = sign_bits(gen, live.size, k)  # row j is the column a_j
    kept = np.ones(live.size, dtype=bool)
    measured = 0
    if not lone.all():
        rows = slice(None)
        if lone.any():
            rows = ~lone
            if np.count_nonzero(head & rows) == 1:
                # one group would take measure_rows' gemv path, whose sums
                # differ from the grouped kernel's: measure a lone segment too
                rows[np.argmax(lone)] = True
        groups, bits = np.cumsum(head[rows]) - 1, a_bits[rows]
        measured = int(groups[-1]) + 1
        y = oracle.measure_rows(live[rows], unpack_signs(bits, k).T, stage="precond",
                                groups=groups, group_count=measured)
        s_bits = np.packbits(y.T >= 0.0, axis=1)  # sign(0) := +1
        distance = np.bitwise_count(bits ^ s_bits[groups]).sum(axis=1, dtype=np.int64)
        kept[rows] = sign_filter_mask(k - 2 * distance, k)
    if sizes.size > measured:
        oracle.charge(k * (sizes.size - measured), stage="precond")
    coords, where = live[kept], segment_of[kept]

    n_zero = int(sizes.sum()) - live.size
    extra = int(gen.binomial(n_zero, sign_tail_probability(k))) if n_zero else 0
    if extra:
        zero_slots = np.cumsum(sizes - np.bincount(segment_of, minlength=sizes.size))
        slots = gen.choice(n_zero, size=extra, replace=False)
        where = np.concatenate((where, np.searchsorted(zero_slots, slots, side="right")))
        coords = np.concatenate((coords, gen.choice(zero_pool(), size=extra, replace=False)))
        order = np.lexsort((coords, where))
        coords, where = coords[order], where[order]
    cuts = np.append(np.flatnonzero(_run_starts(where)), coords.size)
    return coords, cuts


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
