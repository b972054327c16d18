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
tests use it as the reference. ``sign_filter`` is its fast path, the one
detection passes run: the same filter on many disjoint candidate sets
(segments, the buckets) of one or more independent passes at once. A pass
takes its k sign measurements before its adaptive ``spot`` stage and
without regard to it, so the filters of several passes can be issued as
one batch at the same information cost. ``discover.candidate_sets`` decides
which passes form a batch; every pass of a batch filters the same live
set. Two distribution-exact devices keep it fast:

* Sign columns are drawn only for live candidates, those whose hidden
  entry is nonzero, since zero entries cannot influence a measured sign.
  Each pass draws the live columns of all its segments from its own stream
  as one block of packed sign bits, one byte row per live candidate. The
  shared segments (two or more live candidates) of every pass are measured
  by one ``measure_rows`` call grouped by segment, and the correlations
  <a_j, s> are exact integer popcounts of the same packed bits, counted in
  the widest word that divides a row (64 bits at k = 701's 88 bytes). A
  lone segment (one live candidate) needs no arithmetic: its signs are its
  column's, so its candidate survives; it takes only its sign bytes and its
  charge, which one ``charge`` call makes for every pass. When no segment
  is lone (a dense pass), the measurement takes the sign block, the live
  rows and the segment starts as they are, with no masked copies.
* A zero candidate's retention is then an independent Binomial(k, 1/2)
  tail event of probability ``sign_tail_probability(k)`` (about 3.7e-76 at
  k = 701). Their total over a pass's segments is one Binomial draw from
  the pass's stream, after its sign block. When it is
  positive, that many zero candidates are drawn without replacement from
  the zero pool and placed in uniformly drawn zero slots of the segments,
  which is their exact conditional law.

Apart from each pass's own draws, a batch's bookkeeping is done once for
the batch. One ``hashing.bucket_order`` of segment ids, offset per pass,
puts the live rows of every pass in segment order, pass after pass. After
the shared measurement one split at the ``hashing.run_starts`` of the kept
rows cuts them into the survivor sets of every pass. A tail's zero
candidates join the kept rows, which are sorted again by segment and
coordinate before the split (at k = 701, about 3.7e-76 per zero candidate).

``tests/test_discover.py`` checks the fast path against ``precond`` at the
level of whole detection passes, and ``tests/test_precondition.py`` on
single candidate sets (``sign_filter`` with one segment); both check that a
batch of passes gives each pass exactly its one-pass result.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import ParameterError
from .hashing import bucket_order, run_starts
from .oracle import MeasurementOracle, as_count, as_index_array
from .rng import RngStream, rademacher, sign_bits

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


def _joined(arrays: list) -> np.ndarray:
    """The arrays one after another; a single array as it is. A dense pass
    is a batch of its own, and copying its sign block (4,096 rows of 88
    bytes at m = 2^12) made that pass about 6% slower."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def sign_filter(oracle: MeasurementOracle, live, passes, k: int, zero_pool) -> list:
    """Survivor sets of the k-measurement sign filter on the disjoint
    segments of one or more independent passes over one candidate set.

    ``live`` holds the live candidates (nonzero hidden entries), ascending,
    as ``nonzero_indices`` returns them; ``zero_pool()`` returns the zero
    candidates, and is called only when a Binomial tail keeps one. Each
    pass is a tuple ``(segment_of, sizes, rng)``: its segment d holds the
    live candidates ``live[segment_of == d]`` and ``sizes[d]`` candidates
    in all; the rest are zero candidates (their segment does not matter: it
    is drawn here). Each segment costs exactly k measurements.

    A pass draws from its own ``rng`` exactly what it would draw alone:
    first one sign byte row per live row, in segment order, then its zero
    tail. Everything else is done once for the batch. Pass i's segments
    take the batch-wide ids that follow pass i-1's, so one stable sort puts
    every pass's live rows in segment order, pass after pass, as each
    pass's own stable sort would. Only the shared segments (two or more
    live candidates) are measured, by one ``measure_rows`` call that takes
    their packed sign bytes as they are and has one group per shared
    segment of every pass. The other segments of every pass are charged by
    one ``charge``: an idle segment measures 0.0, and a lone one measures
    x_j * a_j exactly, so its j survives at distance 0. The kept rows of
    the batch, with the zero candidates any tail keeps, are split into sets
    and the sets into passes once for the batch. Returns one
    ``(coords, cuts)`` per pass, in order: the pass's non-empty survivor
    sets in ascending segment order, set i being
    ``coords[cuts[i]:cuts[i+1]]`` (sorted); ``cuts`` starts at 0 and ends
    at ``coords.size``.
    """
    segments, sizes, rngs = zip(*passes)
    rows = len(live)  # live rows of each pass
    first = list(accumulate(map(len, sizes), initial=0))  # pass i: ids [first[i], first[i+1])
    segment_of = np.concatenate([np.asarray(ids, dtype=np.intp) for ids in segments])
    segment_of += np.repeat(first[:-1], rows)
    by_segment = bucket_order(segment_of, first[-1])
    live = np.tile(np.asarray(live, dtype=np.intp), len(passes))[by_segment]
    segment_of = segment_of[by_segment]
    a_bits = _joined([sign_bits(rng.generator, rows, k) for rng in rngs])  # row j: column a_j
    head = run_starts(segment_of)  # first live row of its segment
    lone = head.copy()
    lone[:-1] &= head[1:]  # the only live row of its segment

    kept = np.ones(live.size, dtype=bool)
    measured = 0
    if not lone.all():
        shared = ~lone if lone.any() else slice(None)  # a slice takes views, no copies
        groups, bits = np.cumsum(head[shared]) - 1, a_bits[shared]
        measured = int(groups[-1]) + 1
        y = oracle.measure_rows(live[shared], bits, stage="precond", groups=groups,
                                group_count=measured, row_count=k)
        s_bits = np.packbits(y.T >= 0.0, axis=1)  # sign(0) := +1
        word = f"u{math.gcd(s_bits.shape[1], 8)}"  # the widest word that divides a row
        counts = np.bitwise_count(bits.view(word) ^ s_bits.view(word)[groups])
        distance = counts @ np.ones(counts.shape[1], dtype=np.int64)  # row sums, exact
        kept[shared] = sign_filter_mask(k - 2 * distance, k)
    if first[-1] > measured:
        oracle.charge(k * (first[-1] - measured), stage="precond")

    tail = sign_tail_probability(k)
    extra_coords, extra_where = [], []  # the zero candidates each tail keeps
    for i, (rng, pass_sizes) in enumerate(zip(rngs, sizes)):
        gen, pass_sizes = rng.generator, np.asarray(pass_sizes, dtype=np.int64)
        n_zero = int(pass_sizes.sum()) - rows
        extra = int(gen.binomial(n_zero, tail)) if n_zero else 0
        if extra:  # each goes to a uniformly drawn zero slot of the pass
            live_counts = np.bincount(segment_of, minlength=first[-1])[first[i]:first[i + 1]]
            zero_slots = np.cumsum(pass_sizes - live_counts)
            slots = gen.choice(n_zero, size=extra, replace=False)
            extra_where.append(np.searchsorted(zero_slots, slots, side="right") + first[i])
            extra_coords.append(gen.choice(zero_pool(), size=extra, replace=False))

    coords, where = live[kept], segment_of[kept]
    if extra_coords:
        coords = np.concatenate((coords, *extra_coords))
        where = np.concatenate((where, *extra_where))
        order = np.lexsort((coords, where))
        coords, where = coords[order], where[order]
    heads = np.flatnonzero(run_starts(where))
    cuts = np.append(heads, coords.size)  # set i of the batch is coords[cuts[i]:cuts[i+1]]
    # pass i has the sets [set_at[i], set_at[i+1]) and the kept rows
    # [kept_at[i], kept_at[i+1]) of the batch
    set_at = np.searchsorted(where[heads], first).tolist()
    kept_at = cuts[set_at].tolist()
    return [(coords[kept_at[i]:kept_at[i + 1]], cuts[set_at[i]:set_at[i + 1] + 1] - kept_at[i])
            for i in range(len(passes))]


def precond(oracle: MeasurementOracle, candidates, k: int, rng: RngStream):
    """Filter ``candidates`` with k sign measurements; cost is exactly k.

    The direct construction: k sign bits for every candidate, zero or not.
    Returns the sorted surviving indices; an empty candidate set returns
    empty at zero cost. The candidates pass ``oracle.as_index_array`` first.
    """
    k = as_count(k, "k")
    if k < 1:
        raise ParameterError("k must be >= 1")
    idx = np.sort(as_index_array(candidates, oracle.dimension))
    if idx.size == 0:
        return _EMPTY
    matrix = rademacher(rng.generator, (k, idx.size))
    y = oracle.measure_rows(idx, matrix, stage="precond")
    return idx[sign_filter_mask(signs_of(y) @ matrix, k)]
