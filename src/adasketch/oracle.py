"""Hidden-vector container with linear-only access and exact cost accounting.

Algorithms never touch the hidden vector directly: they submit linear
functionals to a :class:`MeasurementOracle` and get back exact inner products.
A functional is a support plus one coefficient row; the entry points
(`measure_rows`, `read_entries`, `charge`) take several per call, which keeps
Monte Carlo experiments fast, and charge one unit apiece to the stage the call
names: the cost is the sum of that ledger. Counts and indices are integers
(`as_count`; `as_index_array`, the one index rule): a float raises, never
truncates. `measure_rows` has one product per row type: float rows on the
whole support (a dense product); with group ids, one functional per (row,
group) pair, either one float row (`np.bincount`, also for one packed ±1 row)
or k >= 2 ±1 rows packed as sign bits, unpacked to int8 ±1 a block of
equal-sized groups at a time and summed in support order by `np.einsum`,
which casts each sign to float64 in its inner loop: no float64 sign block
is written.

The hidden vector is a dense array, checked by `as_vector`, or a
:class:`SparseVector`, which checks itself. The oracle finds the nonzero
support once, at construction: O(nnz) for the sparse form, one O(m) scan
for the dense one. It keeps a sparse vector sparse: every query shorter
than m costs O(nnz), by binary search, and a query of m or more entries (a
count-sketch round, ``read_all``) densifies it once per oracle. Both forms
answer alike, bytes and ledger.

The last section holds simulation affordances: the free `nonzero_indices`,
which only speeds up exact fast paths, and the charged `gaussian_sketch`,
which stands for n Gaussian functionals and samples their sketch from its
exact law.

An oracle instance is single-writer (its ledger mutates per call); use one
oracle per concurrent unit. The pure helper `lp_norm` is safe from any
thread.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import DimensionError, ParameterError
from .rng import unpack_signs


def as_vector(entries) -> np.ndarray:
    """Validate and return a 1-d float64 vector (finite entries, length >= 1)."""
    v = np.asarray(entries, dtype=np.float64)
    if v.ndim != 1 or v.size < 1:
        raise DimensionError("a vector must be one-dimensional with length >= 1")
    if not np.all(np.isfinite(v)):
        raise ParameterError("vector entries must be finite")
    return v


def _lookup(index, values, key) -> np.ndarray:
    """Entries at the in-range indices ``key`` of the vector that holds
    ``values`` on the sorted ``index`` and 0.0 elsewhere."""
    if not index.size:
        return np.zeros(np.shape(key))
    pos = np.minimum(np.searchsorted(index, key), index.size - 1)
    return np.where(index[pos] == key, values[pos], 0.0)


class SparseVector:
    """A vector of dimension ``m`` held as a sorted, unique support ``index``
    (intp) and its finite float64 ``values``, read-only copies of the inputs.

    It has exactly two operations: ``np.asarray`` densifies it (O(m)), and
    an integer or integer-array subscript looks entries up by binary search,
    0.0 off the support. The sparse families store nonzero values only; an
    ``approximate`` output stores its reads, which may hold zeros.
    """

    __slots__ = ("m", "index", "values")

    def __init__(self, m: int, index, values):
        self.m = as_count(m, "dimension m")
        index, self.values = np.asarray(index), np.array(values, dtype=np.float64)
        if self.m < 1 or index.ndim != 1 or self.values.shape != index.shape:
            raise DimensionError("a sparse vector needs m >= 1 and one value per index")
        self.index = as_index_array(index, self.m).copy()
        if (self.index[1:] <= self.index[:-1]).any():
            raise DimensionError("a sparse support must be sorted and unique")
        if not np.isfinite(self.values).all():
            raise ParameterError("vector entries must be finite")
        self.index.setflags(write=False)
        self.values.setflags(write=False)

    def __array__(self, dtype=None, copy=None):
        dense = np.zeros(self.m)
        dense[self.index] = self.values
        return dense if dtype is None else dense.astype(dtype, copy=False)

    def __getitem__(self, key):
        key = np.asarray(key)
        if key.dtype.kind not in "iu":
            raise IndexError("a sparse vector takes integer or integer-array subscripts")
        if key.size and (key.min() < 0 or key.max() >= self.m):
            raise IndexError(f"subscripts must lie in [0, {self.m})")
        return _lookup(self.index, self.values, key)[()]


def lp_norm(v, p) -> float:
    """The classical l_p norm for p in [1, inf]; p = inf gives max |v_i|."""
    v = np.asarray(v, dtype=np.float64)
    if p == math.inf:
        return float(np.max(np.abs(v))) if v.size else 0.0
    p = float(p)
    if not p >= 1.0:  # NaN too
        raise ParameterError(f"norm index must satisfy p >= 1, got {p}")
    a = np.abs(v)
    top = float(a.max()) if a.size else 0.0
    if top == 0.0:
        return 0.0
    # scale by the max entry so large p never overflows
    return top * float(np.sum((a / top) ** p)) ** (1.0 / p)


def as_count(value, name: str) -> int:
    """``value`` as an int; a float, integral or not, raises instead of truncating."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {value!r}") from None


_INTP_END = int(np.iinfo(np.intp).max) + 1  # above every intp id


def _as_ids(values, name: str) -> np.ndarray:
    """``values`` as intp; a non-integer dtype raises (an empty list passes)."""
    ids = np.asarray(values)
    if ids.dtype.kind not in "iu" and ids.size:
        raise DimensionError(f"{name} must be integers")
    return ids.astype(np.intp, copy=False)


def _outside(ids, bound: int) -> bool:
    """Whether the intp ``ids`` hold one outside [0, bound), by one
    reduction: read as unsigned, a negative id wraps above every intp."""
    return bool(ids.size) and ids.view(np.uintp).max() >= min(bound, _INTP_END)


def as_index_array(indices, m: int) -> np.ndarray:
    """``indices`` as a flat intp array in [0, m), the one index rule of the
    oracle and of every algorithm that takes coordinates."""
    idx = _as_ids(indices, "coordinate indices").ravel()
    if _outside(idx, m):
        raise DimensionError(f"coordinate indices must lie in [0, {m})")
    return idx


# Support rows per block of the grouped product, whose int8 signs take k
# bytes per row. On a dense pass (4,096 rows, k = 701, 54 groups) one call
# took 2.5 ms at 256 to 1,024 rows per block, 2.6 ms in one block of all
# rows and 3.1 ms at 128 (best of 15, 2-core machine, numpy 2.4).
# ``discover.candidate_sets`` fills one block per filter batch.
CHUNK_ROWS = 512


def _grouped_product(values, packed, groups, group_count: int, k: int) -> np.ndarray:
    """(k, group_count) sums y[:, g] = sum of values_j * a_j over group g.

    Row j of ``packed`` holds the k >= 2 signs a_j as ``rng.sign_bits``
    packs them. The groups are taken in order of size, those of one size
    in blocks of at most ``CHUNK_ROWS`` rows (a larger group is a block of
    its own). Each block is unpacked to int8 ±1 and summed over its size
    axis by one ``np.einsum``, which casts the signs to float64 in its
    buffered inner loop, so no float64 sign block is ever written. The
    loop runs over the k rows: y[g] += x_j * a_j per support row, in
    support order within the group, the additions of a csr product, and
    each product x_j * a_j is exact.
    """
    sizes = np.bincount(groups, minlength=group_count)
    by_size = np.argsort(sizes, kind="stable")
    order = np.lexsort((groups, sizes[groups]))  # rows group by group, as in by_size
    sizes, data = sizes[by_size], values[order]
    g = int(np.searchsorted(sizes, 1))  # the empty groups before g measure 0.0
    # one float64 allocation for the block sums and y
    scratch = np.empty((CHUNK_ROWS + group_count) * k)
    y = scratch[CHUNK_ROWS * k:].reshape(group_count, k)
    y[by_size[:g]] = 0.0
    r = 0
    while g < group_count:
        s = int(sizes[g])
        n = min(max(1, CHUNK_ROWS // s), int(np.searchsorted(sizes, s, side="right")) - g)
        block = unpack_signs(packed[order[r:r + n * s]], k)
        sums = scratch[:n * k].reshape(n, k)
        np.einsum("gs,gsk->gk", data[r:r + n * s].reshape(n, s), block.reshape(n, s, k),
                  out=sums)
        y[by_size[g:g + n]] = sums
        g, r = g + n, r + n * s
    return y.T


class MeasurementOracle:
    """Answers linear-functional evaluations on a hidden vector, counting each.

    The cost rises by exactly one per evaluated functional and in no other
    way: it is the sum of the ledger, the cost of each ``stage`` a call names.
    """

    def __init__(self, hidden):
        self._dense = self._sparse = None
        if isinstance(hidden, SparseVector):
            # finite and read-only already, densified by the first query of >= m entries
            self._dimension, self._sparse = hidden.m, hidden
            self._nonzero = hidden.index[hidden.values != 0.0]
        else:
            self._dense = as_vector(hidden).copy()
            self._dense.setflags(write=False)
            self._dimension = self._dense.size
            self._nonzero = np.flatnonzero(self._dense)
        self._nonzero.setflags(write=False)
        self._stage_costs = {}

    @property
    def dimension(self) -> int:
        return self._dimension

    def _entries(self, idx) -> np.ndarray:
        """Hidden entries at the validated indices ``idx``, as a new array."""
        if self._dense is None:
            if idx.size < self._dimension:
                return _lookup(self._sparse.index, self._sparse.values, idx)
            self._dense = np.asarray(self._sparse)
        return self._dense[idx]

    @property
    def cost(self) -> int:
        return sum(self._stage_costs.values())

    def stage_costs(self) -> dict:
        return dict(self._stage_costs)

    def _charge(self, count: int, stage):  # the one writer of the ledger
        self._stage_costs[stage] = self._stage_costs.get(stage, 0) + count

    # -- measurement entry points -------------------------------------------

    def measure_rows(self, support, rows, stage, groups=None,
                     group_count=None, row_count=None) -> np.ndarray:
        """Evaluate each row of ``rows`` as a functional on ``support``; cost += #rows.

        With ``groups`` (one id in [0, group_count) per support entry), each
        (row, group) pair is one functional: the row restricted to that
        group's entries. Returns a (#rows, group_count) array;
        cost += #rows * group_count, and an empty group measures 0.0.
        Grouped rows are either one float row, summed per group by
        ``np.bincount``, or, with ``row_count`` = k, k ±1 rows packed as
        ``rng.sign_bits`` returns them: one byte row per support entry, bit
        1 for +1, padding bits ignored. One packed row takes the float
        row's kernel, and k >= 2 are unpacked to int8 block by block (see
        ``_grouped_product``), never to a float64 sign block.
        """
        sup = as_index_array(support, self.dimension)
        if groups is None and group_count is None and row_count is None:
            rows = np.asarray(rows, dtype=np.float64)
            if rows.ndim != 2 or rows.shape[1] != sup.size:
                raise DimensionError("rows must be (count, len(support))")
            self._charge(rows.shape[0], stage)
            return rows @ self._entries(sup)
        if groups is None or group_count is None:
            raise ParameterError("give groups and group_count together")
        packed = row_count is not None
        if packed:
            row_count, rows = as_count(row_count, "row_count"), np.asarray(rows, np.uint8)
            if row_count < 1 or rows.shape != (sup.size, (row_count + 7) // 8):
                raise DimensionError("packed rows must be (len(support), ceil(row_count / 8))")
        else:
            rows, row_count = np.asarray(rows, dtype=np.float64), 1
            if rows.shape != (1, sup.size):
                raise DimensionError("grouped float rows must be one (1, len(support)) row")
        groups = _as_ids(groups, "group ids")
        group_count = as_count(group_count, "group_count")
        if groups.shape != sup.shape:
            raise DimensionError("groups must hold one id per support entry")
        if group_count < 1 or _outside(groups, group_count):
            raise ParameterError("group ids must lie in [0, group_count)")
        self._charge(row_count * group_count, stage)
        values = self._entries(sup)
        if row_count > 1:
            return _grouped_product(values, rows, groups, group_count, row_count)
        if packed:  # one ±1 row
            rows = unpack_signs(rows, 1).T
        sums = np.bincount(groups, weights=rows[0] * values, minlength=group_count)
        return sums.astype(np.float64, copy=False)[None]  # int64 on an empty support

    def read_entries(self, indices, stage) -> np.ndarray:
        idx = as_index_array(indices, self.dimension)
        self._charge(idx.size, stage)
        return self._entries(idx)

    def charge(self, count: int, stage):
        """Count ``count`` evaluations that the caller makes without needing
        their answers, so the cost model stays exact without the arithmetic:
        functionals supported on zero coordinates (each answers 0.0), and
        ones whose answer cannot change the caller's result, as a lone
        segment's x_j * a_j in ``precondition.sign_filter``.
        """
        count = as_count(count, "charge count")
        if count < 0:
            raise ParameterError("charge count must be non-negative")
        self._charge(count, stage)

    # -- simulation affordances ----------------------------------------------

    def nonzero_indices(self) -> np.ndarray:
        """Sorted indices of nonzero hidden entries.

        Free simulation affordance for distribution-exact fast paths; it does
        not count toward the information cost and is never used to alter the
        distribution of any algorithm's output.
        """
        return self._nonzero

    def gaussian_sketch(self, n: int, rng, stage) -> np.ndarray:
        """One sample of (1/n) N^T N x for an n x m standard Gaussian N; cost += n.

        Charged simulation affordance: it stands for the n functionals of N
        and samples their sketch from its exact law in O(m). With
        u = x / ||x||_2, S ~ chi^2_n and z ~ N(0, I_m) the output is
        (||x||_2 / n) (S u + sqrt(S) (z - <u, z> u)), because N u ~ N(0, I_n)
        is independent of N's action orthogonal to u. It draws chisquare(n),
        then standard_normal(m), from ``rng.generator``; at x = 0 it draws
        nothing and returns zeros. Unlike ``nonadaptive.linsketch`` it is not
        linear in x under a shared stream.
        """
        n = as_count(n, "n")
        if n < 1:
            raise ParameterError("n must be >= 1")
        self._charge(n, stage)
        x = np.asarray(self._sparse) if self._dense is None else self._dense
        norm = lp_norm(x, 2)
        if norm == 0.0:
            return np.zeros(self.dimension)
        gen = rng.generator
        s = gen.chisquare(n)
        z = gen.standard_normal(self.dimension)
        u = x / norm
        return (norm / n) * (s * u + math.sqrt(s) * (z - (u @ z) * u))
