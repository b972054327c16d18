import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_array

from adasketch import oracle as oracle_module
from adasketch.errors import DimensionError, ParameterError
from adasketch.hashing import equi_hash
from adasketch.oracle import MeasurementOracle, SparseVector, as_index_array, lp_norm
from adasketch.rng import RngStream, sign_bits, unpack_signs


def test_measure_coordinate_functional():
    oracle = MeasurementOracle([1.0, 2.0, 3.0])
    assert np.array_equal(oracle.measure_rows([1], [[1.0]], stage="t"), [2.0])
    assert oracle.cost == 1


def test_measure_sum_functional():
    oracle = MeasurementOracle([1.0, 2.0, 3.0])
    assert np.array_equal(oracle.measure_rows([0, 1, 2], [[1.0, 1.0, 1.0]], stage="t"), [6.0])


def test_measure_sign_pattern():
    oracle = MeasurementOracle([0.5, -0.5])
    assert np.array_equal(oracle.measure_rows([0, 1], [[1.0, -1.0]], stage="t"), [1.0])


def test_read_entry_values_and_cost():
    oracle = MeasurementOracle([7.0, 0.0])
    assert np.array_equal(oracle.read_entries([0], stage="t"), [7.0])
    assert np.array_equal(oracle.read_entries([1], stage="t"), [0.0])
    assert oracle.cost == 2
    assert np.array_equal(MeasurementOracle([-3.5]).read_entries([0], stage="t"), [-3.5])


def test_cost_counts_each_evaluation_exactly_once():
    oracle = MeasurementOracle([1.0, 2.0, 3.0])
    assert oracle.cost == 0
    for _ in range(3):
        oracle.measure_rows([0], [[1.0]], stage="t")
    assert oracle.cost == 3
    oracle.measure_rows([0, 1, 2], [[0.0, 1.0, 0.0]], stage="t")
    oracle.read_entries([2], stage="t")
    assert oracle.cost == 5


def test_batch_entry_points_match_single_calls():
    rng = RngStream(3).child("x").generator
    hidden = rng.standard_normal(32)
    oracle = MeasurementOracle(hidden)
    support = np.array([1, 4, 9, 16, 25])
    rows = rng.standard_normal((4, 5))
    batch = oracle.measure_rows(support, rows, stage="t")
    assert oracle.cost == 4
    singles = [oracle.measure_rows(support, row[None], stage="t")[0] for row in rows]
    assert np.allclose(batch, singles, rtol=1e-12)
    assert oracle.cost == 8

    reads = oracle.read_entries([3, 5, 7], stage="t")
    assert np.array_equal(reads, hidden[[3, 5, 7]])
    assert oracle.cost == 11


def _per_group_rows(hidden, support, rows, groups, group_count):
    """Reference values: one ungrouped call per group, on its own entries."""
    reference = MeasurementOracle(hidden)
    columns = [reference.measure_rows(support[groups == g], rows[:, groups == g], stage="t")
               for g in range(group_count)]
    assert reference.cost == rows.shape[0] * group_count
    return np.stack(columns, axis=1)


def test_grouped_measure_rows_matches_per_group_rows():
    rng = RngStream(6).child("x").generator
    hidden = rng.standard_normal(40)
    support = np.array([2, 3, 7, 11, 12, 30, 31, 39])
    groups = np.array([3, 0, 3, 2, 0, 3, 2, 0])  # unsorted; group 1 is empty
    bits = sign_bits(rng, support.size, 5)
    rows = unpack_signs(bits, 5).T
    oracle = MeasurementOracle(hidden)
    values = oracle.measure_rows(support, bits, stage="seg", groups=groups, group_count=4,
                                 row_count=5)
    assert values.shape == (5, 4)
    assert oracle.stage_costs() == {"seg": 20}
    assert np.array_equal(values[:, 1], np.zeros(5))  # empty group 1, charged above
    expected = _per_group_rows(hidden, support, rows, groups, 4)
    assert np.allclose(values, expected, rtol=1e-12, atol=1e-15)


def test_grouped_measure_rows_one_row_is_bincount():
    rng = RngStream(5).child("x").generator
    hidden = rng.standard_normal(24)
    support = np.arange(24)
    groups = rng.integers(0, 5, size=24)
    groups[groups == 2] = 4  # group 2 is empty
    weights = np.where(rng.random(24) < 0.5, -1.0, 1.0)
    oracle = MeasurementOracle(hidden)
    sums = oracle.measure_rows(support, weights[None], groups=groups, group_count=5, stage="t")
    assert oracle.cost == 5
    assert np.array_equal(sums, np.bincount(groups, weights=weights * hidden,
                                            minlength=5)[None])
    assert sums[0, 2] == 0.0
    expected = _per_group_rows(hidden, support, weights[None], groups, 5)
    assert np.allclose(sums, expected, rtol=1e-12, atol=1e-15)


def test_grouped_one_row_on_an_empty_support_measures_float_zeros():
    # an empty group measures 0.0, also when every group is empty
    oracle = MeasurementOracle(np.ones(4))
    float_row = oracle.measure_rows([], np.zeros((1, 0)), groups=[], group_count=3, stage="t")
    assert oracle.cost == 3
    packed_row = oracle.measure_rows([], np.zeros((0, 1), np.uint8), groups=[], group_count=3,
                                     row_count=1, stage="t")
    assert oracle.cost == 6
    for values in (float_row, packed_row):
        assert values.dtype == np.float64 and values.shape == (1, 3)
        assert np.array_equal(values, np.zeros((1, 3)))


def test_grouped_measure_rows_one_group_is_the_ungrouped_call():
    # the same functionals; the grouped sum runs in support order, the
    # ungrouped product in BLAS order, so they agree to rounding
    rng = RngStream(7).child("x").generator
    hidden = rng.standard_normal(16)
    support = np.array([1, 5, 6, 14])
    bits = sign_bits(rng, support.size, 3)
    oracle = MeasurementOracle(hidden)
    values = oracle.measure_rows(support, bits, groups=np.zeros(4, dtype=int), group_count=1,
                                 row_count=3, stage="t")
    assert values.shape == (3, 1)
    assert oracle.cost == 3
    ungrouped = MeasurementOracle(hidden).measure_rows(support, unpack_signs(bits, 3).T, stage="t")
    assert np.allclose(values[:, 0], ungrouped, rtol=1e-12, atol=1e-15)


def _unchunked_product(hidden, support, rows, groups, group_count):
    """The grouped product of several rows as one csr product over all groups
    (one row: one bincount), the kernel calls the chunked product must repeat."""
    values = hidden[support]
    if rows.shape[0] == 1:
        return np.bincount(groups, weights=rows[0] * values, minlength=group_count)[None]
    order = np.argsort(groups, kind="stable")
    indptr = np.concatenate(([0], np.cumsum(np.bincount(groups, minlength=group_count))))
    blocks = csr_array((values[order], order, indptr), shape=(group_count, support.size))
    return (blocks @ rows.T).T


def _grouped_layout(gen, layout):
    """Support size, group count and unsorted group ids, one group left empty
    ("one-group": a single group of a few rows up to several chunks)."""
    chunk = oracle_module.CHUNK_ROWS
    if layout == "one-group":
        size = int(gen.integers(1, 3 * chunk))
        return size, 1, np.zeros(size, dtype=np.intp)
    if layout == "few":
        size, group_count = int(gen.integers(1, 60)), int(gen.integers(2, 12))
    else:  # several chunks; "big-group" gives one group more rows than a chunk
        size, group_count = 3 * chunk + int(gen.integers(0, chunk)), int(gen.integers(20, 90))
    empty = int(gen.integers(group_count))
    groups = gen.integers(0, group_count - 1, size=size)
    groups[groups >= empty] += 1
    if layout == "big-group":
        big = (empty + 1) % group_count
        groups[gen.choice(size, size=chunk + 1 + int(gen.integers(chunk)), replace=False)] = big
    return size, group_count, groups


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 7, 8, 9, 701]),
       st.sampled_from(["one-group", "few", "chunks", "big-group"]))
def test_packed_grouped_rows_equal_the_float_product_bytewise(seed, k, layout):
    gen = RngStream(seed).child("packed").generator
    size, group_count, groups = _grouped_layout(gen, layout)
    m = size + int(gen.integers(0, 8))
    hidden = gen.standard_normal(m) * 10.0 ** gen.uniform(-3.0, 3.0, size=m)
    support = np.sort(gen.choice(m, size=size, replace=False))
    bits = sign_bits(gen, size, k)
    if k % 8:  # padding bits the kernel must ignore
        bits[:, -1] |= gen.integers(0, 256, size=size, dtype=np.uint8) >> (k % 8)
    rows = unpack_signs(bits, k).T
    expected = _unchunked_product(hidden, support, rows, groups, group_count)
    oracle = MeasurementOracle(hidden)
    packed = oracle.measure_rows(support, bits, stage="precond", groups=groups,
                                 group_count=group_count, row_count=k)
    assert oracle.stage_costs() == {"precond": k * group_count}
    assert oracle.cost == k * group_count
    assert packed.shape == (k, group_count)
    assert np.array_equal(packed, expected)


def test_a_group_larger_than_a_chunk_ends_the_chunks(monkeypatch):
    # groups of 10 and chunk + 188 rows: two blocks, each unpacked once, and
    # no empty block after the large last group; einsum reads each block as
    # int8 signs, never as a float64 block
    shapes, block_dtypes = [], []

    def spy(packed, k):
        signs = unpack_signs(packed, k)
        shapes.append(signs.shape)
        return signs

    def einsum_spy(subscripts, data, block, **kwargs):
        block_dtypes.append(block.dtype)
        return einsum(subscripts, data, block, **kwargs)

    einsum = np.einsum
    monkeypatch.setattr(oracle_module, "unpack_signs", spy)
    monkeypatch.setattr(np, "einsum", einsum_spy)
    gen = RngStream(11).child("chunks").generator
    big = oracle_module.CHUNK_ROWS + 188
    hidden = gen.standard_normal(10 + big)
    support, groups = np.arange(10 + big), np.repeat([0, 1], [10, big])
    bits = sign_bits(gen, support.size, 9)
    values = MeasurementOracle(hidden).measure_rows(support, bits, groups=groups,
                                                    group_count=2, row_count=9, stage="t")
    assert shapes == [(10, 9), (big, 9)]
    assert block_dtypes == [np.int8, np.int8]
    expected = _unchunked_product(hidden, support, unpack_signs(bits, 9).T, groups, 2)
    assert np.array_equal(values, expected)


@pytest.mark.parametrize("buckets", [27, 54, 108, 215])
def test_packed_product_on_a_dense_pass_equals_the_float_product_bytewise(buckets):
    # a dense preconditioned pass: every one of m = 4,096 coordinates is
    # live, in equi-hash buckets of 19 to 152 rows, so every group is shared
    m, k = 4096, 701
    rng = RngStream(buckets).child("dense-pass")
    gen = rng.child("x").generator
    hidden = gen.standard_normal(m) * 10.0 ** gen.uniform(-3.0, 3.0, size=m)
    support, groups = np.arange(m), equi_hash(m, buckets, rng.child("hash")) - 1
    bits = sign_bits(gen, m, k)
    expected = _unchunked_product(hidden, support, unpack_signs(bits, k).T, groups, buckets)
    values = MeasurementOracle(hidden).measure_rows(support, bits, groups=groups,
                                                    group_count=buckets, row_count=k,
                                                    stage="precond")
    assert np.array_equal(values, expected)


def test_grouped_measure_rows_rejects_bad_groups():
    oracle = MeasurementOracle(np.arange(8.0))
    support = np.array([0, 3, 5])
    for rows, k in ((np.ones((1, 3)), None), (np.zeros((3, 1), dtype=np.uint8), 5)):
        def measure(groups, group_count=2, row_count=k):
            return oracle.measure_rows(support, rows, stage="t", groups=groups,
                                       group_count=group_count, row_count=row_count)
        with pytest.raises(DimensionError):
            measure([0, 1])
        # a float id raises instead of being truncated, integral or not
        for groups in ([0.7, 1.2, 1.9], [0.0, 1.0, 1.0]):
            with pytest.raises(DimensionError):
                measure(groups)
        # so does a float count: 2.9 groups are not 2, nor 2.5 rows 2
        for groups, group_count in (([0, 1, 2], 2), ([0, -1, 1], 2), ([0, 0, 0], 0),
                                    ([0, 0, 0], None), ([0, 1, 1], 2.9)):
            with pytest.raises(ParameterError):
                measure(groups, group_count)
        with pytest.raises(ParameterError):
            measure([0, 1, 1], row_count=2.5)
    assert oracle.cost == 0


def test_charge_and_stage_accounting():
    # every entry point names its stage, and the cost is the sum of the ledger
    oracle = MeasurementOracle([1.0, 2.0])
    rng = RngStream(8).child("sketch")
    calls = (
        lambda stage: oracle.measure_rows([0], [[1.0]], stage),
        lambda stage: oracle.charge(10, stage),
        lambda stage: oracle.read_entries([1], stage),
        lambda stage: oracle.measure_rows([0, 1], [[1.0, 1.0]], stage, [0, 1], 2),
        lambda stage: oracle.gaussian_sketch(3, rng, stage),
    )
    for call, stage in zip(calls, "abaca"):
        call(stage)
        assert oracle.cost == sum(oracle.stage_costs().values())
    assert oracle.cost == 17
    assert oracle.stage_costs() == {"a": 5, "b": 10, "c": 2}
    # an unlabelled call is a TypeError, before it charges
    for entry, args in ((oracle.measure_rows, ([0], [[1.0]])), (oracle.charge, (3,)),
                        (oracle.read_entries, ([0],)), (oracle.gaussian_sketch, (3, rng))):
        with pytest.raises(TypeError):
            entry(*args)
    # and the breakdown is a copy
    oracle.stage_costs()["a"] = 0
    assert oracle.cost == 17
    assert oracle.stage_costs() == {"a": 5, "b": 10, "c": 2}


def test_dimension_errors():
    oracle = MeasurementOracle([1.0, 2.0])
    with pytest.raises(DimensionError):
        oracle.measure_rows([2], [[1.0]], stage="t")
    with pytest.raises(DimensionError):
        oracle.read_entries([-1], stage="t")
    with pytest.raises(DimensionError):
        oracle.read_entries([0, 5], stage="t")
    with pytest.raises(DimensionError):
        oracle.measure_rows([0, 1], np.ones((2, 3)), stage="t")
    one_group = {"stage": "t", "groups": [0, 0], "group_count": 1}
    with pytest.raises(DimensionError):  # packed rows: one byte row per support entry
        oracle.measure_rows([0, 1], np.zeros((3, 2), dtype=np.uint8), row_count=9, **one_group)
    with pytest.raises(DimensionError):
        oracle.measure_rows([0, 1], np.zeros((2, 1), dtype=np.uint8), row_count=9, **one_group)
    with pytest.raises(DimensionError):
        oracle.measure_rows([0, 1], np.zeros((2, 1), dtype=np.uint8), row_count=0, **one_group)
    with pytest.raises(ParameterError):  # packed rows come with groups
        oracle.measure_rows([0, 1], np.zeros((2, 2), dtype=np.uint8), row_count=9, stage="t")
    with pytest.raises(DimensionError):  # grouped float rows are one row
        oracle.measure_rows([0, 1], np.ones((2, 2)), **one_group)
    # a non-integer index raises instead of being truncated, integral or not
    with pytest.raises(DimensionError):
        oracle.read_entries([1.7], stage="t")
    with pytest.raises(DimensionError):
        oracle.measure_rows([0.5, 1.0], [[1.0, 1.0]], stage="t")
    with pytest.raises(DimensionError):
        oracle.measure_rows(np.array([0.0, 1.0]), [[1.0, 1.0]], **one_group)
    for index in ([1.5, 3.9], [1.0, 3.0]):
        with pytest.raises(DimensionError):
            SparseVector(10, index, [1.0, 2.0])
    # a float count or dimension is a parameter error, never truncated
    for count in (2.7, 2.0):
        with pytest.raises(ParameterError):
            oracle.charge(count, stage="t")
    with pytest.raises(ParameterError):
        oracle.gaussian_sketch(2.5, RngStream(9).child("g"), stage="t")
    with pytest.raises(ParameterError):
        SparseVector(3.7, [1], [1.0])
    assert oracle.cost == 0
    # an empty list is float64 to numpy and stays the empty index
    assert oracle.read_entries([], stage="t").size == 0
    assert SparseVector(10, [], []).index.dtype == np.intp


def test_ids_are_checked_by_one_unsigned_reduction():
    # a negative intp id reads as unsigned above every bound, wherever it
    # stands in the array and whatever the array's strides; the errors are
    # those of the two-sided check
    m = 2**20
    oracle = MeasurementOracle(SparseVector(m, [3, 9], [1.0, -2.0]))
    tail = np.arange(m, dtype=np.intp)
    tail[-1] = -1
    with pytest.raises(DimensionError, match=r"must lie in \[0, 1048576\)"):
        oracle.read_entries(tail, stage="t")
    with pytest.raises(DimensionError):
        as_index_array(tail, m)
    strided = np.arange(0, 2 * m, dtype=np.intp)[::2]  # ids 0, 2, ..., 2m - 2
    assert not strided.flags.contiguous
    assert np.array_equal(as_index_array(strided[: m // 2], m), np.arange(0, m, 2))
    with pytest.raises(DimensionError):
        as_index_array(strided, m)
    negative = np.arange(-8, 8, dtype=np.intp)[::-2]
    with pytest.raises(DimensionError):
        as_index_array(negative, m)
    # bounds past every intp: a negative id still fails
    for bound in (2**63, 2**64):
        with pytest.raises(DimensionError):
            SparseVector(bound, [-1], [1.0])
    # group ids: the last of many negative, or a strided view
    support = np.arange(4096)
    packed = np.zeros((support.size, 1), dtype=np.uint8)
    groups = np.zeros(support.size, dtype=np.intp)
    groups[-1] = -1
    every_other = np.zeros(2 * support.size, dtype=np.intp)[::2]
    every_other[-1] = 2
    for bad in (groups, every_other):
        with pytest.raises(ParameterError, match=r"group ids must lie in \[0, group_count\)"):
            oracle.measure_rows(support, packed, stage="t", groups=bad, group_count=2,
                                row_count=5)
    every_other[-1] = 1
    y = oracle.measure_rows(support, packed, stage="t", groups=every_other, group_count=2,
                            row_count=5)
    assert y.shape == (5, 2) and oracle.cost == 10


def test_vector_validation():
    with pytest.raises(ParameterError):
        MeasurementOracle([1.0, np.nan])
    with pytest.raises(ParameterError):
        MeasurementOracle([np.inf])
    with pytest.raises(DimensionError):
        MeasurementOracle([])
    # a sparse vector checks its own entries, before any oracle holds it
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError):
            SparseVector(4, [1, 3], [1.0, bad])


def test_the_nonzero_support_is_built_at_construction_and_read_only():
    # zeros and -0.0 are not in the support, in either form of the vector
    dense = np.array([0.0, -0.0, 2.0, 0.0, -1.5, -0.0])
    sparse = SparseVector(6, [1, 2, 3, 4], [-0.0, 2.0, 0.0, -1.5])
    for hidden in (dense, sparse):
        oracle = MeasurementOracle(hidden)
        support = oracle.nonzero_indices()
        assert np.array_equal(support, np.flatnonzero(dense)) and support.dtype == np.intp
        assert oracle.nonzero_indices() is support  # a plain read of one array
        with pytest.raises(ValueError):
            support[0] = 0


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.integers(1, 3), st.integers(1, 2**12)), st.integers(0, 70),
       st.integers(0, 2**32 - 1))
@example(m=1, nnz=0, seed=0)
@example(m=1, nnz=1, seed=1)
@example(m=3, nnz=3, seed=2)
@example(m=2**12, nnz=70, seed=3)
def test_sparse_and_dense_hidden_vectors_answer_alike(m, nnz, seed):
    # every entry point and affordance gives the same bytes and ledger on a
    # SparseVector as on its dense copy, including queries of >= m entries,
    # which read the densified copy the sparse oracle caches
    gen = RngStream(seed).child("sparse-vs-dense").generator
    nnz = min(nnz, m)
    index = np.sort(gen.choice(m, size=nnz, replace=False))
    values = gen.standard_normal(nnz) * 10.0 ** gen.uniform(-3.0, 3.0, size=nnz)
    sparse = SparseVector(m, index, values)
    dense = np.asarray(sparse)
    assert dense.shape == (m,) and np.array_equal(np.flatnonzero(dense), index)
    oracles = MeasurementOracle(sparse), MeasurementOracle(dense)

    def both(call):
        first, second = (call(oracle) for oracle in oracles)
        assert _same(first, second)
        return first

    assert both(lambda o: o.nonzero_indices()).dtype == np.intp
    assert both(lambda o: o.dimension) == m
    for size in (0, 1, int(gen.integers(1, 2 * m + 1)), m):
        query = gen.permutation(m) if size == m else gen.integers(0, m, size=size)
        both(lambda o: o.read_entries(query, stage="reads"))
        rows = gen.standard_normal((int(gen.integers(1, 4)), size))
        both(lambda o: o.measure_rows(query, rows, stage="rows"))
        group_count = int(gen.integers(1, 9))
        groups = gen.integers(0, group_count, size=size)
        both(lambda o: o.measure_rows(query, rows[:1], stage="group", groups=groups,
                                      group_count=group_count))
        k = int(gen.choice([1, 9, 701]))
        bits = sign_bits(gen, size, k)
        both(lambda o: o.measure_rows(query, bits, stage="packed", groups=groups,
                                      group_count=group_count, row_count=k))
    n = int(gen.integers(1, 50))
    both(lambda o: o.gaussian_sketch(n, RngStream(seed).child("sketch"), stage="ls"))
    sparse_oracle, dense_oracle = oracles
    assert sparse_oracle.cost == dense_oracle.cost
    assert sparse_oracle.stage_costs() == dense_oracle.stage_costs()
    assert sparse_oracle._dense is not None  # the full-size queries densified it


def test_sparse_vectors_are_validated_like_dense_ones():
    with pytest.raises(DimensionError):  # out of range
        SparseVector(4, [1, 4], [1.0, 2.0])
    with pytest.raises(DimensionError):
        SparseVector(4, [-1, 2], [1.0, 2.0])
    with pytest.raises(DimensionError):  # duplicate
        SparseVector(4, [2, 2], [1.0, 2.0])
    with pytest.raises(DimensionError):  # unsorted
        SparseVector(4, [3, 1], [1.0, 2.0])
    with pytest.raises(DimensionError):  # one value per index
        SparseVector(4, [1, 2], [1.0])
    with pytest.raises(DimensionError):  # as_vector's length >= 1
        SparseVector(0, [], [])
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError):
            MeasurementOracle(SparseVector(4, [1, 3], [1.0, bad]))
    # an explicit zero is an entry, not part of the nonzero support
    x = SparseVector(5, [0, 2, 4], [1.0, 0.0, -2.0])
    assert np.array_equal(MeasurementOracle(x).nonzero_indices(), [0, 4])
    assert x[2] == 0.0 and x[3] == 0.0 and x[4] == -2.0
    assert np.array_equal(x[np.array([4, 1, 0])], [-2.0, 0.0, 1.0])
    for key in (5, -1, [0, 5], 1.0, slice(0, 2)):
        with pytest.raises(IndexError):
            x[key]


def test_a_sparse_vector_holds_read_only_copies_of_its_inputs():
    # the oracle keeps the vector's arrays without copying them, so writes to
    # the caller's inputs must reach neither the vector nor the oracle
    index, values = np.array([1, 3, 6]), np.array([2.0, -1.0, 0.5])
    x = SparseVector(8, index, values)
    oracle = MeasurementOracle(x)
    index[:], values[:] = [0, 2, 7], 9.0
    assert np.array_equal(x.index, [1, 3, 6]) and np.array_equal(x.values, [2.0, -1.0, 0.5])
    for held in (x.index, x.values):
        with pytest.raises(ValueError):
            held[0] = 0
    assert np.array_equal(oracle.nonzero_indices(), [1, 3, 6])
    assert np.array_equal(oracle.measure_rows([1, 6, 7], np.ones((1, 3)), stage="t"), [2.5])
    assert np.array_equal(oracle.read_entries(np.arange(8), stage="t"),  # m entries densify it
                          [0.0, 2.0, 0.0, -1.0, 0.0, 0.0, 0.5, 0.0])


def test_lp_norm_examples():
    assert lp_norm([3.0, 4.0], 2) == 5.0
    assert lp_norm([1.0, -1.0, 1.0], 1) == 3.0
    assert lp_norm([1.0, -2.0], math.inf) == 2.0
    for p in (0.5, math.nan):
        with pytest.raises(ParameterError):
            lp_norm([1.0], p)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-100.0, 100.0))
def test_measure_is_linear(seed, t):
    gen = RngStream(seed).child("lin").generator
    hidden = gen.standard_normal(20)
    oracle = MeasurementOracle(hidden)
    sup_f = np.sort(gen.choice(20, size=7, replace=False))
    sup_g = np.sort(gen.choice(20, size=5, replace=False))
    f, g = np.zeros(20), np.zeros(20)  # the two functionals as dense rows
    f[sup_f] = gen.standard_normal(7)
    g[sup_g] = gen.standard_normal(5)
    support = np.arange(20)
    lhs, ft = oracle.measure_rows(support, np.vstack([f + g, t * f]), stage="t")
    rhs_f, rhs_g = oracle.measure_rows(support, np.vstack([f, g]), stage="t")
    assert lhs == pytest.approx(rhs_f + rhs_g, rel=1e-12, abs=1e-12)
    assert ft == pytest.approx(t * rhs_f, rel=1e-12, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1.0, 2.0), (1.5, 3.0), (2.0, 7.0)]))
def test_holder_interpolation_bound(seed, pq):
    p, q = pq
    gen = RngStream(seed).child("holder").generator
    v = gen.standard_normal(40)
    lam = p / q
    lhs = lp_norm(v, q)
    rhs = lp_norm(v, p) ** lam * lp_norm(v, math.inf) ** (1 - lam)
    assert lhs <= rhs * (1 + 1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(1.0, 2.0, 4), (1.0, 3.0, 9), (2.0, 5.0, 3)]))
def test_best_k_term_tail_bound(seed, pqk):
    p, q, k = pqk
    gen = RngStream(seed).child("tail").generator
    v = gen.standard_normal(64)
    v /= lp_norm(v, p)  # unit l_p ball
    order = np.argsort(-np.abs(v), kind="stable")
    tail = v.copy()
    tail[order[:k]] = 0.0
    assert lp_norm(tail, q) <= k ** (-(1 / p - 1 / q)) * (1 + 1e-12)
