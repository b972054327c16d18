import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasketch.errors import DimensionError, ParameterError
from adasketch.oracle import MeasurementOracle, lp_norm
from adasketch.rng import RngStream


def test_measure_coordinate_functional():
    oracle = MeasurementOracle([1.0, 2.0, 3.0])
    assert np.array_equal(oracle.measure_rows([1], [[1.0]]), [2.0])
    assert oracle.cost == 1


def test_measure_sum_functional():
    oracle = MeasurementOracle([1.0, 2.0, 3.0])
    assert np.array_equal(oracle.measure_rows([0, 1, 2], [[1.0, 1.0, 1.0]]), [6.0])


def test_measure_sign_pattern():
    oracle = MeasurementOracle([0.5, -0.5])
    assert np.array_equal(oracle.measure_rows([0, 1], [[1.0, -1.0]]), [1.0])


def test_read_entry_values_and_cost():
    oracle = MeasurementOracle([7.0, 0.0])
    assert np.array_equal(oracle.read_entries([0]), [7.0])
    assert np.array_equal(oracle.read_entries([1]), [0.0])
    assert oracle.cost == 2
    assert np.array_equal(MeasurementOracle([-3.5]).read_entries([0]), [-3.5])


def test_cost_counts_each_evaluation_exactly_once():
    oracle = MeasurementOracle([1.0, 2.0, 3.0])
    assert oracle.cost == 0
    for _ in range(3):
        oracle.measure_rows([0], [[1.0]])
    assert oracle.cost == 3
    oracle.measure_rows([0, 1, 2], [[0.0, 1.0, 0.0]])
    oracle.read_entries([2])
    assert oracle.cost == 5


def test_batch_entry_points_match_single_calls():
    rng = RngStream(3).child("x").generator
    hidden = rng.standard_normal(32)
    oracle = MeasurementOracle(hidden)
    support = np.array([1, 4, 9, 16, 25])
    rows = rng.standard_normal((4, 5))
    batch = oracle.measure_rows(support, rows)
    assert oracle.cost == 4
    singles = [oracle.measure_rows(support, row[None])[0] for row in rows]
    assert np.allclose(batch, singles, rtol=1e-12)
    assert oracle.cost == 8

    reads = oracle.read_entries([3, 5, 7])
    assert np.array_equal(reads, hidden[[3, 5, 7]])
    assert oracle.cost == 11


def _per_group_rows(hidden, support, rows, groups, group_count):
    """Reference values: one ungrouped call per group, on its own entries."""
    reference = MeasurementOracle(hidden)
    columns = [reference.measure_rows(support[groups == g], rows[:, groups == g])
               for g in range(group_count)]
    assert reference.cost == rows.shape[0] * group_count
    return np.stack(columns, axis=1)


def test_grouped_measure_rows_matches_per_group_rows():
    rng = RngStream(6).child("x").generator
    hidden = rng.standard_normal(40)
    support = np.array([2, 3, 7, 11, 12, 30, 31, 39])
    groups = np.array([3, 0, 3, 2, 0, 3, 2, 0])  # unsorted; group 1 is empty
    rows = rng.standard_normal((5, support.size))
    oracle = MeasurementOracle(hidden)
    values = oracle.measure_rows(support, rows, stage="seg", groups=groups, group_count=4)
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
    sums = oracle.measure_rows(support, weights[None], groups=groups, group_count=5)
    assert oracle.cost == 5
    assert np.array_equal(sums, np.bincount(groups, weights=weights * hidden,
                                            minlength=5)[None])
    assert sums[0, 2] == 0.0
    expected = _per_group_rows(hidden, support, weights[None], groups, 5)
    assert np.allclose(sums, expected, rtol=1e-12, atol=1e-15)


def test_grouped_measure_rows_one_group_is_the_ungrouped_call():
    rng = RngStream(7).child("x").generator
    hidden = rng.standard_normal(16)
    support = np.array([1, 5, 6, 14])
    rows = rng.standard_normal((3, support.size))
    oracle = MeasurementOracle(hidden)
    values = oracle.measure_rows(support, rows, groups=np.zeros(4, dtype=int), group_count=1)
    assert values.shape == (3, 1)
    assert oracle.cost == 3
    assert np.array_equal(values[:, 0], MeasurementOracle(hidden).measure_rows(support, rows))


def test_grouped_measure_rows_rejects_bad_groups():
    oracle = MeasurementOracle(np.arange(8.0))
    support, rows = np.array([0, 3, 5]), np.ones((2, 3))
    with pytest.raises(DimensionError):
        oracle.measure_rows(support, rows, groups=[0, 1], group_count=2)
    with pytest.raises(ParameterError):
        oracle.measure_rows(support, rows, groups=[0, 1, 2], group_count=2)
    with pytest.raises(ParameterError):
        oracle.measure_rows(support, rows, groups=[0, -1, 1], group_count=2)
    with pytest.raises(ParameterError):
        oracle.measure_rows(support, rows, groups=[0, 0, 0], group_count=0)
    with pytest.raises(ParameterError):
        oracle.measure_rows(support, rows, groups=[0, 0, 0])
    assert oracle.cost == 0


def test_charge_and_stage_accounting():
    oracle = MeasurementOracle([1.0, 2.0])
    oracle.measure_rows([0], [[1.0]], stage="a")
    oracle.charge(10, stage="b")
    oracle.read_entries([1], stage="a")
    assert oracle.cost == 12
    assert oracle.stage_costs() == {"a": 2, "b": 10}


def test_dimension_errors():
    oracle = MeasurementOracle([1.0, 2.0])
    with pytest.raises(DimensionError):
        oracle.measure_rows([2], [[1.0]])
    with pytest.raises(DimensionError):
        oracle.read_entries([-1])
    with pytest.raises(DimensionError):
        oracle.read_entries([0, 5])
    with pytest.raises(DimensionError):
        oracle.measure_rows([0, 1], np.ones((2, 3)))


def test_vector_validation():
    with pytest.raises(ParameterError):
        MeasurementOracle([1.0, np.nan])
    with pytest.raises(ParameterError):
        MeasurementOracle([np.inf])
    with pytest.raises(DimensionError):
        MeasurementOracle([])


def test_lp_norm_examples():
    assert lp_norm([3.0, 4.0], 2) == 5.0
    assert lp_norm([1.0, -1.0, 1.0], 1) == 3.0
    assert lp_norm([1.0, -2.0], math.inf) == 2.0
    with pytest.raises(ParameterError):
        lp_norm([1.0], 0.5)


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
    lhs, ft = oracle.measure_rows(support, np.vstack([f + g, t * f]))
    rhs_f, rhs_g = oracle.measure_rows(support, np.vstack([f, g]))
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
