import re
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from femasm import (
    CscBuilder,
    CscMatrix,
    MatrixKind,
    Pattern,
    Strategy,
    assemble,
    csc_from_triplets,
    generate_disk_mesh,
    generate_unit_square_mesh,
    max_abs_diff,
    write_matrix_market,
)
import femasm.sparse
from femasm.sparse import BLOCK_BYTES, TEXT_BLOCK, index_dtype

import oracles
from oracles import dense_from_triplets
from test_assembly import kind_kwargs

# worked 3x4 example: duplicate-free triplets of a small CSC matrix
EX_I = [0, 1, 2, 2, 0, 1]
EX_J = [0, 1, 1, 2, 3, 3]
EX_K = [1.0, 5.0, 1.0, 2.0, 6.0, 4.0]
EX_DENSE = np.array([[1.0, 0, 0, 6], [0, 5, 0, 4], [0, 1, 2, 0]])


def example_matrix() -> CscMatrix:
    return csc_from_triplets(EX_I, EX_J, EX_K, 3, 4)


class TestFromTriplets:
    def test_worked_example_arrays(self):
        a = example_matrix()
        assert a.values.tolist() == [1, 5, 1, 2, 6, 4]
        assert a.row_idx.tolist() == [0, 1, 2, 2, 0, 1]
        assert a.col_ptr.tolist() == [0, 1, 3, 4, 6]

    def test_duplicates_summed(self):
        a = csc_from_triplets([0, 0], [0, 0], [2.0, 3.0], 1, 1)
        assert a.nnz == 1 and a.values[0] == 5.0

    def test_exact_cancellation_dropped(self):
        a = csc_from_triplets([0, 0], [0, 0], [2.0, -2.0], 1, 1)
        assert a.nnz == 0

    def test_input_zeros_skipped(self):
        a = csc_from_triplets([0, 1], [0, 0], [0.0, 1.0], 2, 1)
        assert a.nnz == 1 and a.get(0, 0) == 0.0 and a.get(1, 0) == 1.0

    def test_empty_input(self):
        a = csc_from_triplets([], [], [], 3, 3)
        assert a.nnz == 0 and a.get(2, 2) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            csc_from_triplets([0, 1], [0], [1.0, 2.0], 2, 2)

    @pytest.mark.parametrize(
        "vals, shown",
        [([1.0, 2.0, 3.0], "2 indices, 3 values"), ([1.0], "2 indices, 1 values"),
         ([], "2 indices, 0 values")],
    )
    def test_value_length_mismatch_names_both_lengths(self, vals, shown):
        with pytest.raises(ValueError) as exc:
            csc_from_triplets([0, 1], [0, 0], vals, 2, 1)
        assert str(exc.value) == f"triplet arrays disagree in length: {shown}"

    def test_out_of_range_reports_position(self):
        with pytest.raises(ValueError, match="position 1"):
            csc_from_triplets([0, 5], [0, 0], [1.0, 2.0], 3, 3)
        with pytest.raises(ValueError, match="column"):
            csc_from_triplets([0, 0], [0, -1], [1.0, 2.0], 3, 3)

    @pytest.mark.parametrize(
        "rows, shown",
        [
            ([0, 1.7], "1.7"),  # non-integral
            ([0, np.nan], "nan"),
            ([0, np.inf], "inf"),
            ([0, -np.inf], "-inf"),
            ([0, 2.0**63], "9.223372036854776e+18"),  # outside int64, as floats
            (np.array([0, 2**63], np.uint64), "9223372036854775808"),
            ([0, -(2**64)], "-1.8446744073709552e+19"),  # as Python ints
        ],
    )
    def test_rejects_non_integer_index(self, rows, shown):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning before the error
            with pytest.raises(ValueError) as exc:
                csc_from_triplets(rows, [0, 0], [1.0, 2.0], 2, 1)
        assert str(exc.value) == f"row index {shown} at position 1 is not an int64 integer"

    def test_names_the_first_non_integer_index(self):
        with pytest.raises(ValueError, match="row index 1.7 at position 0 "):
            csc_from_triplets([1.7, 0.2], [0, 0.9], [1.0, 2.0], 2, 1)
        with pytest.raises(ValueError, match="column index 0.9 at position 1 "):
            csc_from_triplets([1.0, 0.0], [0, 0.9], [1.0, 2.0], 2, 1)
        with pytest.raises(ValueError, match="column index nan at position 0 "):
            Pattern.from_triplets([0], np.array([np.nan], np.float32), 2, 1)

    def test_integral_float_indices(self):
        # Matlab-style index arrays: floats that hold integers
        cols = np.array([3, 0, 3], np.float32)
        a = csc_from_triplets([2.0, 0.0, 2.0], cols, [1.0, 2.0, 3.0], 3, 4)
        b = csc_from_triplets([2, 0, 2], [3, 0, 3], [1.0, 2.0, 3.0], 3, 4)
        assert a.col_ptr.tolist() == b.col_ptr.tolist() == [0, 1, 1, 1, 2]
        assert a.row_idx.tolist() == b.row_idx.tolist() == [0, 2]
        assert a.values.tolist() == b.values.tolist() == [2.0, 4.0]
        with pytest.raises(ValueError, match="-9223372036854775808 at position 0 out of range"):
            csc_from_triplets([-(2.0**63)], [0], [1.0], 2, 1)

    def test_zeros_never_reach_the_sort(self, monkeypatch):
        rng = np.random.default_rng(8)
        length = 3000
        i = rng.integers(0, 40, length)
        j = rng.integers(0, 30, length)
        k = np.round(rng.standard_normal(length) * 8) / 8
        k[rng.random(length) < 0.8] = 0.0
        k[rng.random(length) < 0.1] = -0.0
        reference = Pattern.from_triplets(i, j, 40, 30).assemble_blocks((k,))
        sorted_streams = []
        original = femasm.sparse._sort_pattern

        def spy(rows, cols, n_rows, n_cols):
            sorted_streams.append((rows, cols))
            return original(rows, cols, n_rows, n_cols)

        monkeypatch.setattr(femasm.sparse, "_sort_pattern", spy)
        a = csc_from_triplets(i, j, k, 40, 30)
        ((rows, cols),) = sorted_streams
        assert np.array_equal(rows, i[k != 0.0]) and np.array_equal(cols, j[k != 0.0])
        assert rows.size < 0.3 * length
        dense = dense_from_triplets(i, j, k, 40, 30)
        assert np.array_equal(a.to_dense().view(np.int64), dense.view(np.int64))
        assert np.array_equal(a.col_ptr, reference.col_ptr)
        assert np.array_equal(a.row_idx, reference.row_idx)
        assert np.array_equal(a.values.view(np.int64), reference.values.view(np.int64))

    def test_checks_the_stream_once(self, monkeypatch):
        checked = []
        original = femasm.sparse._index_stream

        def spy(*args):
            checked.append(args)
            return original(*args)

        monkeypatch.setattr(femasm.sparse, "_index_stream", spy)
        csc_from_triplets(EX_I, EX_J, EX_K, 3, 4)
        assert len(checked) == 1
        Pattern.from_triplets(EX_I, EX_J, 3, 4)
        assert len(checked) == 2

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_bad_index_of_a_zero_still_raises(self, zero):
        with pytest.raises(ValueError, match="row index 5 at position 1 out of range"):
            csc_from_triplets([0, 5], [0, 0], [1.0, zero], 3, 3)
        with pytest.raises(ValueError, match="column index 1.5 at position 0 "):
            csc_from_triplets([0, 1], [1.5, 0], [zero, 1.0], 3, 3)
        with pytest.raises(ValueError, match="length"):
            csc_from_triplets([0, 1], [0], [zero, zero], 3, 3)

    def test_matches_dense_oracle_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            m = int(rng.integers(1, 50))
            n = int(rng.integers(1, 50))
            length = int(rng.integers(0, 500))
            i = rng.integers(0, m, length)
            j = rng.integers(0, n, length)
            k = np.round(rng.standard_normal(length) * 8) / 8  # force duplicates to collide
            k[rng.random(length) < 0.1] = 0.0
            a = csc_from_triplets(i, j, k, m, n)
            assert np.array_equal(a.to_dense(), dense_from_triplets(i, j, k, m, n))


class TestCscMatrix:
    def test_accepts_canonical_arrays(self):
        a = CscMatrix(3, 4, [0, 1, 3, 4, 6], EX_I, EX_K)
        assert np.array_equal(a.to_dense(), EX_DENSE)
        assert a.col_ptr.dtype == a.row_idx.dtype == index_dtype(6) == np.int32

    def test_accepts_integral_floats(self):
        a = CscMatrix(2, 1, [0.0, 1.0], np.array([1.0]), [3.0])
        assert a.col_ptr.tolist() == [0, 1] and a.row_idx.tolist() == [1]
        assert a.col_ptr.dtype == a.row_idx.dtype == index_dtype(2) == np.int32

    @pytest.mark.parametrize(
        "col_ptr, row_idx, message",
        [
            ([0, 1.5], [0], "col_ptr entry 1.5 at position 1 is not an int64 integer"),
            ([0, np.nan], [0], "col_ptr entry nan at position 1 is not an int64 integer"),
            ([0, 1], [0.5], "row index 0.5 at position 0 is not an int64 integer"),
            ([0, 1], [np.inf], "row index inf at position 0 is not an int64 integer"),
            ([0, 1, 1], [0], "col_ptr must have n_cols"),
            ([0, 2], [0], "col_ptr must start at 0 and end at nnz"),
            ([0, 1], [2], "row index 2 at position 0 out of range"),
        ],
    )
    def test_rejects_bad_arrays(self, col_ptr, row_idx, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                CscMatrix(2, 1, col_ptr, row_idx, [3.0] * len(row_idx))

    def test_ravels_values_as_it_ravels_indices(self):
        a = CscMatrix(2, 1, [0, 2], [[0], [1]], [[1.0], [2.0]])
        assert a.values.shape == a.row_idx.shape == (2,)
        assert a.get(0, 0) == 1.0 and a.get(1, 0) == 2.0

    def test_refuses_values_of_another_length(self):
        with pytest.raises(ValueError, match="1 row indices but 2 values"):
            CscMatrix(2, 1, [0, 1], [0], [1.0, 2.0])

    def test_has_no_unchecked_switch(self):
        with pytest.raises(TypeError):
            CscMatrix(2, 1, [0, 1], [0], [1.0], validate=False)

    def test_unvalidated_arrays_still_refuse_fractions(self):
        # the index conversion comes before the structure checks, col_ptr first
        with pytest.raises(ValueError, match="col_ptr entry 1.9 at position 1 is not an int64"):
            CscMatrix(2, 1, [0, 1.9], [1.7], [3.0])
        with pytest.raises(ValueError, match="row index 1.7 at position 0 is not an int64"):
            CscMatrix(2, 1, [0, 1], [1.7], [3.0])


class TestOwnsItsArrays:
    """A public constructor stores copies of the arrays it is given: they
    stay writable, and editing them afterwards changes no stored field."""

    def test_csc_matrix(self):
        cp, ri = np.array([0, 1, 2], dtype=np.int32), np.array([0, 1], dtype=np.int32)
        v = np.array([1.0, 2.0])
        m = CscMatrix(2, 2, cp, ri, v)
        assert cp.flags.writeable and ri.flags.writeable and v.flags.writeable
        v[0] = 99.0
        assert m.get(0, 0) == 1.0 and m.values.tolist() == [1.0, 2.0]
        cp[1] = 2  # would move entry (1, 1) to (1, 0), past the structure check
        assert m.col_ptr.tolist() == [0, 1, 2] and m.get(1, 1) == 2.0 and m.get(1, 0) == 0.0
        ri[1] = 0
        assert m.row_idx.tolist() == [0, 1]

    def test_pattern(self):
        slot = np.array([0, 1], dtype=np.int32)
        p = Pattern(2, 2, [0, 1, 2], [0, 1], slot)
        assert slot.flags.writeable
        slot[0] = 7  # a slot past nnz = 2
        assert p.slot.tolist() == [0, 1]


class TestIndexWidth:
    """Every sparse structure is int32 while its indices and offsets fit,
    int64 beyond; the large cases hold one entry, so nothing large is
    allocated."""

    BIG = 2**31  # rows: int64 by max(n_rows, nnz), though row 2**31 - 1 fits int32

    def test_rule(self):
        assert index_dtype(2**31 - 1) is np.int32
        assert index_dtype(2**31) is np.int64

    def test_triplets_keep_the_matrix_dtype(self):
        a = example_matrix()
        rows, cols, _ = a.triplets()
        assert rows.dtype == cols.dtype == a.col_ptr.dtype == np.int32
        assert cols.tolist() == EX_J and rows.tolist() == EX_I

    def assert_one_wide_entry(self, a: CscMatrix, value: float):
        assert a.col_ptr.dtype == a.row_idx.dtype == np.int64
        assert a.get(self.BIG - 1, 0) == value and a.get(0, 0) == 0.0
        rows, cols, vals = a.triplets()
        assert rows.dtype == cols.dtype == np.int64
        assert (rows.tolist(), cols.tolist(), vals.tolist()) == ([self.BIG - 1], [0], [value])

    def test_a_wide_matrix_is_int64(self):
        self.assert_one_wide_entry(CscMatrix(self.BIG, 1, [0, 1], [self.BIG - 1], [3.0]), 3.0)

    def test_a_wide_pattern_is_int64(self):
        made = Pattern(self.BIG, 1, [0, 1], [self.BIG - 1], [0, 0])
        found = Pattern.from_triplets([self.BIG - 1] * 2, [0, 0], self.BIG, 1)
        for p in (made, found):
            assert p.col_ptr.dtype == p.row_idx.dtype == p.slot.dtype == np.int64
            self.assert_one_wide_entry(p.assemble_blocks(([2.0, 0.5],)), 2.5)


class TestGet:
    def test_stored_value(self):
        assert example_matrix().get(0, 3) == 6.0

    def test_absent_value(self):
        assert example_matrix().get(2, 3) == 0.0

    def test_empty_matrix(self):
        a = csc_from_triplets([], [], [], 4, 4)
        assert a.get(1, 2) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            example_matrix().get(3, 0)

    def test_numpy_integer_indices(self):
        assert example_matrix().get(np.int64(0), np.int32(3)) == 6.0

    @pytest.mark.parametrize("i, j", [(0.9, 0), (0, 3.0), (np.float64(0.0), 0)])
    def test_refuses_non_integer_index(self, i, j):
        # 0.9 would otherwise find row 0 of column 0, which stores 1.0
        with pytest.raises(TypeError):
            example_matrix().get(i, j)


class TestSizes:
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: CscMatrix(n, 1, [0, 0], [], []),
            lambda n: CscMatrix(1, n, [0, 0, 0], [], []),
            lambda n: CscBuilder(n, 2),
            lambda n: CscBuilder(2, n),
            lambda n: Pattern.from_triplets([0], [0], n, 2),
            lambda n: csc_from_triplets([0], [0], [1.0], 2, n),
        ],
    )
    def test_refuses_non_integer_sizes(self, build):
        for bad in (2.5, 2.0, np.float64(2.0)):
            with pytest.raises(TypeError):
                build(bad)
        made = build(np.int64(2))
        assert type(made.n_rows) is int and type(made.n_cols) is int

    @pytest.mark.parametrize(
        "build",
        [
            lambda n_rows, n_cols: csc_from_triplets([5, 7], [3, 0], [1.0, 2.0], n_rows, n_cols),
            lambda n_rows, n_cols: Pattern.from_triplets([5, 7], [3, 0], n_rows, n_cols),
        ],
        ids=["csc_from_triplets", "Pattern.from_triplets"],
    )
    def test_refuses_a_shape_whose_sort_code_overflows(self, build):
        # the sort code col * n_rows + row is an int64; a wrapped code would
        # store a col_ptr that does not ascend
        for n_rows, n_cols in [(2**62, 4), (2**61, 4), (8, 2**60)]:
            with pytest.raises(ValueError) as exc:
                build(n_rows, n_cols)
            assert str(exc.value) == f"shape ({n_rows}, {n_cols}) has 2**63 or more positions"
        made = build(2**61 - 1, 4)  # 2**63 - 4 positions
        assert made.col_ptr.tolist() == [0, 1, 1, 1, 2]
        assert made.row_idx.tolist() == [7, 5]


class TestIncremental:
    def test_worked_example_insertion(self):
        b = CscBuilder(3, 4)
        for i, j, v in zip(EX_I, EX_J, EX_K):
            b.add(i, j, v)
        b.add(0, 1, 8.0)
        m = b.to_matrix()
        assert m.values.tolist() == [1, 8, 5, 1, 2, 6, 4]
        assert m.row_idx.tolist() == [0, 0, 1, 2, 2, 0, 1]
        assert m.col_ptr.tolist() == [0, 1, 4, 5, 7]

    def test_explicit_zero_is_stored(self):
        b = CscBuilder(2, 2)
        b.add(0, 0, 0.0)
        assert b.nnz == 1 and b.to_matrix().get(0, 0) == 0.0
        m = b.to_matrix()
        assert m.nnz == 1 and m.values[0] == 0.0
        assert csc_from_triplets(*m.triplets(), *m.shape).nnz == 0

    def test_repeated_adds_accumulate_in_place(self):
        b = CscBuilder(2, 2)
        b.add(1, 1, 1.0)
        b.add(1, 1, 2.0)
        assert b.nnz == 1 and b.to_matrix().get(1, 1) == 3.0

    def test_out_of_range(self):
        b = CscBuilder(2, 2)
        with pytest.raises(ValueError):
            b.add(2, 0, 1.0)

    def test_agrees_with_triplets_on_random_streams(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 20))
            length = int(rng.integers(1, 200))
            i = rng.integers(0, n, length)
            j = rng.integers(0, n, length)
            k = rng.standard_normal(length)
            b = CscBuilder(n, n)
            for ii, jj, vv in zip(i, j, k):
                b.add(ii, jj, vv)
            direct = csc_from_triplets(i, j, k, n, n)
            assert max_abs_diff(b.to_matrix(), direct) <= 1e-15

    def test_invariants_after_random_adds(self):
        rng = np.random.default_rng(5)
        b = CscBuilder(30, 17)
        for _ in range(400):
            b.add(int(rng.integers(0, 30)), int(rng.integers(0, 17)), rng.standard_normal())
        m = b.to_matrix()
        assert m.col_ptr[0] == 0 and m.col_ptr[-1] == m.nnz
        assert (np.diff(m.col_ptr) >= 0).all()
        for j in range(17):
            rows = m.row_idx[m.col_ptr[j] : m.col_ptr[j + 1]]
            assert (np.diff(rows) > 0).all()


class TestAddBlock:
    def test_ones_block_becomes_dense(self):
        b = CscBuilder(3, 3)
        b.add_block([0, 1, 2], [0, 1, 2], np.ones((3, 3)))
        m = b.to_matrix()
        assert m.nnz == 9
        assert np.array_equal(m.to_dense(), np.ones((3, 3)))

    def test_repeat_doubles(self):
        b = CscBuilder(3, 3)
        for _ in range(2):
            b.add_block([0, 1, 2], [0, 1, 2], np.ones((3, 3)))
        assert np.array_equal(b.to_matrix().to_dense(), 2 * np.ones((3, 3)))

    def test_overlapping_blocks_match_dense_oracle(self):
        rng = np.random.default_rng(2)
        dense = np.zeros((6, 6))
        b = CscBuilder(6, 6)
        for ids in ([0, 1, 2], [2, 3, 4], [1, 3, 5]):
            block = rng.standard_normal((3, 3))
            b.add_block(ids, ids, block)
            dense[np.ix_(ids, ids)] += block
        assert np.allclose(b.to_matrix().to_dense(), dense, rtol=0, atol=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="block"):
            CscBuilder(3, 3).add_block([0, 1], [0, 1, 2], np.ones((2, 2)))


class TestDenseAndDiff:
    def test_worked_example_dense(self):
        assert np.array_equal(example_matrix().to_dense(), EX_DENSE)

    def test_diff_self_is_zero(self):
        a = example_matrix()
        assert max_abs_diff(a, a) == 0.0

    def test_diff_perturbed(self):
        a = example_matrix()
        k = list(EX_K)
        k[2] += 1e-3
        b = csc_from_triplets(EX_I, EX_J, k, 3, 4)
        assert max_abs_diff(a, b) == pytest.approx(1e-3, rel=1e-9)

    def test_diff_shape_mismatch(self):
        a = example_matrix()
        b = csc_from_triplets([0], [0], [1.0], 3, 3)
        with pytest.raises(ValueError, match="shape"):
            max_abs_diff(a, b)

    def test_dense_guard(self):
        a = csc_from_triplets([0], [0], [1.0], 100_000, 10_000)
        with pytest.raises(ValueError, match="guard"):
            a.to_dense()


@st.composite
def triplet_streams(draw):
    """(rows, cols, vals, n_rows, n_cols): a short triplet stream on a small
    matrix, so positions repeat, with input 0.0 and -0.0, exact
    cancellations, and int32 or int64 indices."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    length = draw(st.integers(0, 40))
    rows = draw(st.lists(st.integers(0, m - 1), min_size=length, max_size=length))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=length, max_size=length))
    value = st.one_of(
        st.sampled_from([0.0, -0.0]),
        st.integers(-4, 4).map(float),
        st.floats(-1e3, 1e3, allow_nan=False),
    )
    vals = draw(st.lists(value, min_size=length, max_size=length))
    # exact cancellations: minus a position's running sum, appended after it
    for p in draw(st.lists(st.integers(0, length - 1), max_size=3)) if length else []:
        total = sum(v for r, c, v in zip(rows, cols, vals) if (r, c) == (rows[p], cols[p]))
        rows.append(rows[p])
        cols.append(cols[p])
        vals.append(-total)
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return np.array(rows, dtype), np.array(cols, dtype), np.array(vals, np.float64), m, n


class TestPattern:
    def assert_same(self, a: CscMatrix, b: CscMatrix):
        assert a.shape == b.shape
        assert np.array_equal(a.col_ptr, b.col_ptr)
        assert np.array_equal(a.row_idx, b.row_idx)
        assert np.array_equal(a.values.view(np.int64), b.values.view(np.int64))

    def test_worked_example(self):
        p = Pattern.from_triplets(EX_I, EX_J, 3, 4)
        assert p.col_ptr.tolist() == [0, 1, 3, 4, 6]
        assert p.row_idx.tolist() == [0, 1, 2, 2, 0, 1]
        assert p.slot.tolist() == [0, 1, 2, 3, 4, 5]
        self.assert_same(p.assemble_blocks((EX_K,)), example_matrix())

    @pytest.mark.parametrize(
        "col_ptr, row_idx, slot, message",
        [
            ([0, 1.5], [0.7], [0.2], "col_ptr entry 1.5 at position 1"),
            ([0, 1], [0.7], [0], "row index 0.7 at position 0"),
            ([0, 1], [1], [0.2], "slot 0.2 at position 0"),
        ],
    )
    def test_refuses_fractional_arrays(self, col_ptr, row_idx, slot, message):
        with pytest.raises(ValueError, match=f"{message} is not an int64 integer"):
            Pattern(2, 1, col_ptr, row_idx, slot)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Pattern(3, 1, [0, 1], [2**32 + 2], [0]), "row index 4294967298 at position 0"),
            (lambda: Pattern(3, 1, [0, 1], [2], [2**32]), "slot 4294967296 at position 0"),
            (
                lambda: CscMatrix(3, 1, [0, 1], [2**32 + 2], [1.0]),
                "row index 4294967298 at position 0",
            ),
            (
                lambda: CscMatrix(3, 1, [0, 2**32 + 1], [2], [1.0]),
                "col_ptr entry 4294967297 at position 1",
            ),
        ],
    )
    def test_refuses_entries_beyond_the_index_width(self, build, message):
        # the int32 cast would wrap these to row 2, slot 0 and col_ptr entry 1
        with pytest.raises(ValueError, match=f"{message} out of range"):
            build()

    def test_keeps_an_int32_slot_map(self):
        p = Pattern.from_triplets(EX_I, EX_J, 3, 4)
        assert p.slot.dtype == np.int32
        q = Pattern(3, 4, p.col_ptr, p.row_idx, p.slot)
        assert q.slot.dtype == np.int32 and not np.shares_memory(q.slot, p.slot)
        assert not np.shares_memory(q.col_ptr, p.col_ptr)
        assert not np.shares_memory(q.row_idx, p.row_idx)

    def test_duplicates_share_a_slot_in_input_order(self):
        p = Pattern.from_triplets([1, 0, 1], [0, 0, 0], 2, 1)
        assert p.slot.tolist() == [1, 0, 1] and p.nnz == 2

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_csc_from_triplets_bit_for_bit(self, dtype):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m, n, length = int(rng.integers(1, 30)), int(rng.integers(1, 30)), 400
            i = rng.integers(0, m, length).astype(dtype)
            j = rng.integers(0, n, length).astype(dtype)
            p = Pattern.from_triplets(i, j, m, n)
            for _ in range(3):
                k = rng.standard_normal(length)
                k[rng.random(length) < 0.1] = 0.0
                # exact cancellations: a few positions get their sum subtracted
                dup = rng.integers(0, length, 5)
                k[dup] = 0.0
                for d in dup:
                    k[d] = -k[(i == i[d]) & (j == j[d])].sum()
                self.assert_same(p.assemble_blocks((k,)), csc_from_triplets(i, j, k, m, n))

    def test_keeps_its_arrays_when_nothing_cancels(self):
        p = Pattern.from_triplets(EX_I, EX_J, 3, 4)
        a = p.assemble_blocks((EX_K,))
        assert a.col_ptr is p.col_ptr and a.row_idx is p.row_idx
        b = p.assemble_blocks(([1.0, 5.0, 0.0, 2.0, 6.0, 4.0],))
        assert b.nnz == 5 and b.col_ptr.tolist() == [0, 1, 2, 3, 5]

    def test_immutable(self):
        p = Pattern.from_triplets(EX_I, EX_J, 3, 4)
        with pytest.raises(AttributeError):
            p.n_rows = 5
        with pytest.raises(ValueError):
            p.slot[0] = 1

    def test_empty_stream(self):
        p = Pattern.from_triplets([], [], 2, 2)
        assert p.nnz == 0 and p.assemble_blocks(([],)).nnz == 0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="position 1"):
            Pattern.from_triplets([0, 3], [0, 0], 3, 3)
        with pytest.raises(ValueError, match="length"):
            Pattern.from_triplets([0, 1], [0], 2, 2)
        with pytest.raises(ValueError, match="expected 6 values"):
            Pattern.from_triplets(EX_I, EX_J, 3, 4).assemble_blocks(([1.0],))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stream=triplet_streams(), size=st.integers(1, 50))
    def test_blocks_match_csc_from_triplets_bit_for_bit(self, stream, size):
        rows, cols, vals, m, n = stream
        expected = csc_from_triplets(rows, cols, vals, m, n)
        p = Pattern.from_triplets(rows, cols, m, n)
        assert p.slot.dtype == np.int32
        # blocks of one value, of a drawn size (uneven or past the end), and one block
        for b in (1, size, vals.size + 1):
            blocks = (vals[k : k + b] for k in range(0, vals.size, b))
            self.assert_same(p.assemble_blocks(blocks), expected)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stream=triplet_streams())
    def test_csc_from_triplets_matches_scipy(self, stream):
        rows, cols, vals, m, n = stream
        ours = csc_from_triplets(rows, cols, vals, m, n)
        theirs = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(m, n)).tocsc()
        theirs.sum_duplicates()
        theirs.eliminate_zeros()  # scipy keeps input zeros and zero sums
        if np.array_equal(vals, np.round(vals)):
            # integer sums are exact in any order, so the two must agree entry for entry
            assert np.array_equal(ours.col_ptr, theirs.indptr)
            assert np.array_equal(ours.row_idx, theirs.indices)
            assert np.array_equal(ours.values, theirs.data)
        else:
            # scipy sums duplicates in an order of its own: each position's
            # sums may differ by the rounding of its terms
            terms, scale = np.zeros((m, n)), np.zeros((m, n))
            np.add.at(terms, (rows, cols), 1.0)
            np.add.at(scale, (rows, cols), np.abs(vals))
            diff = np.abs(ours.to_dense() - theirs.toarray())
            assert np.all(diff <= terms * np.finfo(float).eps * scale)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stream=triplet_streams())
    def test_csc_from_triplets_matches_dense_oracle_bit_for_bit(self, stream):
        # the oracle adds each position's values one at a time in input
        # order; a different order rounds some of these float sums differently
        rows, cols, vals, m, n = stream
        a = csc_from_triplets(rows, cols, vals, m, n)
        dense = dense_from_triplets(rows, cols, vals, m, n)
        assert np.array_equal(a.to_dense().view(np.int64), dense.view(np.int64))
        assert not (a.values == 0.0).any()
        assert a.nnz == np.count_nonzero(dense)

    def test_rejects_a_stream_of_the_wrong_length(self):
        p = Pattern.from_triplets(EX_I, EX_J, 3, 4)
        with pytest.raises(ValueError, match="expected 6 values, got more"):
            p.assemble_blocks([EX_K[:4], EX_K[4:], [1.0]])
        with pytest.raises(ValueError, match="expected 6 values, got 5"):
            p.assemble_blocks([EX_K[:2], EX_K[2:5]])


def cancelling_stream(layout, cancelled, seed=0):
    """(pattern, vals): each position of the boolean ``layout`` gets two
    values, in a shuffled stream, that sum to exactly 0.0 where
    ``cancelled`` is set; ``cancelled`` is indexed by storage position."""
    cols, rows = np.nonzero(np.asarray(layout).T)  # storage order: by column, then row
    rng = np.random.default_rng(seed)
    first = rng.standard_normal(rows.size)
    second = np.where(cancelled, -first, rng.standard_normal(rows.size))
    order = rng.permutation(2 * rows.size)
    rows, cols = np.tile(rows, 2)[order], np.tile(cols, 2)[order]
    pattern = Pattern.from_triplets(rows, cols, *np.shape(layout))
    return pattern, np.concatenate([first, second])[order]


def assert_drop_matches_the_mask_drop(pattern, vals, piece):
    sums = np.zeros(pattern.nnz)
    np.add.at(sums, pattern.slot, vals)
    col_ptr, row_idx, values = oracles.mask_drop(pattern, sums)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(femasm.sparse, "BLOCK_BYTES", 8 * piece)
        a = pattern.assemble_blocks((vals,))
    assert np.array_equal(a.col_ptr, col_ptr)
    assert np.array_equal(a.row_idx, row_idx)
    assert np.array_equal(a.values.view(np.int64), values.view(np.int64))
    owner = a.values if a.values.base is None else a.values.base
    assert owner.nbytes == 8 * a.nnz  # the dropped tail is not kept alive


def corruptions(p: Pattern, draw) -> list:
    """(col_ptr, row_idx, slot, message) for each single corruption of
    ``p`` that its sizes allow, ``slot`` None when the corruption is in the
    structure alone, and ``message`` naming the corrupted entry."""
    col_ptr, row_idx, slot = (np.array(a) for a in (p.col_ptr, p.row_idx, p.slot))
    m, n, nnz = p.n_rows, p.n_cols, p.nnz
    cases = []
    if slot.size:
        k = draw(st.integers(0, slot.size - 1))
        for bad in (-1, nnz):
            s = slot.copy()
            s[k] = bad
            cases.append((col_ptr, row_idx, s, f"slot {bad} at position {k} out of range"))
    if nnz:
        k = draw(st.integers(0, nnz - 1))
        r = row_idx.copy()
        r[k] = m
        cases.append((col_ptr, r, None, f"row index {m} at position {k} out of range [0, {m})"))
    wide = np.flatnonzero(np.diff(col_ptr) >= 2).tolist()
    if wide:
        j = draw(st.sampled_from(wide))
        a = draw(st.integers(col_ptr[j], col_ptr[j + 1] - 2))
        b = draw(st.integers(a + 1, col_ptr[j + 1] - 1))
        r = row_idx.copy()
        r[[a, b]] = r[[b, a]]
        # rows rise up to a, and the row at a + 1 is below the one moved to a
        why = "does not increase within its column"
        cases.append((col_ptr, r, None, f"row index {r[a + 1]} at position {a + 1} {why}"))
    if n >= 2:
        j = draw(st.integers(1, n - 1))
        c = col_ptr.copy()
        c[j] = c[j - 1] - 1
        cases.append((c, row_idx, None, f"col_ptr entry {c[j]} at position {j} decreases"))
    for pos in (0, n):
        c = col_ptr.copy()
        c[pos] += draw(st.sampled_from([-1, 1]))
        cases.append((c, row_idx, None, f"col_ptr entry {c[pos]} at position {pos} out of range"))
    return cases


class TestStructureGate:
    """``Pattern(...)`` and ``CscMatrix(...)`` check every structure; the
    symbolic and numeric phases store theirs unchecked, so each structure
    they build must pass the same checks."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stream=triplet_streams())
    def test_accepts_what_the_phases_build(self, stream):
        rows, cols, vals, m, n = stream
        p = Pattern.from_triplets(rows, cols, m, n)
        a = p.assemble_blocks((vals,))
        if a.nnz == p.nnz:  # no sum dropped: the numeric phase copies no structure
            assert a.col_ptr is p.col_ptr and a.row_idx is p.row_idx
        for made, again, last in (
            (p, Pattern(m, n, p.col_ptr, p.row_idx, p.slot), "slot"),
            (a, CscMatrix(m, n, a.col_ptr, a.row_idx, a.values), "values"),
        ):
            assert again.shape == made.shape
            for name in ("col_ptr", "row_idx", last):
                x, y = getattr(made, name), getattr(again, name)
                assert y.dtype == x.dtype and np.array_equal(y, x)
                assert not np.shares_memory(y, x)  # the public constructors copy

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(stream=triplet_streams(), data=st.data())
    def test_refuses_each_single_corruption(self, stream, data):
        rows, cols, _, m, n = stream
        p = Pattern.from_triplets(rows, cols, m, n)
        for col_ptr, row_idx, slot, message in corruptions(p, data.draw):
            with pytest.raises(ValueError, match=re.escape(message)):
                Pattern(m, n, col_ptr, row_idx, p.slot if slot is None else slot)
            if slot is None:
                with pytest.raises(ValueError, match=re.escape(message)):
                    CscMatrix(m, n, col_ptr, row_idx, np.ones(row_idx.size))

    @pytest.mark.parametrize(
        "build, message",
        [
            # np.add.at would add slot -1 into the last position
            (lambda: Pattern(3, 1, [0, 2], [0, 2], [-1, 0]), "slot -1 at position 0 out of range"),
            # row 7 of a 3x1 matrix, which to_dense() cannot place
            (lambda: Pattern(3, 1, [0, 1], [7], [0]), "row index 7 at position 0 out of range"),
            # unsorted rows, where get(0, 0) would search past the stored 0
            (
                lambda: Pattern(3, 1, [0, 2], [2, 0], [0, 1]),
                "row index 0 at position 1 does not increase within its column",
            ),
        ],
    )
    def test_refuses_corrupt_patterns(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_refuses_empty_sizes(self):
        for build in (
            lambda: CscMatrix(0, 1, [0, 0], [], []),
            lambda: Pattern(1, 0, [0], [], []),
        ):
            with pytest.raises(ValueError, match="matrix dimensions must be positive"):
                build()


class TestZeroDrop:
    """The in-place drop of ``assemble_blocks`` against the whole-array one,
    with the compaction's pieces shrunk to a few entries."""

    # 4 x 6, column 3 empty: columns start at storage positions 0, 4, 8, 12, 12, 16
    LAYOUT = np.ones((4, 6), dtype=bool)
    LAYOUT[:, 3] = False

    @pytest.mark.parametrize(
        "cancelled",
        [
            [2, 3, 5, 6],  # both sides of the piece boundaries at 3 and 6
            [4, 7, 12, 19],  # first and last slot of a column, and of the matrix
            [8, 9, 10, 11],  # a whole column, before the empty one
            list(range(20)),  # every position
            [],  # none
        ],
        ids=["piece-boundaries", "column-ends", "whole-column", "all", "none"],
    )
    def test_named_cases(self, cancelled):
        flags = np.isin(np.arange(20), cancelled)
        pattern, vals = cancelling_stream(self.LAYOUT, flags)
        assert_drop_matches_the_mask_drop(pattern, vals, piece=3)

    def test_at_the_real_piece_size(self):
        piece = BLOCK_BYTES // 8
        layout = np.ones((piece + 2, 2), dtype=bool)
        flags = np.isin(np.arange(layout.size), [piece - 1, piece, piece + 1, piece + 2])
        pattern, vals = cancelling_stream(layout, flags)
        assert_drop_matches_the_mask_drop(pattern, vals, piece)

    def test_runs_under_a_tracer_that_reads_the_locals(self):
        # a debugger stepping through the drop holds references to its locals
        pattern, vals = cancelling_stream(self.LAYOUT, np.isin(np.arange(20), [5, 9]))

        def tracer(frame, event, arg):
            frame.f_locals
            return tracer

        outer = sys.gettrace()
        sys.settrace(tracer)
        try:
            a = pattern.assemble_blocks((vals,))
        finally:
            sys.settrace(outer)
        assert a.nnz == 18 and a.values.base is None and a.values.nbytes == 8 * 18

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_matches_the_mask_drop(self, data):
        m, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        layout = data.draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
        layout = np.reshape(layout, (m, n))
        nnz = int(layout.sum())
        flags = data.draw(st.lists(st.booleans(), min_size=nnz, max_size=nnz))
        pattern, vals = cancelling_stream(layout, np.array(flags, dtype=bool))
        assert_drop_matches_the_mask_drop(pattern, vals, data.draw(st.integers(1, 8)))


def reference_matrix_market_bytes(matrix: CscMatrix) -> bytes:
    """The file write_matrix_market produces, written out one entry at a time:
    ``symmetric`` and the entries with i >= j when the matrix is square and
    every stored (i, j) has a stored (j, i) of the same bits, else
    ``general`` and every entry."""
    cols = np.repeat(np.arange(matrix.n_cols), np.diff(matrix.col_ptr)).tolist()
    rows, vals = matrix.row_idx.tolist(), matrix.values.tolist()
    bits = dict(zip(zip(rows, cols), matrix.values.view(np.int64).tolist()))
    symmetric = matrix.n_rows == matrix.n_cols and all(
        bits.get((j, i)) == b for (i, j), b in bits.items()
    )
    lines = [f"{i + 1} {j + 1} {'%.17g' % v}\n"
             for i, j, v in zip(rows, cols, vals) if i >= j or not symmetric]
    kind = "symmetric" if symmetric else "general"
    out = [f"%%MatrixMarket matrix coordinate real {kind}\n",
           f"{matrix.n_rows} {matrix.n_cols} {len(lines)}\n"]
    return "".join(out + lines).encode("ascii")


def square_matrix(entries: dict, n: int) -> CscMatrix:
    """The n x n matrix of {(i, j): value}, every value stored, zeros too."""
    b = CscBuilder(n, n)
    for (i, j), v in entries.items():
        b.add(i, j, v)
    return b.to_matrix()


class TestMatrixMarket:
    def assert_reference_bytes(self, matrix, tmp_path):
        path = tmp_path / "a.mtx"
        write_matrix_market(matrix, path)
        assert path.read_bytes() == reference_matrix_market_bytes(matrix)

    def test_awkward_values(self, tmp_path):
        vals = [5e-324, 1.7976931348623157e308, -1 / 3, 0.1, -1.7976931348623157e308, 1e-310]
        a = csc_from_triplets([0, 3, 1, 2, 0, 11], [0, 0, 2, 2, 9, 9], vals, 12, 10)
        assert a.nnz == len(vals)
        self.assert_reference_bytes(a, tmp_path)

    def test_explicit_zeros_kept_by_builder(self, tmp_path):
        b = CscBuilder(4, 3)
        b.add(1, 0, 2.0)
        b.add(1, 0, -2.0)
        b.add(3, 2, -0.0)
        b.add(0, 2, 0.5)
        a = b.to_matrix()
        assert a.nnz == 3 and a.values.tolist() == [0.0, 0.5, -0.0]
        self.assert_reference_bytes(a, tmp_path)
        assert (tmp_path / "a.mtx").read_text().splitlines()[2:] == ["2 1 0", "1 3 0.5", "4 3 -0"]

    def test_no_entries(self, tmp_path):
        a = csc_from_triplets([0], [0], [0.0], 5, 7)
        assert a.nnz == 0
        self.assert_reference_bytes(a, tmp_path)
        assert (tmp_path / "a.mtx").read_text().splitlines()[1:] == ["5 7 0"]

    def test_entries_across_blocks(self, tmp_path):
        nnz = 2 * TEXT_BLOCK + 1
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 1000, nnz)
        cols = rng.integers(0, 300, nnz)
        code = np.unique(cols * 1000 + rows)
        while code.size < nnz:  # top up to exactly nnz distinct positions
            code = np.unique(np.concatenate([code, rng.integers(0, 300_000, nnz - code.size)]))
        a = csc_from_triplets(code % 1000, code // 1000, rng.standard_normal(nnz), 1000, 300)
        assert a.nnz == nnz
        self.assert_reference_bytes(a, tmp_path)

    def test_scipy_reads_it_back(self, tmp_path):
        scipy_io = pytest.importorskip("scipy.io")
        a = example_matrix()
        path = tmp_path / "a.mtx"
        write_matrix_market(a, path)
        back = scipy_io.mmread(path)
        assert back.shape == (3, 4)
        assert np.array_equal(back.toarray(), EX_DENSE)

    def test_header(self, tmp_path):
        path = tmp_path / "a.mtx"
        write_matrix_market(example_matrix(), path)
        first, second = path.read_text().splitlines()[:2]
        assert first == "%%MatrixMarket matrix coordinate real general"
        assert second == "3 4 6"

    def assert_written_as(self, matrix, kind, tmp_path):
        self.assert_reference_bytes(matrix, tmp_path)
        first = (tmp_path / "a.mtx").read_text().splitlines()[0]
        assert first == f"%%MatrixMarket matrix coordinate real {kind}"

    @pytest.mark.parametrize(
        "entries",
        [
            {(0, 0): 1.0, (1, 0): 2.0, (0, 1): 2.0000000000000004, (1, 1): 3.0},
            {(0, 0): 1.0, (2, 0): 2.0, (0, 2): 2.0, (2, 1): 4.0},
            {(1, 0): 0.5, (0, 1): -0.5, (2, 2): 1.0},
            {(1, 0): 0.0, (0, 1): -0.0, (2, 2): 1.0},
        ],
        ids=["mirror-one-ulp-off", "mirror-not-stored", "mirror-negated", "mirror-signed-zero"],
    )
    def test_square_matrix_not_equal_to_its_transpose_is_general(self, entries, tmp_path):
        self.assert_written_as(square_matrix(entries, 3), "general", tmp_path)

    @pytest.mark.parametrize(
        "entries, n, lines",
        [
            ({(0, 0): -1 / 3}, 1, ["1 1 1", "1 1 -0.33333333333333331"]),
            (
                {(0, 0): 2.0, (2, 2): -0.0, (3, 3): 5e-324},
                4,
                ["4 4 3", "1 1 2", "3 3 -0", "4 4 4.9406564584124654e-324"],
            ),
            (
                {(1, 0): -0.0, (0, 1): -0.0, (2, 1): 0.25, (1, 2): 0.25},
                3,
                ["3 3 2", "2 1 -0", "3 2 0.25"],
            ),
            ({}, 2, ["2 2 0"]),
        ],
        ids=["one-by-one", "diagonal-only", "mirrored-off-diagonal", "no-entries"],
    )
    def test_matrix_equal_to_its_transpose_is_symmetric(self, entries, n, lines, tmp_path):
        self.assert_written_as(square_matrix(entries, n), "symmetric", tmp_path)
        assert (tmp_path / "a.mtx").read_text().splitlines()[1:] == lines

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_bytes_match_the_reference(self, data, tmp_path_factory):
        n = data.draw(st.integers(1, 5))
        value = st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, 2.0000000000000004, 1e-310])
        position = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        entries = data.draw(st.dictionaries(position, value, max_size=n * n))
        if data.draw(st.booleans()):  # mirror the lower triangle
            entries = {(i, j): v for (i, j), v in entries.items() if i >= j}
            entries.update({(j, i): v for (i, j), v in entries.items()})
        self.assert_reference_bytes(square_matrix(entries, n), tmp_path_factory.mktemp("mm"))

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("kind", list(MatrixKind))
    @pytest.mark.parametrize(
        "mesh",
        [generate_unit_square_mesh(6), generate_disk_mesh(5)],
        ids=["square-6", "disk-5"],
    )
    def test_every_assembled_matrix_round_trips_through_scipy(self, mesh, kind, strategy, tmp_path):
        scipy_io = pytest.importorskip("scipy.io")
        a = assemble(mesh, kind, strategy, **kind_kwargs(kind))
        self.assert_written_as(a, "symmetric", tmp_path)
        back = scipy.sparse.csc_array(scipy_io.mmread(tmp_path / "a.mtx"))
        back.sort_indices()
        assert np.array_equal(back.indptr, a.col_ptr)
        assert np.array_equal(back.indices, a.row_idx)
        assert back.data.tobytes() == a.values.tobytes()  # explicit zeros and their signs too


class TestWriterMemory:
    """README's model of write_matrix_market's bytes beside the matrix, on
    the n=56 disk's elastic matrix: the transpose check holds w + 17 B per
    stored entry for index width w, and 16 B per column; the writing holds
    16 B per written entry, a label per row and one block of lines."""

    # Measured with numpy 2.4 (tracemalloc): 62 B per 5-digit label, and
    # 136 B per line of a block, for its Python objects, the formatted
    # string and its encoded copy.  Headroom of about 5% over each.
    LABEL = 64
    LINE = 144

    @pytest.mark.parametrize("block", [TEXT_BLOCK, 1024], ids=["writing-peaks", "check-peaks"])
    def test_peak_within_the_model(self, block, tmp_path, monkeypatch):
        monkeypatch.setattr(femasm.sparse, "TEXT_BLOCK", block)
        a = assemble(generate_disk_mesh(56), MatrixKind.ELASTIC, Strategy.OPTV2,
                     **kind_kwargs(MatrixKind.ELASTIC))
        assert a.row_idx.dtype == np.int32
        tracemalloc.start()
        try:
            write_matrix_market(a, tmp_path / "a.mtx")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = (a.nnz + a.n_rows) // 2  # every diagonal entry is stored
        size_line = (tmp_path / "a.mtx").read_text().splitlines()[1]
        assert size_line == f"{a.n_rows} {a.n_cols} {written}"
        check = (4 + 17) * a.nnz + 16 * a.n_cols
        writing = 16 * written + self.LABEL * a.n_rows + self.LINE * min(written, block)
        assert peak <= max(check, writing)
