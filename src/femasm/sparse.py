"""Compressed-sparse-column matrices and the two ways to build them.

``Pattern`` is the sparse construction, with Matlab ``sparse`` semantics
(input zeros ignored, duplicates summed, positions whose sum is exactly
zero dropped).  Its symbolic phase, ``Pattern.from_triplets``, sorts an
index stream by (column, row) and finds ``col_ptr``, ``row_idx`` and the
storage slot of every triplet, once per stream.  Its numeric phase,
``Pattern.assemble_blocks``, adds a value stream into the slots block by
block with ``np.add.at``, which adds in stream order, so each position
sums left-to-right in input order, bit for bit reproducibly, and a
caller never has to hold the stream whole.  ``csc_from_triplets`` is its
one-shot use, on a stream's nonzero triplets.  Index arrays convert only
by ``_as_index_array``, scalar indices and sizes by ``operator.index``,
and a CSC structure is checked and cast only by ``_checked_structure``.

``CscBuilder`` is the deliberately naive path: it keeps a live CSC image
with exact-fit storage, so every insertion of a *new* position rewrites
the whole value and row-index arrays (prefix, new entry, shifted tail)
and bumps all later column offsets.  Each fresh insertion therefore
costs time proportional to the number of stored entries, independent of
where it lands.  That cost is the object of study for the benchmark
CLI, so it must not be amortized away (no slack capacity, no per-column
gaps, no batching).
"""

from __future__ import annotations

from bisect import bisect_left
from operator import index

import numpy as np

__all__ = [
    "CscBuilder",
    "CscMatrix",
    "Pattern",
    "csc_from_triplets",
    "max_abs_diff",
    "write_matrix_market",
]

# to_dense() refuses anything larger than this many entries.
DENSE_LIMIT = 10**8

# Bytes of values the numeric phase handles at once (MILAMIN's blocking):
# a block stays in cache while it is summed into the slots or compacted,
# and the numeric phase needs memory for one block, not for the mesh.
BLOCK_BYTES = 2**21

# Lines per write in the text writers: enough to make the per-block cost
# vanish, few enough that a block's Python objects stay a few MiB.
TEXT_BLOCK = 65536


def index_dtype(bound: int) -> type:
    """Index type of a sparse structure whose indices and offsets are at most
    ``bound``: int32 while ``bound < 2**31``, for half the bytes, else int64."""
    return np.int32 if bound < 2**31 else np.int64


class _Frozen:
    """An immutable value that owns its arrays.  ``_store`` sets the fields,
    in slot order from the base class down, and freezes each array; a public
    constructor stores only arrays it allocated.  Copy and pickle rebuild the
    value through that constructor, from the fields that ``_args`` names."""

    __slots__ = ()

    def _store(self, *fields):
        names = [n for cls in type(self).__mro__[::-1] for n in vars(cls).get("__slots__", ())]
        for name, value in zip(names, fields, strict=True):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._args)


class _Csc(_Frozen):
    """The CSC structure of ``CscMatrix`` and ``Pattern``: ``col_ptr``
    (n_cols+1) and ``row_idx`` (nnz, column-major, rows strictly increasing
    within each column), read-only, of ``index_dtype(max(n_rows, nnz))``.
    Their constructors check and copy it with ``_checked_structure``; the
    phases store arrays they built, which pass those checks, through ``_trusted``."""

    __slots__ = ("n_rows", "n_cols", "col_ptr", "row_idx")

    @classmethod
    def _trusted(cls, *fields):
        """``cls`` of ``fields`` in slot order, neither checked nor converted."""
        self = object.__new__(cls)
        self._store(*fields)
        return self

    @property
    def nnz(self) -> int:
        return int(self.row_idx.size)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)


def _checked_structure(n_rows, n_cols, col_ptr, row_idx) -> tuple:
    """(n_rows, n_cols, col_ptr, row_idx) checked, then copied at the index
    width, so an entry that the cast would wrap is refused as out of range."""
    n_rows, n_cols = index(n_rows), index(n_cols)
    if n_rows < 1 or n_cols < 1:
        raise ValueError("matrix dimensions must be positive")
    col_ptr = _as_index_array(col_ptr, "col_ptr entry").ravel()
    row_idx = _as_index_array(row_idx, "row index").ravel()
    nnz = row_idx.size
    if col_ptr.size != n_cols + 1:
        raise ValueError(f"col_ptr must have n_cols+1 = {n_cols + 1} entries, got {col_ptr.size}")
    why = f"out of range: col_ptr must start at 0 and end at nnz = {nnz}"
    _refuse_first(col_ptr[:1] != 0, col_ptr, 0, "col_ptr entry", why)
    _refuse_first(col_ptr[-1:] != nnz, col_ptr, n_cols, "col_ptr entry", why)
    _refuse_first(col_ptr[1:] < col_ptr[:-1], col_ptr, 1, "col_ptr entry", "decreases")
    _check_indices(row_idx, n_rows, "row index")
    cols = np.repeat(np.arange(n_cols), np.diff(col_ptr))
    falling = (row_idx[1:] <= row_idx[:-1]) & (cols[1:] == cols[:-1])
    _refuse_first(falling, row_idx, 1, "row index", "does not increase within its column")
    dtype = index_dtype(max(n_rows, nnz))
    return n_rows, n_cols, col_ptr.astype(dtype), row_idx.astype(dtype)


class CscMatrix(_Csc):
    """Immutable CSC matrix: the ``_Csc`` structure and one value per position."""

    __slots__ = ("values",)
    _args = _Csc.__slots__ + __slots__

    def __init__(self, n_rows, n_cols, col_ptr, row_idx, values):
        n_rows, n_cols, col_ptr, row_idx = _checked_structure(n_rows, n_cols, col_ptr, row_idx)
        values = np.array(values, dtype=np.float64).ravel()
        if values.size != row_idx.size:
            raise ValueError(f"{row_idx.size} row indices but {values.size} values")
        self._store(n_rows, n_cols, col_ptr, row_idx, values)

    def get(self, i: int, j: int) -> float:
        """Stored value at (i, j), or 0.0 when the position is absent."""
        i, j = index(i), index(j)
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise ValueError(f"index ({i}, {j}) out of range for {self.shape}")
        lo, hi = int(self.col_ptr[j]), int(self.col_ptr[j + 1])
        pos = lo + np.searchsorted(self.row_idx[lo:hi], i)
        if pos < hi and self.row_idx[pos] == i:
            return float(self.values[pos])
        return 0.0

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, cols, values) in column-major storage order."""
        cols = np.repeat(np.arange(self.n_cols, dtype=self.col_ptr.dtype), np.diff(self.col_ptr))
        return self.row_idx.copy(), cols, self.values.copy()

    def to_dense(self) -> np.ndarray:
        if self.n_rows * self.n_cols > DENSE_LIMIT:
            raise ValueError(
                f"dense expansion of {self.shape} exceeds the {DENSE_LIMIT} entry guard"
            )
        dense = np.zeros((self.n_rows, self.n_cols))
        rows, cols, vals = self.triplets()
        dense[rows, cols] = vals
        return dense

    def __repr__(self) -> str:
        return f"CscMatrix(shape={self.shape}, nnz={self.nnz})"


def _as_index_array(idx, what: str) -> np.ndarray:
    """``idx`` as a signed-integer array of its own shape.  Values of any
    other type must be integers in the int64 range, as Matlab-style float
    indices are; the first one that is not raises ValueError."""
    idx = np.ascontiguousarray(idx)
    if idx.dtype.kind == "i":
        return idx
    if idx.dtype.kind != "u":
        idx = idx.astype(np.float64)
    with np.errstate(invalid="ignore"):  # NaN, inf and overflow fail the test below
        out = idx.astype(np.int64)
        bad = (out != idx) | (idx >= 2**63)
    _refuse_first(bad, idx, 0, what, "is not an int64 integer")
    return out


def _refuse_first(bad: np.ndarray, idx: np.ndarray, offset: int, what: str, why: str) -> None:
    """Raise ValueError naming the entry of ``idx`` at the first true ``bad`` + ``offset``."""
    bad = np.flatnonzero(bad)
    if bad.size:
        pos = int(bad[0]) + offset
        raise ValueError(f"{what} {idx.flat[pos]} at position {pos} {why}")


def _check_indices(idx: np.ndarray, bound: int, what: str) -> None:
    _refuse_first((idx < 0) | (idx >= bound), idx, 0, what, f"out of range [0, {bound})")


def _index_stream(rows, cols, n_rows, n_cols):
    """(rows, cols, n_rows, n_cols) of a triplet stream, converted and checked."""
    rows = _as_index_array(rows, "row index").ravel()
    cols = _as_index_array(cols, "column index").ravel()
    n_rows, n_cols = index(n_rows), index(n_cols)
    if rows.size != cols.size:
        raise ValueError(f"index arrays disagree in length: {rows.size}, {cols.size}")
    if n_rows < 1 or n_cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if n_rows * n_cols >= 2**63:  # the sort code col * n_rows + row is an int64
        raise ValueError(f"shape ({n_rows}, {n_cols}) has 2**63 or more positions")
    _check_indices(rows, n_rows, "row index")
    _check_indices(cols, n_cols, "column index")
    return rows, cols, n_rows, n_cols


def csc_from_triplets(rows, cols, vals, n_rows: int, n_cols: int) -> CscMatrix:
    """Build a CSC matrix from triplets, summing duplicate positions.

    Entries whose value is exactly zero (0.0 or -0.0) are ignored, and
    positions whose accumulated sum is exactly 0.0 are not stored.  Per
    position the sum is taken left-to-right in input order, which makes
    the result a deterministic function of the triplet stream.  This is
    ``Pattern`` used once: the symbolic phase of the stream's nonzero
    triplets, then one value block.
    """
    rows, cols, n_rows, n_cols = _index_stream(rows, cols, n_rows, n_cols)  # a zero's too
    vals = np.asarray(vals, dtype=np.float64).ravel()
    if vals.size != rows.size:
        raise ValueError(
            f"triplet arrays disagree in length: {rows.size} indices, {vals.size} values"
        )
    # a sum starts at 0.0 and is never -0.0, so adding a zero changes no
    # sum, and a position that gets only zeros is dropped either way
    if np.count_nonzero(vals) < vals.size:
        nonzero = vals != 0.0
        rows, cols, vals = rows[nonzero], cols[nonzero], vals[nonzero]
    return _sort_pattern(rows, cols, n_rows, n_cols).assemble_blocks((vals,))


class Pattern(_Csc):
    """The sparsity pattern of a fixed index stream: the symbolic phase of
    the sparse construction, with ``assemble_blocks`` as its numeric phase.

    ``col_ptr`` and ``row_idx`` hold every position the stream reaches
    (the structural nonzeros, in canonical CSC order) and ``slot[p]`` is
    the storage position of triplet p.  ``assemble_blocks`` sums a value
    stream of the same layout into those slots, in stream order.
    All three take ``index_dtype(max(n_rows, nnz))`` and are read-only,
    so one pattern can serve any number of value streams.
    """

    __slots__ = ("slot",)
    _args = _Csc.__slots__ + __slots__

    def __init__(self, n_rows, n_cols, col_ptr, row_idx, slot):
        n_rows, n_cols, col_ptr, row_idx = _checked_structure(n_rows, n_cols, col_ptr, row_idx)
        slot = _as_index_array(slot, "slot").ravel()
        _check_indices(slot, row_idx.size, "slot")
        self._store(n_rows, n_cols, col_ptr, row_idx, slot.astype(col_ptr.dtype))

    @classmethod
    def from_triplets(cls, rows, cols, n_rows: int, n_cols: int) -> "Pattern":
        """Pattern of the index stream (rows, cols), from a sort by (column,
        row).  Slots depend only on the sorted distinct positions, not on
        the sort's stability; ``assemble_blocks`` sets the summation order."""
        return _sort_pattern(*_index_stream(rows, cols, n_rows, n_cols))

    def assemble_blocks(self, blocks) -> CscMatrix:
        """The matrix of this pattern's index stream and the value stream
        that ``blocks`` yields in consecutive pieces.

        ``np.add.at`` adds one value at a time in stream order, starting
        from 0.0, so each slot sums its triplets in their input order;
        input zeros leave every nonzero sum as it is, and sums that are
        exactly zero are dropped.  When none is, the pattern's own arrays
        become the result's structure.  Otherwise the kept sums move to the
        front of the sums in place, ``BLOCK_BYTES`` at a time, beside fresh
        kept rows and col_ptr, and the sums shrink to the result's values.
        A call holds the sums (8 B per position), the kept rows (4 B per
        kept position) and col_ptr when something is dropped, and a few
        ``BLOCK_BYTES``.
        """
        sums = np.zeros(self.nnz)
        start = 0
        for vals in blocks:
            vals = np.ascontiguousarray(vals, dtype=np.float64).ravel()
            stop = start + vals.size
            if stop > self.slot.size:
                raise ValueError(f"expected {self.slot.size} values, got more")
            np.add.at(sums, self.slot[start:stop], vals)
            start = stop
        if start != self.slot.size:
            raise ValueError(f"expected {self.slot.size} values, got {start}")
        kept = np.count_nonzero(sums)
        if kept == sums.size:  # no sum is exactly zero
            return CscMatrix._trusted(self.n_rows, self.n_cols, self.col_ptr, self.row_idx, sums)
        # Davis's cs_fkeep, one block at a time: a block's kept sums move to
        # the front of ``sums``, never past the block being read
        dtype = index_dtype(max(self.n_rows, kept))
        col_ptr, row_idx = np.empty_like(self.col_ptr, dtype=dtype), np.empty(kept, dtype=dtype)
        piece, out, lo = BLOCK_BYTES // 8, 0, 0
        for start in range(0, sums.size, piece):
            stop = min(start + piece, sums.size)
            at = np.flatnonzero(sums[start:stop] != 0.0)
            # columns lo..hi-1 start in this block or at its end (a needle of
            # col_ptr's dtype, or numpy casts all of col_ptr per block)
            hi = int(self.col_ptr.searchsorted(self.col_ptr.dtype.type(stop), "right"))
            col_ptr[lo:hi] = out + at.searchsorted(self.col_ptr[lo:hi] - start)
            row_idx[out : out + at.size] = self.row_idx[start:stop][at]
            sums[out : out + at.size] = sums[start:stop][at]
            out, lo = out + at.size, hi
        # no view of sums is alive, so the dropped tail is freed in place;
        # refcheck would also count a debugger's references, and refuse
        sums.resize(kept, refcheck=False)
        return CscMatrix._trusted(self.n_rows, self.n_cols, col_ptr, row_idx, sums)

    def __repr__(self) -> str:
        return f"Pattern(shape={self.shape}, nnz={self.nnz}, triplets={self.slot.size})"


def _sort_pattern(rows, cols, n_rows: int, n_cols: int) -> Pattern:
    """``Pattern.from_triplets`` of an index stream that ``_index_stream``
    has converted and checked."""
    code = np.multiply(cols, n_rows, dtype=np.int64)
    code += rows
    # stable for speed: the default sort is slower on the ordered meshes bench assembles
    order = np.argsort(code, kind="stable")
    code = code[order]
    head = np.ones(code.size, dtype=bool)  # head[0]: the first triplet opens a run
    np.not_equal(code[1:], code[:-1], out=head[1:])
    code = code[head]
    dtype = index_dtype(max(n_rows, code.size))
    slot = np.empty(order.size, dtype=dtype)
    slot[order] = np.cumsum(head) - 1
    col_ptr = np.searchsorted(code, np.arange(n_cols + 1) * n_rows)  # j*n_rows opens column j
    row_idx = (code % n_rows).astype(dtype)
    return Pattern._trusted(n_rows, n_cols, col_ptr.astype(dtype), row_idx, slot)


def max_abs_diff(a: CscMatrix, b: CscMatrix) -> float:
    """max |a - b| over every position, treating absent entries as zero."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    ra, ca, va = a.triplets()
    rb, cb, vb = b.triplets()
    diff = csc_from_triplets(
        np.concatenate([ra, rb]),
        np.concatenate([ca, cb]),
        np.concatenate([va, -vb]),
        a.n_rows,
        a.n_cols,
    )
    return float(np.abs(diff.values).max()) if diff.nnz else 0.0


class CscBuilder:
    """Mutable CSC image with naive single-entry insertion.

    Adding to an existing position is a binary search plus in-place add.
    Adding a *new* position rebuilds the exact-fit value and row-index
    arrays around the inserted slot and increments every later column
    offset, so each fresh insertion costs time proportional to the
    number of entries already stored.  Explicit zeros are stored like
    any other value; this path never filters them.  Single-writer; not
    thread safe.
    """

    __slots__ = ("n_rows", "n_cols", "_aa", "_ia", "_ja")

    def __init__(self, n_rows: int, n_cols: int):
        self.n_rows, self.n_cols = index(n_rows), index(n_cols)
        if self.n_rows < 1 or self.n_cols < 1:
            raise ValueError("matrix dimensions must be positive")
        self._aa = np.empty(0, dtype=np.float64)  # values, column-major
        self._ia = np.empty(0, dtype=np.int64)  # row indices, column-major
        self._ja = np.zeros(self.n_cols + 1, dtype=np.int64)  # column offsets

    @property
    def nnz(self) -> int:
        return int(self._aa.size)

    def add(self, i: int, j: int, v: float) -> None:
        """Add v to entry (i, j)."""
        # plain ints and a list search keep the per-call overhead small, so
        # that the storage rewrite, not numpy call dispatch, sets the cost
        i, j = index(i), index(j)
        if not (0 <= i < self.n_rows and 0 <= j < self.n_cols):
            raise ValueError(f"index ({i}, {j}) out of range for ({self.n_rows}, {self.n_cols})")
        aa, ia, ja = self._aa, self._ia, self._ja
        lo, hi = ja[j], ja[j + 1]
        rows = ia[lo:hi].tolist()
        k = bisect_left(rows, i)
        pos = lo + k
        if k < len(rows) and rows[k] == i:
            aa[pos] += v
        else:
            n = aa.size
            new_aa = np.empty(n + 1, dtype=np.float64)
            new_ia = np.empty(n + 1, dtype=np.int64)
            new_aa[:pos] = aa[:pos]
            new_ia[:pos] = ia[:pos]
            new_aa[pos] = v
            new_ia[pos] = i
            new_aa[pos + 1 :] = aa[pos:]
            new_ia[pos + 1 :] = ia[pos:]
            self._aa = new_aa
            self._ia = new_ia
            ja[j + 1 :] += 1

    def add_block(self, row_ids, col_ids, block) -> None:
        """Add a dense block via repeated single-entry insertions."""
        block = np.asarray(block, dtype=np.float64)
        if block.shape != (len(row_ids), len(col_ids)):
            raise ValueError(
                f"block shape {block.shape} does not match ids "
                f"({len(row_ids)}, {len(col_ids)})"
            )
        for b, j in enumerate(col_ids):
            for a, i in enumerate(row_ids):
                self.add(i, j, block[a, b])

    def to_matrix(self) -> CscMatrix:
        """Snapshot as an immutable CscMatrix.  Explicit zeros are kept."""
        return CscMatrix(self.n_rows, self.n_cols, self._ja, self._ia, self._aa)

    def __repr__(self) -> str:
        return f"CscBuilder(shape=({self.n_rows}, {self.n_cols}), nnz={self.nnz})"


def write_lines(f, line: str, n_lines: int, fields) -> None:
    """Write ``n_lines`` text lines, ``TEXT_BLOCK`` of them per ``write``.

    ``line`` is a %-format for one line.  ``fields(start, stop)`` returns
    the fields of lines start..stop-1, one array per conversion in
    ``line``; each block is formatted by one ``%`` over a flat object
    array of them, so ints and floats meet the format as Python objects.
    """
    for start in range(0, n_lines, TEXT_BLOCK):
        stop = min(start + TEXT_BLOCK, n_lines)
        columns = fields(start, stop)
        rows = np.empty((stop - start, len(columns)), dtype=object)
        for k, column in enumerate(columns):
            rows[:, k] = column
        f.write(line * (stop - start) % tuple(rows.ravel()))


def _equals_its_transpose(matrix: CscMatrix, cols: np.ndarray) -> bool:
    """True when ``matrix`` equals its transpose bit for bit (0.0 is not
    -0.0).  As rows are sorted within each column, a stable argsort of the
    rows lists the entries row by row, which is Davis's ``cs_transpose``."""
    rows, bits = matrix.row_idx, matrix.values.view(np.int64)
    if not np.array_equal(np.bincount(rows, minlength=matrix.n_rows).cumsum(), matrix.col_ptr[1:]):
        return False  # not square, or row k holds more or fewer entries than column k
    order = np.argsort(rows, kind="stable")
    return np.array_equal(cols[order], rows) and np.array_equal(bits[order], bits)


def write_matrix_market(matrix: CscMatrix, path) -> None:
    """Write the coordinate MatrixMarket format: 1-based indices, values
    as ``%.17g``, entries in column-major storage order.  A matrix equal to
    its transpose bit for bit is written ``symmetric``, its entries with
    row >= column alone; any other is written ``general``, every entry."""
    rows, vals, kind = matrix.row_idx, matrix.values, "general"
    cols = np.repeat(np.arange(matrix.n_cols, dtype=rows.dtype), np.diff(matrix.col_ptr))
    if _equals_its_transpose(matrix, cols):  # its temporaries are freed on return
        lower = rows >= cols
        kind, rows, cols, vals = "symmetric", rows[lower], cols[lower], vals[lower]
        del lower
    # 1-based index strings, each made once for all the entries in its row or column
    labels = np.array(
        [str(i) for i in range(1, max(matrix.n_rows, matrix.n_cols) + 1)], dtype=object
    )

    def fields(start, stop):
        return labels[rows[start:stop]], labels[cols[start:stop]], vals[start:stop]

    with open(path, "w", encoding="ascii") as f:
        f.write(f"%%MatrixMarket matrix coordinate real {kind}\n")
        f.write(f"{matrix.n_rows} {matrix.n_cols} {rows.size}\n")
        write_lines(f, "%s %s %.17g\n", rows.size, fields)
