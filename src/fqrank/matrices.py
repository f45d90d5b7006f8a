"""Dense matrices over GF(q): exact products, rank, and entry counting.

A matrix is a thin wrapper around a numpy int16 array of element indices
together with the field it lives over.  Shapes with zero rows or columns are
legal everywhere (an m x 0 times 0 x n product is the zero matrix), which
keeps rank-0 factorisations free of special cases.

The enumeration oracles work on stacks of index arrays instead: `_index_matmul`
is the one GF(q) product formula and `_encode`/`_decode` the one spelling of
a matrix as an integer code, which the rank tables, the enumeration
oracles, `fqrank.exact` and the character transforms of `fqrank.stats`
and `fqrank.decomposition` share; `_tallies` is the one histogram of such
codes (or of any small counts) per row of a stack.

`_blocks` is the one rule that bounds a stack loop's memory, in
`fqrank.stats`, `fqrank.exact` and the CLI.  It reads the same
`_BLOCK_ENTRIES` as `_rank_stack`'s test for a listable shape, and
`fqrank.decomposition` reads it here, at call time, for its Khatri-Rao head
blocks, so one budget sizes every bounded loop and every rank table.
`_check_subset_field` is the one check that an entry subset lies over the
field it is used with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .field import FieldCtx, FqrankError, _add_arrays, _mul_arrays, _read_only, field_from_order

_BLOCK_ENTRIES = 1 << 17  # entries in one block of a stack loop, or of a rank table's listing


def _blocks(lo: int, hi: int, entries: int) -> Iterator[tuple[int, int]]:
    """Consecutive ranges [start, stop) covering [lo, hi) of _BLOCK_ENTRIES //
    entries indices (at least one), `entries` being what one index holds in
    the caller's block: memory stays bounded however long the range."""
    step = max(1, _BLOCK_ENTRIES // max(1, entries))
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)


class DimensionMismatch(FqrankError):
    """Raised when operand shapes are incompatible."""


class FieldMismatch(FqrankError):
    """Raised when operands live over different fields."""


@dataclass(frozen=True)
class MatrixFq:
    """An m x n matrix of element indices over a fixed field."""

    field: FieldCtx
    data: np.ndarray  # int16, shape (m, n), values in range(q)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-d array, got ndim={arr.ndim}")
        q, kind = self.field.q, arr.dtype.kind
        if kind in "biu" and arr.itemsize <= 2:
            # int16 keeps every bit of these types, and through the uint16 view
            # one max bounds both ends: a negative entry reads as >= 2^15 > q
            own = np.array(arr, dtype=np.int16, order="C")  # own copy: input stays writable
            if own.size and own.view(np.uint16).max() >= q:
                raise FqrankError(f"entries must lie in range({q})")
        else:
            # checked on the input, before the int16 cast could wrap or truncate
            if kind == "f":
                if not (np.isfinite(arr).all() and (arr == np.trunc(arr)).all()):
                    raise FqrankError("entries must be integers")
            elif kind not in "iu":
                raise FqrankError(f"entries must be integers in range({q}), got dtype {arr.dtype}")
            if arr.size and (arr.min() < 0 or arr.max() >= q):
                raise FqrankError(f"entries must lie in range({q})")
            own = np.array(arr, dtype=np.int16, order="C")
        object.__setattr__(self, "data", _read_only(own)[0])

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatrixFq):
            return NotImplemented
        return (
            self.field.q == other.field.q
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )

    def __hash__(self) -> int:
        return hash((self.field.q, self.shape, self.data.tobytes()))

    def transpose(self) -> "MatrixFq":
        return MatrixFq(self.field, self.data.T)


def matrix(ctx: FieldCtx, rows: Sequence[Sequence[int]]) -> MatrixFq:
    """Build a matrix from nested sequences of element indices; [] is 0 x 0."""
    try:
        arr = np.array(rows)
    except ValueError as exc:
        raise FqrankError(f"rows must all have the same length: {exc}") from exc
    return MatrixFq(ctx, arr.reshape(len(rows), -1 if arr.size else 0))


def zero_matrix(ctx: FieldCtx, m: int, n: int) -> MatrixFq:
    return MatrixFq(ctx, np.zeros((m, n), dtype=np.int16))


def identity_matrix(ctx: FieldCtx, n: int) -> MatrixFq:
    return MatrixFq(ctx, np.eye(n, dtype=np.int16))


def _check_same_field(a: MatrixFq, b: MatrixFq) -> None:
    if a.field is not b.field and a.field.spec != b.field.spec:
        raise FieldMismatch(f"GF({a.field.q}) vs GF({b.field.q})")


def _index_matmul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact GF(q) product of element-index arrays a[..., m, k] and b[..., k, n].

    One `_mul_arrays` and `_add_arrays` per inner index; leading axes
    broadcast as in np.matmul, and an inner size of 0 gives zeros.
    """
    if a.shape[-1] == 0:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        return np.zeros(lead + (a.shape[-2], b.shape[-1]), dtype=np.int16)
    out = _mul_arrays(ctx, a[..., :, 0, None], b[..., None, 0, :])
    for k in range(1, a.shape[-1]):
        out = _add_arrays(ctx, out, _mul_arrays(ctx, a[..., :, k, None], b[..., None, k, :]))
    return out


@lru_cache(maxsize=None)
def _digit_weights(q: int, width: int) -> np.ndarray:
    return _read_only(q ** np.arange(width, dtype=np.int64))[0]


def _encode(q: int, digits: np.ndarray) -> np.ndarray:
    """Integer code of each vector along the last axis: its entries as base-q
    digits, least significant first.  A matrix is coded by its row-major
    (C-order) flattening.

    Summed by Horner's rule from the last digit down, in int64: the same
    integers as the weighted sum `digits @ _digit_weights(q, width)`,
    wrapping mod 2^64 where it does, without that product's int64 matmul.
    Width 0 gives zeros."""
    if digits.shape[-1] == 0:
        return np.zeros(digits.shape[:-1], dtype=np.int64)
    codes = digits[..., -1].astype(np.int64)
    for k in range(digits.shape[-1] - 2, -1, -1):
        codes *= q
        codes += digits[..., k]
    return codes


def _decode(q: int, codes: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The int16 stack of rows x cols matrices with the given codes."""
    digits = codes[..., None] // _digit_weights(q, rows * cols) % q
    return digits.astype(np.int16).reshape(codes.shape + (rows, cols))


def _tallies(values: np.ndarray, bins: int) -> np.ndarray:
    """The histogram of each row of values (B, k) in range(bins), as (bins, B)
    int64: one bincount over row-major bins, row j's value v at j * bins + v.
    With two bins a row's counts are k - s and s, s its int64 sum (its ones),
    in about a tenth of the bincount's time on 256 x 256 values."""
    rows = len(values)
    if bins == 2:
        out = np.empty((2, rows), dtype=np.int64)
        values.sum(axis=1, dtype=np.int64, out=out[1])
        np.subtract(values.shape[1], out[1], out=out[0])
        return out
    codes = values + bins * np.arange(rows)[:, None]
    return np.bincount(codes.ravel(), minlength=bins * rows).reshape(rows, bins).T


def mat_mul(a: MatrixFq, b: MatrixFq) -> MatrixFq:
    """Exact matrix product via table gathers, one inner index at a time."""
    _check_same_field(a, b)
    if a.cols != b.rows:
        raise DimensionMismatch(f"inner dimensions differ: {a.shape} x {b.shape}")
    return MatrixFq(a.field, _index_matmul(a.field, a.data, b.data))


def mat_add(a: MatrixFq, b: MatrixFq) -> MatrixFq:
    _check_same_field(a, b)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return MatrixFq(a.field, _add_arrays(a.field, a.data, b.data))


def rank(mat: MatrixFq) -> int:
    """Rank by Gaussian elimination, exact over the field: `_rank_stack` on
    the one matrix, so a shape of few enough matrices is a table lookup."""
    return int(_rank_stack(mat.field, mat.data[None])[0])


def _rank_stack(ctx: FieldCtx, stack: np.ndarray) -> np.ndarray:
    """Rank of every matrix in an int16 (B, rows, cols) stack, as int64.

    With k = min(rows, cols) = 1 each matrix is a vector, of rank 1 exactly
    when it is nonzero: that test comes first, so no vector is eliminated.
    A shape all of whose q^(rows cols) matrices fit in one _BLOCK_ENTRIES
    block is listable, and each matrix is ranked by one lookup of its
    `_encode` code in `_rank_table`.  Any other stack goes to `_eliminate`.
    For larger k, a leading k x k block of rank k certifies that its matrix
    has rank k, so the blocks may be ranked first, through this function,
    and then only the other matrices in full.  A uniform block is
    invertible with probability P = prod_{i=1..k} (1 - q^-i), about 0.93 at
    q = 16, and the blocks are tried only when the entries they are
    expected to spare, P rows cols, exceed their own k^2: never for a
    square stack, nor for a 4 x 2 one over GF(2), where the second pass
    would cost more than the first saves.
    """
    count, rows, cols = stack.shape
    k, size = min(rows, cols), rows * cols
    if k == 1:
        return stack.any(axis=(1, 2)).astype(np.int64)
    # q^size * size <= _BLOCK_ENTRIES needs 2^size <= _BLOCK_ENTRIES, so the
    # bit length bounds size before any large power is formed
    if size < _BLOCK_ENTRIES.bit_length() and ctx.q**size * size <= _BLOCK_ENTRIES:
        return _rank_table(ctx, rows, cols)[_encode(ctx.q, stack.reshape(count, size))]
    invertible = math.prod(1 - ctx.q**-i for i in range(1, k + 1))
    if invertible * size <= k * k:
        return _eliminate(ctx, stack)
    ranks = _rank_stack(ctx, stack[:, :k, :k])
    rest = np.flatnonzero(ranks < k)
    if rest.size:
        ranks[rest] = _eliminate(ctx, stack[rest])
    return ranks


@lru_cache(maxsize=None)
def _rank_table(ctx: FieldCtx, rows: int, cols: int) -> np.ndarray:
    """The read-only int64 rank of every rows x cols matrix over the field,
    indexed by its `_encode` code: `_eliminate` on the `_decode` listing of
    all q^(rows cols) codes, once per field and shape."""
    codes = np.arange(ctx.q ** (rows * cols), dtype=np.int64)
    return _read_only(_eliminate(ctx, _decode(ctx.q, codes, rows, cols)))[0]


def _eliminate(ctx: FieldCtx, stack: np.ndarray) -> np.ndarray:
    """Rank of every matrix in an int16 (B, rows, cols) stack, by Gaussian
    elimination on all matrices at once: the library's one elimination.

    Column by column, each matrix takes as pivot its first nonzero row at or
    below its current rank, swaps it up, scales it to 1 and clears the rows
    below it; only matrices that found a pivot advance.  A matrix whose rank
    reaches its row count is final and leaves the working set, and nothing
    is cleared for it or at the last column, where no later column reads the
    rows.  So a stack with no rows or no columns gives rank 0 with no case
    of its own.
    """
    count, rows, cols = stack.shape
    ranks = np.zeros(count, dtype=np.int64)
    live = np.arange(count)  # stack index of each working matrix
    a = stack.copy()
    r = np.zeros(count, dtype=np.int64)
    row_ids = np.arange(rows)
    for col in range(cols):
        found = (a[:, :, col] != 0) & (row_ids >= r[:, None])
        hit = np.nonzero(found.any(axis=1))[0]
        # only a matrix that goes on to a later column needs its rows cleared
        more = hit[r[hit] + 1 < rows] if col + 1 < cols else hit[:0]
        if more.size:
            piv, top, k = found[more].argmax(axis=1), r[more], np.arange(more.size)
            sub = a[more, :, col:]  # rows at or below each rank are zero left of col
            pivot_row = sub[k, piv]
            pivot_row = _mul_arrays(ctx, pivot_row, ctx.inv_table[pivot_row[:, :1]])
            sub[k, piv] = sub[k, top]
            sub[k, top] = pivot_row
            fac = ctx.neg_table[sub[:, :, 0]] * (row_ids > top[:, None])  # 0: untouched
            scaled = _mul_arrays(ctx, fac[:, :, None], pivot_row[:, None])
            a[more, :, col:] = _add_arrays(ctx, sub, scaled)
        r[hit] += 1
        finished = r == rows
        if finished.any():
            ranks[live[finished]] = rows
            keep = ~finished
            a, r, live = a[keep], r[keep], live[keep]
            if not live.size:
                return ranks
    ranks[live] = r
    return ranks


# ---------------------------------------------------------------------------
# entry subsets and counting statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsetA:
    """A subset of field elements, stored as a bitmask over indices."""

    q: int
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask < (1 << self.q):
            raise FqrankError(f"mask out of range for q={self.q}")

    @classmethod
    def from_indices(cls, q: int, indices: Iterable[int]) -> "SubsetA":
        mask = 0
        for a in indices:
            if not 0 <= a < q:
                raise FqrankError(f"element {a} outside range({q})")
            mask |= 1 << a
        return cls(q, mask)

    @classmethod
    def nonzero(cls, q: int) -> "SubsetA":
        return cls(q, ((1 << q) - 1) & ~1)

    @classmethod
    def zero_only(cls, q: int) -> "SubsetA":
        return cls(q, 1)

    @classmethod
    def full(cls, q: int) -> "SubsetA":
        return cls(q, (1 << q) - 1)

    def members(self) -> tuple[int, ...]:
        return tuple(a for a in range(self.q) if self.mask >> a & 1)

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, a: int) -> bool:
        return 0 <= a < self.q and bool(self.mask >> a & 1)

    def complement(self) -> "SubsetA":
        return SubsetA(self.q, ((1 << self.q) - 1) & ~self.mask)

    def member_table(self) -> np.ndarray:
        """Boolean membership lookup of length q."""
        return _member_table(self.q, self.mask)


@lru_cache(maxsize=None)
def _member_table(q: int, mask: int) -> np.ndarray:
    return _read_only(np.fromiter((bool(mask >> a & 1) for a in range(q)), dtype=bool, count=q))[0]


def _check_subset_field(subset: SubsetA, q: int) -> None:
    """The one check that an entry subset lies over GF(q), else FieldMismatch."""
    if subset.q != q:
        raise FieldMismatch(f"subset over GF({subset.q}), field is GF({q})")


def ct(mat: MatrixFq, subset: SubsetA) -> int:
    """Number of entries of the matrix that lie in the subset."""
    _check_subset_field(subset, mat.field.q)
    return int(subset.member_table()[mat.data].sum())


def wt(mat: MatrixFq) -> int:
    """Number of nonzero entries (Hamming weight)."""
    return int(np.count_nonzero(mat.data))


# ---------------------------------------------------------------------------
# plain-text serialisation
# ---------------------------------------------------------------------------


def dump_matrix(mat: MatrixFq) -> str:
    """Render as a header line "m n q" followed by one line per row."""
    lines = [f"{mat.rows} {mat.cols} {mat.field.q}"]
    for row in mat.data:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def load_matrix(text: str, ctx: FieldCtx | None = None) -> MatrixFq:
    """Parse the :func:`dump_matrix` format.

    When ``ctx`` is given its order must match the header; otherwise the
    field is constructed from the header's q.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise FqrankError("empty matrix text")
    header = _parse_ints(lines[0])
    if len(header) != 3 or min(header[:2]) < 0:
        raise FqrankError(f"header must be 'm n q', got {lines[0]!r}")
    m, n, q = header
    if ctx is None:
        ctx = field_from_order(q)
    elif ctx.q != q:
        raise FieldMismatch(f"header says GF({q}), context is GF({ctx.q})")
    if len(lines) - 1 != m:
        raise FqrankError(f"expected {m} rows, got {len(lines) - 1}")
    rows = [_parse_ints(ln) for ln in lines[1:]]
    for row in rows:
        if len(row) != n:
            raise FqrankError(f"expected {n} columns, got {len(row)}")
        if any(not 0 <= v < q for v in row):
            raise FqrankError(f"entries must lie in range({q})")
    return MatrixFq(ctx, np.array(rows, dtype=np.int16).reshape(m, n))


def _parse_ints(line: str) -> list[int]:
    try:
        return [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise FqrankError(f"expected integers, got {line!r}") from exc
