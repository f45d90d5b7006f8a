"""Dense matrices over GF(q): exact products, rank, and entry counting.

A matrix is a thin wrapper around a numpy int16 array of element indices
together with the field it lives over.  Shapes with zero rows or columns are
legal everywhere (an m x 0 times 0 x n product is the zero matrix), which
keeps rank-0 factorisations free of special cases.

The enumeration oracles work on stacks of index arrays instead: `_index_matmul`
is the one GF(q) product formula and `_encode`/`_decode` the one spelling of
a matrix as an integer code, which the enumeration oracles and the
character-transform count in `fqrank.stats` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .field import FieldCtx, FqrankError, field_from_order


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
        own.setflags(write=False)
        object.__setattr__(self, "data", own)

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
    data = np.zeros((n, n), dtype=np.int16)
    np.fill_diagonal(data, 1)
    return MatrixFq(ctx, data)


def _check_same_field(a: MatrixFq, b: MatrixFq) -> None:
    if a.field is not b.field and a.field.spec != b.field.spec:
        raise FieldMismatch(f"GF({a.field.q}) vs GF({b.field.q})")


def _index_matmul(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact GF(q) product of element-index arrays a[..., m, k] and b[..., k, n].

    Table gathers, one inner index at a time; leading axes broadcast as in
    np.matmul, and an inner size of 0 gives zeros.
    """
    if a.shape[-1] == 0:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        return np.zeros(lead + (a.shape[-2], b.shape[-1]), dtype=np.int16)
    out = ctx.mul_table[a[..., :, 0, None], b[..., None, 0, :]]
    for k in range(1, a.shape[-1]):
        out = ctx.add_table[out, ctx.mul_table[a[..., :, k, None], b[..., None, k, :]]]
    return out


@lru_cache(maxsize=None)
def _digit_weights(q: int, width: int) -> np.ndarray:
    weights = q ** np.arange(width, dtype=np.int64)
    weights.setflags(write=False)
    return weights


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
    return MatrixFq(a.field, a.field.add_table[a.data, b.data])


def rank(mat: MatrixFq) -> int:
    """Rank by Gaussian elimination, exact over the field.

    Row echelon reduction with the first nonzero entry of the working column
    as pivot; elimination uses vectorised table gathers per pivot.
    """
    ctx = mat.field
    a = mat.data.copy()
    m, n = a.shape
    r = 0
    for col in range(n):
        if r == m:
            break
        pivot_rows = np.nonzero(a[r:, col])[0]
        if pivot_rows.size == 0:
            continue
        piv = r + int(pivot_rows[0])
        if piv != r:
            a[[r, piv], :] = a[[piv, r], :]
        inv_p = ctx.inv_table[a[r, col]]
        a[r, :] = ctx.mul_table[a[r, :], inv_p]
        below = np.nonzero(a[r + 1 :, col])[0] + r + 1
        if below.size:
            fac = ctx.neg_table[a[below, col]]
            scaled = ctx.mul_table[fac[:, None], a[r, :][None, :]]
            a[below, :] = ctx.add_table[a[below, :], scaled]
        r += 1
    return r


def _rank_stack(ctx: FieldCtx, stack: np.ndarray) -> np.ndarray:
    """Rank of every matrix in an int16 (B, rows, cols) stack.

    With k = min(rows, cols), a leading k x k block of rank k certifies that
    its matrix has rank k, so `_eliminate` may rank the blocks first and
    then only the other matrices in full.  A uniform block is invertible
    with probability P = prod_{i=1..k} (1 - q^-i), about 0.93 at q = 16,
    and the blocks are tried only when the entries they are expected to
    spare, P rows cols, exceed their own k^2: never for a square stack, nor
    for a 4 x 2 one over GF(2), where the second pass would cost more than
    the first saves.  A stack of one matrix goes through `rank`, which is
    the faster route at that size.
    """
    count, rows, cols = stack.shape
    if count == 1:
        return np.array([rank(MatrixFq(ctx, stack[0]))])
    k = min(rows, cols)
    invertible = math.prod(1 - ctx.q**-i for i in range(1, k + 1))
    if invertible * rows * cols <= k * k:
        return _eliminate(ctx, stack)
    ranks = _eliminate(ctx, stack[:, :k, :k])
    rest = np.flatnonzero(ranks < k)
    if rest.size:
        ranks[rest] = _eliminate(ctx, stack[rest])
    return ranks


def _eliminate(ctx: FieldCtx, stack: np.ndarray) -> np.ndarray:
    """Rank of every matrix in an int16 (B, rows, cols) stack, by `rank`'s
    elimination on all matrices at once.

    Column by column, each matrix takes as pivot its first nonzero row at or
    below its current rank, swaps it up, scales it to 1 and clears the rows
    below it; only matrices that found a pivot advance.  A matrix whose rank
    reaches its row count is final and leaves the working set, and nothing
    is cleared for it or at the last column, where no later column reads the
    rows.
    """
    count, rows, cols = stack.shape
    ranks = np.zeros(count, dtype=np.int64)
    if rows == 0 or cols == 0:
        return ranks
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
            pivot_row = ctx.mul_table[pivot_row, ctx.inv_table[pivot_row[:, :1]]]
            sub[k, piv] = sub[k, top]
            sub[k, top] = pivot_row
            fac = ctx.neg_table[sub[:, :, 0]] * (row_ids > top[:, None])  # 0: untouched
            scaled = ctx.mul_table[fac[:, :, None], pivot_row[:, None]]
            a[more, :, col:] = ctx.add_table[sub, scaled]
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
    table = np.fromiter((bool(mask >> a & 1) for a in range(q)), dtype=bool, count=q)
    table.setflags(write=False)
    return table


def ct(mat: MatrixFq, subset: SubsetA) -> int:
    """Number of entries of the matrix that lie in the subset."""
    if subset.q != mat.field.q:
        raise FieldMismatch(f"subset over GF({subset.q}), matrix over GF({mat.field.q})")
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
