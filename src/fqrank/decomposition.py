"""Row/column character statistics and the entry-count decomposition identity.

For any factor pair (X, Y) the entry count ct_A(X @ Y) equals a centering
constant plus a double sum of centered character statistics weighted by
transform coefficients of the coordinate-sum indicators, minus
zero-row/zero-column correction terms.  `decompose_ct` evaluates every
term and reports the residual, which must vanish up to floating-point
rounding.  `_pair_free_terms` caches, per field, entry subset and r, every
term that depends on neither the pair nor its size, and holds the limits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .characters import (
    BadSubset,
    CharacterTable,
    IndexSubset,
    all_subsets,
    character_table,
    jacobi_component_trivial,
    restrict_embed,
    sum_indicator,
    units_transform,
)
from .counting import RankOutOfRange, _ct_mean, subset_bias
from .field import FieldCtx, FqrankError, _read_only
from . import matrices
from .matrices import FieldMismatch, MatrixFq, SubsetA, _check_subset_field, _encode, _tallies
from .stats import (
    _MATMUL_PER_GATHER,
    TooLargeToEnumerate,
    _check_pair,
    _one_thread_transform,
    _product_ct_stack,
    _slab,
    _transform,
)

# the one bound on `_element_coefficients`' alternating sum, 3^r Python steps and
# (q+1)^r adds per member, which MAX_COEFFICIENT_WORK does not count: GF(2) r = 22
# passes MAX_DECOMP_TERMS and that cap (about 2^27), yet its sum takes 3.1e10 steps
MAX_DECOMP_RANK = 6
MAX_DECOMP_TERMS = 1 << 22
MAX_COEFFICIENT_WORK = 1 << 34  # A = nonzero: GF(211) r = 2 (2^33.9) took 0.58 s, GF(983) r = 1 (2^34.0) 1.9 s
_CHAR_TRANSFORM_CALL = 1 << 11  # complex multiply-adds' worth of _char_sums' transform's fixed cost per call


# ---------------------------------------------------------------------------
# character statistics of factor matrices
# ---------------------------------------------------------------------------


def row_char_sum(
    x: MatrixFq, subset: IndexSubset, chis: tuple[int, ...], table: CharacterTable
) -> complex:
    """Sum over rows of the product of the chosen characters at the row's
    entries in the subset's columns; the empty subset gives the row count."""
    _check_stat_args(x.cols, x.field, subset, chis, table)
    prod = np.ones(x.rows, dtype=np.complex128)
    for pos, k in enumerate(subset.members()):
        prod = prod * table.mult[chis[pos], x.data[:, k]]
    return complex(prod.sum())


def col_char_sum(
    y: MatrixFq, subset: IndexSubset, chis: tuple[int, ...], table: CharacterTable
) -> complex:
    """Column version of row_char_sum: the subset selects rows of y."""
    return row_char_sum(y.transpose(), subset, chis, table)


def _check_stat_args(
    r: int,
    ctx: FieldCtx,
    subset: IndexSubset,
    chis: tuple[int, ...],
    table: CharacterTable,
) -> None:
    if subset.r != r:
        raise BadSubset(f"subset over range({subset.r}), matrix has inner size {r}")
    if len(chis) != subset.size:
        raise FqrankError(f"{len(chis)} characters for subset of size {subset.size}")
    if table.field.q != ctx.q:
        raise FieldMismatch(f"table over GF({table.field.q}), matrix over GF({ctx.q})")
    for chi in chis:
        if not 0 <= chi < ctx.q - 1:
            raise FqrankError(f"character index {chi} outside range({ctx.q - 1})")


def expected_char_sum(q: int, subset: IndexSubset, chis: tuple[int, ...], terms: int) -> Fraction:
    """Expectation of a character sum with `terms` iid uniform rows/columns:
    (1 - 1/q)^|S| * terms when every character is trivial, else 0."""
    if len(chis) != subset.size:
        raise FqrankError(f"{len(chis)} characters for subset of size {subset.size}")
    if any(chis):
        return Fraction(0)
    return Fraction(q - 1, q) ** subset.size * terms


def count_zero_rows(x: MatrixFq) -> int:
    return int(x.rows - np.count_nonzero(x.data.any(axis=1)))


def count_zero_cols(y: MatrixFq) -> int:
    return int(y.cols - np.count_nonzero(y.data.any(axis=0)))


def zero_count_moments(q: int, r: int, trials: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of the number of all-zero rows among `trials` iid
    uniform rows of width r (binomial with success probability q^-r)."""
    if r < 0:
        raise RankOutOfRange(f"rank {r} is negative")
    p = Fraction(1, q**r)
    return trials * p, trials * p * (1 - p)



# ---------------------------------------------------------------------------
# the decomposition identity
# ---------------------------------------------------------------------------


def _element_coefficients(ctx: FieldCtx, a: int, r: int) -> list[np.ndarray]:
    """Transform coefficients of the Moebius components of the arity-r sum
    indicator of element a: entry [chis] of array `mask` is the coefficient
    of the component on subset `mask` at character tuple chis.

    Each of the 2^r embedded restrictions f_T is transformed once, as F_T.
    Array S is then component_transform_from_embedded's alternating sum for
    every tuple at once: walking T over S.subsets(), +-F_T lands on the
    tuples that are trivial off T.  The all-trivial entry takes the rational
    closed form instead.
    """
    table = character_table(ctx)
    f_a = sum_indicator(ctx, a, r)
    transforms = [units_transform(restrict_embed(f_a, sub), table) for sub in all_subsets(r)]
    out = []
    for subset in all_subsets(r):
        members = subset.members()
        coeffs = np.zeros((ctx.q - 1,) * subset.size, dtype=np.complex128)
        for sub in subset.subsets():
            on_sub = tuple(slice(None) if k in sub else 0 for k in members)
            if (subset.size - sub.size) % 2:
                coeffs[on_sub] -= transforms[sub.mask]
            else:
                coeffs[on_sub] += transforms[sub.mask]
        coeffs[(0,) * subset.size] = float(jacobi_component_trivial(ctx.q, a, subset.size))
        out.append(coeffs)
    return out


def subset_coefficients(
    ctx: FieldCtx, subset_a: SubsetA, r: int
) -> dict[tuple[int, tuple[int, ...]], complex]:
    """Coefficients of the decomposition's double sum, aggregated over the
    entry subset: key (subset mask, character tuple), masks ascending and
    tuples in row-major order, read from `_pair_free_terms`' cached arrays,
    so the route's limits hold here as in decompose_ct."""
    _check_subset_field(subset_a, ctx.q)
    c_re, c_im = _pair_free_terms(ctx, subset_a.mask, r)[2:4]
    keys = ((s.mask, chis) for s in all_subsets(r) for chis in np.ndindex((ctx.q - 1,) * s.size))
    return dict(zip(keys, map(complex, c_re.tolist(), c_im.tolist())))


def _char_sums(entries: np.ndarray, table: CharacterTable) -> np.ndarray:
    """row_char_sum at every index subset and character tuple at once.

    entries[k] holds coordinate k of each row (or column); the result has
    shape (q,)*r, and its entry at t is sum_i prod_k E[t_k, entries[k, i]],
    E being table.mult with a row of ones, index q-1, appended: t_k = q-1
    means coordinate k is absent.  So the entry at t is row_char_sum on the
    subset S = {k : t_k < q-1} at the characters t restricted to S, and the
    q^r entries hold every subset's (q-1)^|S| sums.

    Two routes give the same sums, and the one of less estimated work runs,
    counted in complex multiply-adds: `_char_sums_by_product` takes q^r per
    entry, and `_char_sums_by_transform` r q^(r+1) whatever the width, plus
    _CHAR_TRANSFORM_CALL for its fixed cost per call.  That constant was
    fitted on one core over q <= 128, r <= 4 and widths 1 to 4096 (276
    shapes): the routes it chose took 0.1 % longer in all than the faster
    route of each shape (2^13: 0.3 %), and the 7 shapes it sent more than
    10 % the slower way ran in under 80 us by either route.  The
    transform also needs its smallest matmul call, one (q, q) contraction,
    to stay on one thread (`_one_thread_transform`), so q >= 256 takes the
    product.  The sums are exact on either route where the character values
    are (q = 2) and equal row_char_sum's to rounding elsewhere (the routes
    differed by at most 2.5e-13 over those shapes).
    """
    r, width = entries.shape
    if not r:
        return np.full((), width, dtype=np.complex128)  # 0-d: the row count
    q = table.mult.shape[1]
    if _one_thread_transform(q, True) and r * q ** (r + 1) + _CHAR_TRANSFORM_CALL < q**r * width:
        return _char_sums_by_transform(entries, table)
    return _char_sums_by_product(entries, table)


def _char_sums_by_transform(entries: np.ndarray, table: CharacterTable) -> np.ndarray:
    """`_char_sums` as `_transform` of the histogram of the entries' codes,
    coordinate 0 the most significant digit, so that the transform's codes
    read as the (q,)*r result in C order; the table is E transposed, as
    `_transform` sums hist[c] * table[c_k, t_k] over each digit c_k."""
    r = len(entries)
    q = table.mult.shape[1]
    hist = _tallies(_encode(q, entries[::-1].T)[None], q**r)  # (q^r, 1)
    return _transform(hist, _extended_mult(table).T, r).reshape((q,) * r)


def _char_sums_by_product(entries: np.ndarray, table: CharacterTable) -> np.ndarray:
    """`_char_sums` as one matrix product of Khatri-Rao rows, for r >= 1.

    The coordinates split in two, a tail of the trailing ones and a head of
    the rest, and the Khatri-Rao rows of each part, one per index tuple of
    its coordinates, are the operands of one matrix product, head @ tail.T.
    The tail takes coordinates while its rows, squared, times the width fit
    in the slab below, so a call has about as many head rows as the tail
    has rows (calls of 3 head rows ran about twice as slow per multiply-add
    as calls of 63).  All r coordinates in the tail leave no head, and an
    elementwise product and numpy sum.  The head is formed by broadcast
    products, a `_BLOCK_ENTRIES` block of its trailing coordinates at a
    time, scaled by each tuple of the leading ones.  Where two head rows of
    the full width would overflow a call, each call takes a span of about
    sqrt(slab / tail rows) entries and the spans' products add up (with
    every head row elementwise instead, GF(16) r = 3 at 4096 entries took
    66 ms against 9-16 ms).
    No matmul call holds _BLAS_SLAB / 4 complex multiply-adds (four real
    ones each), and none has one row, which is an elementwise product and
    sum instead: OpenBLAS's zgemm starts its threads at that size, and its
    zgemv at 4096 entries.
    """
    r, width = entries.shape
    q = table.mult.shape[1]
    budget = _slab(True)
    extended = _extended_mult(table)
    # C-ordered (q, width) per coordinate, as np.take gives and extended[:, e] does not:
    # the products keep their operands' layout, and the sums' order follows it
    values = [np.take(extended, coordinate, axis=1) for coordinate in entries]
    tail = values.pop()
    while values and (q * len(tail)) ** 2 * width <= budget:
        tail = (values.pop()[:, None] * tail).reshape(q * len(tail), width)
    if not values:
        return tail.sum(axis=1).reshape((q,) * r)
    inner = values.pop()
    while values and q * len(inner) * width <= matrices._BLOCK_ENTRIES:
        inner = (values.pop()[:, None] * inner).reshape(q * len(inner), width)
    out = np.empty((q ** len(values), len(inner), len(tail)), dtype=np.complex128)
    span = width  # entries per call
    if 2 * len(tail) * width > budget:  # calls about as tall as wide, over part of the entries
        span = math.isqrt(budget // len(tail))
    calls = -(-len(inner) // (budget // (len(tail) * span)))
    bounds = [len(inner) * i // calls for i in range(calls + 1)]  # even slabs
    for block, scales in zip(out, itertools.product(*values)):
        head = inner
        for scale in scales:
            head = head * scale
        for a, b in zip(bounds, bounds[1:]):
            if b - a == 1:
                block[a] = (head[a] * tail).sum(axis=1)
                continue
            np.matmul(head[a:b, :span], tail[:, :span].T, out=block[a:b])
            for k in range(span, width, span):
                block[a:b] += np.matmul(head[a:b, k : k + span], tail[:, k : k + span].T)
    return out.reshape((q,) * r)


@lru_cache(maxsize=None)
def _extended_mult(table: CharacterTable) -> np.ndarray:
    """`_char_sums`' E, read-only, once per table: table.mult with a row of
    ones appended as character q-1, the coordinate being absent."""
    return _read_only(np.vstack([table.mult, np.ones(table.mult.shape[1])]))[0]


@lru_cache(maxsize=None)
def _pair_free_terms(
    ctx: FieldCtx, amask: int, r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, Fraction, float]:
    """Everything decompose_ct reads that depends on neither the pair nor
    its size: where `_char_sums`' flattened result holds each key of
    subset_coefficients, in key order; the places in key order of the 2^r
    all-trivial keys, each the first of its subset's (q-1)^|S|; the real and
    imaginary parts of the coefficients in key order, each member's
    `_element_coefficients` concatenated and added in member order; _ct_mean
    per entry of the product (not MomentParams' mean: the identity holds for
    any inner size r, r > min(m, n) too); and subset_bias as a float.

    The route's one gate, before any table is built, raises
    TooLargeToEnumerate past MAX_DECOMP_RANK, then MAX_DECOMP_TERMS, then
    MAX_COEFFICIENT_WORK multiply-adds: each member runs 2^r
    `units_transform` calls of r (q-1)^(r+1), each also copying the (q-1)^2
    character values of the units at _MATMUL_PER_GATHER per entry, as a
    gather counts (0.5-1.2 ns against 70-90 ps on one core, q <= 2048).
    """
    q, subset_a = ctx.q, SubsetA(ctx.q, amask)
    if r > MAX_DECOMP_RANK:
        raise TooLargeToEnumerate(f"decomposition over inner size r = {r} > {MAX_DECOMP_RANK} not supported")
    if q**r > MAX_DECOMP_TERMS:
        raise TooLargeToEnumerate(f"decomposition over q^r = {q}^{r} > 2^22 character terms not supported")
    members = subset_a.members()
    work = len(members) * 2**r * (_MATMUL_PER_GATHER * (q - 1) ** 2 + r * (q - 1) ** (r + 1))
    if work > MAX_COEFFICIENT_WORK:
        raise TooLargeToEnumerate(f"coefficients take 2^{math.log2(work):.1f} multiply-adds, "
                                  f"over the cap 2^{MAX_COEFFICIENT_WORK.bit_length() - 1}")
    c = np.zeros(q**r, dtype=np.complex128)  # sum over S of (q-1)^|S| keys
    for a in members:
        c += np.concatenate([coeffs.ravel() for coeffs in _element_coefficients(ctx, a, r)])
    digits = np.indices((q,) * r).reshape(r, q**r)  # of each flat index, coordinate 0 first
    masks = (1 << np.arange(r)) @ (digits < q - 1)
    codes = np.argsort(masks, kind="stable")  # within a subset, row-major over its members
    trivial = np.searchsorted(masks[codes], np.arange(2**r))
    return (*_read_only(codes, trivial, c.real.copy(), c.imag.copy()),
            _ct_mean(q, subset_a, r, 1, 1), float(subset_bias(q, subset_a)))


@lru_cache(maxsize=None)
def _row_centring(q: int, r: int, rows: int) -> tuple[np.ndarray, float]:
    """The expected_char_sum of each index subset's all-trivial tuple, mask
    order, and the expected number of zero rows, over `rows` iid uniform
    rows of width r."""
    centres = np.array([float(expected_char_sum(q, s, (0,) * s.size, rows)) for s in all_subsets(r)])
    return _read_only(centres)[0], float(zero_count_moments(q, r, rows)[0])


@dataclass(frozen=True)
class Decomposition:
    """All terms of the entry-count identity for one factor pair."""

    ct_value: int
    mean_term: float
    main_term: complex
    zero_row_term: float
    zero_col_term: float

    @property
    def total(self) -> complex:
        return self.mean_term + self.main_term + self.zero_row_term + self.zero_col_term

    @property
    def residual(self) -> complex:
        return self.ct_value - self.total



def decompose_ct(x: MatrixFq, y: MatrixFq, subset_a: SubsetA) -> Decomposition:
    """Evaluate every term of the identity for ct_A(x @ y), with the cached
    character_table of the field; ct_value is `product_ct`'s count, from
    the same `_product_ct_stack` on the one pair.

    x is m x r and y is r x n over the same field.  The identity is
    algebraic, valid for every pair including rank-deficient ones; the
    residual is floating-point noise only (|residual| <= 1e-6 at the sizes
    the term-count cap admits).

    The row and column character sums of every index subset come from one
    `_char_sums` call per factor, which takes the Khatri-Rao product or the
    character transform of the factor's histogram of row (column) codes,
    whichever it estimates to be less work at that factor's width, so the
    two factors of one pair may take different routes.  The sums are read
    out in subset_coefficients' key order
    through `_pair_free_terms`' cached index, and the all-trivial keys are
    centred by `_row_centring`'s cached expected_char_sum values.  The main
    term is one vector expression over all q^r keys: coefficient * dx * dy
    formed left to right from real and imaginary parts, as Python multiplies
    complex numbers, and summed in key order by np.cumsum (numpy's complex
    multiply may fuse, and its sum is pairwise).  The terms are exact where
    the character values are (q = 2) and correct to rounding elsewhere.
    Every constant that does not depend on the pair is cached, per field,
    entry subset and r, or per (q, r, m) for the row-count terms.  Transient
    memory is about 100 * q^r bytes, and more on the product route, which
    first gathers the r coordinate tables of q x width complex values, r q
    width 16 bytes (64 MiB at GF(1024) r = 1 and width 4096), and then a
    `_BLOCK_ENTRIES` block of head rows.  The limits on r, q^r and the
    coefficient work are `_pair_free_terms`' gate.
    """
    _check_pair(x, y, subset_a)
    ctx = x.field
    r = x.cols
    m, n = x.rows, y.cols
    codes, trivial, c_re, c_im, mean_per_entry, gamma = _pair_free_terms(ctx, subset_a.mask, r)
    x_centres, ez = _row_centring(ctx.q, r, m)
    y_centres, ew = _row_centring(ctx.q, r, n)
    table = character_table(ctx)
    dx = _char_sums(x.data.T, table).ravel()[codes]
    dy = _char_sums(y.data, table).ravel()[codes]
    dx[trivial] -= x_centres
    dy[trivial] -= y_centres
    re = c_re * dx.real - c_im * dx.imag
    im = c_re * dx.imag + c_im * dx.real
    # 0.0 + as in Python's sum from 0j, which never ends at -0.0
    main = complex(
        0.0 + np.cumsum(re * dy.real - im * dy.imag)[-1],
        0.0 + np.cumsum(re * dy.imag + im * dy.real)[-1],
    )
    zero_row_term = -gamma * n * (count_zero_rows(x) - ez)
    zero_col_term = -gamma * m * (count_zero_cols(y) - ew)

    return Decomposition(
        ct_value=int(_product_ct_stack(ctx, x.data[None], y.data[None], subset_a.mask)[0]),
        mean_term=float(mean_per_entry * (m * n)),
        main_term=main,
        zero_row_term=zero_row_term,
        zero_col_term=zero_col_term,
    )
