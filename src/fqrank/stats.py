"""Row/column character statistics, the entry-count decomposition identity,
exact laws by enumeration, and Monte Carlo normality checks.

The centrepiece is an algebraic identity: for any factor pair (X, Y) the
entry count ct_A(X @ Y) equals a centering constant plus a double sum of
centered character statistics weighted by transform coefficients of the
coordinate-sum indicators, minus zero-row/zero-column correction terms.
`decompose_ct` evaluates every term and reports the residual, which must
vanish up to floating-point rounding.

Monte Carlo runs derive one generator stream per sample index, so results
are independent of worker count; reductions happen on the fully assembled
sample array in index order.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

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
from .counting import (
    MomentParams,
    RankOutOfRange,
    _check_rank,
    _ct_mean,
    asymptotic_ct_mean,
    asymptotic_ct_variance,
    rank_count,
    subset_bias,
    tv_closed_form_exact,
)
from .field import FieldCtx, FqrankError, _add_arrays, _power_at_most, make_field
from .matrices import (
    _BLOCK_ENTRIES,
    DimensionMismatch,
    FieldMismatch,
    MatrixFq,
    SubsetA,
    _check_same_field,
    _decode,
    _encode,
    _index_matmul,
    ct,
)
from .sampling import _blocks, _draw_seeded_block

MAX_DECOMP_RANK = 6
MAX_EXACT_STEPS = 1 << 28  # cap on exact_distribution's steps, summed over the inner dimensions
MAX_DECOMP_TERMS = 1 << 22
MAX_COEFFICIENT_WORK = 1 << 34  # A = nonzero: GF(211) r = 2 (2^33.9) took 0.58 s, GF(983) r = 1 (2^34.0) 1.9 s
MAX_TRANSFORM_CODES = 1 << 22
_CLT_HIST_RANGE = (-4.0, 4.0)  # clt histogram span; values outside land in the end bins
_BLAS_SLAB = 1 << 18  # real multiply-adds per matmul call; a complex one counts as four
_MATMUL_PER_GATHER = 8  # transform multiply-adds that cost as much as one product gather
_TRANSFORM_CALL = 1 << 15  # gathers' worth of the transform's fixed cost per call, past the product's
_CHAR_TRANSFORM_CALL = 1 << 11  # complex multiply-adds' worth of _char_sums' transform's fixed cost per call
_ROUND_MARGIN = 0.25  # a transform count further than this from an integer is recounted
_SCALE_TABLE = 1 << 12  # entries of `_scaled_codes`' table of a c per element a and chunk c


class DegenerateSubset(FqrankError):
    """Raised when a statistic needs a nonzero scaling variance."""


class TooLargeToEnumerate(FqrankError):
    """Raised when an exact enumeration would exceed its size gate."""


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


@lru_cache(maxsize=None)
def _coefficient_arrays(ctx: FieldCtx, amask: int, r: int) -> tuple[np.ndarray, ...]:
    """The element coefficient arrays summed over the entry subset in member
    order, one read-only array of shape (q-1,)*|S| per subset mask S.

    Each member runs 2^r `units_transform` calls of r (q-1)^(r+1)
    multiply-adds, and each call also copies the (q-1)^2 character values
    of the units, an entry counting _MATMUL_PER_GATHER multiply-adds as a
    gather does (0.5-1.2 ns against 70-90 ps on one core, q <= 2048).
    TooLargeToEnumerate, before the character table is built, when that
    work passes MAX_COEFFICIENT_WORK.
    """
    q, members = ctx.q, SubsetA(ctx.q, amask).members()
    work = len(members) * 2**r * (_MATMUL_PER_GATHER * (q - 1) ** 2 + r * (q - 1) ** (r + 1))
    if work > MAX_COEFFICIENT_WORK:
        raise TooLargeToEnumerate(f"coefficients take 2^{math.log2(work):.1f} multiply-adds, "
                                  f"over the cap 2^{MAX_COEFFICIENT_WORK.bit_length() - 1}")
    total = [np.zeros((q - 1,) * s.size, dtype=np.complex128) for s in all_subsets(r)]
    for a in members:
        for acc, coeffs in zip(total, _element_coefficients(ctx, a, r)):
            acc += coeffs
    return _read_only(*total)


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


def subset_coefficients(
    ctx: FieldCtx, subset_a: SubsetA, r: int
) -> dict[tuple[int, tuple[int, ...]], complex]:
    """Coefficients of the decomposition's double sum, aggregated over the
    entry subset: key (subset mask, character tuple), masks ascending and
    tuples in row-major order, built from the cached per-subset arrays."""
    return {
        (mask, chis): coeff
        for mask, coeffs in enumerate(_coefficient_arrays(ctx, subset_a.mask, r))
        for chis, coeff in zip(np.ndindex(*coeffs.shape), coeffs.ravel().tolist())
    }


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
    hist = np.bincount(_encode(q, entries[::-1].T), minlength=q**r)
    return _transform(hist[:, None], _extended_mult(table).T, r).reshape((q,) * r)


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
    while values and q * len(inner) * width <= _BLOCK_ENTRIES:
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
def _key_order(q: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Where `_char_sums`' flattened result holds each key of
    subset_coefficients, in key order, and the places in key order of the
    2^r all-trivial keys, each the first of its subset's (q-1)^|S|."""
    digits = np.indices((q,) * r).reshape(r, q**r)  # of each flat index, coordinate 0 first
    masks = (1 << np.arange(r)) @ (digits < q - 1)
    codes = np.argsort(masks, kind="stable")  # within a subset, row-major over its members
    return _read_only(codes, np.searchsorted(masks[codes], np.arange(2**r)))


@lru_cache(maxsize=None)
def _pair_free_terms(
    ctx: FieldCtx, amask: int, r: int
) -> tuple[np.ndarray, np.ndarray, Fraction, float]:
    """decompose_ct's constants that depend on neither factor nor size: the
    real and imaginary parts of the coefficients in key order, _ct_mean per
    entry of the product (not MomentParams' mean: the identity holds for any
    inner size r, r > min(m, n) too), and subset_bias as a float."""
    subset_a = SubsetA(ctx.q, amask)
    c = np.concatenate([a.ravel() for a in _coefficient_arrays(ctx, amask, r)])
    re, im = _read_only(c.real.copy(), c.imag.copy())
    return re, im, _ct_mean(ctx.q, subset_a, r, 1, 1), float(subset_bias(ctx.q, subset_a))


@lru_cache(maxsize=None)
def _row_centring(q: int, r: int, rows: int) -> tuple[np.ndarray, float]:
    """The expected_char_sum of each index subset's all-trivial tuple, mask
    order, and the expected number of zero rows, over `rows` iid uniform
    rows of width r."""
    centres = np.array([float(expected_char_sum(q, s, (0,) * s.size, rows)) for s in all_subsets(r)])
    centres.setflags(write=False)
    return centres, float(zero_count_moments(q, r, rows)[0])


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


def _check_pair(x: MatrixFq, y: MatrixFq, subset_a: SubsetA) -> None:
    _check_same_field(x, y)
    if x.cols != y.rows:
        raise DimensionMismatch(f"inner dimensions differ: {x.shape} x {y.shape}")
    if subset_a.q != x.field.q:
        raise FieldMismatch(
            f"subset over GF({subset_a.q}), matrices over GF({x.field.q})"
        )


def decompose_ct(x: MatrixFq, y: MatrixFq, subset_a: SubsetA) -> Decomposition:
    """Evaluate every term of the identity for ct_A(x @ y), with the cached
    character_table of the field; ct_value is `product_ct`'s count.

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
    through `_key_order`'s cached index, and the all-trivial keys are
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
    `_BLOCK_ENTRIES` block of head rows.
    """
    _check_pair(x, y, subset_a)
    ctx = x.field
    r = x.cols
    m, n = x.rows, y.cols
    if r > MAX_DECOMP_RANK:
        raise TooLargeToEnumerate(
            f"decomposition over inner size r = {r} > {MAX_DECOMP_RANK} not supported"
        )
    if ctx.q**r > MAX_DECOMP_TERMS:
        raise TooLargeToEnumerate(
            f"decomposition over q^r = {ctx.q}^{r} > 2^22 character terms not supported"
        )
    codes, trivial = _key_order(ctx.q, r)
    c_re, c_im, mean_per_entry, gamma = _pair_free_terms(ctx, subset_a.mask, r)
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
        ct_value=product_ct(x, y, subset_a),
        mean_term=float(mean_per_entry * (m * n)),
        main_term=main,
        zero_row_term=zero_row_term,
        zero_col_term=zero_col_term,
    )


def _normalization(q: int, subset_a: SubsetA, r: int, m: int, n: int) -> tuple[float, float]:
    """The centring mu and scale sigma of the normalised entry count, from
    asymptotic_ct_mean and asymptotic_ct_variance; MomentParams checks the
    arguments, and a zero scale raises DegenerateSubset."""
    params = MomentParams(q=q, r=r, m=m, n=n, subset=subset_a)
    sigma2 = asymptotic_ct_variance(params)
    if sigma2 == 0:
        raise DegenerateSubset(
            f"variance scale is zero for subset of size {subset_a.size} at r={r}"
        )
    return float(asymptotic_ct_mean(params)), math.sqrt(float(sigma2))


def normalized_ct(mat: MatrixFq, subset_a: SubsetA, r: int) -> float:
    """Centered and scaled entry count (the statistic whose law approaches
    standard normal as the dimensions grow): (ct_A(mat) - mu) / sigma with
    `_normalization`'s constants."""
    mu, sigma = _normalization(mat.field.q, subset_a, r, mat.rows, mat.cols)
    return (ct(mat, subset_a) - mu) / sigma


# ---------------------------------------------------------------------------
# entry counting for product matrices
# ---------------------------------------------------------------------------


def product_ct(x: MatrixFq, y: MatrixFq, subset_a: SubsetA) -> int:
    """ct_A(x @ y), counted by additive characters or by the product,
    whichever `_product_ct_stack` estimates to be less work.

    With psi the canonical additive character of GF(q), Y's column
    histogram H_Y and its transform H^_Y(c) = sum_y H_Y(y) psi(c . y),
    ct_A(XY) = (1/q) sum_a c_A(a) sum_i H^_Y(a x_i), with
    c_A(a) = sum_{s in A} conj psi(a s): no term is formed per entry of
    the m x n product.  The count is exact: for p = 2 every partial sum is
    an integer held exactly (in float32 below 2^24, else float64; see
    `_transform_ct`), and for odd p a value further than `_ROUND_MARGIN`
    from an integer is counted again by the product.
    The one-pair caller of `_product_ct_stack`.
    """
    _check_pair(x, y, subset_a)
    return int(_product_ct_stack(x.field, x.data[None], y.data[None], subset_a.mask)[0])


def _product_ct_stack(ctx: FieldCtx, xs: np.ndarray, ys: np.ndarray, amask: int) -> np.ndarray:
    """product_ct of each pair of the int16 stacks xs (B, m, r) and ys (B, r, n).

    The route is chosen once for the stack by estimated work.  Per pair,
    the transform's r q^(r+1) multiply-adds count 1/_MATMUL_PER_GATHER of
    a gather each (fitted on one core over q <= 256, r <= 7, m = n <= 512,
    where a multiply-add took 0.2-2.3 ns and a gather of the product 1-2 ns;
    4 to 8 per gather choose equally well there), plus q (r+1) min(m, q^r)
    + n r gathers for the codes; the product takes (2r+1) m n gathers.
    The transform adds _TRANSFORM_CALL gathers once per call, the fixed cost
    it pays beyond the product's (fitted on the same grid, stacks of 1 to 64
    pairs), so a single small pair is counted by its product.
    The transform also needs q^r <= MAX_TRANSFORM_CODES, and
    `_one_thread_transform`, so that its matmul calls stay on one thread
    (see `_transform`): q^2 <= _BLAS_SLAB for p = 2, and for odd p, whose
    table is complex, q^2 < _BLAS_SLAB / 4, so q < 256.  It counts
    `_blocks` of pairs, each pair gathering q max(m, q^r) values, so a pair
    with q^r = 2^16 is counted alone.
    Pairs the rounding check refuses, and every pair when the product is
    cheaper, are counted by their products, formed in `_blocks` of pairs.
    The stated bound on the transform's rounding is 1e-6: for odd p its
    values lie that close to the count (worst seen 2.1e-9, GF(3) r = 1,
    m = n = 4096), far inside _ROUND_MARGIN; for p = 2 they are exact.
    """
    pairs, m, r = xs.shape
    n, q = ys.shape[-1], ctx.q
    cts = np.zeros(pairs, dtype=np.int64)
    exact = np.zeros(pairs, dtype=bool)
    if (
        _one_thread_transform(q, ctx.p != 2)
        and _power_at_most(q, r, MAX_TRANSFORM_CODES)
        and pairs * (r * q ** (r + 1) / _MATMUL_PER_GATHER + q * (r + 1) * min(m, q**r) + n * r)
        + _TRANSFORM_CALL < pairs * (2 * r + 1) * m * n
    ):
        values = np.concatenate(
            [_transform_ct(ctx, xs[lo:hi], ys[lo:hi], amask)
             for lo, hi in _blocks(0, pairs, q * max(m, q**r))]
        )
        nearest = np.rint(values.real)
        exact = np.abs(values - nearest) < _ROUND_MARGIN
        cts[exact] = nearest[exact]
    member = SubsetA(q, amask).member_table()
    redo = np.flatnonzero(~exact)
    for lo, hi in _blocks(0, len(redo), m * n):
        block = redo[lo:hi]
        cts[block] = member[_index_matmul(ctx, xs[block], ys[block])].sum(axis=(1, 2))
    return cts


def _transform_ct(ctx: FieldCtx, xs: np.ndarray, ys: np.ndarray, amask: int) -> np.ndarray:
    """ct_A(x @ y) of each pair by the character identity, unrounded (real
    for p = 2, complex otherwise).

    `_tallies` counts the column codes of every pair in one bincount (one
    row sum at q^r = 2) and hands the histograms over codes first, (q^r, B):
    `_transform` copies them C-ordered into that layout and works on them in
    place, and one gather reads every pair's transform at code * B + k.  The
    codes of a x_i come from `_scaled_codes`, a few digits at a time.  The
    additive table and the weights c_A(a) are cached (`_additive_terms`).
    When q^r <= m the rows are tallied by `_tallies` as well, and
    sum_i H^_Y(a x_i) is taken as sum_c G_X(c) H^_Y(a c) over the q^r
    codes c.  For p = 2 every value of
    every pass of `_transform` is a signed sum of the n column counts, so it
    runs in float32, exact below 2^24, when n < 2^24 (float64 otherwise);
    the sums gathered from it, up to m n, accumulate in float64.
    """
    q, (pairs, m, r) = ctx.q, xs.shape
    size = q**r
    n = ys.shape[-1]
    # psi is exactly +-1 for p = 2, so every value of hat is an integer of size <= n,
    # and float32 holds integers to 2^24
    dtype = np.complex128 if ctx.p != 2 else np.float32 if n < 1 << 24 else np.float64
    table, weights = _additive_terms(ctx, amask, dtype)
    wide = weights.dtype  # float64 or complex128: the gathered sums reach m * n
    hat = _transform(_tallies(_encode(q, ys.swapaxes(1, 2)), size), table, r)  # (q^r, B)
    if size <= m:
        patterns = _decode(q, np.arange(size, dtype=np.int64), 1, r)[:, 0, :]
        multiples = _scaled_codes(ctx, patterns)  # code of a c, per a and c
        g_x = _tallies(_encode(q, xs), size)  # (q^r, B), as hat
        sums = (hat.astype(wide, copy=False)[multiples] * g_x).sum(axis=1).T
    else:
        # code of a x_i, per a, pair, i, at its place in hat
        multiples = _scaled_codes(ctx, xs) * pairs + np.arange(pairs)[:, None]
        sums = hat.ravel()[multiples].sum(axis=2, dtype=wide).T
    return (sums * weights).sum(axis=1) / q  # not a BLAS call: see _transform


@lru_cache(maxsize=None)
def _additive_terms(ctx: FieldCtx, amask: int, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """`_transform_ct`'s table psi(a b) in dtype and its weights c_A(a) =
    sum_{s in A} conj psi(a s), real for p = 2, read-only, once per field,
    entry subset and dtype."""
    table = character_table(ctx).add
    weights = table[:, SubsetA(ctx.q, amask).member_table()].conj().sum(axis=1)
    if ctx.p == 2:
        table, weights = table.real.astype(dtype), weights.real
    return _read_only(table, weights)


def _scaled_codes(ctx: FieldCtx, digits: np.ndarray) -> np.ndarray:
    """The code of a v for every element a and every vector v along digits'
    last axis: (q,) + digits.shape[:-1], int64.

    Horner's rule over chunks of s = `_scale_digits` digits, most
    significant first: a v's chunk is `_scale_table`'s entry at a and the
    code of v's chunk, as a acts on each digit alone, and a short top chunk
    reads the same table, its missing digits being zeros.  At s = 1 the
    table is the product table, and this is one gather and one Horner step
    per digit."""
    q, r = ctx.q, digits.shape[-1]
    s = _scale_digits(q, r)
    table = _scale_table(ctx, s)
    top, *rest = range(0, max(r, 1), s)[::-1]
    out = np.take(table, _encode(q, digits[..., top:]), axis=1)
    for lo in rest:
        out *= q**s
        out += np.take(table, _encode(q, digits[..., lo : lo + s]), axis=1)
    return out


def _scale_digits(q: int, r: int) -> int:
    """The chunk width s of `_scaled_codes`: the most digits, up to r, whose
    scale table of q^(s+1) entries fits in _SCALE_TABLE, and at least one."""
    s = 1
    while s < r and q ** (s + 2) <= _SCALE_TABLE:
        s += 1
    return s


@lru_cache(maxsize=None)
def _scale_table(ctx: FieldCtx, s: int) -> np.ndarray:
    """The code of a c for every element a and every c of s digits, (q, q^s)
    int64, read-only, once per field and s."""
    digits = _decode(ctx.q, np.arange(ctx.q**s, dtype=np.int64), 1, s)[:, 0, :]
    return _read_only(_encode(ctx.q, ctx.mul_table[:, digits]))[0]


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


def _transform(hist: np.ndarray, table: np.ndarray, r: int) -> np.ndarray:
    """The character transform of each column of hist (q^r, B): table
    applied along each of the r digit axes of the codes.

    Pass k views the array as (q^(r-1-k), q, q^k B), digit k in the middle,
    and writes table^T @ each (q, q^k B) slice into a second buffer, so no
    pass moves an axis; when q^k B is 1 it is one (rows, q) @ table product.
    No matmul call contracts more than _BLAS_SLAB multiply-adds, batch items
    included, and a complex one (odd p) holds fewer than _BLAS_SLAB / 4:
    OpenBLAS's zgemm starts its threads at 2^16 complex multiply-adds (real
    gemm stayed on one thread up to 2^19), and beside the other clt worker
    processes they only contend for the same cores.
    The passes reshape and write with `out=`, which on a strided array
    would land in temporary copies, so hist is copied C-ordered whatever
    its own layout (a transposed tally among them).
    """
    q = len(table)
    pairs = hist.shape[1]
    slab = _slab(np.iscomplexobj(table))
    src = hist.astype(table.dtype, order="C")
    dst = np.empty_like(src)
    for k in range(r):
        cols = q**k * pairs
        if cols == 1:
            rows, out = src.reshape(-1, q), dst.reshape(-1, q)
            step = max(1, slab // (q * q))
            for lo in range(0, len(rows), step):
                np.matmul(rows[lo : lo + step], table, out=out[lo : lo + step])
        else:
            slabs, out = src.reshape(-1, q, cols), dst.reshape(-1, q, cols)
            width = min(cols, max(1, slab // (q * q)))
            items = max(1, slab // (q * q * width))
            for lo in range(0, len(slabs), items):
                for left in range(0, cols, width):
                    part = np.s_[lo : lo + items, :, left : left + width]
                    np.matmul(table.T, slabs[part], out=out[part])
        src, dst = dst, src
    return src


def _slab(complex_table: bool) -> int:
    """The most multiply-adds one matmul call may hold: _BLAS_SLAB real ones,
    or, counting a complex one as four, fewer than _BLAS_SLAB / 4 complex
    ones (zgemm's threads start at 2^16)."""
    return _BLAS_SLAB // 4 - 1 if complex_table else _BLAS_SLAB


def _one_thread_transform(q: int, complex_table: bool) -> bool:
    """Whether `_transform`'s smallest matmul call, one (q, q) contraction,
    fits in a slab, so that every call stays on one thread."""
    return q * q <= _slab(complex_table)


# ---------------------------------------------------------------------------
# Monte Carlo normality runs
# ---------------------------------------------------------------------------


def normal_cdf(t: float) -> float:
    return float(_normal_cdf_array(t))


def _normal_cdf_array(t: np.ndarray) -> np.ndarray:
    """The standard normal CDF at every point of t, from math.erf's values."""
    erf = np.frompyfunc(math.erf, 1, 1)(np.asarray(t, dtype=np.float64) / math.sqrt(2.0))
    return 0.5 * (1.0 + np.asarray(erf, dtype=np.float64))


def ks_distance(values: np.ndarray) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic against the standard
    normal, evaluated at the sorted sample points (both one-sided gaps)."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n == 0:
        raise FqrankError("need at least one sample")
    cdf = _normal_cdf_array(xs)
    upper = (np.arange(1, n + 1) / n - cdf).max()
    lower = (cdf - np.arange(0, n) / n).max()
    return float(max(upper, lower))


@dataclass(frozen=True)
class CltReport:
    """Summary of one Monte Carlo run of the normalised entry count."""

    q: int
    subset_members: tuple[int, ...]
    r: int
    m: int
    n: int
    num_samples: int
    seed: int
    mode: str
    mean: float
    variance: float
    skewness: float
    ks: float
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    samples: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        """JSON-ready view; excludes the raw samples and anything (like the
        worker count) that must not affect the report."""
        return {
            "q": self.q,
            "A": list(self.subset_members),
            "r": self.r,
            "m": self.m,
            "n": self.n,
            "N": self.num_samples,
            "seed": self.seed,
            "mode": self.mode,
            "mean": self.mean,
            "variance": self.variance,
            "skewness": self.skewness,
            "ks_distance": self.ks,
            "histogram": {
                "edges": list(self.bin_edges),
                "counts": list(self.counts),
            },
        }


def _clt_values(
    ctx: FieldCtx,
    subset_a: SubsetA,
    r: int,
    m: int,
    n: int,
    mode: str,
    seed: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """The normalised entry counts of samples lo..hi-1, drawn and counted
    in `_blocks` of factor pairs."""
    mu, sigma = _normalization(ctx.q, subset_a, r, m, n)
    out = np.empty(hi - lo, dtype=np.float64)
    for start, stop in _blocks(lo, hi, (m + n) * r):
        lefts, rights = _draw_seeded_block(ctx, m, n, r, seed, start, stop, mode)
        cts = _product_ct_stack(ctx, lefts, rights, subset_a.mask)
        out[start - lo : stop - lo] = (cts - mu) / sigma
    return out


def _clt_worker(job: tuple, conn) -> None:
    """Count one chunk of a clt run in a worker process and send its values,
    or the exception that stopped it, over the one-way pipe `conn`."""
    p, e, amask, r, m, n, mode, seed, lo, hi = job
    try:
        ctx = make_field(p, e)
        result = _clt_values(ctx, SubsetA(ctx.q, amask), r, m, n, mode, seed, lo, hi)
    except BaseException as exc:
        result = exc
    conn.send(result)
    conn.close()


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_clt(
    ctx: FieldCtx,
    subset_a: SubsetA,
    r: int,
    m: int,
    n: int,
    num_samples: int,
    seed: int,
    mode: str = "exact",
    workers: int = 1,
    bins: int = 81,
) -> CltReport:
    """Draw matrices, normalise their entry counts, and summarise the law.

    The report is a pure function of everything except `workers`: sample i
    always comes from stream (seed, i) and the reductions run over the
    assembled array in index order.  `workers` must be at least 1, and is
    capped at the CPUs the process may run on and at `num_samples`.  It is
    the number of processes that count, the caller included: the samples
    are split into `workers` chunks, the caller counts chunk 0 (all of them,
    starting no process, for one worker), and each other chunk runs in its
    own `multiprocessing.Process`, started with its job before the caller
    begins and sending back its values, or its exception, over a one-way
    pipe.  Every worker is joined before this returns or raises; after an
    error any still running is terminated.  A worker that dies without a
    message raises RuntimeError.  The arguments are checked before any
    sample is drawn, the field and rank by MomentParams.
    """
    if num_samples < 100:
        raise FqrankError(f"need at least 100 samples, got {num_samples}")
    _normalization(ctx.q, subset_a, r, m, n)
    if bins < 1:
        raise FqrankError(f"need at least one histogram bin, got {bins}")
    if workers < 1:
        raise FqrankError(f"need at least one worker, got {workers}")

    workers = min(workers, _usable_cpus(), num_samples)
    bounds = np.linspace(0, num_samples, workers + 1).astype(int).tolist()
    started = []
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            import multiprocessing  # only where a worker starts

            job = (ctx.p, ctx.e, subset_a.mask, r, m, n, mode, seed, lo, hi)
            receiver, sender = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_clt_worker, args=(job, sender))
            proc.start()
            sender.close()  # the worker holds the only send end: its exit means EOF
            started.append((proc, receiver))
        chunks = [_clt_values(ctx, subset_a, r, m, n, mode, seed, 0, bounds[1])]
        for proc, receiver in started:
            try:
                result = receiver.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"a clt worker exited with code {proc.exitcode} and sent no result"
                ) from None
            if isinstance(result, BaseException):
                raise result
            chunks.append(result)
        values = np.concatenate(chunks)
    except BaseException:
        for proc, _ in started:
            proc.terminate()
        raise
    finally:
        for proc, receiver in started:
            proc.join()
            receiver.close()

    mean = float(values.mean())
    # equal samples: var() lands a few ulps above 0, as their mean is rounded
    variance, skewness = 0.0, 0.0
    if values.max() > values.min():
        variance = float(values.var())
        skewness = float(((values - mean) ** 3).mean() / variance**1.5)
    lo_edge, hi_edge = _CLT_HIST_RANGE
    edges = np.linspace(lo_edge, hi_edge, bins + 1)
    counts, _ = np.histogram(np.clip(values, lo_edge, hi_edge), bins=edges)
    return CltReport(
        q=ctx.q,
        subset_members=subset_a.members(),
        r=r,
        m=m,
        n=n,
        num_samples=num_samples,
        seed=seed,
        mode=mode,
        mean=mean,
        variance=variance,
        skewness=skewness,
        ks=ks_distance(values),
        bin_edges=tuple(float(v) for v in edges),
        counts=tuple(int(c) for c in counts),
        samples=values,
    )


# ---------------------------------------------------------------------------
# exact enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactDistribution:
    """Exact laws of the entry count at one parameter point.

    rank_dist is over uniform rank-r matrices, and product_dist over
    products of unconditioned uniform factors; matrix_tv is the total
    variation between the two matrix-level laws, summed |P - U| with no 1/2.
    Each is the same at (m, n) and at (n, m).
    """

    rank_dist: dict[int, Fraction]
    product_dist: dict[int, Fraction]
    mean: Fraction
    variance: Fraction
    matrix_tv: Fraction


def _law(counts: list[int]) -> dict[int, Fraction]:
    """The law of a tally of entry counts, ascending over the values seen."""
    total = sum(counts)
    return {value: Fraction(cnt, total) for value, cnt in enumerate(counts) if cnt}


def _exact_result(rank_ct: np.ndarray, pair_ct: np.ndarray, matrix_tv: Fraction) -> ExactDistribution:
    """The ExactDistribution of an enumeration's tallies of entry counts:
    rank_ct over the rank-r matrices, pair_ct over all pairs.

    The moments come from the sums of c_v, v c_v and v^2 c_v over the tally,
    in Python ints (numpy's int64 would wrap), and one Fraction each."""
    counts = rank_ct.tolist()
    total = sum(counts)
    first = sum(v * c for v, c in enumerate(counts))
    second = sum(v * v * c for v, c in enumerate(counts))
    mean = Fraction(first, total)
    variance = Fraction(second * total - first * first, total * total)
    return ExactDistribution(_law(counts), _law(pair_ct.tolist()), mean, variance, matrix_tv)


def _orbit_representatives(q: int, m: int, r: int) -> np.ndarray:
    """One full-rank m x r matrix per orbit of GL_r(q) acting on the right:
    those whose transpose is in reduced row echelon form, an int16
    ([m r]_q, m, r) stack.

    Column i holds a 1 at its pivot row p_i (p_0 < ... < p_(r-1)), zeros
    above it and at the other pivot rows, and any entries below it; every
    full-rank X is rep @ G for exactly one rep and one G in GL_r(q), so the
    reps' column spaces are the r-dimensional subspaces of GF(q)^m, each
    once.  The reps are listed pivot set by pivot set, in the order of their
    free entries' codes.
    """
    sets = []  # per pivot set, places in a flattened rep: its r ones, then its free entries
    for pivots in itertools.combinations(range(m), r):
        free = [row * r + i for i, p in enumerate(pivots) for row in range(p + 1, m) if row not in pivots]
        sets.append([p * r + i for i, p in enumerate(pivots)] + free)
    most = max(map(len, sets)) - r
    # r ones, then the digits of the row's code: a set with f free entries
    # reads the first r + f columns of the first q^f rows
    values = np.ones((q**most, r + most), dtype=np.int16)
    if most:
        values[:, r:] = _decode(q, np.arange(q**most, dtype=np.int64), 1, most)[:, 0]
    total = sum(q ** (len(places) - r) for places in sets)
    out = np.zeros((total, m * r), dtype=np.int16)
    lo = 0
    for places in sets:
        hi = lo + q ** (len(places) - r)
        out[lo:hi, places] = values[: hi - lo, : len(places)]
        lo = hi
    return out.reshape(total, m, r)


def _product_tally(m: int, n: int, classes: Iterable[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """N_k, the tally of the entry count of X @ Y over every pair of an m x k
    X and a k x n Y, from classes of Y given in blocks of two arrays: each
    class's row_ct, the count #{j : u . y_j in A} for each of the q^k row
    vectors u (code order), and the number of Y's it stands for.

    Row i of X @ Y is u @ Y for u = x_i, so over all X the count has the law
    of the m-fold convolution of the histogram (`_tallies`) of row_ct over
    the u's: one convolution column per class, summed with the weights.
    """
    tally = np.zeros(m * n + 1, dtype=np.int64)
    for row_ct, weight in classes:
        hist = _tallies(row_ct, n + 1)  # one row's count, class
        # law (count, class: how many X give it) follows n zero rows, and
        # window j (rows j to j + n of padded) ends at law[j]: a row of count v
        # moves law[j - v] to j, so the next law is each window dotted with the
        # reversed hist.  np.ndarray makes the view, as numpy 2.4's as_strided
        # raised peak RSS by about 1 MiB over many calls
        padded = np.zeros((n + m * n + 1, hist.shape[1]), dtype=np.int64)
        padded[n] = 1
        row, item = padded.strides
        law = padded[n:]
        windows = np.ndarray(  # j, class, n + 1
            (len(law), hist.shape[1], n + 1), np.int64, buffer=padded, strides=(row, item, row)
        )
        for i in range(1, m + 1):  # law is over i - 1 rows so far; i rows count at most i n
            law[: i * n + 1] = np.einsum("jcw,wc->jc", windows[: i * n + 1], hist[::-1])
        tally += law @ weight
    return tally


def _row_space_tally(ctx: FieldCtx, m: int, n: int, k: int, subset_a: SubsetA) -> tuple[np.ndarray, list[int]]:
    """C_k, `_product_tally` over one rank-k right factor Y per row space, in
    `_blocks` of them, and `_exact_law`'s coefficients [n-j k-j]_q, j <= k.

    ct_A(M) = ct_A(M^T), so the pass runs at n = min(m, n).  Over every X,
    a rank-k Y gives once each m x n matrix whose row space lies in Y's.
    Its row table u . Y grows one digit of u at a time: the table over i
    digits plus each multiple of Y's row i is the table over i + 1.
    """
    q = ctx.q
    m, n = max(m, n), min(m, n)
    ys = _orbit_representatives(q, n, k)  # Y^T, n, k: one basis per row space, as columns

    def classes():
        for lo, hi in _blocks(0, len(ys), max(q**k * n, m * n + 1)):
            rows = ctx.mul_table[ys[lo:hi, :, 0]]  # Y, n, u: u . Y over the first digit of u
            for i in range(1, k):  # digit i weighs q^i: the q multiples of row i, added to each lower table
                rows = _add_arrays(ctx, ctx.mul_table[ys[lo:hi, :, i], :, None], rows[:, :, None])
                rows = rows.reshape(hi - lo, n, -1)
            yield subset_a.member_table()[rows].sum(axis=1, dtype=np.int64), np.ones(hi - lo, dtype=np.int64)

    return _product_tally(m, n, classes()), [_gaussian(q, n - j, k - j)[-1] for j in range(k + 1)]


def _composition_tally(ctx: FieldCtx, m: int, n: int, k: int, subset_a: SubsetA) -> tuple[np.ndarray, list[int]]:
    """N_k, `_product_tally` over the column histograms of the k x n right
    factors Y, in `_blocks` of them, and `_exact_law`'s coefficients c(k, j).

    Y enters the tally only through H, the number of its n columns (at
    n = min(m, n)) with each of the q^k codes c: row_ct = H @ K^T, with
    K[u, c] = [u . c in A].  So the classes are the multisets of n column
    codes, C(n + q^k - 1, q^k - 1) of them, each listed as its Y with
    ascending codes (itertools.combinations_with_replacement), H by
    `_tallies`.  H stands for the multinomial n! / prod_c H(c)! Y's, a
    product of Pascal-table binomials whose partial products stay below it.
    """
    q = ctx.q
    coefficients = [_factor_pairs(q, m, n, k, j) for j in range(k + 1)]
    m, n = max(m, n), min(m, n)
    size = q**k
    codes = _decode(q, np.arange(size, dtype=np.int64), 1, k)[:, 0]  # c, k
    kernel = subset_a.member_table()[_index_matmul(ctx, codes, codes.T)].astype(np.int64)  # c, u: K^T
    pascal = _pascal(n)
    multisets = itertools.combinations_with_replacement(range(size), n)
    total = math.comb(n + size - 1, size - 1)

    def classes():
        # a class holds its n codes, then its histogram, row counts and binomials over the q^k codes
        for lo, hi in _blocks(0, total, max(n + 3 * size, m * n + 1)):
            columns = np.fromiter(itertools.chain.from_iterable(itertools.islice(multisets, hi - lo)),
                                  np.int64, (hi - lo) * n).reshape(hi - lo, n)
            h = _tallies(columns, size).T  # class, c
            yield h @ kernel, pascal[np.cumsum(h, axis=1), h].prod(axis=1)

    return _product_tally(m, n, classes()), coefficients


@lru_cache(maxsize=None)  # a pure function of five ints, asked again by `_exact_law` at k = r
def _factor_pairs(q: int, m: int, n: int, k: int, j: int) -> int:
    """c(k, j), the pairs of an m x k and a k x n factor whose product is one
    fixed m x n matrix M of rank j <= k.

    X Y = M has a solution Y exactly when the column space W of X holds M's,
    and then q^(n(k - a)) of them, a = dim W.  Each of the [m-j a-j]_q such W
    of dimension a is the column space of F(k, a) X's, so c(k, k) is
    |GL_k(q)| = F(k, k).
    """
    over = _gaussian(q, m - j, min(m, k) - j)  # [m-j a-j]_q at a = j..min(m, k)
    return sum(w * math.prod(q**k - q**i for i in range(a)) * q ** (n * (k - a))
               for a, w in enumerate(over, j))


def _exact_law(q: int, m: int, n: int, rows: list[tuple[np.ndarray, list[int]]]) -> ExactDistribution:
    """Both laws of the entry count and matrix_tv at rank r, from one row
    (T_k, [a_k0..a_kk]) per k = 0..r: T_k = sum_(j <= k) a_kj R_j, R_j the
    tally over the rank-j m x n matrices.

    (X, Y) -> (G X, Y H), for G in GL_m and H in GL_n, maps the pairs with
    product M onto those with product G M H, and these act transitively on
    the matrices of each rank j.  So N_k, over every pair of an m x k and a
    k x n factor, counts each rank-j matrix c(k, j) = `_factor_pairs` times
    (N_0 is the zero matrix's point mass), and the row-space tally C_k
    [n-j k-j]_q times, once per k-dimensional row space above its own.  The
    solve R_k = (T_k - sum_(j < k) a_kj R_j) / a_kk gives them in turn.  T_k
    totals at most q^(mk+kn), as [n k]_q <= q^(kn), and a_kj R_j(v) <= T_k(v),
    so exact_distribution's int64 check on q^(mr+rn) keeps every count exact.
    A remainder, a negative count or a T_k not totalling sum_j a_kj
    rank_count(q, m, n, j) raises RuntimeError; each R_k then totals
    rank_count(q, m, n, k).  The product law is N_r = sum_j c(r, j) R_j
    whichever listing ran at k = r (compositions' T_r is that sum), each
    term at most N_r's count, and it must total q^(mr+rn).  Only the full
    pairs have products of rank r, uniform over them, so matrix_tv is the
    closed form.
    """
    counts = [int(rank_count(q, m, n, j)) for j in range(len(rows))]
    ranks = []  # R_0, R_1, ...
    for k, (tally, coefficients) in enumerate(rows):
        rest = tally.copy()
        for a, below in zip(coefficients, ranks):
            rest -= a * below
        rank_k, left = np.divmod(rest, coefficients[k])
        if left.any() or (rest < 0).any():  # not an assert: python -O would strip it
            raise RuntimeError(f"the rank-{k} tally leaves a remainder or a negative count at the counts "
                               f"{np.flatnonzero(left | (rest < 0)).tolist()}")
        found, expected = int(tally.sum()), sum(a * count for a, count in zip(coefficients, counts))
        if found != expected:
            raise RuntimeError(f"the tally at k = {k} holds {found} pairs, formulas say {expected}")
        ranks.append(rank_k)
    r = len(rows) - 1
    pair_ct = sum(_factor_pairs(q, m, n, r, j) * rank_j for j, rank_j in enumerate(ranks))
    if (found := int(pair_ct.sum())) != q ** (m * r + r * n):
        raise RuntimeError(f"N_{r} from the rank tallies holds {found} pairs, formulas say {q ** (m * r + r * n)}")
    return _exact_result(ranks[r], pair_ct, tv_closed_form_exact(q, m, n, r))


def _pascal(n: int) -> np.ndarray:
    """The binomials C(s, h) at [s, h], for s, h <= n, in int64."""
    out = np.zeros((n + 1, n + 1), dtype=np.int64)
    out[:, 0] = 1
    for s in range(1, n + 1):
        out[s, 1:] = out[s - 1, 1:] + out[s - 1, :-1]
    return out


def _gaussian(q: int, d: int, r: int) -> list[int]:
    """The Gaussian binomials [d k]_q, the subspaces of GF(q)^d of dimension
    k, for k = 0..r."""
    out = [1]
    for k in range(r):
        out.append(out[-1] * (q ** (d - k) - 1) // (q ** (k + 1) - 1))
    return out


def _row_space_steps(q: int, m: int, n: int, k: int) -> int:
    """`_row_space_tally`'s work at n = min(m, n): for each right factor (one
    per k-dimensional subspace of GF(q)^n), q^k n row-table entries and one
    convolution column."""
    m, n = max(m, n), min(m, n)
    return _gaussian(q, n, k)[-1] * (q**k * n + _column_steps(m, n))


def _composition_steps(q: int, m: int, n: int, k: int) -> int:
    """`_composition_tally`'s work at n = min(m, n): for each composition,
    q^(2k) products for its row_ct and one convolution column."""
    m, n = max(m, n), min(m, n)
    size = q**k
    return math.comb(n + size - 1, size - 1) * (size * size + _column_steps(m, n))


def _column_steps(m: int, n: int) -> int:
    """One convolution column's steps: m rows, row k touching k n + 1 law
    entries of n + 1 terms."""
    return (n + 1) * (n * m * (m + 1) // 2 + m)


def exact_distribution(
    ctx: FieldCtx, m: int, n: int, r: int, subset_a: SubsetA
) -> ExactDistribution:
    """Exact laws of the entry count by exhaustive enumeration: both laws
    plus the matrix-level total variation, by `_exact_law`'s solve over the
    product tallies at each inner dimension k = 1..r.  Each k runs the
    listing of right factors, `_row_space_tally` or `_composition_tally`,
    whose `_row_space_steps` or `_composition_steps` count fewer steps
    (compositions at a tie).  Rank 0 is the point mass at mn [0 in A], at any size.
    TooLargeToEnumerate past int64, where q^(mr+rn) >= 2^63, then where the
    steps summed over k pass MAX_EXACT_STEPS.  A rank outside [0, min(m, n)]
    raises `_check_rank`'s RankOutOfRange.
    """
    _check_rank(r, m, n)
    if subset_a.q != ctx.q:
        raise FieldMismatch(f"subset over GF({subset_a.q}), field is GF({ctx.q})")
    zero = m * n * (0 in subset_a)  # the zero matrix's count
    if not r:  # the zero matrix is the one rank-0 matrix and the one product
        law = {zero: Fraction(1)}
        return ExactDistribution(law, dict(law), Fraction(zero), Fraction(0), Fraction(0))
    exponent = m * r + r * n
    if not _power_at_most(ctx.q, exponent, (1 << 63) - 1):
        raise TooLargeToEnumerate(f"counts up to q^(mr+rn) = {ctx.q}^{exponent} overflow int64")
    listings, steps = [], 0
    for k in range(1, r + 1):
        rows, compositions = _row_space_steps(ctx.q, m, n, k), _composition_steps(ctx.q, m, n, k)
        listings.append(_row_space_tally if rows < compositions else _composition_tally)
        steps += min(rows, compositions)
    if steps > MAX_EXACT_STEPS:
        raise TooLargeToEnumerate(f"enumeration takes 2^{math.log2(steps):.1f} steps, "
                                  f"over the cap 2^{MAX_EXACT_STEPS.bit_length() - 1}")
    point = np.zeros(m * n + 1, dtype=np.int64)
    point[zero] = 1
    rows = [listing(ctx, m, n, k, subset_a) for k, listing in enumerate(listings, 1)]
    return _exact_law(ctx.q, m, n, [(point, [_factor_pairs(ctx.q, m, n, 0, 0)])] + rows)
