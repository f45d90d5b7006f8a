"""Exact laws of the entry count by enumeration.

`exact_distribution` lists no pair and no left factor: it tallies the
entry count over classes of right factors, convolves over the rows of the
left factor, and solves the tallies at each inner dimension k = 1..r for
the laws over the matrices of each rank.  Its blocks (`_blocks`) and
histograms (`_tallies`) are `fqrank.matrices`' own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import numpy as np

from .counting import _check_rank, rank_count, tv_closed_form_exact
from .field import FieldCtx, _add_arrays, _power_at_most
from .matrices import SubsetA, _blocks, _check_subset_field, _decode, _index_matmul, _tallies
from .stats import TooLargeToEnumerate

MAX_EXACT_STEPS = 1 << 28  # cap on exact_distribution's steps, summed over the inner dimensions


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
    _check_subset_field(subset_a, ctx.q)
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
