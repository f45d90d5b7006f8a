"""Row/column character statistics, the entry-count decomposition identity,
exact enumeration oracles, and Monte Carlo normality checks.

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

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
from .counting import (
    MomentParams,
    RankOutOfRange,
    asymptotic_ct_mean,
    asymptotic_ct_variance,
    rank_count,
    subset_bias,
)
from .field import FieldCtx, FqrankError, _power_at_most, make_field
from .matrices import (
    DimensionMismatch,
    FieldMismatch,
    MatrixFq,
    SubsetA,
    _decode,
    _encode,
    _index_matmul,
    _rank_stack,
    ct,
    mat_mul,
)
from .sampling import SeedSpec, _draw_factor_stacks

MAX_DECOMP_RANK = 6
MAX_PAIR_ENUM = 1 << 24
MAX_DIRECT_SCAN = 1 << 22
MAX_RANK_ENUM = 1 << 20
MAX_PATTERN_TABLE = 1 << 22
_CHUNK = 1 << 12  # matrices (or factor pairs) decoded and reduced at once
_CLT_BLOCK_ENTRIES = 1 << 17  # factor entries a clt block draws and counts at once
_CLT_HIST_RANGE = (-4.0, 4.0)  # clt histogram span; values outside land in the end bins


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
    _check_stat_args(y.rows, y.field, subset, chis, table)
    prod = np.ones(y.cols, dtype=np.complex128)
    for pos, k in enumerate(subset.members()):
        prod = prod * table.mult[chis[pos], y.data[k, :]]
    return complex(prod.sum())


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
    order, one read-only array of shape (q-1,)*|S| per subset mask S."""
    total = [np.zeros((ctx.q - 1,) * s.size, dtype=np.complex128) for s in all_subsets(r)]
    for a in SubsetA(ctx.q, amask).members():
        for acc, coeffs in zip(total, _element_coefficients(ctx, a, r)):
            acc += coeffs
    for acc in total:
        acc.setflags(write=False)
    return tuple(total)


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


def _char_sums(
    entries: np.ndarray, subset: IndexSubset, table: CharacterTable
) -> np.ndarray:
    """row_char_sum at every character tuple on the subset at once.

    entries[k] holds coordinate k of each row (or column); entry [chis] of
    the result is row_char_sum's sum at chis, bit for bit: the products
    are formed in member order from ones, and np.take keeps them C-ordered,
    so each sum over the last axis is numpy's pairwise sum as for 1-d.
    """
    lead = (1,) * subset.size
    prod = np.ones(lead + (entries.shape[1],), dtype=np.complex128)
    for pos, k in enumerate(subset.members()):
        shape = lead[:pos] + (table.mult.shape[0],) + lead[pos + 1 :] + (entries.shape[1],)
        prod = prod * np.take(table.mult, entries[k], axis=1).reshape(shape)
    return np.asarray(prod.sum(axis=-1))  # 0-d, not a scalar, for the empty subset


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
    if x.field.q != y.field.q:
        raise FieldMismatch(f"GF({x.field.q}) vs GF({y.field.q})")
    if x.cols != y.rows:
        raise DimensionMismatch(f"inner dimensions differ: {x.shape} x {y.shape}")
    if subset_a.q != x.field.q:
        raise FieldMismatch(
            f"subset over GF({subset_a.q}), matrices over GF({x.field.q})"
        )


def decompose_ct(
    x: MatrixFq, y: MatrixFq, subset_a: SubsetA, table: CharacterTable | None = None
) -> Decomposition:
    """Evaluate every term of the identity for ct_A(x @ y).

    x is m x r and y is r x n over the same field.  The identity is
    algebraic, valid for every pair including rank-deficient ones; the
    residual is floating-point noise only (|residual| <= 1e-6 at the sizes
    the term-count cap admits).

    Per index subset S, the row and column character sums at all (q-1)^|S|
    tuples come from one broadcast product each (transient memory about
    16 * (q-1)^|S| * max(m, n) bytes), and the main term is accumulated as
    Python complex in subset_coefficients' key order, so each term equals
    coefficient * (row_char_sum - mean) * (col_char_sum - mean).
    """
    _check_pair(x, y, subset_a)
    ctx = x.field
    r = x.cols
    m, n = x.rows, y.cols
    if r > MAX_DECOMP_RANK or ctx.q**r > MAX_PATTERN_TABLE:
        raise TooLargeToEnumerate(
            f"decomposition over q^r = {ctx.q}^{r} character terms not supported"
        )
    if table is None:
        table = character_table(ctx)
    elif table.field.q != ctx.q:
        raise FieldMismatch(f"table over GF({table.field.q}), matrices over GF({ctx.q})")

    # the identity holds for any inner dimension r, including r > min(m, n)
    # where the rank-law MomentParams would refuse; use the raw formula
    gamma_exact = subset_bias(ctx.q, subset_a)
    mean_term = float(
        (Fraction(subset_a.size, ctx.q) - gamma_exact * Fraction(ctx.q) ** -r) * m * n
    )
    gamma = float(gamma_exact)

    main = 0.0 + 0.0j
    for mask, coeffs in enumerate(_coefficient_arrays(ctx, subset_a.mask, r)):
        subset = IndexSubset(r, mask)
        trivial = (0,) * subset.size
        xs = _char_sums(x.data.T, subset, table)
        ys = _char_sums(y.data, subset, table)
        xs[trivial] -= float(expected_char_sum(ctx.q, subset, trivial, m))
        ys[trivial] -= float(expected_char_sum(ctx.q, subset, trivial, n))
        terms = zip(coeffs.ravel().tolist(), xs.ravel().tolist(), ys.ravel().tolist())
        for coeff, dx, dy in terms:
            main += coeff * dx * dy

    ez, _ = zero_count_moments(ctx.q, r, m)
    ew, _ = zero_count_moments(ctx.q, r, n)
    zero_row_term = -gamma * n * (count_zero_rows(x) - float(ez))
    zero_col_term = -gamma * m * (count_zero_cols(y) - float(ew))

    return Decomposition(
        ct_value=ct(mat_mul(x, y), subset_a),
        mean_term=mean_term,
        main_term=main,
        zero_row_term=zero_row_term,
        zero_col_term=zero_col_term,
    )


def normalized_ct(mat: MatrixFq, subset_a: SubsetA, r: int) -> float:
    """Centered and scaled entry count (the statistic whose law approaches
    standard normal as the dimensions grow)."""
    params = MomentParams(q=mat.field.q, r=r, m=mat.rows, n=mat.cols, subset=subset_a)
    sigma2 = asymptotic_ct_variance(params)
    if sigma2 == 0:
        raise DegenerateSubset(
            f"variance scale is zero for subset of size {subset_a.size} at r={r}"
        )
    mu = float(asymptotic_ct_mean(params))
    return (ct(mat, subset_a) - mu) / math.sqrt(float(sigma2))


# ---------------------------------------------------------------------------
# fast entry counting for product matrices
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _pattern_tables(ctx: FieldCtx, r: int, amask: int) -> np.ndarray:
    """The q^r x q^r 0/1 table saying whether the field dot product of two
    length-r patterns, indexed by their codes, lands in the subset."""
    q = ctx.q
    if not _power_at_most(q, 2 * r, MAX_PATTERN_TABLE):
        raise TooLargeToEnumerate(f"pattern table q^2r = {q}^{2 * r} too large")
    patterns = _decode(q, np.arange(q**r, dtype=np.int64), 1, r)[:, 0, :]
    dot = _index_matmul(ctx, patterns, patterns.T)
    return SubsetA(q, amask).member_table()[dot].astype(np.int64)


def product_ct(x: MatrixFq, y: MatrixFq, subset_a: SubsetA) -> int:
    """ct_A(x @ y) without forming the product, via pattern counting.

    Groups equal rows of x and equal columns of y, then sums a precomputed
    membership table over the count outer product; O(m + n + q^2r) per call
    after the cached table is built.  The one-pair caller of
    `_product_ct_stack`.
    """
    _check_pair(x, y, subset_a)
    return int(_product_ct_stack(x.field, x.data[None], y.data[None], subset_a.mask)[0])


def _product_ct_stack(ctx: FieldCtx, xs: np.ndarray, ys: np.ndarray, amask: int) -> np.ndarray:
    """product_ct of each pair of the int16 stacks xs (B, m, r) and ys (B, r, n).

    Pair k's row and column pattern codes are offset by k * q^r, so one
    bincount each tallies the whole block; one einsum against the weight
    table then sums every pair's count outer product.
    """
    weight = _pattern_tables(ctx, xs.shape[-1], amask)
    pairs, size = len(xs), len(weight)
    offsets = np.arange(pairs)[:, None] * size

    def tally(vectors: np.ndarray) -> np.ndarray:
        codes = _encode(ctx.q, vectors) + offsets
        return np.bincount(codes.ravel(), minlength=pairs * size).reshape(pairs, size)

    return np.einsum("bi,ij,bj->b", tally(xs), weight, tally(ys.swapaxes(1, 2)))


# ---------------------------------------------------------------------------
# Monte Carlo normality runs
# ---------------------------------------------------------------------------


def normal_cdf(t: float) -> float:
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


def ks_distance(values: np.ndarray) -> float:
    """Exact one-sample Kolmogorov-Smirnov statistic against the standard
    normal, evaluated at the sorted sample points (both one-sided gaps)."""
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n == 0:
        raise FqrankError("need at least one sample")
    cdf = np.array([normal_cdf(v) for v in xs])
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
    params = MomentParams(q=ctx.q, r=r, m=m, n=n, subset=subset_a)
    mu = float(asymptotic_ct_mean(params))
    sigma = math.sqrt(float(asymptotic_ct_variance(params)))
    spec = SeedSpec(seed)
    fast = _power_at_most(ctx.q, 2 * r, MAX_PATTERN_TABLE)
    member = subset_a.member_table()
    block = max(1, _CLT_BLOCK_ENTRIES // max(1, (m + n) * r))
    out = np.empty(hi - lo, dtype=np.float64)
    for start in range(lo, hi, block):
        stop = min(start + block, hi)
        rngs = [spec.stream(i) for i in range(start, stop)]
        lefts, rights = _draw_factor_stacks(ctx, m, n, r, rngs, mode)
        if fast:
            cts = _product_ct_stack(ctx, lefts, rights, subset_a.mask)
        else:  # one product at a time, so memory stays at one product
            cts = np.array([member[_index_matmul(ctx, x, y)].sum() for x, y in zip(lefts, rights)])
        out[start - lo : stop - lo] = (cts - mu) / sigma
    return out


def _clt_chunk(packed: tuple) -> np.ndarray:
    p, e, amask, r, m, n, mode, seed, lo, hi = packed
    ctx = make_field(p, e)
    return _clt_values(ctx, SubsetA(ctx.q, amask), r, m, n, mode, seed, lo, hi)


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
    assembled array in index order.  `workers` is capped at the CPU count
    and at `num_samples`.
    """
    if num_samples < 100:
        raise FqrankError(f"need at least 100 samples, got {num_samples}")
    if subset_a.q != ctx.q:
        raise FieldMismatch(f"subset over GF({subset_a.q}), field is GF({ctx.q})")
    params = MomentParams(q=ctx.q, r=r, m=m, n=n, subset=subset_a)
    if asymptotic_ct_variance(params) == 0:
        raise DegenerateSubset(
            f"variance scale is zero for subset of size {subset_a.size} at r={r}"
        )
    if bins < 1:
        raise FqrankError(f"need at least one histogram bin, got {bins}")

    workers = min(workers, os.cpu_count() or 1, num_samples)
    if workers <= 1:
        values = _clt_values(ctx, subset_a, r, m, n, mode, seed, 0, num_samples)
    else:
        bounds = np.linspace(0, num_samples, workers + 1).astype(int)
        jobs = [
            (ctx.p, ctx.e, subset_a.mask, r, m, n, mode, seed, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            values = np.concatenate(list(pool.map(_clt_chunk, jobs)))

    mean = float(values.mean())
    variance = float(values.var())
    if variance > 0:
        skewness = float(((values - mean) ** 3).mean() / variance**1.5)
    else:
        skewness = 0.0
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

    rank_dist is over uniform rank-r matrices; product_dist (pairs method
    only) is over products of unconditioned uniform factors; matrix_tv is
    the total variation between the two matrix-level laws.
    """

    rank_dist: dict[int, Fraction]
    product_dist: dict[int, Fraction] | None
    mean: Fraction
    variance: Fraction
    matrix_tv: Fraction | None
    method: str


def _rank_mask(ctx: FieldCtx, stack: np.ndarray, r: int) -> np.ndarray:
    """Which matrices of the stack have rank r, by elimination on each
    (`_rank_stack` over _CHUNK matrices at a time)."""
    return np.concatenate(
        [_rank_stack(ctx, stack[lo : lo + _CHUNK]) == r for lo in range(0, len(stack), _CHUNK)]
    )


def _law(counts: np.ndarray) -> dict[int, Fraction]:
    """The law of a tally of entry counts, ascending over the values seen."""
    total = int(counts.sum())
    return {value: Fraction(cnt, total) for value, cnt in enumerate(counts.tolist()) if cnt}


def _moments(dist: dict[int, Fraction]) -> tuple[Fraction, Fraction]:
    mean = sum((Fraction(v) * p for v, p in dist.items()), Fraction(0))
    second = sum((Fraction(v) ** 2 * p for v, p in dist.items()), Fraction(0))
    return mean, second - mean**2


def _exact_by_pairs(
    ctx: FieldCtx, m: int, n: int, r: int, subset_a: SubsetA
) -> ExactDistribution:
    q = ctx.q
    xs = _decode(q, np.arange(q ** (m * r), dtype=np.int64), m, r)
    ys = _decode(q, np.arange(q ** (r * n), dtype=np.int64), r, n)
    x_full = _rank_mask(ctx, xs, r)
    y_full = _rank_mask(ctx, ys, r)
    member = subset_a.member_table()

    track_matrices = q ** (m * n) <= MAX_PAIR_ENUM
    matrix_counts = np.zeros(q ** (m * n), dtype=np.int64) if track_matrices else None
    pair_ct = np.zeros(m * n + 1, dtype=np.int64)
    rank_ct = np.zeros(m * n + 1, dtype=np.int64)
    block = max(1, _CHUNK // len(ys))
    for lo in range(0, len(xs), block):
        prod = _index_matmul(ctx, xs[lo : lo + block, None], ys)  # x, y, m, n
        cts = member[prod].sum(axis=(2, 3))
        pair_ct += np.bincount(cts.ravel(), minlength=m * n + 1)
        full_cts = cts[x_full[lo : lo + block]][:, y_full]
        rank_ct += np.bincount(full_cts.ravel(), minlength=m * n + 1)
        if matrix_counts is not None:
            flat = prod.reshape(prod.shape[:2] + (m * n,))
            matrix_counts += np.bincount(_encode(q, flat).ravel(), minlength=len(matrix_counts))

    rank_dist = _law(rank_ct)
    mean, variance = _moments(rank_dist)

    matrix_tv: Fraction | None = None
    if matrix_counts is not None:
        # sum over matrices of |P(product) - P(uniform rank r)|, over the
        # common denominator pairs * n_rank; every term fits in int64
        pairs, n_rank = len(xs) * len(ys), int(rank_count(q, m, n, r))
        codes = np.nonzero(matrix_counts)[0]
        numerator = seen = 0
        for lo in range(0, len(codes), _CHUNK):
            part = codes[lo : lo + _CHUNK]
            hits = matrix_counts[part] * n_rank
            is_r = _rank_mask(ctx, _decode(q, part, m, n), r)
            numerator += int(np.abs(hits[is_r] - pairs).sum() + hits[~is_r].sum())
            seen += int(is_r.sum())
        numerator += (n_rank - seen) * pairs  # rank r but never a product
        matrix_tv = Fraction(numerator, pairs * n_rank)

    return ExactDistribution(
        rank_dist=rank_dist,
        product_dist=_law(pair_ct),
        mean=mean,
        variance=variance,
        matrix_tv=matrix_tv,
        method="pairs",
    )


def _exact_by_direct_scan(
    ctx: FieldCtx, m: int, n: int, r: int, subset_a: SubsetA
) -> ExactDistribution:
    q = ctx.q
    total = q ** (m * n)
    member = subset_a.member_table()
    rank_ct = np.zeros(m * n + 1, dtype=np.int64)
    for start in range(0, total, _CHUNK):
        mats = _decode(q, np.arange(start, min(start + _CHUNK, total)), m, n)
        full = mats[_rank_mask(ctx, mats, r)]
        rank_ct += np.bincount(member[full].sum(axis=(1, 2)), minlength=m * n + 1)
    matched = int(rank_ct.sum())
    expected = rank_count(q, m, n, r)
    assert matched == expected, f"rank scan found {matched}, formula says {expected}"
    rank_dist = _law(rank_ct)
    mean, variance = _moments(rank_dist)
    return ExactDistribution(
        rank_dist=rank_dist,
        product_dist=None,
        mean=mean,
        variance=variance,
        matrix_tv=None,
        method="direct",
    )


def exact_distribution(
    ctx: FieldCtx,
    m: int,
    n: int,
    r: int,
    subset_a: SubsetA,
    method: str = "auto",
) -> ExactDistribution:
    """Exact law of the entry count by exhaustive enumeration.

    method "pairs" enumerates every factor pair (needs q^(mr+rn) <= 2^24)
    and yields both laws plus the matrix-level total variation; "direct"
    scans all m x n matrices for rank r (needs q^(mn) <= 2^22 and a rank
    count <= 2^20) and yields the rank-r law only.  "auto" prefers pairs.
    """
    if r < 0 or r > min(m, n):
        raise RankOutOfRange(f"rank {r} not in [0, {min(m, n)}]")
    if subset_a.q != ctx.q:
        raise FieldMismatch(f"subset over GF({subset_a.q}), field is GF({ctx.q})")
    pairs_ok = _power_at_most(ctx.q, m * r + r * n, MAX_PAIR_ENUM)
    direct_ok = (
        _power_at_most(ctx.q, m * n, MAX_DIRECT_SCAN)
        and rank_count(ctx.q, m, n, r) <= MAX_RANK_ENUM
    )
    if method == "auto":
        method = "pairs" if pairs_ok else "direct" if direct_ok else ""
        if not method:
            raise TooLargeToEnumerate(
                f"q={ctx.q}, m={m}, n={n}, r={r} exceeds both enumeration gates"
            )
    if method == "pairs":
        if not pairs_ok:
            raise TooLargeToEnumerate(
                f"pair enumeration q^(mr+rn) = {ctx.q}^{m * r + r * n} over gate"
            )
        return _exact_by_pairs(ctx, m, n, r, subset_a)
    if method == "direct":
        if not direct_ok:
            raise TooLargeToEnumerate(
                f"direct scan q^(mn) = {ctx.q}^{m * n} over gate"
            )
        return _exact_by_direct_scan(ctx, m, n, r, subset_a)
    raise FqrankError(f"unknown method {method!r} (expected auto, pairs, or direct)")
