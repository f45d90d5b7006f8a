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
    _check_rank,
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
    _check_same_field,
    _decode,
    _digit_weights,
    _encode,
    _index_matmul,
    _rank_stack,
    ct,
    mat_mul,
)
from .sampling import _blocks, _draw_seeded_block

MAX_DECOMP_RANK = 6
MAX_PAIR_ENUM = 1 << 24
MAX_DIRECT_SCAN = 1 << 22
MAX_DECOMP_TERMS = 1 << 22
MAX_TRANSFORM_CODES = 1 << 22
_CLT_HIST_RANGE = (-4.0, 4.0)  # clt histogram span; values outside land in the end bins
_BLAS_SLAB = 1 << 18  # multiply-adds per matmul call of the character transform
_MATMUL_PER_GATHER = 8  # transform multiply-adds that cost as much as one product gather
_ROUND_MARGIN = 0.25  # a transform count further than this from an integer is recounted


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
    _check_same_field(x, y)
    if x.cols != y.rows:
        raise DimensionMismatch(f"inner dimensions differ: {x.shape} x {y.shape}")
    if subset_a.q != x.field.q:
        raise FieldMismatch(
            f"subset over GF({subset_a.q}), matrices over GF({x.field.q})"
        )


def decompose_ct(x: MatrixFq, y: MatrixFq, subset_a: SubsetA) -> Decomposition:
    """Evaluate every term of the identity for ct_A(x @ y), with the cached
    character_table of the field.

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
    if r > MAX_DECOMP_RANK:
        raise TooLargeToEnumerate(
            f"decomposition over inner size r = {r} > {MAX_DECOMP_RANK} not supported"
        )
    if ctx.q**r > MAX_DECOMP_TERMS:
        raise TooLargeToEnumerate(
            f"decomposition over q^r = {ctx.q}^{r} > 2^22 character terms not supported"
        )
    table = character_table(ctx)

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

    The route is chosen once for the stack by estimated work per pair.
    The transform's r q^(r+1) multiply-adds count 1/_MATMUL_PER_GATHER of
    a gather each (fitted on one core over q <= 256, r <= 7, m = n <= 512,
    where a gather of the product took 2-5 ns and a multiply-add
    0.2-2.3 ns), plus q (r+1) min(m, q^r) + n r gathers for the codes; the
    product takes (2r+1) m n gathers.  The transform also needs
    q^r <= MAX_TRANSFORM_CODES, and q^2 <= _BLAS_SLAB so that its matmul
    calls stay on one thread (see `_transform`).  It counts `_blocks` of
    pairs, each pair gathering q max(m, q^r) values, so a pair with
    q^r = 2^16 is counted alone.  Pairs the rounding check refuses, and
    every pair when the product is cheaper, are counted by their products,
    formed in `_blocks` of pairs.
    """
    pairs, m, r = xs.shape
    n, q = ys.shape[-1], ctx.q
    cts = np.zeros(pairs, dtype=np.int64)
    exact = np.zeros(pairs, dtype=bool)
    if (
        q * q <= _BLAS_SLAB
        and _power_at_most(q, r, MAX_TRANSFORM_CODES)
        and r * q ** (r + 1) / _MATMUL_PER_GATHER + q * (r + 1) * min(m, q**r) + n * r
        < (2 * r + 1) * m * n
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

    The histograms are laid out codes first, pair k of B at code * B + k, so
    one bincount tallies every pair's column histogram, `_transform` works
    on it in place, and one gather reads every pair's transform.  The codes
    of a x_i come from one `np.take` of the product table.  When q^r <= m
    the rows are tallied as well, and sum_i H^_Y(a x_i) is taken as
    sum_c G_X(c) H^_Y(a c) over the q^r codes c.  For p = 2 every value of
    every pass of `_transform` is a signed sum of the n column counts, so it
    runs in float32, exact below 2^24, when n < 2^24 (float64 otherwise);
    the sums gathered from it, up to m n, accumulate in float64.
    """
    q, (pairs, m, r) = ctx.q, xs.shape
    size = q**r
    table = character_table(ctx).add  # psi(a b)
    weights = table[:, SubsetA(q, amask).member_table()].conj().sum(axis=1)  # c_A(a)
    n = ys.shape[-1]
    if ctx.p == 2:  # psi is exactly +-1, so every value of hat is an integer of size <= n
        exact = np.float32 if n < 1 << 24 else np.float64  # float32 holds integers to 2^24
        table, weights = table.real.astype(exact), weights.real
    wide = weights.dtype  # float64 or complex128: the gathered sums reach m * n
    offsets = np.arange(pairs)[:, None]

    def tally(vectors: np.ndarray) -> np.ndarray:
        codes = _encode(q, vectors) * pairs + offsets
        return np.bincount(codes.ravel(), minlength=size * pairs).reshape(size, pairs)

    hat = _transform(tally(ys.swapaxes(1, 2)), table, r)  # (q^r, B)
    if size <= m:
        patterns = _decode(q, np.arange(size, dtype=np.int64), 1, r)[:, 0, :]
        multiples = _encode(q, ctx.mul_table[:, patterns])  # code of a c, per a and c
        sums = (hat.astype(wide, copy=False)[multiples] * tally(xs)).sum(axis=1).T
    else:
        # code of a x_i, per a, pair, i, at its place in hat
        multiples = _encode(q, np.take(ctx.mul_table, xs, axis=1)) * pairs + offsets
        sums = hat.ravel()[multiples].sum(axis=2, dtype=wide).T
    return (sums * weights).sum(axis=1) / q  # not a BLAS call: see _transform


def _transform(hist: np.ndarray, table: np.ndarray, r: int) -> np.ndarray:
    """The character transform of each column of hist (q^r, B): table
    applied along each of the r digit axes of the codes.

    Pass k views the array as (q^(r-1-k), q, q^k B), digit k in the middle,
    and writes table^T @ each (q, q^k B) slice into a second buffer, so no
    pass moves an axis; when q^k B is 1 it is one (rows, q) @ table product.
    No matmul call contracts more than _BLAS_SLAB multiply-adds, batch items
    included: OpenBLAS starts its threads above that size, and beside the
    other clt worker processes they only contend for the same cores.
    """
    q = len(table)
    pairs = hist.shape[1]
    src = hist.astype(table.dtype)
    dst = np.empty_like(src)
    for k in range(r):
        cols = q**k * pairs
        if cols == 1:
            rows, out = src.reshape(-1, q), dst.reshape(-1, q)
            step = max(1, _BLAS_SLAB // (q * q))
            for lo in range(0, len(rows), step):
                np.matmul(rows[lo : lo + step], table, out=out[lo : lo + step])
        else:
            slabs, out = src.reshape(-1, q, cols), dst.reshape(-1, q, cols)
            width = min(cols, max(1, _BLAS_SLAB // (q * q)))
            items = max(1, _BLAS_SLAB // (q * q * width))
            for lo in range(0, len(slabs), items):
                for left in range(0, cols, width):
                    part = np.s_[lo : lo + items, :, left : left + width]
                    np.matmul(table.T, slabs[part], out=out[part])
        src, dst = dst, src
    return src


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
    are split into `workers` chunks, the caller counts chunk 0, and each
    other chunk runs in its own `multiprocessing.Process`, started with its
    job before the caller begins and sending back its values, or its
    exception, over a one-way pipe.  Every worker is joined before this
    returns or raises; after an error any still running is terminated.  A
    worker that dies without a message raises RuntimeError.  The arguments
    are checked before any sample is drawn, the field and rank by
    MomentParams.
    """
    if num_samples < 100:
        raise FqrankError(f"need at least 100 samples, got {num_samples}")
    _normalization(ctx.q, subset_a, r, m, n)
    if bins < 1:
        raise FqrankError(f"need at least one histogram bin, got {bins}")
    if workers < 1:
        raise FqrankError(f"need at least one worker, got {workers}")

    workers = min(workers, _usable_cpus(), num_samples)
    if workers <= 1:
        values = _clt_values(ctx, subset_a, r, m, n, mode, seed, 0, num_samples)
    else:
        import multiprocessing

        bounds = np.linspace(0, num_samples, workers + 1).astype(int).tolist()
        started = []
        try:
            for lo, hi in zip(bounds[1:-1], bounds[2:]):
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
    (`_rank_stack` over one of `_blocks` at a time)."""
    rows, cols = stack.shape[1:]
    return np.concatenate(
        [_rank_stack(ctx, stack[lo:hi]) == r for lo, hi in _blocks(0, len(stack), rows * cols)]
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
    """Both laws of the entry count and matrix_tv from every factor pair.

    Row i of x @ y is u @ y for u = x_i, one of the q^r row vectors, so
    the A-count and base-q code of u @ y are tabled once per (u, y), in
    `_blocks` of y.  A pair's count is then the sum of its m rows' table
    entries, read in `_blocks` of x, and its product's code is
    sum_i code(x_i @ y) q^(n i), `_encode`'s row-major code.  No product
    is ranked: rank(XY) = r exactly when X and Y both have rank r, so
    matrix_tv needs the tally of the full pairs' products only.
    """
    q = ctx.q
    xs = _decode(q, np.arange(q ** (m * r), dtype=np.int64), m, r)
    ys = _decode(q, np.arange(q ** (r * n), dtype=np.int64), r, n)
    x_full = _rank_mask(ctx, xs, r)
    y_full = _rank_mask(ctx, ys, r)
    member = subset_a.member_table()

    us = _decode(q, np.arange(q**r, dtype=np.int64), 1, r)  # u, 1, r
    row_ct = np.empty((q**r, len(ys)), dtype=np.int16)
    row_code = np.empty((q**r, len(ys)), dtype=np.int64)
    for lo, hi in _blocks(0, len(ys), q**r * n):
        rows = _index_matmul(ctx, us, ys[lo:hi, None])[:, :, 0]  # y, u, n
        row_ct[:, lo:hi] = member[rows].sum(axis=2).T
        row_code[:, lo:hi] = _encode(q, rows).T
    xrow = _encode(q, xs)  # x, m: the code of each row

    track_matrices = q ** (m * n) <= MAX_PAIR_ENUM
    full_hits: np.ndarray | int = 0  # tally of the product codes of full pairs
    full_codes = row_code[:, y_full]
    pair_ct = np.zeros(m * n + 1, dtype=np.int64)
    rank_ct = np.zeros(m * n + 1, dtype=np.int64)
    held: list[np.ndarray] = []  # product codes of full pairs not yet tallied
    for lo, hi in _blocks(0, len(xs), len(ys) * m):
        rows = xrow[lo:hi]
        cts = row_ct[rows].sum(axis=1)  # x, y
        pair_ct += np.bincount(cts.ravel(), minlength=m * n + 1)
        full = x_full[lo:hi]
        rank_ct += np.bincount(cts[full][:, y_full].ravel(), minlength=m * n + 1)
        if track_matrices:  # rank(XY) = r iff rank X = rank Y = r: only full pairs make rank r
            # the base-q^n code of the row codes is `_encode`'s code of the product
            held.append((_digit_weights(q**n, m) @ full_codes[rows[full]]).ravel())
            if sum(map(len, held)) >= q ** (m * n) or hi == len(xs):
                # a bincount sweeps the whole tally, so it waits for that many codes
                tally = np.bincount(np.concatenate(held), minlength=q ** (m * n))
                tally += full_hits  # in place, so two tallies are held at most
                full_hits, held = tally, []

    rank_dist = _law(rank_ct)
    mean, variance = _moments(rank_dist)

    matrix_tv: Fraction | None = None
    if track_matrices:
        # sum over matrices of |P(product) - P(uniform rank r)| over the common
        # denominator pairs * n_rank: a never-hit rank-r matrix adds pairs and
        # each non-full pair n_rank; numerator <= 2 pairs n_rank <= 2^49 in int64
        pairs, n_rank = len(xs) * len(ys), int(rank_count(q, m, n, r))
        hits = full_hits[full_hits > 0]
        numerator = int(np.abs(hits * n_rank - pairs).sum())
        numerator += (n_rank - len(hits)) * pairs  # rank r but never a product
        numerator += (pairs - int(x_full.sum()) * int(y_full.sum())) * n_rank
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
    for lo, hi in _blocks(0, total, m * n):
        mats = _decode(q, np.arange(lo, hi), m, n)
        full = mats[_rank_mask(ctx, mats, r)]
        rank_ct += np.bincount(member[full].sum(axis=(1, 2)), minlength=m * n + 1)
    matched = int(rank_ct.sum())
    expected = rank_count(q, m, n, r)
    if matched != expected:  # not an assert: python -O would strip it
        raise RuntimeError(f"rank scan found {matched}, formula says {expected}")
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
    and yields both laws plus the matrix-level total variation, reading
    each pair's count from tables of the q^r possible product rows (see
    `_exact_by_pairs`), so no pair's product is formed; "direct"
    scans all m x n matrices for rank r (needs q^(mn) <= 2^22) and yields
    the rank-r law only.  "auto" prefers pairs.
    A rank outside [0, min(m, n)] raises `_check_rank`'s RankOutOfRange.
    """
    _check_rank(r, m, n)
    if subset_a.q != ctx.q:
        raise FieldMismatch(f"subset over GF({subset_a.q}), field is GF({ctx.q})")
    pairs_ok = _power_at_most(ctx.q, m * r + r * n, MAX_PAIR_ENUM)
    direct_ok = _power_at_most(ctx.q, m * n, MAX_DIRECT_SCAN)
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
