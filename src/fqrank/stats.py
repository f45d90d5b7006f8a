"""Entry counting of factor products, and Monte Carlo normality checks.

`product_ct` counts ct_A(X @ Y) by additive characters or by the product,
whichever is less work; its kernel, the character transform of a code
histogram, is shared with `fqrank.decomposition`.  The histograms are
`fqrank.matrices`' `_tallies`, and the blocks its `_blocks`.

Monte Carlo runs derive one generator stream per sample index, so results
are independent of worker count; reductions happen on the fully assembled
sample array in index order.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .characters import character_table
from .counting import MomentParams, asymptotic_ct_mean, asymptotic_ct_variance
from .field import FieldCtx, FqrankError, _power_at_most, _read_only, make_field
from .matrices import (
    DimensionMismatch,
    MatrixFq,
    SubsetA,
    _blocks,
    _check_same_field,
    _check_subset_field,
    _decode,
    _encode,
    _index_matmul,
    _tallies,
    ct,
)
from .sampling import _draw_seeded_block

MAX_TRANSFORM_CODES = 1 << 22
_CLT_HIST_RANGE = (-4.0, 4.0)  # clt histogram span; values outside land in the end bins
_BLAS_SLAB = 1 << 18  # real multiply-adds per matmul call; a complex one counts as four
_MATMUL_PER_GATHER = 8  # transform multiply-adds that cost as much as one product gather
_TRANSFORM_CALL = 1 << 15  # gathers' worth of the transform's fixed cost per call, past the product's
_ROUND_MARGIN = 0.25  # a transform count further than this from an integer is recounted
_SCALE_TABLE = 1 << 12  # entries of `_scaled_codes`' table of a c per element a and chunk c


class DegenerateSubset(FqrankError):
    """Raised when a statistic needs a nonzero scaling variance."""


class TooLargeToEnumerate(FqrankError):
    """Raised when an exact enumeration would exceed its size gate."""


def _check_pair(x: MatrixFq, y: MatrixFq, subset_a: SubsetA) -> None:
    _check_same_field(x, y)
    if x.cols != y.rows:
        raise DimensionMismatch(f"inner dimensions differ: {x.shape} x {y.shape}")
    _check_subset_field(subset_a, x.field.q)


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
