"""Seedable matrix samplers: uniform, uniform full-rank, exact uniform rank-r.

Reproducibility contract: the generator state used for sample index i is a
pure function of (master_seed, i), derived through a counter-based bit
generator (Philox).  Monte Carlo results therefore do not depend on how the
index range is split across workers, and any single sample can be replayed
in isolation.

The rank-r sampler multiplies an m x r and an r x n matrix drawn uniformly
from their full-rank sets.  Every rank-r target has exactly |GL_r(GF(q))|
such factorisations, a constant, so the product is uniform over the rank-r
matrices with no further correction.

The rejection loop (`_reject_full_rank`) draws one full-rank matrix per
stream of a list, redrawing only the rejected matrices, each from its own
stream, so every stream is consumed exactly as when it is drawn alone.
`draw_factor_pair` calls it on its one stream, left factor first.

`_draw_seeded_block` draws the streams of one seed and a range of indices
with no generator per stream: a single Philox, reset to key (seed, i) and
counter 0, gives stream i's words, all of a pair's first candidates in one
call.  Only streams with a rejected first candidate are drawn again, from
their start, by `_reject_full_rank`: left factors, then right.  `clt` and
`sample` draw through it, one of `_blocks` at a time; `SeedSpec.stream` and
`draw_factor_pair` stay the per-stream route it is checked against.
`_blocks` is the one rule that bounds a stack loop's memory, here and in
`stats`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .counting import RankOutOfRange, _check_rank
from .field import FieldCtx, FqrankError
from .matrices import MatrixFq, _rank_stack, mat_mul

REJECTION_CAP = 10_000  # attempts per matrix before the rejection loop gives up
_BLOCK_ENTRIES = 1 << 17  # entries one block of `_blocks` holds at once


class RejectionOverflow(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


@dataclass(frozen=True)
class SeedSpec:
    """Derives one independent generator stream per sample index; the seed
    and the index are integers (Python or numpy) in [0, 2^64)."""

    master_seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "master_seed", _word(self.master_seed, "master_seed"))

    def stream(self, index: int) -> np.random.Generator:
        # a uint64 key: a list with a word past 2**63 - 1 goes through float64
        key = np.array([self.master_seed, _word(index, "sample index")], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def _word(value: int, what: str) -> int:
    """value as an int in [0, 2^64), one word of a Philox key; only
    integers pass, so no float is truncated into another stream's key."""
    try:
        word = operator.index(value)
    except TypeError:
        raise FqrankError(f"{what} must be an integer, got {value!r}") from None
    if not 0 <= word < 2**64:
        raise FqrankError(f"{what} must fit in 64 bits")
    return word


@dataclass
class RejectionTelemetry:
    """Counts rejection attempts so acceptance rates can be audited."""

    attempts: int = 0
    accepted: int = 0

    @property
    def observed_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else float("nan")


def expected_full_rank_rate(q: int, rows: int, cols: int) -> float:
    """Acceptance probability of the full-rank rejection loop:
    prod_{i<t} (1 - q^(i-s)) with s = max(rows, cols), t = min(rows, cols),
    in floats (rank_count / q^(rows*cols) without the exact powers)."""
    if q < 2:
        raise FqrankError(f"field order must be >= 2, got {q}")
    s, t = max(rows, cols), min(rows, cols)
    if t < 0:
        raise RankOutOfRange(f"dimensions must be >= 0, got {rows} x {cols}")
    return math.prod(1.0 - float(q) ** (i - s) for i in range(t))


def random_elements(
    ctx: FieldCtx, rng: np.random.Generator, shape: tuple[int, ...]
) -> np.ndarray:
    """Independent uniform element indices via modular mapping.

    Full-width 64-bit draws reduced mod q; the bias is q/2**64 < 1e-15 per
    entry, far below every statistical tolerance used here.  The draws are
    the bit generator's raw words: for a 64-bit bit generator (Philox, which
    every SeedSpec stream uses, PCG64, SFC64) exactly the words, and the
    stream position, of rng.integers(0, 2**64, dtype=np.uint64), without
    the argument handling that is most of that call's cost on small shapes.
    """
    return _residues(ctx.q, rng.bit_generator.random_raw(size=shape))


def _residues(q: int, raw: np.ndarray) -> np.ndarray:
    """Raw 64-bit words reduced mod q, as int16 element indices."""
    if q & (q - 1) == 0:  # the same residues as % q, for a third of its cost
        return (raw & np.uint64(q - 1)).astype(np.int16)
    return (raw % np.uint64(q)).astype(np.int16)


def uniform_matrix(ctx: FieldCtx, m: int, n: int, rng: np.random.Generator) -> MatrixFq:
    """Uniformly random m x n matrix, every entry independent."""
    if m < 0 or n < 0:
        raise FqrankError(f"dimensions must be >= 0, got {m} x {n}")
    return MatrixFq(ctx, random_elements(ctx, rng, (m, n)))


def _reject_full_rank(
    ctx: FieldCtx,
    rows: int,
    cols: int,
    rngs: Sequence[np.random.Generator],
    telemetry: RejectionTelemetry | None,
) -> np.ndarray:
    """One uniform full-rank rows x cols matrix per stream, as an int16 stack
    in stream order.

    Each round draws a candidate from the stream of every matrix still
    pending and checks the ranks of the round in one `_rank_stack` call, so a
    stream sees exactly the draws it would see on its own.  After
    REJECTION_CAP rounds (read at each call) it raises RejectionOverflow.
    """
    target = min(rows, cols)
    out = np.empty((len(rngs), rows, cols), dtype=np.int16)
    pending = list(range(len(rngs)))
    for _ in range(REJECTION_CAP):
        for k in pending:
            out[k] = random_elements(ctx, rngs[k], (rows, cols))
        ranks = _rank_stack(ctx, out if len(pending) == len(out) else out[pending])
        drawn = len(pending)
        pending = [k for k, got in zip(pending, ranks.tolist()) if got != target]
        if telemetry is not None:
            telemetry.attempts += drawn
            telemetry.accepted += drawn - len(pending)
        if not pending:
            return out
    raise RejectionOverflow(
        f"no full-rank {rows} x {cols} matrix over GF({ctx.q}) "
        f"in {REJECTION_CAP} attempts"
    )


def uniform_full_rank(
    ctx: FieldCtx,
    m: int,
    r: int,
    rng: np.random.Generator,
    telemetry: RejectionTelemetry | None = None,
) -> MatrixFq:
    """Uniform m x r matrix of rank r, by rejection from uniform draws.

    Acceptance probability is prod_{i<r}(1 - q^(i-m)) >= 0.288 even in the
    worst case (q=2, r=m), so the attempt cap REJECTION_CAP is effectively unreachable.
    """
    _check_rank(r, m)
    return MatrixFq(ctx, _reject_full_rank(ctx, m, r, [rng], telemetry)[0])


def uniform_rank_r(
    ctx: FieldCtx,
    m: int,
    n: int,
    r: int,
    rng: np.random.Generator,
    telemetry: RejectionTelemetry | None = None,
) -> MatrixFq:
    """Exactly uniform m x n matrix of rank r (product of full-rank factors)."""
    return mat_mul(*draw_factor_pair(ctx, m, n, r, rng, "exact", telemetry))


def product_sampler(
    ctx: FieldCtx, m: int, n: int, r: int, rng: np.random.Generator
) -> MatrixFq:
    """Product of unconditioned uniform m x r and r x n factors.

    The output has rank at most r and its law is within total variation
    tv_closed_form(q, m, n, r) of the uniform rank-r law.
    """
    return mat_mul(*draw_factor_pair(ctx, m, n, r, rng, "product"))


def draw_factor_pair(
    ctx: FieldCtx,
    m: int,
    n: int,
    r: int,
    rng: np.random.Generator,
    mode: str,
    telemetry: RejectionTelemetry | None = None,
) -> tuple[MatrixFq, MatrixFq]:
    """Draw the (left, right) factor pair for either sampling mode.

    mode "exact" draws both factors uniformly from their full-rank sets (the
    product is then uniform rank-r); mode "product" draws them uniformly
    with no rank condition.  The left factor always consumes the stream
    first.  Rejection attempts of both factors go to `telemetry`.
    """
    _check_factor_shape(m, n, r, mode)
    if mode == "exact":
        left = _reject_full_rank(ctx, m, r, [rng], telemetry)[0]
        right = _reject_full_rank(ctx, r, n, [rng], telemetry)[0]
    else:
        left = random_elements(ctx, rng, (m, r))
        right = random_elements(ctx, rng, (r, n))
    return MatrixFq(ctx, left), MatrixFq(ctx, right)


def _check_factor_shape(m: int, n: int, r: int, mode: str) -> None:
    """Exact mode needs `_check_rank`'s 0 <= r <= min(m, n), product mode r >= 1."""
    if mode == "exact":
        _check_rank(r, m, n)
    elif mode == "product":
        if r < 1:
            raise RankOutOfRange(f"inner dimension must be >= 1, got {r}")
        if m < 0 or n < 0:
            raise FqrankError(f"dimensions must be >= 0, got {m} x {n}")
    else:
        raise FqrankError(f"unknown mode {mode!r} (expected 'exact' or 'product')")


def _draw_seeded_block(
    ctx: FieldCtx,
    m: int,
    n: int,
    r: int,
    seed: int,
    lo: int,
    hi: int,
    mode: str,
    telemetry: RejectionTelemetry | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The int16 stacks of the left (B, m, r) and right (B, r, n) factors of
    the streams SeedSpec(seed).stream(i) for i in [lo, hi): pair k as
    draw_factor_pair draws it from stream lo + k, with the same telemetry
    totals.

    One Philox serves the block: setting its state to key (seed, i) and
    counter 0, from a state dict of Python lists reused for every stream,
    gives stream i's words without building a generator.  Each
    stream's first m*r + r*n words come in one call, which is the whole draw
    in product mode.  In exact mode they are a pair's first left and right
    candidates; a stream with a rejected candidate is drawn again from its
    start by `_reject_full_rank`, left factor then right as in
    draw_factor_pair, so it counts in `telemetry` once.
    """
    spec = SeedSpec(seed)
    _check_factor_shape(m, n, r, mode)
    if not 0 <= lo <= hi <= 2**64:
        raise FqrankError("sample index must fit in 64 bits")
    split, words = m * r, m * r + r * n
    raw = np.empty((hi - lo, words), dtype=np.uint64)
    bg = np.random.Philox(key=np.array([spec.master_seed, 0], dtype=np.uint64))
    # counter 0 and an empty buffer, restored for every stream; numpy reads
    # a state of Python lists word by word, in less than half the time of arrays
    state = {
        **bg.state,
        "state": {"counter": [0] * 4, "key": [spec.master_seed, 0]},
        "buffer": [0] * 4,
    }
    key = state["state"]["key"]
    for k, i in enumerate(range(lo, hi)):
        key[1] = i
        bg.state = state
        raw[k] = bg.random_raw(words)
    elements = _residues(ctx.q, raw)
    lefts = elements[:, :split].reshape(hi - lo, m, r)
    rights = elements[:, split:].reshape(hi - lo, r, n)
    if mode == "product":
        return lefts, rights
    kept = (_rank_stack(ctx, lefts) == r) & (_rank_stack(ctx, rights) == r)
    if telemetry is not None:  # a kept pair is one accepted attempt per factor
        first_tries = 2 * int(kept.sum())
        telemetry.attempts += first_tries
        telemetry.accepted += first_tries
    redo = np.flatnonzero(~kept)
    if redo.size:
        rngs = [spec.stream(lo + int(k)) for k in redo]
        lefts[redo] = _reject_full_rank(ctx, m, r, rngs, telemetry)
        rights[redo] = _reject_full_rank(ctx, r, n, rngs, telemetry)
    return lefts, rights


def _blocks(lo: int, hi: int, entries: int) -> Iterator[tuple[int, int]]:
    """Consecutive ranges [start, stop) covering [lo, hi) of _BLOCK_ENTRIES //
    entries indices (at least one), `entries` being what one index holds in
    the caller's block: memory stays bounded however long the range."""
    step = max(1, _BLOCK_ENTRIES // max(1, entries))
    for start in range(lo, hi, step):
        yield start, min(start + step, hi)
