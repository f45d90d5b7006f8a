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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .counting import RankOutOfRange, rank_count
from .field import FieldCtx, FqrankError
from .matrices import MatrixFq, mat_mul, rank

REJECTION_CAP = 10_000


class RejectionOverflow(RuntimeError):
    """Raised when rejection sampling exhausts its attempt budget."""


@dataclass(frozen=True)
class SeedSpec:
    """Derives one independent generator stream per sample index."""

    master_seed: int

    def __post_init__(self) -> None:
        if not 0 <= self.master_seed < 2**64:
            raise FqrankError("master_seed must fit in 64 bits")

    def stream(self, index: int) -> np.random.Generator:
        if not 0 <= index < 2**64:
            raise FqrankError("sample index must fit in 64 bits")
        return np.random.Generator(np.random.Philox(key=[self.master_seed, index]))


@dataclass
class RejectionTelemetry:
    """Counts rejection attempts so acceptance rates can be audited."""

    attempts: int = 0
    accepted: int = 0

    @property
    def observed_rate(self) -> float:
        return self.accepted / self.attempts if self.attempts else float("nan")


def expected_full_rank_rate(q: int, rows: int, cols: int) -> float:
    """Acceptance probability of the full-rank rejection loop."""
    t = min(rows, cols)
    return float(rank_count(q, rows, cols, t) / q ** (rows * cols))


def random_elements(
    ctx: FieldCtx, rng: np.random.Generator, shape: tuple[int, ...]
) -> np.ndarray:
    """Independent uniform element indices via modular mapping.

    Full-width 64-bit draws reduced mod q; the bias is q/2**64 < 1e-15 per
    entry, far below every statistical tolerance used here.
    """
    raw = rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)
    return (raw % np.uint64(ctx.q)).astype(np.int16)


def uniform_matrix(ctx: FieldCtx, m: int, n: int, rng: np.random.Generator) -> MatrixFq:
    """Uniformly random m x n matrix, every entry independent."""
    if m < 0 or n < 0:
        raise FqrankError(f"dimensions must be >= 0, got {m} x {n}")
    return MatrixFq(ctx, random_elements(ctx, rng, (m, n)))


def _reject_full_rank(
    ctx: FieldCtx,
    rows: int,
    cols: int,
    rng: np.random.Generator,
    telemetry: RejectionTelemetry | None,
    max_attempts: int,
) -> MatrixFq:
    target = min(rows, cols)
    for _ in range(max_attempts):
        cand = uniform_matrix(ctx, rows, cols, rng)
        if telemetry is not None:
            telemetry.attempts += 1
        if rank(cand) == target:
            if telemetry is not None:
                telemetry.accepted += 1
            return cand
    raise RejectionOverflow(
        f"no full-rank {rows} x {cols} matrix over GF({ctx.q}) "
        f"in {max_attempts} attempts"
    )


def uniform_full_rank(
    ctx: FieldCtx,
    m: int,
    r: int,
    rng: np.random.Generator,
    telemetry: RejectionTelemetry | None = None,
    max_attempts: int = REJECTION_CAP,
) -> MatrixFq:
    """Uniform m x r matrix of rank r, by rejection from uniform_matrix.

    Acceptance probability is prod_{i<r}(1 - q^(i-m)) >= 0.288 even in the
    worst case (q=2, r=m), so the attempt cap is effectively unreachable.
    """
    if r < 0 or r > m:
        raise RankOutOfRange(f"rank {r} not in [0, {m}]")
    return _reject_full_rank(ctx, m, r, rng, telemetry, max_attempts)


def uniform_rank_r(
    ctx: FieldCtx,
    m: int,
    n: int,
    r: int,
    rng: np.random.Generator,
    telemetry: RejectionTelemetry | None = None,
    max_attempts: int = REJECTION_CAP,
) -> MatrixFq:
    """Exactly uniform m x n matrix of rank r (product of full-rank factors)."""
    return mat_mul(*draw_factor_pair(ctx, m, n, r, rng, "exact", max_attempts, telemetry))


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
    max_attempts: int = REJECTION_CAP,
    telemetry: RejectionTelemetry | None = None,
) -> tuple[MatrixFq, MatrixFq]:
    """Draw the (left, right) factor pair for either sampling mode.

    mode "exact" draws both factors uniformly from their full-rank sets (the
    product is then uniform rank-r); mode "product" draws them uniformly
    with no rank condition.  The left factor always consumes the stream
    first.  Rejection attempts of both factors go to `telemetry`.
    """
    if mode == "exact":
        if r < 0 or r > min(m, n):
            raise RankOutOfRange(f"rank {r} not in [0, {min(m, n)}]")
        return (
            _reject_full_rank(ctx, m, r, rng, telemetry, max_attempts),
            _reject_full_rank(ctx, r, n, rng, telemetry, max_attempts),
        )
    if mode == "product":
        if r < 1:
            raise RankOutOfRange(f"inner dimension must be >= 1, got {r}")
        return uniform_matrix(ctx, m, r, rng), uniform_matrix(ctx, r, n, rng)
    raise FqrankError(f"unknown mode {mode!r} (expected 'exact' or 'product')")
