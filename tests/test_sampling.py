import time

import numpy as np
import pytest

from fqrank import sampling
from fqrank.counting import RankOutOfRange, rank_count
from fqrank.field import MAX_ORDER, FqrankError, field_from_order, make_field
from fqrank.matrices import MatrixFq, mat_mul, rank
from fqrank.sampling import (
    RejectionOverflow,
    RejectionTelemetry,
    SeedSpec,
    _draw_seeded_block,
    _reject_full_rank,
    draw_factor_pair,
    expected_full_rank_rate,
    product_sampler,
    random_elements,
    uniform_full_rank,
    uniform_matrix,
    uniform_rank_r,
)


# --- seeding ---------------------------------------------------------------

def test_seed_spec_streams_are_reproducible():
    a = SeedSpec(123).stream(7)
    b = SeedSpec(123).stream(7)
    assert np.array_equal(a.integers(0, 1 << 30, size=16), b.integers(0, 1 << 30, size=16))


def test_seed_spec_streams_are_distinct():
    a = SeedSpec(123).stream(0).integers(0, 1 << 30, size=16)
    b = SeedSpec(123).stream(1).integers(0, 1 << 30, size=16)
    c = SeedSpec(124).stream(0).integers(0, 1 << 30, size=16)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_spec_key_is_seed_and_index():
    # every 64-bit word reaches the key unrounded: no two seeds share a stream
    for seed, index in [(0, 3), ((1 << 63) + 1, 3), ((1 << 64) - 1, 0), (5, (1 << 64) - 1)]:
        key = SeedSpec(seed).stream(index).bit_generator.state["state"]["key"]
        assert key.tolist() == [seed, index]
    top = SeedSpec((1 << 64) - 1).stream(0).bit_generator.random_raw(4)
    assert not np.array_equal(top, SeedSpec(0).stream(0).bit_generator.random_raw(4))


def test_seed_spec_validation():
    SeedSpec(0)
    SeedSpec((1 << 64) - 1)
    with pytest.raises(ValueError):
        SeedSpec(-1)
    with pytest.raises(ValueError):
        SeedSpec(1 << 64)


def test_seed_spec_takes_only_integers():
    # a float seed or index was truncated into the key of another stream
    for seed, index in [(1.5, 0), (3, 2.7), ("7", 0), (3, "2"), (None, 0)]:
        with pytest.raises(FqrankError, match="must be an integer"):
            SeedSpec(seed).stream(index)
    with pytest.raises(FqrankError, match="must be an integer"):
        _draw_seeded_block(field_from_order(2), 2, 2, 1, 1.5, 0, 1, "exact")
    top = SeedSpec(np.uint64((1 << 64) - 1))
    assert type(top.master_seed) is int and top == SeedSpec((1 << 64) - 1)
    for seed, index in [(np.uint64((1 << 64) - 1), np.int64(2)), (np.int32(7), np.uint8(3))]:
        key = SeedSpec(seed).stream(index).bit_generator.state["state"]["key"]
        assert key.tolist() == [int(seed), int(index)]


# --- uniform entries ----------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3])
def test_uniform_matrix_frequencies(q):
    ctx = field_from_order(q)
    rng = SeedSpec(7).stream(0)
    draws = 100_000
    mat = uniform_matrix(ctx, draws // 100, 100, rng)
    freqs = np.bincount(mat.data.ravel(), minlength=q) / draws
    assert np.abs(freqs - 1 / q).max() < 0.01


def test_random_elements_range():
    ctx = make_field(3, 2)
    vals = random_elements(ctx, SeedSpec(1).stream(0), (10_000,))
    assert vals.dtype == np.int16
    assert vals.min() >= 0 and vals.max() < 9
    assert len(np.unique(vals)) == 9  # every element appears


def test_random_elements_reduce_the_streams_64_bit_integers():
    # the stream contract: entries are Generator.integers(0, 2**64) mod q,
    # for the powers of two (reduced by a mask) as for the other orders
    for q in (2, 16, 9, 5):
        ctx = field_from_order(q)
        for shape in [(3, 4), (5,), (2, 0), (64, 8)]:
            got = random_elements(ctx, SeedSpec(8).stream(2), shape)
            rng = SeedSpec(8).stream(2)
            words = rng.integers(0, 2**64, size=shape, dtype=np.uint64, endpoint=False)
            assert got.dtype == np.int16
            assert np.array_equal(got, (words % np.uint64(q)).astype(np.int16)), (q, shape)


def test_residues_of_a_power_of_two_order_are_the_words_mod_q():
    """The int16 cast and mask give raw % q for every power of two up to
    MAX_ORDER, at the words whose low 16 bits wrap in the cast, and keep
    the words' shape."""
    edges = [0, 2**15 - 1, 2**15, 2**16 - 1, 2**16, 2**63, 2**64 - 1]
    words = np.concatenate([
        np.array(edges, dtype=np.uint64),
        np.random.Philox(11).random_raw(4096),
    ]).reshape(-1, 1)
    for e in range(1, MAX_ORDER.bit_length()):
        q = 1 << e
        got = sampling._residues(q, words)
        assert got.dtype == np.int16 and got.shape == words.shape
        assert np.array_equal(got, words % np.uint64(q)), q


def test_uniform_matrix_determinism():
    ctx = make_field(2, 1)
    m1 = uniform_matrix(ctx, 4, 4, SeedSpec(99).stream(3))
    m2 = uniform_matrix(ctx, 4, 4, SeedSpec(99).stream(3))
    assert m1 == m2


# --- rejection sampling of full-rank factors ------------------------------------

def test_expected_full_rank_rate_frozen():
    assert expected_full_rank_rate(2, 2, 2) == pytest.approx(6 / 16)
    assert expected_full_rank_rate(2, 2, 1) == pytest.approx(3 / 4)
    assert expected_full_rank_rate(3, 2, 2) == pytest.approx(48 / 81)
    # worst case over the supported range stays comfortably above 0.28
    assert expected_full_rank_rate(2, 30, 30) > 0.28


def test_expected_full_rank_rate_is_the_exact_ratio():
    for q in (2, 3, 4, 9):
        for rows in range(6):
            for cols in range(6):
                exact = rank_count(q, rows, cols, min(rows, cols)) / q ** (rows * cols)
                assert expected_full_rank_rate(q, rows, cols) == pytest.approx(float(exact))


def test_expected_full_rank_rate_large_is_fast():
    start = time.perf_counter()
    rate = expected_full_rank_rate(2, 2000, 2000)
    assert time.perf_counter() - start < 1.0
    assert rate == pytest.approx(0.2887880950866024)  # prod_{i>=1} (1 - 2^-i)


def test_uniform_full_rank_always_full_rank():
    ctx = make_field(2, 1)
    rng = SeedSpec(5).stream(0)
    for _ in range(200):
        mat = uniform_full_rank(ctx, 3, 2, rng)
        assert mat.data.shape == (3, 2)
        assert rank(mat) == 2


def test_uniform_full_rank_acceptance_rate():
    ctx = make_field(2, 1)
    rng = SeedSpec(11).stream(0)
    telemetry = RejectionTelemetry()
    draws = 4000
    for _ in range(draws):
        uniform_full_rank(ctx, 2, 2, rng, telemetry=telemetry)
    assert telemetry.accepted == draws
    p = expected_full_rank_rate(2, 2, 2)
    se = np.sqrt(p * (1 - p) / telemetry.attempts)
    assert abs(telemetry.observed_rate - p) < 5 * se


def test_uniform_full_rank_outcomes_equifrequent():
    # 2x1 full rank over GF(2): exactly the three nonzero vectors
    ctx = make_field(2, 1)
    rng = SeedSpec(21).stream(0)
    counts = {}
    draws = 9000
    for _ in range(draws):
        mat = uniform_full_rank(ctx, 2, 1, rng)
        counts[bytes(mat.data)] = counts.get(bytes(mat.data), 0) + 1
    assert len(counts) == 3
    se = np.sqrt((1 / 3) * (2 / 3) / draws)
    for got in counts.values():
        assert abs(got / draws - 1 / 3) < 5 * se


def test_uniform_full_rank_rank_bounds():
    ctx = make_field(2, 1)
    rng = SeedSpec(1).stream(0)
    with pytest.raises(RankOutOfRange):
        uniform_full_rank(ctx, 2, 3, rng)
    with pytest.raises(RankOutOfRange):
        uniform_full_rank(ctx, 2, -1, rng)
    assert uniform_full_rank(ctx, 2, 0, rng).data.shape == (2, 0)


def test_rejection_overflow(monkeypatch):
    monkeypatch.setattr(sampling, "REJECTION_CAP", 0)  # read at each call
    ctx = make_field(2, 1)
    rng = SeedSpec(1).stream(0)
    with pytest.raises(RejectionOverflow, match="in 0 attempts"):
        uniform_full_rank(ctx, 2, 2, rng)


# --- rank-conditioned and product samplers -----------------------------------------

def test_uniform_rank_r_has_exact_rank():
    rng = SeedSpec(31).stream(0)
    for q, m, n, r in [(2, 2, 2, 1), (2, 3, 4, 2), (3, 3, 3, 0), (4, 2, 3, 2)]:
        ctx = field_from_order(q)
        for _ in range(50):
            mat = uniform_rank_r(ctx, m, n, r, rng)
            assert mat.data.shape == (m, n)
            assert rank(mat) == r


def test_uniform_rank_r_distribution_smoke():
    # all nine rank-1 2x2 matrices over GF(2) should be close to equifrequent
    scipy_stats = pytest.importorskip("scipy.stats")
    ctx = make_field(2, 1)
    rng = SeedSpec(17).stream(0)
    draws = 9000
    counts = {}
    for _ in range(draws):
        mat = uniform_rank_r(ctx, 2, 2, 1, rng)
        counts[bytes(mat.data)] = counts.get(bytes(mat.data), 0) + 1
    assert len(counts) == 9
    res = scipy_stats.chisquare(list(counts.values()))
    assert res.pvalue > 1e-6


def test_uniform_rank_r_out_of_range():
    ctx = make_field(2, 1)
    rng = SeedSpec(1).stream(0)
    with pytest.raises(RankOutOfRange):
        uniform_rank_r(ctx, 2, 2, 3, rng)


def test_product_sampler_rank_at_most_r():
    rng = SeedSpec(41).stream(0)
    ctx = make_field(2, 1)
    ranks = set()
    for _ in range(400):
        mat = product_sampler(ctx, 3, 3, 2, rng)
        ranks.add(rank(mat))
    assert ranks <= {0, 1, 2}
    assert 2 in ranks  # the generic case does occur


def test_product_sampler_zero_probability():
    # X uniform 2x1, Y uniform 1x2 over GF(2): P[XY = 0] = 1/4 + 1/4 - 1/16
    ctx = make_field(2, 1)
    rng = SeedSpec(43).stream(0)
    draws = 20_000
    zeros = 0
    for _ in range(draws):
        mat = product_sampler(ctx, 2, 2, 1, rng)
        zeros += not mat.data.any()
    p = 7 / 16
    se = np.sqrt(p * (1 - p) / draws)
    assert abs(zeros / draws - p) < 5 * se


def test_product_sampler_requires_positive_rank():
    ctx = make_field(2, 1)
    with pytest.raises(RankOutOfRange):
        product_sampler(ctx, 2, 2, 0, SeedSpec(1).stream(0))


def test_draw_factor_pair_modes():
    ctx = make_field(3, 1)
    rng = SeedSpec(53).stream(0)
    for _ in range(30):
        x, y = draw_factor_pair(ctx, 3, 4, 2, rng, mode="exact")
        assert x.data.shape == (3, 2) and y.data.shape == (2, 4)
        assert rank(x) == 2 and rank(y) == 2
        assert rank(mat_mul(x, y)) == 2
    ranks = set()
    for _ in range(200):
        x, y = draw_factor_pair(ctx, 2, 2, 2, rng, mode="product")
        ranks.add(rank(mat_mul(x, y)))
    assert ranks == {0, 1, 2}
    telemetry = RejectionTelemetry()
    draw_factor_pair(ctx, 3, 4, 2, rng, mode="exact", telemetry=telemetry)
    assert telemetry.accepted == 2 and telemetry.attempts >= 2
    with pytest.raises(ValueError):
        draw_factor_pair(ctx, 2, 2, 1, rng, mode="bogus")


def test_block_draws_are_per_stream_draws():
    # q=2, m=n=r=2 accepts 3/8 of the candidates: several redraw rounds
    ctx = make_field(2, 1)
    block = RejectionTelemetry()
    rngs = [SeedSpec(5).stream(i) for i in range(40)]
    lefts = _reject_full_rank(ctx, 2, 2, rngs, block)
    rights = _reject_full_rank(ctx, 2, 2, rngs, block)
    single = RejectionTelemetry()
    for i, rng in enumerate(rngs):
        alone = SeedSpec(5).stream(i)
        x, y = draw_factor_pair(ctx, 2, 2, 2, alone, "exact", telemetry=single)
        assert np.array_equal(x.data, lefts[i]) and np.array_equal(y.data, rights[i])
        # and the block leaves each stream where a single draw leaves it
        assert rng.bit_generator.random_raw() == alone.bit_generator.random_raw()
    assert (block.attempts, block.accepted) == (single.attempts, single.accepted)
    assert block.accepted == 80 and block.attempts > 120


@pytest.mark.parametrize("seed", [5, (1 << 64) - 1])
@pytest.mark.parametrize("mode", ["exact", "product"])
@pytest.mark.parametrize("q, m, n, r", [(2, 2, 2, 2), (3, 8, 8, 2)])
def test_seeded_block_is_per_stream_draws(monkeypatch, q, m, n, r, mode, seed):
    looped = []  # streams of each rejection-loop call, left factors then right
    reject = sampling._reject_full_rank

    def counted(ctx, rows, cols, rngs, *args, **kwargs):
        looped.append(len(rngs))
        return reject(ctx, rows, cols, rngs, *args, **kwargs)

    monkeypatch.setattr(sampling, "_reject_full_rank", counted)
    ctx = field_from_order(q)
    rejected = set()
    for lo, hi in [(0, 40), (7, 33), (39, 40)]:
        block = RejectionTelemetry()
        looped.clear()
        lefts, rights = _draw_seeded_block(ctx, m, n, r, seed, lo, hi, mode, block)
        assert looped[0::2] == looped[1::2]  # each left call has its right call
        in_loop = sum(looped[0::2])
        assert lefts.shape == (hi - lo, m, r) and rights.shape == (hi - lo, r, n)
        single = RejectionTelemetry()
        redrawn = 0
        for k, i in enumerate(range(lo, hi)):
            alone = RejectionTelemetry()
            x, y = draw_factor_pair(ctx, m, n, r, SeedSpec(seed).stream(i), mode, telemetry=alone)
            assert np.array_equal(x.data, lefts[k]) and np.array_equal(y.data, rights[k])
            single.attempts += alone.attempts
            single.accepted += alone.accepted
            if alone.attempts > 2:
                redrawn += 1
                first = random_elements(ctx, SeedSpec(seed).stream(i), (m, r))
                rejected.add("left" if rank(MatrixFq(ctx, first)) < r else "right")
        assert (block.attempts, block.accepted) == (single.attempts, single.accepted)
        assert in_loop == redrawn
    if mode == "product":
        assert single.attempts == 0
    elif q == 2:
        assert rejected == {"left", "right"}


def test_seeded_block_index_range():
    ctx = make_field(2, 1)
    top = 1 << 64
    lefts, rights = _draw_seeded_block(ctx, 3, 3, 1, 9, top - 2, top, "exact")
    for k, i in enumerate([top - 2, top - 1]):
        x, y = draw_factor_pair(ctx, 3, 3, 1, SeedSpec(9).stream(i), "exact")
        assert np.array_equal(x.data, lefts[k]) and np.array_equal(y.data, rights[k])
    for lo, hi in [(top - 1, top + 1), (-1, 2)]:
        with pytest.raises(FqrankError):
            _draw_seeded_block(ctx, 3, 3, 1, 9, lo, hi, "exact")
    with pytest.raises(FqrankError):
        _draw_seeded_block(ctx, 3, 3, 1, top, 0, 2, "exact")
    with pytest.raises(RankOutOfRange):
        _draw_seeded_block(ctx, 3, 3, 4, 9, 0, 2, "exact")
    with pytest.raises(FqrankError):
        _draw_seeded_block(ctx, 3, 3, 1, 9, 0, 2, "bogus")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: expected_full_rank_rate(1, 2, 2), "field order must be >= 2, got 1"),
        (lambda: expected_full_rank_rate(2, -1, 2), "dimensions must be >= 0, got -1 x 2"),
        (
            lambda: draw_factor_pair(
                make_field(2, 1), -1, 2, 1, np.random.default_rng(0), "product"
            ),
            "dimensions must be >= 0, got -1 x 2",
        ),
        (
            lambda: uniform_matrix(make_field(2, 1), -1, 2, np.random.default_rng(0)),
            "dimensions must be >= 0, got -1 x 2",
        ),
    ],
    ids=["rate-order-1", "rate-negative-rows", "product-pair-negative-rows", "uniform-negative-rows"],
)
def test_input_errors(call, message):
    with pytest.raises(FqrankError, match=message):
        call()
