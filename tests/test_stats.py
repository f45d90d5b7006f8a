"""Character sums, the product-count decomposition, exact laws, and CLT runs."""

from fractions import Fraction
import math
import multiprocessing
import os
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from fqrank.characters import (
    BadSubset,
    IndexSubset,
    all_subsets,
    character_table,
    component_transform_from_embedded,
    jacobi_component_trivial,
    sum_indicator,
)
from fqrank.counting import RankOutOfRange, subset_bias, tv_closed_form_exact
from fqrank.field import FqrankError, field_from_order, make_field
from fqrank import sampling, stats
from fqrank.matrices import (
    DimensionMismatch,
    FieldMismatch,
    MatrixFq,
    SubsetA,
    ct,
    mat_mul,
    matrix,
    rank,
    zero_matrix,
)
from fqrank.matrices import _decode, _encode, _index_matmul, _rank_stack
from fqrank.counting import MomentParams, asymptotic_ct_mean, asymptotic_ct_variance, rank_count
from fqrank.sampling import (
    SeedSpec,
    _draw_seeded_block,
    draw_factor_pair,
    uniform_full_rank,
    uniform_matrix,
)
from fqrank.stats import (
    DegenerateSubset,
    TooLargeToEnumerate,
    col_char_sum,
    count_zero_cols,
    count_zero_rows,
    decompose_ct,
    exact_distribution,
    expected_char_sum,
    ks_distance,
    normal_cdf,
    normalized_ct,
    product_ct,
    row_char_sum,
    run_clt,
    zero_count_moments,
)


def all_matrices(ctx, rows, cols):
    for entries in product(range(ctx.q), repeat=rows * cols):
        yield matrix(ctx, [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)])


def row_char_sum_oracle(x, subset, chis, table):
    acc = 0.0 + 0.0j
    for i in range(x.data.shape[0]):
        term = 1.0 + 0.0j
        for pos, k in enumerate(subset.members()):
            term *= table.mult[chis[pos], x.data[i, k]]
        acc += term
    return acc


# --- character sums over rows and columns -------------------------------------

def test_char_sum_empty_subset_counts_terms():
    ctx = make_field(3, 1)
    table = character_table(ctx)
    x = zero_matrix(ctx, 5, 2)
    assert row_char_sum(x, IndexSubset.empty(2), (), table) == 5
    assert col_char_sum(zero_matrix(ctx, 2, 7), IndexSubset.empty(2), (), table) == 7


def test_row_char_sum_against_oracle():
    rng = np.random.default_rng(3)
    for q in (2, 3, 4):
        ctx = field_from_order(q)
        table = character_table(ctx)
        for _ in range(15):
            x = uniform_matrix(ctx, int(rng.integers(1, 5)), 3, np.random.default_rng(int(rng.integers(1 << 30))))
            for subset in all_subsets(3):
                for chis in product(range(q - 1), repeat=subset.size):
                    got = row_char_sum(x, subset, chis, table)
                    want = row_char_sum_oracle(x, subset, chis, table)
                    assert got == pytest.approx(want, abs=1e-10)
                    # column version through the transpose
                    assert col_char_sum(x.transpose(), subset, chis, table) == pytest.approx(want, abs=1e-10)


def test_char_sum_argument_validation():
    ctx = make_field(3, 1)
    table = character_table(ctx)
    x = zero_matrix(ctx, 2, 2)
    with pytest.raises(BadSubset):
        row_char_sum(x, IndexSubset.empty(3), (), table)
    with pytest.raises(ValueError):
        row_char_sum(x, IndexSubset.full(2), (0,), table)
    with pytest.raises(ValueError):
        row_char_sum(x, IndexSubset.full(2), (0, 5), table)
    with pytest.raises(FieldMismatch):
        row_char_sum(x, IndexSubset.full(2), (0, 0), character_table(make_field(2, 1)))


def test_expected_char_sum_against_enumeration():
    for q in (2, 3):
        ctx = field_from_order(q)
        table = character_table(ctx)
        for r in (1, 2):
            for m in (1, 2):
                mats = list(all_matrices(ctx, m, r))
                for subset in all_subsets(r):
                    for chis in product(range(q - 1), repeat=subset.size):
                        avg = sum(
                            row_char_sum(x, subset, chis, table) for x in mats
                        ) / len(mats)
                        want = complex(float(expected_char_sum(q, subset, chis, m)))
                        assert abs(avg - want) < 1e-9, (q, r, m, subset, chis)


def test_expected_char_sum_validation():
    with pytest.raises(ValueError):
        expected_char_sum(2, IndexSubset.full(2), (0,), 3)


# --- zero-row and zero-column counts --------------------------------------------

def test_zero_counts():
    ctx = make_field(2, 1)
    x = matrix(ctx, [[0, 0], [1, 0], [0, 0]])
    assert count_zero_rows(x) == 2
    assert count_zero_cols(x) == 1
    assert count_zero_rows(zero_matrix(ctx, 3, 0)) == 3  # width-0 rows are all zero


def test_zero_count_moments_match_enumeration():
    for q, r, trials in [(2, 1, 2), (2, 2, 2), (3, 1, 3)]:
        ctx = field_from_order(q)
        mean, var = zero_count_moments(q, r, trials)
        zs = [count_zero_rows(x) for x in all_matrices(ctx, trials, r)]
        total = len(zs)
        emp_mean = Fraction(sum(zs), total)
        emp_var = Fraction(sum(z * z for z in zs), total) - emp_mean**2
        assert mean == emp_mean
        assert var == emp_var
    with pytest.raises(RankOutOfRange):
        zero_count_moments(2, -1, 3)


def test_zero_count_moments_frozen():
    assert zero_count_moments(2, 1, 2) == (1, Fraction(1, 2))
    assert zero_count_moments(2, 2, 4) == (1, Fraction(3, 4))


# --- the decomposition of the product entry count -------------------------------

def test_decompose_hand_instance():
    ctx = make_field(2, 1)
    x = matrix(ctx, [[1], [0]])
    y = matrix(ctx, [[1, 1]])
    dec = decompose_ct(x, y, SubsetA.from_indices(2, [1]))
    assert dec.ct_value == 2
    assert dec.mean_term == pytest.approx(1.0)
    assert dec.main_term == pytest.approx(0.0 + 0.0j, abs=1e-12)
    assert dec.zero_row_term == pytest.approx(0.0)
    assert dec.zero_col_term == pytest.approx(1.0)
    assert abs(dec.residual) < 1e-12
    assert dec.total == pytest.approx(2.0 + 0.0j, abs=1e-12)


def test_decompose_exhaustive_small():
    # every factor pair and every nonempty subset: the identity is algebraic
    for q, m, r, n in [(2, 2, 1, 2), (2, 1, 2, 2), (3, 2, 1, 1)]:
        ctx = field_from_order(q)
        for amask in range(1, 1 << q):
            subset = SubsetA(q, amask)
            for x in all_matrices(ctx, m, r):
                for y in all_matrices(ctx, r, n):
                    dec = decompose_ct(x, y, subset)
                    assert abs(dec.residual) < 1e-9, (q, amask, x.data, y.data)


def test_decompose_random_pairs():
    rng = SeedSpec(77)
    for idx, (q, m, r, n) in enumerate([(2, 4, 2, 5), (3, 3, 2, 3), (4, 2, 2, 2), (5, 3, 1, 4)]):
        ctx = field_from_order(q)
        stream = rng.stream(idx)
        subset = SubsetA.nonzero(q)
        for _ in range(20):
            x = uniform_matrix(ctx, m, r, stream)
            y = uniform_matrix(ctx, r, n, stream)
            dec = decompose_ct(x, y, subset)
            assert abs(dec.residual) < 1e-9


def test_decompose_zero_factor():
    ctx = make_field(2, 1)
    dec = decompose_ct(zero_matrix(ctx, 2, 1), zero_matrix(ctx, 1, 2), SubsetA.from_indices(2, [1]))
    assert dec.ct_value == 0
    assert abs(dec.residual) < 1e-12


def test_decompose_validation():
    ctx = make_field(2, 1)
    with pytest.raises(FieldMismatch):
        decompose_ct(zero_matrix(ctx, 2, 1), zero_matrix(make_field(3, 1), 1, 2), SubsetA.full(2))
    from fqrank.matrices import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        decompose_ct(zero_matrix(ctx, 2, 2), zero_matrix(ctx, 1, 2), SubsetA.full(2))
    with pytest.raises(FieldMismatch):
        decompose_ct(zero_matrix(ctx, 2, 1), zero_matrix(ctx, 1, 2), SubsetA.full(3))
    # each gate names the limit it enforces
    with pytest.raises(TooLargeToEnumerate, match=r"r = 7 > 6"):
        decompose_ct(zero_matrix(ctx, 1, 7), zero_matrix(ctx, 7, 1), SubsetA.full(2))
    gf4096 = field_from_order(4096)
    with pytest.raises(TooLargeToEnumerate, match=r"4096\^2 > 2\^22"):
        decompose_ct(zero_matrix(gf4096, 1, 2), zero_matrix(gf4096, 2, 1), SubsetA.full(4096))


def per_key_coefficients(ctx, subset_a, r, keys=None):
    """The route subset_coefficients replaced: one embedded-restriction
    alternating sum per (element, subset, tuple), summed in member order."""
    table = character_table(ctx)
    if keys is None:
        keys = [(s.mask, chis) for s in all_subsets(r) for chis in product(range(ctx.q - 1), repeat=s.size)]
    total = {}
    for a in subset_a.members():
        f_a = sum_indicator(ctx, a, r)
        for mask, chis in keys:
            subset = IndexSubset(r, mask)
            if any(chis):
                coeff = component_transform_from_embedded(f_a, subset, chis, table)
            else:
                coeff = complex(float(jacobi_component_trivial(ctx.q, a, subset.size)))
            total[(mask, chis)] = total.get((mask, chis), 0.0 + 0.0j) + coeff
    return total


def per_key_main_term(x, y, coeffs):
    """The main-term loop decompose_ct replaced: one row and one column
    character sum per coefficient key."""
    ctx, r = x.field, x.cols
    table = character_table(ctx)
    main = 0.0 + 0.0j
    for (mask, chis), coeff in coeffs.items():
        subset = IndexSubset(r, mask)
        ex = float(expected_char_sum(ctx.q, subset, chis, x.rows))
        ey = float(expected_char_sum(ctx.q, subset, chis, y.cols))
        xs = row_char_sum(x, subset, chis, table)
        ys = col_char_sum(y, subset, chis, table)
        main += coeff * (xs - ex) * (ys - ey)
    return main


@pytest.mark.parametrize("q", [3, 5])
def test_decompose_bit_exact_against_per_key_route(q):
    ctx = field_from_order(q)
    subset = SubsetA.nonzero(q)
    coeffs = per_key_coefficients(ctx, subset, 2)
    assert list(stats.subset_coefficients(ctx, subset, 2).items()) == list(coeffs.items())
    stream = SeedSpec(5).stream(q)
    for m, n in [(9, 11), (1, 4), (30, 2)]:
        x = uniform_matrix(ctx, m, 2, stream)
        y = uniform_matrix(ctx, 2, n, stream)
        assert decompose_ct(x, y, subset).main_term == per_key_main_term(x, y, coeffs)


def test_decompose_matches_per_key_route_gf16_r3():
    ctx = field_from_order(16)
    subset = SubsetA.nonzero(16)
    coeffs = stats.subset_coefficients(ctx, subset, 3)
    assert len(coeffs) == 4096
    rng = np.random.default_rng(16)
    picks = [list(coeffs)[int(i)] for i in rng.choice(len(coeffs), size=24, replace=False)]
    for key, want in per_key_coefficients(ctx, subset, 3, picks).items():
        assert abs(coeffs[key] - want) < 1e-12, key
    stream = SeedSpec(16).stream(0)
    x = uniform_matrix(ctx, 16, 3, stream)
    y = uniform_matrix(ctx, 3, 16, stream)
    assert abs(decompose_ct(x, y, subset).main_term - per_key_main_term(x, y, coeffs)) < 1e-12


def test_conditional_mean_given_left_factor():
    # for fixed x, averaging ct over every y must give n*(m*|A|/q - gamma*Z)
    for q, m, r, n in [(2, 3, 2, 3), (3, 2, 1, 2)]:
        ctx = field_from_order(q)
        ys = list(all_matrices(ctx, r, n))
        stream = SeedSpec(5).stream(0)
        for amask in (1, (1 << q) - 2):
            subset = SubsetA(q, amask)
            gamma = subset_bias(q, subset)
            for _ in range(5):
                x = uniform_matrix(ctx, m, r, stream)
                avg = Fraction(sum(ct(mat_mul(x, y), subset) for y in ys), len(ys))
                z = count_zero_rows(x)
                assert avg == n * (Fraction(m * subset.size, q) - gamma * z)


# --- normalised statistic ---------------------------------------------------------

def test_normalized_ct():
    ctx = make_field(2, 1)
    subset = SubsetA.from_indices(2, [1])
    assert normalized_ct(matrix(ctx, [[1, 1], [0, 0]]), subset, 1) == pytest.approx(1.0)
    assert normalized_ct(zero_matrix(ctx, 2, 2), subset, 1) == pytest.approx(-1.0)
    with pytest.raises(DegenerateSubset):
        normalized_ct(zero_matrix(ctx, 2, 2), SubsetA.full(2), 1)


# --- fast product counting ----------------------------------------------------------

def test_product_ct_matches_direct():
    rng = SeedSpec(101)
    cases = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (5, 1)]
    for idx, (q, r) in enumerate(cases):
        ctx = field_from_order(q)
        stream = rng.stream(idx)
        for amask in (1, 2, (1 << q) - 1):
            subset = SubsetA(q, amask)
            for _ in range(10):
                m = int(stream.integers(1, 6))
                n = int(stream.integers(1, 6))
                x = uniform_matrix(ctx, m, r, stream)
                y = uniform_matrix(ctx, r, n, stream)
                assert product_ct(x, y, subset) == ct(mat_mul(x, y), subset)


def test_product_ct_rank_zero():
    ctx = make_field(3, 1)
    x = zero_matrix(ctx, 2, 0)
    y = zero_matrix(ctx, 0, 3)
    assert product_ct(x, y, SubsetA.zero_only(3)) == 6  # the 0x0 product is all zeros


def test_product_ct_table_too_large():
    """Pairs with q^(2r) > 2^22, too many for a table of every pair of row and
    column patterns, are counted all the same, by either route."""
    ctx = field_from_order(8)
    assert product_ct(zero_matrix(ctx, 1, 8), zero_matrix(ctx, 8, 1), SubsetA.full(8)) == 1
    stream = SeedSpec(7).stream(0)
    for q, r, m, n in [(8, 8, 3, 4), (16, 4, 300, 280)]:  # the product, then the transform
        ctx = field_from_order(q)
        x, y = uniform_matrix(ctx, m, r, stream), uniform_matrix(ctx, r, n, stream)
        for subset in (SubsetA.from_indices(q, [1]), SubsetA.nonzero(q)):
            assert product_ct(x, y, subset) == ct(mat_mul(x, y), subset)


def test_product_ct_large_field_takes_the_product(monkeypatch):
    """At q = 2048, r = 2 the transform would take r q^(r+1), about 1.7e10,
    multiply-adds per pair: an 8 x 8 clt run counts every product instead."""
    monkeypatch.setattr(stats, "_transform_ct", None)  # any call would fail
    ctx = field_from_order(2048)
    subset = SubsetA.from_indices(2048, [1])
    start = time.perf_counter()
    report = run_clt(ctx, subset, 2, 8, 8, 100, seed=1)
    assert time.perf_counter() - start < 1.0
    x, y = draw_factor_pair(ctx, 8, 8, 2, SeedSpec(1).stream(0), "exact")
    params = MomentParams(q=2048, r=2, m=8, n=8, subset=subset)
    want = (ct(mat_mul(x, y), subset) - float(asymptotic_ct_mean(params))) / math.sqrt(
        float(asymptotic_ct_variance(params))
    )
    assert report.samples[0] == want


@pytest.mark.parametrize(
    "q, r, m, n",
    [
        (2, 2, 9, 7),  # q^r <= m: the rows are tallied too
        (2, 4, 9, 7),  # q^r > m: each pair gathers its own codes
        (4, 1, 6, 5),
        (4, 3, 6, 5),
        (9, 1, 12, 4),
        (9, 2, 12, 4),
        (16, 1, 20, 30),
        (16, 3, 20, 30),
        (256, 1, 300, 3),
        (256, 2, 5, 3),
    ],
)
def test_transform_ct_is_float32_for_p_2_and_complex_otherwise(monkeypatch, q, r, m, n):
    """The transform runs on a float32 table for p = 2 and a complex one for
    odd p, and either way gives the product counts: exactly for p = 2."""
    tables = []
    transform = stats._transform
    monkeypatch.setattr(
        stats, "_transform", lambda *args: tables.append(args[1].dtype) or transform(*args)
    )
    ctx = field_from_order(q)
    rng = np.random.default_rng(q + r)
    xs = rng.integers(0, q, (3, m, r)).astype(np.int16)
    ys = rng.integers(0, q, (3, r, n)).astype(np.int16)
    for amask in (0b10, 0b11):
        subset = SubsetA(q, amask)
        want = [ct(mat_mul(MatrixFq(ctx, x), MatrixFq(ctx, y)), subset) for x, y in zip(xs, ys)]
        values = stats._transform_ct(ctx, xs, ys, amask)
        if ctx.p == 2:
            assert values.dtype == np.float64 and values.tolist() == want
        else:
            assert np.abs(values - want).max() < 1e-6
    assert tables == [np.float32 if ctx.p == 2 else np.complex128] * 2


@pytest.mark.parametrize("q", [2, 3, 4, 16])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("pairs", [1, 3])
def test_transform_is_the_kronecker_power(q, r, pairs):
    """Each column of the (q^r, pairs) histogram is multiplied by the r-fold
    Kronecker power of the table, digit 0 least significant: exactly for
    p = 2, to 1e-9 for odd p.  Output code c = (a_0, ..., a_(r-1)) is row
    kron(table[:, a_(r-1)], ..., table[:, a_0]) of that power, built for
    every code up to q^r = 256 and for 64 random codes above."""
    ctx = field_from_order(q)
    table = character_table(ctx).add
    if ctx.p == 2:
        table = table.real.astype(np.float32)
    rng = np.random.default_rng(q * 10 + r)
    hist = rng.integers(0, 20, (q**r, pairs))
    got = stats._transform(hist, table, r)
    assert got.shape == (q**r, pairs) and got.dtype == table.dtype
    codes = np.arange(q**r) if q**r <= 256 else rng.choice(q**r, 64, replace=False)
    for code in codes.tolist():
        row = np.ones(1, dtype=np.complex128)
        for a in _decode(q, np.array(code), 1, r).ravel().tolist():
            row = np.kron(table[:, a], row)  # digit k varies with stride q^k
        want = row @ hist
        if ctx.p == 2:
            assert np.array_equal(got[code], want.real)
        else:
            assert np.abs(got[code] - want).max() < 1e-9


def test_product_codes_by_take_are_the_fancy_index():
    for q, shape in [(16, (1, 512, 4)), (3, (2000, 8, 2)), (4, (3, 0, 2))]:
        ctx = field_from_order(q)
        xs = np.random.default_rng(q).integers(0, q, shape).astype(np.int16)
        taken = np.take(ctx.mul_table, xs, axis=1)
        assert taken.dtype == ctx.mul_table.dtype
        assert np.array_equal(taken, ctx.mul_table[:, xs])


def test_transform_ct_keeps_float64_from_2_to_the_24_columns(monkeypatch):
    """2^24 + 1 zero columns: every value of the transform is 2^24 + 1, which
    float32 would round to 2^24, so the count of A = {0} is 2^24 + 1."""
    hats = []
    transform = stats._transform
    monkeypatch.setattr(stats, "_transform", lambda *a: hats.append(transform(*a)) or hats[-1])
    n = (1 << 24) + 1
    ctx = field_from_order(2)
    ys = np.zeros((1, 1, n), dtype=np.int16)
    values = stats._transform_ct(ctx, np.zeros((1, 1, 1), dtype=np.int16), ys, 0b01)
    assert hats[0].dtype == np.float64 and hats[0].tolist() == [[n], [n]]  # (q^r, pairs)
    assert values.tolist() == [n]


@pytest.mark.parametrize("q, r, pairs", [(2, 4, 3), (16, 4, 2), (16, 4, 1), (256, 2, 3), (3, 5, 2)])
def test_transform_contracts_in_blas_slabs(monkeypatch, q, r, pairs):
    """No matmul call of the transform contracts more than _BLAS_SLAB
    multiply-adds, counting every item of a batched call, and the slabs
    give the one-call-per-pass product."""
    sizes = []
    matmul = np.matmul

    def recording(a, b, out=None):
        items = math.prod(np.broadcast_shapes(a.shape[:-2], b.shape[:-2]))
        sizes.append(items * a.shape[-2] * a.shape[-1] * b.shape[-1])
        return matmul(a, b, out=out)

    ctx = field_from_order(q)
    table = character_table(ctx).add
    if ctx.p == 2:
        table = table.real.astype(np.float32)
    rng = np.random.default_rng(q * r)
    hist = rng.integers(0, 50, (q**r, pairs))
    monkeypatch.setattr(np, "matmul", recording)
    got = stats._transform(hist, table, r)
    assert sizes and max(sizes) <= stats._BLAS_SLAB
    assert sum(sizes) == r * pairs * q ** (r + 1)
    monkeypatch.setattr(stats, "_BLAS_SLAB", r * pairs * q ** (r + 1))
    sizes.clear()
    assert np.array_equal(got, stats._transform(hist, table, r))
    assert len(sizes) == r  # one call per pass


def test_product_ct_input_checks():
    gf2, gf4 = make_field(2, 1), make_field(2, 2)
    x = matrix(gf2, [[1], [1]])
    with pytest.raises(FieldMismatch):
        product_ct(x, matrix(gf4, [[1, 1, 1]]), SubsetA.from_indices(4, [1]))
    with pytest.raises(FieldMismatch):
        product_ct(x, matrix(gf2, [[1, 1, 1]]), SubsetA.from_indices(4, [1]))
    with pytest.raises(DimensionMismatch):
        product_ct(x, matrix(gf2, [[1, 1], [0, 1]]), SubsetA.from_indices(2, [1]))


# --- exact laws by enumeration -------------------------------------------------------

def test_exact_distribution_frozen_2221():
    ctx = make_field(2, 1)
    dist = exact_distribution(ctx, 2, 2, 1, SubsetA.from_indices(2, [1]))
    assert dist.method == "pairs"
    assert dist.rank_dist == {1: Fraction(4, 9), 2: Fraction(4, 9), 4: Fraction(1, 9)}
    assert dist.mean == Fraction(16, 9)
    assert dist.variance == Fraction(68, 81)
    assert dist.matrix_tv == Fraction(7, 8)
    assert dist.matrix_tv == tv_closed_form_exact(2, 2, 2, 1)
    assert dist.product_dist[0] == Fraction(7, 16)
    assert sum(dist.product_dist.values()) == 1
    assert sum(dist.rank_dist.values()) == 1


def test_exact_distribution_frozen_2222():
    ctx = make_field(2, 1)
    dist = exact_distribution(ctx, 2, 2, 2, SubsetA.from_indices(2, [1]), method="direct")
    assert dist.method == "direct"
    assert dist.rank_dist == {2: Fraction(1, 3), 3: Fraction(2, 3)}
    assert dist.mean == Fraction(8, 3)
    assert dist.variance == Fraction(2, 9)
    assert dist.product_dist is None and dist.matrix_tv is None


def test_exact_distribution_methods_agree():
    for q, m, n, r, amask in [
        (2, 2, 2, 1, 2), (2, 2, 2, 2, 2), (3, 2, 2, 1, 6), (2, 3, 2, 1, 1),
        (2, 3, 3, 0, 1), (4, 2, 2, 1, 0b0110), (2, 2, 4, 2, 2),
    ]:
        ctx = field_from_order(q)
        subset = SubsetA(q, amask)
        via_pairs = exact_distribution(ctx, m, n, r, subset, method="pairs")
        via_direct = exact_distribution(ctx, m, n, r, subset, method="direct")
        assert via_pairs.rank_dist == via_direct.rank_dist
        assert via_pairs.mean == via_direct.mean
        assert via_pairs.variance == via_direct.variance


def test_exact_distribution_rank_zero():
    ctx = make_field(2, 1)
    dist = exact_distribution(ctx, 2, 2, 0, SubsetA.zero_only(2), method="direct")
    assert dist.rank_dist == {4: Fraction(1)}  # the zero matrix: all entries are 0


def test_exact_distribution_matrix_tv_matches_closed_form():
    for q, m, n, r in [(2, 2, 3, 1), (2, 3, 3, 2), (3, 2, 2, 1)]:
        ctx = field_from_order(q)
        dist = exact_distribution(ctx, m, n, r, SubsetA.nonzero(q), method="pairs")
        assert dist.matrix_tv == tv_closed_form_exact(q, m, n, r)


@pytest.mark.parametrize("q, m, n, r, amask", [(2, 3, 3, 2, 0b10), (3, 2, 2, 1, 0b110)])
def test_exact_distribution_is_the_same_in_small_blocks(monkeypatch, q, m, n, r, amask):
    ctx, subset = field_from_order(q), SubsetA(q, amask)
    whole = {method: exact_distribution(ctx, m, n, r, subset, method) for method in ("pairs", "direct")}
    blocks = sampling._blocks
    most = {}  # entries per index -> most ranges of one `_blocks` call

    def counted(lo, hi, entries):
        ranges = list(blocks(lo, hi, entries))
        most[entries] = max(most.get(entries, 0), len(ranges))
        return iter(ranges)

    monkeypatch.setattr(stats, "_blocks", counted)
    monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", 8)
    # pairs: the rank masks of x and y, the row tables over y, the blocks of x
    loops = {"pairs": {m * r, r * n, q**r * n, q ** (r * n) * m}, "direct": {m * n}}
    for method, entries in loops.items():
        most.clear()
        assert exact_distribution(ctx, m, n, r, subset, method) == whole[method]
        assert entries <= most.keys() and all(most[k] >= 2 for k in entries)


def _exact_by_pairs_oracle(ctx, m, n, r, subset_a):
    """The per-pair route: the GF(q) product of every factor pair, its
    member count and code, and elimination on every distinct product."""
    q = ctx.q
    xs = _decode(q, np.arange(q ** (m * r), dtype=np.int64), m, r)
    ys = _decode(q, np.arange(q ** (r * n), dtype=np.int64), r, n)
    x_full = _rank_stack(ctx, xs) == r
    y_full = _rank_stack(ctx, ys) == r
    prod = _index_matmul(ctx, xs[:, None], ys)  # x, y, m, n
    cts = subset_a.member_table()[prod].sum(axis=(2, 3))
    pair_ct = np.bincount(cts.ravel(), minlength=m * n + 1)
    rank_ct = np.bincount(cts[x_full][:, y_full].ravel(), minlength=m * n + 1)
    hits = np.bincount(_encode(q, prod.reshape(len(xs), len(ys), m * n)).ravel())
    codes = np.nonzero(hits)[0]
    is_r = _rank_stack(ctx, _decode(q, codes, m, n)) == r
    pairs, n_rank = len(xs) * len(ys), int(rank_count(q, m, n, r))
    numerator = sum(abs(int(h) * n_rank - pairs) for h in hits[codes[is_r]])
    numerator += sum(int(h) * n_rank for h in hits[codes[~is_r]])
    numerator += (n_rank - int(is_r.sum())) * pairs
    rank_dist = stats._law(rank_ct)
    mean, variance = stats._moments(rank_dist)
    return stats.ExactDistribution(
        rank_dist=rank_dist,
        product_dist=stats._law(pair_ct),
        mean=mean,
        variance=variance,
        matrix_tv=Fraction(numerator, pairs * n_rank),
        method="pairs",
    )


@pytest.mark.parametrize(
    "q, m, n, r, amask",
    [
        (2, 3, 2, 0, 0b01), (2, 2, 3, 0, 0b10),  # r = 0, with and without 0 in A
        (2, 3, 2, 1, 0b01), (2, 2, 4, 2, 0b10), (2, 4, 5, 2, 0b10),
        (3, 2, 3, 1, 0b011), (3, 3, 3, 2, 0b010),
        (4, 2, 3, 1, 0b0110), (4, 3, 2, 1, 0b1001),
        (5, 2, 2, 1, 0b00110), (5, 1, 3, 1, 0b10001),
        (16, 1, 2, 1, 0b11), (16, 2, 1, 1, 1 << 15),
    ],
)
def test_exact_by_pairs_matches_per_pair_products(q, m, n, r, amask):
    ctx, subset = field_from_order(q), SubsetA(q, amask)
    expected = _exact_by_pairs_oracle(ctx, m, n, r, subset)
    assert exact_distribution(ctx, m, n, r, subset, method="pairs") == expected


@pytest.mark.parametrize("q, m, n, r", [(2, 2, 3, 1), (2, 3, 3, 2), (3, 2, 2, 1), (3, 2, 3, 2)])
def test_product_has_rank_r_iff_both_factors_do(q, m, n, r):
    ctx = field_from_order(q)
    xs = _decode(q, np.arange(q ** (m * r), dtype=np.int64), m, r)
    ys = _decode(q, np.arange(q ** (r * n), dtype=np.int64), r, n)
    x_full = _rank_stack(ctx, xs) == r
    y_full = _rank_stack(ctx, ys) == r
    prod = _index_matmul(ctx, xs[:, None], ys).reshape(-1, m, n)
    both = (x_full[:, None] & y_full[None, :]).ravel()
    assert ((_rank_stack(ctx, prod) == r) == both).all()
    assert both.any() and not both.all()


def test_direct_scan_refuses_a_wrong_rank_count(monkeypatch):
    ctx, subset = make_field(2, 1), SubsetA.from_indices(2, [1])
    count = stats.rank_count
    monkeypatch.setattr(stats, "rank_count", lambda *args: count(*args) + 1)
    with pytest.raises(RuntimeError, match="rank scan found"):
        exact_distribution(ctx, 2, 3, 1, subset, method="direct")


def test_exact_distribution_gates():
    ctx = field_from_order(4)
    with pytest.raises(TooLargeToEnumerate):
        exact_distribution(ctx, 6, 6, 2, SubsetA.nonzero(4), method="pairs")
    with pytest.raises(TooLargeToEnumerate):
        exact_distribution(ctx, 6, 6, 2, SubsetA.nonzero(4), method="direct")
    with pytest.raises(TooLargeToEnumerate):
        exact_distribution(ctx, 6, 6, 2, SubsetA.nonzero(4))
    with pytest.raises(RankOutOfRange):
        exact_distribution(ctx, 2, 2, 3, SubsetA.nonzero(4))


def test_exact_distribution_argument_errors():
    ctx = make_field(3, 1)
    with pytest.raises(FieldMismatch, match=r"subset over GF\(2\), field is GF\(3\)"):
        exact_distribution(ctx, 2, 2, 1, SubsetA.from_indices(2, [1]))
    with pytest.raises(FqrankError, match="unknown method 'bogus'"):
        exact_distribution(ctx, 2, 2, 1, SubsetA.nonzero(3), method="bogus")


def test_direct_scan_admits_any_rank_count(monkeypatch):
    # 2^22 matrices of which (2^11 - 1)(2^11 - 2) > 2^20 have rank 2: the scan
    # tallies counts block by block, so the rank count bounds no memory
    monkeypatch.setattr(stats, "_exact_by_direct_scan", lambda *args: "scanned")
    assert exact_distribution(make_field(2, 1), 2, 11, 2, SubsetA.from_indices(2, [1])) == "scanned"


# --- Monte Carlo normality reports -----------------------------------------------------

def test_run_clt_report_shape():
    ctx = make_field(2, 1)
    subset = SubsetA.from_indices(2, [1])
    report = run_clt(ctx, subset, 1, 16, 16, 200, seed=7)
    assert report.num_samples == 200
    assert len(report.samples) == 200
    assert sum(report.counts) == 200
    assert len(report.bin_edges) == 82
    assert report.ks < 0.35
    d = report.to_dict()
    assert d["N"] == 200 and d["A"] == [1] and "workers" not in d
    assert d["histogram"]["counts"] == list(report.counts)


def test_run_clt_reproducible_and_worker_invariant():
    ctx = make_field(2, 1)
    subset = SubsetA.from_indices(2, [1])
    a = run_clt(ctx, subset, 1, 8, 8, 120, seed=3)
    b = run_clt(ctx, subset, 1, 8, 8, 120, seed=3)
    c = run_clt(ctx, subset, 1, 8, 8, 120, seed=3, workers=2)
    assert a.to_dict() == b.to_dict() == c.to_dict()
    assert np.array_equal(a.samples, c.samples)
    assert run_clt(ctx, subset, 1, 8, 8, 120, seed=4).to_dict() != a.to_dict()


def _count_starts(monkeypatch) -> list:
    """Record every process start, in this process, from here on."""
    starts = []
    start = multiprocessing.process.BaseProcess.start
    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", lambda proc: starts.append(1) or start(proc)
    )
    return starts


def test_run_clt_clamps_workers(monkeypatch):
    """workers is capped at the CPUs the process may run on: with an
    affinity of one CPU no process starts, however many are asked for."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    starts = _count_starts(monkeypatch)
    ctx = make_field(2, 1)
    subset = SubsetA.from_indices(2, [1])
    one = run_clt(ctx, subset, 1, 8, 8, 120, seed=3)
    many = run_clt(ctx, subset, 1, 8, 8, 120, seed=3, workers=4)
    huge = run_clt(ctx, subset, 1, 8, 8, 120, seed=3, workers=10**6)
    assert starts == []
    assert many.to_dict() == huge.to_dict() == one.to_dict()
    assert np.array_equal(many.samples, one.samples)


def test_usable_cpus_falls_back_to_the_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert stats._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert stats._usable_cpus() == 1


@pytest.mark.parametrize("workers", [2, 3])
def test_run_clt_starts_one_process_per_extra_worker(monkeypatch, workers):
    """workers=k counts in k processes, the caller included: k - 1 starts,
    and the samples of workers=1."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    ctx = make_field(3, 1)
    subset = SubsetA.from_indices(3, [1])
    one = run_clt(ctx, subset, 2, 8, 8, 150, seed=5)
    starts = _count_starts(monkeypatch)
    many = run_clt(ctx, subset, 2, 8, 8, 150, seed=5, workers=workers)
    assert len(starts) == workers - 1
    assert many.to_dict() == one.to_dict()
    assert np.array_equal(many.samples, one.samples)
    assert multiprocessing.active_children() == []


def _failing_chunks(monkeypatch, fail):
    """Two usable CPUs, forked workers (so they see the patch), and a
    `_clt_values` that calls fail(lo) before counting its chunk."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(multiprocessing, "Process", multiprocessing.get_context("fork").Process)
    values = stats._clt_values

    def chunk(*args):
        fail(args[-2])
        return values(*args)

    monkeypatch.setattr(stats, "_clt_values", chunk)


def _run_two_workers():
    ctx = make_field(2, 1)
    return run_clt(ctx, SubsetA.from_indices(2, [1]), 1, 8, 8, 120, seed=3, workers=2)


def test_run_clt_raises_a_worker_error_with_its_type(monkeypatch):
    def fail(lo):
        if lo > 0:
            raise DegenerateSubset(f"chunk from {lo}")

    _failing_chunks(monkeypatch, fail)
    with pytest.raises(DegenerateSubset, match="chunk from 60"):
        _run_two_workers()
    assert multiprocessing.active_children() == []


def test_run_clt_worker_that_dies_silently_is_not_a_usage_error(monkeypatch):
    """A worker gone without a message is a RuntimeError, not an
    FqrankError, so the CLI exits 1 and not 2."""
    def fail(lo):
        if lo > 0:
            os._exit(3)

    _failing_chunks(monkeypatch, fail)
    with pytest.raises(RuntimeError, match="exited with code 3") as info:
        _run_two_workers()
    assert not isinstance(info.value, FqrankError)
    assert multiprocessing.active_children() == []


def test_run_clt_error_in_callers_chunk_leaves_no_worker(monkeypatch):
    def fail(lo):
        if lo == 0:
            raise DegenerateSubset("caller's chunk")
        time.sleep(30)  # still running when the caller fails

    _failing_chunks(monkeypatch, fail)
    t0 = time.perf_counter()
    with pytest.raises(DegenerateSubset, match="caller's chunk"):
        _run_two_workers()
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - t0 < 20  # terminated, not waited for


_SPAWN_SCRIPT = """
import multiprocessing, os, sys
import numpy as np
from fqrank import make_field, SubsetA, run_clt
if __name__ == "__main__":
    multiprocessing.set_start_method("spawn")
    os.sched_getaffinity = lambda pid: {0, 1}
    ctx = make_field(3, 1)
    subset = SubsetA.from_indices(3, [1])
    one = run_clt(ctx, subset, 2, 8, 8, 150, seed=5)
    two = run_clt(ctx, subset, 2, 8, 8, 150, seed=5, workers=2)
    assert multiprocessing.get_start_method() == "spawn"
    sys.stdout.write(str(np.array_equal(one.samples, two.samples) and one.to_dict() == two.to_dict()))
"""


def test_run_clt_workers_under_spawn(tmp_path):
    """Spawned workers import fqrank afresh and count the same samples."""
    script = tmp_path / "spawn_clt.py"
    script.write_text(_SPAWN_SCRIPT)
    src = str(Path(stats.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True"


@pytest.mark.parametrize(
    "q, m, n, r, mode, transform",
    [
        (2, 5, 7, 1, "exact", True),  # q^r <= m: rows tallied too
        (3, 4, 3, 2, "product", True),
        (2, 2, 2, 2, "exact", True),  # accepts 3/8 of the candidates: several rounds
        (16, 4, 3, 3, "exact", False),  # r q^(r+1) far above (2r+1) m n: one product at a time
        (16, 3, 5, 3, "product", False),
    ],
)
def test_clt_values_are_per_sample_values(monkeypatch, q, m, n, r, mode, transform):
    monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", 3 * (m + n) * r)  # blocks of 3 samples
    counted = []
    by_transform = stats._transform_ct
    monkeypatch.setattr(
        stats, "_transform_ct", lambda *args: counted.append(1) or by_transform(*args)
    )
    ctx = field_from_order(q)
    subset = SubsetA.from_indices(q, [1])
    params = MomentParams(q=q, r=r, m=m, n=n, subset=subset)
    mu = float(asymptotic_ct_mean(params))
    sigma = math.sqrt(float(asymptotic_ct_variance(params)))
    want = []
    for i in range(17):
        x, y = draw_factor_pair(ctx, m, n, r, SeedSpec(99).stream(i), mode)
        want.append((ct(mat_mul(x, y), subset) - mu) / sigma)
    want = np.array(want)
    # ranges that start and stop inside blocks, as the worker pool splits them
    for lo, hi in [(0, 17), (0, 7), (7, 16), (16, 17), (4, 5)]:
        got = stats._clt_values(ctx, subset, r, m, n, mode, 99, lo, hi)
        assert got.tobytes() == want[lo:hi].tobytes()
    assert bool(counted) == transform


def test_run_clt_product_mode():
    ctx = make_field(2, 1)
    subset = SubsetA.from_indices(2, [1])
    report = run_clt(ctx, subset, 1, 8, 8, 150, seed=1, mode="product")
    assert report.mode == "product"
    assert sum(report.counts) == 150


def test_run_clt_validation():
    ctx = make_field(2, 1)
    subset = SubsetA.from_indices(2, [1])
    with pytest.raises(ValueError):
        run_clt(ctx, subset, 1, 8, 8, 50, seed=1)
    with pytest.raises(DegenerateSubset):
        run_clt(ctx, SubsetA.full(2), 1, 8, 8, 200, seed=1)
    with pytest.raises(RankOutOfRange):
        run_clt(ctx, subset, 9, 8, 8, 200, seed=1)
    with pytest.raises(ValueError):
        run_clt(ctx, subset, 1, 8, 8, 200, seed=1, bins=0)


@pytest.mark.parametrize("r", [-1, 3])
def test_rank_range_is_one_check(r):
    ctx = make_field(3, 1)
    subset = SubsetA.from_indices(3, [1])
    rng = SeedSpec(0).stream(0)
    message = rf"^rank {r} not in \[0, 2\]$"
    with pytest.raises(RankOutOfRange, match=message):
        uniform_full_rank(ctx, 2, r, rng)
    with pytest.raises(RankOutOfRange, match=message):
        draw_factor_pair(ctx, 2, 2, r, rng, "exact")
    with pytest.raises(RankOutOfRange, match=message):
        _draw_seeded_block(ctx, 2, 2, r, 0, 0, 4, "exact")
    with pytest.raises(RankOutOfRange, match=message):
        exact_distribution(ctx, 2, 2, r, subset)
    with pytest.raises(RankOutOfRange, match=message):
        MomentParams(3, r, 2, 2, subset)


def test_subset_over_other_field_is_field_mismatch():
    ctx = make_field(3, 1)
    subset = SubsetA.from_indices(5, [1])
    with pytest.raises(FieldMismatch):
        MomentParams(3, 1, 8, 8, subset)
    with pytest.raises(FieldMismatch):
        run_clt(ctx, subset, 1, 8, 8, 200, seed=1)


# --- distribution distances ---------------------------------------------------------

def test_normal_cdf_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    for t in np.linspace(-5, 5, 41):
        assert normal_cdf(float(t)) == pytest.approx(scipy_stats.norm.cdf(t), abs=1e-12)


def test_ks_distance():
    assert ks_distance(np.array([0.0])) == pytest.approx(0.5)
    rng = np.random.default_rng(0)
    assert ks_distance(rng.normal(size=4000)) < 0.03
    assert ks_distance(rng.normal(loc=3.0, size=4000)) > 0.5
    with pytest.raises(ValueError):
        ks_distance(np.array([]))
