"""Character sums, the product-count decomposition, exact laws, and CLT runs."""

from fractions import Fraction
import math
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from functools import reduce
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from fqrank.field import FqrankError, _power_at_most, _prime_factors, field_from_order, make_field
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
from fqrank.matrices import _decode, _digit_weights, _encode, _index_matmul, _rank_stack
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


@pytest.mark.parametrize(
    "q, r, a, work",
    [
        # admitted: the identity benchmark's set-up, CI's identity runs, and the
        # cap's edges (GF(211) r = 2 took 0.58 s cold, GF(983) r = 1 1.9 s)
        (16, 3, "nonzero", None),
        (64, 3, 0b10, None),
        (16, 4, "nonzero", None),
        (9, 3, 0b110, None),
        (211, 2, "nonzero", None),
        (983, 1, "nonzero", None),
        # refused: at r = 2 the build grows as about q^4 (GF(512) took 10.5 s)
        (256, 2, "nonzero", "2^35.0"),
        (512, 2, "nonzero", "2^39.0"),
        (1024, 2, "nonzero", "2^43.0"),
        (1024, 1, "nonzero", "2^34.2"),
    ],
)
def test_coefficient_arrays_cap_their_work(monkeypatch, q, r, a, work):
    """The cold coefficient build is refused, before the character table is
    built, past MAX_COEFFICIENT_WORK multiply-adds."""

    class Built(Exception):
        pass

    def build(ctx):
        raise Built

    monkeypatch.setattr(stats, "character_table", build)
    cold = stats._coefficient_arrays.__wrapped__  # past the cache other tests may have filled
    ctx = field_from_order(q)
    amask = SubsetA.nonzero(q).mask if a == "nonzero" else a
    if work is None:
        with pytest.raises(Built):
            cold(ctx, amask, r)
    else:
        with pytest.raises(TooLargeToEnumerate, match=rf"take {re.escape(work)} multiply-adds, over the cap 2\^34$"):
            cold(ctx, amask, r)


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


@pytest.mark.parametrize("slab", [stats._BLAS_SLAB, stats._BLAS_SLAB // 64])
@pytest.mark.parametrize("q, r, m, n", [(7, 2, 30, 20), (7, 3, 100, 96), (9, 2, 24, 30), (9, 3, 64, 50)])
def test_decompose_matches_per_key_route_odd_characteristic(monkeypatch, slab, q, r, m, n):
    # inexact character values; at the smaller slab every factor has a head of
    # Khatri-Rao rows, and the sums run through matmul calls
    monkeypatch.setattr(stats, "_BLAS_SLAB", slab)
    ctx = field_from_order(q)
    subset = SubsetA.nonzero(q)
    coeffs = stats.subset_coefficients(ctx, subset, r)
    stream = SeedSpec(q * r).stream(m)
    x = uniform_matrix(ctx, m, r, stream)
    y = uniform_matrix(ctx, r, n, stream)
    assert abs(decompose_ct(x, y, subset).main_term - per_key_main_term(x, y, coeffs)) < 1e-12


def test_decompose_constants_cached(monkeypatch):
    """A second decomposition at the same field, subset, r and sizes forms
    no centring constant again, and every cached array is read-only."""
    ctx, subset = field_from_order(16), SubsetA.nonzero(16)
    stream = SeedSpec(24).stream(0)
    x = uniform_matrix(ctx, 20, 3, stream)
    y = uniform_matrix(ctx, 3, 24, stream)
    calls = []
    real = stats.expected_char_sum

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stats, "expected_char_sum", counting)
    stats._row_centring.cache_clear()
    first = decompose_ct(x, y, subset)
    assert len(calls) == 2 * 2**3  # one all-trivial tuple per subset, for m and for n
    calls.clear()
    assert decompose_ct(x, y, subset) == first
    assert not calls
    cached = [
        *stats._key_order(16, 3),
        *stats._pair_free_terms(ctx, subset.mask, 3)[:2],
        stats._row_centring(16, 3, 20)[0],
        stats._row_centring(16, 3, 24)[0],
        *stats._coefficient_arrays(ctx, subset.mask, 3),
    ]
    assert not any(array.flags.writeable for array in cached)


@pytest.mark.parametrize(
    "q, amask, r, m, n",
    [
        (3, None, 2, 0, 5),
        (3, None, 2, 4, 0),
        (5, None, 2, 0, 0),
        (4, None, 0, 3, 4),
        (16, None, 4, 64, 64),  # |S| = 4: a head of 225 Khatri-Rao rows
        (64, 0b10, 3, 32, 32),  # A = {1}: 4096 head rows
        (16, None, 3, 2100, 8),  # x's calls each cover part of its 2100 rows
    ],
)
def test_decompose_edge_and_scale(q, amask, r, m, n):
    ctx = field_from_order(q)
    subset = SubsetA.nonzero(q) if amask is None else SubsetA(q, amask)
    stream = SeedSpec(23).stream(q)
    x = uniform_matrix(ctx, m, r, stream)
    y = uniform_matrix(ctx, r, n, stream)
    dec = decompose_ct(x, y, subset)
    assert dec.ct_value == ct(mat_mul(x, y), subset)
    assert abs(dec.residual) < 1e-9


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


@pytest.mark.parametrize(
    "q, r, m, pairs, route",
    [
        # clt GF(2) r = 1 256 x 256 (blocks of 256 samples) and GF(16) r = 4
        # 512 x 512 (blocks of 32): the transform even for one pair, so for
        # any block, as before the cost per call was counted
        (2, 1, 256, 1, "transform"),
        (2, 1, 256, 256, "transform"),
        (16, 4, 512, 1, "transform"),
        (16, 4, 512, 32, "transform"),
        # identity GF(16) r = 3 64 x 64 counts one pair at a time: 28,864
        # gathers' worth of transform against 28,672 product gathers per pair
        (16, 3, 64, 1, "product"),
        # one GF(2) r = 6 8 x 8 pair: 38 us by the transform, 20 us by the
        # product, on one core; a stack of 256 shares the transform's cost per call
        (2, 6, 8, 1, "product"),
        (2, 6, 8, 256, "transform"),
    ],
)
def test_product_ct_stack_route_counts_a_cost_per_call(monkeypatch, q, r, m, pairs, route):
    taken = set()
    monkeypatch.setattr(
        stats, "_transform_ct", lambda ctx, xs, ys, amask: taken.add("transform") or np.zeros(len(xs))
    )
    monkeypatch.setattr(
        stats, "_index_matmul",
        lambda ctx, xs, ys: taken.add("product") or np.zeros((len(xs), m, m), dtype=np.int16),
    )
    xs, ys = np.zeros((pairs, m, r), dtype=np.int16), np.zeros((pairs, r, m), dtype=np.int16)
    assert stats._product_ct_stack(field_from_order(q), xs, ys, 0b10).tolist() == [0] * pairs
    assert taken == {route}


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


@pytest.mark.parametrize(
    "q, r, m, n",
    [
        (2, 1, 6, 9),  # q^r <= m: both factors tallied
        (3, 2, 12, 5),
        (2, 3, 5, 6),  # q^r > m: the columns tallied, the rows gathered
        (3, 2, 4, 7),
    ],
)
def test_transform_ct_counts_every_pair_of_a_stack(q, r, m, n):
    """Many pairs in one call, each with its own histograms: every count is
    its pair's product count, on both branches."""
    ctx = field_from_order(q)
    rng = np.random.default_rng(10 * q + r)
    pairs = 11
    xs = rng.integers(0, q, (pairs, m, r)).astype(np.int16)
    ys = rng.integers(0, q, (pairs, r, n)).astype(np.int16)
    xs[3], ys[5] = 0, 0
    subset = SubsetA(q, 0b10)
    want = [ct(mat_mul(MatrixFq(ctx, x), MatrixFq(ctx, y)), subset) for x, y in zip(xs, ys)]
    values = stats._transform_ct(ctx, xs, ys, subset.mask)
    assert np.abs(values - want).max() < 1e-6


@pytest.mark.parametrize("bins", [1, 2, 7])
def test_tallies_is_a_bincount_per_row(bins):
    """The (bins, B) histograms of `_tallies` are each row's own bincount,
    with values at both ends of range(bins), for any row count."""
    values = np.random.default_rng(bins).integers(0, bins, (5, 9))
    values[0, 0], values[1, -1], values[2], values[-1] = 0, bins - 1, bins - 1, 0
    want = np.stack([np.bincount(row, minlength=bins) for row in values], axis=1)
    assert np.array_equal(stats._tallies(values, bins), want)
    assert stats._tallies(values[:0], bins).shape == (bins, 0)


@pytest.mark.parametrize("dtype", [np.int16, np.int64])
@pytest.mark.parametrize("rows", [0, 1, 3, 256])
@pytest.mark.parametrize("k", [0, 1, 2, 8, 256])
def test_two_bin_tallies_are_a_bincount_per_row(dtype, rows, k):
    """Two bins are tallied from row sums: the same int64 (2, B) histograms
    as each row's bincount, rows of all 0s and all 1s among them."""
    values = np.random.default_rng(rows * 1000 + k).integers(0, 2, (rows, k)).astype(dtype)
    values[:1], values[1:2] = 0, 1
    want = np.zeros((2, rows), dtype=np.int64)
    for j, row in enumerate(values):
        want[:, j] = np.bincount(row, minlength=2)
    got = stats._tallies(values, 2)
    assert got.dtype == np.int64 and got.shape == (2, rows)
    assert np.array_equal(got, want)


def test_two_bin_tallies_do_not_wrap_in_int16():
    values = np.ones((2, 40_000), dtype=np.int16)
    values[1, ::2] = 0
    assert stats._tallies(values, 2).tolist() == [[0, 20_000], [40_000, 20_000]]


@pytest.mark.parametrize("size", [1, 2, 7, 256])
def test_product_ct_stack_counts_gf2_rank_1_products(size):
    """GF(2) r = 1 stacks, whose row and column codes are tallied by row
    sums on the transform route, count what their formed products do, on
    whichever route the stack takes and on the transform itself."""
    ctx = make_field(2, 1)
    rng = np.random.default_rng(size)
    xs = rng.integers(0, 2, (5, size, 1)).astype(np.int16)
    ys = rng.integers(0, 2, (5, 1, size)).astype(np.int16)
    xs[0], ys[1], xs[2], ys[2] = 0, 0, 1, 1
    for amask in (0b01, 0b10, 0b11):
        want = [ct(mat_mul(MatrixFq(ctx, x), MatrixFq(ctx, y)), SubsetA(2, amask)) for x, y in zip(xs, ys)]
        assert stats._product_ct_stack(ctx, xs, ys, amask).tolist() == want
        assert stats._transform_ct(ctx, xs, ys, amask).tolist() == want


@pytest.mark.parametrize("q, r", [(2, 3), (3, 2), (16, 2)])
def test_transform_of_a_strided_histogram_is_that_of_its_contiguous_copy(q, r):
    """`_transform` writes its passes through reshapes and `out=`, which on
    a strided array would write into copies; the transposed (pairs, q^r)
    tally `_transform_ct` hands it must transform as its C-ordered copy."""
    ctx = field_from_order(q)
    table = character_table(ctx).add
    if ctx.p == 2:
        table = table.real.astype(np.float32)
    hist = np.random.default_rng(q + r).integers(0, 20, (5, q**r)).T
    assert not hist.flags.c_contiguous
    got = stats._transform(hist, table, r)
    assert np.array_equal(got, stats._transform(np.ascontiguousarray(hist), table, r))


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


@pytest.mark.parametrize(
    "q, amask, r, size",  # A = {1}, {1, 2}, {1, 3} and {1, 2}
    [(3, 0b010, 1, 4096), (5, 0b00110, 4, 1024), (7, 0b0001010, 2, 2048), (9, 0b110, 3, 1024)],
)
def test_transform_ct_keeps_its_rounding_bound(q, amask, r, size):
    """For odd p the transform's values lie within 1e-6 of the product's
    count (the bound `_product_ct_stack` states), far inside _ROUND_MARGIN."""
    ctx = field_from_order(q)
    xs, ys = _draw_seeded_block(ctx, size, size, r, 5, 0, 2, "exact")
    values = stats._transform_ct(ctx, xs, ys, amask)
    nearest = np.rint(values.real)
    assert np.abs(values - nearest).max() < 1e-6
    member = SubsetA(q, amask).member_table()
    assert nearest.tolist() == [member[_index_matmul(ctx, x, y)].sum() for x, y in zip(xs, ys)]


@pytest.mark.parametrize(
    "q, r, pairs", [(2, 4, 3), (16, 4, 2), (16, 4, 1), (256, 2, 3), (3, 5, 2), (9, 4, 3)]
)
def test_transform_contracts_in_blas_slabs(monkeypatch, q, r, pairs):
    """No matmul call of the transform contracts more than _BLAS_SLAB
    multiply-adds, counting every item of a batched call and a complex
    multiply-add (odd p) as four, and the slabs give the one-call-per-pass
    product."""
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
    cost = 1 if ctx.p == 2 else 4
    monkeypatch.setattr(np, "matmul", recording)
    got = stats._transform(hist, table, r)
    assert sizes and cost * max(sizes) <= stats._BLAS_SLAB
    assert sum(sizes) == r * pairs * q ** (r + 1)
    monkeypatch.setattr(stats, "_BLAS_SLAB", cost * r * pairs * q ** (r + 1))
    sizes.clear()
    whole = stats._transform(hist, table, r)
    if (q, r, pairs) == (9, 4, 3):
        # The last pass splits its 2187 columns; zgemm rounds 27 of the
        # 19683 outputs otherwise, by at most 5.1e-13 on entries up to 1.6e5.
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(got, whole, rtol=0, atol=eps * np.abs(whole).max())
    else:
        assert np.array_equal(got, whole)
    assert len(sizes) == r  # one call per pass


@pytest.mark.parametrize(
    "q, r, width", [(16, 3, 64), (16, 4, 20), (64, 3, 31), (17, 3, 64), (5, 4, 300), (256, 2, 300)]
)
def test_char_sums_contract_in_blas_slabs(monkeypatch, q, r, width):
    """No matmul call of the character sums holds _BLAS_SLAB / 4 complex
    multiply-adds or has one row or column, at the true slab and at a
    smaller one, and the sums of every subset are the per-tuple sums either
    way."""
    sizes = []
    matmul = np.matmul

    def recording(a, b, out=None):
        assert a.ndim == b.ndim == 2 and a.shape[0] > 1 and b.shape[1] > 1  # no zgemv
        sizes.append(a.shape[0] * a.shape[1] * b.shape[1])
        return matmul(a, b, out=out)

    table = character_table(field_from_order(q))
    entries = np.random.default_rng(q * r).integers(0, q, (r, width))
    extended = np.vstack([table.mult, np.ones(q)])  # character q-1: the coordinate is absent
    letters = "abcdef"[:r]
    want = np.einsum(
        ",".join(c + "i" for c in letters) + "->" + letters,
        *(extended[:, e] for e in entries),
    )
    monkeypatch.setattr(np, "matmul", recording)
    for slab in (stats._BLAS_SLAB, stats._BLAS_SLAB // 16):
        monkeypatch.setattr(stats, "_BLAS_SLAB", slab)
        sizes.clear()
        got = stats._char_sums(entries, table)
        assert 4 * max(sizes, default=0) < slab
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert sizes  # GF(256): two head rows of 300 entries overflow a call, which splits them


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
    assert dist.rank_dist == {1: Fraction(4, 9), 2: Fraction(4, 9), 4: Fraction(1, 9)}
    assert dist.mean == Fraction(16, 9)
    assert dist.variance == Fraction(68, 81)
    assert dist.matrix_tv == Fraction(7, 8)
    assert dist.matrix_tv == tv_closed_form_exact(2, 2, 2, 1)
    assert dist.product_dist[0] == Fraction(7, 16)
    assert sum(dist.product_dist.values()) == 1
    assert sum(dist.rank_dist.values()) == 1


def test_exact_distribution_frozen_2222(scan):
    ctx, subset = make_field(2, 1), SubsetA.from_indices(2, [1])
    dist = exact_distribution(ctx, 2, 2, 2, subset)
    assert dist.rank_dist == {2: Fraction(1, 3), 3: Fraction(2, 3)}
    assert dist.mean == Fraction(8, 3)
    assert dist.variance == Fraction(2, 9)
    assert scan(ctx, 2, 2, 2, subset) == (dist.rank_dist, dist.mean, dist.variance)
    assert dist.matrix_tv == tv_closed_form_exact(2, 2, 2, 2)


def test_exact_distribution_methods_agree(scan):
    """The pairs route's rank law and moments are the scan oracle's."""
    for q, m, n, r, amask in [
        (2, 2, 2, 1, 2), (2, 2, 2, 2, 2), (3, 2, 2, 1, 6), (2, 3, 2, 1, 1),
        (2, 3, 3, 0, 1), (4, 2, 2, 1, 0b0110), (2, 2, 4, 2, 2),
    ]:
        ctx = field_from_order(q)
        subset = SubsetA(q, amask)
        dist = exact_distribution(ctx, m, n, r, subset)
        assert (dist.rank_dist, dist.mean, dist.variance) == scan(ctx, m, n, r, subset)


def test_exact_distribution_rank_zero(scan):
    ctx, subset = make_field(2, 1), SubsetA.zero_only(2)
    dist = exact_distribution(ctx, 2, 2, 0, subset)
    assert dist.rank_dist == {4: Fraction(1)}  # the zero matrix: all entries are 0
    assert scan(ctx, 2, 2, 0, subset) == (dist.rank_dist, dist.mean, dist.variance)
    # the same law as the solve over the one product tally N_0
    assert _law_by(stats._row_space_tally, ctx, 2, 2, 0, subset) == dist


def _point(m, n, subset):
    """N_0 = R_0, the point mass of the zero matrix's count."""
    point = np.zeros(m * n + 1, dtype=np.int64)
    point[m * n * (0 in subset)] = 1
    return point


def _law_by(listing, ctx, m, n, r, subset):
    """`_exact_law` over one listing's tallies and coefficients at every
    inner dimension k = 1..r, whatever the gate would choose."""
    rows = [listing(ctx, m, n, k, subset) for k in range(1, r + 1)]
    return stats._exact_law(ctx.q, m, n, [(_point(m, n, subset), [1])] + rows)


@pytest.mark.parametrize("seed, length", [(0, 1), (1, 2), (2, 21), (3, 150), (4, 400)])
def test_exact_result_moments_are_the_fraction_sums(seed, length):
    """The integer moment sums equal the Fraction sums over the law, and the
    product law is each count over the total, for tallies whose counts reach
    2^62: their sums, and v^2 c_v, pass int64."""
    rng = np.random.default_rng(seed)
    rank_ct = rng.integers(0, 1 << 62, length, dtype=np.int64, endpoint=True)
    rank_ct[rng.random(length) < 0.3] = 0  # values never seen
    rank_ct[-1] = 1 << 62
    pair_ct = rng.permutation(rank_ct)
    got = stats._exact_result(rank_ct, pair_ct, Fraction(1, 3))
    total = sum(rank_ct.tolist())
    law = {v: Fraction(c, total) for v, c in enumerate(rank_ct.tolist()) if c}
    mean = sum((Fraction(v) * p for v, p in law.items()), Fraction(0))
    second = sum((Fraction(v) ** 2 * p for v, p in law.items()), Fraction(0))
    assert got.rank_dist == law and list(got.rank_dist) == sorted(law)
    assert got.mean == mean and got.variance == second - mean**2
    pairs = sum(pair_ct.tolist())
    assert got.product_dist == {v: Fraction(c, pairs) for v, c in enumerate(pair_ct.tolist()) if c}


def test_exact_distribution_matrix_tv_matches_closed_form():
    for q, m, n, r in [(2, 2, 3, 1), (2, 3, 3, 2), (3, 2, 2, 1)]:
        ctx = field_from_order(q)
        dist = exact_distribution(ctx, m, n, r, SubsetA.nonzero(q))
        assert dist.matrix_tv == tv_closed_form_exact(q, m, n, r)


@pytest.mark.parametrize(
    "q, m, n, r, amask, budget",  # budget: the _BLOCK_ENTRIES of the small blocks
    [
        pytest.param(2, 3, 3, 2, 0b10, 8, id="2-3-3-2-2"),
        pytest.param(3, 2, 2, 1, 0b110, 4, id="3-2-2-1-6"),
        # the listings take the y's of the transpose, 4 x 3: blocks of one y
        pytest.param(2, 3, 4, 2, 0b10, 12, id="2-3-4-2-2"),
        # one convolution of 13 counts per y: at k = 2, 7 row spaces in blocks
        # of 2, or 20 multisets of 3 column codes, each with a histogram, row
        # counts and binomials over the 4 codes (15 entries), in blocks of one
        pytest.param(2, 4, 3, 2, 0b10, 26, id="2-4-3-2-2"),
    ],
)
def test_exact_distribution_is_the_same_in_small_blocks(monkeypatch, scan, q, m, n, r, amask, budget):
    ctx, subset = field_from_order(q), SubsetA(q, amask)
    whole = exact_distribution(ctx, m, n, r, subset)
    assert (whole.rank_dist, whole.mean, whole.variance) == scan(ctx, m, n, r, subset)
    blocks = sampling._blocks
    most = {}  # end of the range -> most ranges of one `_blocks` call over it

    def counted(lo, hi, entries):
        ranges = list(blocks(lo, hi, entries))
        most[hi] = max(most.get(hi, 0), len(ranges))
        return iter(ranges)

    monkeypatch.setattr(stats, "_blocks", counted)
    monkeypatch.setattr(sampling, "_BLOCK_ENTRIES", budget)
    # each listing runs one loop per inner dimension k: over one y per row
    # space of dimension k in GF(q)^min(m, n), [min(m, n) k]_q =
    # F(min(m, n), k) / |GL_k| of them, or over the multisets of min(m, n)
    # column codes out of q^k
    row_spaces = {int(rank_count(q, min(m, n), k, k) / rank_count(q, k, k, k)) for k in range(1, r + 1)}
    compositions = {math.comb(min(m, n) + q**k - 1, q**k - 1) for k in range(1, r + 1)}
    assert _law_by(stats._row_space_tally, ctx, m, n, r, subset) == whole
    assert _law_by(stats._composition_tally, ctx, m, n, r, subset) == whole
    assert most.keys() == row_spaces | compositions and min(most.values()) >= 2


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
    return stats._exact_result(rank_ct, pair_ct, Fraction(numerator, pairs * n_rank))


@pytest.mark.parametrize(
    "q, m, n, r, amask",
    [
        (2, 3, 2, 0, 0b01), (2, 2, 3, 0, 0b10),  # r = 0, with and without 0 in A
        (2, 3, 2, 1, 0b01), (2, 2, 4, 2, 0b10), (2, 4, 5, 2, 0b10),
        (3, 2, 3, 1, 0b011), (3, 3, 3, 2, 0b010),
        (4, 2, 3, 1, 0b0110), (4, 3, 2, 1, 0b1001),
        (5, 2, 2, 1, 0b00110), (5, 1, 3, 1, 0b10001),
        (16, 1, 2, 1, 0b11), (16, 2, 1, 1, 1 << 15),
        (2, 3, 3, 3, 0b10), (3, 2, 2, 2, 0b110),  # one orbit: [r r]_q = 1
    ],
)
def test_exact_by_pairs_matches_per_pair_products(q, m, n, r, amask):
    ctx, subset = field_from_order(q), SubsetA(q, amask)
    expected = _exact_by_pairs_oracle(ctx, m, n, r, subset)
    assert exact_distribution(ctx, m, n, r, subset) == expected


def test_exact_by_pairs_without_matrices():
    # the route lists no product, yet has the per-pair oracle's laws, and its
    # matrix_tv, the closed form, is the one the oracle enumerates
    ctx, subset = field_from_order(2), SubsetA(2, 0b10)
    expected = _exact_by_pairs_oracle(ctx, 3, 3, 1, subset)
    assert expected.matrix_tv == tv_closed_form_exact(2, 3, 3, 1)
    assert exact_distribution(ctx, 3, 3, 1, subset) == expected


_ORACLE_PRODUCT_CODES = 1 << 24  # the representatives oracle enumerates matrix_tv to q^(mn) codes


def _exact_by_representatives_oracle(ctx, m, n, r, subset_a):
    """The orbit route, one y at a time: each full-rank x is rep @ G for
    exactly one orbit representative rep and one G in GL_r, and G @ y
    permutes the full-rank y's, so rep @ y over the reps and the full-rank y's
    lists each rank-r matrix once (the rank law), and its product's code is
    hit by |GL_r| full pairs (matrix_tv).  The product law sums over y the
    m-fold convolution of the histogram of y's row counts over the q^r rows.
    Past the gate of its product codes, matrix_tv is the closed form."""
    q = ctx.q
    member = subset_a.member_table()
    us = _decode(q, np.arange(q**r, dtype=np.int64), 1, r)
    ys = _decode(q, np.arange(q ** (r * n), dtype=np.int64), r, n)
    rows = _index_matmul(ctx, us, ys[:, None])[:, :, 0]  # y, u, n
    reps = _encode(q, stats._orbit_representatives(q, m, r))  # rep, m: the code of each row
    pair_ct = np.zeros(m * n + 1, dtype=np.int64)
    rank_ct = np.zeros(m * n + 1, dtype=np.int64)
    codes = []
    for y_ct, y_code in zip(member[rows].sum(axis=2), _encode(q, rows)):
        hist = np.bincount(y_ct, minlength=n + 1)
        pair_ct += reduce(np.convolve, [hist] * m, np.ones(1, dtype=np.int64))
        if (y_code[1:] != 0).all():  # y has rank r: u = 0 is code 0
            rank_ct += np.bincount(y_ct[reps].sum(axis=1), minlength=m * n + 1)
            codes.append(y_code[reps] @ _digit_weights(q**n, m))  # `_encode`'s code of rep @ y
    matrix_tv = tv_closed_form_exact(q, m, n, r)
    if q ** (m * n) <= _ORACLE_PRODUCT_CODES:
        pairs, n_rank = q ** (m * r + r * n), int(rank_count(q, m, n, r))
        hits = int(rank_count(q, r, r, r)) * np.unique(np.concatenate(codes), return_counts=True)[1]
        numerator = int(np.abs(hits * n_rank - pairs).sum())
        numerator += (n_rank - len(hits)) * pairs  # rank r but never a product
        numerator += (pairs - int(hits.sum())) * n_rank  # the pairs not both full
        matrix_tv = Fraction(numerator, pairs * n_rank)
    return stats._exact_result(rank_ct, pair_ct, matrix_tv)


@pytest.mark.parametrize(
    "q, m, n, r, amask",
    [
        (2, 3, 2, 1, 0b01), (3, 3, 3, 2, 0b010), (4, 2, 3, 1, 0b0110), (2, 3, 3, 0, 0b10),
        # past the per-pair oracle's reach: 2^24 pairs, 2^36 matrices, 2^18 representatives
        (2, 10, 2, 2, 0b10), (2, 6, 6, 2, 0b10), (2, 18, 1, 1, 0b10),
        # past the old pair gate, 2^26 pairs; and q^r > the 1 + [2 1]_q row spaces
        (2, 11, 2, 2, 0b10), (7, 2, 2, 2, 0b10), (8, 2, 2, 2, 0b10),
    ],
)
def test_exact_by_pairs_matches_orbit_representatives(q, m, n, r, amask):
    ctx, subset = field_from_order(q), SubsetA(q, amask)
    expected = _exact_by_representatives_oracle(ctx, m, n, r, subset)
    assert exact_distribution(ctx, m, n, r, subset) == expected


@pytest.mark.parametrize("q, m, r", [(2, 4, 2), (3, 3, 2), (4, 3, 1), (2, 3, 3), (2, 3, 0), (3, 0, 0)])
def test_orbit_representatives_meet_each_full_rank_matrix_once(q, m, r):
    ctx = field_from_order(q)
    reps = stats._orbit_representatives(q, m, r)
    gl = int(rank_count(q, r, r, r))
    assert len(reps) * gl == rank_count(q, m, r, r)  # [m r]_q representatives
    assert reps.shape[1:] == (m, r) and (_rank_stack(ctx, reps) == r).all()
    gs = _decode(q, np.arange(q ** (r * r), dtype=np.int64), r, r)
    gs = gs[_rank_stack(ctx, gs) == r]
    xs = _decode(q, np.arange(q ** (m * r), dtype=np.int64), m, r)
    full = np.arange(len(xs))[_rank_stack(ctx, xs) == r]  # sorted, distinct codes
    products = _index_matmul(ctx, reps[:, None], gs)
    products = _encode(q, products.reshape(len(reps) * len(gs), m * r))
    assert np.array_equal(np.sort(products), full)  # every full-rank x as rep @ G, once


def test_exact_by_pairs_memory_is_bounded_by_its_blocks():
    # 2^18 or 2^22 rank-1 matrices, either way round: the pass lists the y's
    # of the shape with one column, and only the tallies span its blocks
    ctx, subset = make_field(2, 1), SubsetA.from_indices(2, [1])
    for m, n in [(1, 18), (18, 1), (1, 22), (22, 1)]:
        tracemalloc.start()
        try:
            exact_distribution(ctx, m, n, 1, subset)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25 << 20, f"{m} x {n}: traced peak {peak / 2**20:.1f} MiB"


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


def test_pairs_refuses_a_wrong_subspace_tally(monkeypatch):
    # GF(2) 2 x 3 r=1, run as 3 x 2: 21 rank-1 matrices; 2^5 pairs of factors,
    # 11 + 21 of them by c(1, j), and [2 1]_2 2^3 = 24 of an x and a row
    # space, 3 + 21 by [2-j 1-j]_2
    ctx, subset = make_field(2, 1), SubsetA.from_indices(2, [1])
    count = stats.rank_count
    # a wrong rank count: the tally's total disagrees, whichever listing runs
    monkeypatch.setattr(stats, "rank_count", lambda q, s, t, r: count(q, s, t, r) + ((s, t, r) == (2, 3, 1)))
    for listing, pairs in [(stats._row_space_tally, 24), (stats._composition_tally, 32)]:
        with pytest.raises(RuntimeError, match=f"the tally at k = 1 holds {pairs} pairs, formulas say {pairs + 1}$"):
            _law_by(listing, ctx, 2, 3, 1, subset)
    monkeypatch.setattr(stats, "rank_count", count)
    # a wrong [n k]_q total: one row space listed twice adds the 2^3 x's
    # of its y, and the solve puts the 7 rank-1 products and the zero matrix
    # among the rank-1 matrices
    reps = stats._orbit_representatives
    monkeypatch.setattr(stats, "_orbit_representatives", lambda q, m, r: np.concatenate([reps(q, m, r)[:1], reps(q, m, r)]))
    with pytest.raises(RuntimeError, match="the tally at k = 1 holds 32 pairs, formulas say 24$"):
        _law_by(stats._row_space_tally, ctx, 2, 3, 1, subset)


def test_compositions_refuse_a_wrong_multinomial(monkeypatch):
    # GF(2) 3 x 3 r=2: C(3, 1) read as 4 weighs the composition (2, 1) of the
    # 3 columns over q^1 = 2 codes at 4 Y's, not 3, so k = 1 counts 8 pairs too many
    pascal = stats._pascal

    def wrong(n):
        table = pascal(n)
        table[3, 1] += 1
        return table

    monkeypatch.setattr(stats, "_pascal", wrong)
    with pytest.raises(RuntimeError, match="the tally at k = 1 holds 72 pairs, formulas say 64$"):
        _law_by(stats._composition_tally, field_from_order(2), 3, 3, 2, SubsetA(2, 0b10))


@pytest.mark.parametrize("n", [0, 1, 5, 62])
def test_pascal_holds_the_binomials(n):
    assert stats._pascal(n).tolist() == [[math.comb(s, h) for h in range(n + 1)] for s in range(n + 1)]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_factor_pairs_count_every_pair_once(q):
    """Over the ranks j <= k, the c(k, j) pairs of each rank-j product add up
    to every pair, and c(k, k) = |GL_k(q)|."""
    for m, n in product(range(1, 6), repeat=2):
        for k in range(min(m, n) + 1):
            pairs = sum(stats._factor_pairs(q, m, n, k, j) * rank_count(q, m, n, j) for j in range(k + 1))
            assert pairs == q ** (m * k + k * n), (q, m, n, k)
            assert stats._factor_pairs(q, m, n, k, k) == rank_count(q, k, k, k)


@pytest.mark.parametrize("q, m, n", [(2, 2, 3), (3, 2, 2)])
def test_factor_pairs_are_the_pairs_of_each_product(q, m, n):
    # every pair of an m x k and a k x n factor, tallied by its product's
    # code: each m x n matrix of rank j <= k is the product of c(k, j) pairs
    ctx = field_from_order(q)
    ranks = _rank_stack(ctx, _decode(q, np.arange(q ** (m * n), dtype=np.int64), m, n))
    for k in range(min(m, n) + 1):
        xs = _decode(q, np.arange(q ** (m * k), dtype=np.int64), m, k)
        ys = _decode(q, np.arange(q ** (k * n), dtype=np.int64), k, n)
        prod = _index_matmul(ctx, xs[:, None], ys).reshape(-1, m * n)
        hits = np.bincount(_encode(q, prod), minlength=q ** (m * n))
        assert hits.tolist() == [stats._factor_pairs(q, m, n, k, j) if j <= k else 0 for j in ranks.tolist()]


@pytest.mark.parametrize("k, j", [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_solve_refuses_a_wrong_factor_count(monkeypatch, k, j):
    # GF(2) 4 x 5 r=2, by compositions at k = 1 and 2, with one c(k, j) off by one
    count = stats._factor_pairs
    monkeypatch.setattr(stats, "_factor_pairs", lambda *args: count(*args) + (args[3:] == (k, j)))
    with pytest.raises(RuntimeError, match=f"the rank-{k} tally leaves a remainder or a negative count"):
        exact_distribution(field_from_order(2), 4, 5, 2, SubsetA(2, 0b10))


@pytest.mark.parametrize("j, pairs", [(0, 4097), (1, 4145), (2, 4390)])
def test_product_law_refuses_a_wrong_factor_count(monkeypatch, j, pairs):
    # GF(2) 3 x 3 r=2 runs row spaces at k = 2, so N_2 = sum_j c(2, j) R_j
    # comes from the solve: c(2, j) off by one adds R_j's rank_count(2, 3, 3, j)
    # matrices to its 2^12 pairs
    count = stats._factor_pairs
    monkeypatch.setattr(stats, "_factor_pairs", lambda *args: count(*args) + (args[3:] == (2, j)))
    with pytest.raises(RuntimeError, match=f"N_2 from the rank tallies holds {pairs} pairs, formulas say 4096$"):
        exact_distribution(field_from_order(2), 3, 3, 2, SubsetA(2, 0b10))


@pytest.mark.parametrize("k, j", [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)])
def test_solve_refuses_a_wrong_gaussian_coefficient(monkeypatch, k, j):
    # GF(2) 3 x 3 r=2 by row spaces at k = 1 and 2, with one [3-j k-j]_2 off by one
    listing = stats._row_space_tally

    def wrong(ctx, m, n, at, subset):
        tally, coefficients = listing(ctx, m, n, at, subset)
        return tally, [a + ((at, i) == (k, j)) for i, a in enumerate(coefficients)]

    with pytest.raises(RuntimeError, match=f"the rank-{k} tally leaves a remainder or a negative count|"
                                           f"the tally at k = {k} holds"):
        _law_by(wrong, field_from_order(2), 3, 3, 2, SubsetA(2, 0b10))


@pytest.mark.parametrize(
    "q, m, n, r",
    [
        (2, 4, 5, 2), (2, 8, 8, 2), (2, 4, 4, 2), (2, 6, 6, 3), (2, 12, 12, 1),
        (2, 5, 5, 4), (2, 3, 3, 0), (3, 5, 5, 2), (4, 4, 4, 2),
    ],
)
@pytest.mark.parametrize("amask", [0b10, 0b11])
def test_listings_agree(q, m, n, r, amask):
    _listings_agree(q, m, n, r, amask)


def _listings_agree(q, m, n, r, amask):
    """Both listings give the same rank tally R_k at every inner dimension
    k <= r, each by the triangular solve over its own tallies and
    coefficients; the N_k rebuilt from the row spaces' R_j is the
    compositions' N_k; and so both give the same laws."""
    ctx, subset = field_from_order(q), SubsetA(q, amask)
    listings = (stats._row_space_tally, stats._composition_tally)
    ranks = {listing: [_point(m, n, subset)] for listing in listings}
    for k in range(1, r + 1):
        for listing, below in ranks.items():
            tally, coefficients = listing(ctx, m, n, k, subset)
            rest = tally - sum(a * rank for a, rank in zip(coefficients, below))
            assert not (rest % coefficients[k]).any(), (listing.__name__, k)
            below.append(rest // coefficients[k])
        rows, compositions = ranks.values()
        assert np.array_equal(rows[k], compositions[k]), k
        rebuilt = sum(stats._factor_pairs(q, m, n, k, j) * rows[j] for j in range(k + 1))
        assert np.array_equal(rebuilt, tally), k  # tally: the compositions' N_k
    rows = _law_by(stats._row_space_tally, ctx, m, n, r, subset)
    assert _law_by(stats._composition_tally, ctx, m, n, r, subset) == rows


def _steps_by_both(q, m, n, r):
    """The steps of running both listings at every k <= r."""
    return sum(stats._row_space_steps(q, m, n, k) + stats._composition_steps(q, m, n, k) for k in range(1, r + 1))


@st.composite
def listing_configs(draw):
    """q <= 4, m, n <= 5, any rank and entry subset (0 in A and r = 0
    included), where both listings take at most 2^20 steps."""
    q = draw(st.sampled_from([2, 3, 4]))
    m, n = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    ranks = [r for r in range(min(m, n) + 1) if _steps_by_both(q, m, n, r) <= 1 << 20]
    return q, m, n, draw(st.sampled_from(ranks)), draw(st.integers(0, (1 << q) - 1))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(listing_configs())
def test_listings_agree_on_random_configs(config):
    _listings_agree(*config)


def test_exact_distribution_gates():
    ctx = field_from_order(4)
    # 2.0e5 steps at k = 1 and 3.2e8 at k = 2, by compositions (row spaces
    # take 9.0e6 and 2.6e9): the message names the sum, as a power of two,
    # not the count
    with pytest.raises(TooLargeToEnumerate, match=r"takes 2\^28\.3 steps, over the cap 2\^28$"):
        exact_distribution(ctx, 7, 7, 2, SubsetA.nonzero(4))
    with pytest.raises(RankOutOfRange):
        exact_distribution(ctx, 2, 2, 3, SubsetA.nonzero(4))


@pytest.mark.parametrize(
    "q, m, n, k, steps",
    [
        (2, 12, 12, 1, 50_565_060), (2, 8, 8, 2, 29_103_320), (2, 9, 9, 2, 181_384_560),
        (4, 6, 6, 2, 94_954_860), (4096, 4, 2, 1, 33_857_608),
    ],
)
def test_row_space_steps_count_the_work_of_the_listing(q, m, n, k, steps):
    # at 8 x 8 k = 2: [8 2]_2 = 10,795 right factors, each of 4 u's and 8
    # columns and one convolution column of sum_(i <= 8) (8i + 1) 9 steps
    assert stats._row_space_steps(q, m, n, k) == stats._row_space_steps(q, n, m, k) == steps
    if (q, m, n, k) == (2, 8, 8, 2):
        assert steps == 10_795 * (4 * 8 + sum((8 * i + 1) * 9 for i in range(1, 9)))


@pytest.mark.parametrize(
    "q, m, n, k, steps",
    [(2, 4, 5, 2, 11_935), (2, 8, 8, 2, 442_200), (2, 12, 12, 1, 160_264), (4, 6, 6, 2, 64_031_520)],
)
def test_composition_steps_count_the_work_of_the_listing(q, m, n, k, steps):
    # at 4 x 5 k = 2: 35 compositions of 4 into 4 codes, each with 4 x 4 row
    # products and one convolution column of sum_(i <= 5) (4i + 1) 5 steps
    assert stats._composition_steps(q, m, n, k) == stats._composition_steps(q, n, m, k) == steps
    if (q, m, n, k) == (2, 4, 5, 2):
        assert steps == 35 * (16 + sum((4 * i + 1) * 5 for i in range(1, 6)))


@pytest.mark.parametrize(
    "q, m, n, r, listing",  # listing: the one run at k = r
    [
        (2, 4, 5, 2, "compositions"), (2, 8, 8, 2, "compositions"), (2, 12, 12, 1, "compositions"),
        (2, 5, 5, 4, "row spaces"), (4, 4, 4, 2, "row spaces"), (16, 3, 3, 2, "row spaces"),
        # near ties at k = r, where row spaces count fewer steps: GF(2) 6 x 6,
        # 1,355,940 against 1,695,408, and GF(3) 5 x 5, 635,250 against
        # 722,007; GF(2) 4 x 5, the first case, is an exact tie at k = 2, 35
        # row spaces and 35 compositions of 16 row products each
        (2, 6, 6, 3, "row spaces"), (3, 5, 5, 2, "row spaces"),
        # 2.8M compositions at GF(16), 8.4M at GF(4096): none is built
        (4096, 3, 2, 1, "row spaces"),
    ],
)
def test_exact_distribution_runs_the_listing_of_fewer_steps(monkeypatch, q, m, n, r, listing):
    runs = []
    monkeypatch.setattr(stats, "_row_space_tally", lambda ctx, m, n, k, subset: runs.append(("row spaces", k)))
    monkeypatch.setattr(stats, "_composition_tally", lambda ctx, m, n, k, subset: runs.append(("compositions", k)))
    monkeypatch.setattr(stats, "_exact_law", lambda *args: "law")
    assert exact_distribution(SimpleNamespace(q=q), m, n, r, SubsetA(q, 0b10)) == "law"
    assert [k for _, k in runs] == list(range(1, r + 1)) and runs[-1][0] == listing
    for name, k in runs:
        rows, compositions = stats._row_space_steps(q, m, n, k), stats._composition_steps(q, m, n, k)
        assert name == ("row spaces" if rows < compositions else "compositions"), k


def test_exact_distribution_rank_zero_is_a_point_mass_at_any_size():
    # one rank-0 matrix and one product, the zero matrix: no tally of
    # 160,001 counts is formed
    start = time.perf_counter()
    dist = exact_distribution(field_from_order(2), 400, 400, 0, SubsetA.zero_only(2))
    assert time.perf_counter() - start < 1.0
    assert dist.rank_dist == dist.product_dist == {160_000: Fraction(1)}
    assert (dist.mean, dist.variance, dist.matrix_tv) == (160_000, 0, 0)
    assert exact_distribution(field_from_order(3), 5, 7, 0, SubsetA(3, 0b110)).rank_dist == {0: Fraction(1)}


def test_exact_distribution_checks_int64_before_the_steps(monkeypatch):
    # 3.4e7 steps, but counts up to 4096^6 = 2^72
    monkeypatch.setattr(stats, "MAX_EXACT_STEPS", 1 << 62)
    with pytest.raises(TooLargeToEnumerate, match=r"= 4096\^6 overflow int64$"):
        exact_distribution(field_from_order(4096), 4, 2, 1, SubsetA(4096, 0b10))


def test_exact_gate_admits_every_shape_the_pair_and_matrix_gates_did(monkeypatch):
    """Every q <= 4096, m, n <= 24 and r >= 1 with q^(mr+rn) <= 2^24 pairs or
    q^(mn) <= 2^22 matrices, the two gates the route once had, passes the
    int64 check and the step cap: the tallies and the solve are stubbed, so
    only the gate runs."""
    monkeypatch.setattr(stats, "_row_space_tally", lambda *args: None)
    monkeypatch.setattr(stats, "_composition_tally", lambda *args: None)
    monkeypatch.setattr(stats, "_exact_law", lambda *args: "admitted")
    shapes = 0
    for q in [q for q in range(2, 4097) if len(_prime_factors(q)) == 1]:  # the prime powers
        ctx, subset = SimpleNamespace(q=q), SubsetA(q, 0b10)  # the gate reads only the order
        for r, n in product(range(1, 25), repeat=2):
            # both powers grow with m, so the m's admitted run from n up to a first refusal
            for m in range(n, 25) if r <= n else ():
                if not (_power_at_most(q, m * n, 1 << 22) or _power_at_most(q, m * r + r * n, 1 << 24)):
                    break
                assert exact_distribution(ctx, m, n, r, subset) == "admitted", (q, m, n, r)
                assert exact_distribution(ctx, n, m, r, subset) == "admitted", (q, n, m, r)
                shapes += 1
    assert shapes > 1000


def test_exact_distribution_argument_errors():
    ctx = make_field(3, 1)
    with pytest.raises(FieldMismatch, match=r"subset over GF\(2\), field is GF\(3\)"):
        exact_distribution(ctx, 2, 2, 1, SubsetA.from_indices(2, [1]))


@pytest.mark.parametrize(
    "q, m, n, r",
    [
        # q^(mr+rn) over 2^24 factor pairs, q^(mn) within the scan's reach of 2^22 matrices
        (2, 2, 11, 2), (2, 4, 5, 3), (2, 4, 5, 4), (2, 3, 7, 3), (4, 3, 3, 3), (3, 3, 4, 3),
        # 2 x 8, 2 x 11 and 1 x 18 list the row spaces of their transposes, 4 x 4 r = 3
        # solves through three inner dimensions, and GF(8) and GF(9) add in
        # characteristic 2 and by the flat gather of the add table over fields
        # that are not prime
        (2, 4, 5, 2), (2, 4, 4, 3), (2, 2, 8, 2), (2, 1, 18, 1),
        (3, 3, 3, 2), (4, 2, 3, 2), (5, 3, 2, 2), (8, 2, 3, 2), (9, 2, 3, 2),
    ],
)
def test_auto_takes_pairs_wherever_the_scan_could_run(scan, q, m, n, r):
    ctx, subset = field_from_order(q), SubsetA(q, 0b10)
    law = scan(ctx, m, n, r, subset)
    for shape in {(m, n), (n, m)}:  # 2 x 11 and 11 x 2; the scan's law is the same
        dist = exact_distribution(ctx, *shape, r, subset)
        assert (dist.rank_dist, dist.mean, dist.variance) == law
        assert dist.matrix_tv == tv_closed_form_exact(q, *shape, r)
    # each listing on its own at every k, whichever the gate would choose
    for listing in (stats._row_space_tally, stats._composition_tally):
        assert _law_by(listing, ctx, m, n, r, subset) == dist


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


def test_run_clt_with_one_worker_starts_no_process(monkeypatch):
    """With one worker and many CPUs the caller counts every sample itself:
    no chunk is left for a process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    starts = _count_starts(monkeypatch)
    ctx = make_field(2, 1)
    subset = SubsetA.from_indices(2, [1])
    report = run_clt(ctx, subset, 1, 8, 8, 120, seed=3, workers=1)
    assert starts == []
    want = stats._clt_values(ctx, subset, 1, 8, 8, "exact", 3, 0, 120)
    assert np.array_equal(report.samples, want)


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
    # blocks this small would all take the product by the transform's cost
    # per call: with it off, each block takes the route its work per pair gives
    monkeypatch.setattr(stats, "_TRANSFORM_CALL", 0)
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


# fixed before any run of the test was seen; the test holds for this one seed
_CLT_AGAINST_EXACT_SEED = 2307


@pytest.mark.parametrize(
    "q, m, n, r, mode, by_transform, worker_counts",
    [
        pytest.param(2, 8, 8, 2, "exact", 20_000, [1], id="gf2-8x8"),
        pytest.param(2, 10, 10, 2, "exact", 20_000, [1], id="gf2-10x10"),
        # odd p: blocks of 6553 pairs go by the transform, the last 341 by the product
        pytest.param(3, 5, 5, 2, "exact", 19_659, [1, 2], id="gf3-5x5"),
        pytest.param(16, 3, 3, 2, "exact", 0, [1], id="gf16-3x3"),
        # a pair's factors are both invertible with probability 9/64: most streams are redrawn
        pytest.param(2, 2, 2, 2, "exact", 0, [1, 2], id="gf2-2x2"),
        pytest.param(2, 8, 8, 2, "product", 20_000, [1], id="gf2-8x8-product"),
        # the rank and product laws lie 0.51 apart here, but 0.0103 at 8 x 8, inside the band
        pytest.param(2, 2, 2, 2, "product", 0, [1], id="gf2-2x2-product"),
    ],
)
def test_clt_samples_follow_the_exact_law(monkeypatch, q, m, n, r, mode, by_transform, worker_counts):
    """`run_clt`'s 20,000 counts, the normalisation undone, lie within the
    Dvoretzky-Kiefer-Wolfowitz band (Massart's constant) at alpha = 1e-6 of
    `exact_distribution`'s law: rank_dist in exact mode, product_dist in
    product mode.  The band is sqrt(ln(2 / alpha) / (2 N)) = 0.0190, with
    no slack added, so a correct pipeline fails it with probability at most
    1e-6 per run."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    samples, alpha = 20_000, 1e-6
    band = math.sqrt(math.log(2 / alpha) / (2 * samples))
    ctx, subset = field_from_order(q), SubsetA.from_indices(q, [1])
    dist = exact_distribution(ctx, m, n, r, subset)
    law = dist.rank_dist if mode == "exact" else dist.product_dist
    cdf = np.cumsum([float(law.get(v, 0)) for v in range(m * n + 1)])
    mu, sigma = stats._normalization(q, subset, r, m, n)
    counted = []
    transform = stats._transform_ct
    monkeypatch.setattr(stats, "_transform_ct", lambda *args: counted.append(len(args[1])) or transform(*args))
    for workers in worker_counts:
        values = run_clt(ctx, subset, r, m, n, samples, seed=_CLT_AGAINST_EXACT_SEED, mode=mode,
                         workers=workers).samples
        cts = np.rint(values * sigma + mu)
        assert np.abs(values * sigma + mu - cts).max() < 1e-6
        seen = np.cumsum(np.bincount(cts.astype(np.int64), minlength=m * n + 1)) / samples
        assert np.abs(seen - cdf).max() <= band, workers
        if workers == 1:  # the counting routes of the caller's chunk: all of it
            assert sum(counted) == by_transform
    assert multiprocessing.active_children() == []


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
