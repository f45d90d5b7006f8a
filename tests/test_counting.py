"""Exact rational counts and moment constants, checked against enumeration."""

from fractions import Fraction
from itertools import product

import pytest

from fqrank.counting import (
    MomentParams,
    RankOutOfRange,
    asymptotic_ct_mean,
    asymptotic_ct_variance,
    entry_bias,
    full_rank_pair_prob,
    full_rank_pair_prob_exact,
    rank_count,
    subset_bias,
    tv_closed_form,
    tv_closed_form_exact,
    unconstrained_moments,
)
from fqrank.field import FqrankError, field_from_order
from fqrank.matrices import FieldMismatch, SubsetA, matrix, rank


def enumerate_rank_counts(q, m, n):
    """Oracle: scan every m x n matrix and bucket by rank."""
    ctx = field_from_order(q)
    counts = [0] * (min(m, n) + 1)
    for entries in product(range(q), repeat=m * n):
        rows = [list(entries[i * n:(i + 1) * n]) for i in range(m)]
        counts[rank(matrix(ctx, rows))] += 1
    return counts


# --- rank_count ----------------------------------------------------------------

def test_rank_count_frozen_values():
    assert rank_count(2, 2, 2, 1) == 9
    assert rank_count(2, 2, 2, 2) == 6
    assert rank_count(2, 2, 2, 0) == 1
    assert rank_count(3, 2, 2, 1) == 32
    assert rank_count(2, 3, 3, 3) == 168


def test_rank_count_small_enumeration():
    for q, m, n in [(2, 1, 1), (2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2)]:
        oracle = enumerate_rank_counts(q, m, n)
        for r, want in enumerate(oracle):
            assert rank_count(q, m, n, r) == want, (q, m, n, r)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_rank_count_partitions_matrix_space(q):
    for m in range(1, 5):
        for n in range(1, 5):
            total = sum(rank_count(q, m, n, r) for r in range(min(m, n) + 1))
            assert total == q ** (m * n)


def test_rank_count_rectangular_symmetry():
    for q, m, n, r in [(2, 3, 5, 2), (3, 2, 4, 1), (4, 1, 3, 1)]:
        assert rank_count(q, m, n, r) == rank_count(q, n, m, r)


def test_rank_count_out_of_range():
    with pytest.raises(RankOutOfRange):
        rank_count(2, 2, 2, 3)
    with pytest.raises(RankOutOfRange):
        rank_count(2, 2, 2, -1)


def test_rank_count_returns_integer_fraction():
    v = rank_count(5, 4, 4, 3)
    assert isinstance(v, Fraction) and v.denominator == 1


@pytest.mark.parametrize("q", [2, 3, 4, 7, 16])
@pytest.mark.parametrize("s, t", [(1, 1), (3, 5), (6, 2), (100, 100), (100, 131), (140, 101)])
def test_rank_count_matches_the_fraction_product(q, s, t):
    """The integer products divided once equal the product of the ratios
    (q^s - q^i)(q^t - q^i) / (q^r - q^i) in Fractions, at every rank up to
    min(s, t) in steps, and stay a Fraction of denominator 1."""
    for r in sorted({0, 1, min(s, t) // 3, min(s, t) - 1, min(s, t)}):
        want = Fraction(1)
        for i in range(r):
            want *= Fraction((q**s - q**i) * (q**t - q**i), q**r - q**i)
        got = rank_count(q, s, t, r)
        assert type(got) is Fraction and got.denominator == 1
        assert got == want, (q, s, t, r)


# --- full-rank product probability ----------------------------------------------

def test_full_rank_pair_prob_matches_counting():
    for q, m, n, r in [(2, 2, 2, 1), (2, 3, 3, 2), (3, 2, 4, 2), (5, 3, 2, 2)]:
        direct = (
            rank_count(q, m, r, r) * rank_count(q, r, n, r)
            / Fraction(q) ** (r * (m + n))
        )
        assert full_rank_pair_prob_exact(q, m, n, r) == direct
        assert full_rank_pair_prob(q, m, n, r) == pytest.approx(float(direct))


def test_full_rank_pair_prob_frozen():
    # q=2, m=n=2, r=1: (1 - 2^{-2})^2 = 9/16
    assert full_rank_pair_prob_exact(2, 2, 2, 1) == Fraction(9, 16)
    # r = 2: rank_count(2,2,2,2)^2 / 2^8 = 36/256
    assert full_rank_pair_prob_exact(2, 2, 2, 2) == Fraction(9, 64)
    assert full_rank_pair_prob_exact(2, 8, 8, 1) == Fraction(255, 256) ** 2


def test_full_rank_pair_prob_r_zero_is_one():
    assert full_rank_pair_prob_exact(3, 4, 4, 0) == 1


# --- total variation closed form -------------------------------------------------

def test_tv_frozen_values():
    assert tv_closed_form_exact(2, 2, 2, 1) == Fraction(7, 8)
    assert tv_closed_form_exact(2, 8, 8, 1) == Fraction(511, 32768)
    assert tv_closed_form_exact(3, 4, 4, 0) == 0
    assert tv_closed_form(2, 2, 2, 1) == pytest.approx(0.875)


def test_tv_is_twice_failure_probability():
    for q, m, n, r in [(2, 2, 2, 1), (3, 3, 3, 2), (4, 2, 5, 2)]:
        assert tv_closed_form_exact(q, m, n, r) == 2 * (1 - full_rank_pair_prob_exact(q, m, n, r))


def test_tv_decreases_in_dimension():
    vals = [tv_closed_form_exact(2, m, m, 1) for m in range(2, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


# --- bias constants -----------------------------------------------------------------

def test_entry_bias():
    assert entry_bias(2, 1) == Fraction(1, 2)
    assert entry_bias(2, 0) == Fraction(-1, 2)
    assert entry_bias(5, 0) == Fraction(1, 5) - 1
    assert entry_bias(5, 3) == Fraction(1, 5)


def test_subset_bias():
    assert subset_bias(2, SubsetA.from_indices(2, [1])) == Fraction(1, 2)
    assert subset_bias(3, SubsetA.nonzero(3)) == Fraction(2, 3)
    assert subset_bias(3, SubsetA.zero_only(3)) == Fraction(1, 3) - 1
    assert subset_bias(4, SubsetA.full(4)) == 0
    # additivity over the member entries
    q = 5
    for mask in range(1, 1 << q):
        s = SubsetA(q, mask)
        assert subset_bias(q, s) == sum(entry_bias(q, a) for a in s.members())


def test_subset_bias_refuses_another_field():
    with pytest.raises(FieldMismatch):
        subset_bias(3, SubsetA.nonzero(2))


# --- normalizing constants for centered counts ---------------------------------------

def test_moment_params_validation():
    subset = SubsetA.from_indices(2, [1])
    MomentParams(2, 1, 2, 2, subset)
    with pytest.raises(RankOutOfRange):
        MomentParams(2, 3, 2, 2, subset)
    with pytest.raises(ValueError):
        MomentParams(3, 1, 2, 2, subset)  # subset alphabet disagrees with q


def test_asymptotic_moments_frozen():
    subset = SubsetA.from_indices(2, [1])
    params = MomentParams(2, 1, 2, 2, subset)
    assert asymptotic_ct_mean(params) == 1
    assert asymptotic_ct_variance(params) == 1

    params = MomentParams(2, 1, 3, 3, subset)
    assert asymptotic_ct_mean(params) == Fraction(9, 4)
    assert asymptotic_ct_variance(params) == Fraction(27, 8)


def test_asymptotic_moments_full_subset_degenerate():
    params = MomentParams(3, 1, 2, 2, SubsetA.full(3))
    assert asymptotic_ct_mean(params) == 4
    assert asymptotic_ct_variance(params) == 0


def test_asymptotic_mean_formula():
    for q, r, m, n in [(2, 1, 2, 3), (3, 2, 4, 2), (4, 1, 5, 5)]:
        for mask in range(1, 1 << q):
            subset = SubsetA(q, mask)
            params = MomentParams(q, r, m, n, subset)
            gamma = subset_bias(q, subset)
            want = (Fraction(subset.size, q) - gamma * Fraction(q) ** -r) * m * n
            assert asymptotic_ct_mean(params) == want
            want_var = gamma ** 2 * Fraction(q) ** -r * (1 - Fraction(q) ** -r) * (m + n) * m * n
            assert asymptotic_ct_variance(params) == want_var


# --- moments without any rank conditioning --------------------------------------------

def test_unconstrained_moments():
    mean, var = unconstrained_moments(2, SubsetA.from_indices(2, [1]), 2, 2)
    assert (mean, var) == (2, 1)
    mean, var = unconstrained_moments(3, SubsetA.nonzero(3), 2, 3)
    assert mean == 4 and var == Fraction(2, 3) * Fraction(1, 3) * 6
    mean, var = unconstrained_moments(2, SubsetA.full(2), 3, 3)
    assert (mean, var) == (9, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: rank_count(1, 2, 2, 1), "field order must be >= 2, got 1"),
        (lambda: full_rank_pair_prob_exact(1, 2, 2, 1), "field order must be >= 2, got 1"),
        (lambda: entry_bias(3, 3), r"element 3 outside range\(3\)"),
    ],
    ids=["rank-count-order-1", "pair-prob-order-1", "bias-element-past-q"],
)
def test_input_errors(call, message):
    with pytest.raises(FqrankError, match=message):
        call()
