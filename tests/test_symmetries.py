"""The laws' symmetries, for exact_distribution (each law checked against
the scan oracle of conftest.py, or past its reach against the closed-form
mean) and for the asymptotic constants: unit
scaling of A (c^-1 X is uniform whenever X is), the Frobenius map
a -> a^p (a field automorphism, so entrywise it keeps rank and
uniformity), the complement (ct_{A^c} = mn - ct_A) and the transpose
(ct_A(M) = ct_A(M^T)).  They hold in law, not sample by sample, so no clt
run is compared here."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fqrank.counting import MomentParams, asymptotic_ct_mean, asymptotic_ct_variance, rank_count
from fqrank.field import field_from_order
from fqrank.matrices import SubsetA
from fqrank.exact import exact_distribution

FEW = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def exact_configs(draw, orders=(2, 3, 4, 5)):
    """A field, a subset (empty and full included), and a shape small enough
    for the scan oracle to take a few milliseconds: q^(mn) <= 2^12."""
    q = draw(st.sampled_from(orders))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4).filter(lambda n: q ** (m * n) <= 1 << 12))
    r = draw(st.integers(0, min(m, n)))
    return field_from_order(q), SubsetA(q, draw(st.integers(0, (1 << q) - 1))), m, n, r


def _image(ctx, subset, image):
    return SubsetA.from_indices(ctx.q, [image(a) for a in subset.members()])


def _reflect(law, total):
    return {total - v: p for v, p in law.items()}


def _checked(scan, ctx, m, n, r, subset):
    """exact_distribution's laws, once its rank law and moments match the scan's."""
    dist = exact_distribution(ctx, m, n, r, subset)
    assert (dist.rank_dist, dist.mean, dist.variance) == scan(ctx, m, n, r, subset)
    return dist


@FEW
@given(exact_configs(), st.data())
def test_exact_law_is_invariant_under_unit_scaling(scan, config, data):
    ctx, subset, m, n, r = config
    c = data.draw(st.integers(1, ctx.q - 1), label="unit")
    scaled = _image(ctx, subset, lambda a: ctx.mul(c, a))
    assert _checked(scan, ctx, m, n, r, scaled) == _checked(scan, ctx, m, n, r, subset)


@FEW
@given(exact_configs(orders=(4, 8, 9)))  # a -> a^p is the identity on GF(p)
def test_exact_law_is_invariant_under_frobenius(scan, config):
    ctx, subset, m, n, r = config
    image = _image(ctx, subset, lambda a: ctx.pow(a, ctx.p))
    assert _checked(scan, ctx, m, n, r, image) == _checked(scan, ctx, m, n, r, subset)


@FEW
@given(exact_configs())
def test_exact_law_of_the_complement_is_reflected(scan, config):
    ctx, subset, m, n, r = config
    dist = _checked(scan, ctx, m, n, r, subset)
    other = _checked(scan, ctx, m, n, r, subset.complement())
    assert other.rank_dist == _reflect(dist.rank_dist, m * n)
    assert other.product_dist == _reflect(dist.product_dist, m * n)
    assert (other.mean, other.variance) == (m * n - dist.mean, dist.variance)
    assert other.matrix_tv == dist.matrix_tv


@FEW
@given(exact_configs())
def test_exact_law_is_the_same_for_the_transpose(scan, config):
    ctx, subset, m, n, r = config
    assert _checked(scan, ctx, n, m, r, subset) == _checked(scan, ctx, m, n, r, subset)


def _closed_form_mean(q, m, n, r, subset):
    """E[ct_A] over the rank-r matrices, r >= 1: X Y is one for uniform X and Y
    of full rank r, and its entry x_i . y_j is 0 with probability
    p0 = 1 - (1 - a)(1 - b)(1 - z): x_i = 0 with a = F(m-1, r) / F(m, r),
    y_j = 0 with b likewise, and for nonzero x_i, y_j with
    z = (q^(r-1) - 1) / (q^r - 1); scaling x_i spreads the rest evenly over
    the q - 1 nonzero values."""
    a, b = (rank_count(q, k - 1, r, r) / rank_count(q, k, r, r) for k in (m, n))
    p0 = 1 - (1 - a) * (1 - b) * (1 - Fraction(q ** (r - 1) - 1, q**r - 1))
    return m * n * ((0 in subset) * p0 + (subset.size - (0 in subset)) * (1 - p0) / (q - 1))


@pytest.mark.parametrize(
    "q, m, n, r",
    [
        (2, 8, 8, 2), (2, 7, 7, 2), (2, 6, 6, 3), (2, 5, 5, 4), (3, 5, 5, 2), (4, 4, 4, 2),
        (2, 8, 7, 2), (4, 4, 3, 2),  # and two whose transpose is another shape
        # past the row-space listing's steps, admitted by the compositions'
        (2, 9, 9, 2), (2, 10, 10, 2), (2, 24, 24, 1), (3, 8, 8, 2),
        (2, 31, 31, 1),  # counts up to 2^62; at 32 x 32 the int64 check refuses
        # near the gate: 2^25.9, 2^24.1 and 2^24.7 steps, and counts up to 2^62
        (4, 6, 6, 2), (2, 8, 8, 3), (2, 7, 7, 4), (2, 16, 15, 2),
    ],
)
def test_laws_past_the_scan_have_the_closed_form_mean_and_symmetries(q, m, n, r):
    """Shapes of 2^24 matrices or more, past the scan oracle's reach."""
    ctx, subset = field_from_order(q), SubsetA(q, 0b10)
    dist = exact_distribution(ctx, m, n, r, subset)
    other = exact_distribution(ctx, m, n, r, subset.complement())
    assert dist.mean == _closed_form_mean(q, m, n, r, subset)
    assert other.mean == _closed_form_mean(q, m, n, r, subset.complement())
    assert other.rank_dist == _reflect(dist.rank_dist, m * n)
    assert other.product_dist == _reflect(dist.product_dist, m * n)
    assert (other.mean, other.variance) == (m * n - dist.mean, dist.variance)
    assert other.matrix_tv == dist.matrix_tv
    assert exact_distribution(ctx, n, m, r, subset) == dist


def test_gf2_10x10_rank_2_has_the_law_the_row_spaces_gave():
    # the mean and variance that a listing of one right factor per row space
    # gave by Moebius inversion in 6.0 s (2^32.3 steps, past the cap); the
    # product tallies take 2^20.8 steps, by compositions
    dist = exact_distribution(field_from_order(2), 10, 10, 2, SubsetA(2, 0b10))
    assert round(float(dist.mean), 4) == 37.5733
    assert round(float(dist.variance), 4) == 106.7578


@st.composite
def moment_configs(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16]))
    m, n = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    subset = SubsetA(q, draw(st.integers(0, (1 << q) - 1)))
    return field_from_order(q), MomentParams(q, draw(st.integers(0, min(m, n, 8))), m, n, subset)


def _moments(params, subset):
    other = MomentParams(params.q, params.r, params.m, params.n, subset)
    return asymptotic_ct_mean(other), asymptotic_ct_variance(other)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(moment_configs(), st.data())
def test_asymptotic_constants_obey_the_same_laws(config, data):
    ctx, params = config
    subset = params.subset
    mean, variance = _moments(params, subset)
    c = data.draw(st.integers(1, ctx.q - 1), label="unit")
    assert _moments(params, _image(ctx, subset, lambda a: ctx.mul(c, a))) == (mean, variance)
    assert _moments(params, _image(ctx, subset, lambda a: ctx.pow(a, ctx.p))) == (mean, variance)
    mn = Fraction(params.m * params.n)
    assert _moments(params, subset.complement()) == (mn - mean, variance)
