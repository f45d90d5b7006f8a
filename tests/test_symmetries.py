"""The laws' symmetries, for both exact methods and for the asymptotic
constants: unit scaling of A (c^-1 X is uniform whenever X is), the
Frobenius map a -> a^p (a field automorphism, so entrywise it keeps rank and
uniformity), the complement (ct_{A^c} = mn - ct_A) and the transpose
(ct_A(M) = ct_A(M^T)).  They hold in law, not sample by sample, so no clt
run is compared here."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from fqrank.counting import MomentParams, asymptotic_ct_mean, asymptotic_ct_variance
from fqrank.field import field_from_order
from fqrank.matrices import SubsetA
from fqrank.stats import exact_distribution

FEW = settings(max_examples=60, deadline=None, derandomize=True, database=None)
METHODS = st.sampled_from(["pairs", "direct"])


@st.composite
def exact_configs(draw, orders=(2, 3, 4, 5)):
    """A field, a subset (empty and full included), and a shape small enough
    for the direct scan to take a few milliseconds: q^(mn) <= 2^12."""
    q = draw(st.sampled_from(orders))
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4).filter(lambda n: q ** (m * n) <= 1 << 12))
    r = draw(st.integers(0, min(m, n)))
    return field_from_order(q), SubsetA(q, draw(st.integers(0, (1 << q) - 1))), m, n, r


def _image(ctx, subset, image):
    return SubsetA.from_indices(ctx.q, [image(a) for a in subset.members()])


def _reflect(law, total):
    return None if law is None else {total - v: p for v, p in law.items()}


@FEW
@given(exact_configs(), METHODS, st.data())
def test_exact_law_is_invariant_under_unit_scaling(config, method, data):
    ctx, subset, m, n, r = config
    c = data.draw(st.integers(1, ctx.q - 1), label="unit")
    scaled = _image(ctx, subset, lambda a: ctx.mul(c, a))
    assert exact_distribution(ctx, m, n, r, scaled, method) == exact_distribution(ctx, m, n, r, subset, method)


@FEW
@given(exact_configs(orders=(4, 8, 9)), METHODS)  # a -> a^p is the identity on GF(p)
def test_exact_law_is_invariant_under_frobenius(config, method):
    ctx, subset, m, n, r = config
    image = _image(ctx, subset, lambda a: ctx.pow(a, ctx.p))
    assert exact_distribution(ctx, m, n, r, image, method) == exact_distribution(ctx, m, n, r, subset, method)


@FEW
@given(exact_configs(), METHODS)
def test_exact_law_of_the_complement_is_reflected(config, method):
    ctx, subset, m, n, r = config
    dist = exact_distribution(ctx, m, n, r, subset, method)
    other = exact_distribution(ctx, m, n, r, subset.complement(), method)
    assert other.rank_dist == _reflect(dist.rank_dist, m * n)
    assert other.product_dist == _reflect(dist.product_dist, m * n)
    assert (other.mean, other.variance) == (m * n - dist.mean, dist.variance)
    assert other.matrix_tv == dist.matrix_tv


@FEW
@given(exact_configs(), METHODS)
def test_exact_law_is_the_same_for_the_transpose(config, method):
    ctx, subset, m, n, r = config
    assert exact_distribution(ctx, n, m, r, subset, method) == exact_distribution(ctx, m, n, r, subset, method)


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
