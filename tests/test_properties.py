"""Property tests of the decomposition's batched coefficient and character-sum
routes against the per-key routes they replace."""

import numpy as np
from hypothesis import given, settings, strategies as st

from fqrank import stats
from fqrank.characters import (
    all_subsets,
    character_table,
    component_transform_from_embedded,
    jacobi_component_trivial,
    sum_indicator,
)
from fqrank.field import field_from_order
from fqrank.matrices import MatrixFq, SubsetA, ct, mat_mul
from fqrank.stats import col_char_sum, decompose_ct, row_char_sum, subset_coefficients

FIELDS = [2, 3, 4, 5, 7, 8, 9]
FEW = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def field_subset_rank(draw):
    q = draw(st.sampled_from(FIELDS))
    amask = draw(st.integers(1, (1 << q) - 2))  # nonempty and proper
    return field_from_order(q), SubsetA(q, amask), draw(st.integers(0, 3))


def matrices(ctx, rows, cols):
    entries = st.lists(st.integers(0, ctx.q - 1), min_size=rows * cols, max_size=rows * cols)
    return entries.map(lambda v: MatrixFq(ctx, np.array(v, dtype=np.int64).reshape(rows, cols)))


@st.composite
def factor_pairs(draw):
    ctx, subset_a, r = draw(field_subset_rank())
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    return draw(matrices(ctx, m, r)), draw(matrices(ctx, r, n)), subset_a


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(field_subset_rank())
def test_coefficients_match_per_tuple_route(case):
    ctx, subset_a, r = case
    table = character_table(ctx)
    indicators = {a: sum_indicator(ctx, a, r) for a in subset_a.members()}
    subsets = list(all_subsets(r))
    for (mask, chis), coeff in subset_coefficients(ctx, subset_a, r).items():
        subset = subsets[mask]
        want = 0.0 + 0.0j
        for a, f_a in indicators.items():
            if any(chis):
                want += component_transform_from_embedded(f_a, subset, chis, table)
            else:
                want += float(jacobi_component_trivial(ctx.q, a, subset.size))
        assert abs(coeff - want) < 1e-12, (mask, chis)


@FEW
@given(factor_pairs())
def test_batched_char_sums_match_per_tuple_sums(case):
    x, y, _ = case
    table = character_table(x.field)
    for subset in all_subsets(x.cols):
        xs = stats._char_sums(x.data.T, subset, table)
        ys = stats._char_sums(y.data, subset, table)
        for chis in np.ndindex(*xs.shape):
            assert abs(xs[chis] - row_char_sum(x, subset, chis, table)) < 1e-12
            assert abs(ys[chis] - col_char_sum(y, subset, chis, table)) < 1e-12


@FEW
@given(factor_pairs())
def test_decomposition_holds(case):
    x, y, subset_a = case
    dec = decompose_ct(x, y, subset_a)
    assert dec.ct_value == ct(mat_mul(x, y), subset_a)
    assert abs(dec.residual) < 1e-9
