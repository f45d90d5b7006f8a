"""Property tests of the decomposition's batched coefficient and character-sum
routes against the per-key routes they replace, of the stacked product, code
and rank kernels the enumerations share with mat_mul and rank, of both
routes of the product count against the product, of the block ranges every
bounded stack loop iterates, and of the worker-count invariance of run_clt."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fqrank import sampling, stats
from fqrank.counting import rank_count
from fqrank.characters import (
    all_subsets,
    character_table,
    component_transform_from_embedded,
    jacobi_component_trivial,
    sum_indicator,
)
from fqrank.field import field_from_order
from fqrank.matrices import (
    MatrixFq,
    SubsetA,
    _decode,
    _index_matmul,
    _rank_stack,
    ct,
    mat_mul,
    rank,
)
from fqrank.stats import (
    col_char_sum,
    decompose_ct,
    product_ct,
    row_char_sum,
    run_clt,
    subset_coefficients,
)

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


@st.composite
def stacked_factors(draw):
    """Stacks a (s, 1, m, k) and b (t, k, n): the product broadcasts to (s, t, m, n)."""
    ctx = field_from_order(draw(st.sampled_from(FIELDS)))
    s, t, m, k, n = (draw(st.integers(lo, 3)) for lo in (1, 1, 0, 0, 0))
    entries = st.integers(0, ctx.q - 1)
    a = draw(st.lists(entries, min_size=s * m * k, max_size=s * m * k))
    b = draw(st.lists(entries, min_size=t * k * n, max_size=t * k * n))
    shape_a, shape_b = (s, 1, m, k), (t, k, n)
    return ctx, np.array(a, np.int16).reshape(shape_a), np.array(b, np.int16).reshape(shape_b)


@FEW
@given(stacked_factors())
def test_stacked_product_is_mat_mul_per_matrix(case):
    ctx, a, b = case
    out = _index_matmul(ctx, a, b)
    assert out.shape == (a.shape[0], b.shape[0], a.shape[2], b.shape[2])
    for i, j in np.ndindex(*out.shape[:2]):
        want = mat_mul(MatrixFq(ctx, a[i, 0]), MatrixFq(ctx, b[j]))
        assert np.array_equal(out[i, j], want.data)


@FEW
@given(st.sampled_from(FIELDS), st.integers(0, 3), st.integers(0, 3), st.data())
def test_decode_inverts_little_endian_row_major_codes(q, rows, cols, data):
    width = rows * cols
    digits = data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=width, max_size=width), min_size=1, max_size=5
    ))
    digits = np.array(digits, dtype=np.int64).reshape(len(digits), width)
    codes = digits @ q ** np.arange(width, dtype=np.int64)
    stack = _decode(q, codes, rows, cols)
    assert stack.dtype == np.int16
    assert np.array_equal(stack, digits.reshape(len(digits), rows, cols))


@st.composite
def wide_factor_pairs(draw):
    ctx, subset_a, r = draw(field_subset_rank())
    m, n = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return draw(matrices(ctx, m, r)), draw(matrices(ctx, r, n)), subset_a


@FEW
@given(wide_factor_pairs())
def test_product_ct_counts_the_product(case):
    x, y, subset_a = case
    assert product_ct(x, y, subset_a) == ct(mat_mul(x, y), subset_a)


@st.composite
def counting_stacks(draw):
    """Stacks of 1 to 3 pairs over q <= 9 or q = 16, r <= 4 (0 included) and
    m, n <= 40 (0 included): q^r <= m, where the rows are tallied, and
    q^r > m both occur."""
    q = draw(st.sampled_from(FIELDS + [16]))
    pairs, r = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    m, n = draw(st.integers(0, 40)), draw(st.integers(0, 40))
    amask = draw(st.integers(1, (1 << q) - 2))
    return counting_stack(q, pairs, m, r, n, amask, draw(st.integers(0, 2**32 - 1)))


def counting_stack(q, pairs, m, r, n, amask, seed):
    rng = np.random.default_rng(seed)
    xs = rng.integers(0, q, (pairs, m, r)).astype(np.int16)
    ys = rng.integers(0, q, (pairs, r, n)).astype(np.int16)
    return field_from_order(q), xs, ys, amask


def products_counted(ctx, xs, ys, amask):
    subset_a = SubsetA(ctx.q, amask)
    return [ct(mat_mul(MatrixFq(ctx, x), MatrixFq(ctx, y)), subset_a) for x, y in zip(xs, ys)]


@FEW
@given(counting_stacks())
@example(counting_stack(16, 2, 40, 4, 40, 0b110, 1))
@example(counting_stack(9, 3, 40, 1, 40, 0b1011, 2))
@example(counting_stack(5, 1, 0, 3, 7, 0b10, 3))
def test_product_ct_stack_counts_every_product(case):
    """Both routes count exactly, whichever the stack takes, and the
    transform stays within 1e-6 of the count (exactly on it for p = 2)."""
    ctx, xs, ys, amask = case
    want = products_counted(ctx, xs, ys, amask)
    assert stats._product_ct_stack(ctx, xs, ys, amask).tolist() == want
    assert product_ct(MatrixFq(ctx, xs[0]), MatrixFq(ctx, ys[0]), SubsetA(ctx.q, amask)) == want[0]
    values = stats._transform_ct(ctx, xs, ys, amask)
    if ctx.p == 2:
        assert values.tolist() == want
    else:
        assert np.abs(values - want).max() < 1e-6


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(counting_stacks())
def test_refused_rounding_counts_by_the_product(case):
    """With no rounding margin every transform value is refused, and each
    pair is counted by its product instead, multiplied exactly once."""
    ctx, xs, ys, amask = case
    products = []  # pairs per _index_matmul call
    index_matmul = stats._index_matmul
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "_ROUND_MARGIN", 0.0)
        patch.setattr(
            stats, "_index_matmul", lambda *a: products.append(len(a[1])) or index_matmul(*a)
        )
        got = stats._product_ct_stack(ctx, xs, ys, amask).tolist()
    assert got == products_counted(ctx, xs, ys, amask)
    assert sum(products) == len(xs)


@pytest.mark.parametrize("q, m, r, n", [(3, 4, 2, 5), (16, 3, 1, 6), (4, 5, 3, 2), (2, 3, 0, 4)])
def test_product_fallback_counts_in_blocks(q, m, r, n):
    """With room for two products per block, the product route counts a
    stack of seven pairs in four blocks, each pair as by itself."""
    ctx, xs, ys, amask = counting_stack(q, 7, m, r, n, 0b10, 5)
    blocks = []
    index_matmul = stats._index_matmul
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stats, "_ROUND_MARGIN", 0.0)
        patch.setattr(sampling, "_BLOCK_ENTRIES", 2 * m * n)
        patch.setattr(
            stats, "_index_matmul", lambda *a: blocks.append(len(a[1])) or index_matmul(*a)
        )
        got = stats._product_ct_stack(ctx, xs, ys, amask).tolist()
    assert got == products_counted(ctx, xs, ys, amask)
    assert blocks == [2, 2, 2, 1]


@st.composite
def rank_stacks(draw):
    """Stacks of 2 to 6 matrices (one matrix goes through rank itself) with
    dimensions 0 to 8, sparse or rank-deficient by construction: entries are
    zero with a drawn probability, and a drawn share of the stacks is a
    product through an inner size below both dimensions."""
    ctx = field_from_order(draw(st.sampled_from(FIELDS)))
    count, rows, cols = draw(st.integers(2, 6)), draw(st.integers(0, 8)), draw(st.integers(0, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    zeros = draw(st.sampled_from([0.0, 0.5, 0.9]))
    rng = np.random.default_rng(seed)

    def entries(*shape):
        values = rng.integers(0, ctx.q, size=shape) * (rng.random(shape) >= zeros)
        return values.astype(np.int16)
    if draw(st.booleans()):
        inner = draw(st.integers(0, max(0, min(rows, cols) - 1)))
        return ctx, _index_matmul(ctx, entries(count, rows, inner), entries(count, inner, cols))
    return ctx, entries(count, rows, cols)


@FEW
@given(rank_stacks())
@example((field_from_order(3), np.ones((3, 0, 4), dtype=np.int16)))
@example((field_from_order(4), np.ones((2, 5, 0), dtype=np.int16)))
def test_rank_stack_is_rank_per_matrix(case):
    ctx, stack = case
    got = _rank_stack(ctx, stack)
    assert got.tolist() == [rank(MatrixFq(ctx, mat)) for mat in stack]


@st.composite
def enumerable_shapes(draw):
    """(q, rows, cols) with rows, cols <= 8 and at most 2^12 matrices."""
    q = draw(st.sampled_from(FIELDS))
    entries = max(k for k in range(13) if q**k <= 1 << 12)
    rows = draw(st.integers(0, min(8, entries)))
    cols = draw(st.integers(0, min(8, entries // rows if rows else 8)))
    return q, rows, cols


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(enumerable_shapes())
def test_rank_stack_tallies_rank_count(shape):
    """Every matrix of the shape, ranked in one stack: the tally is rank_count.

    A slip in clearing the rows below a pivot can keep the tally, since that
    clearing permutes the matrices; the per-matrix test above catches it."""
    q, rows, cols = shape
    stack = _decode(q, np.arange(q ** (rows * cols), dtype=np.int64), rows, cols)
    tally = np.bincount(_rank_stack(field_from_order(q), stack), minlength=min(rows, cols) + 1)
    assert tally.tolist() == [int(rank_count(q, rows, cols, r)) for r in range(len(tally))]


@FEW
@given(
    st.integers(0, 1 << 20),
    st.integers(0, 1 << 19),
    st.integers(0, 4 * sampling._BLOCK_ENTRIES),
)
@example(0, 0, 5)  # an empty range
@example(3, 40, 0)  # no entries per index
@example(7, 20, sampling._BLOCK_ENTRIES + 1)  # one index over the budget
@example(10, 1 << 19, 1)  # the budget's worth of indices per block
def test_blocks_cover_the_range_in_bounded_steps(lo, length, entries):
    ranges = list(sampling._blocks(lo, lo + length, entries))
    # each range starts where the last stopped, from lo up to lo + length
    assert [lo] + [stop for _, stop in ranges] == [start for start, _ in ranges] + [lo + length]
    step = max(1, sampling._BLOCK_ENTRIES // max(1, entries))
    assert all(0 < stop - start <= step for start, stop in ranges)


@st.composite
def clt_configs(draw):
    ctx, subset_a, r = draw(field_subset_rank())
    r = max(r, 1)  # r = 0 has no variance to scale by
    m, n = draw(st.integers(r, 6)), draw(st.integers(r, 6))
    samples, seed = draw(st.integers(100, 140)), draw(st.integers(0, 2**64 - 1))
    return ctx, subset_a, r, m, n, samples, seed, draw(st.sampled_from(["exact", "product"]))


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(clt_configs())
def test_run_clt_is_the_same_at_one_and_two_workers(case):
    ctx, subset_a, r, m, n, samples, seed, mode = case
    one = run_clt(ctx, subset_a, r, m, n, samples, seed, mode, workers=1)
    two = run_clt(ctx, subset_a, r, m, n, samples, seed, mode, workers=2)
    assert one.samples.tobytes() == two.samples.tobytes()
    assert one.to_dict() == two.to_dict()
