import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fqrank import matrices
from fqrank.counting import rank_count
from fqrank.field import FqrankError, make_field, field_from_order
from fqrank.matrices import (
    DimensionMismatch,
    FieldMismatch,
    MatrixFq,
    SubsetA,
    _decode,
    _digit_weights,
    _encode,
    _index_matmul,
    _rank_stack,
    ct,
    dump_matrix,
    identity_matrix,
    load_matrix,
    mat_add,
    mat_mul,
    matrix,
    rank,
    wt,
    zero_matrix,
)


def span_size(mat):
    """Oracle: grow the row span one row at a time with scalar field ops."""
    ctx = mat.field
    span = {(0,) * mat.data.shape[1]}
    for row in mat.data.tolist():
        new = set()
        for vec in span:
            for s in range(ctx.q):
                combo = tuple(ctx.add(v, ctx.mul(s, r)) for v, r in zip(vec, row))
                if combo not in span:
                    new.add(combo)
        span |= new
    return len(span)


def rank_oracle(mat):
    size = span_size(mat)
    r = 0
    while mat.field.q ** r < size:
        r += 1
    assert mat.field.q ** r == size
    return r


def random_mat(ctx, m, n, rng):
    return matrix(ctx, rng.integers(0, ctx.q, size=(m, n)).tolist())


# --- construction ------------------------------------------------------------

def test_matrix_validation():
    ctx = make_field(2, 1)
    with pytest.raises(ValueError):
        matrix(ctx, [[0, 2]])
    with pytest.raises(ValueError):
        matrix(ctx, [[0, -1]])
    with pytest.raises(ValueError):
        MatrixFq(ctx, np.zeros(3, dtype=np.int16))
    assert matrix(ctx, []).shape == (0, 0)
    with pytest.raises(FqrankError, match="same length"):
        matrix(ctx, [[1, 0], [1]])


def test_matrix_leaves_callers_array_writable():
    a = np.zeros((2, 2), dtype=np.int16)
    MatrixFq(make_field(2, 1), a)
    a[0, 0] = 1  # raised "assignment destination is read-only" when the input was frozen


def test_matrix_does_not_follow_writes_to_its_input():
    b = np.zeros((2, 2), dtype=np.int16)
    mat = MatrixFq(make_field(2, 1), b[:, :])
    b[0, 0] = 1
    assert mat.data.tolist() == [[0, 0], [0, 0]]


def test_matrix_rejects_values_that_wrap_in_int16():
    # 65537 is 1 mod 2^16: checked before the cast, not after it
    with pytest.raises(FqrankError, match="range"):
        MatrixFq(make_field(3, 1), np.array([[65537, 2]]))


def test_matrix_rejects_non_integer_entries():
    with pytest.raises(FqrankError, match="integers"):
        MatrixFq(make_field(3, 1), np.array([[1.7]]))
    assert MatrixFq(make_field(3, 1), np.array([[1.0, 2.0]])).data.tolist() == [[1, 2]]


@pytest.mark.parametrize(
    "dtype, value",
    [(np.int8, 3), (np.int8, -1), (np.uint8, 255), (np.int16, 3), (np.int16, -1), (np.int16, -32768)],
)
def test_matrix_rejects_small_integers_out_of_range(dtype, value):
    with pytest.raises(FqrankError, match=r"range\(3\)"):
        MatrixFq(make_field(3, 1), np.array([[1, value]], dtype=dtype))


@pytest.mark.parametrize("data", [np.array([[1 + 0j]]), np.array([["1"]])])
def test_matrix_refuses_non_integer_dtypes(data):
    with pytest.raises(FqrankError, match="integers in range"):
        MatrixFq(make_field(3, 1), data)


def test_matrix_from_lists_out_of_int16_range():
    with pytest.raises(FqrankError, match="range"):
        matrix(make_field(3, 1), [[70000]])


def test_matrix_equality_and_hash():
    ctx = make_field(3, 1)
    a = matrix(ctx, [[1, 2], [0, 1]])
    b = matrix(ctx, [[1, 2], [0, 1]])
    c = matrix(ctx, [[1, 2], [0, 2]])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != matrix(make_field(5, 1), [[1, 2], [0, 1]])
    assert a.__eq__(1) is NotImplemented and a != 1


def test_matrix_data_is_read_only():
    ctx = make_field(2, 1)
    a = zero_matrix(ctx, 2, 2)
    with pytest.raises(ValueError):
        a.data[0, 0] = 1


def test_identity_and_zero():
    ctx = make_field(2, 2)
    eye = identity_matrix(ctx, 3)
    assert eye.data.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert zero_matrix(ctx, 2, 3).data.tolist() == [[0, 0, 0], [0, 0, 0]]


def test_transpose():
    ctx = make_field(3, 1)
    a = matrix(ctx, [[1, 2, 0], [0, 1, 2]])
    assert a.transpose().data.tolist() == [[1, 0], [2, 1], [0, 2]]


# --- arithmetic --------------------------------------------------------------

def test_mat_mul_against_scalar_loop():
    rng = np.random.default_rng(7)
    for q in (2, 3, 4, 5, 9):
        ctx = field_from_order(q)
        for _ in range(20):
            m, k, n = rng.integers(1, 5, size=3)
            x = random_mat(ctx, m, k, rng)
            y = random_mat(ctx, k, n, rng)
            prod = mat_mul(x, y)
            for i in range(m):
                for j in range(n):
                    acc = 0
                    for t in range(k):
                        acc = ctx.add(acc, ctx.mul(int(x.data[i, t]), int(y.data[t, j])))
                    assert prod.data[i, j] == acc


@pytest.mark.parametrize("q", [2, 3, 16, 256, 4096])
def test_index_matmul_shapes_against_the_scalar_product(q):
    """Broadcast leading axes, inner size 0, 1 x 1 and the transposed
    (non-contiguous) views decompose_ct passes give the product of ctx.add
    and ctx.mul, as int16, in np.matmul's shape."""
    ctx = field_from_order(q)
    rng = np.random.default_rng(q)

    def draw(*shape):
        return rng.integers(0, q, shape).astype(np.int16)

    for a, b in [
        (draw(3, 1, 4, 2), draw(1, 5, 2, 3)),
        (draw(2, 4, 0), draw(2, 0, 3)),
        (draw(1, 1), draw(1, 1)),
        (draw(5, 4).T, draw(3, 5).T),
    ]:
        lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
        got = _index_matmul(ctx, a, b)
        assert got.dtype == np.int16 and got.shape == lead + (a.shape[-2], b.shape[-1])
        a_all = np.broadcast_to(a, lead + a.shape[-2:])
        b_all = np.broadcast_to(b, lead + b.shape[-2:])
        for *pair, i, j in np.ndindex(*got.shape):
            x, y = a_all[tuple(pair)], b_all[tuple(pair)]
            acc = 0
            for t in range(a.shape[-1]):
                acc = ctx.add(acc, ctx.mul(int(x[i, t]), int(y[t, j])))
            assert got[(*pair, i, j)] == acc


@pytest.mark.parametrize(
    "q, width",
    [(2, 0), (3, 1), (16, 5), (256, 2), (16, 17), (3, 45)],  # 16^16 and 3^40 overflow int64
)
def test_encode_is_the_weighted_digit_sum(q, width):
    """Horner's codes are the int64 weighted sum's, wrapping where it wraps,
    on contiguous stacks and on swapped-axes views."""
    rng = np.random.default_rng(q + width)
    digits = rng.integers(0, q, (4, 3, width)).astype(np.int16)
    want = digits.astype(np.int64) @ _digit_weights(q, width)
    got = _encode(q, digits)
    assert got.dtype == np.int64 and np.array_equal(got, want)
    view = rng.integers(0, q, (4, width, 3)).astype(np.int16).swapaxes(1, 2)
    assert np.array_equal(_encode(q, view), view.astype(np.int64) @ _digit_weights(q, width))


def test_mat_mul_shape_mismatch():
    ctx = make_field(2, 1)
    with pytest.raises(DimensionMismatch):
        mat_mul(zero_matrix(ctx, 2, 3), zero_matrix(ctx, 2, 3))
    with pytest.raises(FieldMismatch):
        mat_mul(zero_matrix(ctx, 2, 2), zero_matrix(make_field(3, 1), 2, 2))


def test_mat_add():
    ctx = make_field(3, 1)
    a = matrix(ctx, [[1, 2], [0, 1]])
    b = matrix(ctx, [[2, 2], [1, 0]])
    assert mat_add(a, b).data.tolist() == [[0, 1], [1, 1]]
    with pytest.raises(DimensionMismatch):
        mat_add(a, zero_matrix(ctx, 2, 3))


def test_mat_mul_identity():
    rng = np.random.default_rng(3)
    ctx = make_field(2, 2)
    a = random_mat(ctx, 3, 3, rng)
    assert mat_mul(a, identity_matrix(ctx, 3)) == a
    assert mat_mul(identity_matrix(ctx, 3), a) == a


# --- rank ---------------------------------------------------------------------

def test_rank_small_cases():
    ctx = make_field(2, 1)
    assert rank(zero_matrix(ctx, 3, 4)) == 0
    assert rank(identity_matrix(ctx, 4)) == 4
    assert rank(matrix(ctx, [[1, 1], [1, 1]])) == 1
    assert rank(matrix(ctx, [[1, 0], [1, 1]])) == 2


def test_rank_against_span_oracle():
    rng = np.random.default_rng(11)
    for q in (2, 3, 4):
        ctx = field_from_order(q)
        for _ in range(170):
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            a = random_mat(ctx, m, n, rng)
            assert rank(a) == rank_oracle(a)


def test_rank_transpose_invariant():
    rng = np.random.default_rng(13)
    ctx = make_field(3, 1)
    for _ in range(60):
        a = random_mat(ctx, int(rng.integers(1, 6)), int(rng.integers(1, 6)), rng)
        assert rank(a) == rank(a.transpose())


def test_rank_of_product_bounded():
    rng = np.random.default_rng(17)
    ctx = make_field(2, 2)
    for _ in range(60):
        x = random_mat(ctx, 4, 2, rng)
        y = random_mat(ctx, 2, 4, rng)
        assert rank(mat_mul(x, y)) <= min(rank(x), rank(y))


def certificate_stack(ctx, rows, cols, seed):
    """40 random rows x cols matrices: a third as drawn, a third with the
    leading block's first line along the long side zeroed (a singular block,
    though the matrix is often of full rank), and a third of rank below
    min(rows, cols), as products through a smaller inner size."""
    rng = np.random.default_rng(seed)
    k = min(rows, cols)
    stack = rng.integers(0, ctx.q, (40, rows, cols)).astype(np.int16)
    if rows >= cols:
        stack[13:26, 0, :] = 0
    else:
        stack[13:26, :, 0] = 0
    left = rng.integers(0, ctx.q, (14, rows, k - 1)).astype(np.int16)
    right = rng.integers(0, ctx.q, (14, k - 1, cols)).astype(np.int16)
    stack[26:] = _index_matmul(ctx, left, right)
    return stack


def recording_eliminate(monkeypatch):
    """The shapes of the stacks `_rank_stack` hands to `_eliminate`, in order."""
    shapes = []
    eliminate = matrices._eliminate
    monkeypatch.setattr(
        matrices, "_eliminate", lambda *args: shapes.append(args[1].shape) or eliminate(*args)
    )
    return shapes


@pytest.mark.parametrize("q", [2, 3, 4, 16])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", ["tall", "wide", "square"])
def test_rank_stack_is_rank_with_the_leading_block_certificate(monkeypatch, q, r, shape):
    """Tall and wide stacks rank their leading blocks first and then, in
    full, the matrices whose block is singular; a square stack is ranked
    once; vectors (r = 1) are ranked by a nonzero test, with no elimination.
    With no block room no shape is listable, so the eliminations are seen."""
    monkeypatch.setattr(matrices, "_BLOCK_ENTRIES", 0)
    ctx = field_from_order(q)
    rows, cols = {"tall": (6 * r, r), "wide": (r, 6 * r), "square": (r, r)}[shape]
    stack = certificate_stack(ctx, rows, cols, seed=100 * q + 10 * r + len(shape))
    want = eliminate_by_two_array_gathers(ctx, stack).tolist()
    singular = int((eliminate_by_two_array_gathers(ctx, stack[:, :r, :r]) < r).sum())
    shapes = recording_eliminate(monkeypatch)
    assert _rank_stack(ctx, stack).tolist() == want
    if r == 1:
        assert shapes == []
        return
    assert shapes[0] == (40, r, r)
    if shape == "square":
        assert shapes == [(40, r, r)]
    else:
        assert shapes[1:] == [(singular, rows, cols)]


@pytest.mark.parametrize("q", [2, 3, 4, 16])
def test_rank_stack_ranks_vectors_by_a_nonzero_test(monkeypatch, q):
    """A stack of 1 x n or n x 1 matrices, one matrix alone included, has
    `rank`'s ranks, int64, with no elimination and no call of `rank`."""
    ctx = field_from_order(q)
    rng = np.random.default_rng(q)
    cases = []
    for count, rows, cols in [(30, 7, 1), (30, 1, 7), (1, 7, 1), (1, 1, 7), (9, 1, 1), (1, 1, 1)]:
        stack = rng.integers(0, q, (count, rows, cols)).astype(np.int16)
        stack[::3] = 0
        stack[1::3] = 0
        stack[1::3, -1, -1] = q - 1  # nonzero only in its last entry
        for s in (stack, np.zeros_like(stack)):
            cases.append((s, [rank(MatrixFq(ctx, mat)) for mat in s]))
    shapes = recording_eliminate(monkeypatch)
    monkeypatch.setattr(matrices, "rank", None)
    for stack, want in cases:
        got = _rank_stack(ctx, stack)
        assert got.dtype == np.int64 and got.tolist() == want
    assert shapes == []


def test_rank_stack_skips_the_certificate_where_it_cannot_pay(monkeypatch):
    """A 2 x 2 block over GF(2) is invertible with probability 3/8, which
    spares less than its own 4 entries of a 4 x 2 or 2 x 5 matrix (the
    factors of the 4 x 5 rank-2 enumeration): with no block room for their
    rank tables, those are ranked in one pass."""
    monkeypatch.setattr(matrices, "_BLOCK_ENTRIES", 0)
    ctx = make_field(2, 1)
    cases = []
    for rows, cols in [(4, 2), (2, 5)]:
        stack = certificate_stack(ctx, rows, cols, seed=rows)
        cases.append((rows, cols, stack, eliminate_by_two_array_gathers(ctx, stack).tolist()))
    shapes = recording_eliminate(monkeypatch)
    for rows, cols, stack, want in cases:
        shapes.clear()
        assert _rank_stack(ctx, stack).tolist() == want
        assert shapes == [(40, rows, cols)]


def test_rank_stack_singular_leading_blocks():
    """Full rank behind a singular leading block is found by the full
    elimination, and a rank-deficient matrix keeps its rank."""
    ctx = make_field(2, 1)
    tall = np.zeros((6, 8, 2), dtype=np.int16)
    tall[:, 2:] = [[1, 0], [0, 1], [1, 1], [0, 0], [1, 0], [0, 1]]
    tall[0, :2] = [[1, 0], [0, 1]]  # certified by its leading block
    tall[1, :2] = [[0, 0], [0, 0]]  # zero leading block, rank 2
    tall[2, :2] = [[1, 1], [1, 1]]  # singular leading block, rank 2
    tall[3] = [[1, 1]] * 8  # rank 1
    tall[4] = 0  # rank 0
    tall[5] = [[0, 1]] * 8  # rank 1 behind a zero first column
    want = [2, 2, 2, 1, 0, 1]
    assert _rank_stack(ctx, tall).tolist() == want
    assert _rank_stack(ctx, tall.swapaxes(1, 2)).tolist() == want


def test_rank_stack_eliminates_only_leading_blocks_when_all_are_invertible(monkeypatch):
    shapes = recording_eliminate(monkeypatch)
    ctx = field_from_order(16)
    rng = np.random.default_rng(5)
    tall = rng.integers(0, 16, (30, 12, 4)).astype(np.int16)
    tall[:, :4, :4] = np.triu(rng.integers(0, 16, (30, 4, 4))) | np.eye(4, dtype=np.int16)
    for stack in (tall, tall.swapaxes(1, 2)):
        shapes.clear()
        assert _rank_stack(ctx, stack).tolist() == [4] * 30
        assert shapes == [(30, 4, 4)]
    # a singular leading block sends its matrix, and only it, to the full elimination
    tall[7, 0] = 0
    shapes.clear()
    assert _rank_stack(ctx, tall).tolist() == [4] * 30
    assert shapes == [(30, 4, 4), (1, 12, 4)]


def eliminate_by_two_array_gathers(ctx, stack):
    """Oracle: `_eliminate` with its gathers indexing the q x q tables by two
    arrays, as before `_mul_arrays` and `_add_arrays` took them over."""
    count, rows, cols = stack.shape
    ranks = np.zeros(count, dtype=np.int64)
    live = np.arange(count)
    a = stack.copy()
    r = np.zeros(count, dtype=np.int64)
    row_ids = np.arange(rows)
    for col in range(cols):
        found = (a[:, :, col] != 0) & (row_ids >= r[:, None])
        hit = np.nonzero(found.any(axis=1))[0]
        more = hit[r[hit] + 1 < rows] if col + 1 < cols else hit[:0]
        if more.size:
            piv, top, k = found[more].argmax(axis=1), r[more], np.arange(more.size)
            sub = a[more, :, col:]
            pivot_row = sub[k, piv]
            pivot_row = ctx.mul_table[pivot_row, ctx.inv_table[pivot_row[:, :1]]]
            sub[k, piv] = sub[k, top]
            sub[k, top] = pivot_row
            fac = ctx.neg_table[sub[:, :, 0]] * (row_ids > top[:, None])
            scaled = ctx.mul_table[fac[:, :, None], pivot_row[:, None]]
            a[more, :, col:] = ctx.add_table[sub, scaled]
        r[hit] += 1
        finished = r == rows
        if finished.any():
            ranks[live[finished]] = rows
            keep = ~finished
            a, r, live = a[keep], r[keep], live[keep]
            if not live.size:
                return ranks
    ranks[live] = r
    return ranks


@pytest.mark.parametrize("q", [2, 3, 16, 4096])
@pytest.mark.parametrize("rows, cols", [(6, 3), (3, 6), (4, 4), (8, 2)])
def test_rank_stack_is_the_elimination_by_two_array_gathers(q, rows, cols):
    """`_rank_stack` and `_eliminate` give the old elimination's ranks on
    drawn, singular-block and rank-deficient stacks; over GF(4096) an index
    a q + b formed in int16 would wrap."""
    ctx = field_from_order(q)
    stack = certificate_stack(ctx, rows, cols, seed=q + rows)
    want = eliminate_by_two_array_gathers(ctx, stack).tolist()
    assert want.count(min(rows, cols)) < len(want)  # the stack has rank-deficient matrices
    assert _rank_stack(ctx, stack).tolist() == want
    assert matrices._eliminate(ctx, stack).tolist() == want


@pytest.mark.parametrize("q", [2, 3, 16])
@pytest.mark.parametrize("shape", [(3, 0, 4), (3, 4, 0), (3, 0, 0), (0, 2, 2)])
def test_rank_stack_of_empty_matrices_or_no_matrices_is_int64_zeros(q, shape):
    """A stack with no rows, no columns or no matrices falls through the
    column loop of `_eliminate`, with no case of its own: rank 0 each."""
    ctx = field_from_order(q)
    stack = np.zeros(shape, dtype=np.int16)
    for ranks in (_rank_stack(ctx, stack), matrices._eliminate(ctx, stack)):
        assert ranks.dtype == np.int64 and ranks.tolist() == [0] * shape[0]


LISTABLE = [  # (q, rows, cols): every matrix of the shape fits in one block
    (q, rows, cols)
    for q in (2, 3, 4, 5, 13)
    for rows in range(1, 14)
    for cols in range(1, 14)
    if q ** (rows * cols) * rows * cols <= matrices._BLOCK_ENTRIES
]


@pytest.mark.parametrize("q, rows, cols", LISTABLE)
def test_rank_table_is_the_elimination_of_every_matrix(q, rows, cols):
    """The rank table of a listable shape ranks all q^(rows cols) matrices
    as the two-array elimination does, so it tallies to rank_count; once it
    is built, a drawn stack of the shape is ranked with no elimination."""
    ctx = field_from_order(q)
    table = matrices._rank_table(ctx, rows, cols)
    listing = _decode(q, np.arange(q ** (rows * cols), dtype=np.int64), rows, cols)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert table.tolist() == eliminate_by_two_array_gathers(ctx, listing).tolist()
    tally = np.bincount(table, minlength=min(rows, cols) + 1)
    assert tally.tolist() == [int(rank_count(q, rows, cols, r)) for r in range(len(tally))]

    @settings(max_examples=5, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.integers(0, q ** (rows * cols) - 1), min_size=1, max_size=30))
    def ranked_by_lookups(codes):
        stack = _decode(q, np.array(codes, dtype=np.int64), rows, cols)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(matrices, "_eliminate", None)
            got = _rank_stack(ctx, stack)
        assert got.dtype == np.int64 and got.tolist() == table[codes].tolist()

    ranked_by_lookups()


# --- entry subsets and counting statistics -----------------------------------

def test_subset_construction():
    s = SubsetA.from_indices(3, [1, 2])
    assert s.members() == (1, 2)
    assert s.size == 2
    assert 1 in s and 0 not in s
    assert SubsetA.nonzero(3).members() == (1, 2)
    assert SubsetA.zero_only(3).members() == (0,)
    assert SubsetA.full(3).size == 3
    assert s.complement().members() == (0,)
    with pytest.raises(ValueError):
        SubsetA.from_indices(3, [3])
    # empty subset is representable (it is full's complement); statistics
    # layers reject it where it would make a denominator vanish
    assert SubsetA.from_indices(3, []).size == 0
    assert SubsetA.full(3).complement().size == 0


def test_ct_and_wt_brute_force():
    rng = np.random.default_rng(19)
    ctx = make_field(5, 1)
    for _ in range(40):
        a = random_mat(ctx, 3, 4, rng)
        subset = SubsetA.from_indices(5, sorted(rng.choice(5, size=2, replace=False).tolist()))
        expected = sum(1 for v in a.data.ravel().tolist() if v in subset.members())
        assert ct(a, subset) == expected
        assert wt(a) == int(np.count_nonzero(a.data))
    assert ct(zero_matrix(ctx, 2, 2), SubsetA.zero_only(5)) == 4


def test_ct_field_mismatch():
    with pytest.raises(FieldMismatch):
        ct(zero_matrix(make_field(2, 1), 2, 2), SubsetA.nonzero(3))


# --- serialization -------------------------------------------------------------

def test_dump_load_round_trip():
    rng = np.random.default_rng(23)
    for q in (2, 9):
        ctx = field_from_order(q)
        a = random_mat(ctx, 3, 2, rng)
        assert load_matrix(dump_matrix(a)) == a
        assert load_matrix(dump_matrix(a), ctx=ctx) == a


def test_load_matrix_errors():
    ctx = make_field(2, 1)
    good = dump_matrix(identity_matrix(ctx, 2))
    with pytest.raises(ValueError):
        load_matrix(good.replace("2 2 2", "2 2 6"))  # composite order
    with pytest.raises(ValueError):
        load_matrix("2 2 2\n1 0\n")  # missing row
    with pytest.raises(ValueError):
        load_matrix("2 2 2\n1 0\n0 1 1\n")  # ragged row
    with pytest.raises(ValueError):
        load_matrix("2 2 2\n1 3\n0 1\n")  # entry out of range
    with pytest.raises(ValueError):
        load_matrix("")
    with pytest.raises(FieldMismatch):
        load_matrix(good, ctx=make_field(3, 1))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SubsetA(2, 4), "mask out of range for q=2"),
        (lambda: load_matrix("2 2\n0 1\n1 0\n"), "header must be 'm n q'"),
    ],
    ids=["subset-mask-past-q", "header-without-order"],
)
def test_input_errors(call, message):
    with pytest.raises(FqrankError, match=message):
        call()
