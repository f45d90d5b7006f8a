import numpy as np
import pytest

from fqrank import matrices
from fqrank.field import FqrankError, make_field, field_from_order
from fqrank.matrices import (
    DimensionMismatch,
    FieldMismatch,
    MatrixFq,
    SubsetA,
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
    once."""
    shapes = recording_eliminate(monkeypatch)
    ctx = field_from_order(q)
    rows, cols = {"tall": (6 * r, r), "wide": (r, 6 * r), "square": (r, r)}[shape]
    stack = certificate_stack(ctx, rows, cols, seed=100 * q + 10 * r + len(shape))
    want = [rank(MatrixFq(ctx, mat)) for mat in stack]
    assert _rank_stack(ctx, stack).tolist() == want
    assert shapes[0] == (40, r, r)
    if shape == "square":
        assert shapes == [(40, r, r)]
    else:
        singular = int((np.array([rank(MatrixFq(ctx, mat[:r, :r])) for mat in stack]) < r).sum())
        assert shapes[1:] == [(singular, rows, cols)]


def test_rank_stack_skips_the_certificate_where_it_cannot_pay(monkeypatch):
    """A 2 x 2 block over GF(2) is invertible with probability 3/8, which
    spares less than its own 4 entries of a 4 x 2 or 2 x 5 matrix (the
    factors of the 4 x 5 rank-2 enumeration): those are ranked in one pass."""
    shapes = recording_eliminate(monkeypatch)
    ctx = make_field(2, 1)
    for rows, cols in [(4, 2), (2, 5)]:
        stack = certificate_stack(ctx, rows, cols, seed=rows)
        shapes.clear()
        assert _rank_stack(ctx, stack).tolist() == [rank(MatrixFq(ctx, mat)) for mat in stack]
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
