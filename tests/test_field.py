import hashlib

import numpy as np
import pytest

from fqrank.field import (
    CompositeCharacteristic,
    DivisionByZero,
    FieldTooLarge,
    field_from_order,
    make_field,
    parse_field_spec,
)

PRIME_POWERS_64 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32,
    37, 41, 43, 47, 49, 53, 59, 61, 64,
]

# sha256 of each table's bytes: any rewrite of the table build must keep
# every table byte-identical
TABLE_DIGESTS = {
    (2, 1): {
        "exp_table": "47dc540c94ceb704a23875c11273e16bb0b8a87aed84de911f2133568115f254",
        "log_table": "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
        "add_table": "d4591cb6ac4aec034ec1ffa1cabfbeab608a54a1d4de06bde427fe7ff7ff7e47",
        "mul_table": "30e06038fb18a7cfda688d7bfe8de1ca8fee6002c5b4a498e6993a3592e88893",
        "neg_table": "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
        "inv_table": "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
        "trace_table": "6b1e73a0094b7b812d3b9e22cffb4f8239319847522c4fa103753b6950020f93",
    },
    (2, 4): {
        "exp_table": "43b7b39ed7badb50fcf8d8be3a9ce66a896fca3ab0697016c521945ddaea86a9",
        "log_table": "1b84e9696ac609143950f4bd939a547e96f5b7c375f06f66c7264a44fd9f8406",
        "add_table": "4c3ae65e3e40e4cdf7010cec53e6715f2578792232e2075cafeadbd9d1f4074c",
        "mul_table": "15ef8fc081e5b4f7b86645b1e4ef63cc1dd5ed9d9411303d4699cb46d2b32263",
        "neg_table": "64a240d34d0c29ec867f653721a1532de6e665e602e7c03e0b853c9ef3094126",
        "inv_table": "0472ccf63aa1d36acd848b91f2bf717d1eadf8cedc4663d0f87a1dd428c6fa36",
        "trace_table": "bedccf6d9584d86e7f3ebf3299f13980f07ff59f460764cf378b72d2b9262ce2",
    },
    (3, 7): {
        "exp_table": "40da4f814692e3e73f6e62801df8d1ada8b688b7d00be58efe8286c1d5af9afa",
        "log_table": "0f303c0160a74e5f912cd10db35ec7d13cacef81def786818810ec12cfc4c74b",
        "add_table": "b3b3767a0460928ba2f08df931a66bb1c70c654306a8ecdb74f0f8c2448bf593",
        "mul_table": "8c11bc453323f7481192f6ce6d9de429b23545a2d11f6c8032322abdf730d13d",
        "neg_table": "b212c23bf3f473fa39479cc919c235dbc1ae635904206c8060fd9a6baded8e56",
        "inv_table": "83c226ccfe9923327888702408a105f46fc779e1e432a36aa52b68f86356e64c",
        "trace_table": "578c47ecfdde9e84b35c9dba5712e86991bc8954aaa4de630109721d10bac0a8",
    },
    (4093, 1): {
        "exp_table": "21da594b47477dbbb199020ab72f220d3608d70b01a125373bdf0657baa533f2",
        "log_table": "a70ba1adc9a12ee2312ec2d11980c884467ed6a3a482cbb7f1275ee95aa696f0",
        "add_table": "e9cd396b41b8c1308edac02153ef3e1cab6704d19c5e96c0416f6fd6a76d1cfe",
        "mul_table": "16609e19aac08228cef57a01f52a61a3b0093d6c397d9f2502c9bbc8b1474e84",
        "neg_table": "c7ca0eef4e0708f82ac15de8b9fa72c9a4ea4bf9a9d1cd40e919e958c56f244b",
        "inv_table": "2dc85ad95acdcfc4682e740a22d79898c55433d6c16f8c28836112d171529fd3",
        "trace_table": "c7a4dd241efb0f8b7f144dde2abf2f4d366aa01f2feefdffa40cd89fee067f9b",
    },
    (2, 12): {
        "exp_table": "d46e19488ea17dbfb15d0a7efe480537bbe5f17e2d7abd2fcf1153f32ebbc9dd",
        "log_table": "43efd252d813a74e0dd70230e2952df8f798864a2ac977dcaf8e47e223a94682",
        "add_table": "9cc0ca375ac84e73f4d1e45ff2bea52413fcd11385a122a98fe8b03107919d13",
        "mul_table": "1bd4a0d58a3a5c928f0cfd3d1d6c51e061f143bc93d7a728a4d30f8ca8dd69f1",
        "neg_table": "8500f04e6b29f9697ab60beb608e81ed0022a0613bc1d636e494029307697d08",
        "inv_table": "2627201f6d05cf5d7cc93848297f36096923f8620c4ac86192c08ee1662a39e1",
        "trace_table": "cec31f93323049001b9a0e97d1c749f9d583f901f7e830d342093b7a03de9e4a",
    },
}


# --- construction and validation -------------------------------------------

def test_rejects_composite_characteristic():
    with pytest.raises(CompositeCharacteristic):
        make_field(4, 1)
    with pytest.raises(CompositeCharacteristic):
        make_field(6, 2)


def test_rejects_oversized_order():
    with pytest.raises(FieldTooLarge):
        make_field(2, 13)
    with pytest.raises(FieldTooLarge):
        make_field(5, 6)
    # refused before trial division, which would take minutes on these
    for p in (1000000000000000003, 2 * 1000000000000000003):
        with pytest.raises(FieldTooLarge, match="characteristic"):
            make_field(p, 1)


def test_rejects_bad_degree():
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, -1)


def test_field_from_order():
    assert field_from_order(9).p == 3
    assert field_from_order(9).e == 2
    assert field_from_order(7).e == 1
    with pytest.raises(CompositeCharacteristic):
        field_from_order(6)
    with pytest.raises(ValueError):
        field_from_order(1)


def test_parse_field_spec():
    assert parse_field_spec("2^4").q == 16
    assert parse_field_spec("9").p == 3
    assert parse_field_spec(" 7 ").e == 1
    with pytest.raises(CompositeCharacteristic):
        parse_field_spec("12")


def test_construction_is_cached():
    assert make_field(2, 2) is make_field(2, 2)


def test_largest_supported_order_builds():
    ctx = field_from_order(4096)
    assert ctx.q == 4096 and ctx.p == 2 and ctx.e == 12
    assert ctx.mul(ctx.generator, ctx.inv(ctx.generator)) == 1


# --- frozen small-field facts ----------------------------------------------

def test_gf4_tables():
    ctx = make_field(2, 2)
    # modulus 1 + x + x^2, elements 0, 1, x, x+1 at indices 0..3
    assert ctx.spec.modulus == (1, 1, 1)
    assert ctx.generator == 2
    assert ctx.mul(2, 3) == 1
    assert ctx.inv(2) == 3
    assert ctx.add(2, 3) == 1
    assert ctx.trace(0) == 0
    assert ctx.trace(1) == 0
    assert ctx.trace(2) == 1
    assert ctx.trace(3) == 1


def test_gf2_tables():
    ctx = make_field(2, 1)
    assert ctx.add_table.tolist() == [[0, 1], [1, 0]]
    assert ctx.mul_table.tolist() == [[0, 0], [0, 1]]
    assert ctx.generator == 1
    assert ctx.trace(1) == 1


def test_gf3_generator():
    assert make_field(3, 1).generator == 2


def test_deterministic_moduli():
    # smallest-index monic irreducible for each degree
    assert make_field(2, 3).spec.modulus == (1, 1, 0, 1)
    assert make_field(3, 2).spec.modulus == (1, 0, 1)
    assert make_field(3, 2).generator == 4


def test_prime_field_is_integer_arithmetic():
    ctx = make_field(7, 1)
    for a in range(7):
        for b in range(7):
            assert ctx.add(a, b) == (a + b) % 7
            assert ctx.mul(a, b) == (a * b) % 7


# --- field axioms, exhaustively for every prime power up to 64 --------------

@pytest.mark.parametrize("q", PRIME_POWERS_64)
def test_field_axioms(q):
    ctx = field_from_order(q)
    add, mul = ctx.add_table.astype(np.int64), ctx.mul_table.astype(np.int64)
    a = np.arange(q).reshape(q, 1, 1)
    b = np.arange(q).reshape(1, q, 1)
    c = np.arange(q).reshape(1, 1, q)

    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])

    flat_a, flat_b = np.arange(q).reshape(q, 1), np.arange(q).reshape(1, q)
    assert np.array_equal(add[flat_a, flat_b], add[flat_b, flat_a])
    assert np.array_equal(mul[flat_a, flat_b], mul[flat_b, flat_a])
    assert np.array_equal(add[np.arange(q), np.zeros(q, int)], np.arange(q))
    assert np.array_equal(mul[np.arange(q), np.ones(q, int)], np.arange(q))
    assert np.array_equal(add[np.arange(q), ctx.neg_table], np.zeros(q, int))

    units = np.arange(1, q)
    assert np.array_equal(mul[units, ctx.inv_table[units]], np.ones(q - 1, int))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 27, 64])
def test_exp_log_tables(q):
    ctx = field_from_order(q)
    ks = np.arange(q - 1)
    assert np.array_equal(ctx.log_table[ctx.exp_table[ks]], ks)
    assert sorted(ctx.exp_table.tolist()) == list(range(1, q))  # generator hits every unit


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 49])
def test_trace_properties(q):
    ctx = field_from_order(q)
    p = ctx.p
    tr = ctx.trace_table.astype(np.int64)
    add = ctx.add_table.astype(np.int64)
    a = np.arange(q).reshape(q, 1)
    b = np.arange(q).reshape(1, q)
    # additive over the field, with values in the prime subfield
    assert np.array_equal(tr[add[a, b]], (tr[a] + tr[b]) % p)
    assert tr.max() < p
    # every prime-subfield value is hit equally often
    assert np.bincount(tr, minlength=p).tolist() == [q // p] * p
    # direct definition: sum of Frobenius orbits
    for x in range(q):
        acc, powed = 0, x
        for _ in range(ctx.e):
            acc = ctx.add(acc, powed)
            powed = ctx.pow(powed, p)
        assert acc == ctx.trace(x)


# --- scalar helpers ----------------------------------------------------------

def test_scalar_operations():
    ctx = make_field(3, 2)
    g = ctx.generator
    assert ctx.pow(g, ctx.q - 1) == 1
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0
    assert ctx.pow(g, -1) == ctx.inv(g)
    assert ctx.sub(5, 5) == 0
    assert ctx.log(ctx.pow(g, 3)) == 3
    assert list(ctx.elements()) == list(range(9))
    assert list(ctx.units()) == list(range(1, 9))


def test_zero_has_no_inverse_or_log():
    ctx = make_field(5, 1)
    with pytest.raises(DivisionByZero):
        ctx.inv(0)
    with pytest.raises(DivisionByZero):
        ctx.log(0)
    with pytest.raises(DivisionByZero):
        ctx.pow(0, -2)


def test_element_digits():
    ctx = make_field(2, 2)
    assert ctx.element_digits(3) == (1, 1)
    assert ctx.element_digits(2) == (0, 1)


# --- the tables themselves ------------------------------------------------

@pytest.mark.parametrize("p, e", list(TABLE_DIGESTS))
def test_tables_are_pinned(p, e):
    ctx = make_field(p, e)
    for name, digest in TABLE_DIGESTS[(p, e)].items():
        table = getattr(ctx, name)
        assert table.dtype == np.int16, name
        assert table.flags.c_contiguous, name
        assert hashlib.sha256(table.tobytes()).hexdigest() == digest, name


@pytest.mark.parametrize("p, e", list(TABLE_DIGESTS))
def test_add_and_neg_are_digit_wise(p, e):
    ctx = make_field(p, e)
    rng = np.random.default_rng(p * 100 + e)

    def compose(digits):
        return sum(d * p**i for i, d in enumerate(digits))

    for a, b in rng.integers(0, ctx.q, size=(200, 2)).tolist():
        da, db = ctx.element_digits(a), ctx.element_digits(b)
        assert ctx.add_table[a, b] == compose((x + y) % p for x, y in zip(da, db))
        assert ctx.neg_table[a] == compose(-x % p for x in da)
