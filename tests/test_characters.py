"""Character tables, Mobius components, and the unit-group Fourier transform."""

from fractions import Fraction
import re
import time
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from fqrank.characters import (
    BadSubset,
    FunctionTable,
    IndexSubset,
    MissingComponent,
    NotSupportedOnUnits,
    all_subsets,
    character_table,
    component_transform_from_embedded,
    fourier_coefficient,
    fourier_inverse,
    fourier_transform,
    jacobi_component_trivial,
    jacobi_embedded_trivial,
    mobius_component,
    mobius_fourier_reconstruct,
    mobius_reconstruct,
    off_units_magnitude,
    orthogonality_residuals,
    restrict_embed,
    sum_indicator,
    units_transform,
    verification_battery,
)
from fqrank import characters
from fqrank.field import FqrankError, field_from_order, make_field


def mobius_oracle(f, members, r):
    """Inclusion-exclusion over sub-tuples, written out with python loops."""
    q = f.q
    s = len(members)
    out = np.zeros((q,) * s, dtype=np.complex128)
    for u in product(range(q), repeat=s):
        acc = 0.0 + 0.0j
        for tmask in range(1 << s):
            full = [0] * r
            for i, axis in enumerate(members):
                if (tmask >> i) & 1:
                    full[axis] = u[i]
            sign = (-1) ** (s - bin(tmask).count("1"))
            acc += sign * f.values[tuple(full)]
        out[u] = acc
    return out


def coefficient_oracle(g, chis, table):
    """Plain-sum Fourier coefficient of g over unit tuples."""
    q = g.q
    s = g.arity
    acc = 0.0 + 0.0j
    for u in product(range(1, q), repeat=s):
        prod = 1.0 + 0.0j
        for chi, x in zip(chis, u):
            prod *= np.conj(table.mult[chi, x])
        acc += g.values[u] * prod
    return acc / (q - 1) ** s


def random_unit_function(q, t, rng):
    vals = np.zeros((q,) * t, dtype=np.complex128)
    block = rng.normal(size=(q - 1,) * t) + 1j * rng.normal(size=(q - 1,) * t)
    vals[(slice(1, None),) * t] = block
    return FunctionTable(q, vals)


# --- character tables ---------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_character_values(q):
    ctx = field_from_order(q)
    table = character_table(ctx)
    # multiplicative: zero maps to 0, units to points on the circle
    assert np.all(table.mult[:, 0] == 0)
    assert np.abs(np.abs(table.mult[:, 1:]) - 1).max() < 1e-12
    # index 0 rows are trivial
    assert np.abs(table.mult[0, 1:] - 1).max() < 1e-12
    assert np.abs(table.add[0] - 1).max() < 1e-12
    assert np.abs(np.abs(table.add) - 1).max() < 1e-12


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_character_homomorphism(q):
    ctx = field_from_order(q)
    table = character_table(ctx)
    for j in range(q - 1):
        for x in range(1, q):
            for y in range(1, q):
                got = table.mult[j, ctx.mul(x, y)]
                assert abs(got - table.mult[j, x] * table.mult[j, y]) < 1e-12
    for j in range(q):
        for x in range(q):
            for y in range(q):
                got = table.add[j, ctx.add(x, y)]
                assert abs(got - table.add[j, x] * table.add[j, y]) < 1e-12


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_orthogonality(q):
    res = orthogonality_residuals(character_table(field_from_order(q)))
    assert set(res) == {
        "additive_char_sum",
        "multiplicative_char_sum",
        "additive_element_sum",
        "multiplicative_element_sum",
    }
    for name, value in res.items():
        assert value <= 1e-12, name


# --- index subsets --------------------------------------------------------------

def test_index_subset_basics():
    s = IndexSubset.from_members(4, [0, 2])
    assert s.members() == (0, 2)
    assert s.size == 2
    assert 2 in s and 1 not in s
    assert IndexSubset.full(3).members() == (0, 1, 2)
    assert IndexSubset.empty(3).size == 0
    assert len(list(all_subsets(3))) == 8
    subs = {t.members() for t in s.subsets()}
    assert subs == {(), (0,), (2,), (0, 2)}
    with pytest.raises(ValueError):
        IndexSubset.from_members(2, [2])


# --- function tables and Mobius pieces -------------------------------------------

def test_function_table_validation():
    FunctionTable(3, np.zeros(()))
    with pytest.raises(ValueError):
        FunctionTable(3, np.zeros(4))
    with pytest.raises(ValueError):
        FunctionTable(2, np.array([np.nan, 0.0]))


def test_restrict_embed():
    ctx = make_field(3, 1)
    f = FunctionTable(3, np.arange(9, dtype=float).reshape(3, 3))
    g = restrict_embed(f, IndexSubset.from_members(2, [1]))
    assert g.values.tolist() == [0.0, 1.0, 2.0]  # first axis pinned at 0
    h = restrict_embed(f, IndexSubset.from_members(2, [0]))
    assert h.values.tolist() == [0.0, 3.0, 6.0]
    assert restrict_embed(f, IndexSubset.empty(2)).values == pytest.approx(0.0)


def test_mobius_component_against_oracle():
    rng = np.random.default_rng(5)
    for q, r in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        f = FunctionTable(q, rng.normal(size=(q,) * r) + 1j * rng.normal(size=(q,) * r))
        for subset in all_subsets(r):
            got = mobius_component(f, subset)
            want = mobius_oracle(f, subset.members(), r)
            assert np.abs(got.values - want).max() < 1e-12
            # exactly zero off the unit block, by construction
            assert off_units_magnitude(got) == 0.0


def test_mobius_component_point_example():
    # indicator of the origin on GF(2)^1: component at {0} is [0]-[1] pattern
    f = FunctionTable(2, np.array([1.0, 0.0]))
    g = mobius_component(f, IndexSubset.full(1))
    assert g.values.tolist() == [0.0, -1.0]
    assert mobius_component(f, IndexSubset.empty(1)).values == pytest.approx(1.0)


def test_mobius_reconstruct_identity():
    rng = np.random.default_rng(9)
    for q, r in [(2, 3), (3, 2), (5, 2)]:
        f = FunctionTable(q, rng.normal(size=(q,) * r))
        comps = {s: mobius_component(f, s) for s in all_subsets(r)}
        back = mobius_reconstruct(comps, r)
        assert np.abs(back.values - f.values).max() < 1e-12


def test_mobius_reconstruct_missing_component():
    f = FunctionTable(2, np.zeros((2, 2)))
    comps = {IndexSubset.empty(2): mobius_component(f, IndexSubset.empty(2))}
    with pytest.raises(MissingComponent):
        mobius_reconstruct(comps, 2)


# --- Fourier transform on unit tuples ----------------------------------------------

def test_fourier_transform_frozen_example():
    ctx = make_field(3, 1)
    table = character_table(ctx)
    f = FunctionTable(3, np.array([0.0, 1.0, 0.0]))  # indicator of 1
    fhat = fourier_transform(f, table)
    assert fhat == pytest.approx(np.array([0.5, 0.5]))
    back = fourier_inverse(fhat, table)
    assert np.abs(back.values - f.values).max() < 1e-12


def test_fourier_zero_arity():
    table = character_table(make_field(2, 1))
    f = FunctionTable(2, np.array(3.5))
    fhat = fourier_transform(f, table)
    assert fhat.shape == () and complex(fhat) == 3.5
    assert fourier_inverse(fhat, table).values == pytest.approx(3.5)


def test_fourier_requires_unit_support():
    table = character_table(make_field(3, 1))
    with pytest.raises(NotSupportedOnUnits):
        fourier_transform(FunctionTable(3, np.array([1.0, 0.0, 0.0])), table)


def test_fourier_transform_refuses_a_tuple_table_past_its_cap():
    """GF(103) at arity 3 has (q-1)^3 = 1,061,208 unit tuples, past 2^20."""
    table = character_table(field_from_order(103))
    f = FunctionTable(103, np.zeros((103,) * 3))
    with pytest.raises(FqrankError, match=r"\(q-1\)\^t = 102\^3 exceeds 1048576"):
        fourier_transform(f, table)


def test_transforms_refuse_a_function_over_another_field():
    table = character_table(make_field(3, 1))
    f = FunctionTable(5, np.ones((5, 5)))
    calls = [
        lambda: fourier_transform(f, table),
        lambda: units_transform(f, table),
        lambda: fourier_coefficient(f, (0, 1), table),
        lambda: component_transform_from_embedded(f, IndexSubset.full(2), (0, 1), table),
    ]
    for call in calls:
        with pytest.raises(FqrankError, match=r"function over GF\(5\), table over GF\(3\)"):
            call()


def test_fourier_round_trip_random():
    rng = np.random.default_rng(42)
    for q, t in [(2, 2), (3, 2), (5, 2), (4, 3), (7, 1)]:
        table = character_table(field_from_order(q))
        f = random_unit_function(q, t, rng)
        fhat = fourier_transform(f, table)
        back = fourier_inverse(fhat, table)
        assert np.abs(back.values - f.values).max() < 1e-10
        # spot-check single coefficients against the dense transform
        for chis in [(0,) * t, tuple(rng.integers(0, q - 1, size=t).tolist())]:
            assert fourier_coefficient(f, chis, table) == pytest.approx(
                complex(fhat[chis]), abs=1e-12
            )


def test_fourier_parseval():
    rng = np.random.default_rng(4)
    q, t = 5, 2
    table = character_table(field_from_order(q))
    f = random_unit_function(q, t, rng)
    fhat = fourier_transform(f, table)
    lhs = (np.abs(f.values) ** 2).sum() / (q - 1) ** t
    assert lhs == pytest.approx((np.abs(fhat) ** 2).sum())


# --- component coefficients straight from the embedded function ----------------------

def test_component_transform_matches_mobius_route():
    rng = np.random.default_rng(13)
    for q, r in [(2, 2), (3, 2), (4, 2)]:
        ctx = field_from_order(q)
        table = character_table(ctx)
        f = FunctionTable(q, rng.normal(size=(q,) * r) + 1j * rng.normal(size=(q,) * r))
        for subset in all_subsets(r):
            comp = mobius_component(f, subset)
            dense = fourier_transform(comp, table)
            for chis in product(range(q - 1), repeat=subset.size):
                via_embedded = component_transform_from_embedded(f, subset, chis, table)
                assert via_embedded == pytest.approx(complex(dense[chis]), abs=1e-10)
                assert via_embedded == pytest.approx(
                    coefficient_oracle(comp, chis, table), abs=1e-10
                )


def test_mobius_fourier_reconstruct():
    rng = np.random.default_rng(21)
    for q, r in [(2, 2), (3, 2), (5, 1)]:
        table = character_table(field_from_order(q))
        f = FunctionTable(q, rng.normal(size=(q,) * r))
        back = mobius_fourier_reconstruct(f, table)
        assert np.abs(back.values - f.values).max() < 1e-9


# --- coordinate-sum indicators and their closed-form coefficients ---------------------

def test_sum_indicator():
    ctx = make_field(3, 1)
    f = sum_indicator(ctx, 0, 2)
    for x in range(3):
        for y in range(3):
            assert f.values[x, y] == (1.0 if ctx.add(x, y) == 0 else 0.0)
    g = sum_indicator(ctx, 2, 0)
    assert g.values == pytest.approx(0.0)
    assert sum_indicator(ctx, 0, 0).values == pytest.approx(1.0)


def embedded_trivial_oracle(ctx, a, t):
    q = ctx.q
    count = 0
    for u in product(range(1, q), repeat=t):
        acc = 0
        for x in u:
            acc = ctx.add(acc, x)
        count += acc == a
    return Fraction(count, (q - 1) ** t)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_jacobi_embedded_trivial(q):
    ctx = field_from_order(q)
    for a in range(q):
        for t in range(4):
            assert jacobi_embedded_trivial(q, a, t) == embedded_trivial_oracle(ctx, a, t)


def test_jacobi_embedded_frozen():
    assert jacobi_embedded_trivial(2, 0, 1) == 0
    assert jacobi_embedded_trivial(2, 1, 1) == 1
    assert jacobi_embedded_trivial(3, 0, 2) == Fraction(1, 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_jacobi_component_trivial(q):
    ctx = field_from_order(q)
    table = character_table(ctx)
    for r in range(1, 4):
        for a in range(q):
            f = sum_indicator(ctx, a, r)
            for subset in all_subsets(r):
                comp = mobius_component(f, subset)
                got = coefficient_oracle(comp, (0,) * subset.size, table)
                want = jacobi_component_trivial(q, a, subset.size)
                # closed form depends only on |S|, not on which coordinates
                assert abs(got - complex(want)) < 1e-10, (q, r, a, subset)


def test_jacobi_component_frozen():
    assert jacobi_component_trivial(2, 0, 0) == 1
    assert jacobi_component_trivial(2, 1, 0) == 0
    assert jacobi_component_trivial(2, 1, 1) == 1
    assert jacobi_component_trivial(2, 0, 1) == -1
    assert jacobi_component_trivial(3, 1, 2) == Fraction(-3, 4)


# --- packaged verification battery ----------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4])
def test_verification_battery_all_ok(q):
    ctx = field_from_order(q)
    report = verification_battery(ctx, r=2, seed=0, trials=2)
    assert report  # non-empty
    for name, entry in report.items():
        assert entry["ok"], (name, entry)
        assert entry["residual"] <= entry["tolerance"], name


def test_verification_battery_refuses_huge_rank_quickly():
    start = time.perf_counter()
    # the (2q)^r cap refuses it, and with it every (q-1)^r past the character-tuple cap
    with pytest.raises(FqrankError, match=re.escape("battery at (2q)^r = 8^10000000 exceeds the cap 2^17") + "$"):
        verification_battery(make_field(2, 2), r=10**7)
    assert time.perf_counter() - start < 1.0  # no 8^(10^7) is built


@pytest.mark.parametrize("q, r, power", [(3, 7, "6^7"), (4, 6, "8^6"), (2, 9, "4^9")])
def test_verification_battery_caps_its_work(q, r, power):
    # (2q)^r past 2^17: GF(3) r = 7 took 2.4-4.5 s, GF(4) r = 6 1.9 s
    start = time.perf_counter()
    with pytest.raises(FqrankError, match=re.escape(f"battery at (2q)^r = {power} exceeds the cap 2^17") + "$"):
        verification_battery(field_from_order(q), r=r)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "q, r, work",
    [(1429, 1, None), (1433, 1, 131209), (4096, 1, 1056768), (1447, 0, None), (2048, 0, 262145),
     (179, 2, None), (181, 2, 133091)],
)
def test_verification_battery_counts_its_table_work(monkeypatch, q, r, work):
    """At r <= 1 the battery's time grows as q^2, which (2q)^r does not see:
    GF(4096) r = 1 took 1.8 s, GF(1429) r = 1 0.26 s and GF(179) r = 2
    0.13 s, each with its cold character table.  The cap refuses before
    the table is built; it reads only the field's order."""

    class Built(Exception):
        pass

    def build(ctx):
        raise Built

    monkeypatch.setattr(characters, "character_table", build)
    field = SimpleNamespace(q=q)
    if work is None:
        with pytest.raises(Built):
            verification_battery(field, r=r)
    else:
        message = f"battery at (2q)^r + q^2/16 = {work} at q = {q} exceeds the cap 2^17 = 131072"
        with pytest.raises(FqrankError, match=re.escape(message) + "$"):
            verification_battery(field, r=r)


GF3 = field_from_order(3)
TABLE3 = character_table(GF3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: IndexSubset(2, 4), BadSubset, "mask 0x4 out of range for r=2"),
        (
            lambda: restrict_embed(FunctionTable(2, np.zeros((2, 2))), IndexSubset(3, 1)),
            BadSubset,
            r"subset over range\(3\), function has arity 2",
        ),
        (lambda: mobius_reconstruct({}, 2), MissingComponent, "empty subset, r=2"),
        (
            lambda: fourier_inverse(np.zeros((3, 3)), TABLE3),
            FqrankError,
            r"expected shape \(2, 2\), got \(3, 3\)",
        ),
        (
            lambda: fourier_coefficient(FunctionTable(3, np.zeros(3)), (0, 0), TABLE3),
            FqrankError,
            "2 characters for arity 1",
        ),
        (
            lambda: fourier_coefficient(FunctionTable(3, np.zeros(3)), (2,), TABLE3),
            FqrankError,
            r"character index 2 outside range\(2\)",
        ),
        (
            lambda: component_transform_from_embedded(
                FunctionTable(3, np.zeros((3, 3))), IndexSubset(2, 0b11), (0,), TABLE3
            ),
            FqrankError,
            "1 characters for subset of size 2",
        ),
        (lambda: sum_indicator(GF3, 3, 2), FqrankError, r"element 3 outside range\(3\)"),
        (lambda: sum_indicator(GF3, 0, -1), FqrankError, "arity must be >= 0, got -1"),
        (lambda: jacobi_embedded_trivial(3, 1, -1), FqrankError, "tsize must be >= 0, got -1"),
        (lambda: jacobi_component_trivial(3, 1, -1), FqrankError, "ssize must be >= 0, got -1"),
    ],
    ids=[
        "index-subset-mask-past-r", "restrict-arity-mismatch", "reconstruct-without-empty",
        "inverse-shape", "coefficient-arity", "coefficient-character-index",
        "component-transform-arity", "sum-indicator-element", "sum-indicator-arity",
        "jacobi-embedded-size", "jacobi-component-size",
    ],
)
def test_input_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()
