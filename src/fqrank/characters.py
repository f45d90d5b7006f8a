"""Characters of GF(q) and transform machinery for functions GF(q)^t -> C.

Multiplicative characters are indexed by j in range(q-1) with
chi_j(g**k) = exp(2*pi*i*j*k/(q-1)) for the field's fixed generator g, and
chi_j(0) = 0.  Additive characters are indexed by j in range(q) with
psi_j(a) = exp(2*pi*i*Tr(j*a)/p).  Index 0 is the trivial character in both
families, and character tuples are indexed in mixed radix so that the
all-trivial tuple sits at index (0, ..., 0).

The transforms operate on dense value tables of shape (q,)*t.  Arity is
capped so a character-tuple table has at most 2**20 entries; everything at
that size is exact enough in double precision for the 1e-9..1e-12 tolerances
used by the verification battery.

Roots of unity are generated from the exact angle 2*pi*k/order so identical
roots agree bit-for-bit across tables.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

import numpy as np

from .counting import entry_bias
from .field import FieldCtx, FqrankError, _add_arrays, _power_at_most, _read_only

MAX_TUPLE_TABLE = 1 << 20
MAX_BATTERY_WORK = 1 << 17  # (2q)^r at 3 trials: GF(2) r = 8 (2^16) took 1.2-1.7 s, GF(3) r = 7 (2^18.1) 2.4-4.5 s
_TABLE_PER_WORK = 16  # q^2 character-table entries the battery spends as much time on as one unit of (2q)^r
_OFF_UNITS_TOL = 1e-12  # fourier_transform refuses more mass than this off the units


class BadSubset(FqrankError):
    """Raised when an index subset does not match the ambient arity."""


class MissingComponent(KeyError):
    """Raised when a component map lacks one of the required subsets."""


class NotSupportedOnUnits(FqrankError):
    """Raised when a transform input has mass on a zero coordinate."""


# ---------------------------------------------------------------------------
# character tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Dense tables of all characters of one field.

    ``mult[j, a]`` is the j-th multiplicative character at element a (zero
    at a = 0); ``add[j, a]`` is the j-th additive character at a.
    """

    field: FieldCtx
    mult: np.ndarray  # complex128, shape (q-1, q)
    add: np.ndarray  # complex128, shape (q, q)


@lru_cache(maxsize=None)
def character_table(ctx: FieldCtx) -> CharacterTable:
    q = ctx.q
    roots_mult = np.array(
        [cmath.exp(2j * cmath.pi * k / (q - 1)) for k in range(q - 1)]
    )
    roots_add = np.array([cmath.exp(2j * cmath.pi * k / ctx.p) for k in range(ctx.p)])

    mult = np.zeros((q - 1, q), dtype=np.complex128)
    ks = np.arange(q - 1, dtype=np.int64)
    cols = np.asarray(ctx.exp_table, dtype=np.int64)
    mult[:, cols] = roots_mult[(ks[:, None] * ks[None, :]) % (q - 1)]

    add = roots_add[np.asarray(ctx.trace_table, dtype=np.int64)[ctx.mul_table]]

    return CharacterTable(ctx, *_read_only(mult, add))


def orthogonality_residuals(table: CharacterTable) -> dict[str, float]:
    """Max deviations of the four character orthogonality relations."""
    q = table.field.q
    ind = np.eye(q)  # row k: the indicator of index k
    return {
        "additive_char_sum": float(np.abs(table.add.sum(axis=0) / q - ind[0]).max()),
        "multiplicative_char_sum": float(
            np.abs(table.mult.sum(axis=0) / (q - 1) - ind[1]).max()
        ),
        "additive_element_sum": float(np.abs(table.add.sum(axis=1) / q - ind[0]).max()),
        "multiplicative_element_sum": float(
            np.abs(table.mult.sum(axis=1) / (q - 1) - ind[0, : q - 1]).max()
        ),
    }


# ---------------------------------------------------------------------------
# index subsets and function tables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndexSubset:
    """A subset of the coordinate positions range(r), stored as a bitmask."""

    r: int
    mask: int

    def __post_init__(self) -> None:
        if self.r < 0 or not 0 <= self.mask < (1 << self.r):
            raise BadSubset(f"mask {self.mask:#x} out of range for r={self.r}")

    @classmethod
    def from_members(cls, r: int, members: tuple[int, ...] | list[int]) -> "IndexSubset":
        mask = 0
        for k in members:
            if not 0 <= k < r:
                raise BadSubset(f"position {k} outside range({r})")
            mask |= 1 << k
        return cls(r, mask)

    @classmethod
    def full(cls, r: int) -> "IndexSubset":
        return cls(r, (1 << r) - 1)

    @classmethod
    def empty(cls, r: int) -> "IndexSubset":
        return cls(r, 0)

    def members(self) -> tuple[int, ...]:
        return tuple(k for k in range(self.r) if self.mask >> k & 1)

    @property
    def size(self) -> int:
        return bin(self.mask).count("1")

    def __contains__(self, k: int) -> bool:
        return 0 <= k < self.r and bool(self.mask >> k & 1)

    def subsets(self) -> Iterator["IndexSubset"]:
        """All subsets of this subset (in no particular order)."""
        sub = self.mask
        while True:
            yield IndexSubset(self.r, sub)
            if sub == 0:
                return
            sub = (sub - 1) & self.mask


def all_subsets(r: int) -> Iterator[IndexSubset]:
    for mask in range(1 << r):
        yield IndexSubset(r, mask)


@dataclass(frozen=True)
class FunctionTable:
    """A function GF(q)^t -> C as a dense complex array of shape (q,)*t."""

    q: int
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.complex128)
        if arr.shape != (self.q,) * arr.ndim:
            raise FqrankError(f"expected shape {(self.q,) * arr.ndim}, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise FqrankError("function values must be finite")
        # np.ascontiguousarray would promote 0-d to shape (1,); keep arity 0
        arr = np.array(arr, dtype=np.complex128, order="C")
        object.__setattr__(self, "values", _read_only(arr)[0])

    @property
    def arity(self) -> int:
        return self.values.ndim


def _units_block(values: np.ndarray) -> np.ndarray:
    return values[(slice(1, None),) * values.ndim]


def off_units_magnitude(f: FunctionTable) -> float:
    """Largest |f| over tuples having at least one zero coordinate."""
    if f.arity == 0:
        return 0.0
    total = np.abs(f.values)
    _units_block(total)[...] = 0.0
    return float(total.max())


def _check_subset(f: FunctionTable, subset: IndexSubset) -> None:
    if subset.r != f.arity:
        raise BadSubset(f"subset over range({subset.r}), function has arity {f.arity}")


def _check_table_field(f: FunctionTable, table: CharacterTable) -> None:
    if f.q != table.field.q:
        raise FqrankError(f"function over GF({f.q}), table over GF({table.field.q})")


def _check_tuple_cap(q: int, t: int) -> None:
    if not _power_at_most(q - 1, t, MAX_TUPLE_TABLE):
        raise FqrankError(
            f"character-tuple table (q-1)^t = {q - 1}^{t} exceeds {MAX_TUPLE_TABLE}"
        )


# ---------------------------------------------------------------------------
# restriction, Moebius transform over the subset lattice
# ---------------------------------------------------------------------------


def restrict_embed(f: FunctionTable, subset: IndexSubset) -> FunctionTable:
    """Restrict f to the coordinates in the subset, zero-filling the rest.

    The result g has arity |subset| with g(b) = f(a) where a places b on the
    subset's positions (in increasing order) and 0 elsewhere.
    """
    _check_subset(f, subset)
    idx = tuple(slice(None) if k in subset else 0 for k in range(f.arity))
    return FunctionTable(f.q, np.array(f.values[idx]))


def mobius_component(f: FunctionTable, subset: IndexSubset) -> FunctionTable:
    """Signed subset-sum component of f on the given coordinates.

    g(b) = sum over sub-subsets T of (-1)^(|S|-|T|) f(b restricted to T,
    zero-filled); computed by successive differencing g <- g - g[coord=0]
    per axis, which also makes the result exactly zero (in floating point)
    whenever some coordinate is zero.
    """
    _check_subset(f, subset)
    vals = np.array(restrict_embed(f, subset).values)
    for axis in range(vals.ndim):
        zero_slice = vals[(slice(None),) * axis + (slice(0, 1),)]
        vals = vals - zero_slice
    return FunctionTable(f.q, vals)


def mobius_reconstruct(components: Mapping[IndexSubset, FunctionTable], r: int) -> FunctionTable:
    """Sum the components back into a function of arity r.

    Inverse of taking all 2^r Moebius components; requires every subset of
    range(r) to be present.
    """
    try:
        some = components[IndexSubset.empty(r)]
    except KeyError as exc:
        raise MissingComponent(f"missing component for empty subset, r={r}") from exc
    q = some.q
    out = np.zeros((q,) * r, dtype=np.complex128)
    for subset in all_subsets(r):
        try:
            comp = components[subset]
        except KeyError as exc:
            raise MissingComponent(f"missing component for {subset.members()}") from exc
        shape = tuple(q if k in subset else 1 for k in range(r))
        out += comp.values.reshape(shape)
    return FunctionTable(q, out)


# ---------------------------------------------------------------------------
# Fourier transform against multiplicative-character tuples
# ---------------------------------------------------------------------------


def fourier_transform(f: FunctionTable, table: CharacterTable) -> np.ndarray:
    """Normalised transform of a function supported on tuples of units.

    Returns an array of shape (q-1,)*t whose [j1, ..., jt] entry is
    (q-1)^(-t) * sum f(a) * conj(chi_j1(a_1)) * ... * conj(chi_jt(a_t)).
    Raises NotSupportedOnUnits if f has mass > _OFF_UNITS_TOL (1e-12) on a
    zero coordinate, as the inversion formula only holds on the unit part
    of the domain.
    """
    _check_table_field(f, table)
    _check_tuple_cap(f.q, f.arity)
    off = off_units_magnitude(f)
    if off > _OFF_UNITS_TOL:
        raise NotSupportedOnUnits(f"mass {off:g} on a zero coordinate exceeds {_OFF_UNITS_TOL:g}")
    return units_transform(f, table)


def units_transform(f: FunctionTable, table: CharacterTable) -> np.ndarray:
    """Every coefficient fourier_coefficient would give, as one array.

    The sums run over unit tuples only, so no support check applies: on a
    function supported on units this is fourier_transform.  One tensordot
    per axis, contracting the coordinates in order.
    """
    _check_table_field(f, table)
    t = f.arity
    out = np.conj(_units_block(f.values))  # sum conj(chi) f = conj(sum chi conj(f)): no conjugated table copy
    for _ in range(t):
        out = np.moveaxis(np.tensordot(table.mult[:, 1:], out, axes=([1], [0])), 0, t - 1)
    return np.conj(out) / (table.field.q - 1) ** t


def fourier_inverse(fhat: np.ndarray, table: CharacterTable) -> FunctionTable:
    """Evaluate f(a) = sum over character tuples of fhat * chi products.

    Returns a FunctionTable over all of GF(q)^t; values at tuples with a
    zero coordinate come out 0 because chi(0) = 0.
    """
    q = table.field.q
    fhat = np.asarray(fhat, dtype=np.complex128)
    t = fhat.ndim
    if fhat.shape != (q - 1,) * t:
        raise FqrankError(f"expected shape {(q - 1,) * t}, got {fhat.shape}")
    out = fhat
    for _ in range(t):
        out = np.moveaxis(np.tensordot(table.mult, out, axes=([0], [0])), 0, t - 1)
    return FunctionTable(q, out)


def fourier_coefficient(
    f: FunctionTable, chis: tuple[int, ...], table: CharacterTable
) -> complex:
    """One transform coefficient, summing over unit tuples only.

    Unlike fourier_transform this never checks support: the definitional sum
    is taken over unit tuples, where chi(0) = 0 makes the two agree for
    supported inputs and gives the canonical extension otherwise.
    """
    _check_table_field(f, table)
    q = table.field.q
    if len(chis) != f.arity:
        raise FqrankError(f"{len(chis)} characters for arity {f.arity}")
    block = _units_block(f.values)
    for chi in chis:
        if not 0 <= chi < q - 1:
            raise FqrankError(f"character index {chi} outside range({q - 1})")
        block = np.tensordot(np.conj(table.mult[chi, 1:]), block, axes=([0], [0]))
    return complex(block) / (q - 1) ** f.arity


def component_transform_from_embedded(
    f: FunctionTable,
    subset: IndexSubset,
    chis: tuple[int, ...],
    table: CharacterTable,
) -> complex:
    """Transform coefficient of a Moebius component via embedded restrictions.

    Computes sum over T between {k in S : chi_k nontrivial} and S of
    (-1)^(|S|-|T|) times the coefficient of the T-restriction at the
    characters surviving on T.  Agrees with transforming the component
    directly; the alternating sum needs only restrictions of f.
    """
    _check_subset(f, subset)
    members = subset.members()
    if len(chis) != len(members):
        raise FqrankError(f"{len(chis)} characters for subset of size {len(members)}")
    required = 0
    for pos, k in enumerate(members):
        if chis[pos] != 0:
            required |= 1 << k
    total = 0.0 + 0.0j
    for sub in subset.subsets():
        if sub.mask & required != required:
            continue
        chis_t = tuple(chis[pos] for pos, k in enumerate(members) if k in sub)
        coeff = fourier_coefficient(restrict_embed(f, sub), chis_t, table)
        sign = -1 if (subset.size - sub.size) % 2 else 1
        total += sign * coeff
    return total


def mobius_fourier_reconstruct(f: FunctionTable, table: CharacterTable) -> FunctionTable:
    """Round-trip f through the component transforms of all subsets.

    Expands every Moebius component in characters and sums the expansions
    back over the subset lattice; the result must equal f.
    """
    back = {
        subset: fourier_inverse(fourier_transform(mobius_component(f, subset), table), table)
        for subset in all_subsets(f.arity)
    }
    return mobius_reconstruct(back, f.arity)


# ---------------------------------------------------------------------------
# the coordinate-sum indicator family and its trivial-character transforms
# ---------------------------------------------------------------------------


def sum_indicator(ctx: FieldCtx, a: int, r: int) -> FunctionTable:
    """Indicator of tuples whose field sum of coordinates equals a."""
    if not 0 <= a < ctx.q:
        raise FqrankError(f"element {a} outside range({ctx.q})")
    if r < 0:
        raise FqrankError(f"arity must be >= 0, got {r}")
    sums = np.zeros((), dtype=np.int16)
    coords = np.arange(ctx.q, dtype=np.int16)
    for _ in range(r):
        sums = _add_arrays(ctx, sums[..., None], coords)
    return FunctionTable(ctx.q, (sums == a).astype(np.complex128))


def jacobi_embedded_trivial(q: int, a: int, tsize: int) -> Fraction:
    """Closed form for the all-trivial transform coefficient of a zero-filled
    restriction of the sum indicator: 1/q - entry_bias(q,a)/(1-q)^tsize."""
    if tsize < 0:
        raise FqrankError(f"tsize must be >= 0, got {tsize}")
    return Fraction(1, q) - entry_bias(q, a) / Fraction((1 - q) ** tsize)


def jacobi_component_trivial(q: int, a: int, ssize: int) -> Fraction:
    """Closed form for the all-trivial transform coefficient of a Moebius
    component of the sum indicator: [ssize=0]/q - entry_bias*(1/q-1)^(-ssize)."""
    if ssize < 0:
        raise FqrankError(f"ssize must be >= 0, got {ssize}")
    lead = Fraction(1, q) if ssize == 0 else Fraction(0)
    return lead - entry_bias(q, a) * (Fraction(1, q) - 1) ** (-ssize)


# ---------------------------------------------------------------------------
# verification battery
# ---------------------------------------------------------------------------


def _random_table(q: int, t: int, rng: np.random.Generator, units_only: bool) -> FunctionTable:
    vals = rng.standard_normal((q,) * t) + 1j * rng.standard_normal((q,) * t)
    if units_only and t:
        mask = np.zeros((q,) * t, dtype=bool)
        mask[(slice(1, None),) * t] = True
        vals = np.where(mask, vals, 0.0)
    return FunctionTable(q, vals)


def verification_battery(
    ctx: FieldCtx, r: int = 2, seed: int = 0, trials: int = 3
) -> dict[str, dict[str, float | bool]]:
    """Residuals of every identity this module implements, with tolerances.

    Used by the command-line `lemmas` subcommand and the test suite.  Keys
    name the identity; each value carries the max residual observed, the
    tolerance, and the verdict.
    """
    if r < 0 or trials < 1:
        raise FqrankError(f"need r >= 0 and trials >= 1, got r={r}, trials={trials}")
    # 2^r Moebius components of q^r entries; (q-1)^r < (2q)^r keeps the character-tuple cap
    if not _power_at_most(2 * ctx.q, r, MAX_BATTERY_WORK):
        raise FqrankError(f"battery at (2q)^r = {2 * ctx.q}^{r} exceeds the cap 2^17")
    # plus q^2 work per field: its character table, and at r <= 1 the transforms and Jacobi checks
    work = (2 * ctx.q) ** r + ctx.q**2 // _TABLE_PER_WORK
    if work > MAX_BATTERY_WORK:
        raise FqrankError(f"battery at (2q)^r + q^2/{_TABLE_PER_WORK} = {work} at q = {ctx.q} "
                          f"exceeds the cap 2^17 = {MAX_BATTERY_WORK}")
    table = character_table(ctx)
    rng = np.random.default_rng(seed)
    q = ctx.q
    report: dict[str, dict[str, float | bool]] = {}

    def record(name: str, residual: float, tolerance: float) -> None:
        report[name] = {
            "residual": float(residual),
            "tolerance": tolerance,
            "ok": bool(residual <= tolerance),
        }

    ortho = orthogonality_residuals(table)
    for name, residual in ortho.items():
        record(f"orthogonality_{name}", residual, 1e-12)

    support_res = 0.0
    recon_res = 0.0
    consistency_res = 0.0
    mf_res = 0.0
    ft_res = 0.0
    for _ in range(trials):
        f = _random_table(q, r, rng, units_only=False)
        comps = {}
        for subset in all_subsets(r):
            comp = mobius_component(f, subset)
            comps[subset] = comp
            support_res = max(support_res, off_units_magnitude(comp))
        recon = mobius_reconstruct(comps, r)
        recon_res = max(recon_res, float(np.abs(recon.values - f.values).max()))
        mf = mobius_fourier_reconstruct(f, table)
        mf_res = max(mf_res, float(np.abs(mf.values - f.values).max()))

        g = _random_table(q, r, rng, units_only=True)
        back = fourier_inverse(fourier_transform(g, table), table)
        ft_res = max(ft_res, float(np.abs(back.values - g.values).max()))

        for subset in all_subsets(r):
            direct = fourier_transform(mobius_component(f, subset), table)
            n_tuples = (q - 1) ** subset.size
            if n_tuples <= 256:
                tuples = list(np.ndindex(*direct.shape))
            else:
                picks = rng.integers(0, q - 1, size=(64, subset.size))
                tuples = [tuple(int(v) for v in row) for row in picks]
            for chis in tuples:
                via_embedded = component_transform_from_embedded(f, subset, chis, table)
                consistency_res = max(
                    consistency_res, abs(via_embedded - complex(direct[chis]))
                )
    record("mobius_component_support", support_res, 1e-12)
    record("mobius_reconstruction", recon_res, 1e-12)
    record("fourier_round_trip", ft_res, 1e-10)
    record("mobius_fourier_inversion", mf_res, 1e-9)
    record("component_transform_consistency", consistency_res, 1e-10)

    jac_embedded = 0.0
    jac_component = 0.0
    for size in range(0, min(3, max(r, 1)) + 1):
        full = IndexSubset.full(size)
        trivial = (0,) * size
        for a in range(q):
            f_a = sum_indicator(ctx, a, size)
            brute_t = fourier_coefficient(restrict_embed(f_a, full), trivial, table)
            jac_embedded = max(
                jac_embedded, abs(brute_t - float(jacobi_embedded_trivial(q, a, size)))
            )
            brute_s = fourier_coefficient(mobius_component(f_a, full), trivial, table)
            jac_component = max(
                jac_component, abs(brute_s - float(jacobi_component_trivial(q, a, size)))
            )
    record("jacobi_embedded_trivial", jac_embedded, 1e-10)
    record("jacobi_component_trivial", jac_component, 1e-10)

    alt = 0
    for size in range(11):
        total = sum((-1) ** bin(sub).count("1") for sub in range(1 << size))
        alt = max(alt, abs(total - (1 if size == 0 else 0)))
    record("alternating_subset_identity", float(alt), 0.0)

    return report
