"""Finite fields GF(p^e) with table-driven arithmetic.

Field elements are plain integers in ``range(q)``.  The base-p digits of an
element index are the coefficients of its polynomial representative, least
significant digit first: index ``a`` stands for ``sum(digit_i * x**i)`` in
``GF(p)[x] / (modulus)``.  Hence 0 is the additive and 1 the multiplicative
identity for every field, and for prime ``q`` the index *is* the residue.

The modulus is the monic irreducible polynomial of degree ``e`` whose index
(under the same digit encoding, including the leading coefficient) is
smallest.  This makes the element encoding reproducible across runs and
machines: no randomness is involved in field construction.

All arithmetic is precomputed into numpy ``int16`` tables at construction
time, which caps the supported field size at ``q <= 4096`` (a ``q x q``
multiplication table of int16 is then at most 32 MiB).  Table lookups keep
the per-operation cost flat and let callers vectorise over numpy arrays of
element indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

MAX_ORDER = 4096


class FqrankError(ValueError):
    """Base of every error raised for bad input to the library.

    The command line reports any of them on stderr with exit code 2.
    """


class CompositeCharacteristic(FqrankError):
    """Raised when the requested characteristic is not a prime number."""


class FieldTooLarge(FqrankError):
    """Raised when the requested field order exceeds ``MAX_ORDER``."""


class DivisionByZero(ZeroDivisionError):
    """Raised on multiplicative inversion of the zero element."""


def _power_at_most(base: int, exp: int, cap: int) -> bool:
    """base**exp <= cap for base, exp >= 0, without building a huge power:
    past cap.bit_length() every base >= 2 already exceeds cap."""
    return base ** min(exp, cap.bit_length()) <= cap


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(p), coefficients low -> high
# ---------------------------------------------------------------------------


def _poly_mul_mod(a: list[int], b: list[int], modulus: list[int], p: int) -> list[int]:
    """Product of two coefficient vectors, reduced modulo a monic polynomial."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % p
    return _poly_mod(prod, modulus, p)


def _poly_mod(poly: list[int], modulus: list[int], p: int) -> list[int]:
    """Remainder of poly modulo a monic polynomial, padded to deg(modulus)."""
    rem = list(poly)
    deg = len(modulus) - 1
    for k in range(len(rem) - 1, deg - 1, -1):
        c = rem[k]
        if c:
            rem[k] = 0
            for j in range(deg):
                rem[k - deg + j] = (rem[k - deg + j] - c * modulus[j]) % p
    out = rem[:deg]
    out += [0] * (deg - len(out))
    return out


def _index_digits(idx: int, p: int, length: int) -> list[int]:
    digits = []
    for _ in range(length):
        digits.append(idx % p)
        idx //= p
    return digits


def _is_irreducible(poly: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree up to deg(poly)//2.

    Any factorisation of a degree-e polynomial has a factor of degree at most
    e//2, so this is a complete test.  Candidate counts stay tiny for the
    orders supported here (worst case p=2, e=12: 126 divisor candidates).
    """
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for low in range(p**d):
            den = _index_digits(low, p, d) + [1]
            if not any(_poly_mod(poly, den, p)):
                return False
    return True


def _smallest_irreducible(p: int, e: int) -> list[int]:
    """Monic irreducible of degree e over GF(p) with the smallest index."""
    for low in range(p**e):
        cand = _index_digits(low, p, e) + [1]
        if _is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """Immutable description of a constructed field."""

    p: int
    e: int
    q: int
    modulus: tuple[int, ...]  # coefficients low -> high, length e + 1, monic
    generator: int  # index of the fixed primitive element


@dataclass(frozen=True, eq=False)
class FieldCtx:
    """A finite field with fully materialised arithmetic tables.

    Obtain instances through :func:`make_field` (cached per ``(p, e)``) so
    that table construction happens once per process.  All tables use dtype
    int16 and are safe to index with numpy integer arrays.
    """

    spec: FieldSpec
    exp_table: np.ndarray = field(repr=False)  # shape (q-1,), exp_table[k] = g^k
    log_table: np.ndarray = field(repr=False)  # shape (q,), log of units; log[0] = 0 is a sentinel
    add_table: np.ndarray = field(repr=False)  # shape (q, q)
    mul_table: np.ndarray = field(repr=False)  # shape (q, q)
    neg_table: np.ndarray = field(repr=False)  # shape (q,)
    inv_table: np.ndarray = field(repr=False)  # shape (q,), inv[0] = 0 is a sentinel
    trace_table: np.ndarray = field(repr=False)  # shape (q,), values in range(p)

    @property
    def p(self) -> int:
        return self.spec.p

    @property
    def e(self) -> int:
        return self.spec.e

    @property
    def q(self) -> int:
        return self.spec.q

    @property
    def generator(self) -> int:
        return self.spec.generator

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in GF({self.q})")
        return int(self.inv_table[a])

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k < 0:
                raise DivisionByZero(f"0 has no inverse in GF({self.q})")
            return 1 if k == 0 else 0
        return int(self.exp_table[(int(self.log_table[a]) * k) % (self.q - 1)])

    def log(self, a: int) -> int:
        """Discrete log base the fixed generator; defined for units only."""
        if a == 0:
            raise DivisionByZero(f"0 has no discrete log in GF({self.q})")
        return int(self.log_table[a])

    def trace(self, a: int) -> int:
        """Absolute trace down to GF(p), returned as an integer in range(p)."""
        return int(self.trace_table[a])

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    def units(self) -> Iterator[int]:
        return iter(range(1, self.q))

    def element_digits(self, a: int) -> tuple[int, ...]:
        """Polynomial coefficients of an element, low degree first."""
        return tuple(_index_digits(a, self.p, self.e))

    def __repr__(self) -> str:  # noqa: D105
        return f"FieldCtx(q={self.q}, p={self.p}, e={self.e})"


def _gather(table: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """table[a, b] for a C-ordered q x q table and broadcastable int16 index
    arrays, as one 1-D take on the raveled table at a q + b: numpy's
    two-array fancy index is its slowest gather.  The flat index stays int16
    while q^2 <= 2^15, and is formed in intp from there on, where a q would
    wrap in int16 (from q = 191 among the fields supported)."""
    q = len(table)
    if q * q > 1 << 15:
        a = a.astype(np.intp)
    return table.take(a * q + b)


def _mul_arrays(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of broadcastable int16 index arrays, as int16."""
    return _gather(ctx.mul_table, a, b)


def _add_arrays(ctx: FieldCtx, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise sum of broadcastable int16 index arrays, as int16.

    For p = 2 an index's bits are its polynomial's coefficients, which add
    mod 2, so the sum is the XOR of the indices and reads no table."""
    return a ^ b if ctx.p == 2 else _gather(ctx.add_table, a, b)


def _build_tables(spec: FieldSpec) -> FieldCtx:
    p, e, q = spec.p, spec.e, spec.q
    modulus = list(spec.modulus)

    # exp/log from the fixed generator
    exp = np.zeros(max(q - 1, 1), dtype=np.int16)
    log = np.zeros(q, dtype=np.int16)
    g_digits = _index_digits(spec.generator, p, e)
    acc = _index_digits(1, p, e)
    weights = [p**i for i in range(e)]
    for k in range(q - 1):
        idx = sum(d * w for d, w in zip(acc, weights))
        exp[k] = idx
        log[idx] = k
        acc = _poly_mul_mod(acc, g_digits, modulus, p)
    ks = np.arange(q - 1)
    if not (log[exp] == ks).all():  # not an assert: python -O would strip it
        raise RuntimeError(f"{spec.generator} is not primitive in GF({q}): a power repeats")

    # Built before add, so the q x q temporaries of the two never coexist.
    # Log sums stay below 2q <= 8192, so int16 holds them.
    mul = exp[(log[:, None] + log) % (q - 1)]
    mul[0, :] = 0
    mul[:, 0] = 0

    # Addition and negation act digit by digit mod p: each pass puts digit i,
    # with place value w = p**i, above the tables of the lower digits.
    digits = np.arange(p, dtype=np.int16)
    add = np.zeros((1, 1), dtype=np.int16)
    neg = np.zeros(1, dtype=np.int16)
    for w in weights:
        high = (digits[:, None] + digits) % p * w
        add = (high[:, None, :, None] + add[None, :, None, :]).reshape(p * w, p * w)
        neg = ((-digits % p * w)[:, None] + neg).reshape(p * w)

    inv = np.zeros(q, dtype=np.int16)
    inv[exp] = exp[-ks % (q - 1)]

    # absolute trace a + a^p + ... + a^(p^(e-1)), evaluated on the unit cycle
    acc_tr = exp
    for i in range(1, e):
        acc_tr = _gather(add, acc_tr, exp[ks * pow(p, i, q - 1) % (q - 1)])
    trace = np.zeros(q, dtype=np.int16)
    trace[exp] = acc_tr
    if int(trace.max(initial=0)) >= p:  # not an assert: python -O would strip it
        raise RuntimeError(f"GF({q}) trace leaves the prime subfield GF({p})")

    return FieldCtx(
        spec=spec,
        exp_table=exp,
        log_table=log,
        add_table=add,
        mul_table=mul,
        neg_table=neg,
        inv_table=inv,
        trace_table=trace,
    )


def _find_generator(p: int, e: int, modulus: list[int]) -> int:
    """Smallest element index of multiplicative order q - 1."""
    q = p**e
    if q == 2:
        return 1
    factors = _prime_factors(q - 1)
    one = _index_digits(1, p, e)

    def raw_pow(base: list[int], k: int) -> list[int]:
        result = one
        sq = list(base)
        while k:
            if k & 1:
                result = _poly_mul_mod(result, sq, modulus, p)
            sq = _poly_mul_mod(sq, sq, modulus, p)
            k >>= 1
        return result

    for cand in range(2, q):
        digits = _index_digits(cand, p, e)
        if all(raw_pow(digits, (q - 1) // f) != one for f in factors):
            return cand
    raise AssertionError("no generator found")  # unreachable


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not hit the cached GF(2)
def make_field(p: int, e: int) -> FieldCtx:
    """Construct (and cache) the field GF(p^e).

    Raises :class:`FieldTooLarge` if p**e exceeds ``MAX_ORDER`` (first, for
    any p > MAX_ORDER), :class:`CompositeCharacteristic` if p is not prime,
    and :class:`FqrankError` for a non-positive extension degree.
    """
    if not isinstance(p, int) or not isinstance(e, int):
        raise TypeError("p and e must be plain ints")
    if e < 1:
        raise FqrankError(f"extension degree must be >= 1, got {e}")
    if p > MAX_ORDER:  # before the primality test, whose trial division grows as sqrt(p)
        raise FieldTooLarge(f"characteristic {p} exceeds the supported maximum order {MAX_ORDER}")
    if not _is_prime(p):
        raise CompositeCharacteristic(f"characteristic {p} is not prime")
    q = p**e
    if q > MAX_ORDER:
        raise FieldTooLarge(f"order {q} exceeds the supported maximum {MAX_ORDER}")
    modulus = _smallest_irreducible(p, e)
    generator = _find_generator(p, e, modulus)
    spec = FieldSpec(p=p, e=e, q=q, modulus=tuple(modulus), generator=generator)
    return _build_tables(spec)


def field_from_order(q: int) -> FieldCtx:
    """Construct GF(q) from a prime-power order.

    Raises :class:`FieldTooLarge` for q > ``MAX_ORDER`` before factoring q,
    whose trial division grows as sqrt(q), and :class:`CompositeCharacteristic`
    if q is not a prime power.
    """
    if q < 2:
        raise FqrankError(f"field order must be >= 2, got {q}")
    if q > MAX_ORDER:
        raise FieldTooLarge(f"order {q} exceeds the supported maximum {MAX_ORDER}")
    factors = _prime_factors(q)
    if len(factors) != 1:
        raise CompositeCharacteristic(f"{q} is not a prime power")
    p = factors[0]
    e = 0
    t = q
    while t > 1:
        t //= p
        e += 1
    return make_field(p, e)


def parse_field_spec(text: str) -> FieldCtx:
    """Parse "p^e" or a plain prime-power integer into a field."""
    left, caret, right = text.strip().partition("^")
    try:
        p = int(left)
        e = int(right) if caret else None
    except ValueError as exc:
        raise FqrankError(f"expected 'p^e' or a prime power, got {text!r}") from exc
    return make_field(p, e) if caret else field_from_order(p)
