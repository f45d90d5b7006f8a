"""Closed-form counting and moment formulas for matrices over GF(q).

Everything here is exact rational arithmetic (`fractions.Fraction`); floats
appear only in thin convenience wrappers.  Counts like q**(m*n) overflow
64-bit integers almost immediately, and keeping the values exact makes the
cross-checks between independently derived formulas free of tolerance
juggling.

Conventions: the empty product is 1 and the empty sum is 0, so rank 0 is
admitted by every formula.  Total variation distance is the unnormalised L1
sum over outcomes, sum(|P1(N) - P2(N)|), which is the convention used
throughout this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import FqrankError
from .matrices import FieldMismatch, SubsetA


class RankOutOfRange(FqrankError):
    """Raised when a target rank is negative or exceeds a dimension bound."""


def _check_rank(r: int, *dims: int) -> None:
    """The one rank-range check: 0 <= r <= min(dims), else RankOutOfRange."""
    if r < 0 or (dims and r > min(dims)):
        raise RankOutOfRange(f"rank {r} not in [0, {min(dims) if dims else 0}]")


def rank_count(q: int, s: int, t: int, r: int) -> Fraction:
    """Number of s x t matrices over GF(q) of rank exactly r.

    prod_{i=0}^{r-1} (q^s - q^i)(q^t - q^i) / (q^r - q^i); always an integer
    (returned as a Fraction with denominator 1).  The two products are
    formed in integers and divided once.
    """
    if q < 2:
        raise FqrankError(f"field order must be >= 2, got {q}")
    _check_rank(r, s, t)
    num = den = 1
    for i in range(r):
        qi = q**i
        num *= (q**s - qi) * (q**t - qi)
        den *= q**r - qi
    out, rem = divmod(num, den)
    if rem:  # not an assert: python -O would strip it
        raise RuntimeError(f"rank count of {s} x {t} rank {r} over GF({q}) is not an integer")
    return Fraction(out)


def full_rank_pair_prob_exact(q: int, m: int, n: int, r: int) -> Fraction:
    """Probability that independent uniform m x r and r x n matrices both
    have rank r: prod_{i=0}^{r-1} (1 - q^(i-m))(1 - q^(i-n)), formed in
    integers and divided once, as `exact` computes it on every call."""
    if q < 2:
        raise FqrankError(f"field order must be >= 2, got {q}")
    _check_rank(r, m, n)
    num = den = 1
    for i in range(r):
        num *= (q ** (m - i) - 1) * (q ** (n - i) - 1)
        den *= q ** (m + n - 2 * i)
    return Fraction(num, den)


def full_rank_pair_prob(q: int, m: int, n: int, r: int) -> float:
    return float(full_rank_pair_prob_exact(q, m, n, r))


def tv_closed_form_exact(q: int, m: int, n: int, r: int) -> Fraction:
    """Exact total variation distance between the law of a product of two
    independent uniform factors (m x r times r x n) and the uniform law on
    rank-r matrices: 2 * (1 - full_rank_pair_prob)."""
    return 2 * (1 - full_rank_pair_prob_exact(q, m, n, r))


def tv_closed_form(q: int, m: int, n: int, r: int) -> float:
    return float(tv_closed_form_exact(q, m, n, r))


def entry_bias(q: int, a: int) -> Fraction:
    """Deviation coefficient of a single entry value: 1/q - 1 for the zero
    element, 1/q otherwise."""
    if not 0 <= a < q:
        raise FqrankError(f"element {a} outside range({q})")
    return Fraction(1, q) - (1 if a == 0 else 0)


def subset_bias(q: int, subset: SubsetA) -> Fraction:
    """Sum of entry_bias over the subset: |A|/q - [0 in A]."""
    if subset.q != q:
        raise FieldMismatch(f"subset over GF({subset.q}), expected GF({q})")
    return Fraction(subset.size, q) - (1 if 0 in subset else 0)


@dataclass(frozen=True)
class MomentParams:
    """Parameters of the normalised entry-count statistic: m, n >= 1, r in
    [0, min(m, n)] (else RankOutOfRange), a subset over GF(q) (else FieldMismatch)."""

    q: int
    r: int
    m: int
    n: int
    subset: SubsetA

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise FqrankError(f"dimensions must be >= 1, got {self.m} x {self.n}")
        _check_rank(self.r, self.m, self.n)
        if self.subset.q != self.q:
            raise FieldMismatch(f"subset over GF({self.subset.q}), field is GF({self.q})")


def asymptotic_ct_mean(params: MomentParams) -> Fraction:
    """Centering constant for the entry count: (|A|/q - gamma_A/q^r) * m*n.

    This is the limit-normalisation mean, not the exact finite-size mean of
    the entry count over rank-r matrices; the gap vanishes as m, n grow.
    """
    return _ct_mean(params.q, params.subset, params.r, params.m, params.n)


def _ct_mean(q: int, subset: SubsetA, r: int, m: int, n: int) -> Fraction:
    """asymptotic_ct_mean's formula, unchecked: r > min(m, n) is admitted."""
    return (Fraction(subset.size, q) - subset_bias(q, subset) / q**r) * (m * n)


def asymptotic_ct_variance(params: MomentParams) -> Fraction:
    """Scaling constant: gamma_A^2 * q^-r * (1 - q^-r) * (m + n) * m * n.

    Zero exactly when the subset is empty or all of GF(q) (or r = 0);
    callers that normalise must gate on that.
    """
    g = subset_bias(params.q, params.subset)
    qr = Fraction(1, params.q**params.r)
    return g * g * qr * (1 - qr) * (params.m + params.n) * params.m * params.n


def unconstrained_moments(q: int, subset: SubsetA, m: int, n: int) -> tuple[Fraction, Fraction]:
    """Mean and variance of the entry count when every entry is independent
    uniform over GF(q) (no rank conditioning): the binomial baseline."""
    s = Fraction(subset.size, q)
    return s * m * n, s * (1 - s) * m * n
