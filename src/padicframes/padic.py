"""Exact p-adic arithmetic over the rationals.

Scalars are exact ``fractions.Fraction`` values read p-adically under a fixed
prime context.  Valuations, norms and canonical coset representatives are all
computed without rounding; operations that need a terminating digit expansion
demand a p-power denominator and raise :class:`NotPIntegralError` otherwise.

Two layers are exposed: plain functions on ``(Fraction, p)`` pairs (used
internally by the heavier modules) and the :class:`PadicScalar` wrapper API.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import NonUnitError, NotPIntegralError, PrimeMismatchError

Valuation = Union[int, float]  # float only for math.inf at zero

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def is_prime(p: int) -> bool:
    """Primality by trial division; inputs here are desk-scale."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def parse_rational(text: str) -> Fraction:
    """Parse the shared literal format ``"a/b"`` or ``"a"`` (optional sign)."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def ppow(p: int, k: int) -> Fraction:
    """p**k as an exact Fraction, for any integer k."""
    if k >= 0:
        return Fraction(p**k)
    return Fraction(1, p ** (-k))


# ---------------------------------------------------------------------------
# Rational-level core
# ---------------------------------------------------------------------------


def rational_valuation(q: Fraction, p: int) -> Valuation:
    """Exponent of p in q; math.inf for q = 0."""
    if q == 0:
        return math.inf
    v = 0
    num = q.numerator
    den = q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def rational_norm(q: Fraction, p: int) -> Fraction:
    """|q|_p = p**(-valuation); 0 for q = 0."""
    if q == 0:
        return Fraction(0)
    return ppow(p, -rational_valuation(q, p))


def rational_unit_part(q: Fraction, p: int) -> Fraction:
    """q * |q|_p, the norm-1 cofactor of p**valuation."""
    if q == 0:
        raise NonUnitError("zero has no unit part")
    return q * rational_norm(q, p)


def has_p_power_denominator(q: Fraction, p: int) -> bool:
    den = q.denominator
    while den % p == 0:
        den //= p
    return den == 1


def rep_mod(q: Fraction, p: int, k: int) -> Fraction:
    """Canonical representative of q modulo p**k Z_p, for any rational q.

    The result is the unique finite digit sum over exponents < k congruent
    to q; the prime-to-p part of the denominator is absorbed exactly via a
    modular inverse (1/d is a p-adic integer when p does not divide d).
    """
    if q == 0:
        return Fraction(0)
    v = rational_valuation(q, p)
    if v >= k:
        return Fraction(0)
    # q = p^v * m / d with m, d prime to p; digits live at exponents v..k-1
    scaled = q * ppow(p, -v)
    m = scaled.numerator
    d = scaled.denominator
    modulus = p ** (k - v)
    digits_value = (m * pow(d, -1, modulus)) % modulus
    return digits_value * ppow(p, v)


def rational_mod_p(q: Fraction, p: int) -> int:
    """Residue of a p-adic integer in Z_p / p Z_p."""
    v = rational_valuation(q, p)
    if v is not math.inf and v < 0:
        raise NonUnitError("not a p-adic integer")
    if q == 0 or v >= 1:
        return 0
    return (q.numerator * pow(q.denominator, -1, p)) % p


def digit_expansion(q: Fraction, p: int) -> dict[int, int]:
    """Digits {exponent: digit} of a rational with a p-power denominator
    and finitely many digits (i.e. a canonical coset representative)."""
    digits: dict[int, int] = {}
    if q == 0:
        return digits
    v = rational_valuation(q, p)
    m = int(q * ppow(p, -v))
    pos = v
    while m:
        m, r = divmod(m, p)
        if r:
            digits[pos] = r
        pos += 1
    return digits


def digit_grid(p: int, lo: int, hi: int) -> Iterator[Fraction]:
    """The value sum d_k p**k of every digit string (d_lo, ..., d_(hi-1)).

    Strings come in ``itertools.product`` order, the highest position varying
    fastest; an empty window (hi <= lo) yields the single value 0.
    """
    unit = ppow(p, lo)
    for digits in itertools.product(range(p), repeat=max(hi - lo, 0)):
        yield unit * sum(d * p**k for k, d in enumerate(digits))


# ---------------------------------------------------------------------------
# Public wrapper types and operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrimeContext:
    """A fixed prime p; checked at construction."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"not a prime: {self.p}")


@dataclass(frozen=True)
class PadicScalar:
    """An exact rational read as an element of Q_p."""

    value: Fraction
    context: PrimeContext

    @classmethod
    def of(cls, value: Union[int, str, Fraction], context: PrimeContext) -> "PadicScalar":
        if isinstance(value, str):
            value = parse_rational(value)
        return cls(Fraction(value), context)

    @property
    def p(self) -> int:
        return self.context.p

    def _check(self, other: "PadicScalar") -> None:
        if self.context != other.context:
            raise PrimeMismatchError(
                f"mixed primes {self.p} and {other.p}")

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        return PadicScalar(self.value + other.value, self.context)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        return PadicScalar(self.value - other.value, self.context)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        return PadicScalar(self.value * other.value, self.context)

    def __truediv__(self, other: "PadicScalar") -> "PadicScalar":
        self._check(other)
        return PadicScalar(self.value / other.value, self.context)

    def __neg__(self) -> "PadicScalar":
        return PadicScalar(-self.value, self.context)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class CosetRepresentative:
    """Canonical transversal element of Q_p / p**k Z_p.

    ``value`` is a finite digit sum over exponents < ``modulus_exponent``;
    equivalently value == 0 or |value|_p > p**(-modulus_exponent).
    """

    prime: int
    value: Fraction
    modulus_exponent: int

    def __post_init__(self):
        if not has_p_power_denominator(self.value, self.prime):
            raise NotPIntegralError(
                f"not p-integral denominator: {self.value}")
        if rep_mod(self.value, self.prime, self.modulus_exponent) != self.value:
            raise ValueError(
                f"{self.value} is not a canonical representative modulo "
                f"p**{self.modulus_exponent}")

    def digits(self) -> dict[int, int]:
        return digit_expansion(self.value, self.prime)

    def norm(self) -> Fraction:
        return rational_norm(self.value, self.prime)

    def __str__(self) -> str:
        return str(self.value)


def valuation(x: PadicScalar) -> Valuation:
    """Largest gamma with x = p**gamma * (unit); math.inf for zero."""
    return rational_valuation(x.value, x.p)


def norm(x: PadicScalar) -> Fraction:
    """p-adic absolute value, an exact nonnegative rational."""
    return rational_norm(x.value, x.p)


def unit_part(x: PadicScalar) -> PadicScalar:
    """x * |x|_p; always has norm exactly 1."""
    return PadicScalar(rational_unit_part(x.value, x.p), x.context)


def _require_p_power_denominator(x: PadicScalar) -> None:
    if not has_p_power_denominator(x.value, x.p):
        raise NotPIntegralError(f"not p-integral denominator: {x.value}")


def fractional_part(x: PadicScalar) -> CosetRepresentative:
    """Canonical representative of x modulo Z_p (digits at exponents < 0)."""
    _require_p_power_denominator(x)
    return CosetRepresentative(x.p, rep_mod(x.value, x.p, 0), 0)


def coset_representative(x: PadicScalar, k: int) -> CosetRepresentative:
    """Canonical representative of x modulo p**k Z_p."""
    _require_p_power_denominator(x)
    return CosetRepresentative(x.p, rep_mod(x.value, x.p, k), k)


def mod_p(x: PadicScalar) -> int:
    """Digit at exponent 0: the residue of a p-adic integer mod p."""
    return rational_mod_p(x.value, x.p)


def invert_mod_pk(x: PadicScalar, k: int) -> int:
    """Integer y in [0, p**k) with x*y = 1 mod p**k; x must be a unit."""
    if rational_norm(x.value, x.p) != 1:
        raise NonUnitError(f"not a p-adic unit: {x.value}")
    if k <= 0:
        return 0
    modulus = x.p**k
    return (pow(x.value.numerator, -1, modulus) * x.value.denominator) % modulus
