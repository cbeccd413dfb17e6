"""Exact p-adic arithmetic over the rationals.

Scalars are exact ``fractions.Fraction`` values read p-adically under a fixed
prime.  Valuations, norms and canonical representatives are all computed
without rounding, by plain functions on ``(Fraction, p)`` pairs, on one
split of powers of p off an integer (``_p_part``).  A norm question
|x|_p <= p**g is decided as the valuation comparison v(x) >= -g.

A translation in Q_p / p**k Z_p is a :class:`CosetRepresentative`, stored on
integers as N / p**D.  It is checked once, at its public constructor, which
raises :class:`NotPIntegralError` for a denominator that is not a power of p;
the integer kernels of the other modules read and build it directly, and
``digit_grid`` walks digit strings in the order that some callers rely on.
``check_prime`` is the one prime check, made where p enters the library.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

from .errors import NotPIntegralError

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


def check_prime(p: int) -> None:
    """Raise ``ValueError`` unless p is prime."""
    if not is_prime(p):
        raise ValueError(f"not a prime: {p}")


def parse_rational(text: str) -> Fraction:
    """Parse the shared literal format ``"a/b"`` or ``"a"`` (optional sign);
    a zero denominator raises ``ValueError``."""
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def ppow(p: int, k: int) -> Fraction:
    """p**k as an exact Fraction, for any integer k."""
    if k >= 0:
        return Fraction(p**k)
    return Fraction(1, p ** (-k))


# ---------------------------------------------------------------------------
# Rational-level core
# ---------------------------------------------------------------------------


def _p_part(k: int, p: int) -> tuple[int, int]:
    """(e, r) with k == p**e * r and r prime to p, for an integer k != 0."""
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e, k


def rational_valuation(q: Fraction, p: int) -> Valuation:
    """Exponent of p in q; math.inf for q = 0."""
    if q == 0:
        return math.inf
    return _p_part(q.numerator, p)[0] - _p_part(q.denominator, p)[0]


def rational_norm(q: Fraction, p: int) -> Fraction:
    """|q|_p = p**(-valuation); 0 for q = 0."""
    if q == 0:
        return Fraction(0)
    return ppow(p, -rational_valuation(q, p))


def rep_mod(q: Fraction, p: int, k: int) -> Fraction:
    """Canonical representative of q modulo p**k Z_p, for any rational q.

    The result is the unique finite digit sum over exponents < k congruent
    to q.  With q = N / (p**e d) and d prime to p, 1/d is a p-adic integer,
    so the result is (N d^-1 mod p**(k + e)) / p**e; it is 0 when
    k + e <= 0, as q then lies in p**k Z_p.
    """
    e, d = _p_part(q.denominator, p)
    modulus = p ** max(k + e, 0)
    return Fraction(q.numerator * pow(d, -1, modulus) % modulus, p**e)


def digit_expansion(numerator: int, den_exponent: int, p: int) -> dict[int, int]:
    """Nonzero digits {exponent: digit} of numerator / p**den_exponent, for
    a numerator >= 0."""
    digits: dict[int, int] = {}
    pos = -den_exponent
    while numerator:
        numerator, r = divmod(numerator, p)
        if r:
            digits[pos] = r
        pos += 1
    return digits


def digit_grid(p: int, lo: int, hi: int) -> Iterator[int]:
    """Every digit string (d_lo, ..., d_(hi-1)) as the integer numerator N of
    its value N * p**lo = sum d_k p**k.

    Strings come in ``itertools.product`` order, the highest position varying
    fastest, which ``mra`` and ``wavelets.sample`` rely on; an empty window
    (hi <= lo) yields the single numerator 0.  Walks whose order does not
    matter take ``range(p**(hi - lo))``, the same numerators sorted.
    """
    grid = [0]
    for k in range(hi - lo):
        unit = p**k
        grid = [n + d * unit for n in grid for d in range(p)]
    yield from grid


# ---------------------------------------------------------------------------
# Value types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PadicScalar:
    """An exact rational read as an element of Q_p (p checked by the caller)."""

    value: Fraction
    p: int

    @classmethod
    def of(cls, value: Union[int, str, Fraction], p: int) -> "PadicScalar":
        if isinstance(value, str):
            value = parse_rational(value)
        return cls(Fraction(value), p)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True, init=False, repr=False)
class CosetRepresentative:
    """Canonical transversal element of Q_p / p**k Z_p, k = ``modulus_exponent``.

    The value is a finite digit sum over exponents < k, stored on integers as
    ``numerator`` / p**``den_exponent`` in lowest terms: den_exponent >= 0,
    p does not divide the numerator when den_exponent > 0, and
    0 <= numerator < p**(den_exponent + k).  That form is unique, so
    equality and hashing compare the four stored integers.

    ``CosetRepresentative(p, value, k)`` takes a rational value and checks
    that p is prime and the value canonical.  The keyword ``_den_exponent``
    is internal: with it, ``value`` is an integer numerator over
    p**_den_exponent (any integer exponent) whose value is already canonical
    modulo p**k, and it is only brought to lowest terms.
    """

    prime: int
    numerator: int
    den_exponent: int
    modulus_exponent: int

    def __init__(self, prime: int, value: Union[int, Fraction],
                 modulus_exponent: int, *, _den_exponent: Optional[int] = None):
        if _den_exponent is None:
            check_prime(prime)
            num = value.numerator
            d, den = _p_part(value.denominator, prime)
            if den != 1:
                raise NotPIntegralError(f"not p-integral denominator: {value}")
            if num and not 0 < num < prime ** max(d + modulus_exponent, 0):
                raise ValueError(
                    f"{value} is not a canonical representative modulo "
                    f"p**{modulus_exponent}")
        else:
            num, d = value, _den_exponent
            if d < 0:
                num, d = num * prime**-d, 0
            while d and num % prime == 0:
                num //= prime
                d -= 1
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "den_exponent", d)
        object.__setattr__(self, "modulus_exponent", modulus_exponent)

    @property
    def value(self) -> Fraction:
        return Fraction(self.numerator, self.prime**self.den_exponent)

    def numerator_over(self, k: int) -> int:
        """The integer value * p**k, for k >= den_exponent."""
        return self.numerator * self.prime ** (k - self.den_exponent)

    def digits(self) -> dict[int, int]:
        return digit_expansion(self.numerator, self.den_exponent, self.prime)

    def __repr__(self) -> str:
        return (f"CosetRepresentative(prime={self.prime!r}, value={self.value!r}, "
                f"modulus_exponent={self.modulus_exponent!r})")

    def __str__(self) -> str:
        return str(self.value)
