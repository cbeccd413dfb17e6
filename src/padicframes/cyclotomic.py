"""Exact arithmetic in the cyclotomic field Q(zeta_p).

Elements are stored in the power basis 1, zeta, ..., zeta**(p-2) as a tuple
of integer numerators over one common denominator, with den > 0 and the gcd
of the numerators and den equal to 1.  zeta**(p-1) is rewritten through the
minimal polynomial 1 + zeta + ... + zeta**(p-1) = 0, so the form is canonical
and equality and hashing compare integers.  For p = 2 the field degenerates
to Q with zeta = -1.

Multiplication is an integer cyclic convolution on a redundant length-p
vector (zeta**p = 1) followed by one normalisation: adding a constant
multiple of (1, 1, ..., 1) to the length-p vector does not change the
element, so the last slot is cleared by subtracting it from every slot, and
the common gcd is divided out once.  Field automorphisms zeta -> zeta**k and
phases x -> zeta**m x move the slots of that vector by one index map,
i -> i*k + m mod p, and keep the denominator: both map Z[zeta] onto itself,
so the content does not change, and a phase needs no product and no gcd.
Rational coefficients appear only at the boundary: the public constructors,
``coeffs`` and display.

Only the public constructors (``CycloNumber(p, coeffs)``, ``from_rational``,
``zero``, ``one``, ``from_zeta_powers`` and ``root_of_unity``) check that p
is prime, once each; arithmetic results, and the constants of
``wavelets.ExactField``, are built on the internal ``_den`` path.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, lcm
from typing import Sequence, Union

from .errors import InvariantError, PrimeMismatchError
from .padic import check_prime, parse_rational

Rationalish = Union[int, Fraction]


def _convolve(x: Sequence[int], y: Sequence[int], p: int) -> list[int]:
    """Integer numerators of x * y in the power basis, not yet reduced."""
    ext = [0] * (2 * p - 2)
    for i, a in enumerate(x):
        if a:
            for k, b in enumerate(y, i):
                if b:
                    ext[k] += a * b
    # zeta**p = 1 folds the high half back, then the zeta**(p-1) slot is
    # cleared through the minimal polynomial
    for k in range(p, 2 * p - 2):
        ext[k - p] += ext[k]
    tail = ext[p - 1]
    return [c - tail for c in ext[: p - 1]]


def _permute(x: Sequence[int], k: int, m: int, p: int) -> list[int]:
    """Integer numerators of zeta**m times the image of x under
    zeta -> zeta**k: slot i moves to i*k + m mod p."""
    ext = [0] * p
    for i, a in enumerate(x):
        ext[(i * k + m) % p] += a
    tail = ext[p - 1]
    return [c - tail for c in ext[: p - 1]]


def _reduced(p: int, num: Sequence[int], den: int) -> "CycloNumber":
    """The element num/den, for den > 0, with the common gcd divided out."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [n // g for n in num]
            den //= g
    return CycloNumber(p, tuple(num), _den=den)


@dataclass(frozen=True, init=False, repr=False)
class CycloNumber:
    """An immutable element of Q(zeta_p).

    ``CycloNumber(p, coeffs)`` takes p - 1 rational power-basis coefficients.
    The keyword ``_den`` is internal: with it, ``coeffs`` are integer
    numerators already reduced over that denominator.
    """

    prime: int
    _num: tuple[int, ...]
    _den: int

    def __init__(self, prime: int, coeffs: Sequence[Rationalish], *,
                 _den: int = 0):
        if _den:
            num, den = coeffs, _den
        else:
            check_prime(prime)
            if len(coeffs) != prime - 1:
                raise ValueError(
                    f"need {prime - 1} coefficients, got {len(coeffs)}")
            fracs = [Fraction(c) for c in coeffs]
            # the lcm of reduced denominators leaves no common factor
            den = lcm(*(q.denominator for q in fracs))
            num = tuple(q.numerator * (den // q.denominator) for q in fracs)
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The p - 1 power-basis coefficients."""
        den = self._den
        return tuple(Fraction(n, den) for n in self._num)

    def __repr__(self) -> str:
        return f"CycloNumber(prime={self.prime!r}, coeffs={self.coeffs!r})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rationalish, p: int) -> "CycloNumber":
        check_prime(p)
        q = Fraction(value)
        return cls(p, (q.numerator,) + (0,) * (p - 2), _den=q.denominator)

    @classmethod
    def zero(cls, p: int) -> "CycloNumber":
        return cls.from_rational(0, p)

    @classmethod
    def one(cls, p: int) -> "CycloNumber":
        return cls.from_rational(1, p)

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "CycloNumber") -> None:
        if self.prime != other.prime:
            raise PrimeMismatchError(
                f"mixed primes {self.prime} and {other.prime}")

    def _addsub(self, other: "CycloNumber", sign: int) -> "CycloNumber":
        self._check(other)
        a, b = self._den, other._den
        if a == b:
            num = [x + sign * y for x, y in zip(self._num, other._num)]
            return _reduced(self.prime, num, a)
        g = gcd(a, b)
        ma, mb = b // g, sign * (a // g)
        num = [x * ma + y * mb for x, y in zip(self._num, other._num)]
        return _reduced(self.prime, num, a * ma)

    def __add__(self, other: "CycloNumber") -> "CycloNumber":
        return self._addsub(other, 1)

    def __sub__(self, other: "CycloNumber") -> "CycloNumber":
        return self._addsub(other, -1)

    def __neg__(self) -> "CycloNumber":
        return CycloNumber(
            self.prime, tuple(-n for n in self._num), _den=self._den)

    def __mul__(self, other: "CycloNumber") -> "CycloNumber":
        self._check(other)
        p = self.prime
        return _reduced(p, _convolve(self._num, other._num, p),
                        self._den * other._den)

    def scale(self, r: Rationalish) -> "CycloNumber":
        if isinstance(r, int):
            n, d = r, 1
        else:
            q = Fraction(r)
            n, d = q.numerator, q.denominator
        return _reduced(self.prime, [n * a for a in self._num], self._den * d)

    def __truediv__(self, other: "CycloNumber") -> "CycloNumber":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return not any(self._num)

    def __bool__(self) -> bool:
        return any(self._num)

    # -- field structure ---------------------------------------------------

    def automorphism(self, k: int) -> "CycloNumber":
        """The field map zeta -> zeta**k, for k prime to p."""
        p = self.prime
        if k % p == 0:
            raise ValueError("automorphism index must be prime to p")
        return CycloNumber(p, tuple(_permute(self._num, k, 0, p)), _den=self._den)

    def times_zeta(self, m: int) -> "CycloNumber":
        """zeta**m * self, by rotating the numerator slots."""
        p = self.prime
        if m % p == 0:
            return self
        return CycloNumber(p, tuple(_permute(self._num, 1, m, p)), _den=self._den)

    def conjugate(self) -> "CycloNumber":
        """Complex conjugation, zeta -> zeta**(p-1)."""
        return self.automorphism(self.prime - 1)

    def norm_sq(self) -> "CycloNumber":
        """x * conj(x); fixed by conjugation."""
        return self * self.conjugate()

    def inverse(self) -> "CycloNumber":
        """Field inverse via the product of the nontrivial conjugates
        divided by the (rational) field norm.

        With x = N/den, the cofactor and the norm are computed on the
        integer numerators N, and x**-1 = den * cofactor(N) / norm(N).
        """
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        p, num = self.prime, self._num
        cofactor = [1] + [0] * (p - 2)
        for k in range(2, p):
            cofactor = _convolve(cofactor, _permute(num, k, 0, p), p)
        field_norm = CycloNumber(p, tuple(_convolve(num, cofactor, p)), _den=1)
        if not field_norm.is_rational():
            raise InvariantError(f"field norm of {self} is not rational")
        norm = field_norm._num[0]
        if norm < 0:
            norm, cofactor = -norm, [-c for c in cofactor]
        return _reduced(p, [self._den * c for c in cofactor], norm)

    def is_rational(self) -> bool:
        return not any(self._num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return Fraction(self._num[0], self._den)

    # -- embeddings and display --------------------------------------------

    def to_complex(self) -> complex:
        """Double-precision image under zeta -> exp(2*pi*i/p)."""
        p, den = self.prime, self._den
        return sum(
            (n / den * cmath.exp(2j * cmath.pi * k / p)
             for k, n in enumerate(self._num) if n),
            complex(0),
        )

    __complex__ = to_complex

    def zeta_powers(self) -> list[tuple[int, str]]:
        """Sparse serialization: (power, rational string) pairs."""
        return [(k, str(a)) for k, a in enumerate(self.coeffs) if a != 0]

    @classmethod
    def from_zeta_powers(cls, pairs, p: int) -> "CycloNumber":
        """The sum of literal * zeta**power over (power, literal) pairs.

        A power must be an ``int``; a literal is an ``"a/b"`` string or a
        number.  Bools, non-integer powers and non-finite floats raise
        ``TypeError``/``ValueError`` instead of being cast.  The literals
        fold into one length-p vector, whose last slot is then cleared.
        """
        check_prime(p)
        ext = [Fraction(0)] * p
        for power, literal in pairs:
            if isinstance(power, bool) or not isinstance(power, int):
                raise TypeError(f"zeta power must be an integer, got {power!r}")
            if isinstance(literal, bool) or (
                    isinstance(literal, float) and not isfinite(literal)):
                raise ValueError(
                    f"zeta coefficient must be a finite number, got {literal!r}")
            ext[power % p] += parse_rational(literal) if isinstance(literal, str) \
                else Fraction(literal)
        fracs = [c - ext[p - 1] for c in ext[: p - 1]]
        den = lcm(*(q.denominator for q in fracs))
        return cls(p, tuple(q.numerator * (den // q.denominator) for q in fracs), _den=den)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k, a in enumerate(self.coeffs):
            if a == 0:
                continue
            parts.append(str(a) if k == 0 else f"({a})*z^{k}")
        return " + ".join(parts)


def root_of_unity(m: int, p: int) -> CycloNumber:
    """zeta**m in canonical form: the rotation of one by m."""
    check_prime(p)
    return CycloNumber(p, tuple(_permute((1,) + (0,) * (p - 2), 1, m, p)), _den=1)
