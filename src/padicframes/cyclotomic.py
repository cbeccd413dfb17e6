"""Exact arithmetic in the cyclotomic field Q(zeta_p).

Elements are stored in the power basis 1, zeta, ..., zeta**(p-2) with
Fraction coefficients; zeta**(p-1) is rewritten through the minimal
polynomial 1 + zeta + ... + zeta**(p-1) = 0, so equality is coefficient-wise.
For p = 2 the field degenerates to Q with zeta = -1.

Multiplication works on a redundant length-p vector (cyclic convolution,
since zeta**p = 1) followed by canonicalization: adding a constant multiple
of (1, 1, ..., 1) to the length-p vector does not change the element, so the
last slot is cleared by subtracting it from every slot.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import InvariantError, PrimeMismatchError
from .padic import is_prime, parse_rational

Rationalish = Union[int, Fraction]


@dataclass(frozen=True)
class CycloNumber:
    prime: int
    coeffs: tuple[Fraction, ...]  # length p-1, power basis

    def __post_init__(self):
        if not is_prime(self.prime):
            raise ValueError(f"not a prime: {self.prime}")
        if len(self.coeffs) != self.prime - 1:
            raise ValueError(
                f"need {self.prime - 1} coefficients, got {len(self.coeffs)}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value: Rationalish, p: int) -> "CycloNumber":
        coeffs = [Fraction(0)] * (p - 1)
        coeffs[0] = Fraction(value)
        return cls(p, tuple(coeffs))

    @classmethod
    def zero(cls, p: int) -> "CycloNumber":
        return cls.from_rational(0, p)

    @classmethod
    def one(cls, p: int) -> "CycloNumber":
        return cls.from_rational(1, p)

    @classmethod
    def _from_extended(cls, p: int, ext: Sequence[Fraction]) -> "CycloNumber":
        # ext has length p; clear the last slot using sum(zeta**k) = 0
        tail = ext[p - 1]
        return cls(p, tuple(c - tail for c in ext[: p - 1]))

    def _extended(self) -> list[Fraction]:
        return list(self.coeffs) + [Fraction(0)]

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "CycloNumber") -> None:
        if self.prime != other.prime:
            raise PrimeMismatchError(
                f"mixed primes {self.prime} and {other.prime}")

    def __add__(self, other: "CycloNumber") -> "CycloNumber":
        self._check(other)
        return CycloNumber(
            self.prime,
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycloNumber") -> "CycloNumber":
        self._check(other)
        return CycloNumber(
            self.prime,
            tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycloNumber":
        return CycloNumber(self.prime, tuple(-a for a in self.coeffs))

    def __mul__(self, other: "CycloNumber") -> "CycloNumber":
        self._check(other)
        p = self.prime
        ext = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for k, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                ext[(i + k) % p] += a * b
        return CycloNumber._from_extended(p, ext)

    def scale(self, r: Rationalish) -> "CycloNumber":
        r = Fraction(r)
        return CycloNumber(self.prime, tuple(r * a for a in self.coeffs))

    def __truediv__(self, other: "CycloNumber") -> "CycloNumber":
        return self * other.inverse()

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field structure ---------------------------------------------------

    def automorphism(self, k: int) -> "CycloNumber":
        """The field map zeta -> zeta**k, for k prime to p."""
        p = self.prime
        if k % p == 0:
            raise ValueError("automorphism index must be prime to p")
        ext = [Fraction(0)] * p
        for i, a in enumerate(self.coeffs):
            ext[(i * k) % p] += a
        return CycloNumber._from_extended(p, ext)

    def conjugate(self) -> "CycloNumber":
        """Complex conjugation, zeta -> zeta**(p-1)."""
        return self.automorphism(self.prime - 1)

    def norm_sq(self) -> "CycloNumber":
        """x * conj(x); fixed by conjugation."""
        return self * self.conjugate()

    def inverse(self) -> "CycloNumber":
        """Field inverse via the product of the nontrivial conjugates
        divided by the (rational) field norm."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        p = self.prime
        cofactor = CycloNumber.one(p)
        for k in range(2, p):
            cofactor = cofactor * self.automorphism(k)
        field_norm = self * cofactor
        if not field_norm.is_rational():
            raise InvariantError(f"field norm of {self} is not rational")
        return cofactor.scale(1 / field_norm.coeffs[0])

    def is_rational(self) -> bool:
        return all(a == 0 for a in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"not rational: {self}")
        return self.coeffs[0]

    # -- embeddings and display --------------------------------------------

    def to_complex(self) -> complex:
        """Double-precision image under zeta -> exp(2*pi*i/p)."""
        p = self.prime
        return sum(
            (float(a) * cmath.exp(2j * cmath.pi * k / p)
             for k, a in enumerate(self.coeffs) if a != 0),
            complex(0),
        )

    def zeta_powers(self) -> list[tuple[int, str]]:
        """Sparse serialization: (power, rational string) pairs."""
        return [(k, str(a)) for k, a in enumerate(self.coeffs) if a != 0]

    @classmethod
    def from_zeta_powers(cls, pairs, p: int) -> "CycloNumber":
        out = cls.zero(p)
        for power, literal in pairs:
            value = parse_rational(literal) if isinstance(literal, str) else Fraction(literal)
            out = out + root_of_unity(int(power), p).scale(value)
        return out

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
    """zeta**m in canonical form (m reduced mod p)."""
    m %= p
    ext = [Fraction(0)] * p
    ext[m] = Fraction(1)
    return CycloNumber._from_extended(p, ext)
