"""Wavelet basis labels, finite wavelet expansions, and the Haar oracle.

The basis function with label (gamma, n, j) is

    p**(-gamma/2) * chi(j * (p**gamma * x - n) / p) * Omega(|p**gamma x - n|_p)

with chi(y) = exp(2*pi*i*{y}) the standard additive character and Omega the
unit-ball indicator.  Symbolic computations never touch the p**(-gamma/2)
normalization: the basis is orthonormal and the affine action sends basis
elements to basis elements times p-th roots of unity, so everything stays in
Q(zeta_p).  Irrational factors appear only in the floating-point sampling
oracle below.

A function's ``mode`` names its coefficient field: ``ExactField`` (Q(zeta_p))
or ``FloatField`` (complex doubles, a cross-check).  Callers reach coefficient
arithmetic through ``f.field`` instead of branching on the mode.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .cyclotomic import CycloNumber, root_of_unity
from .errors import LatticeMismatchError, ModeMismatchError, ResolutionError
from .padic import (
    CosetRepresentative,
    digit_grid,
    ppow,
    rational_norm,
    rational_valuation,
    rep_mod,
)

EXACT = "exact"
FLOAT = "float"

Coeff = Union[CycloNumber, complex]


@dataclass(frozen=True, order=True)
class WaveletIndex:
    """Basis label: integer scale gamma, translation n in Q_p/Z_p, unit j.

    Labels key every expansion's term dict, so the hash over the compared
    fields (gamma, j, sort_key) is computed once, at construction.
    """

    gamma: int
    n: CosetRepresentative = field(compare=False)
    j: int
    sort_key: tuple = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n.modulus_exponent != 0:
            raise ValueError("translation must be reduced modulo Z_p")
        if not 1 <= self.j <= self.n.prime - 1:
            raise ValueError(f"j must lie in 1..{self.n.prime - 1}")
        sort_key = (self.gamma, self.n.value, self.j)
        object.__setattr__(self, "sort_key", sort_key)
        object.__setattr__(self, "_hash", hash((self.gamma, self.j, sort_key)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def prime(self) -> int:
        return self.n.prime

    def support_center(self) -> Fraction:
        return ppow(self.prime, -self.gamma) * self.n.value

    def translation_digits(self) -> int:
        """Number of base-p digit positions below zero used by n."""
        v = rational_valuation(self.n.value, self.prime)
        return 0 if self.n.value == 0 else -int(v)

    def __str__(self) -> str:
        return f"(gamma={self.gamma}, n={self.n.value}, j={self.j})"


def wavelet_index(gamma: int, n: Union[Fraction, int, str], j: int, p: int) -> WaveletIndex:
    """Convenience constructor taking n as a plain rational."""
    return WaveletIndex(gamma, CosetRepresentative(p, Fraction(n), 0), j)


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------


class ExactField:
    """Coefficients in Q(zeta_p) as ``CycloNumber``; every result is exact."""

    def zero(self, p: int) -> CycloNumber:
        return CycloNumber.zero(p)

    real_zero = zero  # the zero of squared norms and energies

    def one(self, p: int) -> CycloNumber:
        return CycloNumber.one(p)

    def conj(self, c: CycloNumber) -> CycloNumber:
        return c.conjugate()

    def nsq(self, c: CycloNumber) -> CycloNumber:
        return c.norm_sq()

    def phase(self, c: CycloNumber, m: int, p: int) -> CycloNumber:
        """Multiply by the p-th root of unity of exponent m."""
        return c if m % p == 0 else c * root_of_unity(m, p)

    def to_complex(self, c: CycloNumber) -> complex:
        return c.to_complex()

    def is_zero(self, c: CycloNumber) -> bool:
        return c.is_zero()

    def scale(self, value: CycloNumber, count: int) -> CycloNumber:
        return value.scale(count)

    def check(self, c, p: int) -> CycloNumber:
        if not isinstance(c, CycloNumber):
            raise ModeMismatchError("exact mode needs cyclotomic coefficients")
        if c.prime != p:
            raise ModeMismatchError("coefficient prime differs from function prime")
        return c

    def residual_is_zero(self, residual: CycloNumber, bound=None, g_nsq=None) -> bool:
        return residual.is_zero()


class FloatField:
    """Coefficients as ``complex`` doubles; squared norms, energies and
    residuals are ``float``, and residuals are zero within a tolerance."""

    def zero(self, p: int) -> complex:
        return complex(0)

    def real_zero(self, p: int) -> float:
        return 0.0

    def one(self, p: int) -> complex:
        return complex(1)

    def conj(self, c) -> complex:
        return complex(c).conjugate()

    def nsq(self, c) -> float:
        z = complex(c)
        return z.real * z.real + z.imag * z.imag

    def phase(self, c, m: int, p: int):
        if m % p == 0:
            return c
        return complex(c) * cmath.exp(2j * cmath.pi * (m % p) / p)

    def to_complex(self, c) -> complex:
        return complex(c)

    def is_zero(self, c) -> bool:
        return complex(c) == 0

    def scale(self, value, count: int):
        return value * count

    def check(self, c, p: int) -> complex:
        if isinstance(c, CycloNumber):
            raise ModeMismatchError("float mode needs complex coefficients")
        return complex(c)

    def residual_is_zero(self, residual, bound=None, g_nsq=None) -> bool:
        """|residual| <= 1e-9 * max(|bound * g_nsq|, 1)."""
        scale = abs(bound * g_nsq) if bound is not None and g_nsq is not None else 1.0
        return abs(residual) <= 1e-9 * max(scale, 1.0)


FIELDS = {EXACT: ExactField(), FLOAT: FloatField()}


# ---------------------------------------------------------------------------
# Finite wavelet expansions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TestFunction:
    """Finite mean-zero wavelet expansion sum C_idx * psi_idx."""

    prime: int
    mode: str
    terms: Mapping[WaveletIndex, Coeff]

    def __post_init__(self):
        if self.mode not in FIELDS:
            raise ValueError(f"unknown mode {self.mode!r}")
        field = FIELDS[self.mode]
        clean = {}
        for idx, c in self.terms.items():
            if idx.prime != self.prime:
                raise ModeMismatchError("index prime differs from function prime")
            c = field.check(c, self.prime)
            if not field.is_zero(c):
                clean[idx] = c
        object.__setattr__(self, "terms", clean)

    @property
    def field(self) -> Union[ExactField, FloatField]:
        """The coefficient field named by ``mode``."""
        return FIELDS[self.mode]

    @classmethod
    def single(cls, idx: WaveletIndex, mode: str = EXACT) -> "TestFunction":
        return cls(idx.prime, mode, {idx: FIELDS[mode].one(idx.prime)})

    def is_zero(self) -> bool:
        return not self.terms

    def sorted_terms(self) -> list[tuple[WaveletIndex, Coeff]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key)

    def gamma_min(self) -> int:
        return min(idx.gamma for idx in self.terms)

    def gamma_max(self) -> int:
        return max(idx.gamma for idx in self.terms)

    def scale_spread(self) -> int:
        return self.gamma_max() - self.gamma_min()

    def max_translation_digits(self) -> int:
        return max(idx.translation_digits() for idx in self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TestFunction):
            return NotImplemented
        return (self.prime, self.mode) == (other.prime, other.mode) \
            and dict(self.terms) == dict(other.terms)

    def __add__(self, other: "TestFunction") -> "TestFunction":
        if (self.prime, self.mode) != (other.prime, other.mode):
            raise ModeMismatchError("cannot add functions of different prime/mode")
        merged = dict(self.terms)
        for idx, c in other.terms.items():
            merged[idx] = merged[idx] + c if idx in merged else c
        return TestFunction(self.prime, self.mode, merged)

    def scaled(self, factor: Coeff) -> "TestFunction":
        return TestFunction(
            self.prime, self.mode,
            {idx: c * factor for idx, c in self.terms.items()})


# keep pytest from collecting the domain type as a test case
TestFunction.__test__ = False


def norm_sq(f: TestFunction):
    """Squared L2 norm, sum of coefficient norm squares (orthonormal basis)."""
    field = f.field
    total = field.real_zero(f.prime)
    for c in f.terms.values():
        total = total + field.nsq(c)
    return total


def inner_product_symbolic(f: TestFunction, g: TestFunction):
    """<f, g>: linear in the first slot, conjugate-linear in the second."""
    if f.prime != g.prime:
        raise ModeMismatchError("mixed primes")
    if f.mode != g.mode:
        raise ModeMismatchError("mixed coefficient modes")
    field = f.field
    total = field.zero(f.prime)
    for idx, cf in f.terms.items():
        cg = g.terms.get(idx)
        if cg is not None:
            total = total + cf * field.conj(cg)
    return total


# ---------------------------------------------------------------------------
# Pointwise evaluation and the Haar-measure oracle
# ---------------------------------------------------------------------------


def chi_complex(q: Fraction, p: int) -> complex:
    """Additive character exp(2*pi*i*{q}); exact fractional part, float exp."""
    frac = rep_mod(q, p, 0)
    if frac == 0:
        return complex(1)
    return cmath.exp(2j * cmath.pi * float(frac))


def wavelet_eval(idx: WaveletIndex, x: Union[Fraction, int]) -> complex:
    """Evaluate one basis function at a rational point.

    Any rational x is accepted: the indicator uses the exact norm and the
    character argument is reduced modulo Z_p exactly (prime-to-p denominator
    parts are p-adic units, inverted modularly).
    """
    x = Fraction(x)
    p = idx.prime
    y = ppow(p, idx.gamma) * x - idx.n.value
    if rational_norm(y, p) > 1:
        return complex(0)
    phase = chi_complex(Fraction(idx.j, p) * y, p)
    return p ** (-idx.gamma / 2) * phase


def evaluate_at(f: TestFunction, x: Union[Fraction, int]) -> complex:
    """Pointwise value of the expansion, in double precision."""
    return sum(
        (f.field.to_complex(c) * wavelet_eval(idx, x)
         for idx, c in f.terms.items()),
        complex(0),
    )


@dataclass(frozen=True)
class SampledFunction:
    """Values of a locally constant function on the lattice of canonical
    representatives of cosets of p**K Z_p inside the ball |x| <= p**L.
    Missing keys mean value zero."""

    prime: int
    resolution: int  # K
    support_exponent: int  # L
    values: Mapping[Fraction, complex]

    def lattice(self) -> tuple[int, int]:
        return (self.resolution, self.support_exponent)


def required_resolution(f: TestFunction) -> int:
    """Smallest K making every term constant on cosets of p**K Z_p."""
    return 1 - f.gamma_min() if f.terms else 0


def required_support(f: TestFunction) -> int:
    """Smallest L with every term supported in |x| <= p**L."""
    if not f.terms:
        return 0
    bounds = []
    for idx in f.terms:
        center_norm_exp = idx.translation_digits() - idx.gamma
        bounds.append(max(idx.gamma, center_norm_exp))
    return max(bounds)


def default_lattice(f: TestFunction) -> tuple[int, int]:
    """One step finer than strictly necessary, covering all supports."""
    return (required_resolution(f) + 1, max(required_support(f), 0))


def _term_lattice_points(idx: WaveletIndex, resolution: int) -> Iterable[Fraction]:
    """Canonical lattice representatives inside the support ball."""
    p = idx.prime
    center = idx.support_center()
    for offset in digit_grid(p, -idx.gamma, resolution):
        yield rep_mod(center + offset, p, resolution)


def sample(f: TestFunction, resolution: int, support_exponent: int) -> SampledFunction:
    """Materialize f on a finite coset lattice; exact by local constancy."""
    need_k = required_resolution(f)
    if f.terms and resolution < need_k:
        raise ResolutionError("resolution too coarse", need_k)
    need_l = required_support(f)
    if f.terms and support_exponent < need_l:
        raise ResolutionError("support window too small", need_l)
    values: dict[Fraction, complex] = {}
    for idx, c in f.terms.items():
        cz = f.field.to_complex(c)
        for x in _term_lattice_points(idx, resolution):
            values[x] = values.get(x, complex(0)) + cz * wavelet_eval(idx, x)
    values = {x: v for x, v in values.items() if v != 0}
    return SampledFunction(f.prime, resolution, support_exponent, values)


def inner_product_oracle(f: SampledFunction, g: SampledFunction) -> complex:
    """Haar integral sum f(x) * conj(g(x)) * p**(-K) over the shared lattice."""
    if f.prime != g.prime:
        raise LatticeMismatchError("mixed primes")
    if f.lattice() != g.lattice():
        raise LatticeMismatchError(
            f"lattice mismatch: {f.lattice()} vs {g.lattice()}")
    small, large, conj_small = (
        (f.values, g.values, False) if len(f.values) <= len(g.values)
        else (g.values, f.values, True))
    total = complex(0)
    for x, v in small.items():
        w = large.get(x)
        if w is None:
            continue
        total += (w * v.conjugate()) if conj_small else (v * w.conjugate())
    measure = float(ppow(f.prime, -f.resolution))
    return total * measure


def parseval_defect(f: TestFunction):
    """norm_sq(f) minus the sum of |<f, psi_idx>|^2 over the basis; zero on
    finite expansions by orthonormality.  Kept as an explicit check."""
    total = norm_sq(f)
    for idx in f.terms:
        probe = TestFunction.single(idx, f.mode)
        ip = inner_product_symbolic(f, probe)
        total = total - f.field.nsq(ip)
    return total
