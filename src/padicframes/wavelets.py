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
or ``FloatField`` (complex doubles, a cross-check).  A field holds only what
differs between the two: ``zero``, ``real_zero``, ``one``, ``nsq``, ``phase``,
``scale``, ``check``, ``residual_is_zero`` and ``agree`` (equality, or
equality up to rounding for doubles); callers reach those through
``f.field`` instead of branching on the mode, and call the coefficient
itself for ``conjugate()``, ``complex(c)`` and ``bool(c)``.  Labels have
checked p already, so the fields build constants and phases unchecked.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Union

from .cyclotomic import CycloNumber
from .errors import (
    LatticeMismatchError,
    ModeMismatchError,
    PrimeMismatchError,
    ResolutionError,
)
from .padic import (
    CosetRepresentative,
    check_prime,
    digit_grid,
    ppow,
    rational_valuation,
    rep_mod,
)

EXACT = "exact"
FLOAT = "float"

Coeff = Union[CycloNumber, complex]


@dataclass(frozen=True)
class WaveletIndex:
    """Basis label: integer scale gamma, translation n in Q_p/Z_p, unit j.

    Labels key every expansion's term dict, so the hash over the compared
    fields (gamma, n, j) is computed once, at construction.
    """

    gamma: int
    n: CosetRepresentative
    j: int
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n.modulus_exponent != 0:
            raise ValueError("translation must be reduced modulo Z_p")
        if not 1 <= self.j <= self.n.prime - 1:
            raise ValueError(f"j must lie in 1..{self.n.prime - 1}")
        object.__setattr__(self, "_hash", hash((self.gamma, self.n, self.j)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort_key(self) -> tuple:
        """Display order: by scale, rational translation, then unit."""
        return (self.gamma, self.n.value, self.j)

    @property
    def prime(self) -> int:
        return self.n.prime

    def support_center(self) -> Fraction:
        return ppow(self.prime, -self.gamma) * self.n.value

    def translation_digits(self) -> int:
        """Number of base-p digit positions below zero used by n."""
        return self.n.den_exponent

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
        return CycloNumber(p, (0,) * (p - 1), _den=1)

    real_zero = zero  # the zero of squared norms and energies

    def one(self, p: int) -> CycloNumber:
        return CycloNumber(p, (1,) + (0,) * (p - 2), _den=1)

    def nsq(self, c: CycloNumber) -> CycloNumber:
        return c.norm_sq()

    def phase(self, c: CycloNumber, m: int, p: int) -> CycloNumber:
        """Multiply by the p-th root of unity of exponent m."""
        return c.times_zeta(m)

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

    def agree(self, c: CycloNumber, d: CycloNumber) -> bool:
        return c == d


class FloatField:
    """Coefficients as ``complex`` doubles; squared norms, energies and
    residuals are ``float``, and residuals are zero within a tolerance."""

    def zero(self, p: int) -> complex:
        return complex(0)

    def real_zero(self, p: int) -> float:
        return 0.0

    def one(self, p: int) -> complex:
        return complex(1)

    def nsq(self, c) -> float:
        z = complex(c)
        return z.real * z.real + z.imag * z.imag

    def phase(self, c, m: int, p: int):
        if m % p == 0:
            return c
        return complex(c) * cmath.exp(2j * cmath.pi * (m % p) / p)

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

    def agree(self, c, d) -> bool:
        """c == d up to rounding: c - d is a zero residual against d."""
        return c == d or self.residual_is_zero(c - d, d, 1)


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
            if c:
                clean[idx] = c
        if not self.terms:  # a nonempty function's indices have checked p
            check_prime(self.prime)
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

    def agrees(self, other: "TestFunction") -> bool:
        """The same labels, with coefficients that ``field.agree``: equality
        for exact coefficients, equality up to rounding for doubles."""
        return self.terms.keys() == other.terms.keys() and all(
            self.field.agree(c, other.terms[idx]) for idx, c in self.terms.items())

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
        raise PrimeMismatchError("mixed primes")
    if f.mode != g.mode:
        raise ModeMismatchError("mixed coefficient modes")
    total = f.field.zero(f.prime)
    for idx, cf in f.terms.items():
        cg = g.terms.get(idx)
        if cg is not None:
            total = total + cf * cg.conjugate()
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

    Any rational x is accepted: the indicator is the valuation test
    v(y) >= 0 and the character argument is reduced modulo Z_p exactly
    (prime-to-p denominator parts are p-adic units, inverted modularly).
    """
    x = Fraction(x)
    p = idx.prime
    y = ppow(p, idx.gamma) * x - idx.n.value
    if rational_valuation(y, p) < 0:
        return complex(0)
    phase = chi_complex(Fraction(idx.j, p) * y, p)
    return p ** (-idx.gamma / 2) * phase


def evaluate_at(f: TestFunction, x: Union[Fraction, int]) -> complex:
    """Pointwise value of the expansion, in double precision."""
    return sum(
        (complex(c) * wavelet_eval(idx, x) for idx, c in f.terms.items()),
        complex(0),
    )


@dataclass(frozen=True)
class SampledFunction:
    """Values of a locally constant function on the lattice of canonical
    representatives of cosets of p**K Z_p inside the ball |x| <= p**L,
    keyed by the integer x of the point x / p**E, E = max(L, 0).
    Missing keys mean value zero."""

    prime: int
    resolution: int  # K
    support_exponent: int  # L
    values: Mapping[int, complex]

    def lattice(self) -> tuple[int, int]:
        return (self.resolution, self.support_exponent)


def required_resolution(f: TestFunction) -> int:
    """Smallest K making every term constant on cosets of p**K Z_p."""
    return 1 - f.gamma_min() if f.terms else 0


def required_support(f: TestFunction) -> int:
    """Smallest L with every term supported in |x| <= p**L.

    The term (gamma, n, j) lives on the ball of radius p**gamma around
    p**-gamma * n, whose norm is p**(gamma + D) when n has D digits.
    """
    if not f.terms:
        return 0
    return max(idx.gamma + idx.translation_digits() for idx in f.terms)


def default_lattice(f: TestFunction) -> tuple[int, int]:
    """One step finer than strictly necessary, covering all supports."""
    return (required_resolution(f) + 1, max(required_support(f), 0))


def sample(f: TestFunction, resolution: int, support_exponent: int) -> SampledFunction:
    """Materialize f on a finite coset lattice; exact by local constancy.

    A term (gamma, n = N / p**D, j) is supported on x = p**-gamma * (n + s)
    with s = sum d_k p**k over the digit positions 0 .. K + gamma - 1, and
    these x are already canonical representatives modulo p**K.  With
    E = max(L, 0) >= gamma + D every x * p**E = N * p**(E - gamma - D)
    + s * p**(E - gamma) is an integer, and the value there is
    c * p**(-gamma/2) * zeta**(j * s mod p), which depends on the lowest
    digit d_0 only.  So the p possible values are computed once per term and
    each point costs one integer add and one dict update on its key x * p**E.

    Terms are walked in ``f.terms`` order and s in ``digit_grid`` order (the
    highest position varying fastest), so every key is inserted and summed
    in the order of the pointwise evaluation; float sums over ``values``,
    such as ``inner_product_oracle``, keep their bits only in that order.
    """
    need_k = required_resolution(f)
    if f.terms and resolution < need_k:
        raise ResolutionError("resolution too coarse", need_k)
    need_l = required_support(f)
    if f.terms and support_exponent < need_l:
        raise ResolutionError("support window too small", need_l)
    p = f.prime
    exponent = max(support_exponent, 0)
    roots = [complex(1)] + [cmath.exp(2j * cmath.pi * (k / p)) for k in range(1, p)]
    sums: dict[int, complex] = {}
    for idx, c in f.terms.items():
        cz = complex(c)
        amp = p ** (-idx.gamma / 2)
        step = p ** (exponent - idx.gamma)
        base = idx.n.numerator_over(exponent - idx.gamma)
        # offsets of the digits at positions 1 .. K + gamma - 1, in grid order
        offsets = [o * step * p for o in digit_grid(p, 1, resolution + idx.gamma)]
        for d in range(p):  # the lowest digit varies slowest
            value = cz * (amp * roots[idx.j * d % p])
            start = base + d * step
            for o in offsets:
                x = start + o
                sums[x] = sums.get(x, 0j) + value
    return SampledFunction(p, resolution, support_exponent,
                           {x: v for x, v in sums.items() if v != 0})


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
