"""Seeded random instances and named constructed instances.

Random draws are pure functions of the supplied ``random.Random`` state, so
a fixed seed reproduces a run byte for byte.  The ``random.Random`` calls a
generator makes, their arguments and their order are part of that contract,
because the benchmark's inputs are these draws.  A label draws its scale,
its translation depth, the lowest (nonzero) and then the higher digits, and
its unit.  A cyclotomic coefficient draws a term count of 1 or 2, then per
term an ``rng.choice`` among the 2 * magnitude nonzero integers of
[-magnitude, magnitude] and an exponent ``rng.randrange(p)``; it is drawn
again when the terms cancel.

Draws are built on integers: a translation as a numerator N over p**D, a
coefficient as its power-basis numerators over 1.  Only the draws that are
kept become ``CosetRepresentative``s and ``CycloNumber``s, built on their
internal paths.  p is checked once per public call.  A request that no draw
can meet raises ``ValueError`` before the first draw: an empty gamma range,
or more terms than the (gamma span) * p**max_digits * (p - 1) labels of the
grid.

The generic generator draws coefficients with pairwise distinct squared
moduli: a group element fixing the expansion must then fix every term
individually (the action permutes terms and multiplies by unimodular
phases), so the stabilizer provably equals the intersection of the per-term
stabilizers.  Two terms at one exponent reach every nonzero integer of
[-2 * magnitude, 2 * magnitude], so up to 2 * magnitude terms can always be
met; only a larger ``max_terms`` counts the distinct squared moduli of a
draw (6, 12 and 30 at p = 2, 3 and 5 for magnitude 3).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Optional

from .affine import AffineElement, act_on_function, affine, power
from .cyclotomic import CycloNumber, _convolve, _permute
from .errors import PadicError
from .padic import CosetRepresentative, check_prime, ppow
from .wavelets import EXACT, FIELDS, TestFunction, WaveletIndex, wavelet_index



def grid_labels(p: int, gamma_range, max_digits: int) -> int:
    """How many distinct labels ``random_index`` can draw:
    (gamma span) * p**max_digits * (p - 1), 0 for an empty gamma range."""
    lo, hi = gamma_range
    return max(hi - lo + 1, 0) * p**max(max_digits, 0) * (p - 1)


def _check_request(p: int, gamma_range, max_digits: int, terms: int) -> None:
    """Refuse, before any draw, ``terms`` distinct labels the grid cannot hold."""
    check_prime(p)
    lo, hi = gamma_range
    if lo > hi:
        raise ValueError(f"empty gamma range {tuple(gamma_range)}")
    if max_digits < 0:
        raise ValueError(f"max_digits must be nonnegative, got {max_digits}")
    labels = grid_labels(p, gamma_range, max_digits)
    if terms > labels:
        raise ValueError(
            f"{terms} terms exceed the {labels} labels of the grid gamma in "
            f"{tuple(gamma_range)}, {max_digits} translation digits at p = {p}")


def _coefficient_choices(magnitude: int) -> list[int]:
    if magnitude < 1:
        raise ValueError(f"magnitude must be at least 1, got {magnitude}")
    return [k for k in range(-magnitude, magnitude + 1) if k]


_MAGNITUDE = 3  # the coefficient bound of ``random_cyclo`` and the generators
_CHOICES = _coefficient_choices(_MAGNITUDE)


def _translation(rng: random.Random, p: int, max_digits: int) -> tuple[int, int]:
    """(N, D) of a canonical translation N / p**D with D <= max_digits: the
    lowest digit is nonzero and every digit is added at its weight."""
    depth = rng.randint(0, max_digits)
    if depth == 0:
        return 0, 0
    num, unit = rng.randint(1, p - 1), 1
    for _ in range(depth - 1):
        unit *= p
        num += rng.randint(0, p - 1) * unit
    return num, depth


def _labels(rng: random.Random, p: int, count: int, gamma_range,
            max_digits: int) -> list[WaveletIndex]:
    """``count`` distinct labels in display order (scale, translation, unit).

    A label is kept as (gamma, N, D, j), which is canonical, so distinct
    tuples are distinct labels, and N * p**(max_digits - D) orders the
    translations as their rational values do.
    """
    lo, hi = gamma_range
    drawn: set[tuple[int, int, int, int]] = set()
    while len(drawn) < count:
        gamma = rng.randint(lo, hi)
        num, den_exp = _translation(rng, p, max_digits)
        drawn.add((gamma, num, den_exp, rng.randint(1, p - 1)))
    ordered = sorted(drawn, key=lambda t: (t[0], t[1] * p ** (max_digits - t[2]), t[3]))
    return [WaveletIndex(gamma, CosetRepresentative(p, num, 0, _den_exponent=den_exp), j)
            for gamma, num, den_exp, j in ordered]


def _fold(ext: list[int]) -> tuple[int, ...]:
    """Power-basis numerators over 1 of the sum of ext[m] * zeta**m, m < p:
    the last slot is cleared through 1 + zeta + ... + zeta**(p-1) = 0."""
    tail = ext[-1]
    return tuple(x - tail for x in ext[:-1])


def _cyclo_numerators(rng: random.Random, p: int, choices: list[int]) -> tuple[int, ...]:
    """Numerators over 1 of a nonzero sum of one or two c * zeta**m, each
    term added into slot m of a length-p vector."""
    while True:
        ext = [0] * p
        for _ in range(rng.randint(1, 2)):
            c = rng.choice(choices)
            ext[rng.randrange(p)] += c
        num = _fold(ext)
        if any(num):
            return num


def _norm_sq_numerators(num: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Numerators over 1 of x * conj(x) for x = num / 1, as
    ``CycloNumber.norm_sq`` computes them; canonical, so equal squared moduli
    have equal tuples."""
    return tuple(_convolve(num, _permute(num, p - 1, 0, p), p))


def _norm_sq_count(p: int, choices: list[int]) -> int:
    """How many distinct squared moduli ``_cyclo_numerators`` can draw.
    A rotation keeps the modulus, so the first term can sit at zeta**0."""
    seen = set()
    for c1, c2, m in itertools.product(choices, [0, *choices], range(p)):
        ext = [c1] + [0] * (p - 1)
        ext[m] += c2
        num = _fold(ext)
        if any(num):
            seen.add(_norm_sq_numerators(num, p))
    return len(seen)


def random_translation(rng: random.Random, p: int, max_digits: int = 2) -> Fraction:
    """Canonical representative modulo Z_p with at most max_digits digits."""
    check_prime(p)
    if max_digits < 0:
        raise ValueError(f"max_digits must be nonnegative, got {max_digits}")
    num, den_exp = _translation(rng, p, max_digits)
    return Fraction(num, p**den_exp)


def random_index(rng: random.Random, p: int, gamma_range=(-2, 2),
                 max_digits: int = 2) -> WaveletIndex:
    _check_request(p, gamma_range, max_digits, 1)
    [idx] = _labels(rng, p, 1, gamma_range, max_digits)
    return idx


def random_cyclo(rng: random.Random, p: int, magnitude: int = _MAGNITUDE) -> CycloNumber:
    check_prime(p)
    num = _cyclo_numerators(rng, p, _coefficient_choices(magnitude))
    return CycloNumber(p, num, _den=1)


def random_complex(rng: random.Random, magnitude: int = 3) -> complex:
    if magnitude < 1:
        raise ValueError(f"magnitude must be at least 1, got {magnitude}")
    while True:
        z = complex(rng.randint(-magnitude, magnitude),
                    rng.randint(-magnitude, magnitude))
        if z != 0:
            return z


def random_test_function(rng: random.Random, p: int, max_terms: int = 4,
                         gamma_range=(-2, 2), max_digits: int = 2,
                         mode: str = EXACT,
                         n_terms: Optional[int] = None) -> TestFunction:
    if mode not in FIELDS:
        raise ValueError(f"unknown mode {mode!r}")
    _check_request(p, gamma_range, max_digits,
                   n_terms if n_terms is not None else max_terms)
    count = n_terms if n_terms is not None else rng.randint(1, max_terms)
    labels = _labels(rng, p, count, gamma_range, max_digits)
    if mode != EXACT:
        return TestFunction(p, mode, {idx: random_complex(rng) for idx in labels})
    return TestFunction(p, mode, {idx: CycloNumber(p, _cyclo_numerators(rng, p, _CHOICES),
                                                   _den=1) for idx in labels})


def random_generic_function(rng: random.Random, p: int, max_terms: int = 4,
                            gamma_range=(-2, 2), max_digits: int = 2) -> TestFunction:
    """Random expansion whose coefficient squared moduli are pairwise
    distinct, which certifies genericity outright (see module docstring)."""
    _check_request(p, gamma_range, max_digits, max_terms)
    if max_terms > 2 * _MAGNITUDE:
        moduli = _norm_sq_count(p, _CHOICES)
        if max_terms > moduli:
            raise ValueError(
                f"{max_terms} terms exceed the {moduli} distinct squared moduli "
                f"of a coefficient at p = {p}")
    count = rng.randint(1, max_terms)
    labels = _labels(rng, p, count, gamma_range, max_digits)
    while True:
        nums = [_cyclo_numerators(rng, p, _CHOICES) for _ in labels]
        if len({_norm_sq_numerators(num, p) for num in nums}) == len(nums):
            break
    return TestFunction(p, EXACT, {idx: CycloNumber(p, num, _den=1)
                                   for idx, num in zip(labels, nums)})


def random_affine(rng: random.Random, p: int, valuation_range=(-2, 2),
                  translation_digits: int = 2, magnitude: int = 9) -> AffineElement:
    """Group element with p-power denominators and desk-scale digits."""
    if magnitude < 1:
        raise ValueError(f"magnitude must be at least 1, got {magnitude}")
    while True:
        unit = rng.randint(-magnitude, magnitude)
        if unit and unit % p:
            break
    a = unit * ppow(p, rng.randint(*valuation_range))
    b = Fraction(rng.randint(-magnitude * p, magnitude * p),
                 p**rng.randint(0, translation_digits))
    return affine(a, b, p)


# ---------------------------------------------------------------------------
# Named instances
# ---------------------------------------------------------------------------


def _order_p_minus_1_unit(p: int) -> int:
    """A unit of multiplicative order exactly p-1 modulo p**2, returned as
    the balanced (smallest-magnitude) integer representative."""
    if p == 2:
        raise PadicError("needs an odd prime")
    mod = p * p
    for r in range(2, mod):
        if r % p in (0, 1):
            continue
        if pow(r, p - 1, mod) != 1:
            continue
        order = 1
        acc = r
        while acc % mod != 1:
            acc = acc * r % mod
            order += 1
        if order == p - 1:
            return r - mod if r > mod // 2 else r
    raise PadicError(f"no order-{p - 1} unit found modulo {mod}")


def non_generic_example(p: int = 3, j: int = 1) -> tuple[TestFunction, AffineElement]:
    """A mean-zero expansion fixed by a rotation that fixes none of its
    terms: sum over i of the i-th power of (r, 0) applied to the wavelet
    supported on |x - 1| <= 1/p, where r has order p-1 modulo p**2.
    Returns the function and the extra symmetry."""
    r = _order_p_minus_1_unit(p)
    witness = affine(r, 0, p)
    seed = TestFunction.single(wavelet_index(-1, Fraction(1, p), j, p))
    f = TestFunction(p, EXACT, {})
    for i in range(p - 1):
        f = f + act_on_function(power(witness, i), seed)
    return f, witness


def perturbed_generic_example(p: int = 3, j: int = 1) -> TestFunction:
    """Same construction with coefficients 1, 2, ..., p-1: the coefficient
    mismatch removes the extra symmetry."""
    r = _order_p_minus_1_unit(p)
    witness = affine(r, 0, p)
    seed = TestFunction.single(wavelet_index(-1, Fraction(1, p), j, p))
    f = TestFunction(p, EXACT, {})
    for i in range(p - 1):
        member = act_on_function(power(witness, i), seed)
        f = f + member.scaled(CycloNumber.from_rational(i + 1, p))
    return f


def base_wavelet(p: int, mode: str = EXACT) -> TestFunction:
    """The mother wavelet: scale 0, zero translation, j = 1."""
    return TestFunction.single(wavelet_index(0, 0, 1, p), mode)
