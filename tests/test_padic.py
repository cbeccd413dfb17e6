import copy
import dataclasses
import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_strategies import (
    NonUnitError,
    fraction_check_canonical,
    fraction_digit_expansion,
    fraction_digit_grid,
    loop_mod_p,
    loop_p_part,
    loop_rep_mod,
    loop_valuation,
    rationals,
)
from padicframes.affine import AffineElement, affine, compose, inverse
from padicframes.cyclotomic import CycloNumber, root_of_unity
from padicframes.errors import NotPIntegralError, PrimeMismatchError
from padicframes.frames import OrbitIndex
from padicframes.padic import (
    CosetRepresentative,
    _p_part,
    PadicScalar,
    digit_grid,
    parse_rational,
    ppow,
    rational_norm,
    rational_valuation,
    rep_mod,
)
from padicframes.wavelets import WaveletIndex, wavelet_index

PRIMES = [2, 3, 5, 7]


def valuation_by_division(q: Fraction, p: int):
    """Independent oracle: repeated division of numerator and denominator."""
    if q == 0:
        return math.inf
    count = 0
    num, den = q.numerator, q.denominator
    while num % p == 0:
        num //= p
        count += 1
    while den % p == 0:
        den //= p
        count -= 1
    return count


def greedy_fractional(q: Fraction, p: int) -> Fraction:
    """Independent oracle: extract digits greedily from the lowest exponent."""
    out = Fraction(0)
    rest = q
    level = valuation_by_division(q, p)
    while level < 0:
        step = ppow(p, level)
        digit = next(
            d for d in range(p)
            if valuation_by_division(rest - d * step, p) > level)
        out += digit * step
        rest -= digit * step
        level = valuation_by_division(rest, p)
        if rest == 0:
            break
    return out


def unit_part(q: Fraction, p: int) -> Fraction:
    """q * |q|_p, the norm-1 cofactor of p**valuation."""
    return q * rational_norm(q, p)


class TestValuationAndNorm:
    def test_valuation_of_twelve_base_two(self):
        assert rational_valuation(Fraction(12), 2) == 2

    def test_valuation_of_zero_is_infinite(self):
        assert rational_valuation(Fraction(0), 5) == math.inf

    def test_valuation_of_seven_ninths_base_three(self):
        x = Fraction(7, 9)
        assert valuation_by_division(x, 3) == -2
        assert rational_valuation(x, 3) == -2

    def test_norm_of_p(self):
        for p in PRIMES:
            assert rational_norm(Fraction(p), p) == Fraction(1, p)

    def test_norm_of_zero(self):
        assert rational_norm(Fraction(0), 3) == 0

    def test_norm_three_quarters_base_two(self):
        x = Fraction(3, 4)
        expected = ppow(2, -valuation_by_division(x, 2))
        assert expected == 4
        assert rational_norm(x, 2) == 4


class TestUnitPart:
    def test_p_squared(self):
        assert unit_part(Fraction(9), 3) == 1

    def test_two_thirds_base_three(self):
        u = unit_part(Fraction(2, 3), 3)
        assert u == 2
        assert rational_norm(u, 3) == 1

    def test_eighteen_base_three(self):
        assert unit_part(Fraction(18), 3) == 2

    def test_zero_rejected(self):
        # zero has no unit part: no power of p times a norm-1 unit gives it
        assert rational_valuation(Fraction(0), 3) == math.inf
        assert rational_norm(unit_part(Fraction(0), 3), 3) != 1

    def test_decomposition_exact(self):
        x = Fraction(45, 7)
        assert ppow(3, rational_valuation(x, 3)) * unit_part(x, 3) == x


class TestFractionalPart:
    def test_seven_quarters_base_two(self):
        assert greedy_fractional(Fraction(7, 4), 2) == Fraction(3, 4)
        assert rep_mod(Fraction(7, 4), 2, 0) == Fraction(3, 4)

    def test_integer_base_five(self):
        assert rep_mod(Fraction(5), 5, 0) == 0

    def test_already_reduced(self):
        assert rep_mod(Fraction(1, 3), 3, 0) == Fraction(1, 3)

    def test_negative_input(self):
        x = Fraction(-7, 4)
        rep = rep_mod(x, 2, 0)
        assert rep == greedy_fractional(x, 2)
        assert rational_norm(rep - x, 2) <= 1

    def test_non_p_power_denominator_rejected(self):
        with pytest.raises(NotPIntegralError, match="p-integral"):
            CosetRepresentative(3, Fraction(1, 2), 0)


class TestCosetRepresentative:
    def test_mixed_digit_input(self):
        x = Fraction(1, 3) + 3 + 9
        assert CosetRepresentative(3, rep_mod(x, 3, 1), 1).value == Fraction(1, 3)

    def test_small_power_untouched(self):
        assert CosetRepresentative(2, rep_mod(Fraction(4), 2, 3), 3).value == 4

    def test_zero(self):
        for k in (-2, 0, 5):
            assert CosetRepresentative(3, rep_mod(Fraction(0), 3, k), k).value == 0

    def test_congruence_invariant(self):
        x = Fraction(41, 27)
        for k in range(-2, 4):
            rep = CosetRepresentative(3, rep_mod(x, 3, k), k)
            assert rational_norm(rep.value - x, 3) <= ppow(3, -k)

    def test_canonical_validation(self):
        with pytest.raises(ValueError):
            CosetRepresentative(3, Fraction(4, 3), 0)  # 4/3 = 1/3 + 1, not reduced


def rational_mod_p(q: Fraction, p: int) -> int:
    """Residue of a p-adic integer in Z_p / p Z_p, read off
    ``rep_mod(q, p, 1)``: a second route to the residue of ``loop_mod_p``."""
    residue = rep_mod(q, p, 1)
    if residue.denominator != 1:
        raise NonUnitError("not a p-adic integer")
    return residue.numerator


class TestResidues:
    """Residues mod p by ``rational_mod_p``; the inverse of a unit x modulo
    p**k is the canonical representative ``rep_mod(1/x, p, k)``."""

    def test_mod_p_integer(self):
        assert rational_mod_p(Fraction(7), 3) == 1

    def test_mod_p_unit_fraction(self):
        assert rational_mod_p(Fraction(1, 2), 3) == 2

    def test_mod_p_positive_valuation(self):
        assert rational_mod_p(Fraction(3, 4), 3) == 0

    def test_mod_p_rejects_large_norm(self):
        with pytest.raises(NonUnitError):
            rational_mod_p(Fraction(1, 3), 3)

    def test_invert_one(self):
        for k in (1, 3):
            assert rep_mod(Fraction(1), 3, k) == 1

    def test_invert_two_mod_nine(self):
        assert rep_mod(1 / Fraction(2), 3, 2) == 5

    def test_invert_four_mod_three(self):
        assert rep_mod(1 / Fraction(4), 3, 1) == 1

    def test_invert_rejects_non_unit(self):
        # 1/3 is no p-adic integer, so 3 has no inverse modulo powers of 3
        with pytest.raises(NonUnitError):
            rational_mod_p(1 / Fraction(3), 3)

    def test_invert_fraction(self):
        x = Fraction(2, 5)
        y = rep_mod(1 / x, 3, 3)
        assert y.denominator == 1 and 0 <= y < 27
        assert rational_norm(x * y - 1, 3) <= ppow(3, -3)


class TestParsingAndContexts:
    def test_parse_shared_format(self):
        assert parse_rational("7/4") == Fraction(7, 4)
        assert parse_rational("-3") == -3
        assert parse_rational(" 5 ") == 5

    def test_parse_rejects_decimals(self):
        with pytest.raises(ValueError):
            parse_rational("1.5")

    @pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0", " 2/00 "])
    def test_parse_rejects_zero_denominator(self, text):
        with pytest.raises(ValueError, match="zero denominator") as info:
            parse_rational(text)
        assert type(info.value) is ValueError

    def test_prime_context_rejects_composites(self):
        with pytest.raises(ValueError, match="not a prime: 6"):
            affine(1, 0, 6)

    def test_mixed_context_arithmetic_rejected(self):
        one_2 = PadicScalar.of(1, 2)
        one_3 = PadicScalar.of(1, 3)
        with pytest.raises(PrimeMismatchError):
            AffineElement(one_2, one_3)
        with pytest.raises(PrimeMismatchError):
            compose(affine(1, 0, 2), affine(1, 0, 3))

    def test_scalar_arithmetic(self):
        # group composition (a, b)(a', b') = (a a', b + a b') is exact
        x, y = Fraction(3, 4), Fraction(2)
        assert compose(affine(x, 0, 5), affine(y, 0, 5)).a.value == Fraction(3, 2)
        assert compose(affine(1, -y, 5), affine(1, x, 5)).b.value == Fraction(-5, 4)
        assert compose(affine(x, 0, 5), inverse(affine(y, 0, 5))).a.value == Fraction(3, 8)
        assert inverse(affine(1, x, 5)).b.value == Fraction(-3, 4)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

p_strategy = st.sampled_from(PRIMES)


def p_power_rationals(p):
    return st.builds(
        lambda num, k: Fraction(num, p**k),
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=0, max_value=6))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_ultrametric_inequality(data):
    p = data.draw(p_strategy)
    x = data.draw(p_power_rationals(p))
    y = data.draw(p_power_rationals(p))
    nx, ny, ns = rational_norm(x, p), rational_norm(y, p), rational_norm(x + y, p)
    assert ns <= max(nx, ny)
    if nx != ny:
        assert ns == max(nx, ny)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_norm_multiplicativity(data):
    p = data.draw(p_strategy)
    x = data.draw(p_power_rationals(p))
    y = data.draw(p_power_rationals(p))
    assert rational_norm(x * y, p) == rational_norm(x, p) * rational_norm(y, p)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_fractional_part_properties(data):
    p = data.draw(p_strategy)
    x = data.draw(p_power_rationals(p))
    frac = rep_mod(x, p, 0)
    assert rational_norm(x - frac, p) <= 1
    assert rep_mod(frac, p, 0) == frac
    assert frac == greedy_fractional(x, p)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_coset_representative_congruence(data):
    p = data.draw(p_strategy)
    x = data.draw(p_power_rationals(p))
    k = data.draw(st.integers(min_value=-3, max_value=4))
    rep = rep_mod(x, p, k)
    assert rational_norm(x - rep, p) <= ppow(p, -k)
    assert rep == 0 or rational_norm(rep, p) > ppow(p, -k)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_unit_part_norm_one(data):
    p = data.draw(p_strategy)
    x = data.draw(p_power_rationals(p).filter(lambda q: q != 0))
    v = rational_valuation(x, p)
    u = x * rational_norm(x, p)
    assert rational_norm(u, p) == 1
    assert ppow(p, v) * u == x


def _product_loop(p, lo, hi):
    """The hand-rolled digit walk that digit_grid replaces."""
    positions = list(range(lo, hi))
    out = []
    for digits in itertools.product(range(p), repeat=len(positions)):
        n_value = Fraction(0)
        for pos, d in zip(positions, digits):
            n_value += d * ppow(p, pos)
        out.append(n_value)
    return out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("span", [0, 1, 2, 3])
def test_digit_grid_matches_product_loop(p, span):
    """Sorted, the grid is the range that order-free walks take instead."""
    for lo in (-3, -1, 0, 2):
        grid = list(digit_grid(p, lo, lo + span))
        assert [num * ppow(p, lo) for num in grid] == _product_loop(p, lo, lo + span)
        assert sorted(grid) == list(range(p**span))
        assert all(type(num) is int for num in grid)


def test_digit_grid_empty_window_yields_zero_once():
    assert list(digit_grid(3, 2, 2)) == [0]
    assert list(digit_grid(3, 2, -1)) == [0]


# ---------------------------------------------------------------------------
# The integer translation format against its Fraction oracles
# ---------------------------------------------------------------------------

k_strategy = st.integers(min_value=-3, max_value=3)


@st.composite
def candidate_values(draw, p, k):
    """Rationals near the canonical range modulo p**k: p-power denominators
    p**D, D <= 3, with numerators from just below 0 to just above
    p**(D + k), and now and then a cofactor prime to p in the denominator."""
    d = draw(st.integers(min_value=0, max_value=3))
    top = p ** max(d + k, 0)
    num = draw(st.one_of(st.integers(min_value=-2, max_value=top + 2),
                         st.sampled_from([top - 1, top, top + 1])))
    cofactor = draw(st.sampled_from([1, 1, 1, 1, p + 1, 2 * p + 1]))
    return Fraction(num, p**d * cofactor)


@st.composite
def canonical_representatives(draw, p, k):
    """(value, extra): a canonical value modulo p**k and how many spare
    powers of p to put into the numerator of its internal form."""
    d = draw(st.integers(min_value=0, max_value=3))
    value = rep_mod(Fraction(draw(st.integers(-10**4, 10**4)), p**d), p, k)
    return value, draw(st.integers(min_value=-3, max_value=3))


def trusted(p, value, k, extra):
    """``value`` through the internal path, as an integer numerator over
    p**(D + extra), D its digit count below zero; an exponent that would
    leave the numerator fractional falls back to D."""
    d = -min(rational_valuation(value, p), 0) if value else 0
    num = value * ppow(p, d + extra)
    if num.denominator != 1:
        extra, num = 0, value * ppow(p, d)
    return CosetRepresentative(p, num.numerator, k, _den_exponent=d + extra)


def _outcome(build):
    try:
        return build(), None
    except ValueError as exc:  # NotPIntegralError is a ValueError too
        return None, type(exc)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_public_constructor_matches_fraction_check(data):
    p = data.draw(st.sampled_from(PRIMES))
    k = data.draw(k_strategy)
    value = data.draw(candidate_values(p, k))
    rep, error = _outcome(lambda: CosetRepresentative(p, value, k))
    _, expected = _outcome(lambda: fraction_check_canonical(p, value, k))
    assert error is expected
    if rep is not None:
        assert rep.value == value
        assert rep.den_exponent >= 0 and 0 <= rep.numerator < p ** (rep.den_exponent + k)
        assert rep.den_exponent == 0 or rep.numerator % p != 0
        assert rep.digits() == fraction_digit_expansion(value, p)
        assert str(rep) == str(value)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trusted_path_equals_public_path(data):
    p = data.draw(st.sampled_from(PRIMES))
    k = data.draw(k_strategy)
    value, extra = data.draw(canonical_representatives(p, k))
    public = CosetRepresentative(p, value, k)
    inner = trusted(p, value, k, extra)
    assert inner == public and hash(inner) == hash(public)
    assert (inner.numerator, inner.den_exponent) == (public.numerator, public.den_exponent)
    assert repr(inner) == repr(public) and inner.value == value
    for big in range(public.den_exponent, public.den_exponent + 3):
        assert inner.numerator_over(big) == value * p**big


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_labels_agree_across_paths_and_survive_copies(data):
    p = data.draw(st.sampled_from(PRIMES))
    value, extra = data.draw(canonical_representatives(p, 0))
    gamma = data.draw(st.integers(min_value=-3, max_value=3))
    j = data.draw(st.integers(min_value=1, max_value=p - 1))
    public = wavelet_index(gamma, value, j, p)
    inner = WaveletIndex(gamma, trusted(p, value, 0, extra), j)
    assert inner == public and hash(inner) == hash(public)
    assert inner.sort_key == public.sort_key
    assert inner.translation_digits() == public.translation_digits()
    orbit = OrbitIndex(gamma, trusted(p, value, 0, extra), j)
    for label in (inner, public, orbit):
        for twin in (copy.copy(label), copy.deepcopy(label),
                     pickle.loads(pickle.dumps(label)), dataclasses.replace(label)):
            assert twin == label and hash(twin) == hash(label)
    moved = dataclasses.replace(inner, gamma=gamma + 1)
    assert moved == wavelet_index(gamma + 1, value, j, p)
    assert hash(moved) == hash(wavelet_index(gamma + 1, value, j, p))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(min_value=-3, max_value=3),
       st.integers(min_value=0, max_value=3))
def test_digit_grid_order_matches_fraction_grid(p, lo, span):
    grid = [num * ppow(p, lo) for num in digit_grid(p, lo, lo + span)]
    assert grid == list(fraction_digit_grid(p, lo, lo + span))


@pytest.mark.parametrize("p", [0, 1, 4, -3])
def test_public_constructors_refuse_non_primes(p):
    for build in (lambda: CosetRepresentative(p, Fraction(0), 0),
                  lambda: CosetRepresentative(p, Fraction(1, 4), 0),
                  lambda: wavelet_index(0, 0, 1, p),
                  lambda: wavelet_index(0, Fraction(1, 4), 1, p),
                  lambda: CycloNumber(p, (1,) * max(p - 1, 0)),
                  lambda: CycloNumber.zero(p),
                  lambda: CycloNumber.one(p),
                  lambda: CycloNumber.from_rational(Fraction(1, 2), p),
                  lambda: CycloNumber.from_zeta_powers([(1, "1/2")], p),
                  lambda: root_of_unity(1, p),
                  lambda: affine(1, 0, p),
                  lambda: affine("1/2", "1/4", p)):
        with pytest.raises(ValueError, match="not a prime") as info:
            build()
        assert type(info.value) is ValueError


def split_rationals(p):
    """Zero, p**k num / den with den prime to p, and numerators up to 10**6
    over p**0 .. p**6."""
    return st.one_of(st.just(Fraction(0)), rationals(p), p_power_rationals(p))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_split_matches_the_loop_oracles(data):
    """Valuation, canonical representative and residue through ``_p_part``
    equal the division-loop bodies they replaced, result types included."""
    p = data.draw(st.sampled_from(PRIMES))
    q = data.draw(split_rationals(p))
    k = data.draw(st.integers(min_value=-3, max_value=3))
    assert rational_valuation(q, p) == loop_valuation(q, p)
    rep = rep_mod(q, p, k)
    assert rep == loop_rep_mod(q, p, k) and type(rep) is Fraction
    assert _outcome(lambda: rational_mod_p(q, p)) == _outcome(lambda: loop_mod_p(q, p))
    for part in (q.numerator, q.denominator):
        if part:
            assert _p_part(part, p) == loop_p_part(part, p)

