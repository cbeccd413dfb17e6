import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicframes.errors import NonUnitError, NotPIntegralError, PrimeMismatchError
from padicframes.padic import (
    CosetRepresentative,
    PadicScalar,
    PrimeContext,
    coset_representative,
    digit_grid,
    fractional_part,
    invert_mod_pk,
    mod_p,
    norm,
    parse_rational,
    ppow,
    rational_norm,
    rational_valuation,
    rep_mod,
    unit_part,
    valuation,
)

PRIMES = [2, 3, 5, 7]


def scalar(value, p):
    return PadicScalar.of(value, PrimeContext(p))


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


class TestValuationAndNorm:
    def test_valuation_of_twelve_base_two(self):
        assert valuation(scalar(12, 2)) == 2

    def test_valuation_of_zero_is_infinite(self):
        assert valuation(scalar(0, 5)) == math.inf

    def test_valuation_of_seven_ninths_base_three(self):
        x = Fraction(7, 9)
        assert valuation_by_division(x, 3) == -2
        assert valuation(scalar(x, 3)) == -2

    def test_norm_of_p(self):
        for p in PRIMES:
            assert norm(scalar(p, p)) == Fraction(1, p)

    def test_norm_of_zero(self):
        assert norm(scalar(0, 3)) == 0

    def test_norm_three_quarters_base_two(self):
        x = Fraction(3, 4)
        expected = ppow(2, -valuation_by_division(x, 2))
        assert expected == 4
        assert norm(scalar(x, 2)) == 4


class TestUnitPart:
    def test_p_squared(self):
        assert unit_part(scalar(9, 3)).value == 1

    def test_two_thirds_base_three(self):
        x = scalar(Fraction(2, 3), 3)
        u = unit_part(x)
        assert u.value == 2
        assert norm(u) == 1

    def test_eighteen_base_three(self):
        assert unit_part(scalar(18, 3)).value == 2

    def test_zero_rejected(self):
        with pytest.raises(NonUnitError):
            unit_part(scalar(0, 3))

    def test_decomposition_exact(self):
        x = scalar(Fraction(45, 7), 3)
        g = valuation(x)
        assert ppow(3, g) * unit_part(x).value == x.value


class TestFractionalPart:
    def test_seven_quarters_base_two(self):
        assert greedy_fractional(Fraction(7, 4), 2) == Fraction(3, 4)
        assert fractional_part(scalar(Fraction(7, 4), 2)).value == Fraction(3, 4)

    def test_integer_base_five(self):
        assert fractional_part(scalar(5, 5)).value == 0

    def test_already_reduced(self):
        assert fractional_part(scalar(Fraction(1, 3), 3)).value == Fraction(1, 3)

    def test_negative_input(self):
        x = Fraction(-7, 4)
        rep = fractional_part(scalar(x, 2))
        assert rep.value == greedy_fractional(x, 2)
        assert rational_norm(rep.value - x, 2) <= 1

    def test_non_p_power_denominator_rejected(self):
        with pytest.raises(NotPIntegralError, match="p-integral"):
            fractional_part(scalar(Fraction(1, 2), 3))


class TestCosetRepresentative:
    def test_mixed_digit_input(self):
        x = Fraction(1, 3) + 3 + 9
        assert coset_representative(scalar(x, 3), 1).value == Fraction(1, 3)

    def test_small_power_untouched(self):
        assert coset_representative(scalar(4, 2), 3).value == 4

    def test_zero(self):
        for k in (-2, 0, 5):
            assert coset_representative(scalar(0, 3), k).value == 0

    def test_congruence_invariant(self):
        x = scalar(Fraction(41, 27), 3)
        for k in range(-2, 4):
            rep = coset_representative(x, k)
            assert rational_norm(rep.value - x.value, 3) <= ppow(3, -k)

    def test_canonical_validation(self):
        with pytest.raises(ValueError):
            CosetRepresentative(3, Fraction(4, 3), 0)  # 4/3 = 1/3 + 1, not reduced


class TestResidues:
    def test_mod_p_integer(self):
        assert mod_p(scalar(7, 3)) == 1

    def test_mod_p_unit_fraction(self):
        assert mod_p(scalar(Fraction(1, 2), 3)) == 2

    def test_mod_p_positive_valuation(self):
        assert mod_p(scalar(Fraction(3, 4), 3)) == 0

    def test_mod_p_rejects_large_norm(self):
        with pytest.raises(NonUnitError):
            mod_p(scalar(Fraction(1, 3), 3))

    def test_invert_one(self):
        for k in (1, 3):
            assert invert_mod_pk(scalar(1, 3), k) == 1

    def test_invert_two_mod_nine(self):
        assert invert_mod_pk(scalar(2, 3), 2) == 5

    def test_invert_four_mod_three(self):
        assert invert_mod_pk(scalar(4, 3), 1) == 1

    def test_invert_rejects_non_unit(self):
        with pytest.raises(NonUnitError):
            invert_mod_pk(scalar(3, 3), 2)

    def test_invert_fraction(self):
        x = scalar(Fraction(2, 5), 3)
        y = invert_mod_pk(x, 3)
        assert rational_norm(x.value * y - 1, 3) <= ppow(3, -3)


class TestParsingAndContexts:
    def test_parse_shared_format(self):
        assert parse_rational("7/4") == Fraction(7, 4)
        assert parse_rational("-3") == -3
        assert parse_rational(" 5 ") == 5

    def test_parse_rejects_decimals(self):
        with pytest.raises(ValueError):
            parse_rational("1.5")

    def test_prime_context_rejects_composites(self):
        with pytest.raises(ValueError):
            PrimeContext(6)

    def test_mixed_context_arithmetic_rejected(self):
        with pytest.raises(PrimeMismatchError):
            scalar(1, 2) + scalar(1, 3)

    def test_scalar_arithmetic(self):
        x, y = scalar(Fraction(3, 4), 5), scalar(2, 5)
        assert (x * y).value == Fraction(3, 2)
        assert (x - y).value == Fraction(-5, 4)
        assert (x / y).value == Fraction(3, 8)
        assert (-x).value == Fraction(-3, 4)


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
    for lo in (-3, -1, 0, 2):
        grid = list(digit_grid(p, lo, lo + span))
        assert grid == _product_loop(p, lo, lo + span)
        assert len(grid) == p**span
        assert all(isinstance(v, Fraction) for v in grid)


def test_digit_grid_empty_window_yields_zero_once():
    assert list(digit_grid(3, 2, 2)) == [0]
    assert list(digit_grid(3, 2, -1)) == [0]
