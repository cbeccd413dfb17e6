import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicframes.cyclotomic import CycloNumber, root_of_unity
from padicframes.errors import InvariantError, PrimeMismatchError

PRIMES = [2, 3, 5, 7]


class TestRootsOfUnity:
    def test_zeroth_power_is_one(self):
        for p in PRIMES:
            assert root_of_unity(0, p) == CycloNumber.one(p)

    def test_periodicity(self):
        for p in PRIMES:
            assert root_of_unity(p, p) == CycloNumber.one(p)
            assert root_of_unity(-1, p) == root_of_unity(p - 1, p)

    def test_reduction_via_minimal_polynomial(self):
        # zeta^2 at p = 3 rewrites to -1 - zeta
        z2 = root_of_unity(2, 3)
        assert z2.coeffs == (Fraction(-1), Fraction(-1))

    def test_inverse_pairs(self):
        for p in PRIMES:
            assert root_of_unity(1, p) * root_of_unity(p - 1, p) == CycloNumber.one(p)

    def test_full_sum_vanishes(self):
        for p in PRIMES:
            total = CycloNumber.zero(p)
            for m in range(p):
                total = total + root_of_unity(m, p)
            assert total.is_zero()


class TestFieldOperations:
    def test_conjugate_of_square_at_five(self):
        assert root_of_unity(2, 5).conjugate() == root_of_unity(3, 5)

    def test_norm_sq_of_root(self):
        for p in PRIMES:
            for m in range(p):
                assert root_of_unity(m, p).norm_sq() == CycloNumber.one(p)

    def test_norm_sq_of_zero(self):
        assert CycloNumber.zero(5).norm_sq().is_zero()

    def test_norm_sq_one_plus_zeta_at_three(self):
        x = CycloNumber.one(3) + root_of_unity(1, 3)
        assert x.norm_sq() == CycloNumber.one(3)
        numeric = abs(1 + cmath.exp(2j * cmath.pi / 3)) ** 2
        assert abs(numeric - 1) < 1e-12

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            CycloNumber.one(3) + CycloNumber.one(5)

    def test_irrational_field_norm_raises_typed_error(self, monkeypatch):
        # the check survives python -O, unlike an assert
        x = CycloNumber.one(5) + root_of_unity(2, 5)
        monkeypatch.setattr(CycloNumber, "is_rational", lambda self: False)
        with pytest.raises(InvariantError, match="field norm"):
            x.inverse()

    def test_p_equals_two_degenerates_to_rationals(self):
        z = root_of_unity(1, 2)
        assert z.coeffs == (Fraction(-1),)
        assert (z * z) == CycloNumber.one(2)


class TestComplexEmbedding:
    def test_one(self):
        z = CycloNumber.one(5).to_complex()
        assert z == 1

    def test_minus_one_at_two(self):
        z = root_of_unity(1, 2).to_complex()
        assert abs(z - (-1)) < 1e-15

    def test_primitive_root_at_three(self):
        z = root_of_unity(1, 3).to_complex()
        assert abs(z.real - (-0.5)) < 1e-12
        assert abs(z.imag - 0.8660254037844386) < 1e-12


class TestSerialization:
    def test_round_trip(self):
        x = root_of_unity(2, 5).scale(Fraction(3, 7)) + CycloNumber.one(5).scale(-2)
        again = CycloNumber.from_zeta_powers(x.zeta_powers(), 5)
        assert again == x

    def test_sparse_pairs(self):
        x = root_of_unity(1, 3).scale(Fraction(1, 2))
        assert x.zeta_powers() == [(1, "1/2")]


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


def cyclo_elements(p, magnitude=10):
    coeff = st.fractions(
        min_value=-magnitude, max_value=magnitude, max_denominator=9)
    return st.builds(
        lambda cs: CycloNumber(p, tuple(cs)),
        st.lists(coeff, min_size=p - 1, max_size=p - 1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_field_laws(data):
    p = data.draw(st.sampled_from(PRIMES))
    x = data.draw(cyclo_elements(p))
    y = data.draw(cyclo_elements(p))
    z = data.draw(cyclo_elements(p))
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multiplicative_inverse(data):
    p = data.draw(st.sampled_from(PRIMES))
    x = data.draw(cyclo_elements(p).filter(lambda v: not v.is_zero()))
    assert x * x.inverse() == CycloNumber.one(p)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_conjugation_is_an_involutive_automorphism(data):
    p = data.draw(st.sampled_from(PRIMES))
    x = data.draw(cyclo_elements(p))
    y = data.draw(cyclo_elements(p))
    assert x.conjugate().conjugate() == x
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_norm_sq_multiplicative_and_real(data):
    p = data.draw(st.sampled_from(PRIMES))
    x = data.draw(cyclo_elements(p))
    y = data.draw(cyclo_elements(p))
    nx = x.norm_sq()
    assert nx.conjugate() == nx
    assert (x * y).norm_sq() == nx * y.norm_sq()


def _l1(x: CycloNumber) -> float:
    return float(sum(abs(c) for c in x.coeffs))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_complex_embedding_is_a_ring_map(data):
    # tolerance scales with coefficient mass: double rounding is relative
    p = data.draw(st.sampled_from(PRIMES))
    x = data.draw(cyclo_elements(p, magnitude=1000))
    y = data.draw(cyclo_elements(p, magnitude=1000))
    add_tol = 1e-12 * max(1.0, _l1(x) + _l1(y))
    assert abs((x + y).to_complex() - (x.to_complex() + y.to_complex())) <= add_tol
    mul_tol = 1e-12 * max(1.0, _l1(x) * _l1(y))
    assert abs((x * y).to_complex() - x.to_complex() * y.to_complex()) <= mul_tol
