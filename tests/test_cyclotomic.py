import cmath
import copy
import math
import pickle
import random
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

    def test_numeric_literals_accepted(self):
        x = CycloNumber.from_zeta_powers([(0, 2), (1, Fraction(1, 3)), (1, 0.5)], 3)
        assert x == CycloNumber(3, [2, Fraction(5, 6)])

    # one case per rejected class: each used to be cast by int() or Fraction()
    @pytest.mark.parametrize("pairs,error", [
        ([(1.5, "1")], TypeError),
        ([(1.0, "1")], TypeError),
        ([(True, "1")], TypeError),
        ([(0, True)], ValueError),
        ([(0, float("nan"))], ValueError),
        ([(0, float("inf"))], ValueError),
        ([(0, float("-inf"))], ValueError),
    ], ids=["fractional_power", "float_power", "bool_power", "bool_literal",
            "nan_literal", "inf_literal", "minus_inf_literal"])
    def test_rejects_cast_inputs(self, pairs, error):
        with pytest.raises(error):
            CycloNumber.from_zeta_powers(pairs, 3)


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


def reference_root(m, p):
    """zeta**m from its power-basis coefficients, through the public
    constructor: zeta**(p-1) = -(1 + zeta + ... + zeta**(p-2))."""
    m %= p
    if m == p - 1:
        return CycloNumber(p, (-1,) * (p - 1))
    return CycloNumber(p, tuple(int(k == m) for k in range(p - 1)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_times_zeta_is_multiplication_by_a_root_of_unity(data):
    p = data.draw(st.sampled_from(PRIMES))
    m = data.draw(st.integers(-2 * p, 2 * p))
    x = data.draw(cyclo_elements(p))
    rotated = x.times_zeta(m)
    assert root_of_unity(m, p) == reference_root(m, p)
    for product in (x * root_of_unity(m, p), x * reference_root(m, p)):
        assert (rotated.prime, rotated._num, rotated._den) == \
            (product.prime, product._num, product._den)
    assert_canonical(rotated)
    assert cmath.isclose(rotated.to_complex(),
                         x.to_complex() * cmath.exp(2j * cmath.pi * m / p),
                         abs_tol=1e-9)


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


# ---------------------------------------------------------------------------
# Differential tests against a Fraction-tuple reference kernel
# ---------------------------------------------------------------------------
#
# The reference below is the kernel's former representation: p - 1 Fraction
# coefficients, multiplication and automorphisms on a length-p vector whose
# last slot is cleared through the minimal polynomial.  The integer-numerator
# kernel must agree with it on every operation.


def ref_from_extended(p, ext):
    tail = ext[p - 1]
    return tuple(c - tail for c in ext[: p - 1])


def ref_mul(p, x, y):
    ext = [Fraction(0)] * p
    for i, a in enumerate(x):
        for k, b in enumerate(y):
            ext[(i + k) % p] += a * b
    return ref_from_extended(p, ext)


def ref_automorphism(p, x, k):
    ext = [Fraction(0)] * p
    for i, a in enumerate(x):
        ext[(i * k) % p] += a
    return ref_from_extended(p, ext)


def ref_inverse(p, x):
    cofactor = (Fraction(1),) + (Fraction(0),) * (p - 2)
    for k in range(2, p):
        cofactor = ref_mul(p, cofactor, ref_automorphism(p, x, k))
    field_norm = ref_mul(p, x, cofactor)
    assert all(c == 0 for c in field_norm[1:])
    return tuple(c / field_norm[0] for c in cofactor)


def random_coeffs(rng, p):
    """Sparse and dense coefficient tuples with mixed denominators, some of
    them large, so reductions and sign handling are exercised."""
    out = []
    for _ in range(p - 1):
        kind = rng.random()
        if kind < 0.25:
            out.append(Fraction(0))
        elif kind < 0.5:
            out.append(Fraction(rng.randint(-9, 9)))
        elif kind < 0.85:
            out.append(Fraction(rng.randint(-50, 50), rng.randint(1, 36)))
        else:
            out.append(Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9)))
    return tuple(out)


def random_pairs(p, count=40, seed=0):
    rng = random.Random(1000 * p + seed)
    return [(random_coeffs(rng, p), random_coeffs(rng, p)) for _ in range(count)]


def assert_canonical(x: CycloNumber):
    assert x._den > 0
    assert math.gcd(x._den, *x._num) == 1
    assert all(isinstance(c, Fraction) for c in x.coeffs)


@pytest.mark.parametrize("p", PRIMES)
def test_ring_ops_match_reference(p):
    for xc, yc in random_pairs(p):
        x, y = CycloNumber(p, xc), CycloNumber(p, yc)
        results = {
            "+": (x + y, tuple(a + b for a, b in zip(xc, yc))),
            "-": (x - y, tuple(a - b for a, b in zip(xc, yc))),
            "neg": (-x, tuple(-a for a in xc)),
            "*": (x * y, ref_mul(p, xc, yc)),
            "scale int": (x.scale(-6), tuple(-6 * a for a in xc)),
            "scale frac": (x.scale(Fraction(-4, 15)),
                           tuple(Fraction(-4, 15) * a for a in xc)),
            "norm_sq": (x.norm_sq(),
                        ref_mul(p, xc, ref_automorphism(p, xc, p - 1))),
        }
        for name, (got, want) in results.items():
            assert got.coeffs == want, name
            assert_canonical(got)
        assert x.is_zero() == all(a == 0 for a in xc)


@pytest.mark.parametrize("p", PRIMES)
def test_automorphisms_match_reference(p):
    for xc, _ in random_pairs(p, count=20, seed=1):
        x = CycloNumber(p, xc)
        for k in range(1, 2 * p):
            if k % p == 0:
                with pytest.raises(ValueError):
                    x.automorphism(k)
                continue
            got = x.automorphism(k)
            assert got.coeffs == ref_automorphism(p, xc, k)
            assert_canonical(got)
        assert x.conjugate().coeffs == ref_automorphism(p, xc, p - 1)


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_and_division_match_reference(p):
    for xc, yc in random_pairs(p, count=25, seed=2):
        x, y = CycloNumber(p, xc), CycloNumber(p, yc)
        if y.is_zero():
            with pytest.raises(ZeroDivisionError):
                y.inverse()
            continue
        inv = y.inverse()
        assert inv.coeffs == ref_inverse(p, yc)
        assert_canonical(inv)
        assert (x / y).coeffs == ref_mul(p, xc, ref_inverse(p, yc))


@pytest.mark.parametrize("p", PRIMES)
def test_equality_and_hash_across_denominators(p):
    for xc, yc in random_pairs(p, count=20, seed=3):
        x, y = CycloNumber(p, xc), CycloNumber(p, yc)
        # the same element reached through different intermediate denominators
        routes = [
            x.scale(Fraction(1, 6)) + x.scale(Fraction(5, 6)),
            x.scale(7).scale(Fraction(1, 7)),
            (x + y) - y,
            (x - y.scale(Fraction(3, 11))) + y.scale(Fraction(3, 11)),
        ]
        if not y.is_zero():
            routes.append((x * y) / y)
        for other in routes:
            assert other == x
            assert hash(other) == hash(x)
        assert CycloNumber(p, x.coeffs) == x
        assert hash(CycloNumber(p, x.coeffs)) == hash(x)
        if x != y:
            assert x.coeffs != y.coeffs
        assert x != x + CycloNumber.from_rational(Fraction(1, 3), p)


@pytest.mark.parametrize("p", PRIMES)
def test_coeffs_round_trip(p):
    for xc, _ in random_pairs(p, count=20, seed=4):
        x = CycloNumber(p, xc)
        assert x.coeffs == xc
        assert isinstance(x.coeffs, tuple)
        again = CycloNumber(p, x.coeffs)
        assert again == x and again.coeffs == xc
        # ints and Fractions are accepted alike at the boundary
        mixed = [c.numerator if c.denominator == 1 else c for c in xc]
        assert CycloNumber(p, mixed) == x


def test_immutable():
    x = root_of_unity(1, 5)
    with pytest.raises(AttributeError):
        x.prime = 7
    with pytest.raises(AttributeError):
        x.coeffs = (Fraction(1),) * 4
    assert x == root_of_unity(1, 5)
    y = x.scale(Fraction(-2, 9))
    assert copy.deepcopy(y) == y
    assert pickle.loads(pickle.dumps(y)) == y


def test_boundary_rejects_bad_prime_and_length():
    with pytest.raises(ValueError, match="not a prime"):
        CycloNumber(4, (Fraction(1),) * 3)
    with pytest.raises(ValueError, match="not a prime"):
        CycloNumber(1, ())
    with pytest.raises(ValueError, match="need 4 coefficients"):
        CycloNumber(5, (Fraction(1),) * 3)
    with pytest.raises(ValueError, match="need 2 coefficients"):
        CycloNumber(3, (Fraction(1),) * 3)
    with pytest.raises(ValueError, match="not a prime"):
        CycloNumber.zero(4)
    with pytest.raises(ValueError, match="not a prime"):
        root_of_unity(1, 9)


# ---------------------------------------------------------------------------
# Differential test against sympy: polynomial arithmetic modulo Phi_p
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_products_inverses_and_automorphisms_match_sympy(p):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    phi = sympy.Poly(sympy.cyclotomic_poly(p, z), z, domain="QQ")

    def to_poly(coeffs):
        return sympy.Poly(
            sum(sympy.Rational(c.numerator, c.denominator) * z**k
                for k, c in enumerate(coeffs)), z, domain="QQ")

    def from_poly(poly):
        rem = poly.rem(phi)
        out = [Fraction(0)] * (p - 1)
        for (k,), c in rem.terms():
            out[k] = Fraction(int(c.p), int(c.q))
        return tuple(out)

    for xc, yc in random_pairs(p, count=8, seed=5):
        x, y = CycloNumber(p, xc), CycloNumber(p, yc)
        X, Y = to_poly(xc), to_poly(yc)
        assert (x * y).coeffs == from_poly(X * Y)
        for k in range(1, p):
            image = X.compose(sympy.Poly(z**k, z, domain="QQ"))
            assert x.automorphism(k).coeffs == from_poly(image)
        if not y.is_zero():
            assert y.inverse().coeffs == from_poly(Y.invert(phi))
