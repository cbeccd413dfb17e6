import cmath
import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_strategies import (
    MODES,
    PRIMES,
    coefficient_bits,
    expansions,
    lattice_points,
    reference_sample,
)
from padicframes.cyclotomic import CycloNumber, root_of_unity
from padicframes.errors import (
    LatticeMismatchError,
    ModeMismatchError,
    PrimeMismatchError,
    ResolutionError,
)
from padicframes.padic import CosetRepresentative, ppow, rational_norm
from padicframes.sampling import base_wavelet, random_cyclo, random_test_function
from padicframes.wavelets import (
    EXACT,
    FLOAT,
    FIELDS,
    TestFunction,
    WaveletIndex,
    default_lattice,
    evaluate_at,
    inner_product_oracle,
    inner_product_symbolic,
    norm_sq,
    required_support,
    sample,
    wavelet_eval,
    wavelet_index,
)


def psi(p, gamma=0, n=0, j=1):
    return TestFunction.single(wavelet_index(gamma, n, j, p))


class TestWaveletEval:
    def test_base_at_origin(self):
        assert wavelet_eval(wavelet_index(0, 0, 1, 3), 0) == 1.0

    def test_base_at_one_p3(self):
        value = wavelet_eval(wavelet_index(0, 0, 1, 3), 1)
        expect = cmath.exp(2j * cmath.pi / 3)
        assert abs(value - expect) < 1e-12

    def test_outside_support(self):
        assert wavelet_eval(wavelet_index(0, 0, 1, 3), Fraction(1, 3)) == 0.0

    def test_scaled_index_normalization(self):
        # scale 2 carries the factor p**-1 at p = 4? no: p = 3, gamma = 2
        value = wavelet_eval(wavelet_index(2, 0, 1, 3), 0)
        assert abs(value - 3 ** (-1.0)) < 1e-12

    def test_general_rational_argument(self):
        # unit-denominator parts are p-adic units; evaluation stays exact:
        # {1/6} at p = 3 is 2/3 since 1/6 - 2/3 = -1/2 lies in Z_3
        idx = wavelet_index(0, 0, 1, 3)
        value = wavelet_eval(idx, Fraction(1, 2))
        assert abs(value - cmath.exp(2j * cmath.pi * 2 / 3)) < 1e-12


class TestSampling:
    def test_base_wavelet_values_are_roots_of_unity(self):
        for p in (2, 3, 5):
            points = lattice_points(sample(psi(p), 1, 0))
            values = [points.get(Fraction(k), 0j) for k in range(p)]
            for k, v in enumerate(values):
                assert abs(v - cmath.exp(2j * cmath.pi * k / p)) < 1e-12

    def test_base_wavelet_p2(self):
        points = lattice_points(sample(psi(2), 1, 0))
        assert abs(points[Fraction(0)] - 1) < 1e-15
        assert abs(points[Fraction(1)] + 1) < 1e-15

    def test_empty_function_all_zero(self):
        empty = TestFunction(3, EXACT, {})
        sampled = sample(empty, 2, 1)
        assert sampled.values == {}

    def test_resolution_error_names_bound(self):
        f = psi(3, gamma=-2)
        with pytest.raises(ResolutionError) as err:
            sample(f, 1, 2)
        assert err.value.required == 3

    def test_support_error_names_bound(self):
        f = psi(3, gamma=2)
        with pytest.raises(ResolutionError) as err:
            sample(f, 2, 0)
        assert err.value.required == 2

    def test_support_counts_translation_digits_above_scale(self):
        # the centre 3**-1 * 1/3 = 1/9 has norm 3**2, so its key is 1/9 * 3**2
        f = psi(3, gamma=1, n=Fraction(1, 3))
        assert required_support(f) == 2
        sampled = sample(f, *default_lattice(f))
        assert 1 in sampled.values and Fraction(1, 9) in lattice_points(sampled)
        assert lattice_points(sampled) == reference_sample(f, *default_lattice(f)).values
        with pytest.raises(ResolutionError) as err:
            sample(f, 1, 1)
        assert err.value.required == 2

    def test_refinement_aggregates_exactly(self):
        rng = random.Random(11)
        f = random_test_function(rng, 3, max_terms=4, gamma_range=(-1, 1), max_digits=1)
        resolution, support = default_lattice(f)
        coarse = lattice_points(sample(f, resolution, support))
        fine = lattice_points(sample(f, resolution + 1, support))
        # the coset x + 3**resolution Z_3 splits into the children x + d 3**resolution
        assert len(fine) == 3 * len(coarse)
        for x, v in coarse.items():
            for d in range(3):
                assert abs(fine[x + d * ppow(3, resolution)] - v) < 1e-12


class TestSymbolicInnerProducts:
    def test_self_product_is_one(self):
        f = psi(5)
        assert inner_product_symbolic(f, f) == CycloNumber.one(5)

    def test_disjoint_indices(self):
        f, g = psi(3, gamma=0), psi(3, gamma=1)
        assert inner_product_symbolic(f, g).is_zero()

    def test_conjugate_linear_slot(self):
        p = 3
        a = wavelet_index(0, 0, 1, p)
        b = wavelet_index(1, 0, 2, p)
        zeta = root_of_unity(1, p)
        f = TestFunction(p, EXACT, {a: CycloNumber.from_rational(2, p), b: zeta})
        g = TestFunction.single(b)
        assert inner_product_symbolic(f, g) == zeta
        assert inner_product_symbolic(g, f) == zeta.conjugate()

    def test_mode_mismatch(self):
        f = psi(3)
        g = TestFunction(3, FLOAT, {wavelet_index(0, 0, 1, 3): 1 + 0j})
        with pytest.raises(ModeMismatchError):
            inner_product_symbolic(f, g)

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatchError):
            inner_product_symbolic(base_wavelet(3), base_wavelet(5))

    def test_norm_sq_examples(self):
        assert norm_sq(psi(3)) == CycloNumber.one(3)
        assert norm_sq(TestFunction(3, EXACT, {})).is_zero()
        two_terms = psi(3) + psi(3, gamma=1)
        assert norm_sq(two_terms) == CycloNumber.from_rational(2, 3)


class TestOracleAgreement:
    def test_sampled_orthonormality(self):
        p = 3
        f, g = psi(p, n=Fraction(1, 3)), psi(p, n=Fraction(2, 3))
        ff = sample(f, 2, 1)
        gg = sample(g, 2, 1)
        assert abs(inner_product_oracle(ff, ff) - 1) < 1e-9
        assert abs(inner_product_oracle(ff, gg)) < 1e-9

    def test_zero_lattice(self):
        p = 3
        empty = sample(TestFunction(p, EXACT, {}), 2, 1)
        other = sample(psi(p), 2, 1)
        assert inner_product_oracle(empty, other) == 0

    def test_lattice_mismatch(self):
        f = sample(psi(3), 2, 1)
        g = sample(psi(3), 3, 1)
        with pytest.raises(LatticeMismatchError):
            inner_product_oracle(f, g)

    def test_random_agreement_with_symbolic(self):
        rng = random.Random(5)
        for _ in range(15):
            p = rng.choice([2, 3, 5])
            f = random_test_function(rng, p, max_terms=6, gamma_range=(-2, 2), max_digits=2)
            g = random_test_function(rng, p, max_terms=6, gamma_range=(-2, 2), max_digits=2)
            resolution, support = default_lattice(f + g)
            oracle = inner_product_oracle(
                sample(f, resolution, support), sample(g, resolution, support))
            symbolic = inner_product_symbolic(f, g).to_complex()
            assert abs(oracle - symbolic) < 1e-9

    def test_pointwise_evaluation_matches_samples(self):
        rng = random.Random(9)
        f = random_test_function(rng, 3, max_terms=3, gamma_range=(-1, 1), max_digits=1)
        resolution, support = default_lattice(f)
        points = lattice_points(sample(f, resolution, support))
        assert points
        for x, v in points.items():
            assert abs(evaluate_at(f, x) - v) < 1e-12


# Widest scale spread drawn per prime: a term at the top scale has
# p**(spread + 3) points on the finest drawn lattice.
SCALE_SPREAD = {2: 4, 3: 3, 5: 1, 7: 1}


def _drawn_scales(data, p):
    """A window of scales inside [-2, 2], at most SCALE_SPREAD[p] wide."""
    lo = data.draw(st.integers(-2, 2))
    return (lo, min(2, lo + data.draw(st.integers(0, SCALE_SPREAD[p]))))


def _drawn_lattice(data, f, g):
    """The default lattice covering f and g, or up to one step finer and one
    step wider.  (f + g may cancel to zero, so it is not asked.)"""
    resolution, support = map(max, default_lattice(f), default_lattice(g))
    return (resolution + data.draw(st.integers(0, 1)),
            support + data.draw(st.integers(0, 1)))


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_sample_matches_pointwise_reference(data):
    """The integer walk against one Fraction point and one ``wavelet_eval``
    per cell: the same keys in the same insertion order, bit-identical
    values, and bit-identical oracle inner products."""
    p = data.draw(st.sampled_from(PRIMES))
    mode = data.draw(st.sampled_from(MODES))
    scales = _drawn_scales(data, p)
    f = data.draw(expansions(p, mode, scales))
    g = data.draw(expansions(p, mode, scales))
    lattice = _drawn_lattice(data, f, g)
    sf, sg = sample(f, *lattice), sample(g, *lattice)
    rf, rg = reference_sample(f, *lattice), reference_sample(g, *lattice)
    for ours, ref in ((sf, rf), (sg, rg)):
        assert all(type(x) is int for x in ours.values)
        assert list(lattice_points(ours).items()) == list(ref.values.items())
        assert [coefficient_bits(v) for v in ours.values.values()] \
            == [coefficient_bits(v) for v in ref.values.values()]
    assert coefficient_bits(inner_product_oracle(sf, sg)) \
        == coefficient_bits(inner_product_oracle(rf, rg))
    for x, v in lattice_points(sf).items():
        assert abs(evaluate_at(f, x) - v) < 1e-12


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sample_keys_are_integer_numerators(p):
    """Every key is an int x, and the points x / p**E with E = max(L, 0)
    carry the reference sampler's values in its order, on default, finer
    and wider lattices, and on a lattice with L < 0 (E = 0, so the keys are
    the points themselves)."""
    rng = random.Random(p)
    cases = [(psi(p, gamma=-2), (3, -1))]
    for _ in range(4):
        f = random_test_function(rng, p, max_terms=4, gamma_range=(-1, 1), max_digits=2)
        resolution, support = default_lattice(f)
        cases += [(f, (resolution, support)), (f, (resolution + 1, support + 1))]
    for f, lattice in cases:
        sampled = sample(f, *lattice)
        assert sampled.values and all(type(x) is int for x in sampled.values)
        points = lattice_points(sampled)
        assert list(points.items()) == list(reference_sample(f, *lattice).values.items())
        if lattice[1] <= 0:
            assert list(points) == list(sampled.values)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sample_keys_lie_in_support_window(data):
    """Every lattice point with a nonzero value lies in |x| <= p**L at
    L = required_support(f), for the sampler and the pointwise reference."""
    p = data.draw(st.sampled_from(PRIMES))
    f = data.draw(expansions(p, data.draw(st.sampled_from(MODES)), _drawn_scales(data, p)))
    resolution = default_lattice(f)[0] + data.draw(st.integers(0, 1))
    support = required_support(f) + data.draw(st.integers(0, 1))
    bound = ppow(p, support)
    for points in (lattice_points(sample(f, resolution, support)),
                   reference_sample(f, resolution, support).values):
        for x in points:
            assert rational_norm(x, p) <= bound


class TestOrthonormalityGrid:
    @pytest.mark.parametrize("p", [2, 3])
    def test_small_grid_kronecker(self, p):
        indices = []
        for gamma in (-1, 0, 1):
            for j in range(1, p):
                for num in range(p):
                    n = Fraction(num, p) if num else Fraction(0)
                    indices.append(wavelet_index(gamma, n, j, p))
        indices = list(dict.fromkeys(indices))
        for i, a in enumerate(indices):
            fa = TestFunction.single(a)
            for b in indices[i:]:
                fb = TestFunction.single(b)
                ip = inner_product_symbolic(fa, fb)
                if a == b:
                    assert ip == CycloNumber.one(p)
                else:
                    assert ip.is_zero()


def parseval_defect(f: TestFunction):
    """norm_sq(f) minus the sum of |<f, psi_idx>|^2 over the basis; zero on
    finite expansions by orthonormality."""
    total = norm_sq(f)
    for idx in f.terms:
        probe = TestFunction.single(idx, f.mode)
        ip = inner_product_symbolic(f, probe)
        total = total - f.field.nsq(ip)
    return total


def test_parseval_on_finite_expansions():
    rng = random.Random(21)
    for _ in range(10):
        p = rng.choice([2, 3, 5])
        f = random_test_function(rng, p, max_terms=5, gamma_range=(-2, 2), max_digits=2)
        assert parseval_defect(f).is_zero()


def test_coefficient_modes():
    p = 3
    idx = wavelet_index(0, 0, 1, p)
    exact = TestFunction.single(idx)
    floaty = TestFunction(p, FLOAT, {idx: 0.5 + 0.5j})
    assert floaty.field.nsq(floaty.terms[idx]) == pytest.approx(0.5)
    assert norm_sq(floaty) == pytest.approx(0.5)
    with pytest.raises(ModeMismatchError):
        TestFunction(p, FLOAT, {idx: CycloNumber.one(p)})
    with pytest.raises(ModeMismatchError):
        TestFunction(p, EXACT, {idx: 1 + 0j})
    assert not exact.is_zero()


def test_float_field_agrees_with_exact_field():
    """Each float-field operation matches the exact one read through the
    complex embedding, and returns the type the reports print.  Conjugation,
    the embedding and the zero test are the coefficients' own."""
    rng = random.Random(5)
    exact, floaty = FIELDS[EXACT], FIELDS[FLOAT]
    for p in (2, 3, 5, 7):
        # the unchecked constants are the canonical checked ones
        assert exact.zero(p) == exact.real_zero(p) == CycloNumber.zero(p)
        assert exact.one(p) == CycloNumber.one(p)
        assert hash(exact.one(p)) == hash(CycloNumber.one(p))
        assert type(floaty.zero(p)) is complex and floaty.zero(p) == 0
        assert type(floaty.real_zero(p)) is float and floaty.real_zero(p) == 0
        assert type(floaty.one(p)) is complex and floaty.one(p) == 1
        for _ in range(10):
            c = random_cyclo(rng, p)
            z = c.to_complex()
            m = rng.randrange(-2 * p, 2 * p)
            assert floaty.phase(z, m, p) == pytest.approx(
                exact.phase(c, m, p).to_complex())
            assert z.conjugate() == pytest.approx(complex(c.conjugate()))
            nsq = floaty.nsq(z)
            assert type(nsq) is float
            assert nsq == pytest.approx(exact.nsq(c).to_complex().real)
            assert floaty.scale(nsq, 3) == pytest.approx(
                exact.scale(exact.nsq(c), 3).to_complex().real)
            assert complex(c) == z and type(complex(c)) is complex
            assert bool(c) and bool(z)
        c = random_cyclo(rng, p)
        assert exact.phase(c, p, p) is c and floaty.phase(1j, -p, p) == 1j
    assert not CycloNumber.zero(3) and not floaty.zero(3)


def test_field_checks_and_residual_tests():
    exact, floaty = FIELDS[EXACT], FIELDS[FLOAT]
    with pytest.raises(ModeMismatchError):
        exact.check(1 + 0j, 3)
    with pytest.raises(ModeMismatchError):
        exact.check(CycloNumber.one(5), 3)
    with pytest.raises(ModeMismatchError):
        floaty.check(CycloNumber.one(3), 3)
    assert floaty.check(2, 3) == 2 and type(floaty.check(2, 3)) is complex
    assert exact.residual_is_zero(CycloNumber.zero(3), bound=5, g_nsq=7)
    assert not exact.residual_is_zero(root_of_unity(1, 3))
    assert floaty.residual_is_zero(5e-10) and not floaty.residual_is_zero(5e-9)
    # the tolerance is relative to |bound * g_nsq| once that exceeds 1
    assert floaty.residual_is_zero(5e-7, bound=100.0, g_nsq=10.0)
    assert not floaty.residual_is_zero(5e-7, bound=100.0)


def test_float_mode_keeps_float_and_complex_types():
    p = 3
    f = TestFunction(p, FLOAT, {wavelet_index(0, 0, 1, p): 1 + 2j})
    g = TestFunction(p, FLOAT, {wavelet_index(1, 0, 1, p): 3 + 0j})
    assert type(norm_sq(f)) is float and norm_sq(f) == 5.0
    assert type(norm_sq(TestFunction(p, FLOAT, {}))) is float
    assert type(inner_product_symbolic(f, g)) is complex  # no shared index
    assert inner_product_symbolic(f, f) == 5 + 0j
    assert type(parseval_defect(f)) is float


class TestWaveletIndexHash:
    def test_separately_built_equal_indices_hash_equal(self):
        a = wavelet_index(-1, Fraction(4, 9), 2, 3)
        b = WaveletIndex(-1, CosetRepresentative(3, Fraction(8, 18), 0), 2)
        assert a == b and a is not b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_copies_keep_eq_and_hash(self):
        a = wavelet_index(2, Fraction(5, 49), 4, 7)
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a)),
                  dataclasses.replace(a)):
            assert b == a and hash(b) == hash(a)

    def test_replace_rehashes_the_new_fields(self):
        a = wavelet_index(2, Fraction(5, 49), 4, 7)
        for b, expected in (
                (dataclasses.replace(a, j=1), wavelet_index(2, Fraction(5, 49), 1, 7)),
                (dataclasses.replace(a, gamma=-1), wavelet_index(-1, Fraction(5, 49), 4, 7)),
                (dataclasses.replace(a, n=CosetRepresentative(7, Fraction(3, 7), 0)),
                 wavelet_index(2, Fraction(3, 7), 4, 7))):
            assert b == expected and hash(b) == hash(expected)
            assert b != a
