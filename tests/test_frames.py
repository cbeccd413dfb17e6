import dataclasses
import itertools
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbit_strategies import (
    MODES,
    PRIMES,
    assert_same_members,
    colliding_frame_cases,
    expansions,
    fraction_digit_expansion,
    fraction_digit_grid,
    grid_translations,
    oracle_member,
    oracle_members,
    orbit_spec,
    reference_act_on_function,
    reference_orbit_energy_grouped,
    reference_relevant_orbit_indices,
)
from padicframes.affine import (
    StabilizerSpec,
    act_on_function,
    affine,
    compose,
    genericity_check,
    in_stabilizer,
    stabilizer_spec,
)
from padicframes.cyclotomic import CycloNumber, root_of_unity
from padicframes.errors import (
    EmptyFunctionError,
    ModeMismatchError,
    NonGenericError,
    PrimeMismatchError,
    SpecScaleError,
)
from padicframes import frames
from padicframes.frames import (
    OrbitIndex,
    _collision_leaves,
    _pair_groups,
    dilation_indices,
    frame_bound,
    group_element,
    orbit_element,
    orbit_energy_direct,
    orbit_energy_grouped,
    orbit_index,
    orbit_index_of,
    orbit_members,
    phase_fix_multiplicity,
    relevant_orbit_indices,
    reparametrize_wavelet_frame,
    run_frame_check,
    verify_tight_frame,
)
from padicframes.padic import CosetRepresentative, ppow, rep_mod
from padicframes.sampling import (
    base_wavelet,
    non_generic_example,
    random_cyclo,
    random_generic_function,
    random_test_function,
)
from padicframes.wavelets import (
    EXACT,
    FLOAT,
    TestFunction,
    inner_product_symbolic,
    norm_sq,
    wavelet_index,
)


def spec_of(f):
    return stabilizer_spec(f)


# grouped == direct sweep sizes: direct enumeration costs a few tenths of a
# millisecond per contributing index, so instances are capped by index count
ORACLE_CASES = 5
ORACLE_FLOAT_CASES = 3
ORACLE_INDEX_CAP = 600


def index_bound(f, spec, g):
    """Contributing orbit indices counted per term pair, before the union:
    an upper bound on what direct enumeration evaluates."""
    p = f.prime
    return sum(p ** (spec.gamma_a - spec.gamma_0 + wf.gamma)
               for wf in f.terms for _ in g.terms)


def has_collision(f, g):
    """Whether some (gamma, J mod p) group holds several term pairs."""
    return any(len(pairs) > 1
               for by_res in _pair_groups(f, g).values()
               for pairs in by_res.values())


def as_float(f):
    return TestFunction(f.prime, FLOAT,
                        {idx: c.to_complex() for idx, c in f.terms.items()})


def assert_float_grouped_equals_direct(f, spec, g):
    ff, gf = as_float(f), as_float(g)
    difference = orbit_energy_grouped(ff, spec, gf) \
        - orbit_energy_direct(ff, spec, gf)
    assert ff.field.residual_is_zero(difference, bound=frame_bound(ff, spec),
                                     g_nsq=norm_sq(gf))


class TestOrbitElements:
    def test_identity_index(self):
        f = base_wavelet(3)
        spec = spec_of(f)
        assert orbit_element(f, spec, orbit_index(0, 0, 1, spec)) == f

    def test_single_wavelet_orbit_members_are_phased_wavelets(self):
        f = base_wavelet(3)
        spec = spec_of(f)
        for gamma in (-1, 0, 1):
            for J in dilation_indices(spec):
                for n in (Fraction(0), Fraction(1), Fraction(1, 3)):
                    member = orbit_element(f, spec, orbit_index(gamma, n, J, spec))
                    assert len(member.terms) == 1
                    coeff = next(iter(member.terms.values()))
                    assert coeff.norm_sq() == CycloNumber.one(3)

    def test_distinct_indices_give_distinct_functions(self):
        f = random_generic_function(random.Random(31), 3, max_terms=3,
                                    gamma_range=(-1, 1), max_digits=1)
        spec = spec_of(f)
        members = {}
        positions = list(range(-1, 1 - spec.gamma_0))
        for gamma in (-1, 0, 1):
            for J in dilation_indices(spec):
                for t in range(3 ** len(positions)):
                    n_value = sum(
                        ((t // 3**i) % 3) * ppow(3, pos)
                        for i, pos in enumerate(positions))
                    idx = OrbitIndex(
                        gamma, CosetRepresentative(3, n_value, 1 - spec.gamma_0), J)
                    member = orbit_element(f, spec, idx)
                    for other_idx, other in members.items():
                        assert other != member, (idx, other_idx)
                    members[idx] = member

    def test_uniform_norms(self):
        rng = random.Random(5)
        for _ in range(5):
            f = random_test_function(rng, 3, max_terms=4)
            spec = spec_of(f)
            base = norm_sq(f)
            n_value = ppow(3, -spec.gamma_0)  # one digit, valid at any modulus
            for gamma in (-1, 0, 2):
                idx = orbit_index(gamma, n_value, dilation_indices(spec)[-1], spec)
                assert norm_sq(orbit_element(f, spec, idx)) == base

    def test_invalid_index_rejected(self):
        f = base_wavelet(3)
        spec = spec_of(f)
        with pytest.raises(ValueError):
            orbit_index(0, 0, 3, spec)  # J divisible by p
        with pytest.raises(ValueError):
            orbit_element(f, spec, OrbitIndex(0, CosetRepresentative(3, Fraction(0), 5), 1))


# ---------------------------------------------------------------------------
# Orbit members along a translation grid, against one group action per member
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_orbit_members_equal_group_action(data):
    p = data.draw(st.sampled_from(PRIMES))
    mode = data.draw(st.sampled_from(MODES))
    f = data.draw(expansions(p, mode))
    spec = orbit_spec(p, data.draw(st.integers(1, 2)), data.draw(st.integers(-2, 2)))
    gamma = data.draw(st.integers(-2, 2))
    J = data.draw(st.sampled_from(dilation_indices(spec)))
    truncation = data.draw(st.integers(0, 2))
    translations = data.draw(st.lists(
        grid_translations(p, truncation, 1 - spec.gamma_0), min_size=1, max_size=6))
    assert_same_members(orbit_members(f, spec, gamma, J, translations),
                        oracle_members(f, spec, gamma, J, translations))


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("mode", MODES)
def test_orbit_members_on_a_full_grid(p, mode):
    """Negative scales, a two-digit translation and a j-sibling, listed out
    of sorted order, over every translation modulo p Z_p with digits down
    to -2, for the first two J."""
    n = Fraction(1, p * p) + Fraction(p - 1, p)
    field = TestFunction(p, mode, {}).field
    one = field.one(p)
    terms = {wavelet_index(1, 0, 1, p): one,
             wavelet_index(-1, n, p - 1, p): field.phase(one, 1, p),
             wavelet_index(-2, Fraction(1, p), 1, p): field.scale(one, 3)}
    if p > 2:
        terms[wavelet_index(-1, n, 1, p)] = field.scale(one, 2)
    f = TestFunction(p, mode, terms)
    spec = orbit_spec(p, 1, 0)
    grid = [CosetRepresentative(p, value, 1) for value in fraction_digit_grid(p, -2, 1)]
    for J in dilation_indices(spec)[:2]:
        for gamma in (-1, 2):
            assert_same_members(orbit_members(f, spec, gamma, J, grid),
                                oracle_members(f, spec, gamma, J, grid))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_dilation_indices_equal_the_unit_list(p):
    """For gamma_a up to 4: the units as the list of J in [1, p**gamma_a)
    prime to p, in length, ascending iteration, every index from both
    ends, slices and IndexError."""
    for gamma_a in range(1, 5):
        units = dilation_indices(orbit_spec(p, gamma_a, 0))
        listed = [J for J in range(1, p**gamma_a) if J % p != 0]
        assert len(units) == len(listed) == (p - 1) * p ** (gamma_a - 1)
        assert list(units) == listed
        assert [units[k] for k in range(-len(listed), len(listed))] == listed + listed
        for cut in (slice(None), slice(1, None, 2), slice(None, None, -1),
                    slice(-3, None), slice(2, 1), slice(len(listed) + 5, None)):
            assert units[cut] == tuple(listed[cut])
        for k in (len(listed), -len(listed) - 1):
            with pytest.raises(IndexError):
                units[k]


def test_dilation_indices_of_a_deep_spec_are_arithmetic():
    """gamma_a = 40 at p = 3: length and items from positions, with no
    list of the 2 * 3**39 units."""
    units = dilation_indices(orbit_spec(3, 40, 0))
    assert len(units) == 2 * 3**39
    assert (units[0], units[1], units[2], units[-1]) == (1, 2, 4, 3**40 - 1)
    assert units[3**39] == 3**40 // 2 + 1  # the unit just above the middle
    assert list(itertools.islice(units, 6)) == [1, 2, 4, 5, 7, 8]


def test_orbit_element_is_the_one_member_case():
    rng = random.Random(17)
    for p in (2, 3, 5):
        f = random_test_function(rng, p, max_terms=4)
        spec = spec_of(f)
        n = CosetRepresentative(p, ppow(p, -spec.gamma_0), 1 - spec.gamma_0)
        for J in dilation_indices(spec):
            idx = OrbitIndex(1, n, J)
            member = orbit_element(f, spec, idx)
            assert_same_members([member], [oracle_member(f, spec, idx)])
            assert orbit_members(f, spec, 1, J, [n, n]) == [member, member]


def test_orbit_members_validate_at_entry():
    f = base_wavelet(3)
    spec = spec_of(f)
    zero = CosetRepresentative(3, Fraction(0), 1)
    assert orbit_members(f, spec, 0, 1, []) == []
    for J in (0, 3, 3**spec.gamma_a + 1):
        with pytest.raises(ValueError):
            orbit_members(f, spec, 0, J, [zero])
    for bad in (CosetRepresentative(3, Fraction(0), 0),
                CosetRepresentative(5, Fraction(0), 1)):
        with pytest.raises(ValueError):
            orbit_members(f, spec, 0, 1, [zero, bad])
    with pytest.raises(PrimeMismatchError):
        orbit_members(base_wavelet(5), spec, 0, 1, [zero])


def test_translation_at_another_prime_raises_prime_mismatch():
    f = base_wavelet(3)
    spec = spec_of(f)
    foreign = CosetRepresentative(5, Fraction(0), 1)
    with pytest.raises(PrimeMismatchError):
        orbit_members(f, spec, 0, 1, [foreign])
    with pytest.raises(PrimeMismatchError):
        orbit_element(f, spec, OrbitIndex(0, foreign, 1))


class TestOrbitIndexOf:
    def test_identity(self):
        spec = spec_of(base_wavelet(3))
        idx = orbit_index_of(affine(1, 0, 3), spec)
        assert (idx.gamma, idx.n.value, idx.J) == (0, Fraction(0), 1)

    def test_stabilizer_members_map_to_identity_index(self):
        f = base_wavelet(3) + TestFunction.single(wavelet_index(0, Fraction(1, 3), 1, 3))
        spec = spec_of(f)
        rng = random.Random(41)
        found = 0
        for _ in range(300):
            a = 1 + 9 * rng.randint(-3, 3)
            b = Fraction(rng.randint(-27, 27), 9) * Fraction(1, 1)
            g = affine(a, b, 3)
            if in_stabilizer(g, spec):
                found += 1
                idx = orbit_index_of(g, spec)
                assert (idx.gamma, idx.n.value, idx.J) == (0, Fraction(0), 1)
        assert found > 0

    def test_unit_dilation_example(self):
        f = base_wavelet(3) + TestFunction.single(wavelet_index(0, Fraction(1, 3), 1, 3))
        spec = spec_of(f)
        assert spec.gamma_a == 2
        idx = orbit_index_of(affine(5, 0, 3), spec)
        assert (idx.gamma, idx.n.value, idx.J) == (0, Fraction(0), 5)

    def test_round_trip_on_valid_indices(self):
        f = random_generic_function(random.Random(47), 3, max_terms=3)
        spec = spec_of(f)
        positions = list(range(-2, 1 - spec.gamma_0))
        for gamma in (-2, 0, 1):
            for J in dilation_indices(spec):
                for t in (0, 1, 5, 11):
                    n_value = sum(
                        ((t // 3**i) % 3) * ppow(3, pos)
                        for i, pos in enumerate(positions))
                    idx = OrbitIndex(
                        gamma, CosetRepresentative(3, n_value, 1 - spec.gamma_0), J)
                    assert orbit_index_of(group_element(idx, spec), spec) == idx

    def test_anchor_correction_when_translation_norm_is_large(self):
        # single wavelet with a far translation: the naive unit-part readout
        # of the translation index would misplace this element
        f = TestFunction.single(wavelet_index(0, Fraction(1, 2), 1, 2))
        spec = spec_of(f)
        g = affine(3, 0, 2)
        idx = orbit_index_of(g, spec)
        assert (idx.gamma, idx.n.value, idx.J) == (0, Fraction(1), 1)
        assert orbit_element(f, spec, idx) == reference_act_on_function(g, f)

    def test_decomposition_lands_in_stabilizer(self):
        rng = random.Random(53)
        for _ in range(25):
            p = rng.choice([2, 3])
            f = random_generic_function(rng, p, max_terms=3,
                                        gamma_range=(-1, 1), max_digits=1)
            spec = spec_of(f)
            unit = rng.choice([u for u in range(1, 12) if u % p])
            g = affine(unit * ppow(p, rng.randint(-1, 1)),
                       Fraction(rng.randint(-8, 8), p), p)
            idx = orbit_index_of(g, spec)
            rep = group_element(idx, spec)
            residual = compose(
                affine(1 / rep.a.value, -rep.b.value / rep.a.value, p), g)
            assert in_stabilizer(residual, spec)
            assert orbit_element(f, spec, idx) == reference_act_on_function(g, f)

    def test_plain_convention(self):
        f = random_generic_function(random.Random(59), 3, max_terms=2)
        spec = spec_of(f)
        g = affine(15, Fraction(2, 3), 3)
        # (p**gamma J, p**gamma J n) f = (p**gamma J, p**gamma n') f for
        # n' = J n modulo p**(1 - gamma_0)
        idx = orbit_index_of(g, spec)
        n_plain = rep_mod(idx.n.value * idx.J, 3, 1 - spec.gamma_0)
        scale = ppow(3, idx.gamma)
        alt_rep = affine(scale * idx.J, scale * n_plain, 3)
        assert act_on_function(alt_rep, f) == act_on_function(g, f)


class TestRelevantIndices:
    def test_base_wavelet_self_set(self):
        f = base_wavelet(3)
        spec = spec_of(f)
        got = relevant_orbit_indices(f, spec, f)
        expected = {
            OrbitIndex(0, CosetRepresentative(3, Fraction(k), 1), 1)
            for k in range(3)}
        assert got == expected

    def test_completeness_spot_check(self):
        rng = random.Random(61)
        f = random_generic_function(rng, 3, max_terms=3,
                                    gamma_range=(-1, 1), max_digits=1)
        g = random_test_function(rng, 3, max_terms=3,
                                 gamma_range=(-1, 1), max_digits=1)
        spec = spec_of(f)
        inside = relevant_orbit_indices(f, spec, g)
        tried = 0
        while tried < 100:
            gamma = rng.randint(-3, 3)
            J = rng.choice(dilation_indices(spec))
            positions = list(range(-2, 1 - spec.gamma_0))
            n_value = sum(
                rng.randrange(3) * ppow(3, pos) for pos in positions)
            idx = OrbitIndex(
                gamma, CosetRepresentative(3, n_value, 1 - spec.gamma_0), J)
            if idx in inside:
                continue
            tried += 1
            value = inner_product_symbolic(g, orbit_element(f, spec, idx))
            assert value.is_zero()

    @pytest.mark.parametrize("p", PRIMES)
    def test_index_set_equals_fraction_enumeration(self, p):
        # the integer pair bases give the coset set of the Fraction bases
        rng = random.Random(6100 + p)
        gamma_range = (-1, 1) if p < 5 else (0, 0)
        for case in range(6):
            f = random_generic_function(rng, p, max_terms=3,
                                        gamma_range=gamma_range, max_digits=2)
            if case % 2:
                g = TestFunction(p, EXACT, {idx: random_cyclo(rng, p) for idx in f.terms})
            else:
                g = random_test_function(rng, p, max_terms=3,
                                         gamma_range=gamma_range, max_digits=2)
            spec = spec_of(f)
            assert relevant_orbit_indices(f, spec, g) \
                == reference_relevant_orbit_indices(f, spec, g)

    @pytest.mark.parametrize("p", PRIMES)
    def test_spec_above_every_scale_leaves_only_the_bases(self, p):
        # with gamma_0 >= gamma + 1 for every term no digit is free, so each
        # (pair, J) contributes its base alone, however far gamma_0 sits above
        rng = random.Random(6200 + p)
        f = random_generic_function(rng, p, max_terms=3, gamma_range=(-1, 1), max_digits=2)
        g = random_test_function(rng, p, max_terms=3, gamma_range=(-1, 1), max_digits=2)
        top = max(idx.gamma for idx in f.terms) + 1
        found = []
        for gamma_0 in (top, top + 1, top + 3):
            spec = dataclasses.replace(spec_of(f), gamma_0=gamma_0)
            found.append({(i.gamma, i.n.value, i.J)
                          for i in relevant_orbit_indices(f, spec, g)})
        assert found[0] and found[0] == found[1] == found[2]


class TestFrameBound:
    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_base_wavelet_bound_is_p(self, p):
        f = base_wavelet(p)
        spec = spec_of(f)
        assert frame_bound(f, spec) == CycloNumber.from_rational(p, p)

    def test_fixed_scale_bound(self):
        p = 3
        f = TestFunction(p, EXACT, {
            wavelet_index(1, 0, 1, p): CycloNumber.from_rational(2, p),
            wavelet_index(1, Fraction(1, 3), 2, p): CycloNumber.from_rational(1, p),
        })
        spec = spec_of(f)
        expected = norm_sq(f).scale(p ** spec.gamma_a)
        assert frame_bound(f, spec) == expected

    def test_two_translate_bound_is_eighteen(self):
        f = base_wavelet(3) + TestFunction.single(wavelet_index(0, Fraction(1, 3), 1, 3))
        spec = spec_of(f)
        assert spec.gamma_a == 2
        assert frame_bound(f, spec) == CycloNumber.from_rational(18, 3)

    def test_empty_function_rejected(self):
        f = base_wavelet(3)
        spec = spec_of(f)
        with pytest.raises(EmptyFunctionError):
            frame_bound(TestFunction(3, EXACT, {}), spec)


class TestTightFrameVerification:
    def test_base_wavelet_self_energy(self):
        f = base_wavelet(3)
        spec = spec_of(f)
        lhs = orbit_energy_direct(f, spec, f)
        assert lhs == CycloNumber.from_rational(3, 3)
        assert verify_tight_frame(f, spec, f).is_zero()

    def test_single_wavelet_probes(self):
        f = base_wavelet(3)
        spec = spec_of(f)
        for gamma, n, j in ((1, 0, 1), (-1, Fraction(2, 3), 2), (0, Fraction(1, 9), 1)):
            g = TestFunction.single(wavelet_index(gamma, n, j, 3))
            assert verify_tight_frame(f, spec, g).is_zero()

    def test_grouped_equals_direct(self):
        rng = random.Random(67)
        for _ in range(25):
            p = rng.choice([2, 3])
            f = random_generic_function(rng, p, max_terms=3,
                                        gamma_range=(-1, 1), max_digits=1)
            g = random_test_function(rng, p, max_terms=3,
                                     gamma_range=(-1, 1), max_digits=1)
            spec = spec_of(f)
            assert (orbit_energy_grouped(f, spec, g)
                    - orbit_energy_direct(f, spec, g)).is_zero()

    def test_grouped_equals_direct_across_dilation_lifts(self):
        # Mothers with gamma_a >= 2, so each residue of J mod p has several
        # lifts: single pairs are counted for all lifts at once, colliding
        # pairs are walked per lift.  Every other probe reuses the mother's
        # indices, which makes its term pairs collide.
        for p in (2, 3, 5):
            rng = random.Random(7000 + p)
            done = collisions = 0
            while done < ORACLE_CASES:
                f = random_generic_function(rng, p, max_terms=3,
                                            gamma_range=(-1, 1), max_digits=2)
                spec = spec_of(f)
                if spec.gamma_a < 2:
                    continue
                if done % 2:
                    g = TestFunction(
                        p, EXACT, {idx: random_cyclo(rng, p) for idx in f.terms})
                else:
                    g = random_test_function(rng, p, max_terms=3,
                                             gamma_range=(-1, 1), max_digits=2)
                if index_bound(f, spec, g) > ORACLE_INDEX_CAP:
                    continue
                collisions += has_collision(f, g)
                assert orbit_energy_grouped(f, spec, g) \
                    == orbit_energy_direct(f, spec, g)
                if done < ORACLE_FLOAT_CASES:
                    assert_float_grouped_equals_direct(f, spec, g)
                done += 1
            assert collisions >= 1, p

    def test_grouped_equals_direct_on_colliding_translates(self):
        # two translates at one scale: gamma_a = 2, and probing with the
        # mother itself puts both term pairs in one (gamma, J mod p) group
        f = base_wavelet(3) + TestFunction.single(
            wavelet_index(0, Fraction(1, 3), 1, 3)).scaled(
                CycloNumber.from_rational(2, 3))
        spec = spec_of(f)
        assert spec.gamma_a == 2
        assert has_collision(f, f)
        assert orbit_energy_grouped(f, spec, f) == orbit_energy_direct(f, spec, f)
        assert_float_grouped_equals_direct(f, spec, f)

    def test_empirical_bound_matches_closed_form(self):
        rng = random.Random(71)
        f = random_generic_function(rng, 3, max_terms=3,
                                    gamma_range=(-1, 1), max_digits=1)
        spec = spec_of(f)
        bound = frame_bound(f, spec)
        for _ in range(5):
            g = random_test_function(rng, 3, max_terms=2,
                                     gamma_range=(-1, 1), max_digits=1)
            lhs = orbit_energy_grouped(f, spec, g)
            assert lhs == bound * norm_sq(g)

    def test_non_generic_instance_reported(self):
        # The index family still sums exactly, but the parametrization loses
        # injectivity: a nontrivial index reproduces the function itself, so
        # the orbit as a set is covered with multiplicity and the set-level
        # bound differs from the closed form.  Report, do not assert zero.
        f, witness = non_generic_example(3, 1)
        spec = spec_of(f)
        residual = verify_tight_frame(f, spec, f)
        duplicate = orbit_index_of(witness, spec)
        assert duplicate != orbit_index(0, 0, 1, spec)
        assert orbit_element(f, spec, duplicate) == f
        assert residual is not None  # recorded; zero or not is a finding


class TestPhaseFixMultiplicity:
    def test_base_case(self):
        spec = spec_of(base_wavelet(3))
        n0 = CosetRepresentative(3, Fraction(0), 0)
        assert phase_fix_multiplicity(0, n0, spec) == 3

    def test_depth_two(self):
        f = base_wavelet(3) + TestFunction.single(wavelet_index(0, Fraction(1, 3), 1, 3))
        spec = spec_of(f)
        n0 = CosetRepresentative(3, Fraction(0), 0)
        assert phase_fix_multiplicity(0, n0, spec) == 9

    def test_negative_minimal_scale(self):
        f = TestFunction.single(wavelet_index(-1, Fraction(1, 3), 1, 3)) \
            + TestFunction.single(wavelet_index(0, 0, 1, 3))
        spec = spec_of(f)
        assert (spec.gamma_a, spec.gamma_0) == (1, -1)
        n0 = CosetRepresentative(3, Fraction(0), 0)
        assert phase_fix_multiplicity(0, n0, spec) == 9

    @pytest.mark.parametrize("p, gamma_a, gamma_0, gamma1, n1, expected", [
        (3, 2, 2, 0, Fraction(0), 3),
        (2, 2, 2, 0, Fraction(0), 2),
        (3, 2, 3, 1, Fraction(1, 3), 3),
        (5, 1, 2, 0, Fraction(1, 5), 1),
        (3, 2, 2, -1, Fraction(1, 9), 1),
        (3, 3, 2, -1, Fraction(1, 9), 3),
        (2, 3, 2, -1, Fraction(1, 4), 2),
    ])
    def test_empty_digit_window(self, p, gamma_a, gamma_0, gamma1, n1, expected):
        # gamma_0 >= 1 + max(0, gamma1 + D1) leaves no free digit, so only
        # n = 0 is tried: J = 1 + t p counts when p**m divides t p N1,
        # m = max(window - gamma1, D1); that is every t when N1 = 0 or
        # m <= 1, else (N1 is a unit here) every t = 0 mod p**(m - 1)
        spec = StabilizerSpec(p, gamma_a, gamma_0, CosetRepresentative(p, Fraction(0), 0))
        n1 = CosetRepresentative(p, n1, 0)
        assert phase_fix_multiplicity(gamma1, n1, spec) == expected


class TestReparametrization:
    def test_base_wavelet_family(self):
        p = 3
        f = base_wavelet(p)
        spec = spec_of(f)
        family = reparametrize_wavelet_frame(f, spec)
        assert family.case == 1 and family.copies == 1
        assert len(family.members) == (p - 1) * p

    def test_members_cover_orbit_exactly(self):
        p = 3
        f = base_wavelet(p)
        spec = spec_of(f)
        family = reparametrize_wavelet_frame(f, spec)
        # translating and dilating a member reproduces the orbit element of
        # the combined group element, exactly
        for (J, m), mother in family.members:
            for gamma1 in (-1, 0, 1):
                for n1 in (Fraction(0), Fraction(1, 3)):
                    outer = affine(ppow(p, gamma1), ppow(p, gamma1) * n1, p)
                    combined = affine(
                        ppow(p, gamma1) * J, ppow(p, gamma1) * (n1 + m), p)
                    assert act_on_function(outer, mother) == \
                        act_on_function(combined, f)

    def test_member_window_matches_orbit_window(self):
        p = 3
        f = base_wavelet(p)
        spec = spec_of(f)
        family = reparametrize_wavelet_frame(f, spec)
        members = {}
        for (J, m), mother in family.members:
            assert norm_sq(mother) == norm_sq(f)
            members[(J, m)] = mother
        # at gamma = 0, translations n1 + m over m cover all residues mod p
        orbit_window = {
            str(sorted(
                (idx.sort_key, str(c)) for idx, c in
                orbit_element(f, spec, orbit_index(0, n, J, spec)).sorted_terms()))
            for J in dilation_indices(spec)
            for n in (Fraction(0), Fraction(1), Fraction(2))}
        family_window = {
            str(sorted((idx.sort_key, str(c)) for idx, c in mother.sorted_terms()))
            for mother in members.values()}
        assert family_window == orbit_window

    def test_far_from_zero_scales_use_copies(self):
        p = 3
        f = TestFunction.single(wavelet_index(2, 0, 1, p)) \
            + TestFunction.single(wavelet_index(2, Fraction(1, 3), 1, p))
        spec = spec_of(f)
        assert spec.gamma_0 == 2
        family = reparametrize_wavelet_frame(f, spec)
        assert family.case == 2
        assert family.copies == p ** (spec.gamma_0 - 1)
        assert len(family.members) == len(dilation_indices(spec))

    def test_non_generic_rejected_with_verdict(self):
        f, _ = non_generic_example(3, 1)
        spec = spec_of(f)
        verdict = genericity_check(f, 3)
        with pytest.raises(NonGenericError):
            reparametrize_wavelet_frame(f, spec, verdict)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_grouped_energy_equals_fraction_reference_and_direct(data):
    """The integer collision walk against the Fraction-base digit-dict walk
    (bit for bit, floats included) and against plain enumeration, on
    gamma_a >= 2 mothers probed with their own labels."""
    p = data.draw(st.sampled_from(PRIMES))
    mode = data.draw(st.sampled_from(MODES))
    f, g = data.draw(colliding_frame_cases(p, mode))
    spec = spec_of(f)
    assert spec.gamma_a >= 2
    assert has_collision(f, g)
    assume(index_bound(f, spec, g) <= ORACLE_INDEX_CAP)
    grouped = orbit_energy_grouped(f, spec, g)
    reference = reference_orbit_energy_grouped(f, spec, g)
    direct = orbit_energy_direct(f, spec, g)
    if mode == EXACT:
        assert grouped == reference == direct
    else:
        assert grouped.hex() == reference.hex()
        assert f.field.residual_is_zero(grouped - direct, bound=frame_bound(f, spec),
                                        g_nsq=norm_sq(g))


def pinned_digits(p, k, profiles, bases):
    """Per pair i, the (position, digit) list it pins on positions
    min(profiles) - k .. profiles[i] - 1: the digits of
    bases[i] / p**(k - profiles[i])."""
    lo = min(profiles) - k
    out = []
    for prof, b in zip(profiles, bases):
        digits = fraction_digit_expansion(b * ppow(p, prof - k), p)
        out.append([(pos, digits.get(pos, 0)) for pos in range(lo, prof)])
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_collision_leaves_equal_cell_by_cell_oracle(data):
    """The walk's contract, checked on every digit string on lo .. top: its
    counts are the single-alive cells per pair, and each leaf class (alive
    pairs, the digits at their profiles) holds as many multi-alive cells as
    its leaves' summed multiplicity.  Each leaf's n, with zeros above its
    highest digit, is itself a cell of its class.  top runs from one below
    the highest profile (a spec with gamma_0 one above a term's scale,
    where that profile's digit is 0) to one above it, and every count and
    multiplicity is an int."""
    p = data.draw(st.sampled_from((2, 3, 5)))
    k = data.draw(st.integers(0, 2))
    pairs = data.draw(st.integers(2, 4))
    profiles = data.draw(st.lists(st.integers(-1, 2), min_size=pairs, max_size=pairs))
    # shared bases make pairs collide; a zero base pins only zero digits
    choices = data.draw(st.lists(st.integers(0, p**k - 1), min_size=1, max_size=2))
    bases = data.draw(st.lists(st.sampled_from(choices + [0]),
                               min_size=pairs, max_size=pairs))
    top = max(profiles) + data.draw(st.integers(-1, 1))
    hi = max(top, max(profiles))
    lo = min(profiles) - k
    assume(p ** (top - lo + 1) <= 5**6)
    pins = pinned_digits(p, k, profiles, bases)

    def cell_class(cell):
        """The pairs the cell solves and its digits at their profiles;
        cell[i] is the digit at position lo + i."""
        alive = tuple(i for i, pinned in enumerate(pins)
                      if all(cell[pos - lo] == d for pos, d in pinned))
        return alive, tuple(cell[profiles[i] - lo] for i in alive)

    single = [0] * pairs
    multi = Counter()
    for free in itertools.product(range(p), repeat=top - lo + 1):
        alive, digits = cell_class(free + (0,) * (hi - top))
        if len(alive) == 1:
            single[alive[0]] += 1
        elif alive:
            multi[alive, digits] += 1
    counts = [0] * pairs
    leaves, walk_lo = _collision_leaves(p, k, profiles, bases, top, counts)
    assert walk_lo == lo
    assert counts == single
    assert all(type(c) is int for c in counts)
    assert all(type(mult) is int for _, _, mult in leaves)
    classes = Counter()
    for alive, n, mult in leaves:
        digits = fraction_digit_expansion(n * ppow(p, lo), p)
        assert all(pos <= top for pos in digits)
        key = cell_class(tuple(digits.get(pos, 0) for pos in range(lo, hi + 1)))
        assert key[0] == alive and len(alive) >= 2
        classes[key] += mult
    assert classes == multi


def assert_exact_integers(value):
    """An exact energy built from integers only: a float count would leave
    a float numerator or denominator behind."""
    assert type(value) is CycloNumber
    assert all(type(x) is int for x in (*value._num, value._den))


def checked_walk(*args):
    """``_collision_leaves`` with its counts and multiplicities checked to
    be ints."""
    leaves, lo = _collision_leaves(*args)
    assert all(type(c) is int for c in args[-1])
    assert all(type(mult) is int for _, _, mult in leaves)
    return leaves, lo


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_grouped_equals_direct_on_raised_specs(data):
    """Specs above f's own: gamma_0 raised by one, gamma_a raised, or both.
    A term at scale gamma_0 - 1 then reads a digit above -gamma_0, which
    the canonical translation holds at 0.  The grouped energy equals the
    direct one exactly, on colliding and on plain draws, and is built from
    integer counts only.  gamma_0 raised by two is refused by both."""
    p = data.draw(st.sampled_from((2, 3, 5)))
    if data.draw(st.booleans()):
        f, g = data.draw(colliding_frame_cases(p, EXACT))
    else:
        f = data.draw(expansions(p, EXACT, scales=(-1, 1)))
        g = data.draw(st.one_of(st.just(f), expansions(p, EXACT, scales=(-1, 1))))
    own = spec_of(f)
    raise_0 = data.draw(st.integers(0, 1))
    raise_a = data.draw(st.integers(1 - raise_0, 2 if p < 5 else 1))
    spec = dataclasses.replace(own, gamma_a=own.gamma_a + raise_a,
                               gamma_0=own.gamma_0 + raise_0)
    assume(index_bound(f, spec, g) <= ORACLE_INDEX_CAP)
    with mock.patch.object(frames, "_collision_leaves", checked_walk):
        grouped = orbit_energy_grouped(f, spec, g)
    assert grouped == orbit_energy_direct(f, spec, g)
    assert_exact_integers(grouped)
    too_high = dataclasses.replace(spec, gamma_0=own.gamma_0 + 2)
    for method in ("grouped", "direct"):
        with pytest.raises(SpecScaleError, match="minimal scale"):
            verify_tight_frame(f, too_high, g, method=method)


def test_raised_spec_that_fixes_f_gives_zero_residuals():
    """p = 3, f = psi(0, 0, 2) + 2 zeta psi(0, 2/3, 2) under the spec
    (gamma_a, gamma_0) = (3, 1) instead of its own (2, 0).  That group
    still fixes f up to phase, so both energies are A ||g||^2 on every
    probe (the walk used to count a third of a cell here)."""
    p = 3
    f = TestFunction(p, EXACT, {
        wavelet_index(0, 0, 2, p): CycloNumber.one(p),
        wavelet_index(0, Fraction(2, 3), 2, p): root_of_unity(1, p).scale(2)})
    own = spec_of(f)
    assert (own.gamma_a, own.gamma_0) == (2, 0)
    spec = dataclasses.replace(own, gamma_a=3, gamma_0=1)
    rng = random.Random(16)
    probes = [f] + [random_test_function(rng, p, max_terms=3, gamma_range=(-1, 1),
                                         max_digits=1) for _ in range(12)]
    assert any(has_collision(f, g) for g in probes)
    for g in probes:
        for method in ("grouped", "direct"):
            assert verify_tight_frame(f, spec, g, method=method).is_zero()


def test_thousand_digit_translation_gives_exact_zero():
    """A probe term with a 1,000-digit translation makes each collision
    walk of its group 1,001 positions long; both strategies return the
    exact zero residual."""
    p = 3

    def psi(gamma, n, j):
        return TestFunction.single(wavelet_index(gamma, n, j, p))

    f = psi(0, 0, 1) + psi(0, Fraction(1, 3), 1).scaled(CycloNumber.from_rational(2, p))
    g = psi(0, 0, 1) + psi(0, Fraction(1, 3), 1) + psi(5, Fraction(1, 3**1000), 2)
    spec = spec_of(f)
    assert g.max_translation_digits() == 1000 and has_collision(f, g)
    grouped = verify_tight_frame(f, spec, g)
    assert grouped.is_zero()
    assert grouped == verify_tight_frame(f, spec, g, method="direct")


def _mismatched_operands(case):
    f = base_wavelet(3)
    if case == "mode":
        return f, spec_of(f), as_float(f)
    if case == "prime":
        return f, spec_of(f), base_wavelet(5)
    return f, spec_of(base_wavelet(5)), f


@pytest.mark.parametrize("method", ["grouped", "direct"])
@pytest.mark.parametrize("case, error", [
    ("mode", ModeMismatchError),
    ("prime", PrimeMismatchError),
    ("spec prime", PrimeMismatchError),
])
def test_mismatched_operands_raise_typed_errors(method, case, error):
    f, spec, g = _mismatched_operands(case)
    with pytest.raises(error):
        verify_tight_frame(f, spec, g, method=method)


def test_frame_report_structure():
    f = base_wavelet(3)
    spec = spec_of(f)
    rng = random.Random(73)
    probes = [random_test_function(rng, 3, max_terms=2) for _ in range(4)]
    report = run_frame_check(f, spec, probes)
    assert report.exact and report.g_count == 4
    assert report.all_zero_residuals
    assert all(c.ok for c in report.multiplicity_checks)
    assert report.frame_bound == CycloNumber.from_rational(3, 3)


def test_float_frame_amounts_stay_float():
    """Float-mode bounds, energies and residuals are plain floats (the
    report prints them as numbers) and agree with the exact values."""
    rng = random.Random(17)
    for p in (2, 3, 5):
        f = random_generic_function(rng, p, max_terms=2, gamma_range=(-1, 1),
                                    max_digits=1)
        g = random_test_function(rng, p, max_terms=2, gamma_range=(-1, 1),
                                 max_digits=1)
        spec = spec_of(f)
        ff, gf = as_float(f), as_float(g)
        bound = frame_bound(ff, spec)
        residual = verify_tight_frame(ff, spec, gf)
        assert type(bound) is float
        assert bound == pytest.approx(frame_bound(f, spec).to_complex().real)
        assert type(residual) is float
        assert type(orbit_energy_direct(ff, spec, gf)) is float
        assert ff.field.residual_is_zero(residual, bound=bound, g_nsq=norm_sq(gf))
        assert f.field.residual_is_zero(verify_tight_frame(f, spec, g))
        report = run_frame_check(ff, spec, [gf])
        assert report.all_zero_residuals and not report.exact
        assert all(check.ok for check in report.multiplicity_checks)
