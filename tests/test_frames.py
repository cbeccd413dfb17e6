import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_strategies import (
    MODES,
    PRIMES,
    assert_same_members,
    expansions,
    grid_translations,
    oracle_member,
    oracle_members,
    orbit_spec,
    reference_act_on_function,
)
from padicframes.affine import (
    act_on_function,
    affine,
    compose,
    genericity_check,
    in_stabilizer,
    stabilizer_spec,
)
from padicframes.cyclotomic import CycloNumber
from padicframes.errors import EmptyFunctionError, NonGenericError, PrimeMismatchError
from padicframes.frames import (
    OrbitIndex,
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
from padicframes.padic import CosetRepresentative, digit_grid, ppow, rep_mod
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
    grid = [CosetRepresentative(p, value, 1) for value in digit_grid(p, -2, 1)]
    for J in dilation_indices(spec)[:2]:
        for gamma in (-1, 2):
            assert_same_members(orbit_members(f, spec, gamma, J, grid),
                                oracle_members(f, spec, gamma, J, grid))


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
        report = run_frame_check(ff, spec, [gf], check_multiplicities=False)
        assert report.all_zero_residuals and not report.exact
