import random
import types
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
    loop_mod_p,
    norm_ball_stabilizer_membership,
    norm_in_stabilizer,
    rationals,
    reference_act_on_function,
    reference_act_on_wavelet,
    reference_wavelet_stabilizer_membership,
)
import padicframes.affine as affine_module
from padicframes.affine import (
    act_on_function,
    act_on_wavelet,
    affine,
    ball_stabilizer_membership,
    compose,
    default_genericity_depth,
    genericity_check,
    identity,
    in_stabilizer,
    inverse,
    power,
    required_genericity_depth,
    stabilizer_spec,
    wavelet_stabilizer_membership,
    StabilizerSpec,
)
from padicframes.cyclotomic import CycloNumber
from padicframes.errors import DepthTooSmallError, InvariantError
from padicframes.padic import (
    CosetRepresentative,
    ppow,
    rational_norm,
    rational_valuation,
    rep_mod,
)
from padicframes.sampling import (
    base_wavelet,
    non_generic_example,
    perturbed_generic_example,
    random_affine,
    random_generic_function,
    random_test_function,
)
from padicframes.wavelets import (
    EXACT,
    FIELDS,
    TestFunction,
    default_lattice,
    evaluate_at,
    norm_sq,
    sample,
    wavelet_index,
)


def index_formula_oracle(a: Fraction, b: Fraction, idx, p: int):
    """Independent closed forms for the action on an arbitrary index, written
    from scratch against the rational-level helpers: with s the valuation of
    a and u its unit part,
        gamma' = gamma - s
        j'     = j * u^{-1} mod p
        y      = p**(gamma - s) * b + u * n
        n'     = {y},  m = j' (n' - y) mod p.
    """
    s = int(rational_valuation(a, p))
    u = a * ppow(p, -s)
    j_prime = (idx.j * pow(loop_mod_p(u, p), -1, p)) % p
    gamma_prime = idx.gamma - s
    y = ppow(p, idx.gamma - s) * b + u * idx.n.value
    n_prime = rep_mod(y, p, 0)
    m = loop_mod_p(Fraction(j_prime) * (n_prime - y), p)
    return gamma_prime, n_prime, j_prime, m


def pointwise_match(g, idx, phased, tol=1e-9):
    """Lattice oracle: |a|^(-1/2) psi_idx((x-b)/a) against the claimed
    phased wavelet, at every lattice point covering both supports."""
    p = g.p
    source = TestFunction.single(idx)
    claimed = TestFunction(
        p, EXACT,
        {phased.index: FIELDS[EXACT].phase(CycloNumber.one(p), phased.phase, p)})
    # size the lattice from both functions separately; their sum may cancel
    resolution = max(default_lattice(source)[0], default_lattice(claimed)[0])
    support = max(default_lattice(source)[1], default_lattice(claimed)[1])
    lattice = sample(claimed, resolution, support)
    a, b = g.a.value, g.b.value
    scale = float(rational_norm(a, p)) ** -0.5
    points = set(lattice.values) | set(sample(source, resolution, support).values)
    for x in sorted(points) or [Fraction(0)]:
        direct = scale * evaluate_at(source, (x - b) / a)
        via_index = evaluate_at(claimed, x)
        if abs(direct - via_index) > tol:
            return False
    return True


class TestGroupLaw:
    def test_compose_identity(self):
        g = affine(Fraction(3, 2) * 0 + 2, Fraction(1, 3), 3)
        assert compose(identity(3), g) == g
        assert compose(g, identity(3)) == g

    def test_compose_inverse(self):
        g = affine(Fraction(2), Fraction(5, 9), 3)
        assert compose(g, inverse(g)) == identity(3)
        assert compose(inverse(g), g) == identity(3)

    def test_compose_formula(self):
        left = affine(2, 1, 5)
        right = affine(3, 1, 5)
        assert compose(left, right) == affine(6, 3, 5)

    def test_inverse_formula(self):
        assert inverse(affine(2, 3, 5)) == affine(Fraction(1, 2), Fraction(-3, 2), 5)
        assert inverse(identity(5)) == identity(5)
        assert inverse(affine(5, 0, 5)) == affine(Fraction(1, 5), 0, 5)

    def test_power_edge_cases(self):
        g = affine(Fraction(4, 3) * Fraction(3, 4) * 2, Fraction(7, 2), 2)
        assert power(g, 0) == identity(2)
        assert power(g, 1) == g
        assert power(g, 2) == compose(g, g)
        assert power(g, -1) == inverse(g)
        assert power(g, -3) == inverse(compose(g, compose(g, g)))

    def test_power_at_a_equal_one(self):
        g = affine(1, Fraction(1, 3), 3)
        assert power(g, 5) == affine(1, Fraction(5, 3), 3)


class TestActOnWavelet:
    def test_identity_action(self):
        idx = wavelet_index(-1, Fraction(2, 9), 2, 3)
        out = act_on_wavelet(identity(3), idx)
        assert out.index == idx and out.phase == 0

    def test_rotation_with_translation(self):
        out = act_on_wavelet(affine(2, Fraction(1, 3), 3), wavelet_index(0, 0, 1, 3))
        assert (out.index.gamma, out.index.n.value, out.index.j) == (0, Fraction(1, 3), 2)
        assert out.phase == 0

    def test_pure_dilation(self):
        out = act_on_wavelet(affine(Fraction(1, 3), 0, 3), wavelet_index(0, 0, 1, 3))
        assert (out.index.gamma, out.index.n.value, out.index.j) == (1, Fraction(0), 1)
        assert out.phase == 0

    def test_integer_translation_phase(self):
        out = act_on_wavelet(affine(1, 1, 3), wavelet_index(0, 0, 1, 3))
        assert out.index == wavelet_index(0, 0, 1, 3)
        assert out.phase == 2

    def test_general_denominators_stay_exact(self):
        # the inverse of a legal element carries prime-to-p denominators;
        # classification absorbs them through modular inverses
        g = affine(Fraction(3, 2), Fraction(1, 3), 3)
        idx = wavelet_index(0, 0, 1, 3)
        out = act_on_wavelet(g, idx)
        assert pointwise_match(g, idx, out)

    def test_matches_formula_and_lattice_oracles(self):
        rng = random.Random(17)
        for _ in range(40):
            p = rng.choice([2, 3, 5])
            g = random_affine(rng, p, valuation_range=(-1, 1), translation_digits=1, magnitude=5)
            idx = wavelet_index(
                rng.randint(-1, 1),
                Fraction(rng.randrange(p), p) if rng.random() < 0.7 else 0,
                rng.randint(1, p - 1), p)
            out = act_on_wavelet(g, idx)
            expected = index_formula_oracle(g.a.value, g.b.value, idx, p)
            assert (out.index.gamma, out.index.n.value, out.index.j, out.phase) == expected
            assert pointwise_match(g, idx, out)


class TestActOnFunction:
    def test_identity(self):
        rng = random.Random(1)
        f = random_test_function(rng, 3, max_terms=4)
        assert act_on_function(identity(3), f) == f

    def test_round_trip(self):
        rng = random.Random(2)
        for _ in range(10):
            p = rng.choice([2, 3, 5])
            f = random_test_function(rng, p, max_terms=4)
            g = random_affine(rng, p)
            assert act_on_function(inverse(g), act_on_function(g, f)) == f

    def test_translation_moves_support(self):
        f = base_wavelet(3)
        moved = act_on_function(affine(1, Fraction(1, 3), 3), f)
        assert list(moved.terms) == [wavelet_index(0, Fraction(1, 3), 1, 3)]
        assert moved.terms[wavelet_index(0, Fraction(1, 3), 1, 3)] == CycloNumber.one(3)

    def test_action_property(self):
        rng = random.Random(3)
        for _ in range(10):
            p = rng.choice([2, 3])
            f = random_test_function(rng, p, max_terms=3)
            g1, g2 = random_affine(rng, p), random_affine(rng, p)
            assert act_on_function(g1, act_on_function(g2, f)) == \
                act_on_function(compose(g1, g2), f)

    def test_unitarity(self):
        rng = random.Random(4)
        for _ in range(10):
            p = rng.choice([2, 3, 5])
            f = random_test_function(rng, p, max_terms=4)
            g = random_affine(rng, p)
            assert norm_sq(act_on_function(g, f)) == norm_sq(f)

    def test_oracle_consistency_on_lattice(self):
        rng = random.Random(6)
        for _ in range(8):
            p = rng.choice([2, 3])
            f = random_test_function(rng, p, max_terms=3, gamma_range=(-1, 1), max_digits=1)
            g = random_affine(rng, p, valuation_range=(-1, 1), translation_digits=1, magnitude=4)
            moved = act_on_function(g, f)
            resolution, support = default_lattice(moved)
            lattice = sample(moved, resolution, support)
            a, b = g.a.value, g.b.value
            scale = float(rational_norm(a, p)) ** -0.5
            for x, v in lattice.values.items():
                assert abs(scale * evaluate_at(f, (x - b) / a) - v) <= 1e-9


class TestBallAndWaveletStabilizers:
    def test_unit_ball(self):
        n0 = CosetRepresentative(3, Fraction(0), 0)
        assert ball_stabilizer_membership(affine(2, 1, 3), 0, n0)
        assert ball_stabilizer_membership(affine(Fraction(1, 2), 2, 3), 0, n0)
        assert not ball_stabilizer_membership(affine(3, 0, 3), 0, n0)

    def test_small_ball_translation(self):
        n = CosetRepresentative(3, Fraction(1, 3), 0)
        assert not ball_stabilizer_membership(affine(1, Fraction(1, 3), 3), -1, n)
        assert ball_stabilizer_membership(affine(1, Fraction(1, 3) * Fraction(1, 3) * 0, 3), -1, n)

    def test_wavelet_stabilizer_examples(self):
        p = 3
        for gamma in (-1, 0, 2):
            idx = wavelet_index(gamma, Fraction(1, 3), 1, p)
            assert wavelet_stabilizer_membership(identity(p), idx)
            assert wavelet_stabilizer_membership(affine(1, ppow(p, 1 - gamma), p), idx)
        zero_idx = wavelet_index(1, 0, 1, p)
        assert not wavelet_stabilizer_membership(affine(1, ppow(p, -1), p), zero_idx)

    def test_membership_agrees_with_exact_action(self):
        rng = random.Random(8)
        p = 3
        for _ in range(60):
            idx = wavelet_index(rng.randint(-1, 1), Fraction(rng.randrange(3), 3), rng.randint(1, 2), p)
            g = random_affine(rng, p, valuation_range=(0, 0), translation_digits=1, magnitude=7)
            fixed = act_on_function(g, TestFunction.single(idx)) == TestFunction.single(idx)
            assert fixed == wavelet_stabilizer_membership(g, idx)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_wavelet_stabilizer_matches_direct_formula(data):
    """The one-term closed form agrees with the direct formula, on elements
    drawn near the stabilizer (a = 1 mod p, b near the centre) and off it."""
    p = data.draw(st.sampled_from(PRIMES))
    width = data.draw(st.integers(0, 2))
    digits = data.draw(st.lists(st.integers(0, p - 1), min_size=width, max_size=width))
    n = sum((d * ppow(p, k - width) for k, d in enumerate(digits)), Fraction(0))
    idx = wavelet_index(data.draw(st.integers(-2, 2)), n, data.draw(st.integers(1, p - 1)), p)
    if data.draw(st.booleans()):
        a = 1 + p * data.draw(rationals(p).filter(lambda r: 1 + p * r != 0))
    else:
        a = data.draw(rationals(p, nonzero=True))
    b = data.draw(rationals(p))
    if data.draw(st.booleans()):
        b = ppow(p, -idx.gamma) * n * (1 - a) + ppow(p, idx.gamma - 1) * b
    g = affine(a, b, p)
    assert wavelet_stabilizer_membership(g, idx) == \
        reference_wavelet_stabilizer_membership(g, idx)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_valuation_stabilizer_tests_match_fraction_norms(data):
    """The closed-form and ball stabilizer tests, decided on valuations,
    agree with their ``Fraction``-norm forms on ``random_affine`` draws.  A
    drawn element may be moved to the edge of each test: a = 1 + p**gamma_a a'
    and b = centre + p**r b', inside exactly when a' and b' are p-adic
    integers."""
    p = data.draw(st.sampled_from(PRIMES))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    spec = StabilizerSpec(p, data.draw(st.integers(1, 3)), data.draw(st.integers(-2, 2)),
                          data.draw(grid_translations(p, 2, 0)))
    gamma = data.draw(st.integers(-2, 2))
    g = random_affine(rng, p)
    a, b = g.a.value, g.b.value
    if data.draw(st.booleans()) and a != -ppow(p, -spec.gamma_a):
        a = 1 + ppow(p, spec.gamma_a) * a
        b = ppow(p, -spec.gamma_0) * spec.n_0.value * (1 - a) + ppow(p, 1 - spec.gamma_0) * b
    g = affine(a, b, p)
    assert in_stabilizer(g, spec) == norm_in_stabilizer(g, spec)
    h = random_affine(rng, p, valuation_range=(0, 0)) if data.draw(st.booleans()) else g
    if data.draw(st.booleans()):
        a = h.a.value
        h = affine(a, ppow(p, -gamma) * spec.n_0.value * (1 - a) + ppow(p, -gamma) * h.b.value, p)
    assert ball_stabilizer_membership(h, gamma, spec.n_0) \
        == norm_ball_stabilizer_membership(h, gamma, spec.n_0)


class TestStabilizerSpec:
    def test_single_wavelet(self):
        spec = stabilizer_spec(base_wavelet(3))
        assert (spec.gamma_a, spec.gamma_0, spec.n_0.value) == (1, 0, Fraction(0))

    def test_two_translates_at_p3(self):
        f = base_wavelet(3) + TestFunction.single(wavelet_index(0, Fraction(1, 3), 1, 3))
        spec = stabilizer_spec(f)
        assert (spec.gamma_a, spec.gamma_0) == (2, 0)

    def test_two_scales_distance_one(self):
        # centers 1 and 0 sit at distance 1, so the pair term is p**-1
        f = TestFunction.single(wavelet_index(-1, Fraction(1, 3), 1, 3)) \
            + TestFunction.single(wavelet_index(0, 0, 1, 3))
        spec = stabilizer_spec(f)
        assert (spec.gamma_a, spec.gamma_0) == (1, -1)

    def test_invariance_set_equals_prediction(self):
        # exhaustive digit enumeration against the closed form
        f = base_wavelet(3) + TestFunction.single(wavelet_index(0, Fraction(1, 3), 1, 3))
        spec = stabilizer_spec(f)
        p = 3
        for a_int in range(1, 27):
            if a_int % p == 0:
                continue
            for t in range(81):
                b = Fraction(t, 3)
                g = affine(a_int, b, p)
                assert (act_on_function(g, f) == f) == in_stabilizer(g, spec)

    def test_anchor_choice_does_not_change_b_ball(self):
        p = 3
        f = TestFunction.single(wavelet_index(0, Fraction(1, 3), 1, p)) \
            + TestFunction.single(wavelet_index(0, Fraction(2, 3), 2, p))
        spec = stabilizer_spec(f)
        anchors = [idx.n for idx in f.terms]
        rng = random.Random(12)
        for _ in range(200):
            g = random_affine(rng, p, valuation_range=(0, 0))
            memberships = {
                in_stabilizer(g, StabilizerSpec(p, spec.gamma_a, spec.gamma_0, anchor))
                for anchor in anchors}
            assert len(memberships) == 1

    def test_anchor_check_raises_typed_error(self, monkeypatch):
        # anchors 1/3 and 2/3 at scale -1 sit exactly at the pair bound;
        # a pair bound that skips every pair (gamma_a stays 1) breaks it
        p = 3
        f = TestFunction.single(wavelet_index(-1, Fraction(1, 3), 1, p)) \
            + TestFunction.single(wavelet_index(-1, Fraction(2, 3), 1, p))
        assert stabilizer_spec(f).gamma_a == 2
        monkeypatch.setattr(
            affine_module, "itertools",
            types.SimpleNamespace(combinations=lambda items, r: iter(())))
        with pytest.raises(InvariantError, match="b-balls"):
            stabilizer_spec(f)


class TestGenericity:
    def test_single_wavelet_generic(self):
        verdict = genericity_check(base_wavelet(3), 3)
        assert verdict.generic_up_to_depth
        assert not verdict.witnesses and not verdict.spec_violations

    def test_depth_too_small_names_bound(self):
        f = base_wavelet(3)
        with pytest.raises(DepthTooSmallError) as err:
            genericity_check(f, 1)
        assert err.value.required == 2

    def test_non_generic_instance(self):
        f, witness = non_generic_example(3, 1)
        assert act_on_function(witness, f) == f
        for idx in f.terms:
            assert not wavelet_stabilizer_membership(witness, idx)
        verdict = genericity_check(f, 3)
        assert not verdict.generic_up_to_depth
        assert not verdict.spec_violations
        keys = {(g.a.value % 27, g.b.value) for g in verdict.witnesses}
        assert (26, Fraction(0)) in keys

    def test_perturbed_coefficients_restore_genericity(self):
        f = perturbed_generic_example(3, 1)
        verdict = genericity_check(f, 3)
        assert verdict.generic_up_to_depth

    def test_distinct_magnitude_generator_is_generic(self):
        rng = random.Random(23)
        for _ in range(6):
            f = random_generic_function(rng, 3, max_terms=3, gamma_range=(-1, 1), max_digits=1)
            depth = max(required_genericity_depth(f), 3)
            if depth > 4:
                continue
            assert genericity_check(f, depth).generic_up_to_depth

    def test_default_depth_covers_required(self):
        rng = random.Random(29)
        for _ in range(20):
            f = random_test_function(rng, 3, max_terms=4)
            assert default_genericity_depth(f) >= required_genericity_depth(f)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


def affine_elements(p):
    nonzero = st.integers(min_value=-40, max_value=40).filter(lambda v: v != 0)
    k = st.integers(min_value=0, max_value=3)
    return st.builds(
        lambda num, ka, bnum, kb: affine(
            Fraction(num, p**ka), Fraction(bnum, p**kb), p),
        nonzero, k, st.integers(min_value=-40, max_value=40), k)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_associativity(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    g1, g2, g3 = (data.draw(affine_elements(p)) for _ in range(3))
    assert compose(compose(g1, g2), g3) == compose(g1, compose(g2, g3))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_power_matches_repeated_composition(data):
    p = data.draw(st.sampled_from([2, 3, 5]))
    g = data.draw(affine_elements(p))
    k = data.draw(st.integers(min_value=-5, max_value=5))
    expected = identity(p)
    step = g if k >= 0 else inverse(g)
    for _ in range(abs(k)):
        expected = compose(expected, step)
    assert power(g, k) == expected


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_action_matches_fraction_reference(data):
    """The integer kernel against the Fraction composition path: targets,
    phases, members, term order and float bits, for rational a != 0 and b
    with negative values and prime-to-p denominators."""
    p = data.draw(st.sampled_from(PRIMES))
    mode = data.draw(st.sampled_from(MODES))
    f = data.draw(expansions(p, mode))
    g = affine(data.draw(rationals(p, nonzero=True)), data.draw(rationals(p)), p)
    assert_same_members([act_on_function(g, f)], [reference_act_on_function(g, f)])
    for idx in f.terms:
        assert act_on_wavelet(g, idx) == reference_act_on_wavelet(g, idx)


def test_package_attribute_affine_is_the_submodule():
    # the group-element constructor lives in the submodule only, so the
    # package attribute stays the module
    import padicframes

    assert isinstance(padicframes.affine, types.ModuleType)
    assert padicframes.affine is affine_module
    assert affine_module.affine is affine
    assert callable(padicframes.affine.required_genericity_depth)
