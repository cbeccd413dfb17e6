"""Acceptance suite: one test per criterion, each printing a PASS line.

Exact-mode assertions are equality tests in Q(zeta_p); floating tolerances
appear only where a double-precision oracle is compared against the exact
path.  Runtime budgets are asserted where stated.
"""

import itertools
import random
import time
from fractions import Fraction

from orbit_strategies import lattice_points, loop_mod_p
from padicframes.affine import (
    StabilizerSpec,
    act_on_function,
    act_on_wavelet,
    affine,
    compose,
    genericity_check,
    identity,
    in_stabilizer,
    inverse,
    power,
    required_genericity_depth,
    stabilizer_spec,
    wavelet_stabilizer_membership,
)
from padicframes.cyclotomic import CycloNumber
from padicframes.frames import frame_bound, phase_fix_multiplicity, verify_tight_frame
from padicframes.mra import scaling_shift_gram, wavelet_space_gram
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
    inner_product_oracle,
    inner_product_symbolic,
    norm_sq,
    sample,
    wavelet_index,
)


def report(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_single_wavelet_frame():
    """Mother-wavelet orbit: bound equals p, residuals exactly zero."""
    start = time.monotonic()
    for p in (2, 3, 5, 7):
        f = base_wavelet(p)
        spec = stabilizer_spec(f)
        assert frame_bound(f, spec) == CycloNumber.from_rational(p, p)
        rng = random.Random(100 + p)
        for _ in range(25):
            g = random_test_function(rng, p, max_terms=4,
                                     gamma_range=(-2, 2), max_digits=2)
            assert verify_tight_frame(f, spec, g).is_zero()
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"budget exceeded: {elapsed:.1f}s"
    report(1, f"bound = p and 4x25 exact-zero residuals in {elapsed:.1f}s")


def test_criterion_02_tight_frame_at_desk_scale():
    """Random generic mother functions: every residual exactly zero."""
    start = time.monotonic()
    checked = 0
    for p in (2, 3, 5):
        rng = random.Random(200 + p)
        for _ in range(25):
            f = random_generic_function(rng, p, max_terms=4,
                                        gamma_range=(-2, 2), max_digits=2)
            spec = stabilizer_spec(f)
            for _ in range(25):
                g = random_test_function(rng, p, max_terms=4,
                                         gamma_range=(-2, 2), max_digits=2)
                residual = verify_tight_frame(f, spec, g)
                assert residual.is_zero(), (p, f, g)
                checked += 1
    elapsed = time.monotonic() - start
    assert checked == 3 * 25 * 25
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    report(2, f"{checked} exact-zero residuals in {elapsed:.1f}s")


def test_criterion_03_fixed_scale_bound():
    """Fixed-scale expansions: bound is p**gamma_a times the squared norm."""
    p = 3
    instances = [
        # same translation grid, two units
        {wavelet_index(0, 0, 1, p): CycloNumber.from_rational(1, p),
         wavelet_index(0, 0, 2, p): CycloNumber.from_rational(2, p)},
        # distinct translations one digit deep
        {wavelet_index(0, 0, 1, p): CycloNumber.from_rational(1, p),
         wavelet_index(0, Fraction(1, 3), 1, p): CycloNumber.from_rational(3, p)},
        # two digits deep at a negative scale
        {wavelet_index(-1, Fraction(1, 9), 1, p): CycloNumber.from_rational(2, p),
         wavelet_index(-1, Fraction(2, 9), 2, p): CycloNumber.from_rational(5, p),
         wavelet_index(-1, Fraction(1, 3), 1, p): CycloNumber.from_rational(1, p)},
    ]
    for terms in instances:
        f = TestFunction(p, EXACT, terms)
        spec = stabilizer_spec(f)
        # recompute the dilation depth independently from the pair formula
        entries = [(idx.gamma, idx.n.value) for idx in f.terms]
        depth = 1
        for (g1, n1), (g2, n2) in itertools.combinations(entries, 2):
            c1, c2 = ppow(p, -g1) * n1, ppow(p, -g2) * n2
            if c1 == c2:
                continue
            dist = -int(rational_valuation(c1 - c2, p))
            depth = max(depth, 1 - max(g1, g2) + dist)
        assert spec.gamma_a == depth
        expected = norm_sq(f).scale(p**depth)
        assert frame_bound(f, spec) == expected
    report(3, f"{len(instances)} fixed-scale bounds match p**gamma_a * norm")


def test_criterion_04_stabilizer_brute_force():
    """Exhaustive digit enumeration equals the closed-form stabilizer set."""
    start = time.monotonic()
    p = 3
    rng = random.Random(404)
    for trial in range(20):
        f = random_generic_function(rng, p, max_terms=3,
                                    gamma_range=(-1, 1), max_digits=1)
        spec = stabilizer_spec(f)
        depth = required_genericity_depth(f, spec)
        window = max(
            [0] + [idx.gamma for idx in f.terms]
            + [idx.translation_digits() - idx.gamma for idx in f.terms])
        b_scale = ppow(p, -window)
        for a_int in range(1, p**depth):
            if a_int % p == 0:
                continue
            for t in range(p ** (depth + window)):
                g = affine(a_int, t * b_scale, p)
                invariant = act_on_function(g, f) == f
                assert invariant == in_stabilizer(g, spec), (trial, g)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    report(4, f"20 enumerations match the closed form in {elapsed:.1f}s")


def test_criterion_05_non_generic_counterexample():
    """The reflection-built function is fixed by (-1, 0) though no term is;
    coefficients (1, 2) remove the symmetry."""
    f, witness = non_generic_example(3, 1)
    assert (witness.a.value, witness.b.value) == (-1, 0)
    assert act_on_function(witness, f) == f
    for idx in f.terms:
        assert not wavelet_stabilizer_membership(witness, idx)
        single = TestFunction.single(idx)
        assert act_on_function(witness, single) != single
    verdict = genericity_check(f, 3)
    assert not verdict.generic_up_to_depth
    assert any(g.a.value % 27 == 26 and g.b.value == 0 for g in verdict.witnesses)
    assert not verdict.spec_violations

    perturbed = perturbed_generic_example(3, 1)
    assert act_on_function(witness, perturbed) != perturbed
    assert genericity_check(perturbed, 3).generic_up_to_depth
    report(5, "extra symmetry found and removed by coefficients (1, 2)")


def _index_formulas(a: Fraction, b: Fraction, idx, p: int):
    """Closed-form index map, restated from scratch for cross-validation."""
    s = int(rational_valuation(a, p))
    u = a * ppow(p, -s)
    j_prime = (idx.j * pow(loop_mod_p(u, p), -1, p)) % p
    y = ppow(p, idx.gamma - s) * b + u * idx.n.value
    n_prime = rep_mod(y, p, 0)
    m = loop_mod_p(Fraction(j_prime) * (n_prime - y), p)
    return idx.gamma - s, n_prime, j_prime, m


def test_criterion_06_action_cross_validation():
    """500 seeded (element, index) pairs: exact index formulas and the
    pointwise lattice oracle agree with the computed action."""
    rng = random.Random(606)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        g = random_affine(rng, p, valuation_range=(-1, 1),
                          translation_digits=1, magnitude=5)
        idx = wavelet_index(
            rng.randint(-1, 1),
            Fraction(rng.randrange(p), p) if rng.random() < 0.7 else Fraction(0),
            rng.randint(1, p - 1), p)
        out = act_on_wavelet(g, idx)
        assert (out.index.gamma, out.index.n.value, out.index.j, out.phase) \
            == _index_formulas(g.a.value, g.b.value, idx, p)

        source = TestFunction.single(idx)
        claimed = TestFunction(
            p, EXACT,
            {out.index: FIELDS[EXACT].phase(CycloNumber.one(p), out.phase, p)})
        resolution = max(default_lattice(source)[0], default_lattice(claimed)[0])
        support = max(default_lattice(source)[1], default_lattice(claimed)[1])
        points = set(lattice_points(sample(claimed, resolution, support))) \
            | set(lattice_points(sample(source, resolution, support)))
        a, b = g.a.value, g.b.value
        scale = float(rational_norm(a, p)) ** -0.5
        for x in points:
            direct = scale * evaluate_at(source, (x - b) / a)
            assert abs(direct - evaluate_at(claimed, x)) <= 1e-9
    report(6, "500 action classifications match formulas and lattice oracle")


def test_criterion_07_multiplicity_law():
    """Phase-fixing count equals p**(gamma_a - gamma_0 + gamma1) by
    exhaustive enumeration over the finite quotient."""
    p = 3
    anchor = CosetRepresentative(p, Fraction(0), 0)
    translations = [Fraction(0), Fraction(1, 3), Fraction(2, 9)]
    for gamma_a, gamma_0, gamma_1 in itertools.product(
            (1, 2), (-1, 0), (-1, 0, 1)):
        spec = StabilizerSpec(p, gamma_a, gamma_0, anchor)
        for n_value in translations:
            n1 = CosetRepresentative(p, n_value, 0)
            count = phase_fix_multiplicity(gamma_1, n1, spec)
            assert count == p ** (gamma_a - gamma_0 + gamma_1), \
                (gamma_a, gamma_0, gamma_1, n_value)
    report(7, "phase-fix counts match p**(gamma_a - gamma_0 + gamma1) on all 12 combos")


def test_criterion_08_basis_orthonormality():
    """Symbolic Kronecker delta over the full small grid; Haar-measure
    oracle agrees within 1e-9."""
    for p in (2, 3):
        indices = []
        for gamma in range(-2, 3):
            for j in range(1, p):
                for t in range(p**2):
                    n_value = Fraction(t % p, p) + Fraction(t // p, p**2)
                    n_value = rep_mod(n_value, p, 0)
                    idx = wavelet_index(gamma, n_value, j, p)
                    if idx not in indices:
                        indices.append(idx)
        resolution = 3
        support = max(
            max(idx.gamma, idx.translation_digits() - idx.gamma)
            for idx in indices)
        sampled = {
            idx: sample(TestFunction.single(idx), resolution, support)
            for idx in indices}
        for i, a in enumerate(indices):
            fa = TestFunction.single(a)
            for b in indices[i:]:
                ip = inner_product_symbolic(fa, TestFunction.single(b))
                if a == b:
                    assert ip == CycloNumber.one(p)
                else:
                    assert ip.is_zero()
                oracle = inner_product_oracle(sampled[a], sampled[b])
                assert abs(oracle - ip.to_complex()) <= 1e-9
    report(8, "Kronecker Gram exact on both grids; oracle within 1e-9")


def test_criterion_09_group_law_suite():
    """1000 seeded triples satisfy the group identities exactly; the action
    is a homomorphism and preserves norms exactly."""
    rng = random.Random(909)
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        g1 = random_affine(rng, p)
        g2 = random_affine(rng, p)
        g3 = random_affine(rng, p)
        assert compose(compose(g1, g2), g3) == compose(g1, compose(g2, g3))
        assert compose(g1, inverse(g1)) == identity(p)
        k = rng.randint(-3, 4)
        expected = identity(p)
        step = g1 if k >= 0 else inverse(g1)
        for _ in range(abs(k)):
            expected = compose(expected, step)
        assert power(g1, k) == expected
    for _ in range(150):
        p = rng.choice([2, 3])
        f = random_test_function(rng, p, max_terms=3,
                                 gamma_range=(-1, 1), max_digits=1)
        g1 = random_affine(rng, p)
        g2 = random_affine(rng, p)
        assert act_on_function(g1, act_on_function(g2, f)) \
            == act_on_function(compose(g1, g2), f)
        assert norm_sq(act_on_function(g1, f)) == norm_sq(f)
    report(9, "1000 group-law triples and 150 action/unitarity checks exact")


def test_criterion_10_mra_checks():
    """Shift Gram is the identity on 27 canonical shifts; fixed-exponent
    spans separate exactly beyond the scale spread and overlap at distance
    one for a two-scale witness."""
    p = 3
    shifts = []
    for t in range(27):
        value = sum(((t // p**i) % p) * ppow(p, -3 + i) for i in range(3))
        shifts.append(CosetRepresentative(p, value, 0))
    gram = scaling_shift_gram(p, shifts)
    for i in range(27):
        for k in range(27):
            assert gram[i][k] == (1 if i == k else 0)

    f = TestFunction.single(wavelet_index(0, 0, 1, p)) \
        + TestFunction.single(wavelet_index(1, 0, 1, p))
    spec = stabilizer_spec(f)
    spread = f.scale_spread()
    assert spread == 1
    beyond = wavelet_space_gram(f, spec, 0, spread + 1, truncation=1)
    assert beyond.orthogonal
    adjacent = wavelet_space_gram(f, spec, 0, 1, truncation=1)
    assert not adjacent.orthogonal
    report(10, "27-shift Gram identity; orthogonality exactly beyond the spread")
