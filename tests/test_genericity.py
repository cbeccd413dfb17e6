"""Genericity certificates against two reference loops.

``genericity_check`` decides the digit quotient one translation class at a
time, the closed form by one congruence per unit.  ``brute_force_genericity``
below is the direct definition: one exact action and one closed-form test
for every cell.  ``class_loop_genericity`` walks the same classes as the
library but decides the closed form with ``in_stabilizer`` on a group element
built for each class.  The differential tests demand the same verdict from
all three, witness order included.  Invariance in the cell-by-cell loop is
the agreement rule written out: the same labels, and label by label c == d
or ``field.residual_is_zero(c - d, d, 1)``, which is equality for exact
coefficients and forgives rounding for doubles.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import padicframes.affine as affine_module
from padicframes.affine import (
    AffineElement,
    GenericityVerdict,
    _translation_window,
    act_on_function,
    affine,
    default_genericity_depth,
    genericity_check,
    in_stabilizer,
    required_genericity_depth,
    stabilizer_spec,
)
from padicframes.cyclotomic import CycloNumber
from padicframes.padic import CosetRepresentative, PadicScalar, ppow, rep_mod
from padicframes.sampling import (
    non_generic_example,
    perturbed_generic_example,
    random_generic_function,
    random_test_function,
)
from padicframes.wavelets import EXACT, FLOAT, TestFunction, wavelet_index

# Largest quotient checked cell by cell, per prime: at p = 5 the depth
# required + 1 is already 12,500 cells or more, so p = 5 covers required only.
CELL_CAP = {2: 1000, 3: 600, 5: 2500}


def quotient_cells(f: TestFunction, depth: int) -> int:
    p = f.prime
    return (p**depth - p ** (depth - 1)) * p ** (depth + _translation_window(f))


def fixes(image: TestFunction, f: TestFunction) -> bool:
    """Whether the image g f agrees with f, coefficient by coefficient."""
    residual_is_zero = f.field.residual_is_zero
    return image.terms.keys() == f.terms.keys() and all(
        image.terms[idx] == d or residual_is_zero(image.terms[idx] - d, d, 1)
        for idx, d in f.terms.items())


def brute_force_genericity(f: TestFunction, depth: int, spec=None) -> GenericityVerdict:
    """Reference verdict: a runs over the units modulo p**depth, b over
    t * p**-w for every t < p**(depth + w), and every cell (a, b) gets one
    exact action on f and one closed-form membership test."""
    spec = spec or stabilizer_spec(f)
    p = f.prime
    window = _translation_window(f)
    b_scale = ppow(p, -window)
    witnesses, violations = [], []
    quotient = 0
    for a_int in range(1, p**depth):
        if a_int % p == 0:
            continue
        for t in range(p ** (depth + window)):
            g = affine(a_int, t * b_scale, p)
            quotient += 1
            invariant = fixes(act_on_function(g, f), f)
            predicted = in_stabilizer(g, spec)
            if invariant and not predicted:
                witnesses.append(g)
            elif predicted and not invariant:
                violations.append(g)
    return GenericityVerdict(
        generic_up_to_depth=not witnesses and not violations,
        witnesses=tuple(witnesses),
        depth=depth,
        quotient_size=quotient,
        spec_violations=tuple(violations))


def class_loop_genericity(f: TestFunction, depth: int, spec=None) -> GenericityVerdict:
    """Reference verdict on the translation classes of ``genericity_check``:
    for each unit a, the classes that carry a minimal-scale term onto a term
    of f and the closed-form class, each decided by the action and by
    ``in_stabilizer`` on one group element built for it; the witnesses and
    violations of a unit are built before the next unit is visited."""
    spec = spec or stabilizer_spec(f)
    p = f.prime
    window = _translation_window(f)
    b_count = p ** (depth + window)
    b_scale = ppow(p, -window)
    period = p ** (window + 1 - spec.gamma_0)
    step = period // p
    landings = [(idx.j, idx.n.value) for idx in f.terms if idx.gamma == spec.gamma_0]
    j0, n0 = landings[0]
    anchor = spec.n_0.value
    witnesses, violations = [], []
    for a_int in range(1, p**depth):
        if a_int % p == 0:
            continue
        classes = set()
        j_target = j0 * pow(a_int, -1, p) % p
        for j, n in landings:
            if j != j_target:
                continue
            t = step * (n - a_int * n0)
            if t.denominator == 1:
                classes.update(range(int(t) % step, period, step))
        if (a_int - 1) % p**spec.gamma_a == 0:
            t = step * anchor * (1 - a_int)
            if t.denominator == 1:
                classes.add(int(t) % period)

        a = Fraction(a_int)
        fixed, broken = [], []
        for c in classes:
            g = AffineElement(PadicScalar(a, p), PadicScalar(c * b_scale, p))
            invariant = act_on_function(g, f).agrees(f)
            predicted = in_stabilizer(g, spec)
            if invariant and not predicted:
                fixed.extend(range(c, b_count, period))
            elif predicted and not invariant:
                broken.extend(range(c, b_count, period))
        for ts, out in ((fixed, witnesses), (broken, violations)):
            out.extend(
                AffineElement(PadicScalar(a, p), PadicScalar(t * b_scale, p))
                for t in sorted(ts))
    units = p**depth - p ** (depth - 1)
    return GenericityVerdict(
        generic_up_to_depth=not witnesses and not violations,
        witnesses=tuple(witnesses),
        depth=depth,
        quotient_size=units * b_count,
        spec_violations=tuple(violations))


def unit_coefficients(f: TestFunction) -> TestFunction:
    """Same labels, every coefficient 1: equal coefficients let the action
    swap terms, so extra symmetries (witnesses) turn up often."""
    one = CycloNumber.one(f.prime) if f.mode == EXACT else complex(1)
    return TestFunction(f.prime, f.mode, {idx: one for idx in f.terms})


KINDS = {
    "test-exact": lambda rng, p: random_test_function(
        rng, p, max_terms=3, gamma_range=(-1, 1), max_digits=1),
    "test-float": lambda rng, p: random_test_function(
        rng, p, max_terms=3, gamma_range=(-1, 1), max_digits=1, mode=FLOAT),
    "generic": lambda rng, p: random_generic_function(
        rng, p, max_terms=3, gamma_range=(-1, 1), max_digits=1),
    "unit-exact": lambda rng, p: unit_coefficients(random_test_function(
        rng, p, n_terms=2, gamma_range=(-1, 0), max_digits=1)),
    "unit-float": lambda rng, p: unit_coefficients(random_test_function(
        rng, p, n_terms=2, gamma_range=(-1, 0), max_digits=1, mode=FLOAT)),
}
INSTANCES = {2: 8, 3: 4, 5: 1}


def differential_instances(p: int, kind: str):
    """The first seeded (function, depth) pairs within the prime's cell cap,
    at depths required and required + 1."""
    rng = random.Random(f"genericity-differential {p} {kind}")
    found = []
    while len(found) < INSTANCES[p]:
        f = KINDS[kind](rng, p)
        required = required_genericity_depth(f)
        found.extend((f, depth) for depth in (required, required + 1)
                     if quotient_cells(f, depth) <= CELL_CAP[p])
    return found[:INSTANCES[p]]


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_matches_cell_by_cell_loop(p, kind):
    for f, depth in differential_instances(p, kind):
        verdict = genericity_check(f, depth)
        assert verdict == brute_force_genericity(f, depth)
        assert verdict == class_loop_genericity(f, depth)


def test_differential_draws_reach_witnesses():
    # the comparison above must also cover non-generic verdicts
    non_generic = [
        (p, kind) for p in (2, 3) for kind in ("unit-exact", "unit-float")
        for f, depth in differential_instances(p, kind)
        if not genericity_check(f, depth).generic_up_to_depth]
    assert {p for p, _ in non_generic} == {2, 3}
    assert {kind for _, kind in non_generic} == {"unit-exact", "unit-float"}


@pytest.mark.parametrize("f, generic", [
    (non_generic_example(3, 1)[0], False),
    (perturbed_generic_example(3, 1), True),
], ids=["non-generic", "perturbed"])
def test_named_examples_match_cell_by_cell_loop(f, generic):
    depth = required_genericity_depth(f)
    verdict = genericity_check(f, depth)
    assert verdict == brute_force_genericity(f, depth)
    assert verdict.generic_up_to_depth is generic


@pytest.mark.parametrize("p, lifts", [(3, 2), (5, 1)])
@pytest.mark.parametrize("example", [
    lambda p: non_generic_example(p, 1)[0],
    lambda p: perturbed_generic_example(p, 1),
], ids=["non-generic", "perturbed"])
def test_named_examples_match_class_loop(p, lifts, example):
    f = example(p)
    required = required_genericity_depth(f)
    for depth in range(required, required + lifts + 1):
        assert genericity_check(f, depth) == class_loop_genericity(f, depth)


def as_float(f: TestFunction) -> TestFunction:
    """The same expansion with every coefficient rounded to a double."""
    return TestFunction(f.prime, FLOAT, {idx: complex(c) for idx, c in f.terms.items()})


@pytest.mark.parametrize("p, j", [(3, 1), (3, 2), (5, 1), (5, 3)])
def test_float_named_example_finds_the_exact_symmetries(p, j):
    """Doubles round the phases of g f, so invariance is decided by the
    field's agreement rule; the float copy gets the exact verdict."""
    f = non_generic_example(p, j)[0]
    exact, floated = genericity_check(f), genericity_check(as_float(f))
    assert not floated.generic_up_to_depth
    assert [(g.a, g.b) for g in floated.witnesses] \
        == [(g.a, g.b) for g in exact.witnesses]
    assert len(floated.witnesses) == {3: 81, 5: 1875}[p]
    assert floated.spec_violations == exact.spec_violations == ()
    assert floated == class_loop_genericity(as_float(f), floated.depth)
    if p == 3:
        depth = required_genericity_depth(f)
        assert genericity_check(as_float(f), depth) \
            == brute_force_genericity(as_float(f), depth)


def pair(first, second) -> TestFunction:
    """psi_first + 2 psi_second."""
    two = CycloNumber.from_rational(2, first.prime)
    return TestFunction.single(first) + TestFunction.single(second).scaled(two)


def shifted_anchor_spec(f: TestFunction):
    """The closed form with its anchor moved by p**-(gamma_a + 1): a wrong
    prediction, off the classes that carry a minimal-scale term onto a term."""
    spec = stabilizer_spec(f)
    p = spec.prime
    moved = rep_mod(spec.n_0.value + ppow(p, -spec.gamma_a - 1), p, 0)
    return replace(spec, n_0=CosetRepresentative(p, moved, 0))


def test_spec_violations_match_cell_by_cell_loop(monkeypatch):
    # The true closed form never fails, so violations need a wrong one: the
    # class holding the wrong prediction must be evaluated as well.
    monkeypatch.setattr(affine_module, "stabilizer_spec", shifted_anchor_spec)
    functions = [
        pair(wavelet_index(0, 0, 1, 2), wavelet_index(0, Fraction(1, 2), 1, 2)),
        pair(wavelet_index(-1, 0, 1, 2), wavelet_index(0, 0, 1, 2)),
        pair(wavelet_index(-1, 0, 1, 3), wavelet_index(0, 0, 1, 3)),
        TestFunction.single(wavelet_index(-1, 0, 2, 5)),
    ]
    for f in functions:
        depth = required_genericity_depth(f)
        verdict = genericity_check(f, depth)
        assert verdict.spec_violations
        assert verdict == brute_force_genericity(f, depth, shifted_anchor_spec(f))
        assert verdict == class_loop_genericity(f, depth, shifted_anchor_spec(f))


def test_p5_non_generic_example_at_default_depth():
    # 7,812,500 cells: out of reach cell by cell, a few seconds by classes
    p = 5
    f, witness = non_generic_example(p, 1)
    depth = default_genericity_depth(f)
    assert depth == 4
    verdict = genericity_check(f)
    window = _translation_window(f)
    assert not verdict.generic_up_to_depth
    assert not verdict.spec_violations
    assert verdict.depth == depth
    assert verdict.quotient_size == (p**4 - p**3) * p ** (4 + window) == 7_812_500
    for g in verdict.witnesses:
        assert act_on_function(g, f) == f
    keys = {(g.a.value, g.b.value) for g in verdict.witnesses}
    assert (witness.a.value % p**4, witness.b.value) in keys


@pytest.mark.xfail(strict=True, reason="the translation window uses max(gamma, D - gamma), "
                   "not gamma + D, so translations that fix f go unenumerated")
def test_translation_beyond_window_that_fixes_f_is_found():
    # terms (1, 2/3, 1) and (1, 0, 2): the centre 2/9 has norm 3**2, the
    # window is 1, and the reflection x -> 2/9 - x swaps the two supports
    f = act_on_function(affine(Fraction(1, 9), Fraction(1, 9), 3), non_generic_example(3, 1)[0])
    g = affine(-1, Fraction(2, 9), 3)
    assert act_on_function(g, f) == f
    assert not in_stabilizer(g, stabilizer_spec(f))
    assert not genericity_check(f, 3).generic_up_to_depth
