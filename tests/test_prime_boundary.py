"""The prime is checked where it enters the library, not again inside.

Inputs are built first, through the checked public constructors.  Then
``padic.is_prime`` is replaced by a function that raises, and the exact
computations run on those inputs: any prime check left inside them fails
the test.  Their results are checked as well, so the trusted paths still
compute the right values.
"""

import random
from fractions import Fraction

import pytest

import padicframes.padic as padic
from padicframes.affine import (
    act_on_function,
    affine,
    genericity_check,
    stabilizer_spec,
)
from padicframes.frames import (
    frame_bound,
    orbit_element,
    orbit_index,
    orbit_members,
    verify_tight_frame,
)
from padicframes.mra import solve_in_span, span_probe, wavelet_space_gram
from padicframes.padic import CosetRepresentative
from padicframes.sampling import (
    non_generic_example,
    random_generic_function,
    random_test_function,
)
from padicframes.wavelets import EXACT, FLOAT, TestFunction, norm_sq


def _no_prime_checks(p):
    raise AssertionError(f"prime {p} checked again inside the library")


@pytest.mark.parametrize("p", [3, 5])
def test_computations_do_not_check_the_prime_again(monkeypatch, p):
    rng = random.Random(31 + p)
    f = random_generic_function(rng, p, max_terms=3, gamma_range=(-1, 1), max_digits=1)
    g = random_test_function(rng, p, max_terms=3, gamma_range=(-1, 1), max_digits=1)
    f_float = TestFunction(p, FLOAT, {idx: c.to_complex() for idx, c in f.terms.items()})
    g_float = TestFunction(p, FLOAT, {idx: c.to_complex() for idx, c in g.terms.items()})
    spec = stabilizer_spec(f)
    element = affine(Fraction(1, p) + 1, Fraction(2, p), p)
    translations = [CosetRepresentative(p, Fraction(t, p), 1 - spec.gamma_0)
                    for t in range(p)]
    index = orbit_index(0, translations[1].value, 1, spec)
    witness_f, _ = non_generic_example(p, 1)
    empty = TestFunction(p, EXACT, {})
    truncation = 1

    monkeypatch.setattr(padic, "is_prime", _no_prime_checks)

    bound = frame_bound(f_float, spec)
    for method in ("grouped", "direct"):
        assert verify_tight_frame(f, spec, g, method=method).is_zero()
        residual = verify_tight_frame(f_float, spec, g_float, method=method)
        assert f_float.field.residual_is_zero(residual, bound, norm_sq(g_float))
    members = orbit_members(f, spec, 0, 1, translations)
    assert members[1] == orbit_element(f, spec, index)
    assert all(norm_sq(m) == norm_sq(f) for m in members)
    moved = act_on_function(element, f)
    assert norm_sq(moved) == norm_sq(f)
    probe = span_probe(f, spec, 0, truncation)
    target = probe.generators[0] + probe.generators[-1]
    assert solve_in_span(probe.generators, target) is not None
    assert solve_in_span(probe.generators, empty) is not None
    assert wavelet_space_gram(f, spec, 0, 1, truncation).entries > 0
    verdict = genericity_check(witness_f)
    assert not verdict.generic_up_to_depth and verdict.witnesses


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_empty_function_checks_its_prime(mode, p):
    """An empty function has no label that checked its prime, so its
    constructor checks p; at a prime it builds and has norm zero."""
    with pytest.raises(ValueError, match=f"not a prime: {p}"):
        TestFunction(p, mode, {})
    assert not norm_sq(TestFunction(3, mode, {}))
