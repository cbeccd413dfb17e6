"""Seeded draws: the integer-built generators against the ``Fraction``-built
bodies they replaced, value for value and ``random.Random`` call for call,
requests refused before any draw, and a pinned digest of the benchmark's
draws."""

import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_strategies import MODES, PRIMES, expansions
from padicframes.affine import required_genericity_depth, stabilizer_spec
from padicframes.cyclotomic import CycloNumber, root_of_unity
from padicframes.errors import InvariantError
from padicframes.padic import ppow, rational_valuation
from padicframes.sampling import (
    _norm_sq_count,
    grid_labels,
    random_affine,
    random_complex,
    random_cyclo,
    random_generic_function,
    random_index,
    random_test_function,
    random_translation,
)
from padicframes.wavelets import EXACT, FLOAT, TestFunction, wavelet_index


# ---------------------------------------------------------------------------
# Oracles: the Fraction-built generator bodies and stabilizer_spec
# ---------------------------------------------------------------------------


def oracle_translation(rng, p, max_digits=2):
    depth = rng.randint(0, max_digits)
    if depth == 0:
        return Fraction(0)
    value = Fraction(rng.randint(1, p - 1), p**depth)
    for pos in range(-depth + 1, 0):
        value += rng.randint(0, p - 1) * ppow(p, pos)
    return value


def oracle_index(rng, p, gamma_range=(-2, 2), max_digits=2):
    gamma = rng.randint(*gamma_range)
    n = oracle_translation(rng, p, max_digits)
    j = rng.randint(1, p - 1)
    return wavelet_index(gamma, n, j, p)


def oracle_cyclo(rng, p, magnitude=3):
    while True:
        out = CycloNumber.zero(p)
        for _ in range(rng.randint(1, 2)):
            c = rng.choice([k for k in range(-magnitude, magnitude + 1) if k])
            out = out + root_of_unity(rng.randrange(p), p).scale(c)
        if not out.is_zero():
            return out


def oracle_test_function(rng, p, max_terms=4, gamma_range=(-2, 2), max_digits=2,
                         mode=EXACT, n_terms=None):
    count = n_terms if n_terms is not None else rng.randint(1, max_terms)
    indices = set()
    while len(indices) < count:
        indices.add(oracle_index(rng, p, gamma_range, max_digits))
    terms = {}
    for idx in sorted(indices, key=lambda i: i.sort_key):
        terms[idx] = oracle_cyclo(rng, p) if mode == EXACT else random_complex(rng)
    return TestFunction(p, mode, terms)


def oracle_generic_function(rng, p, max_terms=4, gamma_range=(-2, 2), max_digits=2):
    count = rng.randint(1, max_terms)
    indices = set()
    while len(indices) < count:
        indices.add(oracle_index(rng, p, gamma_range, max_digits))
    ordered = sorted(indices, key=lambda i: i.sort_key)
    while True:
        coeffs = [oracle_cyclo(rng, p) for _ in ordered]
        squares = [c.norm_sq() for c in coeffs]
        if all(squares[i] != squares[k]
               for i in range(len(squares)) for k in range(i + 1, len(squares))):
            break
    return TestFunction(p, EXACT, dict(zip(ordered, coeffs)))


def fraction_stabilizer_spec(f):
    """(gamma_a, gamma_0, n_0) with support centres as ``Fraction``s and the
    anchor check on rational values; ``InvariantError`` as the library."""
    p = f.prime
    centers = [(idx.gamma, idx.support_center()) for idx in f.terms]
    gamma_a = 1
    for (g1, c1), (g2, c2) in itertools.combinations(centers, 2):
        if c1 != c2:
            gamma_a = max(gamma_a, 1 - max(g1, g2) - int(rational_valuation(c1 - c2, p)))
    gamma_0 = min(g for g, _ in centers)
    anchors = sorted({idx.n for idx in f.terms if idx.gamma == gamma_0},
                     key=lambda n: (n.den_exponent,
                                    tuple(n.digits().get(pos, 0)
                                          for pos in range(-n.den_exponent, 0))))
    for other in anchors[1:]:
        if 1 - int(rational_valuation(anchors[0].value - other.value, p)) > gamma_a:
            raise InvariantError("anchors give different b-balls")
    return gamma_a, gamma_0, anchors[0]


def spec_triple(f):
    spec = stabilizer_spec(f)
    return spec.gamma_a, spec.gamma_0, spec.n_0


def assert_same_draw(new, old, rng_new, rng_old, *args, **kwargs):
    """Equal values (an expansion's terms in equal order, since float sums
    follow it), and equal generator state after the call."""
    value = new(rng_new, *args, **kwargs)
    expected = old(rng_old, *args, **kwargs)
    assert value == expected
    if isinstance(value, TestFunction):
        assert list(value.terms) == list(expected.terms)
    assert rng_new.getstate() == rng_old.getstate()
    return value


def twin_rngs(seed):
    return random.Random(seed), random.Random(seed)


# ---------------------------------------------------------------------------
# Draw for draw
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_generators_match_fraction_oracles(p):
    for seed in range(12):
        rng_new, rng_old = twin_rngs(seed * 100 + p)
        for max_digits in (0, 1, 2):
            assert_same_draw(random_translation, oracle_translation, rng_new, rng_old,
                             p, max_digits)
            assert_same_draw(random_index, oracle_index, rng_new, rng_old,
                             p, max_digits=max_digits)
        assert_same_draw(random_cyclo, oracle_cyclo, rng_new, rng_old, p)
        assert_same_draw(random_test_function, oracle_test_function, rng_new, rng_old, p)
        f = assert_same_draw(random_generic_function, oracle_generic_function,
                             rng_new, rng_old, p)
        assert spec_triple(f) == fraction_stabilizer_spec(f)
        assert_same_draw(random_cyclo, oracle_cyclo, rng_new, rng_old, p, magnitude=1)
        for mode in MODES:
            assert_same_draw(random_test_function, oracle_test_function, rng_new, rng_old,
                             p, max_terms=5, gamma_range=(-1, 2), max_digits=1, mode=mode)
            assert_same_draw(random_test_function, oracle_test_function, rng_new, rng_old,
                             p, mode=mode, n_terms=3)
        f = assert_same_draw(random_generic_function, oracle_generic_function,
                             rng_new, rng_old, p, max_terms=3, gamma_range=(-1, 1),
                             max_digits=1)
        assert spec_triple(f) == fraction_stabilizer_spec(f)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(-3, 2), st.integers(0, 2),
       st.integers(0, 2), st.integers(1, 6), st.sampled_from(MODES),
       st.integers(0, 2**32))
def test_draws_match_across_grids(p, lo, span, max_digits, max_terms, mode, seed):
    gamma_range = (lo, lo + span)
    max_terms = min(max_terms, grid_labels(p, gamma_range, max_digits))
    rng_new, rng_old = twin_rngs(seed)
    assert_same_draw(random_test_function, oracle_test_function, rng_new, rng_old,
                     p, max_terms, gamma_range, max_digits, mode)
    f = assert_same_draw(random_generic_function, oracle_generic_function,
                         rng_new, rng_old, p, max_terms, gamma_range, max_digits)
    assert spec_triple(f) == fraction_stabilizer_spec(f)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(PRIMES).flatmap(lambda p: expansions(p, EXACT, scales=(-3, 3))))
def test_stabilizer_spec_matches_fraction_centres(f):
    """Any expansion, including anchors that give different b-balls."""
    try:
        expected = fraction_stabilizer_spec(f)
    except InvariantError:
        with pytest.raises(InvariantError):
            stabilizer_spec(f)
    else:
        assert spec_triple(f) == expected


# ---------------------------------------------------------------------------
# Requests refused before any draw
# ---------------------------------------------------------------------------


def test_grid_labels_counts_every_label():
    for p, gamma_range, max_digits in ((2, (0, 0), 0), (3, (-1, 1), 1), (5, (2, 2), 2)):
        labels = {wavelet_index(gamma, Fraction(num, p**max_digits), j, p)
                  for gamma in range(gamma_range[0], gamma_range[1] + 1)
                  for num in range(p**max_digits) for j in range(1, p)}
        assert grid_labels(p, gamma_range, max_digits) == len(labels)
    assert grid_labels(3, (4, 2), 2) == 0


REFUSED = {
    "empty gamma range": lambda rng: random_test_function(rng, 3, gamma_range=(4, 2)),
    "empty gamma range, index": lambda rng: random_index(rng, 3, gamma_range=(1, 0)),
    "max_terms beyond labels": lambda rng: random_test_function(
        rng, 2, max_terms=4, gamma_range=(0, 0), max_digits=0),
    "n_terms beyond labels": lambda rng: random_test_function(
        rng, 5, gamma_range=(0, 0), max_digits=0, n_terms=5, mode=FLOAT),
    "generic beyond labels": lambda rng: random_generic_function(
        rng, 3, max_terms=3, gamma_range=(0, 0), max_digits=0),
    "generic beyond moduli": lambda rng: random_generic_function(rng, 2, max_terms=7),
    "generic far beyond moduli": lambda rng: random_generic_function(rng, 2, max_terms=8),
    "negative digits": lambda rng: random_translation(rng, 3, max_digits=-1),
    "zero magnitude": lambda rng: random_cyclo(rng, 3, magnitude=0),
    "zero complex magnitude": lambda rng: random_complex(rng, magnitude=0),
    "zero affine magnitude": lambda rng: random_affine(rng, 3, magnitude=0),
    "composite prime": lambda rng: random_cyclo(rng, 4),
    "unknown mode": lambda rng: random_test_function(rng, 3, mode="fuzzy"),
}


@pytest.mark.parametrize("request_", REFUSED.values(), ids=REFUSED.keys())
def test_unmeetable_request_raises_before_any_draw(request_):
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ValueError):
        request_(rng)
    assert rng.getstate() == state


def test_requests_at_the_bounds_are_met_with_the_same_draws():
    rng_new, rng_old = twin_rngs(8)
    f = assert_same_draw(random_test_function, oracle_test_function, rng_new, rng_old,
                         5, gamma_range=(0, 0), max_digits=0, n_terms=4)
    assert len(f.terms) == 4
    f = assert_same_draw(random_generic_function, oracle_generic_function,
                         rng_new, rng_old, 2, max_terms=6)
    assert len({c.norm_sq() for c in f.terms.values()}) == len(f.terms)


@pytest.mark.parametrize("p", PRIMES)
def test_norm_sq_count_matches_enumerated_draws(p):
    """Every one- and two-term coefficient random_cyclo can draw."""
    terms = [root_of_unity(m, p).scale(c) for c in range(-3, 4) if c for m in range(p)]
    draws = terms + [x + y for x in terms for y in terms]
    moduli = {x.norm_sq() for x in draws if not x.is_zero()}
    choices = [c for c in range(-3, 4) if c]
    assert _norm_sq_count(p, choices) == len(moduli)
    assert _norm_sq_count(p, choices) == {2: 6, 3: 12, 5: 30, 7: 42}[p]


# ---------------------------------------------------------------------------
# The benchmark's draws, pinned
# ---------------------------------------------------------------------------


def _function_record(f):
    return [(idx.gamma, str(idx.n.value), idx.j, c.zeta_powers())
            for idx, c in f.sorted_terms()]


def _spec_record(f):
    spec = stabilizer_spec(f)
    return spec.gamma_a, spec.gamma_0, str(spec.n_0.value)


def benchmark_draws():
    """Seeded draws with each in-process workload's generator parameters,
    from the workloads' round-0 seeds (``workload:7919:0``)."""
    rng = random.Random("frame-exact:7919:0")
    for p in (2, 3, 5):
        for _ in range(24):
            f = random_generic_function(rng, p, max_terms=4, gamma_range=(-2, 2), max_digits=2)
            yield _function_record(f), _spec_record(f)
        for terms in (1, 2, 3, 4):
            yield _function_record(random_test_function(
                rng, p, gamma_range=(-2, 2), max_digits=2, n_terms=terms))
    rng = random.Random("genericity-p3:7919:0")
    for _ in range(24):
        f = random_generic_function(rng, 3, max_terms=3, gamma_range=(-1, 1), max_digits=1)
        yield _function_record(f), required_genericity_depth(f)
    rng = random.Random("mra-span:7919:0")
    for _ in range(24):
        f = random_generic_function(rng, 3, max_terms=3, gamma_range=(-1, 1), max_digits=1)
        yield _function_record(f), _spec_record(f)
        yield random_cyclo(rng, 3).zeta_powers(), random_cyclo(rng, 3).zeta_powers()
    yield rng.getstate()


BENCHMARK_DRAWS_SHA256 = "bb3d8c0175565fd3cf050941fe01169a8d93910a295c5bc39fc68d06384c22da"


def test_benchmark_draws_are_pinned():
    digest = hashlib.sha256()
    for record in benchmark_draws():
        digest.update(repr(record).encode())
    assert digest.hexdigest() == BENCHMARK_DRAWS_SHA256
