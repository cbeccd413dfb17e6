"""Shared hypothesis strategies, checks and the reference action for the
orbit-member and group-action tests.

Drawn test functions mix exact and float coefficients and are built in draw
order, not sorted order.  They include negative scales, two-digit
translations and, for p > 2, terms that share (gamma, n) but differ in j.

The reference action works on ``Fraction``s by composition, independently of
the library's integer kernel, and is the oracle for every member test.
"""

from fractions import Fraction

from hypothesis import strategies as st

from padicframes.affine import PhasedWavelet, StabilizerSpec
from padicframes.cyclotomic import CycloNumber, root_of_unity
from padicframes.frames import OrbitIndex, group_element
from padicframes.padic import (
    CosetRepresentative,
    ppow,
    rational_mod_p,
    rational_valuation,
    rep_mod,
)
from padicframes.wavelets import (
    EXACT,
    FLOAT,
    TestFunction,
    WaveletIndex,
    wavelet_index,
)

PRIMES = (2, 3, 5, 7)
MODES = (EXACT, FLOAT)


def digit_value(p, digits, lo):
    """sum d_k p**(lo + k) over the digit list."""
    return sum((d * ppow(p, lo + k) for k, d in enumerate(digits)), Fraction(0))


def orbit_spec(p, gamma_a, gamma_0):
    """A stabilizer spec with free (gamma_a, gamma_0).  Orbit members read
    only p, gamma_a and gamma_0 from it: the group action itself is exact for
    every (a, b), so gamma_0 need not be the minimal scale of f."""
    return StabilizerSpec(p, gamma_a, gamma_0, CosetRepresentative(p, Fraction(0), 0))


@st.composite
def coefficients(draw, p, mode):
    if mode == EXACT:
        parts = draw(st.lists(
            st.tuples(st.integers(0, p - 1), st.integers(-3, 3).filter(bool)),
            min_size=1, max_size=3))
        c = CycloNumber.zero(p)
        for power, scale in parts:
            c = c + root_of_unity(power, p).scale(scale)
        return CycloNumber.one(p) if c.is_zero() else c
    parts = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
    z = complex(draw(parts), draw(parts))
    return complex(1) if z == 0 else z


@st.composite
def expansions(draw, p, mode):
    """Up to four terms with scales in [-2, 2] and translations of up to two
    digits, each possibly followed by a sibling with the same (gamma, n)."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        gamma = draw(st.integers(-2, 2))
        digits = draw(st.lists(st.integers(0, p - 1), max_size=2))
        n = digit_value(p, digits, -len(digits))
        j = draw(st.integers(1, p - 1))
        terms[wavelet_index(gamma, n, j, p)] = draw(coefficients(p, mode))
        if p > 2 and draw(st.booleans()):
            sibling = draw(st.integers(1, p - 1).filter(lambda k: k != j))
            terms[wavelet_index(gamma, n, sibling, p)] = draw(coefficients(p, mode))
    return TestFunction(p, mode, terms)


@st.composite
def grid_translations(draw, p, truncation, mod_exp):
    """A canonical n modulo p**mod_exp with digits down to -truncation."""
    width = max(mod_exp + truncation, 0)
    digits = draw(st.lists(st.integers(0, p - 1), min_size=width, max_size=width))
    return CosetRepresentative(p, digit_value(p, digits, -truncation), mod_exp)


def _classify_base_action(a, b, p):
    """Index map of the action on the base wavelet: (a, b) acting on psi
    gives phase m and target (gamma', n', j')."""
    v = rational_valuation(a, p)
    gamma = -int(v)
    absa = ppow(p, gamma)
    unit = a * absa
    j = pow(rational_mod_p(unit, p), -1, p)
    y = absa * b
    n_value = rep_mod(y, p, 0)
    m = rational_mod_p(j * (n_value - y), p)
    return gamma, n_value, j, m


def _act_index(a, b, idx):
    """Action on one index, via composition with its representative
    (p**-gamma j^-1, p**-gamma n), the element carrying the base wavelet onto
    psi_idx with zero phase."""
    p = idx.prime
    jinv = pow(idx.j, -1, p)
    scale = ppow(p, -idx.gamma)
    comp_a = a * scale * jinv
    comp_b = b + a * scale * idx.n.value
    gamma, n_value, j, m = _classify_base_action(comp_a, comp_b, p)
    return WaveletIndex(gamma, CosetRepresentative(p, n_value, 0), j), m


def reference_act_on_wavelet(g, idx):
    """G(a, b) psi_idx = zeta^m psi_target, on Fractions."""
    target, m = _act_index(g.a.value, g.b.value, idx)
    return PhasedWavelet(target, m)


def reference_act_on_function(g, f):
    """Termwise action on Fractions, phases folded in term order."""
    a, b, p = g.a.value, g.b.value, f.prime
    field = f.field
    out = {}
    for idx, c in f.terms.items():
        target, m = _act_index(a, b, idx)
        nc = field.phase(c, m, p)
        out[target] = out[target] + nc if target in out else nc
    return TestFunction(p, f.mode, out)


@st.composite
def rationals(draw, p, nonzero=False):
    """p**k num / den with k in [-3, 3], num in [-40, 40] and den prime to p
    in [1, 12]: negative values and prime-to-p denominators included."""
    num = draw(st.integers(-40, 40).filter(lambda v: v or not nonzero))
    den = draw(st.integers(1, 12).filter(lambda d: d % p))
    return Fraction(num, den) * ppow(p, draw(st.integers(-3, 3)))


def oracle_member(f, spec, idx):
    """The member built by one group element acting on all of f, through
    the reference action."""
    return reference_act_on_function(group_element(idx, spec), f)


def oracle_members(f, spec, gamma, J, translations):
    return [oracle_member(f, spec, OrbitIndex(gamma, n, J)) for n in translations]


def coefficient_bits(c):
    """Float coefficients by their exact bits, exact ones as they are."""
    if isinstance(c, complex):
        return (c.real.hex(), c.imag.hex())
    return c


def assert_same_members(members, oracle):
    """Equal functions, the same term order and bit-identical coefficients."""
    assert len(members) == len(oracle)
    for member, expected in zip(members, oracle):
        assert member == expected
        assert list(member.terms) == list(expected.terms)
        assert [coefficient_bits(c) for c in member.terms.values()] \
            == [coefficient_bits(c) for c in expected.terms.values()]
