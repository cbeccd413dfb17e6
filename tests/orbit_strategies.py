"""Shared hypothesis strategies, checks and the reference action for the
orbit-member and group-action tests.

Drawn test functions mix exact and float coefficients and are built in draw
order, not sorted order.  They include negative scales, two-digit
translations and, for p > 2, terms that share (gamma, n) but differ in j.

The reference action works on ``Fraction``s by composition, independently of
the library's integer kernel, and is the oracle for every member test.  The
reference frame energy computes the grouped sum of
``frames.orbit_energy_grouped`` on ``Fraction`` pair bases and digit dicts,
with one full orbit member of the reference action per colliding leaf.
The reference sampler evaluates each lattice point of the Haar oracle
pointwise, on ``Fraction``s, independently of the integer walk of
``wavelets.sample``; it keys its values by the ``Fraction`` points
themselves, and ``lattice_points`` puts a library sample in that form.  The ``fraction_*`` oracles are the ``Fraction`` forms
of the padic layer that the integer translation format replaced: the
canonicity check, the digit grid and the digit expansion.  The reference
wavelet stabilizer is the direct formula that
``affine.wavelet_stabilizer_membership`` replaced by the one-term closed form.
The ``loop_*`` oracles are the bodies that the single p-power split of
``padic`` replaced: the valuation by two division loops, the canonical
representative and the residue mod p through the valuation and ``Fraction``
powers, and the split that ``affine`` kept for itself.  The ``norm_*``
stabilizer oracles decide on ``Fraction`` norms instead of valuations.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from hypothesis import strategies as st

from padicframes.affine import PhasedWavelet, StabilizerSpec
from padicframes.cyclotomic import CycloNumber, root_of_unity
from padicframes.frames import OrbitIndex, group_element
from padicframes.errors import NotPIntegralError, PadicError
from padicframes.padic import CosetRepresentative, ppow
from padicframes.wavelets import (
    EXACT,
    FLOAT,
    SampledFunction,
    TestFunction,
    WaveletIndex,
    inner_product_symbolic,
    wavelet_eval,
    wavelet_index,
)

PRIMES = (2, 3, 5, 7)
MODES = (EXACT, FLOAT)


# ---------------------------------------------------------------------------
# Fraction oracles of the padic layer
# ---------------------------------------------------------------------------


def fraction_check_canonical(p, value, k):
    """The ``Fraction`` canonicity check of a representative modulo p**k:
    NotPIntegralError when the denominator is not a power of p, ValueError
    when the value is not its own canonical representative."""
    den = value.denominator
    while den % p == 0:
        den //= p
    if den != 1:
        raise NotPIntegralError(f"not p-integral denominator: {value}")
    if loop_rep_mod(value, p, k) != value:
        raise ValueError(f"{value} is not a canonical representative modulo p**{k}")


def fraction_digit_grid(p, lo, hi):
    """The value sum d_k p**k of every digit string (d_lo, ..., d_(hi-1)),
    in ``itertools.product`` order (the highest position varying fastest)."""
    unit = ppow(p, lo)
    for digits in itertools.product(range(p), repeat=max(hi - lo, 0)):
        yield unit * sum(d * p**k for k, d in enumerate(digits))


def fraction_digit_expansion(q, p):
    """Digits {exponent: digit} of a canonical representative q, read off
    after dividing out its valuation."""
    digits = {}
    if q == 0:
        return digits
    v = loop_valuation(q, p)
    m = int(q * ppow(p, -v))
    pos = v
    while m:
        m, r = divmod(m, p)
        if r:
            digits[pos] = r
        pos += 1
    return digits


def digit_value(p, digits, lo):
    """sum d_k p**(lo + k) over the digit list."""
    return sum((d * ppow(p, lo + k) for k, d in enumerate(digits)), Fraction(0))


def loop_valuation(q, p):
    """Exponent of p in q by one division loop on the numerator and one on
    the denominator; math.inf for q = 0."""
    if q == 0:
        return math.inf
    v = 0
    num = q.numerator
    den = q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def loop_norm(q, p):
    """|q|_p as a ``Fraction``, from ``loop_valuation``."""
    if q == 0:
        return Fraction(0)
    return ppow(p, -loop_valuation(q, p))


def loop_rep_mod(q, p, k):
    """Canonical representative of q modulo p**k Z_p: divide out p**v, take
    the digits at exponents v .. k-1 by a modular inverse, scale back."""
    if q == 0:
        return Fraction(0)
    v = loop_valuation(q, p)
    if v >= k:
        return Fraction(0)
    scaled = q * ppow(p, -v)
    m = scaled.numerator
    d = scaled.denominator
    modulus = p ** (k - v)
    digits_value = (m * pow(d, -1, modulus)) % modulus
    return digits_value * ppow(p, v)


class NonUnitError(PadicError):
    """The residue oracles were handed a rational that is no p-adic integer."""


def loop_mod_p(q, p):
    """Residue of a p-adic integer in Z_p / p Z_p by its own modular inverse."""
    v = loop_valuation(q, p)
    if v is not math.inf and v < 0:
        raise NonUnitError("not a p-adic integer")
    if q == 0 or v >= 1:
        return 0
    return (q.numerator * pow(q.denominator, -1, p)) % p


def loop_p_part(k, p):
    """(e, r) with k == p**e * r and r prime to p, for k != 0."""
    e = 0
    while k % p == 0:
        k //= p
        e += 1
    return e, k


def norm_in_stabilizer(g, spec):
    """The closed-form stabilizer test on ``Fraction`` norms:
    |1 - a| <= p**-gamma_a and |b - p**-gamma_0 n_0 (1 - a)| <= p**(gamma_0 - 1)."""
    p = g.p
    a, b = g.a.value, g.b.value
    if loop_norm(1 - a, p) > ppow(p, -spec.gamma_a):
        return False
    center = ppow(p, -spec.gamma_0) * spec.n_0.value * (1 - a)
    return loop_norm(b - center, p) <= ppow(p, spec.gamma_0 - 1)


def norm_ball_stabilizer_membership(g, gamma, n):
    """Whether g fixes the normed indicator of the ball with center
    p**-gamma n and radius p**gamma, on ``Fraction`` norms."""
    p = g.p
    a, b = g.a.value, g.b.value
    if loop_norm(a, p) != 1:
        return False
    center = ppow(p, -gamma) * n.value * (1 - a)
    return loop_norm(b - center, p) <= ppow(p, gamma)


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
def expansions(draw, p, mode, scales=(-2, 2)):
    """Up to four terms with scales in ``scales`` (inclusive) and
    translations of up to two digits, each possibly followed by a sibling
    with the same (gamma, n)."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        gamma = draw(st.integers(*scales))
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
    v = loop_valuation(a, p)
    gamma = -int(v)
    absa = ppow(p, gamma)
    unit = a * absa
    j = pow(loop_mod_p(unit, p), -1, p)
    y = absa * b
    n_value = loop_rep_mod(y, p, 0)
    m = loop_mod_p(j * (n_value - y), p)
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


def reference_wavelet_stabilizer_membership(g, idx):
    """Whether g fixes psi_idx, by the direct formula: a = 1 mod p and
    p**gamma b = n (1 - a) mod p."""
    p = g.p
    a, b = g.a.value, g.b.value
    if loop_norm(1 - a, p) > Fraction(1, p):
        return False
    lhs = ppow(p, idx.gamma) * b - idx.n.value * (1 - a)
    return loop_norm(lhs, p) <= Fraction(1, p)


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


# ---------------------------------------------------------------------------
# Reference frame energy: the Fraction pair bases and the digit-dict walk
# ---------------------------------------------------------------------------


def reference_pair_groups(f, g):
    """Term pairs by orbit gamma and by the residue of J mod p."""
    p = f.prime
    groups = {}
    for wf in f.terms:
        for wg in g.terms:
            gamma = wf.gamma - wg.gamma
            j_res = (wf.j * pow(wg.j, -1, p)) % p
            groups.setdefault(gamma, {}).setdefault(j_res, []).append((wf, wg))
    return groups


def reference_pair_base(wf, wg, J, p):
    """Digits below -wf.gamma of the translations carrying wf onto wg at
    dilation J: p**-wf.gamma (n_g / J - n_f) modulo p**-wf.gamma."""
    target = Fraction(wg.n.value, J) - wf.n.value
    return loop_rep_mod(ppow(p, -wf.gamma) * target, p, -wf.gamma)


def reference_relevant_orbit_indices(f, spec, g):
    """Every (gamma, n, J) carrying some term of f onto some term of g,
    enumerated pair by pair over all admissible J."""
    p = f.prime
    mod_exp = 1 - spec.gamma_0
    out = set()
    for wf in f.terms:
        for wg in g.terms:
            j_res = wf.j * pow(wg.j, -1, p) % p
            for J in range(j_res, p**spec.gamma_a, p):
                base = reference_pair_base(wf, wg, J, p)
                for offset in fraction_digit_grid(p, -wf.gamma, mod_exp):
                    out.add(OrbitIndex(
                        wf.gamma - wg.gamma,
                        CosetRepresentative(p, base + offset, mod_exp), J))
    return out


@dataclass(frozen=True)
class ReferencePairSolution:
    """Orbit indices carrying wf onto wg at fixed (gamma, J): the coset
    n = base + (free digits at positions -wf.gamma .. -gamma_0)."""

    wf: WaveletIndex
    wg: WaveletIndex
    base: Fraction  # digits at positions < -wf.gamma


def _reference_value_energy(f, spec, g, idx):
    return f.field.nsq(inner_product_symbolic(g, oracle_member(f, spec, idx)))


def _reference_collision_energy(f, spec, g, gamma, J, sols, counts):
    """Walk the union of solution cosets digit by digit over {pos: digit}
    dicts; each leaf where pairs still collide is one orbit member of all
    of f, and a branch left with one pair adds to its count."""
    p, field = f.prime, f.field
    mod_exp = 1 - spec.gamma_0
    profiles = {i: -s.wf.gamma for i, s in enumerate(sols)}
    digit_tables = {i: fraction_digit_expansion(s.base, p) for i, s in enumerate(sols)}
    hi = max(profiles.values())
    low_candidates = list(profiles.values())
    for table in digit_tables.values():
        if table:
            low_candidates.append(min(table))
    lo = min(low_candidates)
    total = field.real_zero(p)

    def leaf(digits, mult):
        nonlocal total
        n_value = Fraction(0)
        for pos, d in digits.items():
            n_value += d * ppow(p, pos)
        idx = OrbitIndex(gamma, CosetRepresentative(p, n_value, mod_exp), J)
        total = total + field.scale(_reference_value_energy(f, spec, g, idx), mult)

    def walk(pos, alive, digits, mult):
        if not alive:
            return
        if len(alive) == 1:
            i = next(iter(alive))
            counts[i] += mult * p ** (hi - max(pos, profiles[i]) + 1)
            return
        if pos > hi:
            leaf(digits, mult)
            return
        cons = {i: digit_tables[i].get(pos, 0) for i in alive if pos < profiles[i]}
        if any(profiles[i] == pos for i in alive):
            for d in range(p):
                alive2 = frozenset(i for i in alive if i not in cons or cons[i] == d)
                walk(pos + 1, alive2, {**digits, pos: d}, mult)
        elif cons:
            required = sorted(set(cons.values()))
            for r in required:
                alive2 = frozenset(i for i in alive if i not in cons or cons[i] == r)
                walk(pos + 1, alive2, {**digits, pos: r}, mult)
            survivors = frozenset(i for i in alive if i not in cons)
            if survivors and len(required) < p:
                spare = next(d for d in range(p) if d not in required)
                walk(pos + 1, survivors, {**digits, pos: spare},
                     mult * (p - len(required)))
        else:
            walk(pos + 1, alive, digits, mult * p)

    walk(lo, frozenset(range(len(sols))), {}, p ** (-spec.gamma_0 - hi))
    return total


def reference_orbit_energy_grouped(f, spec, g):
    """The grouped frame energy on Fraction pair bases and digit dicts, one
    full orbit member per colliding leaf, in the summation order of
    ``frames.orbit_energy_grouped``."""
    p, field = f.prime, f.field
    lifts = p ** (spec.gamma_a - 1)
    g_nsq = {wg: field.nsq(c) for wg, c in g.terms.items()}
    weights = {}
    total = field.real_zero(p)
    for gamma, by_res in reference_pair_groups(f, g).items():
        for j_res, pairs in by_res.items():
            if len(pairs) == 1:
                wf, _ = pairs[0]
                counts = [p ** (wf.gamma - spec.gamma_0 + 1) * lifts]
            else:
                counts = [0] * len(pairs)
                for t in range(lifts):
                    J = j_res + t * p
                    sols = [ReferencePairSolution(wf, wg, reference_pair_base(wf, wg, J, p))
                            for wf, wg in pairs]
                    total = total + _reference_collision_energy(
                        f, spec, g, gamma, J, sols, counts)
            for (wf, wg), count in zip(pairs, counts):
                if count:
                    term = field.scale(g_nsq[wg], count)
                    weights[wf] = weights[wf] + term if wf in weights else term
    for wf, weight in weights.items():
        total = total + field.nsq(f.terms[wf]) * weight
    return total


@st.composite
def colliding_frame_cases(draw, p, mode):
    """(f, g) with gamma_a(f) >= 2 and colliding term pairs.

    Two shapes of f force gamma_a >= 2.  Twins: two terms at one scale s
    with one unit j whose translations differ in their digit at -1, and
    possibly a third term at scale s, or s + 1 for p < 5 (contributing
    indices grow as p**(gamma_a - gamma_0 + gamma)); g reuses the first
    twin's label, possibly more of f's labels, and both twins land on it in
    one (gamma, J mod p) group.  Distant, for p < 5: a term at scale s and
    one at s + 2 with a one-digit translation, whose support centers lie
    p**(s + 3) apart; g reuses both labels, which puts two pairs with
    profiles two positions apart in one group.  g takes fresh coefficients
    and possibly one term of its own.
    """
    s = draw(st.integers(-1, 1))
    j = draw(st.integers(1, p - 1))
    digits = draw(st.lists(st.integers(0, p - 1), max_size=2))
    n1 = digit_value(p, digits, -len(digits))
    labels = [wavelet_index(s, n1, j, p)]
    spread = 1 if p < 5 else 0
    if p < 5 and draw(st.booleans()):
        labels.append(wavelet_index(
            s + 2, Fraction(draw(st.integers(1, p - 1)), p),
            draw(st.integers(1, p - 1)), p))
        probe = list(labels)
    else:
        n2 = loop_rep_mod(n1 + Fraction(draw(st.integers(1, p - 1)), p), p, 0)
        labels.append(wavelet_index(s, n2, j, p))
        if draw(st.booleans()):
            extra_digits = draw(st.lists(st.integers(0, p - 1), max_size=1))
            labels.append(wavelet_index(
                s + draw(st.integers(0, spread)),
                digit_value(p, extra_digits, -len(extra_digits)),
                draw(st.integers(1, p - 1)), p))
        probe = [labels[0]] + [idx for idx in labels[1:] if draw(st.booleans())]
    f = TestFunction(p, mode, {idx: draw(coefficients(p, mode)) for idx in labels})
    if draw(st.booleans()):
        probe.append(wavelet_index(
            s + draw(st.integers(0, spread)), 0, draw(st.integers(1, p - 1)), p))
    g = TestFunction(p, mode, {idx: draw(coefficients(p, mode)) for idx in probe})
    return f, g


# ---------------------------------------------------------------------------
# Reference Haar sampler: one Fraction point and one wavelet_eval per cell
# ---------------------------------------------------------------------------


def reference_sample(f, resolution, support_exponent):
    """``wavelets.sample`` point by point: each term's support offsets from
    ``fraction_digit_grid``, reduced by ``loop_rep_mod`` and evaluated by
    ``wavelet_eval``, keyed by the ``Fraction`` points.
    The lattice is not validated."""
    p = f.prime
    values = {}
    for idx, c in f.terms.items():
        cz = complex(c)
        center = idx.support_center()
        for offset in fraction_digit_grid(p, -idx.gamma, resolution):
            x = loop_rep_mod(center + offset, p, resolution)
            values[x] = values.get(x, complex(0)) + cz * wavelet_eval(idx, x)
    values = {x: v for x, v in values.items() if v != 0}
    return SampledFunction(p, resolution, support_exponent, values)


def lattice_points(sampled):
    """The values of a ``wavelets.sample`` result keyed by the lattice
    points Fraction(x, p**E), E = max(L, 0), in insertion order.  The one
    place the tests turn the sampler's integer keys into points."""
    denominator = sampled.prime ** max(sampled.support_exponent, 0)
    return {Fraction(x, denominator): v for x, v in sampled.values.items()}
