"""Orbit parametrization, frame bounds, and exact tight-frame verification.

Orbit representatives are indexed by (gamma, n, J): the group elements
(p**gamma J, p**gamma J n) with n a canonical representative modulo
p**(1 - gamma_0) Z_p and J a unit in [1, p**gamma_a) (one digit block per
unit of stabilizer depth).  Because the acting elements carry basis wavelets
to phased basis wavelets, the inner product of a test function g with an
orbit element is nonzero only when some term of f lands on some term of g;
inverting that index map per term pair yields a provably complete finite set
of contributing orbit indices, which turns the frame identity into a finite
exact sum.

Orbit members are built by ``orbit_members``, one call per (gamma, J) for a
list of translations, on the integer kernel that also computes
``affine.act_on_function``: within one (gamma, J) the members differ by a
translation, which in the wavelet basis is a label shift times a p-th root
of unity, so each member costs a few integer operations per term of f.
``orbit_element`` is its one-member case.

``verify_tight_frame`` evaluates that sum either by direct enumeration or by
a grouped strategy that counts before it multiplies.  An index that carries
a single term pair (wf, wg) contributes |C_wf|^2 |C_wg|^2 whatever the index
(phases are unimodular), so such indices are only counted: an integer
multiplicity per pair, which covers a whole (gamma, J mod p) group with a
single pair, for every lift of J at once.  When several pairs collide, their
solution cosets are walked digit by digit per J, and each cell where pairs
still collide is evaluated honestly on one representative index through the
group action.  Each squared coefficient norm is computed once per term.
Both strategies are exact and are tested against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .affine import (
    AffineElement,
    GenericityVerdict,
    StabilizerSpec,
    _act_terms,
    act_on_function,
    affine,
    in_stabilizer,
)
from .errors import EmptyFunctionError, NonGenericError, PrimeMismatchError
from .padic import (
    CosetRepresentative,
    digit_expansion,
    digit_grid,
    ppow,
    rational_norm,
    rational_valuation,
    rep_mod,
)
from .wavelets import (
    EXACT,
    TestFunction,
    WaveletIndex,
    inner_product_symbolic,
    norm_sq,
)


@dataclass(frozen=True)
class OrbitIndex:
    """Label (gamma, n, J) of one orbit representative."""

    gamma: int
    n: CosetRepresentative
    J: int

    @property
    def sort_key(self):
        return (self.gamma, self.n.value, self.J)


def _validate_translation(n: CosetRepresentative, spec: StabilizerSpec) -> None:
    if n.prime != spec.prime:
        raise ValueError("orbit index prime differs from stabilizer prime")
    if n.modulus_exponent != 1 - spec.gamma_0:
        raise ValueError(
            f"translation must be reduced modulo p**{1 - spec.gamma_0} Z_p")


def _validate_dilation(J: int, spec: StabilizerSpec) -> None:
    p = spec.prime
    if not (1 <= J < p**spec.gamma_a) or J % p == 0:
        raise ValueError(
            f"J must be a unit in [1, p**{spec.gamma_a})")


def validate_orbit_index(idx: OrbitIndex, spec: StabilizerSpec) -> None:
    _validate_translation(idx.n, spec)
    _validate_dilation(idx.J, spec)


def group_element(idx: OrbitIndex, spec: StabilizerSpec) -> AffineElement:
    """(p**gamma J, p**gamma J n)."""
    validate_orbit_index(idx, spec)
    p = spec.prime
    scale = ppow(p, idx.gamma) * idx.J
    return affine(scale, scale * idx.n.value, p)


def orbit_index(gamma: int, n: Union[Fraction, int, str], J: int, spec: StabilizerSpec) -> OrbitIndex:
    idx = OrbitIndex(gamma, CosetRepresentative(spec.prime, Fraction(n), 1 - spec.gamma_0), J)
    validate_orbit_index(idx, spec)
    return idx


def dilation_indices(spec: StabilizerSpec) -> list[int]:
    """All admissible J values: units of Z/p**gamma_a in [1, p**gamma_a)."""
    p = spec.prime
    return [J for J in range(1, p**spec.gamma_a) if J % p != 0]


def orbit_members(f: TestFunction, spec: StabilizerSpec, gamma: int, J: int,
                  translations: Sequence[CosetRepresentative]) -> list[TestFunction]:
    """The orbit members (p**gamma J, p**gamma J n) f for each canonical n in
    ``translations``, in the order given.

    This is the exact group action through the integer kernel of
    ``affine.act_on_function`` with a = p**gamma J: a term (gamma_i, n_i, j_i)
    goes to zeta**m psi(gamma_i - gamma, {y}, j') with j' = j_i J^-1 mod p,
    y = J (n_i + p**gamma_i n) and m = -j' floor(y) mod p.  Along the list
    only n moves, so each member costs a few integer operations per term of
    f; target labels and phases are shared across the list.  J and the
    translations are validated once, at entry, as ``validate_orbit_index``
    would validate each (gamma, n, J).
    """
    p = spec.prime
    for n in translations:
        _validate_translation(n, spec)
    _validate_dilation(J, spec)
    if f.prime != p:
        raise PrimeMismatchError("mixed primes")
    field = f.field
    outs = _act_terms(p, ppow(p, gamma) * J, [n.value for n in translations],
                      list(f.terms.items()), lambda c, m: field.phase(c, m, p))
    return [TestFunction(p, f.mode, out) for out in outs]


def orbit_element(f: TestFunction, spec: StabilizerSpec, idx: OrbitIndex) -> TestFunction:
    """The orbit member at idx: the one-member case of ``orbit_members``."""
    return orbit_members(f, spec, idx.gamma, idx.J, [idx.n])[0]


def orbit_index_of(g: AffineElement, spec: StabilizerSpec) -> OrbitIndex:
    """The unique idx with g in (p**gamma J, p**gamma J n) * G_f.

    gamma is the valuation of a and J its unit part modulo p**gamma_a.  The
    translation index solves the coset condition exactly: writing a1 for
    p**gamma J and a0 = a / a1, the residual element lands in the stabilizer
    iff n = b/a1 - p**(-gamma_0) n_0 (1 - a0) modulo p**(1 - gamma_0); the
    anchor correction vanishes when |n_0| is small against p**gamma_a but is
    required in general.
    """
    p = spec.prime
    a, b = g.a.value, g.b.value
    gamma = int(rational_valuation(a, p))
    unit = a * ppow(p, -gamma)
    modulus = p**spec.gamma_a
    J = (unit.numerator * pow(unit.denominator, -1, modulus)) % modulus
    a1 = ppow(p, gamma) * J
    a0 = a / a1
    anchor = ppow(p, -spec.gamma_0) * spec.n_0.value * (1 - a0)
    n_value = rep_mod(b / a1 - anchor, p, 1 - spec.gamma_0)
    return OrbitIndex(gamma, CosetRepresentative(p, n_value, 1 - spec.gamma_0), J)


# ---------------------------------------------------------------------------
# Contributing orbit indices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _PairSolution:
    """Orbit indices carrying one term of f onto one term of g, at fixed
    (gamma, J): the coset n = base + (free digits at positions
    -wf.gamma .. -gamma_0)."""

    wf: WaveletIndex
    wg: WaveletIndex
    base: Fraction  # digits at positions < -wf.gamma

    def profile_position(self) -> int:
        return -self.wf.gamma


def _pair_base(wf: WaveletIndex, wg: WaveletIndex, J: int, p: int) -> Fraction:
    target = Fraction(wg.n.value, J) - wf.n.value
    return rep_mod(ppow(p, -wf.gamma) * target, p, -wf.gamma)


def _pair_groups(f: TestFunction, g: TestFunction):
    """Group term pairs by orbit gamma and by the residue of J mod p."""
    p = f.prime
    groups: dict[int, dict[int, list[tuple[WaveletIndex, WaveletIndex]]]] = {}
    for wf in f.terms:
        for wg in g.terms:
            gamma = wf.gamma - wg.gamma
            j_res = (wf.j * pow(wg.j, -1, p)) % p
            groups.setdefault(gamma, {}).setdefault(j_res, []).append((wf, wg))
    return groups


def relevant_orbit_indices(f: TestFunction, spec: StabilizerSpec,
                           g: TestFunction) -> set[OrbitIndex]:
    """A finite superset of every orbit index with nonzero <g, orbit member>.

    Completeness: a nonzero inner product needs some term of f carried onto
    some term of g; for each such pair the acting indices form the coset
    enumerated here, so indices outside the union annihilate every pair.
    """
    p = f.prime
    out: set[OrbitIndex] = set()
    mod_exp = 1 - spec.gamma_0
    for gamma, by_res in _pair_groups(f, g).items():
        for j_res, pairs in by_res.items():
            for t in range(p ** (spec.gamma_a - 1)):
                J = j_res + t * p
                for wf, wg in pairs:
                    base = _pair_base(wf, wg, J, p)
                    # free digits at positions -wf.gamma .. -gamma_0
                    for offset in digit_grid(p, -wf.gamma, mod_exp):
                        out.add(OrbitIndex(
                            gamma, CosetRepresentative(p, base + offset, mod_exp), J))
    return out


# ---------------------------------------------------------------------------
# Frame bound and tight-frame verification
# ---------------------------------------------------------------------------


def frame_bound(f: TestFunction, spec: StabilizerSpec):
    """Closed-form bound: sum over terms of |C|^2 p**(gamma_a - gamma_0 + gamma)."""
    if f.is_zero():
        raise EmptyFunctionError("empty expansion has no frame bound")
    p, field = f.prime, f.field
    total = field.real_zero(p)
    for idx, c in f.terms.items():
        weight = p ** (spec.gamma_a - spec.gamma_0 + idx.gamma)
        total = total + field.scale(field.nsq(c), weight)
    return total


def _value_energy(f: TestFunction, spec: StabilizerSpec, g: TestFunction,
                  idx: OrbitIndex):
    value = inner_product_symbolic(g, orbit_element(f, spec, idx))
    return f.field.nsq(value)


def orbit_energy_direct(f: TestFunction, spec: StabilizerSpec,
                        g: TestFunction):
    """Sum of |<g, orbit member>|^2 by plain enumeration of the finite
    contributing set."""
    total = f.field.real_zero(f.prime)
    for idx in relevant_orbit_indices(f, spec, g):
        total = total + _value_energy(f, spec, g, idx)
    return total


def _collision_energy(f: TestFunction, spec: StabilizerSpec, g: TestFunction,
                      gamma: int, J: int, sols: Sequence[_PairSolution],
                      counts: list[int]):
    """Walk the union of solution cosets digit by digit.

    A solution constrains the digits of n below its profile position
    -wf.gamma and reads exactly one free digit, the one at the profile
    position (higher digits shift the character argument by p-adic integers
    times p, leaving both the target index and the phase untouched).  The
    walk therefore branches only at constrained or profile positions and
    multiplies a count everywhere else.  Each leaf where several pairs still
    collide is evaluated honestly via the group action on one representative
    index, and its energy is returned; a branch left with a single pair
    sols[i] adds its multiplicity to ``counts[i]`` instead.
    """
    p, field = f.prime, f.field
    mod_exp = 1 - spec.gamma_0
    profiles = {i: s.profile_position() for i, s in enumerate(sols)}
    digit_tables = {i: digit_expansion(s.base, p) for i, s in enumerate(sols)}
    hi = max(profiles.values())
    low_candidates = [profiles[i] for i in profiles]
    for table in digit_tables.values():
        if table:
            low_candidates.append(min(table))
    lo = min(low_candidates)
    top_mult = p ** (-spec.gamma_0 - hi)

    total = field.real_zero(p)

    def leaf(digits: dict[int, int], mult: int):
        nonlocal total
        n_value = Fraction(0)
        for pos, d in digits.items():
            n_value += d * ppow(p, pos)
        idx = OrbitIndex(gamma, CosetRepresentative(p, n_value, mod_exp), J)
        total = total + field.scale(_value_energy(f, spec, g, idx), mult)

    def close_single(i: int, pos: int, mult: int):
        # One surviving pair: below its profile the digits are pinned, at and
        # above it every choice yields the same squared inner product.
        free = hi - max(pos, profiles[i]) + 1
        counts[i] += mult * p**free

    def walk(pos: int, alive: frozenset, digits: dict[int, int], mult: int):
        if not alive:
            return
        if len(alive) == 1:
            close_single(next(iter(alive)), pos, mult)
            return
        if pos > hi:
            leaf(digits, mult)
            return
        cons = {i: digit_tables[i].get(pos, 0) for i in alive if pos < profiles[i]}
        has_profile = any(profiles[i] == pos for i in alive)
        if has_profile:
            for d in range(p):
                alive2 = frozenset(
                    i for i in alive if i not in cons or cons[i] == d)
                walk(pos + 1, alive2, {**digits, pos: d}, mult)
        elif cons:
            required = sorted(set(cons.values()))
            for r in required:
                alive2 = frozenset(
                    i for i in alive if i not in cons or cons[i] == r)
                walk(pos + 1, alive2, {**digits, pos: r}, mult)
            survivors = frozenset(i for i in alive if i not in cons)
            if survivors and len(required) < p:
                spare = next(d for d in range(p) if d not in required)
                walk(pos + 1, survivors, {**digits, pos: spare},
                     mult * (p - len(required)))
        else:
            walk(pos + 1, alive, digits, mult * p)

    walk(lo, frozenset(range(len(sols))), {}, top_mult)
    return total


def orbit_energy_grouped(f: TestFunction, spec: StabilizerSpec,
                         g: TestFunction):
    """Sum of |<g, orbit member>|^2 with exact multiplicity grouping.

    Every orbit index that carries exactly one term wf of f onto a term wg
    of g contributes |C_wf|^2 |C_wg|^2, whatever the index, so such indices
    are only counted: a (gamma, J mod p) group with a single pair adds
    p**(wf.gamma - gamma_0 + 1) for each of the p**(gamma_a - 1) values of J
    in the residue class at once, and the collision walk adds its
    single-pair branches.  Indices where several pairs collide are still
    evaluated honestly through the group action, per J.  Each squared
    coefficient norm is computed once, so the result is
    sum(count * |C_wf|^2 |C_wg|^2) plus the honest leaf energies.
    """
    p, field = f.prime, f.field
    lifts = p ** (spec.gamma_a - 1)  # values of J in one residue class mod p
    g_nsq = {wg: field.nsq(c) for wg, c in g.terms.items()}
    weights = {}  # wf -> sum of count * |C_wg|^2 over the pairs (wf, wg)
    total = field.real_zero(p)
    for gamma, by_res in _pair_groups(f, g).items():
        for j_res, pairs in by_res.items():
            if len(pairs) == 1:
                wf, _ = pairs[0]
                counts = [p ** (wf.gamma - spec.gamma_0 + 1) * lifts]
            else:
                counts = [0] * len(pairs)
                for t in range(lifts):
                    J = j_res + t * p
                    sols = [
                        _PairSolution(wf, wg, _pair_base(wf, wg, J, p))
                        for wf, wg in pairs]
                    total = total + _collision_energy(
                        f, spec, g, gamma, J, sols, counts)
            for (wf, wg), count in zip(pairs, counts):
                if count:
                    term = field.scale(g_nsq[wg], count)
                    weights[wf] = weights[wf] + term if wf in weights else term
    for wf, weight in weights.items():
        total = total + field.nsq(f.terms[wf]) * weight
    return total


def verify_tight_frame(f: TestFunction, spec: StabilizerSpec, g: TestFunction,
                       method: str = "grouped"):
    """LHS minus frame_bound * ||g||^2; exactly zero for generic f in exact
    mode.  A nonzero residual is a result, not an error."""
    if method == "grouped":
        lhs = orbit_energy_grouped(f, spec, g)
    elif method == "direct":
        lhs = orbit_energy_direct(f, spec, g)
    else:
        raise ValueError(f"unknown method {method!r}")
    bound = frame_bound(f, spec)
    rhs = bound * norm_sq(g)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Degeneracy count
# ---------------------------------------------------------------------------


def phase_fix_multiplicity(gamma1: int, n1: CosetRepresentative,
                           spec: StabilizerSpec) -> int:
    """Count, by exhaustive enumeration, the (J = 1 mod p, n) pairs whose
    orbit element multiplies the wavelet of scale gamma1, translation n1 by
    a root of unity: |J p**gamma1 n - (1 - J) n1|_p <= 1.

    Candidates beyond the enumerated digit window fail the inequality on
    norm grounds alone, so the window is complete.
    """
    p = spec.prime
    delta1 = 0 if n1.value == 0 else -int(rational_valuation(n1.value, p))
    window = max(0, gamma1 + max(0, delta1))
    count = 0
    for t in range(p ** (spec.gamma_a - 1)):
        J = 1 + t * p
        for n_value in digit_grid(p, -window, 1 - spec.gamma_0):
            lhs = J * ppow(p, gamma1) * n_value - (1 - J) * n1.value
            if rational_norm(lhs, p) <= 1:
                count += 1
    return count


# ---------------------------------------------------------------------------
# Reparametrization into wavelet-frame form
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReparametrizedFamily:
    """Finite mother family {f_label} whose integer translations and p-power
    dilations enumerate the orbit; ``copies`` > 1 means the orbit is covered
    that many times over."""

    case: int
    copies: int
    members: tuple[tuple[tuple, TestFunction], ...]


def reparametrize_wavelet_frame(
        f: TestFunction, spec: StabilizerSpec,
        verdict: Optional[GenericityVerdict] = None) -> ReparametrizedFamily:
    """Rewrite the orbit as a finite family of mother functions.

    When translations modulo p**(1 - gamma_0) refine translations modulo
    Z_p (gamma_0 <= 1), the family is f((x - m)/J) over admissible J and
    integer residues m, each taken once; otherwise the family f(x/J) covers
    the orbit p**(gamma_0 - 1) times.  The boundary gamma_0 = 1, where both
    quotients agree, sits in the first case.
    """
    if verdict is not None and not verdict.generic_up_to_depth:
        raise NonGenericError(
            "orbit reparametrization is only claimed for generic functions")
    p = spec.prime
    members = []
    if spec.gamma_0 <= 1:
        residues = p ** (1 - spec.gamma_0)
        for J in dilation_indices(spec):
            for m in range(residues):
                mother = act_on_function(affine(J, m, p), f)
                members.append(((J, m), mother))
        return ReparametrizedFamily(1, 1, tuple(members))
    for J in dilation_indices(spec):
        mother = act_on_function(affine(J, 0, p), f)
        members.append(((J,), mother))
    return ReparametrizedFamily(2, p ** (spec.gamma_0 - 1), tuple(members))


# ---------------------------------------------------------------------------
# Frame reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MultiplicityCheck:
    gamma1: int
    n1: Fraction
    expected: int
    actual: int

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class FrameReport:
    frame_bound: object
    exact: bool
    g_count: int
    residuals: tuple
    all_zero_residuals: bool
    multiplicity_checks: tuple[MultiplicityCheck, ...]


def run_frame_check(f: TestFunction, spec: StabilizerSpec,
                    probes: Iterable[TestFunction],
                    check_multiplicities: bool = True) -> FrameReport:
    bound = frame_bound(f, spec)
    residuals = []
    flags = []
    for g in probes:
        res = verify_tight_frame(f, spec, g)
        residuals.append(res)
        flags.append(f.field.residual_is_zero(res, bound, norm_sq(g)))
    checks = []
    if check_multiplicities:
        seen = set()
        for idx in f.terms:
            key = (idx.gamma, idx.n.value)
            if key in seen:
                continue
            seen.add(key)
            expected = f.prime ** (spec.gamma_a - spec.gamma_0 + idx.gamma)
            actual = phase_fix_multiplicity(idx.gamma, idx.n, spec)
            checks.append(MultiplicityCheck(idx.gamma, idx.n.value, expected, actual))
    return FrameReport(
        frame_bound=bound,
        exact=f.mode == EXACT,
        g_count=len(residuals),
        residuals=tuple(residuals),
        all_zero_residuals=all(flags),
        multiplicity_checks=tuple(checks))
