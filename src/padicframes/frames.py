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
single pair, for every lift of J at once.  When several pairs collide,
their solutions are sorted per J on integers: with the translations of f
and g scaled to numerators N over one p**K, the pair (wf, wg) pins the
digits of n below -wf.gamma to those of B / p**(K + wf.gamma),
B = (N_g J^-1 - N_f) mod p**K, so it is solved on a cylinder, a p-adic
ball.  Balls are nested or disjoint, so one pass over the digit positions
with one branching rule sorts every n by the pairs it solves
(``_collision_leaves``).  Each class where pairs still collide is evaluated
honestly as an orbit member of all of f, all classes of one (gamma, J) in
one call of the integer kernel.  Every such class ends at the same digit
position, so the pass yields the classes in the order of a depth-first walk
of the same branching, the order the energies are summed in.  Each squared
coefficient norm is computed once per term.  Both strategies are exact and
are tested against each other, and the grouped one also against a
``Fraction`` reference of the depth-first walk.  Both check at entry that
f, g and the stabilizer spec share one prime and f and g one coefficient
mode.
"""

from __future__ import annotations

import operator
from collections import abc
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
)
from .errors import (
    EmptyFunctionError,
    ModeMismatchError,
    NonGenericError,
    PrimeMismatchError,
    SpecScaleError,
)
from .padic import (
    CosetRepresentative,
    ppow,
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
        raise PrimeMismatchError("orbit index prime differs from stabilizer prime")
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


class _IndexedSequence(abc.Sequence):
    """An immutable sequence whose item k is computed from k on each read: a
    subclass gives ``__len__`` and ``_item(k)`` for 0 <= k < len.  Negative
    indices count from the end, a slice gives a tuple, and iteration reads
    the items in index order."""

    __slots__ = ()

    def __getitem__(self, k):
        size = len(self)
        if isinstance(k, slice):
            return tuple(map(self._item, range(*k.indices(size))))
        i = operator.index(k)
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError(f"index {k} out of range for length {size}")
        return self._item(i)

    def __iter__(self):
        return map(self._item, range(len(self)))


class _Units(_IndexedSequence):
    """The units of Z/p**a in [1, p**a), ascending.  Each run of p integers
    from a multiple of p holds p - 1 units, so unit k is
    (k // (p - 1)) p + k % (p - 1) + 1, and there are (p - 1) p**(a - 1)."""

    __slots__ = ("_p", "_a")

    def __init__(self, p: int, a: int):
        self._p, self._a = p, a

    def __len__(self) -> int:
        return (self._p - 1) * self._p ** (self._a - 1)

    def _item(self, k: int) -> int:
        run, offset = divmod(k, self._p - 1)
        return run * self._p + offset + 1


def dilation_indices(spec: StabilizerSpec) -> abc.Sequence[int]:
    """All admissible J values: units of Z/p**gamma_a in [1, p**gamma_a),
    ascending, as a sequence that computes each unit from its position, so
    no list of all p**gamma_a - p**(gamma_a - 1) of them is built."""
    return _Units(spec.prime, spec.gamma_a)


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
    outs = _act_terms(p, ppow(p, gamma) * J,
                      [(n.numerator, n.den_exponent, 1) for n in translations],
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
    J = int(rep_mod(a * ppow(p, -gamma), p, spec.gamma_a))
    a1 = ppow(p, gamma) * J
    a0 = a / a1
    anchor = ppow(p, -spec.gamma_0) * spec.n_0.value * (1 - a0)
    n_value = rep_mod(b / a1 - anchor, p, 1 - spec.gamma_0)
    return OrbitIndex(gamma, CosetRepresentative(p, n_value, 1 - spec.gamma_0), J)


# ---------------------------------------------------------------------------
# Contributing orbit indices
# ---------------------------------------------------------------------------


def _translation_numerators(f: TestFunction, g: TestFunction):
    """(K, p**K, {label: n * p**K}) over the terms of f and g, where K is
    the largest translation-digit count among them."""
    labels = [*f.terms, *g.terms]
    k = max(idx.translation_digits() for idx in labels)
    pk = f.prime**k
    return k, pk, {idx: idx.n.numerator_over(k) for idx in labels}


def _pair_bases(pairs: Sequence[tuple[WaveletIndex, WaveletIndex]],
                numerators: dict, pk: int, J: int) -> list[int]:
    """Per pair (wf, wg), the integer B = (N_g J^-1 - N_f) mod p**K: the
    translations carrying wf onto wg at (gamma, J) are
    n = B / p**(K + wf.gamma) + (free digits at -wf.gamma .. -gamma_0).

    The orbit element (p**gamma J, p**gamma J n) moves wf to translation
    J (n_f + p**wf.gamma n) modulo Z_p, which is n_g exactly when
    p**wf.gamma n = n_g J^-1 - n_f modulo Z_p.  Scaled by p**K, with
    N = n p**K for the translations of f and g, that condition is integral,
    so J^-1 is only needed modulo p**K.
    """
    jinv = pow(J, -1, pk)
    return [(numerators[wg] * jinv - numerators[wf]) % pk for wf, wg in pairs]


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
    k, pk, numerators = _translation_numerators(f, g)
    for gamma, by_res in _pair_groups(f, g).items():
        for j_res, pairs in by_res.items():
            for t in range(p ** (spec.gamma_a - 1)):
                J = j_res + t * p
                bases = _pair_bases(pairs, numerators, pk, J)
                for (wf, _), b in zip(pairs, bases):
                    # n = (b + o p**K) / p**(K + wf.gamma), with o the free
                    # digits at positions -wf.gamma .. -gamma_0
                    for offset in range(p ** max(mod_exp + wf.gamma, 0)):
                        n = CosetRepresentative(p, b + offset * pk, mod_exp,
                                                _den_exponent=k + wf.gamma)
                        out.add(OrbitIndex(gamma, n, J))
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


def _check_operands(f: TestFunction, spec: StabilizerSpec,
                    g: TestFunction) -> None:
    """f, g and spec share one prime, f and g one coefficient mode, and
    spec.gamma_0 is at most f's minimal scale + 1.

    Above that bound the spec's b-ball p**(gamma_0 - 1) Z_p is wider than
    the support of a minimal-scale term, so its group moves that support
    and the orbit sum depends on the transversal; and a pair whose pins
    reach above -gamma_0 would be solvable only for the J whose pins there
    are 0.  Up to the bound, the one position above -gamma_0 that a pair
    can touch is its own profile, where the canonical n has the digit 0.
    """
    if spec.prime != f.prime or g.prime != f.prime:
        raise PrimeMismatchError(
            f"f, g and the stabilizer spec need one prime: "
            f"{f.prime}, {g.prime}, {spec.prime}")
    if g.mode != f.mode:
        raise ModeMismatchError(
            f"f and g need one coefficient mode: {f.mode}, {g.mode}")
    if f.terms and spec.gamma_0 > f.gamma_min() + 1:
        raise SpecScaleError(
            f"spec gamma_0 = {spec.gamma_0} exceeds the minimal scale of f + 1 "
            f"= {f.gamma_min() + 1}")


def orbit_energy_direct(f: TestFunction, spec: StabilizerSpec,
                        g: TestFunction):
    """Sum of |<g, orbit member>|^2 by plain enumeration of the finite
    contributing set."""
    _check_operands(f, spec, g)
    total = f.field.real_zero(f.prime)
    for idx in relevant_orbit_indices(f, spec, g):
        value = inner_product_symbolic(g, orbit_element(f, spec, idx))
        total = total + f.field.nsq(value)
    return total


def _collision_leaves(p: int, k: int, profiles: Sequence[int],
                      bases: Sequence[int], top: int, counts: list[int]):
    """Sort the translations n of one (gamma, J) by the pairs they solve, in
    one pass over the digit positions lo = min(profiles) - k to
    hi = max(profiles), for two or more pairs.

    Pair i pins the digits of n below its profile position
    profiles[i] = -wf.gamma to those of bases[i] / p**(k - profiles[i]) and
    reads exactly one free digit, the one at the profile position (higher
    digits shift the character argument by p-adic integers times p, leaving
    both the target index and the phase untouched).  So pair i is solved on
    a cylinder, a ball of n.  The frontier holds (alive pairs, n,
    multiplicity): the ball of n fixed below the current position and the
    pairs whose balls meet it.  Balls are nested or disjoint, so an alive
    pair either survives every digit (its ball contains the entry's) or is
    pinned to one digit (its ball lies inside).  Each entry branches on
    every digit if an alive pair reads the position, and otherwise on each
    digit a pinned pair requires plus one spare digit, of weight
    p - |required|, standing for the rest, where only the unpinned pairs
    survive.  Positions hi + 1 .. top (top = -gamma_0) are read and pinned
    by no pair and enter as the starting multiplicity.  The canonical n has
    no digit above top, so a position above top takes the digit 0 alone;
    the caller's bound gamma_0 <= gamma_min + 1 leaves at most the position
    hi = top + 1 there, which no pair pins.  An entry left with a single
    pair i adds its multiplicity times the free digits of i up to
    min(hi, top) to ``counts[i]``.  All cells of a leaf have the same alive
    pairs and the same digit at their profiles, hence the same energy.

    Every leaf sits at position hi + 1 and each level keeps its children in
    branch order, so the leaves come in the order of a depth-first walk of
    the same branching.  Returns the leaves as (alive, n, multiplicity),
    n an integer numerator over p**-lo, and lo.
    """
    hi = max(profiles)
    lo = min(profiles) - k
    # pair i pins the digits of n below its profile to those of pins[i] p**lo
    pins = [b * p ** (prof - k - lo) for prof, b in zip(profiles, bases)]
    free_top = min(hi, top)
    frontier = [(tuple(range(len(bases))), 0, p ** max(top - hi, 0))]
    unit = 1
    for pos in range(lo, hi + 1):
        level = []
        for alive, n, mult in frontier:
            cons = {i: pins[i] // unit % p for i in alive if pos < profiles[i]}
            if pos > top:
                digits = [0]
            elif any(profiles[i] == pos for i in alive):
                digits = range(p)
            else:
                digits = sorted(set(cons.values()))
            branches = [(d, 1) for d in digits]
            if len(digits) < p and len(cons) < len(alive) and pos <= top:
                spare = next(d for d in range(p) if d not in digits)
                branches.append((spare, p - len(digits)))
            for d, weight in branches:
                kept = tuple(i for i in alive if cons.get(i, d) == d)
                if len(kept) == 1:
                    i = kept[0]
                    free = max(free_top - max(pos, profiles[i] - 1), 0)
                    counts[i] += mult * weight * p ** free
                else:
                    level.append((kept, n + d * unit, mult * weight))
        frontier = level
        unit *= p
    return frontier, lo


def orbit_energy_grouped(f: TestFunction, spec: StabilizerSpec,
                         g: TestFunction):
    """Sum of |<g, orbit member>|^2 with exact multiplicity grouping.

    Every orbit index that carries exactly one term wf of f onto a term wg
    of g contributes |C_wf|^2 |C_wg|^2, whatever the index, so such indices
    are only counted.  A (gamma, J mod p) group with a single pair is solved
    by p**(wf.gamma - gamma_0 + 1) translations (gamma_0 <= gamma_min + 1
    keeps the exponent >= 0; at 0 the one translation has the digit 0 at
    the profile) for each of the
    p**(gamma_a - 1) values of J in the residue class, so it contributes
    exactly p**(gamma_a - gamma_0 + wf.gamma) |C_wf|^2 |C_wg|^2, which is
    its share of frame_bound * ||g||^2.

    A group with several pairs is sorted per J by ``_collision_leaves``, on
    integers: with N = n p**K for the translations of f and g (K their
    largest digit count), the pair (wf, wg) is solved by the translations
    n = B / p**(K + wf.gamma) + (free digits at -wf.gamma .. -gamma_0) with
    B = (N_g J^-1 - N_f) mod p**K (see ``_pair_bases``).  Its single-pair
    cells are counted as above.  Each leaf, where pairs still collide, is
    the orbit member of all of f, built by the group action in one
    ``affine._act_terms`` call per (gamma, J) over all leaf translations;
    its inner product with g is summed over all of g's labels in g's
    order, and the leaf energies in walk order.

    Each squared coefficient norm is computed once, so the result is
    sum(count * |C_wf|^2 |C_wg|^2) plus the honest leaf energies.
    """
    _check_operands(f, spec, g)
    p, field = f.prime, f.field
    lifts = p ** (spec.gamma_a - 1)  # values of J in one residue class mod p
    f_terms = list(f.terms.items())
    g_nsq = {wg: field.nsq(c) for wg, c in g.terms.items()}
    weights = {}  # wf -> sum of count * |C_wg|^2 over the pairs (wf, wg)
    total = zero = field.real_zero(p)
    numerators = None  # translations over p**K, built at the first collision

    def phase(c, m):
        return field.phase(c, m, p)

    for gamma, by_res in _pair_groups(f, g).items():
        for j_res, pairs in by_res.items():
            if len(pairs) == 1:
                wf, _ = pairs[0]
                counts = [p ** (wf.gamma - spec.gamma_0 + 1) * lifts]
            else:
                if numerators is None:
                    k, pk, numerators = _translation_numerators(f, g)
                counts = [0] * len(pairs)
                profiles = [-wf.gamma for wf, _ in pairs]
                for t in range(lifts):
                    J = j_res + t * p
                    leaves, lo = _collision_leaves(
                        p, k, profiles, _pair_bases(pairs, numerators, pk, J),
                        -spec.gamma_0, counts)
                    if not leaves:
                        continue
                    members = _act_terms(
                        p, ppow(p, gamma) * J, [(n, -lo, 1) for _, n, _ in leaves],
                        f_terms, phase)
                    energy = zero
                    for member, (_, _, mult) in zip(members, leaves):
                        value = field.zero(p)
                        for wg, cg in g.terms.items():
                            cm = member.get(wg)
                            if cm is not None:
                                value = value + cg * cm.conjugate()
                        energy = energy + field.scale(field.nsq(value), mult)
                    total = total + energy
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
    norm grounds alone, so the window is complete.  With n = N p**-window
    from the grid and n1 = N1 p**-D1, the left side times p**m,
    m = max(window - gamma1, D1), is the integer
    J N p**(m - window + gamma1) - (1 - J) N1 p**(m - D1), and the
    inequality says that p**m divides it.
    """
    p = spec.prime
    window = max(0, gamma1 + n1.den_exponent)
    m = max(window - gamma1, n1.den_exponent)
    pm = p**m
    grid_scale = p ** (m - window + gamma1)
    anchor = n1.numerator_over(m)
    count = 0
    for t in range(p ** (spec.gamma_a - 1)):
        J = 1 + t * p
        lhs_n, lhs_1 = J * grid_scale, (1 - J) * anchor
        for num in range(p ** max(1 - spec.gamma_0 + window, 0)):
            if (lhs_n * num - lhs_1) % pm == 0:
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
                    probes: Iterable[TestFunction]) -> FrameReport:
    bound = frame_bound(f, spec)
    residuals = []
    flags = []
    for g in probes:
        res = verify_tight_frame(f, spec, g)
        residuals.append(res)
        flags.append(f.field.residual_is_zero(res, bound, norm_sq(g)))
    checks = []
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
