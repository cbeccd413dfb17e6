"""Multiresolution structure checks.

The unit-ball indicator is a scaling function: its Gram matrix over distinct
canonical shifts is the identity, by exact ball-intersection measure (two
unit balls either coincide or are disjoint).  For a general orbit, the span
of the members with a fixed dilation exponent plays the wavelet-space role;
spans at exponents gamma and gamma' are orthogonal once |gamma - gamma'|
exceeds the scale spread of the mother function, and one p-power dilation
carries the generator set at gamma bijectively onto the one at gamma + 1.

Every answer builds only the members it reads.  The basis is orthonormal,
so a Gram whose two exponents differ by no difference of f's term scales is
exactly zero, decided from the scales alone, and any other cross-Gram is
accumulated over shared wavelet indices only.  The generators of a span
come from ``frames.orbit_members``, one call per dilation J along the
translation grid, made the first time a generator of that J is read
(``SpanGenerators``).  Span membership reduces sparse generator columns one
at a time, keeping a greedy column basis, and stops reading generators once
the target is expressed.  Both checks use the covariance of the orbit under
the group: a Gram block is decided by the n = 0 members of the larger
exponent, and the scaling relation carries the coefficients found at gamma
over to the generators at gamma + 1, building only those with a nonzero
coefficient.  Those generators are still built by the group action, not by
dilating the span at gamma, and the carried combination is compared exactly
with the dilated member, so the check is not circular and a mismatch (a broken
member builder) returns False.

Gram, span and scaling checks decide on exact coefficients only: a float
function is refused with ``ModeMismatchError`` before any generator is built.

Convention: spaces are labelled here by the orbit dilation exponent gamma
(the group element is (p**gamma J, p**gamma J n)); a label flip gamma -> -gamma
matches the usual decreasing multiresolution ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .affine import StabilizerSpec, act_on_function, affine
from .cyclotomic import CycloNumber
from .errors import ModeMismatchError, PrimeMismatchError, SpanError
from .frames import _IndexedSequence, dilation_indices, orbit_members
from .padic import CosetRepresentative, digit_grid, rep_mod
from .wavelets import EXACT, Coeff, TestFunction, WaveletIndex


def scaling_shift_gram(p: int, shifts: Sequence) -> list[list[Fraction]]:
    """Gram matrix of unit-ball indicators at the given shifts, by exact
    measure: entries are 1 when the shifted balls coincide, 0 otherwise.

    Shifts may be canonical representatives or plain rationals; two shifts
    congruent modulo Z_p address the same ball and give a unit entry.  Each
    shift is reduced once to its canonical residue modulo Z_p, and two balls
    coincide exactly when their residues are equal.
    """
    residues = [rep_mod(s.value if isinstance(s, CosetRepresentative) else Fraction(s),
                        p, 0)
                for s in shifts]
    return [[Fraction(1) if ri == rj else Fraction(0) for rj in residues]
            for ri in residues]


class SpanGenerators(_IndexedSequence):
    """The orbit members (p**gamma J, p**gamma J n) f of one span, J outer
    and n in grid order: generator k has J = ``dilation_indices(spec)[k //
    T]`` and n = ``translations[k % T]``, with T the grid size.

    The length is arithmetic.  Reading generator k builds the T members of
    its J by one ``orbit_members`` call over the whole grid, once, and
    keeps them; a J never read is never built.  Equality is by members, in
    order, with a tuple or another ``SpanGenerators``.  Every member takes
    f's coefficient mode, so ``mode`` is known before any member is built.
    """

    __slots__ = ("_f", "_spec", "_gamma", "_translations", "_dilations", "_blocks")

    def __init__(self, f: TestFunction, spec: StabilizerSpec, gamma: int,
                 translations: tuple[CosetRepresentative, ...]):
        self._f, self._spec, self._gamma = f, spec, gamma
        self._translations = translations
        self._dilations = dilation_indices(spec)
        self._blocks: dict[int, list[TestFunction]] = {}

    @property
    def mode(self) -> str:
        return self._f.mode

    def __len__(self) -> int:
        return len(self._dilations) * len(self._translations)

    def _item(self, k: int) -> TestFunction:
        block, offset = divmod(k, len(self._translations))
        members = self._blocks.get(block)
        if members is None:
            members = self._blocks[block] = orbit_members(
                self._f, self._spec, self._gamma, self._dilations[block],
                self._translations)
        return members[offset]

    def __eq__(self, other):
        if isinstance(other, (tuple, SpanGenerators)):
            return tuple(self) == tuple(other)
        return NotImplemented

    __hash__ = None


@dataclass(frozen=True)
class SpanProbe:
    """Generators of the span of orbit members at one dilation exponent, and
    the translation grid they run over (see ``SpanGenerators``)."""

    gamma: int
    truncation: int
    generators: SpanGenerators
    translations: tuple[CosetRepresentative, ...]


def _translations(p: int, spec: StabilizerSpec,
                  truncation: int) -> Iterator[CosetRepresentative]:
    """The canonical n modulo p**(1 - gamma_0) with digit positions down to
    -truncation, in ``digit_grid`` order, the generators' order: n = 0 first."""
    mod_exp = 1 - spec.gamma_0
    for num in digit_grid(p, -truncation, mod_exp):
        yield CosetRepresentative(p, num, mod_exp, _den_exponent=truncation)


def span_probe(f: TestFunction, spec: StabilizerSpec, gamma: int,
               truncation: int) -> SpanProbe:
    """Orbit members (p**gamma J, p**gamma J n) f over all J and all n with
    digit positions down to -truncation, J outer and n in ``digit_grid``
    order.  The translation grid is built once; the members are built only
    as they are read, each J by one ``orbit_members`` call, so the members
    of one J share their target wavelet indices and phased coefficients."""
    translations = tuple(_translations(f.prime, spec, truncation))
    return SpanProbe(gamma, truncation, SpanGenerators(f, spec, gamma, translations),
                     translations)


def _require_exact(*functions) -> None:
    """Refuse float coefficients: the checks below decide in Q(zeta_p).
    Each argument is a function or ``SpanGenerators``; only ``mode`` is read."""
    if any(g.mode != EXACT for g in functions):
        raise ModeMismatchError("span solving works on exact coefficients")


@dataclass(frozen=True)
class GramSummary:
    orthogonal: bool
    max_abs_entry: float
    entries: int


def cross_gram_rows(gens1: Sequence[TestFunction],
                    gens2: Sequence[TestFunction]) -> Iterator[dict[int, Coeff]]:
    """Yield the rows of the cross-Gram <gens1[k], gens2[col]> as
    {col: entry} dicts, one at a time.

    The basis is orthonormal, so an entry sums over the wavelet indices its
    two generators share: gens2 is bucketed by index, and each entry adds in
    its row generator's term order, as ``inner_product_symbolic`` does.  An
    entry absent from a row is exactly zero.
    """
    buckets: dict[WaveletIndex, list] = {}
    for col, v in enumerate(gens2):
        for idx, c in v.terms.items():
            buckets.setdefault(idx, []).append((col, c.conjugate()))
    for u in gens1:
        row: dict[int, Coeff] = {}
        for idx, cu in u.terms.items():
            for col, cv in buckets.get(idx, ()):
                term = cu * cv
                row[col] = row[col] + term if col in row else term
        yield row


def wavelet_space_gram(f: TestFunction, spec: StabilizerSpec,
                       gamma1: int, gamma2: int, truncation: int) -> GramSummary:
    """The inner products between the gamma1 and gamma2 generator sets on the
    truncated translation grid, in that slot order; orthogonal means every
    entry is exactly zero, and ``entries`` counts the full N1 * N2 matrix.

    A block is first decided from f's term scales.  The action of
    p**gamma J moves a term at scale gamma_i to scale gamma_i - gamma, so
    the members at lo <= hi have terms only at scales gamma_i - lo and
    gamma_k - hi, and a shared wavelet index needs gamma_k - gamma_i =
    hi - lo.  So when no two term scales of f differ by exactly hi - lo,
    every entry is exactly zero, and the summary comes from the scales and
    the grid size alone, with no member built:
    N = phi(p**gamma_a) * p**max(truncation + 1 - gamma_0, 0).

    Otherwise entries are decided from one member per J on the larger exponent.
    Write lo <= hi for the two exponents, and take members
    u = (p**lo J_lo, p**lo J_lo n_lo) f and v = (p**hi J_hi, p**hi J_hi n_hi) f.
    The translation h = (1, -p**hi J_hi n_hi) is unitary, so
    <u, v> = <h u, h v>.  h v is the member (hi, J_hi, 0), and h u is the
    member at lo, J_lo with translation n_lo - p**(hi - lo) J_hi J_lo**-1 n_hi.
    That translation has digits at positions >= -truncation, because
    hi >= lo, and it reduces modulo p**(1 - gamma_0) onto the grid, because
    the translations of the closed-form b-ball p**(1 - gamma_0) Z_p fix f
    exactly.  For each n_hi the map on n_lo is a bijection of the grid, so
    the n_hi = 0 members of a (J_lo, J_hi) block meet every value of that
    block.  Exact values are canonical, so equal entries give equal floats.

    Only generator pairs that share a wavelet index are accumulated
    (``cross_gram_rows``).
    """
    _require_exact(f)
    if spec.prime != f.prime:
        raise PrimeMismatchError("f and the stabilizer spec need one prime")
    lo, hi = sorted((gamma1, gamma2))
    scales = {idx.gamma for idx in f.terms}
    if not any(gamma + hi - lo in scales for gamma in scales):
        grid = f.prime ** max(truncation + 1 - spec.gamma_0, 0)
        return GramSummary(True, 0.0, (len(dilation_indices(spec)) * grid) ** 2)
    full = span_probe(f, spec, lo, truncation).generators
    reps = SpanGenerators(f, spec, hi, (next(_translations(f.prime, spec, truncation)),))
    max_abs = 0.0
    orthogonal = True
    for row in cross_gram_rows(*((reps, full) if gamma1 > gamma2 else (full, reps))):
        for ip in row.values():
            if ip:
                orthogonal = False
                max_abs = max(max_abs, abs(complex(ip)))
    # both sides run over the same J values and translation grid
    return GramSummary(orthogonal, max_abs, len(full) ** 2)


# ---------------------------------------------------------------------------
# Exact span membership over Q(zeta_p)
# ---------------------------------------------------------------------------


def solve_in_span(generators: Sequence[TestFunction],
                  target: TestFunction) -> Optional[list[CycloNumber]]:
    """Exact coefficients expressing target in the generators' span, or None.

    One left-looking pass over the generators in order, on sparse columns
    ``{wavelet index: coefficient}``.  Each column is reduced against the
    vectors kept so far, in the order they were kept: a kept vector's pivot
    entry is cleared by subtracting that multiple of it.  A kept vector is
    zero at every earlier pivot, so one pass clears them all.  If something
    is left, the column is independent of the columns before it: it is
    kept, scaled so its pivot entry is one, together with the multipliers
    that reduced it.  The kept columns are the greedy column basis.  While
    there are as many kept vectors as wavelet indices among the columns read
    so far, they span every column on those indices, so a column with no
    new index is dependent and is not reduced.

    The target is reduced the same way, against each vector as it is kept,
    and the pass stops reading generators once nothing of the target is
    left.  That is the reduction a full pass would make: it runs in kept
    order, so the multipliers found on the prefix are those of the full
    pass, and every later kept vector would meet an empty residue and get
    none.  A target with a remainder after the last generator gives None;
    so a non-member reads every generator.  Otherwise its multipliers
    express it in the kept vectors, and one back substitution through each
    kept vector's multipliers turns them into coefficients of the kept
    generators.  Every other generator gets 0.

    This is the list that Gauss-Jordan elimination over the columns in
    order returns: there column k is a pivot exactly when it is independent
    of the columns before it, which is the test above, and free columns get
    0 in both.  Coefficients on an independent set are unique, so the two
    lists are equal element for element.  The answer is still verified by
    exact recombination, reading only the generators with a nonzero
    coefficient, so a non-None answer is a certificate.  A float generator
    anywhere is refused before any is read; ``SpanGenerators`` states its
    mode without building a member.
    """
    # a SpanGenerators states its mode unbuilt; any other sequence is read whole
    _require_exact(target, *([generators] if isinstance(generators, SpanGenerators)
                             else generators))
    # (pivot index, other entries, column, pivot entry**-1, multipliers)
    kept: list[tuple] = []
    residue, multipliers = dict(target.terms), []
    seen: set[WaveletIndex] = set()  # wavelet indices of the columns read so far
    for col in range(len(generators)):
        if not residue:
            break
        terms = generators[col].terms
        seen.update(terms)
        if len(kept) == len(seen):  # the kept vectors span every column on seen
            continue
        rest, reducers = _reduce(kept, terms)
        if rest:
            pivot, entry = next(iter(rest.items()))
            inv = entry.inverse()
            others = [(idx, c * inv) for idx, c in rest.items() if idx != pivot]
            kept.append((pivot, others, col, inv, reducers))
            residue, found = _reduce(kept, residue, start=len(kept) - 1)
            multipliers += found
    if residue:
        return None

    solution = [target.field.zero(target.prime)] * len(generators)
    weights = dict(multipliers)
    for i in reversed(range(len(kept))):
        weight = weights.pop(i, None)
        if weight is None:
            continue
        _, _, col, inv, reducers = kept[i]
        solution[col] = coeff = weight * inv
        for j, m in reducers:
            term = coeff * m
            weights[j] = weights[j] - term if j in weights else -term
    return solution if _expresses(generators, solution, target) else None


def _reduce(kept: Sequence[tuple], terms: dict[WaveletIndex, CycloNumber], start: int = 0
            ) -> tuple[dict[WaveletIndex, CycloNumber], list[tuple[int, CycloNumber]]]:
    """What is left of terms once each kept pivot from position start on is
    cleared in turn, and the (kept position, multiplier) pairs that cleared
    them."""
    residue = dict(terms)
    multipliers = []
    for i, (pivot, rest, *_) in enumerate(kept[start:], start):
        m = residue.pop(pivot, None)
        if m is None:
            continue
        multipliers.append((i, m))
        for idx, b in rest:
            term = m * b
            if idx not in residue:
                residue[idx] = -term
            else:
                new = residue[idx] - term
                if new:
                    residue[idx] = new
                else:
                    del residue[idx]
    return residue, multipliers


def _expresses(generators: Sequence[TestFunction],
               coefficients: Sequence[CycloNumber], target: TestFunction) -> bool:
    """Whether the exact sum of coefficients[k] * generators[k] is target,
    compared term by term without building the sum as a function.  Only
    the generators with a nonzero coefficient are read."""
    combined: dict[WaveletIndex, CycloNumber] = {}
    for k, coeff in enumerate(coefficients):
        if coeff.is_zero():
            continue
        for idx, c in generators[k].terms.items():
            term = c * coeff
            combined[idx] = combined[idx] + term if idx in combined else term
    return {idx: c for idx, c in combined.items() if c} == target.terms


def scaling_relation_check(f: TestFunction, spec: StabilizerSpec,
                           member: TestFunction, gamma: int,
                           truncation: int) -> bool:
    """Check that dilating a span member by one p-power lands in the next
    span: member in <generators at gamma> implies the dilated function lies
    in <generators at gamma + 1>.  Raises SpanError if member is not in the
    stated span to begin with.

    The group law gives (p, 0) (p**gamma J, p**gamma J n) =
    (p**(gamma+1) J, p**(gamma+1) J n), so the dilation carries the
    generator (gamma, J, n) exactly onto (gamma + 1, J, n).  The
    coefficients that express member at gamma therefore express the dilated
    member at gamma + 1.  Only the generators at gamma + 1 whose carried
    coefficient is nonzero are built, each by the group action on its own:
    generator k of the probe at gamma has J = ``dilation_indices(spec)[k //
    T]`` and n = ``translations[k % T]``, and each J takes one
    ``orbit_members`` call.  The verdict is the exact comparison of the
    carried combination with the dilated member.  The certified solve, the
    linear action and the group law above make them equal on every input, so
    False means a broken member builder; no second span is built.
    """
    _require_exact(f, member)
    source = span_probe(f, spec, gamma, truncation)
    coefficients = solve_in_span(source.generators, member)
    if coefficients is None:
        raise SpanError("function is not in the span at the stated exponent")
    dilated = act_on_function(affine(f.prime, 0, f.prime), member)
    grid, T = source.translations, len(source.translations)
    carried: list[TestFunction] = []
    weights: list[CycloNumber] = []
    for block, J in enumerate(dilation_indices(spec)):
        picked = [(n, c) for n, c in zip(grid, coefficients[block * T:(block + 1) * T]) if c]
        if picked:
            carried += orbit_members(f, spec, gamma + 1, J, [n for n, _ in picked])
            weights += [c for _, c in picked]
    return _expresses(carried, weights, dilated)
