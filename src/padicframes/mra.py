"""Multiresolution structure checks.

The unit-ball indicator is a scaling function: its Gram matrix over distinct
canonical shifts is the identity, by exact ball-intersection measure (two
unit balls either coincide or are disjoint).  For a general orbit, the span
of the members with a fixed dilation exponent plays the wavelet-space role;
spans at exponents gamma and gamma' are orthogonal once |gamma - gamma'|
exceeds the scale spread of the mother function, and one p-power dilation
carries the generator set at gamma bijectively onto the one at gamma + 1.

Both exact kernels enumerate only nonzero work: the basis is orthonormal,
so cross-Grams are accumulated over shared wavelet indices only, and span
membership eliminates on sparse rows.  The generators themselves come from
``frames.orbit_members``, one call per dilation J along the translation
grid.  The scaling relation still builds the span at gamma + 1 by the group
action, not by dilating the span at gamma, so the check is not circular.

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
from .errors import ModeMismatchError, SpanError
from .frames import OrbitIndex, dilation_indices, orbit_members
from .padic import CosetRepresentative, digit_grid, rational_norm
from .wavelets import EXACT, Coeff, TestFunction, WaveletIndex


def scaling_shift_gram(p: int, shifts: Sequence) -> list[list[Fraction]]:
    """Gram matrix of unit-ball indicators at the given shifts, by exact
    measure: entries are 1 when the shifted balls coincide, 0 otherwise.

    Shifts may be canonical representatives or plain rationals; two shifts
    congruent modulo Z_p address the same ball and give a unit entry.
    """
    values = [s.value if isinstance(s, CosetRepresentative) else Fraction(s)
              for s in shifts]
    out = []
    for ni in values:
        row = []
        for nj in values:
            same_ball = rational_norm(ni - nj, p) <= 1
            row.append(Fraction(1) if same_ball else Fraction(0))
        out.append(row)
    return out


@dataclass(frozen=True)
class SpanProbe:
    """Generators of the span of orbit members at one dilation exponent."""

    gamma: int
    truncation: int
    generators: tuple[TestFunction, ...]
    labels: tuple[OrbitIndex, ...]


def span_probe(f: TestFunction, spec: StabilizerSpec, gamma: int,
               truncation: int) -> SpanProbe:
    """Orbit members (p**gamma J, p**gamma J n) f over all J and all n with
    digit positions down to -truncation, J outer and n in ``digit_grid``
    order.  The translation grid is built once and each J takes one
    ``orbit_members`` call, so the members of one J share their target
    labels and phased coefficients."""
    p = f.prime
    mod_exp = 1 - spec.gamma_0
    translations = [CosetRepresentative(p, num, mod_exp, _den_exponent=truncation)
                    for num in digit_grid(p, -truncation, mod_exp)]
    gens = []
    labels = []
    for J in dilation_indices(spec):
        gens.extend(orbit_members(f, spec, gamma, J, translations))
        labels.extend(OrbitIndex(gamma, n, J) for n in translations)
    return SpanProbe(gamma, truncation, tuple(gens), tuple(labels))


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
            buckets.setdefault(idx, []).append((col, v.field.conj(c)))
    for u in gens1:
        row: dict[int, Coeff] = {}
        for idx, cu in u.terms.items():
            for col, cv in buckets.get(idx, ()):
                term = cu * cv
                row[col] = row[col] + term if col in row else term
        yield row


def wavelet_space_gram(f: TestFunction, spec: StabilizerSpec,
                       gamma1: int, gamma2: int, truncation: int) -> GramSummary:
    """All inner products between the gamma1 and gamma2 generator sets on the
    truncated translation grid; orthogonal means every entry is exactly zero.
    Only generator pairs that share a wavelet index are accumulated
    (``cross_gram_rows``); ``entries`` counts the full N1 * N2 matrix."""
    probe1 = span_probe(f, spec, gamma1, truncation)
    probe2 = span_probe(f, spec, gamma2, truncation)
    field = f.field
    max_abs = 0.0
    orthogonal = True
    for row in cross_gram_rows(probe1.generators, probe2.generators):
        for ip in row.values():
            if not field.is_zero(ip):
                orthogonal = False
                max_abs = max(max_abs, abs(field.to_complex(ip)))
    entries = len(probe1.generators) * len(probe2.generators)
    return GramSummary(orthogonal, max_abs, entries)


# ---------------------------------------------------------------------------
# Exact span membership over Q(zeta_p)
# ---------------------------------------------------------------------------


def solve_in_span(generators: Sequence[TestFunction],
                  target: TestFunction) -> Optional[list[CycloNumber]]:
    """Exact coefficients expressing target in the generators' span, or None.

    Gaussian elimination over the cyclotomic field on the wavelet-coefficient
    matrix, with sparse rows ``{column: coefficient}`` that hold only nonzero
    entries; an update touches only the pivot row's columns and drops what it
    cancels.  The candidate solution is verified by exact recombination, so
    a non-None answer is a certificate.
    """
    if target.mode != EXACT or any(g.mode != EXACT for g in generators):
        raise ModeMismatchError("span solving works on exact coefficients")
    p = target.prime
    zero = target.field.zero(p)
    by_index: dict[WaveletIndex, dict[int, CycloNumber]] = {
        idx: {} for idx in target.terms}
    for col, g in enumerate(generators):
        for idx, c in g.terms.items():
            by_index.setdefault(idx, {})[col] = c
    indices = sorted(by_index, key=lambda idx: idx.sort_key)
    rows = [by_index[idx] for idx in indices]
    rhs = [target.terms.get(idx, zero) for idx in indices]

    ncols = len(generators)
    pivot_of_col: dict[int, int] = {}
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, len(rows)) if col in rows[r]), None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
        inv = rows[row][col].inverse()
        rows[row] = {c: entry * inv for c, entry in rows[row].items()}
        rhs[row] = rhs[row] * inv
        # the pivot entry is now one, so it cancels exactly in every update
        rest = [(c, b) for c, b in rows[row].items() if c != col]
        for r, entries in enumerate(rows):
            if r == row or col not in entries:
                continue
            factor = entries.pop(col)
            for c, b in rest:
                delta = factor * b
                new = entries[c] - delta if c in entries else -delta
                if new.is_zero():
                    del entries[c]
                else:
                    entries[c] = new
            rhs[r] = rhs[r] - factor * rhs[row]
        pivot_of_col[col] = row
        row += 1

    solution = [zero] * ncols
    for col, r in pivot_of_col.items():
        solution[col] = rhs[r]

    combined: dict[WaveletIndex, CycloNumber] = {}
    for coeff, gen in zip(solution, generators):
        if coeff.is_zero():
            continue
        for idx, c in gen.terms.items():
            term = c * coeff
            combined[idx] = combined[idx] + term if idx in combined else term
    recombined = TestFunction(p, EXACT, combined)
    return solution if recombined == target else None


def scaling_relation_check(f: TestFunction, spec: StabilizerSpec,
                           member: TestFunction, gamma: int,
                           truncation: int) -> bool:
    """Check that dilating a span member by one p-power lands in the next
    span: member in <generators at gamma> implies the dilated function lies
    in <generators at gamma + 1>.  Raises SpanError if member is not in the
    stated span to begin with."""
    source = span_probe(f, spec, gamma, truncation)
    if solve_in_span(source.generators, member) is None:
        raise SpanError("function is not in the span at the stated exponent")
    dilated = act_on_function(affine(f.prime, 0, f.prime), member)
    target = span_probe(f, spec, gamma + 1, truncation)
    return solve_in_span(target.generators, dilated) is not None
