"""Multiresolution structure checks.

The unit-ball indicator is a scaling function: its Gram matrix over distinct
canonical shifts is the identity, by exact ball-intersection measure (two
unit balls either coincide or are disjoint).  For a general orbit, the span
of the members with a fixed dilation exponent plays the wavelet-space role;
spans at exponents gamma and gamma' are orthogonal once |gamma - gamma'|
exceeds the scale spread of the mother function, and one p-power dilation
carries the generator set at gamma bijectively onto the one at gamma + 1.

Convention: spaces are labelled here by the orbit dilation exponent gamma
(the group element is (p**gamma J, p**gamma J n)); a label flip gamma -> -gamma
matches the usual decreasing multiresolution ladder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .affine import StabilizerSpec, act_on_function, affine
from .cyclotomic import CycloNumber
from .errors import ModeMismatchError, SpanError
from .frames import OrbitIndex, dilation_indices, orbit_element
from .padic import CosetRepresentative, digit_grid, rational_norm
from .wavelets import EXACT, TestFunction, inner_product_symbolic


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
    digit positions down to -truncation."""
    p = f.prime
    mod_exp = 1 - spec.gamma_0
    gens = []
    labels = []
    for J in dilation_indices(spec):
        for n_value in digit_grid(p, -truncation, mod_exp):
            idx = OrbitIndex(gamma, CosetRepresentative(p, n_value, mod_exp), J)
            labels.append(idx)
            gens.append(orbit_element(f, spec, idx))
    return SpanProbe(gamma, truncation, tuple(gens), tuple(labels))


@dataclass(frozen=True)
class GramSummary:
    orthogonal: bool
    max_abs_entry: float
    entries: int


def wavelet_space_gram(f: TestFunction, spec: StabilizerSpec,
                       gamma1: int, gamma2: int, truncation: int) -> GramSummary:
    """All inner products between the gamma1 and gamma2 generator sets on the
    truncated translation grid; orthogonal means every entry is exactly zero."""
    probe1 = span_probe(f, spec, gamma1, truncation)
    probe2 = span_probe(f, spec, gamma2, truncation)
    field = f.field
    max_abs = 0.0
    orthogonal = True
    entries = 0
    for u in probe1.generators:
        for v in probe2.generators:
            ip = inner_product_symbolic(u, v)
            entries += 1
            if not field.is_zero(ip):
                orthogonal = False
                max_abs = max(max_abs, abs(field.to_complex(ip)))
    return GramSummary(orthogonal, max_abs, entries)


# ---------------------------------------------------------------------------
# Exact span membership over Q(zeta_p)
# ---------------------------------------------------------------------------


def solve_in_span(generators: Sequence[TestFunction],
                  target: TestFunction) -> Optional[list[CycloNumber]]:
    """Exact coefficients expressing target in the generators' span, or None.

    Gaussian elimination over the cyclotomic field on the wavelet-coefficient
    matrix; the candidate solution is verified by exact recombination, so a
    non-None answer is a certificate.
    """
    if target.mode != EXACT or any(g.mode != EXACT for g in generators):
        raise ModeMismatchError("span solving works on exact coefficients")
    p = target.prime
    zero = CycloNumber.zero(p)
    indices = sorted(
        {idx for g in generators for idx in g.terms} | set(target.terms),
        key=lambda idx: idx.sort_key)
    rows = [[g.terms.get(idx, zero) for g in generators] for idx in indices]
    rhs = [target.terms.get(idx, zero) for idx in indices]

    ncols = len(generators)
    pivot_of_col: dict[int, int] = {}
    row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(row, len(rows)) if not rows[r][col].is_zero()),
            None)
        if pivot is None:
            continue
        rows[row], rows[pivot] = rows[pivot], rows[row]
        rhs[row], rhs[pivot] = rhs[pivot], rhs[row]
        inv = rows[row][col].inverse()
        rows[row] = [entry * inv for entry in rows[row]]
        rhs[row] = rhs[row] * inv
        for r in range(len(rows)):
            if r == row or rows[r][col].is_zero():
                continue
            factor = rows[r][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[row])]
            rhs[r] = rhs[r] - factor * rhs[row]
        pivot_of_col[col] = row
        row += 1

    solution = [zero] * ncols
    for col, r in pivot_of_col.items():
        solution[col] = rhs[r]

    recombined = TestFunction(p, EXACT, {})
    for coeff, gen in zip(solution, generators):
        if not coeff.is_zero():
            recombined = recombined + gen.scaled(coeff)
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
