"""The p-adic affine group and its exact action on wavelet expansions.

Group elements (a, b) act by f(x) -> |a|^(-1/2) f((x-b)/a).  The action maps
a basis wavelet to a p-th root of unity times another basis wavelet, so on
finite expansions it is computed exactly, by one integer kernel: with
a = p**v u, the label (gamma, n, j) goes to (gamma - v, {y}, j u^-1 mod p)
times zeta**m, where y = u (n + p**gamma b/a) is read on integers over one
p-power (see ``_act_terms``; ``padic._p_part`` splits the p-power off).
``act_on_wavelet``, ``act_on_function`` and ``frames.orbit_members``, which
moves one dilation along many translations, all run on that kernel.
Stabilizers of balls, wavelets and generic expansions have closed forms in
two norm inequalities, each decided as a comparison of valuations.
Genericity is certified over a finite digit quotient of group elements, one
translation class at a time: the action and the closed form give the same
answer on every cell of a class, and only the few classes that carry a
minimal-scale term onto a term of the function, or the closed-form class a
congruence gives, can be invariant or predicted, so only those are acted on;
witness cells are built as group elements once (see ``genericity_check``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .errors import (
    DepthTooSmallError,
    EmptyFunctionError,
    InvariantError,
    PrimeMismatchError,
)
from .padic import (
    CosetRepresentative,
    PadicScalar,
    check_prime,
    _p_part,
    ppow,
    rational_valuation,
    rep_mod,
)
from .wavelets import TestFunction, WaveletIndex


@dataclass(frozen=True)
class AffineElement:
    """Group element (a, b) with a != 0, acting as x -> a*x + b on points.

    ``affine(a, b, p)`` checks p; the group operations pass it along.
    """

    a: PadicScalar
    b: PadicScalar

    def __post_init__(self):
        if self.a.value == 0:
            raise ValueError("dilation part must be nonzero")
        if self.a.p != self.b.p:
            raise PrimeMismatchError("a and b share one prime")

    @property
    def p(self) -> int:
        return self.a.p

    def __str__(self) -> str:
        return f"({self.a.value}, {self.b.value})"


def affine(a: Union[int, str, Fraction], b: Union[int, str, Fraction], p: int) -> AffineElement:
    check_prime(p)
    return AffineElement(PadicScalar.of(a, p), PadicScalar.of(b, p))


def identity(p: int) -> AffineElement:
    return affine(1, 0, p)


def compose(g1: AffineElement, g2: AffineElement) -> AffineElement:
    """(a, b) o (a', b') = (a a', b + a b')."""
    p = g1.p
    if p != g2.p:
        raise PrimeMismatchError("mixed primes")
    return AffineElement(
        PadicScalar(g1.a.value * g2.a.value, p),
        PadicScalar(g1.b.value + g1.a.value * g2.b.value, p))


def inverse(g: AffineElement) -> AffineElement:
    """(a, b)^(-1) = (1/a, -b/a)."""
    p = g.p
    return AffineElement(
        PadicScalar(1 / g.a.value, p),
        PadicScalar(-g.b.value / g.a.value, p))


def power(g: AffineElement, k: int) -> AffineElement:
    """(a, b)^k = (a^k, b * (1 - a^k)/(1 - a)); the ratio is k when a = 1."""
    a = g.a.value
    if a == 1:
        geometric = Fraction(k)
    else:
        geometric = (1 - a**k) / (1 - a)
    p = g.p
    return AffineElement(PadicScalar(a**k, p), PadicScalar(g.b.value * geometric, p))


@dataclass(frozen=True)
class PhasedWavelet:
    """A basis wavelet times the p-th root of unity of exponent ``phase``."""

    index: WaveletIndex
    phase: int


# ---------------------------------------------------------------------------
# Action on wavelets
# ---------------------------------------------------------------------------


def _own_translation(g: AffineElement) -> tuple[int, int, int]:
    """n = b / a of g = (a, a n), as the triple (N, e, r) of ``_act_terms``."""
    n = g.b.value / g.a.value
    return (n.numerator, *_p_part(n.denominator, g.p))


def _act_terms(p: int, a: Fraction, translations: Sequence[tuple[int, int, int]],
               terms: Sequence[tuple[WaveletIndex, object]],
               phase: Callable[[object, int], object]) -> list[dict]:
    """The action of (a, a n) on ``terms``, one {target: value} dict per n
    in ``translations``, in the order given.  Each n comes on integers as
    (N, e, r) with n = N / (p**e r), e any integer and r prime to p.

    A term (gamma_i, n_i, j_i) is the base wavelet psi moved by its
    representative (p**-gamma_i j_i^-1, p**-gamma_i n_i).  Write
    a = p**v u with u a unit.  The element (a, a n) acts on the term as the
    composite (A, B) = (a p**-gamma_i j_i^-1, a n + a p**-gamma_i n_i) acts
    on psi: scale gamma' = gamma_i - v = -v(A), unit j' = j_i u^-1 mod p,
    and translation

        y = |A|_p B = p**(gamma_i - v) p**v u (n + p**-gamma_i n_i)
          = u (n_i + p**gamma_i n).

    The wavelet reads y through its support, which depends on y modulo Z_p
    only, and through its character chi(j' (p**gamma' x - y) / p).  Writing
    y = {y} + floor(y), with {y} the canonical representative modulo Z_p
    and floor(y) a p-adic integer, the integer part leaves the factor
    zeta**m with m = -j' floor(y) mod p:

        psi(gamma_i, n_i, j_i) -> zeta**m psi(gamma', {y}, j').

    So y is computed on integers over one p**K, with K covering the digits
    of every n_i and of every p**gamma_i n.  {y} needs p**K y modulo p**K
    and m needs it modulo p**(K + 1), so u and the prime-to-p part of the
    denominator of n reduce modulo p**(K + 1) through modular inverses.
    Each distinct target label is built once per call, keyed on
    (gamma', p**K {y}, j'), and ``phase(c, m)`` is called once per
    (term, m).  The action permutes labels, so no two terms share a target
    and each dict writes each target once, in term order.
    """
    v = int(rational_valuation(a, p))
    t = max((e for _, e, _ in translations), default=0)
    k = max([0] + [idx.n.den_exponent for idx, _ in terms]
            + [t - idx.gamma for idx, _ in terms])
    pk = p**k
    u = int(rep_mod(a * ppow(p, -v), p, k + 1))
    uinv = pow(u, -1, p)
    shifts = [num * p**(t - e) * (1 if rest == 1 else pow(rest, -1, pk * p))
              for num, e, rest in translations]  # n p**t mod p**(K+1)
    # per term: u n_i p**K, u p**(gamma_i + K - t), gamma', j' and its phases
    kernel = []
    for idx, c in terms:
        base = u * idx.n.numerator_over(k)
        step = u * p**(idx.gamma + k - t)
        kernel.append((base, step, idx.gamma - v, idx.j * uinv % p, c, {}))
    labels: dict[tuple[int, int, int], WaveletIndex] = {}
    outs = []
    for shift in shifts:
        out = {}
        for base, step, scale, j, c, phased in kernel:
            floor, r = divmod(base + step * shift, pk)
            target = labels.get((scale, r, j))
            if target is None:
                target = labels[scale, r, j] = WaveletIndex(
                    scale, CosetRepresentative(p, r, 0, _den_exponent=k), j)
            m = -j * floor % p
            nc = phased.get(m)
            if nc is None:
                nc = phased[m] = phase(c, m)
            out[target] = nc
        outs.append(out)
    return outs


def act_on_wavelet(g: AffineElement, idx: WaveletIndex) -> PhasedWavelet:
    """G(a, b) psi_idx = zeta^m psi_target, computed exactly.

    Any rational (a, b) is accepted: prime-to-p denominator parts are p-adic
    units and reduce exactly through modular inverses, and the group inverse
    of a p-power-denominator element generally has such parts.
    """
    if g.p != idx.prime:
        raise PrimeMismatchError("mixed primes")
    [out] = _act_terms(g.p, g.a.value, [_own_translation(g)], [(idx, None)],
                       lambda c, m: m)
    [(target, m)] = out.items()
    return PhasedWavelet(target, m)


def act_on_function(g: AffineElement, f: TestFunction) -> TestFunction:
    """Termwise action; phases fold into coefficients, norms are preserved."""
    if g.p != f.prime:
        raise PrimeMismatchError("mixed primes")
    p, field = f.prime, f.field
    [out] = _act_terms(p, g.a.value, [_own_translation(g)], list(f.terms.items()),
                       lambda c, m: field.phase(c, m, p))
    return TestFunction(p, f.mode, out)


# ---------------------------------------------------------------------------
# Stabilizers
# ---------------------------------------------------------------------------


def ball_stabilizer_membership(g: AffineElement, gamma: int, n: CosetRepresentative) -> bool:
    """Whether g fixes the normed indicator of the ball with center
    p**-gamma * n and radius p**gamma."""
    p = g.p
    a, b = g.a.value, g.b.value
    if rational_valuation(a, p) != 0:
        return False
    center = ppow(p, -gamma) * n.value * (1 - a)
    return rational_valuation(b - center, p) >= -gamma


def wavelet_stabilizer_membership(g: AffineElement, idx: WaveletIndex) -> bool:
    """Whether g fixes psi_idx exactly: a = 1 mod p and
    p**gamma b = n (1 - a) mod p, the closed form of a one-term expansion."""
    return in_stabilizer(g, StabilizerSpec(idx.prime, 1, idx.gamma, idx.n))


@dataclass(frozen=True)
class StabilizerSpec:
    """Closed form of the stabilizer of a generic expansion:

        |1 - a|_p <= p**(-gamma_a)
        |b - p**(-gamma_0) n_0 (1 - a)|_p <= p**(gamma_0 - 1)

    gamma_0 is the minimal scale present; n_0 an anchor translation at that
    scale (any admissible choice yields the same b-ball).
    """

    prime: int
    gamma_a: int
    gamma_0: int
    n_0: CosetRepresentative

    def __post_init__(self):
        if self.gamma_a < 1:
            raise ValueError("gamma_a must be at least 1")


def _anchor_sort_key(n: CosetRepresentative):
    digits = n.digits()
    if not digits:
        return (0, ())
    depth = -min(digits)
    seq = tuple(digits.get(pos, 0) for pos in range(-depth, 0))
    return (depth, seq)


def stabilizer_spec(f: TestFunction) -> StabilizerSpec:
    """Compute (gamma_a, gamma_0, n_0) from the index set of f.

    gamma_a caps |1 - a|: the minimum of p**-1 and, over pairs of terms with
    distinct support centers, max(p**(gamma_i - 1), p**(gamma_j - 1)) divided
    by the center distance.  A center p**-gamma * N / p**D is the integer
    C = N * p**(E - gamma - D) over one p**E, E the largest gamma + D, so a
    distance exponent is E minus the valuation of C_i - C_j.
    """
    if f.is_zero():
        raise EmptyFunctionError("empty expansion has no stabilizer data")
    p = f.prime
    top = max(idx.gamma + idx.n.den_exponent for idx in f.terms)
    centers = [(idx.gamma, idx.n.numerator_over(top - idx.gamma)) for idx in f.terms]
    gamma_a = 1
    for (g1, c1), (g2, c2) in itertools.combinations(centers, 2):
        if c1 == c2:
            continue
        dist_exp = top - _p_part(c1 - c2, p)[0]
        gamma_a = max(gamma_a, 1 - max(g1, g2) + dist_exp)
    gamma_0 = min(g for g, _ in centers)
    anchors = sorted(
        {idx.n for idx in f.terms if idx.gamma == gamma_0},
        key=_anchor_sort_key)
    n_0 = anchors[0]
    # Any admissible anchor gives the same b-ball; the pair bound above
    # forces |n - n'| * |1 - a| <= p**-1 for anchors at the minimal scale.
    depth = max(n.den_exponent for n in anchors)
    base = n_0.numerator_over(depth)
    for other in anchors[1:]:
        diff_exp = depth - _p_part(base - other.numerator_over(depth), p)[0]
        if diff_exp + 1 > gamma_a:
            raise InvariantError(
                f"anchors {n_0.value} and {other.value} give different b-balls")
    return StabilizerSpec(p, gamma_a, gamma_0, n_0)


def in_stabilizer(g: AffineElement, spec: StabilizerSpec) -> bool:
    """The two closed-form norm inequalities, as valuation comparisons."""
    p = g.p
    a, b = g.a.value, g.b.value
    if rational_valuation(1 - a, p) < spec.gamma_a:
        return False
    center = ppow(p, -spec.gamma_0) * spec.n_0.value * (1 - a)
    return rational_valuation(b - center, p) >= 1 - spec.gamma_0


# ---------------------------------------------------------------------------
# Genericity certification by finite enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenericityVerdict:
    """Depth-bounded verdict: no claim is made beyond the stated quotient."""

    generic_up_to_depth: bool
    witnesses: tuple[AffineElement, ...]
    depth: int
    quotient_size: int
    spec_violations: tuple[AffineElement, ...]  # stabilizer-spec elements not invariant


def required_genericity_depth(f: TestFunction, spec: Optional[StabilizerSpec] = None) -> int:
    """Smallest depth at which invariance and spec membership are both
    determined by the enumerated digits."""
    spec = spec or stabilizer_spec(f)
    return max(spec.gamma_a + 1,
               f.max_translation_digits() + 1,
               1 - f.gamma_min())


def default_genericity_depth(f: TestFunction, spec: Optional[StabilizerSpec] = None) -> int:
    spec = spec or stabilizer_spec(f)
    base = f.scale_spread() + spec.gamma_a + 2
    return max(base, required_genericity_depth(f, spec))


def _translation_window(f: TestFunction) -> int:
    """Digit positions below zero needed for b to cover every support."""
    bounds = [0]
    for idx in f.terms:
        bounds.append(idx.gamma)
        bounds.append(idx.translation_digits() - idx.gamma)
    return max(bounds)


def genericity_check(f: TestFunction, depth: Optional[int] = None) -> GenericityVerdict:
    """Compare the exact invariance set against the closed-form stabilizer
    set over the finite digit quotient.

    The quotient has one cell (a, b) for each unit a modulo p**depth and each
    b = t * p**-w with 0 <= t < p**(depth + w), where w is the translation
    window max(0, gamma, D - gamma) over the terms (D translation digits).
    Translations beyond the window are not enumerated, on the premise that
    they move some support of f off every support of f.  A support centre
    p**-gamma * n of norm p**(gamma + D) above p**w breaks the premise: a
    translation outside the window can then fix f although the closed form
    rejects it, and the verdict misses that violation.  Cells are decided a
    class at a time:

    (i)   Answers are constant on a class.  Each term keeps its scale gamma,
          and its target and phase depend only on y = p**gamma * b + a * n
          modulo p Z_p.  So cells with the same a and the same t modulo
          p**k, k = w + 1 - gamma_min, have the same image of f.  The sound
          depth is at least 1 - gamma_min, so k <= depth + w.
    (ii)  The closed form is one class per a = 1 mod p**gamma_a, decided by
          congruence: its b-ball has radius p**(gamma_0 - 1) with gamma_0 =
          gamma_min, so the class is t = p**(w - gamma_0) n_0 (1 - a) modulo
          p**k, and there is none when that value is not an integer.
    (iii) Only a few classes can be invariant.  The action permutes basis
          labels, so g f == f sends a minimal-scale term (gamma_min, n0, j0)
          onto a term (gamma_min, n', j0 / a mod p) of f, which pins
          t = p**(w - gamma_min) (n' - a n0) modulo p**(w - gamma_min): p
          classes per matching term, none when that value is not an integer.

    Such a value is no integer only when a minimal-scale centre norm
    p**(gamma_0 + D) exceeds p**w, as for (gamma, n) = (1, 1/2) at p = 2
    (w = 1, w - gamma_0 = 0 < D); a window of gamma + D removes both guards.
    The action is evaluated on one cell of each class above.  A unit has at
    most one invariant class: two differ by a translation of norm at least
    p**gamma_0 that fixes f, so f is constant on balls of radius p**gamma_0
    and orthogonal to its minimal-scale terms.  With at most one predicted
    class, the witness and violation cells (a, t), listed unit by unit, come
    in the order of a cell-by-cell loop: ascending a, then ascending t.
    """
    if f.is_zero():
        raise EmptyFunctionError("genericity needs a nonzero function")
    spec = stabilizer_spec(f)
    required = required_genericity_depth(f, spec)
    if depth is None:
        depth = default_genericity_depth(f, spec)
    if depth < required:
        raise DepthTooSmallError(depth, required)

    p = f.prime
    window = _translation_window(f)
    b_count = p ** (depth + window)
    b_scale = ppow(p, -window)
    period = p ** (window + 1 - spec.gamma_0)  # t modulo period decides a cell
    step = period // p  # a pinned target fixes t modulo step
    landings = [(idx.j, idx.n.value) for idx in f.terms if idx.gamma == spec.gamma_0]
    j0, n0 = landings[0]
    anchor = step * spec.n_0.value
    witnesses: list[tuple[int, int]] = []
    violations: list[tuple[int, int]] = []
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
        spec_class = None
        if (a_int - 1) % p**spec.gamma_a == 0:
            t = anchor * (1 - a_int)
            if t.denominator == 1:
                spec_class = int(t) % period
                classes.add(spec_class)

        a = PadicScalar(Fraction(a_int), p)
        for c in classes:
            g = AffineElement(a, PadicScalar(c * b_scale, p))
            invariant = act_on_function(g, f).agrees(f)
            if invariant != (c == spec_class):
                cells = witnesses if invariant else violations
                cells.extend((a_int, t) for t in range(c, b_count, period))

    def elements(cells: list[tuple[int, int]]) -> tuple[AffineElement, ...]:
        return tuple(AffineElement(PadicScalar(Fraction(a), p), PadicScalar(t * b_scale, p))
                     for a, t in cells)

    units = p**depth - p ** (depth - 1)
    return GenericityVerdict(
        generic_up_to_depth=not witnesses and not violations,
        witnesses=elements(witnesses),
        depth=depth,
        quotient_size=units * b_count,
        spec_violations=elements(violations))
