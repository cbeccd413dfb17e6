import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbit_strategies import (
    MODES,
    PRIMES,
    assert_same_members,
    expansions,
    fraction_digit_grid,
    oracle_member,
    orbit_spec,
)
from padicframes import mra
from padicframes.affine import act_on_function, affine, stabilizer_spec
from padicframes.cyclotomic import CycloNumber, root_of_unity
from padicframes.errors import ModeMismatchError, PrimeMismatchError, SpanError
from padicframes.frames import OrbitIndex, dilation_indices
from padicframes.mra import (
    GramSummary,
    SpanGenerators,
    SpanProbe,
    cross_gram_rows,
    scaling_relation_check,
    scaling_shift_gram,
    solve_in_span,
    span_probe,
    wavelet_space_gram,
)
from padicframes.padic import CosetRepresentative, ppow, rational_valuation
from padicframes.sampling import (
    random_cyclo,
    random_generic_function,
    random_test_function,
)
from padicframes.wavelets import (
    EXACT,
    FLOAT,
    TestFunction,
    inner_product_symbolic,
    wavelet_index,
)


def two_scale_function(p=3):
    return TestFunction.single(wavelet_index(0, 0, 1, p)) \
        + TestFunction.single(wavelet_index(1, 0, 1, p))


def gapped_function(p=3):
    """Scales 0 and 2: spread 2, and distance 1 is no scale difference."""
    return TestFunction.single(wavelet_index(0, 0, 1, p)) \
        + TestFunction.single(wavelet_index(2, Fraction(1, p), p - 1, p)).scaled(
            CycloNumber.from_rational(2, p))


class TestScalingShiftGram:
    def test_single_shift(self):
        assert scaling_shift_gram(3, [Fraction(0)]) == [[1]]

    def test_disjoint_shifts(self):
        gram = scaling_shift_gram(3, [Fraction(0), Fraction(1, 3)])
        assert gram == [[1, 0], [0, 1]]

    def test_equivalent_shifts_share_a_ball(self):
        gram = scaling_shift_gram(3, [Fraction(0), Fraction(1)])
        assert gram == [[1, 1], [1, 1]]

    def test_canonical_grid_gives_identity(self):
        p = 3
        shifts = []
        for t in range(27):
            value = sum(((t // p**i) % p) * ppow(p, -3 + i) for i in range(3))
            shifts.append(CosetRepresentative(p, value, 0))
        gram = scaling_shift_gram(p, shifts)
        for i in range(27):
            for k in range(27):
                assert gram[i][k] == (1 if i == k else 0)


def pairwise_shift_gram(p, shifts):
    """The shift Gram by one Fraction difference and valuation per pair."""
    values = [s.value if isinstance(s, CosetRepresentative) else Fraction(s)
              for s in shifts]
    return [[Fraction(1) if rational_valuation(ni - nj, p) >= 0 else Fraction(0)
             for nj in values] for ni in values]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_shift_gram_equals_pairwise_valuation_oracle(p):
    """Canonical representatives mixed with plain rationals (and ints)
    congruent to them modulo Z_p, or to nothing else in the list."""
    canonical = [CosetRepresentative(p, Fraction(num, p**2), 0)
                 for num in range(0, p**2, max(1, p - 1))]
    congruent = [rep.value + shift for rep, shift in
                 zip(canonical, (1, -p, p**3, Fraction(p, 7), -Fraction(2 * p, 3 * p + 1)))]
    others = [Fraction(1, p**3), -Fraction(1, p**3), Fraction(p - 1, p**3) + 5, 7, -2,
              Fraction(3, 11 * p)]
    shifts = canonical + congruent + others
    gram = scaling_shift_gram(p, shifts)
    assert gram == pairwise_shift_gram(p, shifts)
    assert all(type(entry) is Fraction for row in gram for entry in row)
    # every congruent shift shares its canonical representative's ball
    for k in range(len(congruent)):
        assert gram[k][len(canonical) + k] == 1


class TestWaveletSpaceGram:
    def test_fixed_scale_spaces_always_orthogonal(self):
        p = 3
        f = TestFunction(p, EXACT, {
            wavelet_index(0, 0, 1, p): CycloNumber.from_rational(1, p),
            wavelet_index(0, Fraction(1, 3), 2, p): CycloNumber.from_rational(2, p),
        })
        spec = stabilizer_spec(f)
        for d in (1, 2, 3):
            summary = wavelet_space_gram(f, spec, 0, d, truncation=1)
            assert summary.orthogonal and summary.max_abs_entry == 0.0

    def test_orthogonal_beyond_scale_spread(self):
        f = two_scale_function()
        spec = stabilizer_spec(f)
        assert f.scale_spread() == 1
        summary = wavelet_space_gram(f, spec, 0, 2, truncation=1)
        assert summary.orthogonal

    def test_adjacent_spaces_overlap_witness(self):
        f = two_scale_function()
        spec = stabilizer_spec(f)
        summary = wavelet_space_gram(f, spec, 0, 1, truncation=1)
        assert not summary.orthogonal
        assert summary.max_abs_entry > 0.5  # the shared term contributes 1

    def test_mixed_primes_refused_at_every_distance(self):
        """A spec of another prime is refused whether the block needs
        members (distance 1) or is decided from the scales (distance 5)."""
        f = two_scale_function(3)
        other = stabilizer_spec(two_scale_function(5))
        for distance in (1, 5):
            with pytest.raises(PrimeMismatchError):
                wavelet_space_gram(f, other, 0, distance, truncation=1)

    def test_summary_counts_entries(self):
        f = two_scale_function()
        spec = stabilizer_spec(f)
        summary = wavelet_space_gram(f, spec, 0, 2, truncation=0)
        gens = span_probe(f, spec, 0, 0).generators
        assert isinstance(summary, GramSummary)
        assert summary.entries == len(gens) ** 2


class TestSolveInSpan:
    def test_expresses_member(self):
        f = two_scale_function()
        spec = stabilizer_spec(f)
        probe = span_probe(f, spec, 0, 1)
        zeta = root_of_unity(1, 3)
        target = probe.generators[0].scaled(zeta) \
            + probe.generators[1].scaled(CycloNumber.from_rational(2, 3))
        solution = solve_in_span(probe.generators, target)
        assert solution is not None
        recombined = TestFunction(3, EXACT, {})
        for coeff, gen in zip(solution, probe.generators):
            if not coeff.is_zero():
                recombined = recombined + gen.scaled(coeff)
        assert recombined == target

    def test_rejects_outsider(self):
        f = two_scale_function()
        spec = stabilizer_spec(f)
        probe = span_probe(f, spec, 0, 1)
        outsider = TestFunction.single(wavelet_index(-2, Fraction(1, 9), 2, 3))
        assert solve_in_span(probe.generators, outsider) is None


class Untouchable(CycloNumber):
    """A coefficient that raises on any arithmetic."""

    def _refuse(self, *args):
        raise AssertionError("arithmetic on an untouchable coefficient")

    __add__ = __sub__ = __mul__ = __neg__ = __truediv__ = _refuse
    _addsub = inverse = scale = _refuse


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_stops_at_full_row_rank(p):
    """Once the kept columns span every wavelet index read so far, a column
    with no new index is not reduced: an untouchable column appended to a
    full-rank list leaves a non-member's None, and the same column placed
    first raises.  A member is expressed before the column is read."""
    a, b = wavelet_index(0, 0, 1, p), wavelet_index(1, Fraction(1, p), 1, p)
    one, c = CycloNumber.one(p), CycloNumber.from_rational(3, p) + root_of_unity(1, p)
    gens = [TestFunction(p, EXACT, {a: one, b: c}), TestFunction.single(b)]
    poison = TestFunction(p, EXACT, {a: Untouchable(p, (2,) + (0,) * (p - 2), _den=1)})
    target = TestFunction.single(a).scaled(c) + TestFunction.single(b)
    outsider = TestFunction.single(wavelet_index(2, 0, 1, p))
    expected = solve_in_span(gens, target)
    assert expected is not None
    assert solve_in_span(gens + [poison], target) == expected + [CycloNumber.zero(p)]
    assert solve_in_span(gens + [poison], outsider) is None
    for target_ in (target, outsider):
        with pytest.raises(AssertionError, match="untouchable"):
            solve_in_span([poison] + gens, target_)


class TestScalingRelation:
    def test_generator_dilates_into_next_space(self):
        f = two_scale_function()
        spec = stabilizer_spec(f)
        gens = span_probe(f, spec, 0, 1).generators
        assert scaling_relation_check(f, spec, gens[0], 0, truncation=1)

    def test_combination_dilates_into_next_space(self):
        f = two_scale_function()
        spec = stabilizer_spec(f)
        gens = span_probe(f, spec, 0, 1).generators
        member = gens[0] + gens[3].scaled(root_of_unity(2, 3))
        assert scaling_relation_check(f, spec, member, 0, truncation=1)

    def test_outside_span_reported(self):
        f = two_scale_function()
        spec = stabilizer_spec(f)
        outsider = TestFunction.single(wavelet_index(-2, Fraction(1, 9), 2, 3))
        with pytest.raises(SpanError):
            scaling_relation_check(f, spec, outsider, 0, truncation=1)

    def test_dilation_maps_generator_set_bijectively(self):
        f = two_scale_function()
        spec = stabilizer_spec(f)
        source = span_probe(f, spec, 0, 1)
        target = span_probe(f, spec, 1, 1)
        # span_probe lists J outer and n in digit-grid order
        labels = [(J, n) for J in dilation_indices(spec)
                  for n in fraction_digit_grid(3, -1, 1 - spec.gamma_0)]
        assert len(source.generators) == len(target.generators) == len(labels)
        dilation = affine(3, 0, 3)
        images = [act_on_function(dilation, gen) for gen in source.generators]
        for image, label in zip(images, labels):
            matches = [k for k, gen in enumerate(target.generators) if gen == image]
            assert len(matches) == 1
            assert labels[matches[0]] == label


# ---------------------------------------------------------------------------
# Slow oracles: the dense kernels the sparse ones replaced
# ---------------------------------------------------------------------------


def dense_gram(f, spec, gamma1, gamma2, truncation):
    """Every pairwise inner_product_symbolic between the two probes."""
    probe1 = span_probe(f, spec, gamma1, truncation)
    probe2 = span_probe(f, spec, gamma2, truncation)
    max_abs = 0.0
    orthogonal = True
    entries = 0
    for u in probe1.generators:
        for v in probe2.generators:
            ip = inner_product_symbolic(u, v)
            entries += 1
            if ip:
                orthogonal = False
                max_abs = max(max_abs, abs(complex(ip)))
    return GramSummary(orthogonal, max_abs, entries)


def dense_solve(generators, target):
    """Gauss-Jordan elimination on dense rows of the coefficient matrix."""
    p = target.prime
    zero = CycloNumber.zero(p)
    indices = sorted(
        {idx for g in generators for idx in g.terms} | set(target.terms),
        key=lambda idx: idx.sort_key)
    rows = [[g.terms.get(idx, zero) for g in generators] for idx in indices]
    rhs = [target.terms.get(idx, zero) for idx in indices]
    ncols = len(generators)
    pivot_of_col = {}
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


def full_gram(f, spec, gamma1, gamma2, truncation):
    """Every generator pair of the two full probes through cross_gram_rows,
    with no block decided from one row."""
    probe1 = span_probe(f, spec, gamma1, truncation)
    probe2 = span_probe(f, spec, gamma2, truncation)
    max_abs = 0.0
    orthogonal = True
    for row in cross_gram_rows(probe1.generators, probe2.generators):
        for ip in row.values():
            if ip:
                orthogonal = False
                max_abs = max(max_abs, abs(complex(ip)))
    entries = len(probe1.generators) * len(probe2.generators)
    return GramSummary(orthogonal, max_abs, entries)


def two_solve_scaling_check(f, spec, member, gamma, truncation):
    """The scaling relation by two eliminations: member at gamma, then its
    dilation at gamma + 1, with no coefficients carried over."""
    source = span_probe(f, spec, gamma, truncation)
    if solve_in_span(source.generators, member) is None:
        raise SpanError("function is not in the span at the stated exponent")
    dilated = act_on_function(affine(f.prime, 0, f.prime), member)
    target = span_probe(f, spec, gamma + 1, truncation)
    return solve_in_span(target.generators, dilated) is not None


def as_float(f):
    return TestFunction(f.prime, FLOAT,
                        {idx: c.to_complex() for idx, c in f.terms.items()})


# (prime, truncation, draw arguments); sizes keep the dense oracles quick
ORACLE_DRAWS = {
    2: (1, dict(max_terms=3, gamma_range=(-1, 1), max_digits=1)),
    3: (0, dict(max_terms=3, gamma_range=(-1, 1), max_digits=1)),
    5: (0, dict(max_terms=2, gamma_range=(0, 1), max_digits=0)),
}
ORACLE_SEEDS = range(4)


def oracle_inputs():
    """Seeded generic functions and the two-scale function for each prime."""
    for p, (truncation, kwargs) in ORACLE_DRAWS.items():
        for seed in ORACLE_SEEDS:
            rng = random.Random(1000 * p + seed)
            yield (f"p{p}-seed{seed}", random_generic_function(rng, p, **kwargs),
                   truncation)
        yield f"p{p}-two-scale", two_scale_function(p), truncation


ORACLE_INPUTS = list(oracle_inputs())
ORACLE_IDS = [name for name, _, _ in ORACLE_INPUTS]


@pytest.mark.parametrize("name,f,truncation", ORACLE_INPUTS, ids=ORACLE_IDS)
def test_gram_equals_dense_oracle(name, f, truncation):
    spec = stabilizer_spec(f)
    for distance in range(1, f.scale_spread() + 2):
        sparse = wavelet_space_gram(f, spec, 0, distance, truncation)
        dense = dense_gram(f, spec, 0, distance, truncation)
        assert sparse == dense
        # bit-identical, not merely equal as floats
        assert sparse.max_abs_entry.hex() == dense.max_abs_entry.hex()


@pytest.mark.parametrize("name,f,truncation", ORACLE_INPUTS, ids=ORACLE_IDS)
def test_gram_rows_equal_pairwise_inner_products(name, f, truncation):
    """Entry by entry: absent entries are zero, present ones equal the
    pairwise inner product."""
    spec = stabilizer_spec(f)
    zero = CycloNumber.zero(f.prime)
    for distance in range(1, f.scale_spread() + 2):
        gens1 = span_probe(f, spec, 0, truncation).generators
        gens2 = span_probe(f, spec, distance, truncation).generators
        rows = list(cross_gram_rows(gens1, gens2))
        assert len(rows) == len(gens1)
        for u, row in zip(gens1, rows):
            assert set(row) <= set(range(len(gens2)))
            for col, v in enumerate(gens2):
                assert row.get(col, zero) == inner_product_symbolic(u, v)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_float_gram_solve_and_scaling_refused_before_any_member(monkeypatch, p):
    """Gram, span solving and the scaling relation decide in Q(zeta_p): a
    float function anywhere raises ModeMismatchError before any orbit
    member is built."""
    f = two_scale_function(p)
    spec = stabilizer_spec(f)
    gens = span_probe(f, spec, 0, 1).generators
    floaty = as_float(f)
    float_gens = tuple(as_float(g) for g in gens)
    calls = []
    orbit_members_ = mra.orbit_members
    monkeypatch.setattr(mra, "orbit_members",
                        lambda *args: calls.append(1) or orbit_members_(*args))
    refused = [
        lambda: wavelet_space_gram(floaty, spec, 0, 1, 1),
        lambda: wavelet_space_gram(floaty, spec, 1, 0, 0),
        lambda: solve_in_span(float_gens, float_gens[0]),
        lambda: solve_in_span(gens, float_gens[0]),
        lambda: solve_in_span(float_gens, gens[0]),
        lambda: scaling_relation_check(floaty, spec, float_gens[0], 0, 1),
        lambda: scaling_relation_check(f, spec, float_gens[0], 0, 1),
        lambda: scaling_relation_check(floaty, spec, gens[0], 0, 1),
    ]
    for call in refused:
        with pytest.raises(ModeMismatchError, match="exact coefficients"):
            call()
    assert calls == []
    assert scaling_relation_check(f, spec, gens[0], 0, 1) and calls


def _members(rng, gens, p):
    """Seeded in-span combinations of one to three generators."""
    out = []
    for size in (1, 2, 3):
        member = TestFunction(p, EXACT, {})
        for k in rng.sample(range(len(gens)), min(size, len(gens))):
            member = member + gens[k].scaled(random_cyclo(rng, p))
        if not member.is_zero():
            out.append(member)
    return out


def rank_below_rows(f, gens):
    """Rank below the row count: the first generator of a multi-term span
    and the first one after it that touches a new wavelet index, with a
    wavelet the first one touches as the target; empty when f has one term
    or no such generator exists."""
    wider = [g for g in gens[1:] if set(g.terms) - set(gens[0].terms)]
    if len(f.terms) < 2 or not wider:
        return []
    return [([gens[0], wider[0]], TestFunction.single(next(iter(gens[0].terms))))]


def test_solve_oracle_cases_include_rank_below_rows():
    """The rank-deficient case above is not vacuous at any prime."""
    primes = {f.prime for _, f, truncation in ORACLE_INPUTS
              if rank_below_rows(f, span_probe(f, stabilizer_spec(f), 0,
                                               truncation).generators)}
    assert primes == set(ORACLE_DRAWS)


@pytest.mark.parametrize("name,f,truncation", ORACLE_INPUTS, ids=ORACLE_IDS)
def test_solve_equals_dense_oracle(name, f, truncation):
    p = f.prime
    rng = random.Random(name)
    spec = stabilizer_spec(f)
    gens = span_probe(f, spec, 0, truncation).generators
    members = _members(rng, gens, p)
    far = TestFunction.single(
        wavelet_index(f.gamma_min() - 2, Fraction(1, p * p), 1, p))
    outsiders = [far, members[0] + far]
    dilated = [act_on_function(affine(p, 0, p), m) for m in members]
    next_gens = span_probe(f, spec, 1, truncation).generators
    # rank deficient: a repeated generator and a combination of two others
    deficient = list(gens) + [gens[0],
                              gens[0].scaled(random_cyclo(rng, p)) + gens[-1]]
    prefix = rank_below_rows(f, gens)
    zero_target = TestFunction(p, EXACT, {})
    cases = ([(gens, m) for m in members] + [(gens, o) for o in outsiders]
             + [(next_gens, d) for d in dilated]
             + [(deficient, m) for m in members] + prefix
             + [([], zero_target), ([], members[0]), (gens, zero_target)])
    for generators, target in cases:
        sparse = solve_in_span(generators, target)
        assert sparse == dense_solve(generators, target)
    for m in members:
        assert solve_in_span(gens, m) is not None
        assert solve_in_span(deficient, m) is not None
    for o in outsiders:
        assert solve_in_span(gens, o) is None
    for generators, target in prefix:
        rows = {idx for g in generators for idx in g.terms}
        assert len(rows) > len(generators)
        assert solve_in_span(generators, target) is None
    assert solve_in_span([], zero_target) == []
    assert solve_in_span([], members[0]) is None
    assert solve_in_span(gens, zero_target) == [CycloNumber.zero(p)] * len(gens)


class PrefixOnly(SpanGenerators):
    """Span generators that raise on any read at or past ``limit``."""

    def _item(self, k):
        if k >= self.limit:
            raise AssertionError(f"generator {k} read past the prefix of {self.limit}")
        return super()._item(k)


def prefix_only(probe, f, spec, limit):
    gens = PrefixOnly(f, spec, probe.gamma, probe.translations)
    gens.limit = limit
    return gens


def expressing_prefix(gens, target):
    """The fewest leading generators whose span holds target, by bisection
    on dense_solve (membership in the span of a prefix only grows)."""
    lo, hi = 0, len(gens)
    while lo < hi:
        mid = (lo + hi) // 2
        if dense_solve(list(gens[:mid]), target) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("p,truncation", [(2, 1), (3, 1), (5, 0)])
def test_solve_reads_only_the_expressing_prefix(p, truncation):
    """The solve stops at the first prefix that expresses the target: a
    generator sequence that raises on any read past it still gives
    dense_solve's list on the whole span, and one that raises on the
    prefix's last generator raises.  A non-member reads to the end."""
    f = two_scale_function(p)
    spec = stabilizer_spec(f)
    probe = span_probe(f, spec, 0, truncation)
    gens = tuple(probe.generators)
    rng = random.Random(31 * p)
    picks = [(1, len(gens) // 2), (0, len(gens) - 1), (len(gens) // 3,)]
    for pick in picks:
        target = TestFunction(p, EXACT, {})
        for k in pick:
            target = target + gens[k].scaled(random_cyclo(rng, p))
        limit = expressing_prefix(gens, target)
        assert 0 < limit <= max(pick) + 1
        expected = dense_solve(list(gens), target)
        assert expected is not None
        assert solve_in_span(prefix_only(probe, f, spec, limit), target) == expected
        with pytest.raises(AssertionError, match="past the prefix"):
            solve_in_span(prefix_only(probe, f, spec, limit - 1), target)
    outsider = TestFunction.single(wavelet_index(-2, Fraction(1, p * p), 1, p))
    assert solve_in_span(prefix_only(probe, f, spec, len(gens)), outsider) is None
    with pytest.raises(AssertionError, match="past the prefix"):
        solve_in_span(prefix_only(probe, f, spec, len(gens) - 1), outsider)
    empty = TestFunction(p, EXACT, {})
    assert solve_in_span(prefix_only(probe, f, spec, 0), empty) \
        == [CycloNumber.zero(p)] * len(gens)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_float_generator_past_the_expressing_prefix_is_refused(p):
    """The mode contract does not stop with the solve: a float generator at
    the end of a list whose first generator already expresses the target
    raises, and so does a float copy of the lazy span."""
    f = two_scale_function(p)
    spec = stabilizer_spec(f)
    gens = list(span_probe(f, spec, 0, 1).generators)
    assert solve_in_span(gens, gens[0]) is not None
    with pytest.raises(ModeMismatchError, match="exact coefficients"):
        solve_in_span(gens + [as_float(gens[-1])], gens[0])
    float_span = span_probe(as_float(f), spec, 0, 1).generators
    assert float_span.mode == FLOAT
    with pytest.raises(ModeMismatchError, match="exact coefficients"):
        solve_in_span(float_span, gens[0])


# ---------------------------------------------------------------------------
# Slow oracle: span_probe building one AffineElement per member
# ---------------------------------------------------------------------------


def span_probe_oracle(f, spec, gamma, truncation):
    """Labels and members in span_probe's order, each member built through
    reference_act_on_function(group_element(idx, spec), f)."""
    p = f.prime
    mod_exp = 1 - spec.gamma_0
    labels = [OrbitIndex(gamma, CosetRepresentative(p, value, mod_exp), J)
              for J in dilation_indices(spec)
              for value in fraction_digit_grid(p, -truncation, mod_exp)]
    return labels, [oracle_member(f, spec, idx) for idx in labels]


SPAN_MEMBER_CAP = 300  # members per drawn probe, so the oracle stays quick


def _grid_exponent_cap(p, gamma_a):
    """Largest e >= 0 whose (p - 1) p**(gamma_a - 1) p**e members, that is
    J values times translations, stay within the cap."""
    def members(e):
        return (p - 1) * p ** (gamma_a - 1 + e)
    e = 0
    while members(e + 1) <= SPAN_MEMBER_CAP:
        e += 1
    return e


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_span_probe_equals_group_action(data):
    """Labels, members, term order and float bits against one group action
    per member, for gamma in [-2, 2], truncation 0..2 and gamma_0 in
    [-2, 2] as far as the member cap allows."""
    p = data.draw(st.sampled_from(PRIMES))
    mode = data.draw(st.sampled_from(MODES))
    f = data.draw(expansions(p, mode))
    gamma_a = data.draw(st.integers(1, 2 if _grid_exponent_cap(p, 2) >= 1 else 1))
    cap = _grid_exponent_cap(p, gamma_a)  # on truncation + 1 - gamma_0
    gamma_0 = data.draw(st.integers(max(-2, 1 - cap), 2))
    truncation = data.draw(st.integers(0, min(2, cap - 1 + gamma_0)))
    spec = orbit_spec(p, gamma_a, gamma_0)
    gamma = data.draw(st.integers(-2, 2))
    probe = span_probe(f, spec, gamma, truncation)
    labels, members = span_probe_oracle(f, spec, gamma, truncation)
    # the oracle builds one member per label of dilation_indices x grid, in order
    assert_same_members(probe.generators, members)
    # generator k has J = dilation_indices(spec)[k // T], n = translations[k % T]
    assert isinstance(probe, SpanProbe)
    T = len(probe.translations)
    assert labels == [OrbitIndex(gamma, probe.translations[k % T],
                                 dilation_indices(spec)[k // T])
                      for k in range(len(probe.generators))]


@pytest.mark.parametrize("p,gamma,truncation", [(2, -1, 2), (3, 0, 1), (5, 1, 0)])
def test_span_generators_sequence_equals_oracle(monkeypatch, p, gamma, truncation):
    """The lazy generators as a sequence: arithmetic length before any
    member is built, indexing (negative too), slices, IndexError and
    equality with the oracle's members, each J built by one orbit_members
    call over the whole grid on its first read and never again."""
    f = two_scale_function(p) + TestFunction.single(wavelet_index(1, Fraction(1, p), 1, p))
    spec = stabilizer_spec(f)
    _, members = span_probe_oracle(f, spec, gamma, truncation)
    calls = []
    orbit_members_ = mra.orbit_members
    monkeypatch.setattr(mra, "orbit_members", lambda f_, spec_, gamma_, J, translations: (
        calls.append((J, len(translations))) or orbit_members_(f_, spec_, gamma_, J, translations)))
    probe = span_probe(f, spec, gamma, truncation)
    gens, T = probe.generators, len(probe.translations)
    Js = dilation_indices(spec)
    assert len(gens) == len(members) == len(Js) * T and len(Js) >= 2 and T >= 2
    assert calls == []
    assert gens[-1] == members[-1] and gens[1] == members[1]
    assert calls == [(Js[-1], T), (Js[0], T)]
    assert gens[-T] == members[-T] and gens[T - 1] == members[T - 1]
    assert len(calls) == 2
    for index in (len(gens), -len(gens) - 1):
        with pytest.raises(IndexError):
            gens[index]
    assert gens[1:T + 2] == tuple(members[1:T + 2])
    assert gens[::-T] == tuple(members[::-T])
    assert gens[len(gens):] == ()
    assert gens == tuple(members) and tuple(members) == gens
    assert list(gens) == members and gens != members  # a tuple, not a list
    assert sorted(calls) == [(J, T) for J in Js]
    assert gens == span_probe(f, spec, gamma, truncation).generators
    assert gens != span_probe(f, spec, gamma + 1, truncation).generators


# ---------------------------------------------------------------------------
# Covariant kernels against the full Gram and the two-solve scaling check
# ---------------------------------------------------------------------------


# (prime, truncations, draw arguments); even seeds draw generic functions
COVARIANT_DRAWS = {
    2: ((0, 1, 2), dict(max_terms=3, gamma_range=(-1, 1), max_digits=1)),
    3: ((0, 1), dict(max_terms=3, gamma_range=(-1, 1), max_digits=1)),
    5: ((0,), dict(max_terms=2, gamma_range=(0, 1), max_digits=1)),
}
COVARIANT_SEEDS = range(10)


def covariant_inputs():
    for p, (truncations, kwargs) in COVARIANT_DRAWS.items():
        for seed in COVARIANT_SEEDS:
            rng = random.Random(7000 + 100 * p + seed)
            draw = random_generic_function if seed % 2 == 0 else random_test_function
            yield f"p{p}-seed{seed}", draw(rng, p, **kwargs), truncations
        yield f"p{p}-two-scale", two_scale_function(p), truncations
        yield f"p{p}-gapped", gapped_function(p), truncations


COVARIANT_INPUTS = list(covariant_inputs())
COVARIANT_IDS = [name for name, _, _ in COVARIANT_INPUTS]


def gram_pairs(f):
    """Lower exponent first, second, equal, far apart, straddling zero, and
    beyond the scale spread."""
    return [(0, 1), (1, 0), (0, 0), (2, 0), (-1, 1), (0, f.scale_spread() + 1)]


@pytest.mark.parametrize("name,f,truncations", COVARIANT_INPUTS, ids=COVARIANT_IDS)
def test_gram_equals_full_gram_oracle(name, f, truncations):
    spec = stabilizer_spec(f)
    for truncation in truncations:
        for gamma1, gamma2 in gram_pairs(f):
            fast = wavelet_space_gram(f, spec, gamma1, gamma2, truncation)
            slow = full_gram(f, spec, gamma1, gamma2, truncation)
            assert fast == slow
            assert fast.max_abs_entry.hex() == slow.max_abs_entry.hex()


def test_gram_oracle_cases_include_nonzero_blocks():
    """The differential cases above are not all orthogonal."""
    overlapping = 0
    for _, f, truncations in COVARIANT_INPUTS:
        spec = stabilizer_spec(f)
        overlapping += sum(not wavelet_space_gram(f, spec, g1, g2, truncations[0]).orthogonal
                           for g1, g2 in gram_pairs(f))
    assert overlapping >= len(COVARIANT_INPUTS)


def test_gram_oracle_cases_include_gaps_within_the_spread():
    """Some differential cases have a distance up to the scale spread that
    is no difference of term scales, at every prime: blocks the scales
    decide although the spread alone would not."""
    primes = set()
    for _, f, _ in COVARIANT_INPUTS:
        scales = {idx.gamma for idx in f.terms}
        differences = {b - a for a in scales for b in scales}
        if any(abs(g1 - g2) <= f.scale_spread() and abs(g1 - g2) not in differences
               for g1, g2 in gram_pairs(f)):
            primes.add(f.prime)
    assert primes == set(COVARIANT_DRAWS)


@pytest.mark.parametrize("name,f,truncation", ORACLE_INPUTS, ids=ORACLE_IDS)
def test_scaling_relation_equals_two_solve_oracle(monkeypatch, name, f, truncation):
    """Verdicts equal the oracle's; an in-span member takes one elimination,
    because the carried coefficients already certify the dilation."""
    p = f.prime
    rng = random.Random(name)
    spec = stabilizer_spec(f)
    solves = []
    monkeypatch.setattr(mra, "solve_in_span",
                        lambda gens, target: solves.append(1) or solve_in_span(gens, target))
    for gamma in (0, 1):
        gens = span_probe(f, spec, gamma, truncation).generators
        for member in _members(rng, gens, p):
            solves.clear()
            assert scaling_relation_check(f, spec, member, gamma, truncation) \
                == two_solve_scaling_check(f, spec, member, gamma, truncation)
            assert len(solves) == 1
        far = TestFunction.single(
            wavelet_index(f.gamma_min() - 2, Fraction(1, p * p), 1, p))
        for outsider in (far, gens[0] + far):
            with pytest.raises(SpanError):
                two_solve_scaling_check(f, spec, outsider, gamma, truncation)
            with pytest.raises(SpanError):
                scaling_relation_check(f, spec, outsider, gamma, truncation)


class TestCovariantMechanism:
    @staticmethod
    def record(monkeypatch):
        """Record each span_probe exponent and each orbit_members call as
        (gamma, J, number of translations)."""
        probes, calls = [], []
        span_probe_, orbit_members_ = mra.span_probe, mra.orbit_members

        def probe(f, spec, gamma, truncation):
            probes.append(gamma)
            return span_probe_(f, spec, gamma, truncation)

        def members(f, spec, gamma, J, translations):
            calls.append((gamma, J, len(translations)))
            return orbit_members_(f, spec, gamma, J, translations)

        monkeypatch.setattr(mra, "span_probe", probe)
        monkeypatch.setattr(mra, "orbit_members", members)
        return probes, calls

    @pytest.mark.parametrize("gamma1,gamma2", [(0, 2), (2, 0), (-1, 1)])
    def test_one_probe_and_one_member_per_J(self, monkeypatch, gamma1, gamma2):
        """f has term scales -1, -1 and 0.  At distance 2, no difference of
        them, the block is decided from the scales: no span probe and no
        member, and the summary equals the full Gram's.  With the higher
        exponent one step closer, distance 1 is a difference: one span probe,
        at the lower exponent, whose generators take one orbit_members call
        per J over the grid, and one n = 0 member per J at the higher, and
        nothing else."""
        f = random_generic_function(random.Random(5), 3, max_terms=3,
                                    gamma_range=(-1, 1), max_digits=1)
        spec = stabilizer_spec(f)
        assert sorted(idx.gamma for idx in f.terms) == [-1, -1, 0]
        grid = len(list(fraction_digit_grid(3, -1, 1 - spec.gamma_0)))
        far_oracle = full_gram(f, spec, gamma1, gamma2, 1)
        probes, calls = self.record(monkeypatch)
        far = wavelet_space_gram(f, spec, gamma1, gamma2, 1)
        assert (probes, calls) == ([], [])
        assert far == far_oracle and far.orthogonal
        assert far.entries == (len(dilation_indices(spec)) * grid) ** 2

        near = (gamma1, gamma2 - 1) if gamma1 < gamma2 else (gamma1 - 1, gamma2)
        lo, hi = sorted(near)
        assert hi - lo == 1
        wavelet_space_gram(f, spec, *near, 1)
        assert probes == [lo]
        assert [c for c in calls if c[0] == hi] \
            == [(hi, J, 1) for J in dilation_indices(spec)]
        assert [c for c in calls if c[0] == lo] \
            == [(lo, J, grid) for J in dilation_indices(spec)]
        assert len(calls) == 2 * len(dilation_indices(spec))

    @staticmethod
    def mutate_next_span(monkeypatch, mutant, gamma, grid):
        """Replace every member built at gamma + 1 by a mutant: rotated
        moves each translation one place along the grid (the same span,
        members the carried coefficients no longer match), undilated builds
        the members at gamma instead (a span that misses the dilation)."""
        orbit_members_ = mra.orbit_members

        def members(f, spec, gamma_, J, translations):
            if gamma_ == gamma + 1:
                if mutant == "rotated":
                    translations = [grid[(grid.index(n) + 1) % len(grid)]
                                    for n in translations]
                else:
                    gamma_ = gamma
            return orbit_members_(f, spec, gamma_, J, translations)

        monkeypatch.setattr(mra, "orbit_members", members)

    @pytest.mark.parametrize("mutant,in_span", [("rotated", True), ("undilated", False)])
    def test_missed_carry_is_refused(self, monkeypatch, mutant, in_span):
        """The members built at gamma + 1 replaced by a mutant that the
        carried coefficients no longer match.  A second elimination on the
        mutated span would say in_span; the check returns False after one
        span probe, at gamma, one solve, and only the carried members."""
        f = two_scale_function()
        spec = stabilizer_spec(f)
        probe = span_probe(f, spec, 0, 1)
        gens = probe.generators
        member = gens[0] + gens[3].scaled(root_of_unity(2, 3))
        dilated = act_on_function(affine(3, 0, 3), member)
        nonzero = sum(1 for c in solve_in_span(gens, member) if c)
        # generators are built when read, so each span is read into a tuple
        # while the orbit_members it is meant to show is in place
        honest = tuple(span_probe(f, spec, 1, 1).generators)
        self.mutate_next_span(monkeypatch, mutant, 0, probe.translations)
        mutated = tuple(span_probe(f, spec, 1, 1).generators)
        assert mutated != honest
        if mutant == "rotated":
            assert sorted(map(honest.index, mutated)) == list(range(len(honest)))
        else:
            assert mutated == tuple(gens)
        assert (solve_in_span(mutated, dilated) is not None) is in_span
        probes, calls = self.record(monkeypatch)
        solves = []
        monkeypatch.setattr(mra, "solve_in_span",
                            lambda gens, target: solves.append(1) or solve_in_span(gens, target))
        assert scaling_relation_check(f, spec, member, 0, 1) is False
        assert probes == [0] and len(solves) == 1
        assert sum(n for gamma, _, n in calls if gamma == 1) == nonzero

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_carry_builds_only_members_with_nonzero_coefficients(self, monkeypatch, p):
        """An in-span member: one span probe, at gamma, and at gamma + 1 one
        orbit_members call per J that carries a nonzero coefficient, with
        as many translations as it has nonzero coefficients.  With those
        members mutated the check returns False on the same work: one span
        probe, one solve and no full span at gamma + 1."""
        f = two_scale_function(p)
        spec = stabilizer_spec(f)
        gamma, truncation = 1, 1
        probe = span_probe(f, spec, gamma, truncation)
        gens, grid = probe.generators, probe.translations
        member = gens[0] + gens[1].scaled(CycloNumber.from_rational(2, p)) \
            + gens[-1].scaled(root_of_unity(1, p))
        coefficients = solve_in_span(gens, member)
        nonzero = [k for k, c in enumerate(coefficients) if c]
        carried_Js = sorted({dilation_indices(spec)[k // len(grid)] for k in nonzero})
        assert 2 <= len(nonzero) < len(gens)

        probes, calls = self.record(monkeypatch)
        assert scaling_relation_check(f, spec, member, gamma, truncation)
        assert probes == [gamma]
        carried = [c for c in calls if c[0] == gamma + 1]
        assert [J for _, J, _ in carried] == carried_Js
        assert sum(n for _, _, n in carried) == len(nonzero)

        probes.clear()
        calls.clear()
        self.mutate_next_span(monkeypatch, "rotated", gamma, grid)
        solves = []
        monkeypatch.setattr(mra, "solve_in_span",
                            lambda gens, target: solves.append(1) or solve_in_span(gens, target))
        assert scaling_relation_check(f, spec, member, gamma, truncation) is False
        assert probes == [gamma] and len(solves) == 1
        assert [c for c in calls if c[0] == gamma + 1] == carried
