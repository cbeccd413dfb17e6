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
    oracle_member,
    orbit_spec,
)
from padicframes.affine import act_on_function, affine, stabilizer_spec
from padicframes.cyclotomic import CycloNumber, root_of_unity
from padicframes.errors import SpanError
from padicframes.frames import OrbitIndex, dilation_indices
from padicframes.mra import (
    GramSummary,
    cross_gram_rows,
    scaling_relation_check,
    scaling_shift_gram,
    solve_in_span,
    span_probe,
    wavelet_space_gram,
)
from padicframes.padic import CosetRepresentative, digit_grid, ppow
from padicframes.sampling import random_cyclo, random_generic_function
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
        dilation = affine(3, 0, 3)
        images = [act_on_function(dilation, gen) for gen in source.generators]
        for image, idx_label in zip(images, source.labels):
            matches = [k for k, gen in enumerate(target.generators) if gen == image]
            assert len(matches) == 1
            assert target.labels[matches[0]].J == idx_label.J
            assert target.labels[matches[0]].n == idx_label.n


# ---------------------------------------------------------------------------
# Slow oracles: the dense kernels the sparse ones replaced
# ---------------------------------------------------------------------------


def dense_gram(f, spec, gamma1, gamma2, truncation):
    """Every pairwise inner_product_symbolic between the two probes."""
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
    floaty = as_float(f)
    for distance in range(1, f.scale_spread() + 2):
        for g in (f, floaty):
            sparse = wavelet_space_gram(g, spec, 0, distance, truncation)
            dense = dense_gram(g, spec, 0, distance, truncation)
            assert sparse == dense
            # bit-identical, not merely equal as floats
            assert sparse.max_abs_entry.hex() == dense.max_abs_entry.hex()


@pytest.mark.parametrize("name,f,truncation", ORACLE_INPUTS, ids=ORACLE_IDS)
def test_gram_rows_equal_pairwise_inner_products(name, f, truncation):
    """Entry by entry: absent entries are zero, present ones equal the
    pairwise inner product (float ones bit for bit, up to the sign of 0)."""
    spec = stabilizer_spec(f)
    for g in (f, as_float(f)):
        zero = g.field.zero(g.prime)
        for distance in range(1, f.scale_spread() + 2):
            gens1 = span_probe(g, spec, 0, truncation).generators
            gens2 = span_probe(g, spec, distance, truncation).generators
            rows = list(cross_gram_rows(gens1, gens2))
            assert len(rows) == len(gens1)
            for u, row in zip(gens1, rows):
                assert set(row) <= set(range(len(gens2)))
                for col, v in enumerate(gens2):
                    assert row.get(col, zero) == inner_product_symbolic(u, v)


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
    cases = ([(gens, m) for m in members] + [(gens, o) for o in outsiders]
             + [(next_gens, d) for d in dilated]
             + [(deficient, m) for m in members])
    for generators, target in cases:
        sparse = solve_in_span(generators, target)
        assert sparse == dense_solve(generators, target)
    for m in members:
        assert solve_in_span(gens, m) is not None
        assert solve_in_span(deficient, m) is not None
    for o in outsiders:
        assert solve_in_span(gens, o) is None


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
              for value in digit_grid(p, -truncation, mod_exp)]
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
    assert probe.labels == tuple(labels)
    assert_same_members(probe.generators, members)
