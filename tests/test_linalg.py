import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from mcdeform import linalg as la
from mcdeform.graded import GradedElement, GradedSpace


F = Fraction


def M(rows):
    return [[F(x) for x in row] for row in rows]


def test_rref_pivots():
    r, pivots = la.rref(M([[2, 4], [1, 2]]))
    assert pivots == [0]
    assert r[0] == [F(1), F(2)]
    assert r[1] == [F(0), F(0)]


def test_nullspace_deterministic():
    ns = la.nullspace(M([[1, 2, 3]]))
    assert ns == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]


def test_nullspace_zero_rows():
    assert la.nullspace([], cols=2) == [[F(1), F(0)], [F(0), F(1)]]


def test_solve_and_infeasible():
    a = M([[1, 1], [0, 1]])
    assert la.solve(a, [F(3), F(1)]) == [F(2), F(1)]
    assert la.solve(M([[1, 1], [1, 1]]), [F(0), F(1)]) is None


def test_solve_empty_system():
    assert la.solve([], [], cols=3) == [F(0)] * 3


def test_inverse_round_trip():
    a = M([[1, 2], [3, 5]])
    assert la.mat_mul(a, la.inverse(a)) == la.identity(2)
    with pytest.raises(ValueError):
        la.inverse(M([[1, 2], [2, 4]]))


def test_mat_mul_degenerate_shapes():
    assert la.mat_mul([], [[F(1)]]) == []
    assert la.mat_mul([[], []], []) == la.zeros(2, 0)


def test_in_span():
    basis = [[F(1), F(0)], [F(1), F(1)]]
    assert la.in_span(basis, [F(3), F(2)]) == [F(1), F(2)]
    assert la.in_span([], [F(0), F(0)]) == []
    assert la.in_span([], [F(1), F(0)]) is None


def test_rank_and_columns():
    a = M([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert la.rank(a) == 2
    # the pivot columns are what a greedy basis extension from nothing keeps
    cols = [[row[j] for row in a] for j in range(3)]
    assert la.extend_basis([], cols, 3) == [0, 2]


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        la.frac(0.5)


@pytest.mark.parametrize("flag", [True, False])
def test_frac_rejects_bools(flag):
    # an element coordinate True used to be stored as 1
    with pytest.raises(TypeError):
        la.frac(flag)
    with pytest.raises(TypeError):
        GradedElement(GradedSpace(0, 0, {0: ("x",)}), {(0, 0): flag})


def test_mat_vec_reads_only_the_nonzero_entries_of_v():
    # an entry facing a zero of v is never read: None there would fail a product
    assert la.mat_vec([[None, F(3)], [None, F(-1)]], [F(0), F(2)]) == [F(6), F(-2)]
    assert la.mat_vec([[F(1), F(2)]], [F(0), F(0)]) == [F(0)]
    assert la.mat_vec([], [F(1)]) == []


def greedy_in_span_scan(base, candidates):
    """Reference: one in_span solve per candidate, keeping those outside the span."""
    span, kept = list(base), []
    for k, v in enumerate(candidates):
        if la.in_span(span, v) is None:
            span.append(v)
            kept.append(k)
    return kept


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def vector_lists(draw):
    n = draw(st.integers(min_value=0, max_value=4))
    vec = st.lists(small, min_size=n, max_size=n)
    base = draw(st.lists(vec, max_size=4))
    if base and draw(st.booleans()):
        base.append([2 * x - y for x, y in zip(base[0], base[-1])])  # dependent base
    cands = draw(st.lists(st.one_of(vec, st.just([F(0)] * n)), max_size=6))
    return n, base, cands


@settings(max_examples=200, deadline=None)
@given(vector_lists())
def test_extend_basis_matches_greedy_scan(data):
    n, base, cands = data
    assert la.extend_basis(base, cands, n) == greedy_in_span_scan(base, cands)


def test_extend_basis_empty_inputs():
    assert la.extend_basis([], [], 3) == []
    assert la.extend_basis([[F(1), F(0)]], [], 2) == []
    assert la.extend_basis([], [[F(0), F(0)], [F(0), F(1)]], 2) == [1]


@settings(max_examples=100, deadline=None)
@given(vector_lists())
def test_complete_and_invert(data):
    n, base, _cands = data
    span = [base[k] for k in la.extend_basis([], base, n)]
    units, inv = la.complete_and_invert(span, n)
    assert units == greedy_in_span_scan(span, [la.unit_vector(n, j) for j in range(n)])
    full = la.from_columns(span + [la.unit_vector(n, j) for j in units], n)
    assert la.mat_mul(inv, full) == la.identity(n)


# --- the sparse echelon against the dense routines ------------------------------


PIVOT_RULES = {
    "min": min,
    "max": max,
    # the gauge decision's kind of rule: the top level, then the least index
    "level": lambda row: max(row, key=lambda u: (u % 3, -u)),
}


@st.composite
def sparse_systems(draw):
    """An integer matrix with many zeros, its rows in a random order, a
    right-hand side and a probe vector."""
    cols = draw(st.integers(min_value=1, max_value=6))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3])
    row = st.lists(entry, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, max_size=7))
    if len(rows) >= 2 and draw(st.booleans()):
        rows.append([2 * x - y for x, y in zip(rows[0], rows[1])])  # a dependent row
    rows = draw(st.permutations(rows))
    rhs = draw(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)))
    probe = draw(row)
    return cols, M(rows), [F(b) for b in rhs], [F(x) for x in probe]


def sparse(vec):
    return {j: c for j, c in enumerate(vec) if c}


@settings(max_examples=300, deadline=None)
@given(sparse_systems(), st.sampled_from(sorted(PIVOT_RULES)))
def test_echelon_matches_dense(system, rule):
    cols, a, b, probe = system
    span = la.Echelon(PIVOT_RULES[rule])
    kept = [i for i, row in enumerate(a) if span.add(sparse(row))[0]]
    assert len(kept) == len(span.rows) == len(la.rref(a)[1])
    # reduced and zero-free: each row is 1 at its own pivot and 0 at every other
    # pivot, its integer numerators over a positive denominator with no common factor
    for p, (den, nums) in span.rows.items():
        assert 0 not in nums.values() and den > 0 and math.gcd(den, *nums.values()) == 1
        row = {k: F(n, den) for k, n in nums.items()}
        assert {q: row.get(q, 0) for q in span.rows} == {q: int(q == p) for q in span.rows}
    assert (not span.reduce(sparse(probe))[0]) == (la.in_span(a, probe) is not None)
    # with right-hand sides: an inconsistent row shows as (∅, c ≠ 0)
    system = la.Echelon(PIVOT_RULES[rule])
    clash = False
    for row, rhs in zip(a, b):
        rest, rest_rhs = system.add(sparse(row), rhs)
        clash = clash or (not rest and rest_rhs != 0)
    assert clash == (la.solve(a, b, cols=cols) is None)
    if not clash:
        x = system.rhs  # the solution with every free unknown 0, read at the pivots
        assert all(sum(c * x.get(j, 0) for j, c in enumerate(row)) == bi
                   for row, bi in zip(a, b))


def test_echelon_returns_a_vector_that_hits_no_pivot_as_is():
    span = la.Echelon()
    span.add({0: F(2), 2: F(1)})
    vec = {1: F(3)}
    assert span.reduce(vec)[0] is vec
    assert span.reduce({0: F(4), 2: F(2)}) == ({}, 0)
    assert span.rows == {0: (2, {0: 2, 2: 1})}  # the row e_0 + e_2/2


def test_mat_vec_sparse():
    a = M([[1, 0, 2], [0, 0, 0], [0, 3, -1]])
    assert la.mat_vec_sparse(a, {0: F(1), 2: F(1, 2)}) == {0: F(2), 2: F(-1, 2)}
    assert la.mat_vec_sparse(a, {}) == {}


@st.composite
def rational_matrices(draw):
    """A rational matrix, sparse or dense, possibly with zero rows and columns,
    possibly empty."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    dense = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    entry = draw(st.sampled_from([dense, st.sampled_from([F(0)] * 4 + [F(1), F(-2), F(1, 3)])]))
    a = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for i in draw(st.lists(st.integers(0, max(rows - 1, 0)), max_size=2)) if rows else []:
        a[i] = [F(0)] * cols
    for j in draw(st.lists(st.integers(0, max(cols - 1, 0)), max_size=2)) if cols else []:
        for row in a:
            row[j] = F(0)
    return a


@settings(max_examples=300, deadline=None)
@given(rational_matrices())
def test_rank_matches_the_dense_pivot_count(a):
    assert la.rank(a) == len(la.rref(a)[1])
    # the transpose has the same rank
    assert la.rank([list(col) for col in zip(*a)]) == la.rank(a)


def test_rank_of_empty_and_zero_matrices():
    assert la.rank([]) == 0
    assert la.rank([[], []]) == 0
    assert la.rank(la.zeros(3, 4)) == 0
    assert la.rank(M([[0, 0], [2, 4], [1, 2]])) == 1


@settings(max_examples=100, deadline=None)
@given(rational_matrices(), st.data())
def test_mat_vec_matches_the_sum_over_every_entry(a, data):
    v = data.draw(st.lists(st.sampled_from([F(0), F(0), F(1), F(-2, 3), F(5, 7)]),
                           min_size=la.num_cols(a), max_size=la.num_cols(a)))
    assert la.mat_vec(a, v) == [sum((row[j] * v[j] for j in range(len(v))), F(0)) for row in a]


# --- the integer echelon against the Fraction echelon ------------------------------

# distinct primes up to 61 bits, so that row denominators grow
PRIMES = (3, 7, 1_000_003, 2**61 - 1)


def gauge_rule(rank):
    """gauge_equiv_decide's rule on keys (0, i): the top level, then the least index."""
    return lambda row: max(row, key=lambda u: (rank[u], -u[1]))


@st.composite
def rational_systems(draw):
    """Sparse rows of Fractions (small, and over large primes), some of them
    combinations of others, with right-hand sides, a probe, and a pivot rule."""
    cols = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(st.just(F(0)), st.just(F(0)), st.builds(
        F, st.integers(-4, 4), st.sampled_from((1, 1, 2) + PRIMES)))
    row = st.lists(entry, min_size=cols, max_size=cols)
    rows = draw(st.lists(row, max_size=7))
    if len(rows) >= 2 and draw(st.booleans()):
        c = draw(st.sampled_from((F(1), F(-3, 7), F(2, 2**61 - 1))))
        rows.append([x + c * y for x, y in zip(rows[0], rows[-1])])  # a dependent row
    rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    rule = draw(st.sampled_from(sorted(PIVOT_RULES) + ["gauge"]))
    if rule == "gauge":  # tuple keys (0, i) at levels 1..3, as in the gauge decision
        rank = {(0, j): j % 3 + 1 for j in range(cols)}
        return ([{(0, j): c for j, c in enumerate(r) if c} for r in rows], rhs,
                {(0, j): c for j, c in enumerate(draw(row)) if c}, gauge_rule(rank))
    return [sparse(r) for r in rows], rhs, sparse(draw(row)), PIVOT_RULES[rule]


@settings(max_examples=300, deadline=None)
@given(rational_systems())
def test_echelon_matches_the_fraction_echelon(system):
    rows, rhs, probe, rule = system
    span, ref_span = la.Echelon(rule), ref.FractionEchelon(rule)
    for vec, b in zip(rows, rhs):
        assert span.reduce(vec, b) == ref_span.reduce(vec, b)
        assert span.add(vec, b) == ref_span.add(vec, b)
    # the same pivots, rows and right-hand sides
    assert {p: {k: F(n, den) for k, n in nums.items()} for p, (den, nums) in span.rows.items()} \
        == ref_span.rows
    assert span.rhs == ref_span.rhs
    assert span.reduce(probe) == ref_span.reduce(probe)
