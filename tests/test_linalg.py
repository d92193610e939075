from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcdeform import linalg as la


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
