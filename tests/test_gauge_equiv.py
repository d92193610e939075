"""Oracles for the per-level gauge-equivalence decision.

`gauge_equiv_decide` must agree with the old kernel-ball search
(`search_equiv.py`) wherever the search decides, with the exact criterion
x − y ∈ d(L⁰ ⊗ m) for abelian L, and with a Gröbner basis computation on small
cases; e^b * x is always Equivalent, also in coefficient bases that are not
adapted to the power filtration.
"""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

import cli_reports
from mcdeform import library as lib
from mcdeform import linalg as la
from mcdeform.artin import artin_from_labels, tensor_dgla, truncated_polynomial_algebra
from mcdeform.dgla import endomorphism_dgla
from mcdeform.documents import canonical_json
from mcdeform.graded import ChainComplex, GradedElement, GradedMap, GradedSpace, basis_element
from mcdeform.maurer_cartan import (
    Equivalent,
    NotEquivalent,
    Undecided,
    gauge_apply,
    gauge_equiv_decide,
    mc_element,
)
from search_equiv import search_equiv_decide
from util_random import dg_uw, rand_elem, rand_mc


def rebased_truncated(m: int, P: la.Matrix):
    """m of K[t]/t^m in the basis w_j = Σ_i P[i][j] t^{i+1}."""
    A = truncated_polynomial_algebra(m)
    Q = la.inverse(P)
    labels = tuple(f"w{j}" for j in range(A.dim))
    products = {}
    for i in range(A.dim):
        for j in range(i, A.dim):
            prod: dict[int, Fraction] = {}
            for k in range(A.dim):
                col = {r: P[r][j] for r in range(A.dim) if P[r][j]}
                for r, c in A.product_basis(k, col).items():
                    prod[r] = prod.get(r, Fraction(0)) + P[k][i] * c
            products[(labels[i], labels[j])] = {
                labels[r]: sum(Q[r][c] * v for c, v in prod.items()) for r in range(A.dim)}
    return artin_from_labels(labels, products)


# K[t]/t³ in the basis a = t, b = t − t²
SKEW = rebased_truncated(3, [[Fraction(1), Fraction(1)], [Fraction(0), Fraction(-1)]])


def test_adapted_basis():
    assert truncated_polynomial_algebra(4).adapted_basis == (None, None, (1, 2, 3))
    P, Q, levels = SKEW.adapted_basis
    # m² = ⟨w0 − w1⟩ comes first, at level 2
    assert P == [[1, 1], [-1, 0]] and levels == (2, 1)
    assert la.mat_mul(P, Q) == la.identity(2)


@lru_cache(maxsize=None)
def sweep():
    """(T, x, y, decision, search) over heis, endo_acyclic and obstructed ⊗
    K[t]/t²…t⁵ and every built-in DGLA ⊗ K[t]/t⁴, 15 cases a setting and
    seed; in about 60% of them y = e^b * x."""
    settings_ = [(n, m) for n in ("heis", "endo_acyclic", "obstructed") for m in (2, 3, 4, 5)]
    settings_ += [(n, 4) for n in lib.EXAMPLE_DGLAS]
    out = []
    for seed in (1, 2, 3):
        rnd = random.Random(seed)
        for name, m in settings_:
            T = tensor_dgla(lib.EXAMPLE_DGLAS[name](), truncated_polynomial_algebra(m))
            for _ in range(15):
                x = mc_element(T, rand_mc(rnd, T))
                if rnd.random() < 0.6:
                    y = mc_element(T, gauge_apply(T, rand_elem(rnd, T, 0), x.element))
                else:
                    y = mc_element(T, rand_mc(rnd, T))
                out.append((T, x, y, gauge_equiv_decide(x, y), search_equiv_decide(x, y)))
    return out


def test_agrees_with_the_search_wherever_it_decides():
    kinds = {Equivalent: 0, NotEquivalent: 0}
    for T, x, y, res, old in sweep():
        if isinstance(res, Equivalent):
            assert gauge_apply(T, res.witness, x.element) == y.element
        if not isinstance(old, Undecided):
            assert type(res) is type(old)
        kinds[type(res)] += 1
    assert kinds == {Equivalent: 724, NotEquivalent: 176}


def end_v():
    """End(V) for V = ⟨u, w⟩ → ⟨v, z⟩ with du = v: its degree-0 part gl₂ ⊕ gl₂
    is not abelian, so a gauge a•s differs from a + s."""
    space = GradedSpace(0, 1, {0: ("u", "w"), 1: ("v", "z")})
    d = GradedMap(space, space, 1, {0: [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]})
    return endomorphism_dgla(ChainComplex(space, d))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_gauge_orbit_over_a_non_abelian_degree_zero(m):
    rnd = random.Random(m)
    for A in (truncated_polynomial_algebra(m), SKEW):
        T = tensor_dgla(end_v(), A)
        for _ in range(6):
            x = mc_element(T, rand_mc(rnd, T))
            y = mc_element(T, gauge_apply(T, rand_elem(rnd, T, 0), x.element))
            res = gauge_equiv_decide(x, y)
            assert isinstance(res, Equivalent)
            assert gauge_apply(T, res.witness, x.element) == y.element


def test_abelian_criterion():
    # for abelian L, e^a * x = x − da, so x ~ y iff x − y ∈ d(L⁰ ⊗ m)
    rnd = random.Random(7)
    for L in (lib.acyclic(), lib.abelian2(), lib.zero()):
        for A in (lib.artin_kt(3), lib.artin_square_zero(), lib.artin_poly2(), SKEW, dg_uw()):
            T = tensor_dgla(L, A)
            d0, d1 = T.dgla.complex.d.matrix(0), T.dgla.complex.d.matrix(1)
            cycles = la.nullspace(d1, cols=T.space.dim(1))

            def rand_cycle() -> GradedElement:
                coeffs = [rnd.randint(-2, 2) for _ in cycles]
                return GradedElement(T.space, {(1, i): sum(c * v[i] for c, v in zip(
                    coeffs, cycles)) for i in range(T.space.dim(1))}, 1)

            for _ in range(8):
                x = rand_cycle()
                y = x - T.differential_of(rand_elem(rnd, T, 0)) if rnd.random() < 0.5 \
                    else rand_cycle()
                res = gauge_equiv_decide(mc_element(T, x), mc_element(T, y))
                exact = la.solve(d0, (x - y).component_vector(1), cols=T.space.dim(0))
                assert isinstance(res, Equivalent) == (exact is not None)


def test_reason_names_the_level_and_residual():
    T = tensor_dgla(lib.heis(), lib.artin_kt(3))
    x = mc_element(T, T.element_from_labels({"x@t^2": 1}, 1))
    y = mc_element(T, T.element_from_labels({"x@t^2": 1, "y@t^2": 1}, 1))
    res = gauge_equiv_decide(x, y)
    assert isinstance(res, NotEquivalent)
    assert "level-2 residual y − e^a * x ≡ y@t^2 (mod m^3)" in res.reason
    # in a basis not adapted to the filtration, the residual is named in that basis
    T = tensor_dgla(lib.heis(), SKEW)
    x = mc_element(T, T.element_from_labels({"x@w0": 1, "x@w1": -1}, 1))
    y = mc_element(T, T.element_from_labels({"x@w0": 1, "x@w1": -1, "y@w0": 1, "y@w1": -1}, 1))
    res = gauge_equiv_decide(x, y)
    assert "level-2 residual y − e^a * x ≡ y@w0 + -1*y@w1 (mod m^3)" in res.reason


def test_skew_basis_cli_case(tmp_path, monkeypatch):
    # over K[t]/t³ in the basis a = t, b = t − t², y = e^b * x for
    # b = −a@a − 2·a@b; every basis vector reads as level 1 there
    monkeypatch.chdir(tmp_path)
    assert cli_reports.run(["examples", "--write", "heis", "--out", "heis.json"])[0] == 0
    for name, doc in cli_reports.series_documents().items():
        (tmp_path / f"{name}.json").write_text(canonical_json(doc))
    common = ["--dgla", "heis.json", "--artin", "artin_skew.json"]
    code, out = cli_reports.run(["gauge-equiv", *common, "--x", "x_skew.json",
                                 "--y", "y_skew.json", "--json"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["status"] == "equivalent"
    param = dict(json.loads((tmp_path / "b_skew.json").read_text()),
                 coords=result["witness"])
    (tmp_path / "witness.json").write_text(canonical_json(param))
    code, out = cli_reports.run(["gauge-apply", *common, "--param", "witness.json",
                                 "--element", "x_skew.json", "--json"])
    assert code == 0
    y = json.loads((tmp_path / "y_skew.json").read_text())["coords"]
    assert json.loads(out)["result"]["result"] == y


@st.composite
def skew_cases(draw):
    m = draw(st.integers(3, 5))
    P = [[Fraction(draw(st.integers(-2, 2))) for _ in range(m - 1)] for _ in range(m - 1)]
    assume(la.rank(P) == m - 1)
    A = rebased_truncated(m, P)
    assume(A.adapted_basis[0] is not None)
    T = tensor_dgla(draw(st.sampled_from([lib.heis(), lib.endo_acyclic(), lib.sl2(),
                                          lib.heis0()])), A)
    x = rand_mc(random.Random(draw(st.integers(0, 2 ** 16))), T)
    coeff = st.fractions(min_value=-9, max_value=9, max_denominator=4)
    b = GradedElement(T.space, {(0, i): draw(coeff) for i in range(T.space.dim(0))}, 0)
    return T, x, b


@settings(max_examples=40, deadline=None)
@given(skew_cases())
def test_gauge_orbit_is_equivalent_in_non_adapted_bases(case):
    T, x, b = case
    y = gauge_apply(T, b, x)
    res = gauge_equiv_decide(mc_element(T, x), mc_element(T, y))
    assert isinstance(res, Equivalent)
    assert gauge_apply(T, res.witness, x) == y


# --- Gröbner certificates of NotEquivalent ---------------------------------------


def groebner_is_one(T, x: GradedElement, y: GradedElement) -> bool:
    """Whether e^a * x = y, as polynomials in the coordinates of a ∈ L⁰ ⊗ m,
    has Gröbner basis {1}, i.e. no solution over any field extension."""
    sympy = pytest.importorskip("sympy")

    def q(c: Fraction):
        return sympy.Rational(c.numerator, c.denominator)

    def add(u: dict, v: dict, scale=1) -> dict:
        out = dict(u)
        for k, c in v.items():
            out[k] = out.get(k, 0) + scale * c
        return out

    def bracket(u: dict, v: dict) -> dict:
        out: dict = {}
        for a, cu in u.items():
            for b, cv in v.items():
                stored = T.dgla.brackets.get((a, b) if a <= b else (b, a))
                if stored is not None:
                    c = cu * cv if a <= b or (a[0] * b[0]) % 2 else -(cu * cv)
                    out = add(out, {k: q(v) for k, v in stored.coords.items()}, c)
        return out

    syms = sympy.symbols(f"c0:{T.space.dim(0)}")
    a = {(0, i): s for i, s in enumerate(syms)}
    da: dict = {}
    for key, s in a.items():
        image = T.differential_of(basis_element(T.space, *key))
        da = add(da, {k: q(v) for k, v in image.coords.items()}, s)
    total = {k: q(c) for k, c in x.coords.items()}
    term, n = add(bracket(a, total), da, -1), 0
    while any(sympy.expand(c) != 0 for c in term.values()):
        total = add(total, term, sympy.Rational(1, sympy.factorial(n + 1)))
        term, n = bracket(a, term), n + 1
    eqs = [e for e in (sympy.expand(c) for c in add(total, {k: q(c) for k, c in
                                                              y.coords.items()}, -1).values())
           if e != 0]
    if not syms:
        return bool(eqs)
    return list(sympy.groebner(eqs, *syms, order="grevlex").exprs) == [1]


def test_not_equivalent_has_groebner_basis_one():
    pytest.importorskip("sympy")
    rnd = random.Random(11)
    checked = 0
    for L in lib.EXAMPLE_DGLAS.values():
        for A in (lib.artin_kt(2), lib.artin_kt(3), lib.artin_square_zero(), SKEW, dg_uw()):
            T = tensor_dgla(L(), A)
            if T.nu > 3 or T.space.dim(0) > 6:
                continue
            for _ in range(6):
                x, y = mc_element(T, rand_mc(rnd, T)), mc_element(T, rand_mc(rnd, T))
                if isinstance(gauge_equiv_decide(x, y), NotEquivalent):
                    assert groebner_is_one(T, x.element, y.element)
                    checked += 1
    assert checked >= 50


def test_search_undecided_cases_are_not_equivalent():
    pytest.importorskip("sympy")
    undecided = [(T, x, y, res) for T, x, y, res, old in sweep() if isinstance(old, Undecided)]
    assert len(undecided) == 3
    for T, x, y, res in undecided:
        assert isinstance(res, NotEquivalent)
        assert groebner_is_one(T, x.element, y.element)
