"""Oracles for the per-level gauge-equivalence decision.

`gauge_equiv_decide` must agree with the old kernel-ball search
(`search_equiv.py`) wherever the search decides, with the exact criterion
x − y ∈ d(L⁰ ⊗ m) for abelian L, and with a Gröbner basis computation on small
cases; e^b * x is always Equivalent, also in coefficient bases that are not
adapted to the power filtration.  The columns of d_x it eliminates equal
d e_i + [x, e_i] by the references (tests/reference_kernels.py).
"""

import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

import cli_reports
import mutations
import reference_kernels as ref
from mcdeform import library as lib
from mcdeform import linalg as la
from mcdeform.artin import (
    CoefficientAlgebra,
    artin_from_labels,
    epsilon_algebra,
    omega_complex,
    tensor_dgla,
    truncated_polynomial_algebra,
)
from mcdeform.dgla import Dgla, _to_ints, endomorphism_dgla
from mcdeform.documents import canonical_json
from mcdeform.errors import DegreeWindowViolation
from mcdeform.graded import ChainComplex, GradedElement, GradedMap, GradedSpace, basis_element
from mcdeform.maurer_cartan import (
    Equivalent,
    NotEquivalent,
    Undecided,
    _dx_rows,
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
    assert P == {0: {0: 1, 1: -1}, 1: {0: 1}} and levels == (2, 1)
    assert {j: la.apply_columns(P, col) for j, col in Q.items()} == {0: {0: 1}, 1: {1: 1}}


# --- the columns of d_x --------------------------------------------------------


def assert_dx_columns(T, x: GradedElement) -> dict:
    """The rows _dx_rows gives for x, read as columns, in the basis of m_A as
    it is and in the adapted basis when that differs, against d e_i + [x, e_i]
    with d applied densely and the bracket summed over Fractions from the
    tensor's brackets of all pairs of keys (not the kernel's); returns the
    columns in the basis as it is."""
    derived = Dgla(T.complex, ref.tensor_brackets(T))

    def d_x(e: GradedElement) -> GradedElement:
        return ref.map_apply(T.d, e) + ref.bracket(derived, x, e)

    P, Q, _levels = T.coeff.adapted_basis
    bases = [(None, None, lambda e: e, lambda e: e)]
    if P is not None:
        dP, dQ = (ref.dense(m, T.coeff.dim, T.coeff.dim) for m in (P, Q))
        bases.append((la.int_columns(P), la.int_columns(Q),
                      lambda e: ref.map_coefficients(T, e, dP, T),
                      lambda e: ref.map_coefficients(T, e, dQ, T)))
    for ip, iq, p, q in bases:
        den, rows = _dx_rows(T, _to_ints(x), ip, iq)
        cols: dict = {}
        for r, row in rows.items():
            assert list(row) == sorted(row) and all(row.values())
            for e, n in row.items():
                cols.setdefault(e, {})[r] = Fraction(n, den)
        for i in range(T.space.dim(0)):
            assert cols.get((0, i), {}) == q(d_x(p(basis_element(T.space, 0, i)))).coords, i
        if ip is None:
            plain = cols
    return plain


def scaled_by_3_7(L: Dgla) -> Dgla:
    return Dgla(L.complex, {pair: Fraction(3, 7) * val for pair, val in L.brackets.items()})


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["heis", "endo_acyclic", "sl2", "heis0", "obstructed", "end_v"]),
       st.integers(2, 6), st.booleans(), st.integers(0, 2 ** 16))
def test_dx_columns_of_mc_elements(name, n, scale, seed):
    # Maurer-Cartan elements over K[t]/t^n, tables as they are and times 3/7
    L = end_v() if name == "end_v" else lib.EXAMPLE_DGLAS[name]()
    T = tensor_dgla(scaled_by_3_7(L) if scale else L, truncated_polynomial_algebra(n))
    assert_dx_columns(T, mc_element(T, rand_mc(random.Random(seed), T)).element)


@pytest.mark.parametrize("coeff", ["eps1", "omega1", "dg_uw", "skew"])
@settings(max_examples=10, deadline=None)
@given(name=st.sampled_from(sorted(lib.EXAMPLE_DGLAS)), scale=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_dx_columns_over_graded_and_skew_algebras(coeff, name, scale, seed):
    # degree-1 elements over the graded coefficient algebras, where the
    # degree-0 keys mix the degrees of L, and over K[t]/t³ in a basis not
    # adapted to its filtration (the rebased columns Q d_x P)
    A = {"eps1": lambda: epsilon_algebra(1), "omega1": lambda: omega_complex(1),
         "dg_uw": dg_uw, "skew": lambda: SKEW}[coeff]()
    L = lib.EXAMPLE_DGLAS[name]()
    T = tensor_dgla(scaled_by_3_7(L) if scale else L, A)
    assert_dx_columns(T, rand_elem(random.Random(seed), T, 1))


def test_dx_columns_read_a_diagonal_as_the_kernel_does():
    # the corpus table of heis0 with [z, z] = p, antisymmetry broken, over an
    # algebra p (degree 1), q (degree 0) with p·q = pq: x = z⊗p brackets the
    # degree-0 key z⊗q through the diagonal stored pair [z, z], read as Dgla
    # reads a reversed pair, −[z⊗q, z⊗p] = −p⊗pq, where the Koszul rule on
    # [z, z] would give +p⊗pq
    L = dict(mutations.corpus())["heis0 [z,z]=p"]
    A = CoefficientAlgebra(("p", "q", "pq"), {(0, 1): {2: Fraction(1)}}, degrees=(1, 0, 1))
    T = tensor_dgla(L, A)
    x = T.element_from_labels({"z@p": 1, "p@p": 2, "q@pq": -1}, 1)
    cols = assert_dx_columns(T, x)
    assert cols[T.space.locate("z@q")] == {T.space.locate("p@pq"): -1}


def test_a_basis_that_moves_coefficient_degrees_is_refused():
    # u·u = w + z breaks the degrees (u and z odd, w even), so the adapted
    # basis mixes them: refused as a rebased element of the wrong degree
    A = CoefficientAlgebra(("u", "w", "z"), {(0, 0): {1: Fraction(1), 2: Fraction(1)}},
                           degrees=(1, 0, 1))
    T = tensor_dgla(lib.heis(), A)
    x = mc_element(T, T.element_from_labels({}, 1))
    with pytest.raises(DegreeWindowViolation, match="at degree 1 in element declared degree 0"):
        gauge_equiv_decide(x, x)


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
            d0, d1 = T.complex.d.matrix(0), T.complex.d.matrix(1)
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
                stored = T.brackets.get((a, b) if a <= b else (b, a))
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
