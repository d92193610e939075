"""Acceptance criteria, one test per criterion.

Each test prints `ACCEPTANCE <name>: PASS (<seconds>)` on success and
enforces the criterion's runtime budget; every assertion is exact (the
library has no inexact arithmetic anywhere).
"""

import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import mutations
from mcdeform import library as lib
from mcdeform import linalg as la
from mcdeform.artin import small_extension_tower, tensor_dgla
from mcdeform.dgla import (
    cone_pair,
    cone_single,
    difference_chain_map,
    gamma_quotient_map,
    les_exactness,
    swap_iso,
    validate_dgla,
)
from mcdeform.errors import NotInjective
from mcdeform.graded import (
    GradedElement,
    compute_cohomology,
    induced_cohomology_matrix,
)
from mcdeform.maurer_cartan import (
    NO_LIFT,
    bch_product,
    gauge_apply,
    lift_if_unobstructed,
    lift_pair_if_unobstructed,
    mc_element,
    mc_residual,
    obstruction_pair,
    obstruction_single,
    pair_setting,
    tangent_dim_pair,
    tangent_dim_single,
)
from mcdeform.path_object import (
    TruncationWindow,
    evaluate,
    poly_bracket,
    poly_d,
    truncated_H_cohomology,
    truncated_line_complex,
)
from test_path_object import rand_poly
from util_random import rand_elem, rand_mc, rand_triple

F = Fraction
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class Criterion:
    def __init__(self, name: str, budget_seconds: float):
        self.name = name
        self.budget = budget_seconds
        self.start = time.monotonic()

    def done(self):
        elapsed = time.monotonic() - self.start
        status = "PASS" if elapsed < self.budget else "FAIL (over budget)"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f}s < {self.budget:g}s)")
        assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s"


def test_axiom_suite():
    c = Criterion("axiom-suite", 5.0)
    builtins = list(lib.EXAMPLE_DGLAS.items())
    assert len(builtins) >= 6
    for name, fn in builtins:
        assert validate_dgla(fn()) == [], name
    corpus = mutations.corpus()
    assert len(corpus) >= 20
    for name, L in corpus:
        report = validate_dgla(L)
        assert report, f"mutation not flagged: {name}"
        assert all(v.witness for v in report), name
    c.done()


def test_gauge_laws():
    c = Criterion("gauge-laws", 30.0)
    rnd = random.Random(2024)
    cases = 0
    fixed_branch = moved_branch = 0
    for L, orders in ((lib.heis(), (3, 4, 5)), (lib.heis0(), (3, 5))):
        for n in orders:
            T = tensor_dgla(L, lib.artin_kt(n))
            per_base = 60 if L is lib.heis() else 15
            for i in range(per_base):
                a = rand_elem(rnd, T, 0)
                b = rand_elem(rnd, T, 0)
                x = rand_mc(rnd, T)
                # MC preservation
                assert mc_residual(T, gauge_apply(T, a, x)).is_zero()
                # composition law e^a e^b = e^{a•b}
                assert gauge_apply(T, a, gauge_apply(T, b, x)) == \
                    gauge_apply(T, bch_product(T, a, b), x)
                # fixed-point biconditional, both directions
                if i % 2 == 0 and T.space.dim(0):
                    n0 = T.space.dim(0)
                    cols = []
                    for j in range(n0):
                        a_j = GradedElement(T.space, {(0, j): F(1)}, 0)
                        diff = T.bracket(a_j, x) - T.differential_of(a_j)
                        cols.append([diff.coords.get((1, r), F(0))
                                     for r in range(T.space.dim(1))])
                    mat = [[cols[j][r] for j in range(n0)]
                           for r in range(T.space.dim(1))]
                    kernel = la.nullspace(mat, cols=n0)
                    if kernel:
                        coeff = [F(rnd.randint(-2, 2)) for _ in kernel]
                        a = GradedElement(T.space, {
                            (0, j): sum((cc * v[j] for cc, v in zip(coeff, kernel)), F(0))
                            for j in range(n0)}, 0)
                fixes = gauge_apply(T, a, x) == x
                assert fixes == (T.bracket(a, x) == T.differential_of(a))
                fixed_branch += fixes
                moved_branch += not fixes
                cases += 1
    assert cases >= 200
    assert fixed_branch and moved_branch
    c.done()


def test_bch_class3_closed_form():
    # the free 2-generator Lie algebra of class 3 has no brackets of length 4,
    # so a•b = a + b + ½[a,b] + 1/12 [a,[a,b]] − 1/12 [b,[a,b]] exactly
    T = tensor_dgla(lib.free_nilpotent_class3(), lib.artin_kt(7))
    rnd = random.Random(7)
    a, b = rand_elem(rnd, T, 0), rand_elem(rnd, T, 0)
    ab = T.bracket(a, b)
    closed = a + b + F(1, 2) * ab + F(1, 12) * (T.bracket(a, ab) - T.bracket(b, ab))
    c = Criterion("bch-class3-t7", 0.2)
    assert bch_product(T, a, b) == closed
    c.done()


def test_obstruction_completeness_single():
    c = Criterion("obstruction-single", 5.0)
    tower = small_extension_tower(3)
    ext = tower[1]  # K[t]/t³ → K[t]/t²
    T = tensor_dgla(lib.obstructed(), ext.A)
    x = mc_element(T, T.element_from_labels({"x@t": 1}, 1))
    cls = obstruction_single(ext, x)
    assert not cls.is_zero()
    assert cls.label_map() == {"y@t^2": F(1)}
    assert lift_if_unobstructed(ext, x, cls) is NO_LIFT
    # independent exhaustive linear solve: no q with dq = cocycle exists
    TB = tensor_dgla(lib.obstructed(), ext.B)
    dmat = TB.dgla.complex.d.matrix(1)
    rhs = cls.cocycle.component_vector(2)
    assert la.solve(dmat, rhs, cols=TB.space.dim(1)) is None
    # abelian examples: every class vanishes along the whole tower
    rnd = random.Random(77)
    for L in (lib.acyclic(), lib.abelian2()):
        for step in tower:
            TA = tensor_dgla(L, step.A)
            for _ in range(4):
                xe = mc_element(TA, rand_mc(rnd, TA))
                kl = obstruction_single(step, xe)
                assert kl.is_zero()
                assert lift_if_unobstructed(step, xe, kl) is not NO_LIFT
    c.done()


def test_obstruction_completeness_pair():
    c = Criterion("obstruction-pair", 30.0)
    rnd = random.Random(88)
    tower = small_extension_tower(3)
    pairs_used = 0
    for name, fn in lib.EXAMPLE_PAIRS.items():
        pairs_used += 1
        for step in (tower[1], tower[2]):
            s = pair_setting(*fn(), step.A)
            sB = pair_setting(*fn(), step.B)
            cone = cone_pair(*fn())
            H = compute_cohomology(cone.complex)
            for _ in range(2):
                t = rand_triple(rnd, name, s)
                cls = obstruction_pair(step, t, setting_B=sB, cone=cone, cohomology=H)
                # cocycle is a D-cycle: recheck explicitly on the J components
                l, k, r = cls.cocycle
                h, g = s.h, s.g
                from mcdeform.maurer_cartan import _j_components
                for lj, kj, rj in zip(_j_components(sB.tL, step, l),
                                      _j_components(sB.tN, step, k),
                                      _j_components(sB.tM, step, r)):
                    assert h.source.differential_of(lj).is_zero()
                    assert g.source.differential_of(kj).is_zero()
                    assert (-h.target.differential_of(rj) - g.apply(kj)
                            + h.apply(lj)).is_zero()
                # two lifting sections agree
                alt = [row[:] for row in step.section]
                for i in range(step.B.dim):
                    alt[i] = [v + step.kernel[0][i] * F(1) * a for v, a in
                              zip(alt[i], [1] * step.A.dim)]
                cls_alt = obstruction_pair(step, t, section=alt, setting_B=sB,
                                           cone=cone, cohomology=H)
                assert cls.coords == cls_alt.coords
                # completeness: class = 0 ⟺ constructive lift succeeds
                got = lift_pair_if_unobstructed(step, t, cls, setting_B=sB)
                if cls.is_zero():
                    assert got is not NO_LIFT and got.verified, name
                else:
                    assert got is NO_LIFT, name
    assert pairs_used >= 3
    c.done()


def test_cone_structure():
    c = Criterion("cone-structure", 10.0)
    for name, fn in lib.EXAMPLE_PAIRS.items():
        h, g = fn()
        # D² = 0 on every constructed cone
        assert cone_pair(h, g).complex.d_squared_witnesses() == []
        assert cone_single(h).complex.d_squared_witnesses() == []
        assert cone_single(g).complex.d_squared_witnesses() == []
        assert cone_single(difference_chain_map(h, g)).complex.d_squared_witnesses() == []
        # long exact sequence exactness by rank identities
        assert les_exactness(h, g) == [], name
        # swap squares to the identity
        s1, s2 = swap_iso(h, g), swap_iso(g, h)
        comp = s2.map.compose(s1.map)
        for i in s1.source.space.degrees():
            assert comp.matrix(i) == la.identity(s1.source.space.dim(i))
        # γ induces cohomology bijections whenever h is injective
        try:
            gamma = gamma_quotient_map(h, g)
        except NotInjective:
            continue
        H_src = compute_cohomology(gamma.source)
        H_tgt = compute_cohomology(gamma.target)
        for i in gamma.source.space.degrees():
            assert H_src.dim(i) == H_tgt.dim(i), name
            m = induced_cohomology_matrix(gamma.map, H_src, H_tgt, i)
            assert la.rank(m) == H_src.dim(i), name
    c.done()


def test_tangent_identities():
    c = Criterion("tangent-identities", 30.0)
    # tangent_dim_* raise if the two computations disagree
    for name, fn in lib.EXAMPLE_DGLAS.items():
        for n in (-1, 0, 1):
            assert tangent_dim_single(fn(), n) >= 0
    for name, fn in lib.EXAMPLE_PAIRS.items():
        for n in (-1, 0, 1):
            assert tangent_dim_pair(*fn(), n) >= 0
    c.done()


def test_path_object():
    c = Criterion("path-object", 60.0)
    rnd = random.Random(99)
    # evaluation morphism properties on ≥200 random polynomial elements
    checked = 0
    for M in (lib.endo_acyclic(), lib.heis(), lib.sl2()):
        for _ in range(35):
            degs = [d for d in M.space.degrees()]
            x = rand_poly(rnd, M, rnd.choice(degs), 4)
            y = rand_poly(rnd, M, rnd.choice(degs), 4)
            for a in (F(0), F(1, 2), F(1), F(2)):
                assert evaluate(a, poly_d(x)) == M.differential_of(evaluate(a, x))
                assert evaluate(a, poly_bracket(x, y)) == M.bracket(
                    evaluate(a, x), evaluate(a, y))
            checked += 2
    assert checked >= 200
    # truncated K[t,dt]-factor acyclicity
    for N in (1, 2, 3):
        H = compute_cohomology(truncated_line_complex(N))
        assert H.dim(0) == 1 and H.dim(1) == 0
    # truncated-H cohomology equals the pair cone's, stable from N=2 to N=3
    for name, fn in lib.EXAMPLE_PAIRS.items():
        h, g = fn()
        Hc = compute_cohomology(cone_pair(h, g).complex)
        dims = {}
        for N in (2, 3):
            Ht = truncated_H_cohomology(h, g, TruncationWindow(N))
            lo = min(Hc.complex.space.dmin, Ht.complex.space.dmin) - 1
            hi = max(Hc.complex.space.dmax, Ht.complex.space.dmax) + 1
            dims[N] = {i: Ht.dim(i) for i in range(lo, hi + 1)}
            for i in range(lo, hi + 1):
                assert Ht.dim(i) == Hc.dim(i), (name, N, i)
        assert dims[2] == dims[3], name
    c.done()


def test_cli_criterion(tmp_path):
    c = Criterion("cli", 30.0)
    # golden files round-trip byte-identically
    from mcdeform.documents import canonical_json, load_raw, parse_document
    for name in ("obstructed", "xt_obstructed", "artin_kt2", "pair_idid_obstructed",
                 "triple_idid_obstructed", "hpair_heis"):
        path = os.path.join(GOLDEN, f"{name}.json")
        text = open(path).read()
        assert canonical_json(load_raw(path)) == text, name
        parse_document(text)
    # the documented obstruction invocation reproduces the [y]⊗t² report
    from mcdeform.cli import main

    def run(args):
        out = io.StringIO()
        old = sys.stdout
        sys.stdout = out
        try:
            code = main(args)
        finally:
            sys.stdout = old
        return code, out.getvalue()

    dgla_doc = os.path.join(GOLDEN, "obstructed.json")
    elem_doc = os.path.join(GOLDEN, "xt_obstructed.json")
    argv = ["obstruction", "--dgla", dgla_doc, "--tower", "3",
            "--element", elem_doc, "--json"]
    code, out1 = run(argv)
    assert code == 0
    report = json.loads(out1)
    assert report["result"]["nonzero"] is True
    assert report["result"]["class"] == {"y@t^2": "1"}
    # deterministic JSON output across two runs (in-process and subprocess)
    _code, out2 = run(argv)
    assert out1 == out2
    cmd = [sys.executable, "-m", "mcdeform.cli"] + argv
    r1 = subprocess.run(cmd, capture_output=True, text=True)
    r2 = subprocess.run(cmd, capture_output=True, text=True)
    assert r1.returncode == 0 and r1.stdout == r2.stdout == out1
    c.done()
