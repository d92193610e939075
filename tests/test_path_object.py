import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mcdeform import library as lib
from mcdeform.dgla import cone_pair
from mcdeform.errors import NotVerifiedMC, WindowTooSmall
from mcdeform.graded import basis_element, compute_cohomology, zero_element
from mcdeform.maurer_cartan import gauge_apply, mc_triple, pair_setting
from mcdeform.path_object import (
    HPairElement,
    PolyElement,
    TruncationWindow,
    barycentric_embed,
    evaluate,
    h_pair_element,
    map_triple_to_K,
    membership_H,
    membership_K,
    poly_bracket,
    poly_constant,
    poly_d,
    poly_dt_term,
    poly_t_term,
    truncated_H_cohomology,
    truncated_line_complex,
    truncated_path_complex,
    substitute_affine,
)
from util_random import rand_elem, rand_mc, rand_triple

F = Fraction


def rand_poly(rnd: random.Random, M, degree: int, max_exp: int = 4) -> PolyElement:
    t_part = {}
    dt_part = {}
    for e in range(max_exp + 1):
        c = rand_elem(rnd, M, degree)
        if not c.is_zero() and rnd.random() < 0.7:
            t_part[e] = c
    for e in range(max_exp):
        c = rand_elem(rnd, M, degree - 1)
        if not c.is_zero() and rnd.random() < 0.7:
            dt_part[e] = c
    return PolyElement(M, degree, t_part, dt_part)


class TestPolyArithmetic:
    def test_d_of_constant(self):
        M = lib.endo_acyclic()
        m = basis_element(M.space, 0, 0)
        got = poly_d(poly_constant(M, m))
        assert got == poly_constant(M, M.differential_of(m))

    def test_d_of_t_term_even(self):
        M = lib.endo_acyclic()
        m = basis_element(M.space, 0, 0)  # even degree
        got = poly_d(poly_t_term(M, 1, m))
        want = poly_t_term(M, 1, M.differential_of(m)) + poly_dt_term(M, 0, m)
        assert got == want

    def test_d_of_t_term_odd(self):
        M = lib.endo_acyclic()
        m = basis_element(M.space, 1, 0)  # odd degree
        got = poly_d(poly_t_term(M, 1, m))
        # dm = 0 at the top; the sign (−1)^{deg m} = −1 lands on the dt part
        assert got == (-1) * poly_dt_term(M, 0, m)

    def test_d_squared_zero_random(self):
        rnd = random.Random(1)
        M = lib.endo_acyclic()
        for deg in (-1, 0, 1):
            for _ in range(6):
                x = rand_poly(rnd, M, deg)
                assert poly_d(poly_d(x)).is_zero()

    def test_bracket_constant_with_dt(self):
        M = lib.heis()
        a = basis_element(M.space, 0, 0)
        x = basis_element(M.space, 1, 0)
        got = poly_bracket(poly_constant(M, a), poly_dt_term(M, 0, x))
        assert got == poly_dt_term(M, 0, M.bracket(a, x))

    def test_bracket_t_terms_add_exponents(self):
        M = lib.heis()
        a = basis_element(M.space, 0, 0)
        x = basis_element(M.space, 1, 0)
        got = poly_bracket(poly_t_term(M, 1, a), poly_t_term(M, 1, x))
        assert got == poly_t_term(M, 2, M.bracket(a, x))

    def test_dt_dt_vanishes(self):
        M = lib.heis()
        a = basis_element(M.space, 0, 0)
        x = basis_element(M.space, 1, 0)
        got = poly_bracket(poly_dt_term(M, 1, a), poly_dt_term(M, 2, x))
        assert got.is_zero()

    def test_graded_antisymmetry_and_leibniz_random(self):
        rnd = random.Random(3)
        M = lib.endo_acyclic()
        for _ in range(12):
            dx = rnd.choice((-1, 0, 1))
            dy = rnd.choice((-1, 0, 1))
            x = rand_poly(rnd, M, dx, 3)
            y = rand_poly(rnd, M, dy, 3)
            sign = F(-1) if (x.degree * y.degree) % 2 else F(1)
            assert poly_bracket(x, y) == (-sign) * poly_bracket(y, x)
            lhs = poly_d(poly_bracket(x, y))
            s2 = F(-1) if x.degree % 2 else F(1)
            rhs = poly_bracket(poly_d(x), y) + s2 * poly_bracket(x, poly_d(y))
            assert lhs == rhs


class TestEvaluate:
    def test_endpoints(self):
        M = lib.heis()
        m = basis_element(M.space, 1, 0)
        n = basis_element(M.space, 0, 0)
        x = poly_t_term(M, 1, m) + poly_dt_term(M, 0, n)
        assert evaluate(0, x).is_zero()
        assert evaluate(1, x) == m

    def test_left_inverse_of_inclusion(self):
        rnd = random.Random(5)
        M = lib.endo_acyclic()
        for a in (0, F(1, 2), 1, 2):
            m = rand_elem(rnd, M, 0)
            assert evaluate(a, poly_constant(M, m)) == m

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_morphism_properties_random(self, seed):
        rnd = random.Random(seed)
        M = lib.endo_acyclic()
        dx = rnd.choice((-1, 0, 1))
        dy = rnd.choice((-1, 0, 1))
        x = rand_poly(rnd, M, dx, 3)
        y = rand_poly(rnd, M, dy, 3)
        for a in (F(0), F(1, 2), F(1), F(2)):
            assert evaluate(a, poly_d(x)) == M.differential_of(evaluate(a, x))
            assert evaluate(a, poly_bracket(x, y)) == M.bracket(
                evaluate(a, x), evaluate(a, y))


class TestSubstitution:
    def test_chain_map_property(self):
        rnd = random.Random(7)
        M = lib.endo_acyclic()
        for c0, c1 in ((F(0), F(1, 2)), (F(1, 2), F(1, 2)), (F(1), F(-1))):
            for _ in range(6):
                x = rand_poly(rnd, M, rnd.choice((-1, 0, 1)), 3)
                assert poly_d(substitute_affine(x, c0, c1)) == \
                    substitute_affine(poly_d(x), c0, c1)

    def test_evaluation_after_substitution(self):
        rnd = random.Random(9)
        M = lib.heis()
        x = rand_poly(rnd, M, 1, 4)
        # e_a(x(c0 + c1 t)) = e_{c0 + c1 a}(x)
        for a in (F(0), F(1), F(1, 3)):
            got = evaluate(a, substitute_affine(x, F(1, 2), F(1, 2)))
            want = evaluate(F(1, 2) + F(1, 2) * a, x)
            assert got == want


class TestMembershipAndBarycentric:
    def test_t_minus_t_squared_element(self):
        h, g = lib.pair_idid_heis()
        L = lib.heis()
        m0 = basis_element(L.space, 1, 0)
        m = poly_t_term(L, 1, m0) + poly_t_term(L, 2, -m0)
        he = h_pair_element(h, g, zero_element(L.space, 1), zero_element(L.space, 1), m)
        assert he.verified

    def test_constant_element(self):
        h, g = lib.pair_idid_heis()
        L = lib.heis()
        l = basis_element(L.space, 1, 0)
        he = h_pair_element(h, g, l, l, poly_constant(L, l))
        assert he.verified

    def test_violation_names_equation(self):
        h, g = lib.pair_idid_heis()
        L = lib.heis()
        l = basis_element(L.space, 1, 0)
        cand = HPairElement(h, g, l, zero_element(L.space, 1), poly_constant(L, l))
        report = membership_H(h, g, cand)
        assert [v.axiom for v in report] == ["g_e0"]
        with pytest.raises(NotVerifiedMC):
            h_pair_element(h, g, l, zero_element(L.space, 1), poly_constant(L, l))

    def test_barycentric_constant(self):
        h, g = lib.pair_idid_heis()
        L = lib.heis()
        l = basis_element(L.space, 1, 0)
        he = h_pair_element(h, g, l, l, poly_constant(L, l))
        k = barycentric_embed(he)
        assert k.verified
        assert k.m1 == poly_constant(L, l) and k.m2 == poly_constant(L, l)

    def test_barycentric_linear(self):
        h, g = lib.pair_idid_heis()
        L = lib.heis()
        m0 = basis_element(L.space, 1, 0)
        m = poly_t_term(L, 1, m0)
        he = HPairElement(h, g, zero_element(L.space, 1), m0, m, True)
        # g(n) = e₀(m) fails for this cand; build a legal one instead:
        he = h_pair_element(h, g, m0, zero_element(L.space, 1), m)
        k = barycentric_embed(he)
        assert k.m1 == poly_t_term(L, 1, Fraction(1, 2) * m0)
        assert evaluate(1, k.m1) == Fraction(1, 2) * m0
        assert evaluate(0, k.m2) == Fraction(1, 2) * m0

    def test_barycentric_random_property(self):
        rnd = random.Random(11)
        h, g = lib.pair_idid_endo()
        L = lib.endo_acyclic()
        for _ in range(10):
            m = rand_poly(rnd, L, 1, 4)
            l = evaluate(1, m)
            n = evaluate(0, m)
            he = h_pair_element(h, g, l, n, m)
            k = barycentric_embed(he)
            assert k.verified
            assert membership_K(h, g, k) == []
            assert evaluate(1, k.m1) == evaluate(0, k.m2)

    def test_unverified_rejected(self):
        h, g = lib.pair_idid_heis()
        L = lib.heis()
        cand = HPairElement(h, g, zero_element(L.space, 1), zero_element(L.space, 1),
                            poly_constant(L, basis_element(L.space, 1, 0)))
        with pytest.raises(NotVerifiedMC):
            barycentric_embed(cand)


class TestTruncatedComplexes:
    @pytest.mark.parametrize("N", (1, 2, 3))
    def test_line_acyclic(self, N):
        H = compute_cohomology(truncated_line_complex(N))
        assert H.dim(0) == 1 and H.dim(1) == 0

    def test_window_validation(self):
        with pytest.raises(WindowTooSmall):
            TruncationWindow(0)

    @pytest.mark.parametrize("N", (1, 2, 3))
    def test_path_complex_cohomology_matches_factor(self, N):
        for L in (lib.heis(), lib.endo_acyclic(), lib.obstructed()):
            H = compute_cohomology(truncated_path_complex(L, N))
            H_m = compute_cohomology(L.complex)
            for i in range(L.space.dmin - 1, L.space.dmax + 2):
                assert H.dim(i) == H_m.dim(i)

    def test_truncated_H_target_zero(self):
        h, g = lib.pair_m_zero()
        H = truncated_H_cohomology(h, g, TruncationWindow(2))
        H_l = compute_cohomology(h.source.complex)
        H_n = compute_cohomology(g.source.complex)
        for i in range(-1, 4):
            assert H.dim(i) == H_l.dim(i) + H_n.dim(i)

    def test_truncated_H_acyclic_identity_pair(self):
        L = lib.acyclic()
        from mcdeform.dgla import identity_morphism
        h = identity_morphism(L)
        for N in (1, 2, 3):
            H = truncated_H_cohomology(h, h, TruncationWindow(N))
            for i in range(-1, 4):
                assert H.dim(i) == 0

    @pytest.mark.parametrize("N", (2, 3))
    def test_truncated_H_matches_cone(self, N):
        for name, fn in lib.EXAMPLE_PAIRS.items():
            h, g = fn()
            cone = cone_pair(h, g)
            Hc = compute_cohomology(cone.complex)
            Ht = truncated_H_cohomology(h, g, TruncationWindow(N))
            lo = min(cone.complex.space.dmin, Ht.complex.space.dmin) - 1
            hi = max(cone.complex.space.dmax, Ht.complex.space.dmax) + 1
            for i in range(lo, hi + 1):
                assert Ht.dim(i) == Hc.dim(i), (name, N, i)


class TestTripleToK:
    def test_zero_triple(self):
        h, g = lib.pair_idid_heis()
        s = pair_setting(h, g, lib.artin_kt(3))
        t = mc_triple(s, zero_element(s.tL.space, 1), zero_element(s.tN.space, 1),
                      zero_element(s.tM.space, 0))
        K = map_triple_to_K(t)
        assert K.verified
        assert K.m1.is_zero() and K.m2.is_zero()

    def test_identity_pair_diagonal(self):
        rnd = random.Random(13)
        h, g = lib.pair_idid_heis()
        s = pair_setting(h, g, lib.artin_kt(3))
        x = rand_mc(rnd, s.tL)
        t = mc_triple(s, x, x, zero_element(s.tM.space, 0))
        K = map_triple_to_K(t)
        assert K.verified
        assert evaluate(1, K.m2) == x and evaluate(0, K.m1) == x

    def test_random_triples_pass_pipeline(self):
        rnd = random.Random(15)
        for name in ("pair_idid_heis", "pair_idid_endo", "pair_inj_abelian"):
            s = pair_setting(*lib.EXAMPLE_PAIRS[name](), lib.artin_kt(3))
            for _ in range(5):
                t = rand_triple(rnd, name, s)
                K = map_triple_to_K(t)
                assert K.verified
                # the linking equation in the (e₁, e₀) setting
                assert gauge_apply(s.tM, K.p, evaluate(1, K.m2)) == evaluate(0, K.m1)
