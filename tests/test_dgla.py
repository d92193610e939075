import random
from fractions import Fraction

import pytest

import mutations
from mcdeform import library as lib
from mcdeform import linalg as la
from mcdeform.artin import tensor_dgla
from mcdeform.dgla import (
    CartanHomotopyCandidate,
    ChainMap,
    abelian_dgla,
    adjoin_d,
    cokernel,
    cone_pair,
    cone_single,
    difference_chain_map,
    endomorphism_dgla,
    fiber_product_dgla,
    gamma_quotient_map,
    identity_morphism,
    les_exactness,
    morphism_from_labels,
    swap_iso,
    validate_dgla,
    validate_morphism,
    zero_morphism,
)
from mcdeform.errors import NotInjective, TargetMismatch, WindowTooSmall
from mcdeform.graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    GradedSpace,
    basis_element,
    compute_cohomology,
    element_from_labels,
    induced_cohomology_matrix,
    map_from_basis_images,
)
from mcdeform.maurer_cartan import mc_residual
from util_random import rand_elem

F = Fraction


class TestValidateDgla:
    def test_all_builtins_valid(self):
        for name, fn in lib.EXAMPLE_DGLAS.items():
            assert validate_dgla(fn()) == [], name

    def test_zero_dgla_vacuous(self):
        assert validate_dgla(lib.zero()) == []

    def test_mutation_corpus_flagged_with_witnesses(self):
        for name, L in mutations.corpus():
            report = validate_dgla(L)
            assert report, f"{name} not flagged"
            assert all(v.witness for v in report), name

    def test_single_constant_corruption_flagged(self):
        # corrupt [x, y] to y on "obstructed": the value lands in degree 2
        bad = mutations.with_bracket(lib.obstructed(), "x", "y", {"y": 1})
        axioms = {v.axiom for v in validate_dgla(bad)}
        assert axioms & {"jacobi", "leibniz", "antisymmetry", "bracket_degree"}


class TestValidateMorphism:
    def test_identity_and_zero(self):
        for fn in (lib.heis0, lib.obstructed, lib.endo_acyclic):
            L = fn()
            assert validate_morphism(identity_morphism(L)) == []
            assert validate_morphism(zero_morphism(L, L)) == []

    def test_scaling_violates_bracket_preservation(self):
        L = lib.obstructed()
        phi = morphism_from_labels(L, L, {"x": {"x": 2}, "y": {"y": 2}})
        report = validate_morphism(phi)
        assert any(v.axiom == "bracket_preservation" and v.witness == ("x", "x")
                   for v in report)

    def test_non_chain_map_flagged(self):
        L = lib.acyclic()
        phi = morphism_from_labels(L, L, {"u": {"u": 1}})  # drops v
        assert any(v.axiom == "chain_map" for v in validate_morphism(phi))


def w_complex():
    """K·w in degree 0 with d = 0."""
    s = GradedSpace(0, 0, {0: ("w",)})
    return ChainComplex(s, GradedMap(s, s, 1, {}))


def wz_complex():
    """w' in degree 0, z in degree 1, d = 0."""
    s = GradedSpace(0, 1, {0: ("w'",), 1: ("z",)})
    return ChainComplex(s, GradedMap(s, s, 1, {}))


class TestConeSingle:
    def test_zero_morphism_block_diagonal(self):
        L = lib.acyclic()
        cone = cone_single(zero_morphism(L, L))
        cx = cone.complex
        # C = L ⊕ L[−1]: differential (d, −d) with no cross term
        u = cone.embed("L", basis_element(L.space, 0, 0))
        assert cx.d.apply(u) == cone.embed("L", basis_element(L.space, 1, 0))
        m = cone.embed("M", basis_element(L.space, 0, 0))
        assert cx.d.apply(m) == -cone.embed("M", basis_element(L.space, 1, 0))

    def test_delta_formula_on_l_part(self):
        # δ(l, 0) = (dl, h(l))
        L = lib.acyclic()
        h = identity_morphism(L)
        cone = cone_single(h)
        l = basis_element(L.space, 0, 0)
        got = cone.complex.d.apply(cone.embed("L", l))
        want = cone.embed("L", L.differential_of(l)) + cone.embed("M", h.apply(l))
        assert got == want

    def test_injective_h_cone_vs_cokernel(self):
        # 3-dimensional example with nonzero cohomology on both sides
        Lc = w_complex()
        Mc = wz_complex()
        h = ChainMap(Lc, Mc, map_from_basis_images(
            Lc.space, Mc.space, 0,
            {"w": basis_element(Mc.space, 0, 0)}))
        cone = cone_single(h)
        H_cone = compute_cohomology(cone.complex)
        coker, pi = cokernel(h)
        H_coker = compute_cohomology(coker)
        for i in range(-1, 4):
            assert H_cone.dim(i) == H_coker.dim(i - 1)
        assert H_cone.dim(2) == 1  # the class of z

    def test_d_squared_zero_on_all_builtin_cones(self):
        for name, fn in lib.EXAMPLE_PAIRS.items():
            h, g = fn()
            assert cone_single(h).complex.d_squared_witnesses() == [], name


class TestConePair:
    def test_sources_zero_is_shifted_m(self):
        h, g = lib.pair_sources_zero()
        cone = cone_pair(h, g)
        M = h.target
        H_c = compute_cohomology(cone.complex)
        H_m = compute_cohomology(M.complex)
        for i in range(-1, 4):
            assert H_c.dim(i) == H_m.dim(i - 1)
        # differential is −d on the M part
        m = cone.embed("M", basis_element(M.space, 0, 0))
        assert cone.complex.d.apply(m) == -cone.embed("M", M.differential_of(
            basis_element(M.space, 0, 0)))

    def test_target_zero_is_direct_sum(self):
        h, g = lib.pair_m_zero()
        cone = cone_pair(h, g)
        H_c = compute_cohomology(cone.complex)
        H_l = compute_cohomology(h.source.complex)
        H_n = compute_cohomology(g.source.complex)
        for i in range(-1, 4):
            assert H_c.dim(i) == H_l.dim(i) + H_n.dim(i)

    def test_target_mismatch(self):
        with pytest.raises(TargetMismatch):
            cone_pair(identity_morphism(lib.heis0()), identity_morphism(lib.heis()))

    def test_les_exact_on_all_builtin_pairs(self):
        for name, fn in lib.EXAMPLE_PAIRS.items():
            h, g = fn()
            assert les_exactness(h, g) == [], name

    def test_agrees_with_cone_of_difference(self):
        for name, fn in lib.EXAMPLE_PAIRS.items():
            h, g = fn()
            pair_cone = cone_pair(h, g)
            single = cone_single(difference_chain_map(h, g))
            cs, ss = pair_cone.complex.space, single.complex.space
            for i in cs.degrees():
                assert pair_cone.complex.d.matrix(i) == single.complex.d.matrix(i), (name, i)
                assert cs.dim(i) == ss.dim(i)


class TestGammaQuotient:
    def test_formula_on_basis(self):
        # γ(l, n, m) = (−n, π(m))
        h, g = lib.pair_inj_abelian()
        gamma = gamma_quotient_map(h, g)
        src_cone = cone_pair(h, g)
        n = basis_element(g.source.space, 0, 0)
        img = gamma.apply(src_cone.embed("N", n))
        # the target cone's L-part is N; expect −n there
        tgt_space = gamma.target.space
        lab = tgt_space.label(*next(iter(img.coords)))
        assert lab == "L:u" and next(iter(img.coords.values())) == F(-1)

    def test_not_injective_rejected(self):
        h, g = lib.pair_idid_heis()
        with pytest.raises(NotInjective):
            gamma_quotient_map(zero_morphism(h.source, h.target), g)

    def test_zero_g_collapse(self):
        h, _ = lib.pair_inj_abelian()
        g = zero_morphism(lib.acyclic(), h.target)
        gamma = gamma_quotient_map(h, g)
        assert gamma.commutes_with_d()
        # cohomology bijection in every degree
        H_src = compute_cohomology(gamma.source)
        H_tgt = compute_cohomology(gamma.target)
        for i in gamma.source.space.degrees():
            m = induced_cohomology_matrix(gamma.map, H_src, H_tgt, i)
            assert H_src.dim(i) == H_tgt.dim(i)
            assert la.rank(m) == H_src.dim(i)

    def test_cohomology_bijection_nontrivial(self):
        # h injective non-surjective with nonzero cohomology on both sides
        Lc = abelian_dgla(w_complex())
        Mc = abelian_dgla(wz_complex())
        Nc = abelian_dgla(w_complex())
        h = morphism_from_labels(Lc, Mc, {"w": {"w'": 1}})
        g = morphism_from_labels(Nc, Mc, {"w": {"w'": 1}})
        gamma = gamma_quotient_map(h, g)
        H_src = compute_cohomology(gamma.source)
        H_tgt = compute_cohomology(gamma.target)
        total = 0
        for i in range(-1, 4):
            assert H_src.dim(i) == H_tgt.dim(i)
            m = induced_cohomology_matrix(gamma.map, H_src, H_tgt, i)
            assert la.rank(m) == H_src.dim(i)
            total += H_src.dim(i)
        assert total > 0


class TestSwapIso:
    def test_double_swap_is_identity(self):
        for name, fn in lib.EXAMPLE_PAIRS.items():
            h, g = fn()
            s1 = swap_iso(h, g)
            s2 = swap_iso(g, h)
            comp = s2.map.compose(s1.map)
            for i in s1.source.space.degrees():
                n = s1.source.space.dim(i)
                assert comp.matrix(i) == la.identity(n), name

    def test_single_block_sign(self):
        h, g = lib.pair_idid_obstructed()
        s = swap_iso(h, g)
        src = cone_pair(h, g)
        tgt = cone_pair(g, h)
        l = basis_element(h.source.space, 1, 0)
        assert s.apply(src.embed("L", l)) == -tgt.embed("N", l)

    def test_commutes_with_differential_on_random_elements(self):
        rnd = random.Random(11)
        for name, fn in lib.EXAMPLE_PAIRS.items():
            h, g = fn()
            s = swap_iso(h, g)
            assert s.commutes_with_d(), name
            for i in s.source.space.degrees():
                x = rand_elem(rnd, s.source.space, i)
                assert s.apply(s.source.d.apply(x)) == s.target.d.apply(s.apply(x))


class TestFiberProduct:
    def test_diagonal_for_identity_pair(self):
        h, g = lib.pair_idid_heis()
        fp = fiber_product_dgla(h, g)
        for i in h.source.space.degrees():
            assert fp.dgla.space.dim(i) == h.source.space.dim(i)

    def test_no_constraint_when_target_zero(self):
        h, g = lib.pair_m_zero()
        fp = fiber_product_dgla(h, g)
        for i in fp.product.space.degrees():
            assert fp.dgla.space.dim(i) == fp.product.space.dim(i)

    def test_injective_h_zero_g(self):
        h, _ = lib.pair_inj_abelian()
        N = lib.abelian2()
        g = zero_morphism(N, h.target)
        fp = fiber_product_dgla(h, g)
        # kernel of (l,n) ↦ h(l) is exactly 0 ⊕ N
        for i in fp.dgla.space.degrees():
            assert fp.dgla.space.dim(i) == N.space.dim(i)

    def test_output_validates_for_all_pairs(self):
        for name, fn in lib.EXAMPLE_PAIRS.items():
            h, g = fn()
            fp = fiber_product_dgla(h, g)
            assert validate_dgla(fp.dgla) == [], name

    def test_surjectivity_report(self):
        h, g = lib.pair_inj_abelian()
        fp = fiber_product_dgla(h, g)
        assert fp.all_surjective()
        h2, g2 = lib.pair_sources_zero()
        fp2 = fiber_product_dgla(h2, g2)
        assert not fp2.all_surjective()


class TestCartanHomotopy:
    def test_zero_map_passes(self):
        from mcdeform.graded import zero_map
        L, M = lib.heis(), lib.heis()
        c = CartanHomotopyCandidate(L, M, zero_map(L.space, M.space, -1))
        from mcdeform.dgla import cartan_homotopy_check
        assert cartan_homotopy_check(c) == []

    def test_abelian_source_commuting_images(self):
        from mcdeform.dgla import cartan_homotopy_check
        L, M = lib.abelian2(), lib.heis()
        # x1 ↦ a, y1 ↦ y: images commute in heis ([a, y] = 0)
        imap = map_from_basis_images(L.space, M.space, -1, {
            "x1": basis_element(M.space, 0, 0),
            "y1": element_from_labels(M.space, {"y": 1}),
        })
        assert cartan_homotopy_check(CartanHomotopyCandidate(L, M, imap)) == []

    def test_seeded_violation_names_pair(self):
        from mcdeform.dgla import cartan_homotopy_check
        L, M = lib.abelian2(), lib.heis()
        # x1 ↦ a, y1 ↦ x: [a, x] = y ≠ 0
        imap = map_from_basis_images(L.space, M.space, -1, {
            "x1": basis_element(M.space, 0, 0),
            "y1": element_from_labels(M.space, {"x": 1}),
        })
        report = cartan_homotopy_check(CartanHomotopyCandidate(L, M, imap))
        assert any(v.axiom == "cartan_commuting" and set(v.witness) == {"x1", "y1"}
                   for v in report)

    def test_contracting_homotopy_of_acyclic(self):
        from mcdeform.dgla import cartan_homotopy_check
        L = lib.acyclic()
        imap = map_from_basis_images(L.space, L.space, -1, {
            "v": basis_element(L.space, 0, 0)})
        assert cartan_homotopy_check(CartanHomotopyCandidate(L, L, imap)) == []
        # d'i = d∘i + i∘d is the identity: the homotopy witnesses acyclicity
        di = L.complex.d.compose(imap) + imap.compose(L.complex.d)
        from mcdeform.graded import identity_map
        assert di == identity_map(L.space)


def test_end_of_end_is_a_valid_acyclic_dgla():
    # End(V)'s labels "u>v" hold the separator of End(End(V))'s labels
    EE = endomorphism_dgla(lib.endo_acyclic().complex)
    assert EE.space.total_dim() == 16
    assert validate_dgla(EE) == []
    assert compute_cohomology(EE.complex).total_dim() == 0


class TestAdjoinD:
    def test_delta_squares_to_zero(self):
        Lp, delta = adjoin_d(lib.heis())
        dkey = Lp.space.locate(delta)
        assert Lp.bracket_basis(dkey, dkey).is_zero()

    def test_delta_acts_as_differential(self):
        Lp, delta = adjoin_d(lib.acyclic())
        dkey = Lp.space.locate(delta)
        u = Lp.space.locate("u")
        got = Lp.bracket_basis(dkey, u)
        assert got == element_from_labels(Lp.space, {"v": 1})

    def test_result_validates(self):
        for fn in (lib.heis, lib.acyclic, lib.obstructed, lib.endo_acyclic):
            Lp, _ = adjoin_d(fn())
            assert validate_dgla(Lp) == []

    def test_window_too_small(self):
        with pytest.raises(WindowTooSmall):
            adjoin_d(lib.heis0())  # window [0, 0] does not admit degree 1

    def test_mc_iff_square_zero_in_extension(self):
        rnd = random.Random(5)
        T = tensor_dgla(lib.heis(), lib.artin_kt(3))
        Lp, delta = adjoin_d(T.dgla)
        dkey = Lp.space.locate(delta)

        def lift(x):
            return GradedElement(Lp.space, {
                Lp.space.locate(T.space.label(d, i)): c
                for (d, i), c in x.coords.items()})

        for _ in range(20):
            x = rand_elem(rnd, T, 1)
            hat = lift(x) + basis_element(Lp.space, *dkey)
            square = Lp.bracket(hat, hat)
            # [x+δ, x+δ]' = 2(dx + ½[x,x]), so MC ⟺ square zero
            assert square == 2 * lift(mc_residual(T, x))
            assert square.is_zero() == mc_residual(T, x).is_zero()
