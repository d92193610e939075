import random
from fractions import Fraction

import pytest

import reference_kernels as ref
from mcdeform import artin
from mcdeform import library as lib
from mcdeform import linalg as la
from mcdeform.artin import (
    CoefficientAlgebra,
    artin_from_labels,
    epsilon_algebra,
    omega_complex,
    quotient_extension,
    small_extension,
    small_extension_tower,
    square_zero_algebra,
    tensor_dgla,
    tensor_map,
    truncated_polynomial_algebra,
    validate_artin,
)
from mcdeform.dgla import validate_dgla
from mcdeform.errors import InvalidInput
from mcdeform.graded import ChainComplex, GradedSpace, compute_cohomology
from util_random import dg_uw, rand_elem

F = Fraction


class TestValidateArtin:
    def test_truncated_polynomial(self):
        A = truncated_polynomial_algebra(3)
        assert validate_artin(A) == []
        assert A.nu == 3
        assert A.levels == (1, 2)

    def test_square_zero(self):
        A = square_zero_algebra(("x", "y"))
        assert validate_artin(A) == []
        assert A.nu == 2

    def test_corrupted_table_not_nilpotent(self):
        # t·t = t², t·t² = t: the iterated-product search halts on a loop
        A = artin_from_labels(("t", "t^2"), {
            ("t", "t"): {"t^2": 1},
            ("t", "t^2"): {"t": 1},
        })
        report = validate_artin(A)
        assert any(v.axiom == "nilpotency" for v in report)
        assert A.nu is None

    def test_nonassociative_flagged(self):
        # a·a = b, a·b = c, b·a = c is forced by commutativity; break (a·a)·a ≠ a·(a·a)
        A = artin_from_labels(("a", "b", "c"), {
            ("a", "a"): {"b": 1},
            ("a", "b"): {"c": 2},
            ("b", "b"): {},
            ("a", "c"): {},
        })
        # (a·a)·a = b·a = 2c and a·(a·a) = a·b = 2c: associative; now corrupt
        bad = artin_from_labels(("a", "b", "c"), {
            ("a", "a"): {"b": 1},
            ("a", "b"): {"c": 2},
            ("b", "a"): {"c": 2},
        })
        assert validate_artin(A) == []
        assert validate_artin(bad) == []  # consistent duplicates are fine
        with pytest.raises(InvalidInput):
            artin_from_labels(("a", "b"), {
                ("a", "b"): {"b": 1},
                ("b", "a"): {"a": 1},
            })

    def test_poly2_levels(self):
        A = lib.artin_poly2()
        assert validate_artin(A) == []
        assert A.nu == 3
        assert A.levels == (1, 1, 2, 2, 2)

    def test_dg_algebra_product_degree_violation(self):
        A = CoefficientAlgebra(
            ("e0", "e1"), {(0, 0): {1: F(1)}},  # degree-0 product landing in degree 1
            degrees=(0, 1), diff={0: {1: F(1)}},
        )
        report = validate_artin(A)
        assert any(v.axiom == "product_degree" for v in report)

    def test_dg_algebra_leibniz_violation(self):
        # a·b = e with d(e) = c but da·b = 0: d(a·b) ≠ da·b ± a·db
        A = CoefficientAlgebra(
            ("a", "b", "e", "c"), {(0, 1): {2: F(1)}},
            degrees=(0, 0, 0, 1), diff={0: {3: F(1)}, 2: {3: F(1)}},
        )
        report = validate_artin(A)
        assert any(v.axiom == "leibniz" for v in report)
        assert not any(v.axiom in ("nilpotency", "associativity", "d_squared")
                       for v in report)


def filtration_by_in_span(dim, product):
    """The power filtration with one in_span solve per basis vector and level."""
    if dim == 0:
        return (), 1
    spans = [[la.unit_vector(dim, i) for i in range(dim)]]
    nu = None
    for _step in range(dim + 1):
        nxt = []
        for i in range(dim):
            for v in spans[-1]:
                prod = product(i, {k: c for k, c in enumerate(v) if c != 0})
                if prod:
                    w = la.zero_vector(dim)
                    for k, c in prod.items():
                        w[k] = c
                    nxt.append(w)
        basis = [nxt[k] for k in la.extend_basis([], nxt, dim)]
        if not basis:
            nu = len(spans) + 1
            spans.append([])
            break
        if len(basis) == len(spans[-1]):
            return None, None
        spans.append(basis)
    if nu is None:
        return None, None
    levels = []
    for i in range(dim):
        e = la.unit_vector(dim, i)
        lvl = 1
        for k in range(1, len(spans)):
            if spans[k] and la.in_span(spans[k], e) is not None:
                lvl = k + 1
        levels.append(lvl)
    return tuple(levels), nu


FILTERED_ALGEBRAS = [
    *lib.EXAMPLE_ARTIN.values(), lambda: lib.extension_poly2_mod_uu().A, dg_uw,
    *[(lambda m=m: truncated_polynomial_algebra(m)) for m in range(1, 13)],
    lambda: omega_complex(1), lambda: epsilon_algebra(1),
    # K[t]/t³ in the basis a = t, b = t − t²: m² is spanned by a − b and holds neither
    lambda: artin_from_labels(("a", "b"), {pair: {"a": 1, "b": -1} for pair in
                                           (("a", "a"), ("a", "b"), ("b", "b"))}),
    # t·t = t², t·t² = t: not nilpotent
    lambda: artin_from_labels(("t", "t^2"), {("t", "t"): {"t^2": 1}, ("t", "t^2"): {"t": 1}}),
]


@pytest.mark.parametrize("make", FILTERED_ALGEBRAS)
def test_filtration_matches_per_vector_solves(make):
    A = make()
    assert (A.levels, A.nu) == filtration_by_in_span(A.dim, A.product_basis)


class TestConstruction:
    """One constructor for Artin and dg algebras: structure constants are
    checked against the basis, and the filtration is always computed."""

    @pytest.mark.parametrize("args, reason", [
        ((("a", "b"), {(0, 2): {1: 1}}), "table key"),
        ((("a", "b"), {(0, 0): {7: 1}}), "table value"),
        ((("a",), {}, (0,), {3: {0: 1}}), "differential key"),
        ((("a",), {}, (0,), {0: {9: 1}}), "differential of 0"),
        ((("a", "b"), {}, (0,)), "length mismatch"),
        ((("a", "b"), {}, None, {0: {1: 1}}), "needs degrees"),
    ])
    def test_keys_outside_the_basis_are_refused(self, args, reason):
        with pytest.raises(InvalidInput, match=reason):
            CoefficientAlgebra(*args)

    def test_filtration_is_not_a_parameter(self):
        A = truncated_polynomial_algebra(4)
        for knob in ({"levels": (1, 1, 1)}, {"nu": 2}):
            with pytest.raises(TypeError):
                CoefficientAlgebra(A.labels, A.table, **knob)

    def test_power_spans_run_once_per_algebra(self, monkeypatch):
        calls = []
        inner = artin._power_spans

        def counting(dim, product):
            calls.append(dim)
            return inner(dim, product)
        monkeypatch.setattr(artin, "_power_spans", counting)
        # K[t]/t⁴, K[t]/t³ in a basis not adapted to its filtration, dg_uw
        skew = {pair: {"a": 1, "b": -1} for pair in (("a", "a"), ("a", "b"), ("b", "b"))}
        for make in (lambda: truncated_polynomial_algebra(4),
                     lambda: artin_from_labels(("a", "b"), skew), dg_uw):
            calls.clear()
            A = make()
            for _ in range(2):
                assert A.adapted_basis[2] and A.levels and A.nu
            assert len(calls) == 1
        assert artin_from_labels(("a", "b"), skew).adapted_basis[0] is not None

    def test_not_nilpotent_has_no_adapted_basis(self):
        A = artin_from_labels(("t", "t^2"), {("t", "t"): {"t^2": 1}, ("t", "t^2"): {"t": 1}})
        assert (A.levels, A.nu) == (None, None)
        with pytest.raises(InvalidInput, match="not nilpotent"):
            A.adapted_basis

    def test_artin_and_dg_algebras_differ(self):
        A = square_zero_algebra(("x",))
        assert A.degrees is None and A != epsilon_algebra(0)
        assert A == CoefficientAlgebra(("x",), {(0, 0): {}})

    def test_swapped_product_carries_the_koszul_sign(self):
        A = dg_uw()  # u·w = uw, deg u · deg w odd
        assert A.product_basis(0, {1: F(1)}) == {2: F(1)}
        assert A.product_basis(1, {0: F(1)}) == {2: F(-1)}
        assert A.product({1: F(2)}, {0: F(3)}) == {2: F(-6)}


class TestSmallExtensions:
    def test_tower_first_order(self):
        tower = small_extension_tower(1)
        assert len(tower) == 1
        ext = tower[0]
        assert ext.B.labels == ("t",)
        assert ext.A.labels == ()
        assert ext.kernel_dim == 1
        assert ext.kernel_label(0) == "t"

    def test_tower_second_step_kernel(self):
        ext = small_extension_tower(2)[1]
        assert ext.B.labels == ("t", "t^2")
        assert ext.kernel == ((F(0), F(1)),)
        # m_B · t² = 0 holds by construction (validated in the constructor)
        assert ext.kernel_label(0) == "t^2"

    def test_tower_length_and_projections(self):
        tower = small_extension_tower(4)
        assert len(tower) == 4
        for k, ext in enumerate(tower, start=1):
            assert ext.B.dim == k
            assert ext.A.dim == k - 1
            # alpha is the canonical truncation
            for i in range(ext.A.dim):
                assert ext.alpha[i][i] == 1

    def test_kernel_one_dimensional_along_tower(self):
        for ext in small_extension_tower(5):
            assert ext.kernel_dim == 1

    def test_tower_composites_are_canonical_projections(self):
        # α₂∘α₃∘α₄ maps m_{K[t]/t⁵} onto m_{K[t]/t²} by truncation
        tower = small_extension_tower(4)
        comp = tower[1].alpha
        for ext in tower[2:]:
            comp = la.mat_mul(comp, ext.alpha)
        want = la.zeros(tower[1].A.dim, tower[-1].B.dim)
        for i in range(tower[1].A.dim):
            want[i][i] = F(1)
        assert comp == want

    def test_lifted_products_reproduce_table_mod_j(self):
        for ext in (small_extension_tower(3)[2], lib.extension_poly2_mod_uu()):
            A, B = ext.A, ext.B
            for i in range(A.dim):
                for j in range(A.dim):
                    bi = ext.lift_coeffs({i: F(1)})
                    bj = ext.lift_coeffs({j: F(1)})
                    prod_b = B.product(bi, bj)
                    assert ext.project_coeffs(prod_b) == A.product({i: F(1)}, {j: F(1)})

    def test_kernel_coords_match_in_span(self):
        # the stored inverse of [J | units] against one in_span solve per vector,
        # on vectors inside J (combinations of its basis) and outside it
        rnd = random.Random(5)
        B = square_zero_algebra(("x", "y", "z"))
        exts = [*small_extension_tower(4), lib.extension_poly2_mod_uu(),
                quotient_extension(B, ("y", "z")),
                small_extension(B, square_zero_algebra(("s",)), [[F(1), F(1), F(0)]])]
        for ext in exts:
            basis = [list(v) for v in ext.kernel]
            for _ in range(20):
                inside = [sum(F(rnd.randint(-2, 2)) * v[i] for v in basis) for i in range(ext.B.dim)]
                outside = [F(rnd.randint(-2, 2)) for _i in range(ext.B.dim)]
                for vec in (inside, outside):
                    sparse = {i: c for i, c in enumerate(vec) if c}
                    assert ext.kernel_coords(sparse) == la.in_span(basis, vec)

    def test_section_and_kernel_match_one_solve_per_vector(self):
        # one rref of [α | 1] against one la.solve per basis vector of m_A and
        # la.nullspace, on the longest tower the CLI admits and on every
        # built-in extension
        e1, e2, *_maps = lib.extension_morphism_poly2_to_tower()
        B = square_zero_algebra(("x", "y", "z"))
        exts = [*small_extension_tower(23), lib.extension_poly2_mod_uu(), e1, e2,
                small_extension(B, square_zero_algebra(("s",)), [[F(1), F(1), F(0)]])]
        for ext in exts:
            got = small_extension(ext.B, ext.A, ext.alpha)
            want = ref.extension_section_kernel(ext.alpha, ext.B.dim, ext.A.dim)
            assert (got.section, got.kernel) == want

    def test_a_non_surjective_alpha_is_refused(self):
        alpha = [[F(1), F(0)], [F(2), F(0)]]
        assert ref.extension_section_kernel(alpha, 2, 2) is None
        with pytest.raises(InvalidInput, match="alpha is not surjective"):
            small_extension(square_zero_algebra(("x", "y")), square_zero_algebra(("s", "r")),
                            alpha)

    def test_tower_builds_each_algebra_once(self, monkeypatch):
        built, real = [], artin.truncated_polynomial_algebra
        monkeypatch.setattr(artin, "truncated_polynomial_algebra",
                            lambda n: built.append(n) or real(n))
        tower = small_extension_tower(6)
        assert built == list(range(1, 8))
        assert all(prev.B is ext.A for prev, ext in zip(tower, tower[1:]))

    def test_quotient_extension_poly2(self):
        ext = lib.extension_poly2_mod_uu()
        assert ext.B.labels == ("u", "v", "uu", "uv", "vv")
        assert ext.A.labels == ("u", "v", "uv", "vv")
        assert ext.kernel_dim == 1
        assert ext.kernel_label(0) == "uu"

    def test_not_small_rejected(self):
        # quotient by ⟨t⟩ in K[t]/t³ has m·J ≠ 0
        with pytest.raises(InvalidInput):
            quotient_extension(truncated_polynomial_algebra(3), ("t",))

    # K[x, y, z] with square-zero m onto K[s] with s² = 0, by x, y ↦ s and z ↦ 0:
    # ker alpha is spanned by x − y and z
    @pytest.mark.parametrize("kernel", [
        ((1, -1, 0), (2, -2, 0)),  # dependent
        ((1, -1, 0),),  # too short
        ((1, -1, 0), (0, 0, 1), (1, 0, 0)),  # too long
        ((1, 0, 0), (0, 0, 1)),  # x lies outside ker alpha
        ((1, -1), (0, 0)),  # vectors of the wrong length
    ])
    def test_declared_kernel_must_be_a_basis_of_ker_alpha(self, kernel):
        B, A = square_zero_algebra(("x", "y", "z")), square_zero_algebra(("s",))
        alpha, section = [[F(1), F(1), F(0)]], [[F(1)], [F(0)], [F(0)]]
        kernel = tuple(tuple(F(c) for c in v) for v in kernel)
        with pytest.raises(InvalidInput, match="declared kernel basis does not match ker alpha"):
            artin.SmallExtension(B, A, alpha, section, kernel)
        ext = artin.SmallExtension(B, A, alpha, section, ((F(1), F(-1), F(0)), (F(0), F(0), F(1))))
        assert ext.kernel_dim == 2

    def test_kernel_must_be_killed_by_m_B(self):
        # K[t]/t⁴ onto K[t]/t² by t ↦ t: J = ⟨t², t³⟩ is ker alpha, and t·t² = t³ ≠ 0
        with pytest.raises(InvalidInput, match="m_B · J ≠ 0: not a small extension"):
            quotient_extension(truncated_polynomial_algebra(4), ("t^2", "t^3"))

    def test_extension_morphism_to_tower(self):
        e1, e2, phi_B, phi_A, phi_J = lib.extension_morphism_poly2_to_tower()
        # phi_B is an algebra map
        for i in range(e1.B.dim):
            for j in range(e1.B.dim):
                prod = e1.B.product({i: F(1)}, {j: F(1)})
                lhs = la.mat_vec(phi_B, [prod.get(k, F(0)) for k in range(e1.B.dim)])
                bi = la.mat_vec(phi_B, la.unit_vector(e1.B.dim, i))
                bj = la.mat_vec(phi_B, la.unit_vector(e1.B.dim, j))
                rhs_s = e2.B.product({k: c for k, c in enumerate(bi) if c},
                                     {k: c for k, c in enumerate(bj) if c})
                rhs = [rhs_s.get(k, F(0)) for k in range(e2.B.dim)]
                assert lhs == rhs
        # squares commute: phi_A ∘ alpha1 = alpha2 ∘ phi_B
        lhs = la.mat_mul(phi_A, e1.alpha)
        rhs = la.mat_mul(e2.alpha, phi_B)
        assert lhs == rhs


class TestOmegaAndEpsilon:
    @pytest.mark.parametrize("n", (-1, 0, 1))
    def test_omega_acyclic(self, n):
        A = omega_complex(n)
        assert validate_artin(A) == []
        assert A.degrees == (-n, -n + 1)
        # build the two-term complex and check H = 0
        space = GradedSpace(-n, -n + 1, {-n: (A.labels[0],), -n + 1: (A.labels[1],)})
        from mcdeform.graded import map_from_basis_images, basis_element
        d = map_from_basis_images(space, space, 1,
                                  {A.labels[0]: basis_element(space, -n + 1, 0)})
        H = compute_cohomology(ChainComplex(space, d))
        assert H.dim(-n) == 0 and H.dim(-n + 1) == 0

    def test_omega_trivial_products(self):
        A = omega_complex(0)
        for i in range(A.dim):
            for j in range(A.dim):
                assert A.product_basis(i, {j: F(1)}) == {}

    def test_epsilon_square_zero(self):
        A = epsilon_algebra(1)
        assert A.degrees == (-1,)
        assert A.nu == 2
        assert validate_artin(A) == []


class TestTensorDgla:
    def test_abelian_stays_abelian(self):
        T = tensor_dgla(lib.abelian2(), lib.artin_kt(3))
        assert T.dgla.is_abelian()

    def test_obstructed_structure_constant(self):
        T = tensor_dgla(lib.obstructed(), lib.artin_kt(3))
        xt = T.element_from_labels({"x@t": 1})
        assert T.bracket(xt, xt) == T.element_from_labels({"y@t^2": 2})

    def test_graded_coefficient_degree(self):
        # x ⊗ ε with deg ε = −1 sits in degree deg x − 1
        T = tensor_dgla(lib.obstructed(), epsilon_algebra(1))
        assert T.space.dim(0) == 1  # x ⊗ ε
        assert T.space.dim(1) == 1  # y ⊗ ε

    def test_omega_tensor_differential(self):
        # d(x⊗a) = dx⊗a + (−1)^{deg x} x⊗da over Ω[0]
        T = tensor_dgla(lib.acyclic(), omega_complex(0))
        A = omega_complex(0)
        u_e0 = T.element_from_labels({f"u@{A.labels[0]}": 1})
        got = T.differential_of(u_e0)
        want = T.element_from_labels({f"v@{A.labels[0]}": 1, f"u@{A.labels[1]}": 1})
        assert got == want

    def test_tensor_validates_for_random_small_inputs(self):
        coeffs = [lib.artin_kt(2), lib.artin_kt(3), lib.artin_square_zero(),
                  omega_complex(0), omega_complex(1), epsilon_algebra(-1),
                  epsilon_algebra(1)]
        dglas = [lib.heis0(), lib.heis(), lib.obstructed(), lib.endo_acyclic(), lib.sl2()]
        for L in dglas:
            for A in coeffs:
                T = tensor_dgla(L, A)
                assert validate_dgla(T.dgla) == [], (L, A.labels)

    def test_filtration_certificate(self):
        rnd = random.Random(2)
        T = tensor_dgla(lib.sl2(), lib.artin_kt(4))
        for _ in range(30):
            x = rand_elem(rnd, T, 0)
            y = rand_elem(rnd, T, 0)
            if x.is_zero() or y.is_zero():
                continue
            lx, ly = T.element_level(x), T.element_level(y)
            b = T.bracket(x, y)
            assert T.element_level(b) >= lx + ly

    def test_tensor_with_trivial_coefficients(self):
        T = tensor_dgla(lib.heis(), truncated_polynomial_algebra(1))
        assert T.space.total_dim() == 0

    def test_tensor_map_commutes(self):
        h, g = lib.pair_inj_abelian()
        A = lib.artin_kt(3)
        tL = tensor_dgla(h.source, A)
        tM = tensor_dgla(h.target, A)
        hm = tensor_map(h.map, tL, tM)
        rnd = random.Random(4)
        for deg in (0, 1):
            x = rand_elem(rnd, tL, deg)
            assert hm.apply(tL.differential_of(x)) == tM.differential_of(hm.apply(x))
