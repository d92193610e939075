import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from mcdeform import library as lib
from mcdeform import linalg as la
from mcdeform.artin import epsilon_algebra, small_extension_tower, tensor_dgla
from mcdeform.dgla import Dgla, cone_pair, validate_dgla
from mcdeform.errors import (
    BaseMismatch,
    DegreeMismatch,
    InconsistentInput,
    InvalidInput,
    NotInFiberProduct,
    NotVerifiedMC,
    NotVerifiedTriple,
)
from mcdeform.graded import ChainComplex, GradedElement, compute_cohomology, zero_element
from mcdeform.maurer_cartan import (
    Equivalent,
    NO_LIFT,
    NotEquivalent,
    Undecided,
    bch_product,
    extended_equiv_verify,
    gauge_apply,
    gauge_apply_pair,
    gauge_equiv_decide,
    lift_if_unobstructed,
    lift_pair_if_unobstructed,
    mc_element,
    mc_pair_check,
    mc_residual,
    mc_triple,
    obstruction_pair,
    obstruction_single,
    pair_setting,
    stabilizer_element,
    tangent_dim_pair,
    tangent_dim_single,
)
from dynkin_bch import dynkin_bch
from util_random import dg_uw, rand_elem, rand_mc, rand_triple

F = Fraction


class TestResidual:
    def test_zero_element(self):
        T = tensor_dgla(lib.heis(), lib.artin_kt(3))
        assert mc_residual(T, zero_element(T.space, 1)).is_zero()

    def test_abelian_residual_is_differential(self):
        rnd = random.Random(1)
        T = tensor_dgla(lib.acyclic(), lib.artin_kt(3))
        for _ in range(10):
            x = rand_elem(rnd, T, 1)
            assert mc_residual(T, x) == T.differential_of(x)

    def test_obstructed_residual(self):
        T = tensor_dgla(lib.obstructed(), lib.artin_kt(3))
        x = T.element_from_labels({"x@t": 1}, 1)
        assert mc_residual(T, x) == T.element_from_labels({"y@t^2": 1})

    def test_degree_mismatch(self):
        T = tensor_dgla(lib.heis(), lib.artin_kt(3))
        with pytest.raises(DegreeMismatch):
            mc_residual(T, T.element_from_labels({"a@t": 1}))


class TestGauge:
    def test_fixed_point_when_bracket_equals_da(self):
        # [a, x] = da → e^a * x = x; on heis d = 0 and central z-patterns
        T = tensor_dgla(lib.heis0(), lib.artin_kt(3))
        a = T.element_from_labels({"z@t": 1}, 0)
        x = zero_element(T.space, 1)
        assert gauge_apply(T, a, x) == x

    def test_kernel_coefficient_translation(self):
        # a ∈ L⁰ ⊗ J with J·m_A = 0 → e^a * x = x − da
        ext = small_extension_tower(2)[1]
        T = tensor_dgla(lib.endo_acyclic(), ext.B)
        rnd = random.Random(3)
        for _ in range(10):
            a0 = rand_elem(rnd, lib.endo_acyclic(), 0)
            a = T.pure(a0, 1)  # coefficient t², the kernel direction
            x = rand_mc(rnd, T)
            assert gauge_apply(T, a, x) == x - T.differential_of(a)

    def test_heis_series_example(self):
        T = tensor_dgla(lib.heis(), lib.artin_kt(3))
        a = T.element_from_labels({"a@t": 1}, 0)
        x = T.element_from_labels({"x@t": 1}, 1)
        assert gauge_apply(T, a, x) == T.element_from_labels({"x@t": 1, "y@t^2": 1})

    def test_mc_preserved(self):
        rnd = random.Random(5)
        for L, A in ((lib.heis(), lib.artin_kt(4)), (lib.endo_acyclic(), lib.artin_kt(3))):
            T = tensor_dgla(L, A)
            for _ in range(15):
                x = rand_mc(rnd, T)
                a = rand_elem(rnd, T, 0)
                assert mc_residual(T, gauge_apply(T, a, x)).is_zero()

    def test_fixed_point_biconditional(self):
        rnd = random.Random(7)
        T = tensor_dgla(lib.heis(), lib.artin_kt(4))
        fixed_seen = moved_seen = 0
        for i in range(60):
            x = rand_elem(rnd, T, 1)
            if i % 2 == 0:
                # draw a from the solution space of [a, x] = da
                n0 = T.space.dim(0)
                rows = []
                for j in range(n0):
                    a_j = GradedElement(T.space, {(0, j): F(1)}, 0)
                    diff = T.bracket(a_j, x) - T.differential_of(a_j)
                    rows.append([diff.coords.get((1, r), F(0))
                                 for r in range(T.space.dim(1))])
                mat = [[rows[j][r] for j in range(n0)] for r in range(T.space.dim(1))]
                kernel = la.nullspace(mat, cols=n0)
                if not kernel:
                    continue
                coeffs = [F(rnd.randint(-2, 2)) for _ in kernel]
                a = GradedElement(T.space, {
                    (0, j): sum((c * v[j] for c, v in zip(coeffs, kernel)), F(0))
                    for j in range(n0)}, 0)
            else:
                a = rand_elem(rnd, T, 0)
            fixes = gauge_apply(T, a, x) == x
            condition = T.bracket(a, x) == T.differential_of(a)
            assert fixes == condition
            fixed_seen += fixes
            moved_seen += not fixes
        assert fixed_seen and moved_seen


class TestBch:
    def test_unit_and_inverse(self):
        rnd = random.Random(9)
        T = tensor_dgla(lib.heis0(), lib.artin_kt(4))
        zero = zero_element(T.space, 0)
        for _ in range(10):
            a = rand_elem(rnd, T, 0)
            assert bch_product(T, a, zero) == a
            assert bch_product(T, zero, a) == a
            assert bch_product(T, a, -a).is_zero()

    def test_heis0_value(self):
        T = tensor_dgla(lib.heis0(), lib.artin_kt(3))
        p = T.element_from_labels({"p@t": 1}, 0)
        q = T.element_from_labels({"q@t": 1}, 0)
        assert bch_product(T, p, q) == T.element_from_labels(
            {"p@t": 1, "q@t": 1, "z@t^2": "1/2"})

    def test_weight_three_dynkin_coefficients(self):
        # oracle: free 2-generator nilpotent Lie algebra of class 3
        Fr = lib.free_nilpotent_class3()
        assert validate_dgla(Fr) == []
        T = tensor_dgla(Fr, lib.artin_kt(4))
        a = T.element_from_labels({"a@t": 1}, 0)
        b = T.element_from_labels({"b@t": 1}, 0)
        got = bch_product(T, a, b)
        want = T.element_from_labels({
            "a@t": 1, "b@t": 1, "ab@t^2": "1/2",
            "aab@t^3": "1/12", "bab@t^3": "-1/12",
        })
        assert got == want

    def test_class_two_closed_form_oracle(self):
        # depth-2 coefficients: a•b = a + b + ½[a,b] exactly
        rnd = random.Random(11)
        T = tensor_dgla(lib.sl2(), lib.artin_kt(3))
        for _ in range(10):
            a = rand_elem(rnd, T, 0)
            b = rand_elem(rnd, T, 0)
            shortcut = a + b + Fraction(1, 2) * T.bracket(a, b)
            assert bch_product(T, a, b) == shortcut

    def test_composition_law(self):
        rnd = random.Random(13)
        T = tensor_dgla(lib.heis(), lib.artin_kt(5))
        for _ in range(25):
            a, b = rand_elem(rnd, T, 0), rand_elem(rnd, T, 0)
            x = rand_elem(rnd, T, 1)
            assert gauge_apply(T, a, gauge_apply(T, b, x)) == \
                gauge_apply(T, bch_product(T, a, b), x)

    def test_associativity(self):
        rnd = random.Random(15)
        T = tensor_dgla(lib.sl2(), lib.artin_kt(4))
        for _ in range(8):
            a, b, c = (rand_elem(rnd, T, 0, -1, 1) for _ in range(3))
            assert bch_product(T, bch_product(T, a, b), c) == \
                bch_product(T, a, bch_product(T, b, c))


BCH_DGLAS = {**lib.EXAMPLE_DGLAS, "free_nilpotent_class3": lib.free_nilpotent_class3}
BCH_COEFFS = {**{f"kt{n}": (lambda n=n: lib.artin_kt(n)) for n in range(2, 6)},
              "poly2": lib.artin_poly2, "square_zero": lib.artin_square_zero,
              "dg_uw": dg_uw, "eps1": lambda: epsilon_algebra(1)}


@lru_cache(maxsize=None)
def _bch_tensor(dgla: str, coeff: str):
    return tensor_dgla(BCH_DGLAS[dgla](), BCH_COEFFS[coeff]())


@pytest.mark.parametrize("coeff", sorted(BCH_COEFFS))
@pytest.mark.parametrize("dgla", sorted(BCH_DGLAS))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_bch_matches_the_dynkin_series(dgla, coeff, data):
    """Both argument orders of a, b; of their parts at coefficient level ≥ 2,
    where the level truncation cuts the recursion short; and of 0, b and −b."""
    T = _bch_tensor(dgla, coeff)
    assert T.nu <= 5
    keys = sorted(k for k in T.levels if k[0] == 0)

    def element():
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=len(keys), max_size=len(keys)))
        return GradedElement(T.space, dict(zip(keys, coeffs)), 0)

    def high(x):
        return GradedElement(T.space, {k: c for k, c in x.coords.items() if T.levels[k] >= 2}, 0)

    a, b = element(), element()
    for x, y in ((a, b), (high(a), b), (high(a), high(b)), (zero_element(T.space, 0), b),
                 (b, b), (-b, b)):
        assert bch_product(T, x, y) == dynkin_bch(T, x, y)
        assert bch_product(T, y, x) == dynkin_bch(T, y, x)


class TestStabilizer:
    def test_zero_parameter(self):
        T = tensor_dgla(lib.endo_acyclic(), lib.artin_kt(3))
        x = mc_element(T, zero_element(T.space, 1))
        assert stabilizer_element(x, zero_element(T.space, -1)).is_zero()

    def test_no_negative_degrees_only_zero(self):
        T = tensor_dgla(lib.heis(), lib.artin_kt(3))
        x = mc_element(T, zero_element(T.space, 1))
        assert T.space.dim(-1) == 0
        assert stabilizer_element(x, zero_element(T.space, -1)).is_zero()

    def test_stabilizer_fixes_x(self):
        rnd = random.Random(17)
        T = tensor_dgla(lib.endo_acyclic(), lib.artin_kt(4))
        for _ in range(12):
            x = mc_element(T, rand_mc(rnd, T))
            h = rand_elem(rnd, T, -1)
            a = stabilizer_element(x, h)
            assert gauge_apply(T, a, x.element) == x.element


def obstructed_setup():
    ext = small_extension_tower(2)[1]
    T = tensor_dgla(lib.obstructed(), ext.A)
    x = mc_element(T, T.element_from_labels({"x@t": 1}, 1))
    return ext, T, x


class TestObstructionSingle:
    def test_liftable_gives_zero_class(self):
        ext = small_extension_tower(2)[1]
        T = tensor_dgla(lib.heis(), ext.A)
        rnd = random.Random(19)
        x = mc_element(T, rand_mc(rnd, T))
        cls = obstruction_single(ext, x)
        assert cls.is_zero()
        lifted = lift_if_unobstructed(ext, x, cls)
        assert lifted is not NO_LIFT and lifted.verified

    def test_obstructed_class_and_no_lift(self):
        ext, T, x = obstructed_setup()
        cls = obstruction_single(ext, x)
        assert not cls.is_zero()
        assert cls.label_map() == {"y@t^2": F(1)}
        assert lift_if_unobstructed(ext, x, cls) is NO_LIFT
        # independent exhaustive linear check: dq = y⊗t² has no solution
        TB = tensor_dgla(lib.obstructed(), ext.B)
        target = TB.element_from_labels({"y@t^2": 1})
        dmat = TB.dgla.complex.d.matrix(1)
        rhs = target.component_vector(2)
        assert la.solve(dmat, rhs, cols=TB.space.dim(1)) is None

    def test_label_map_keys_each_representative_by_a_key_of_its_own(self):
        # H² = ⟨a + b, a + c⟩: both representatives start with a, and the
        # class of ½[x, x]⊗t² = (3/2 a + b + ½ c)⊗t² is (a + b) + ½ (a + c);
        # b and c are the first keys each holds alone
        from mcdeform.library import _complex, dgla_from_labels
        cx = _complex((1, 3), {1: ("x",), 2: ("a", "b", "c"), 3: ("w",)},
                      {"a": {"w": 1}, "b": {"w": -1}, "c": {"w": -1}})
        L = dgla_from_labels(cx, {("x", "x"): {"a": 3, "b": 2, "c": 1}})
        assert validate_dgla(L) == []
        ext = small_extension_tower(2)[1]
        T = tensor_dgla(L, ext.A)
        cls = obstruction_single(ext, mc_element(T, T.element_from_labels({"x@t": 1}, 1)))
        assert cls.cohomology.representatives[2] == tuple(
            GradedElement(L.space, {(2, 0): F(1), (2, k): F(1)}, 2) for k in (1, 2))
        assert cls.coords == ((F(1), F(1, 2)),)
        assert cls.label_map() == {"b@t^2": F(1), "c@t^2": F(1, 2)}

    def test_abelian_classes_always_vanish(self):
        rnd = random.Random(21)
        for L in (lib.acyclic(), lib.abelian2()):
            for ext in small_extension_tower(4):
                T = tensor_dgla(L, ext.A)
                for _ in range(5):
                    x = mc_element(T, rand_mc(rnd, T))
                    cls = obstruction_single(ext, x)
                    assert cls.is_zero()
                    assert lift_if_unobstructed(ext, x, cls) is not NO_LIFT

    def test_lift_independence_of_section(self):
        ext, T, x = obstructed_setup()
        rnd = random.Random(99)
        cls1 = obstruction_single(ext, x)
        for _ in range(5):
            # randomized section: t ↦ t + c·t² still satisfies α∘s = id
            alt = [[F(1)], [F(rnd.randint(-4, 4))]]
            cls2 = obstruction_single(replace(ext, section=alt), x)
            assert cls1.coords == cls2.coords

    @pytest.mark.parametrize("section, reason", [
        ([[F(1)]], "section has the wrong shape"),
        ([[F(1), F(0)], [F(0), F(1)]], "section has the wrong shape"),
        ([[F(2)], [F(1)]], "section is not a right inverse of alpha"),
    ])
    def test_alternate_section_is_checked_by_the_extension(self, section, reason):
        # an alternate section is an alternate extension, checked on construction
        ext, _T, _x = obstructed_setup()
        with pytest.raises(InvalidInput, match=reason):
            replace(ext, section=section)

    def test_lift_with_zero_cocycle_returns_lift_unchanged(self):
        # abelian acyclic: x = v⊗t lifts to v⊗t itself (h = 0 so q = 0)
        ext = small_extension_tower(2)[1]
        T = tensor_dgla(lib.acyclic(), ext.A)
        x = mc_element(T, T.element_from_labels({"v@t": 1}, 1))
        cls = obstruction_single(ext, x)
        assert cls.is_zero()
        lifted = lift_if_unobstructed(ext, x, cls)
        TB = tensor_dgla(lib.acyclic(), ext.B)
        assert lifted.element == TB.element_from_labels({"v@t": 1}, 1)

    def test_unverified_rejected(self):
        ext, T, _ = obstructed_setup()
        from mcdeform.maurer_cartan import McElement
        raw = McElement(T, T.element_from_labels({"x@t": 1}, 1), False)
        with pytest.raises(NotVerifiedMC):
            obstruction_single(ext, raw)

    def test_base_mismatch(self):
        ext = small_extension_tower(3)[2]
        _, T, x = obstructed_setup()  # x lives over K[t]/t², ext is t⁴ → t³
        with pytest.raises(BaseMismatch):
            obstruction_single(ext, x)

    def test_inconsistent_class_rejected(self):
        ext, T, x = obstructed_setup()
        cls = obstruction_single(ext, x)
        tampered = replace(cls, coords=((F(0),),))
        with pytest.raises(InconsistentInput):
            lift_if_unobstructed(ext, x, tampered)

    def test_base_change_naturality(self):
        # (id ⊗ φ_J)(v_{e1}(x)) = v_{e2}(φ_A(x)) for the two-variable base
        e1, e2, phi_B, phi_A, phi_J = lib.extension_morphism_poly2_to_tower()
        L = lib.obstructed()
        T1 = tensor_dgla(L, e1.A)
        T2 = tensor_dgla(L, e2.A)
        rnd = random.Random(23)
        for _ in range(10):
            alpha = F(rnd.randint(-3, 3))
            beta = F(rnd.randint(-3, 3))
            gamma = F(rnd.randint(-3, 3))
            x_elem = T1.element_from_labels(
                {"x@u": alpha, "x@uv": beta, "x@vv": gamma}, 1)
            x = mc_element(T1, x_elem)
            v1 = obstruction_single(e1, x)
            x2 = mc_element(T2, T1.map_coefficients(x_elem, la.int_columns(phi_A), T2))
            v2 = obstruction_single(e2, x2)
            # φ_J is 1×1 identity on the kernels ⟨u²⟩ → ⟨t²⟩
            moved = tuple(tuple(phi_J[0][0] * c for c in vec) for vec in v1.coords)
            assert moved == v2.coords


class TestDeclaredDegrees:
    """A lift keeps its input's declared degree, and each cocycle component
    declares its piece's degree + 1 (on heis, whose elements lift freely)."""

    def test_element_lift_and_cocycle(self):
        ext = small_extension_tower(2)[1]
        T = tensor_dgla(lib.heis(), ext.A)
        x = mc_element(T, T.element_from_labels({"x@t": 1}, 1))
        cls = obstruction_single(ext, x)
        assert cls.cocycle.degree == 2
        assert lift_if_unobstructed(ext, x, cls).element.degree == 1

    def test_triple_lift_and_cocycle(self):
        ext = small_extension_tower(2)[1]
        s = pair_setting(*lib.pair_idid_heis(), ext.A)
        t = mc_triple(s, s.tL.element_from_labels({"x@t": 1}, 1),
                      s.tN.element_from_labels({"x@t": 1}, 1),
                      s.tM.element_from_labels({"a@t": 1}, 0))
        cls = obstruction_pair(ext, t)
        assert tuple(c.degree for c in cls.cocycle) == (2, 2, 1)
        lifted = lift_pair_if_unobstructed(ext, t, cls)
        assert (lifted.x.degree, lifted.y.degree, lifted.p.degree) == (1, 1, 0)

    def test_tower_walk_stays_in_degree_one(self):
        ext1, ext2 = small_extension_tower(3)[1:]
        T = tensor_dgla(lib.heis(), ext1.A)
        x = mc_element(T, T.element_from_labels({"x@t": 1, "y@t": 1}, 1))
        for ext in (ext1, ext2):
            cls = obstruction_single(ext, x)
            assert cls.cocycle.degree == 2
            x = lift_if_unobstructed(ext, x, cls)
            assert x.element.degree == 1
            assert x.element == GradedElement(x.tensor.space, x.element.coords, 1)
        assert x.tensor.coeff == ext2.B


class TestPairFunctor:
    def test_zero_triple_verified(self):
        h, g = lib.pair_idid_heis()
        s = pair_setting(h, g, lib.artin_kt(3))
        t, report = mc_pair_check(s, zero_element(s.tL.space, 1),
                                  zero_element(s.tN.space, 1),
                                  zero_element(s.tM.space, 0))
        assert t.verified and report == []

    def test_identity_linking(self):
        rnd = random.Random(25)
        h, g = lib.pair_idid_heis()
        s = pair_setting(h, g, lib.artin_kt(3))
        x = rand_mc(rnd, s.tL)
        t, report = mc_pair_check(s, x, x, zero_element(s.tM.space, 0))
        assert t.verified

    def test_violation_reported_with_residual(self):
        rnd = random.Random(27)
        h, g = lib.pair_idid_heis()
        s = pair_setting(h, g, lib.artin_kt(3))
        x = rand_mc(rnd, s.tL)
        bad_y = x + s.tN.element_from_labels({"x@t": 1})
        t, report = mc_pair_check(s, x, bad_y, zero_element(s.tM.space, 0))
        assert not t.verified
        assert any(v.axiom == "linking" for v in report)

    def test_gauge_pair_identity_parameters(self):
        rnd = random.Random(29)
        for name, fn in lib.EXAMPLE_PAIRS.items():
            s = pair_setting(*fn(), lib.artin_kt(3))
            t = rand_triple(rnd, name, s)
            t2 = gauge_apply_pair(zero_element(s.tL.space, 0),
                                  zero_element(s.tN.space, 0), t)
            assert (t2.x, t2.y, t2.p) == (t.x, t.y, t.p)

    def test_gauge_pair_bch_inverse(self):
        rnd = random.Random(31)
        h, g = lib.pair_idid_heis()
        s = pair_setting(h, g, lib.artin_kt(3))
        x = rand_mc(rnd, s.tL)
        t = mc_triple(s, x, x, zero_element(s.tM.space, 0))
        a = rand_elem(rnd, s.tL, 0)
        t2 = gauge_apply_pair(a, a, t)
        assert t2.p.is_zero()  # a • (−a) = 0 in the third slot
        assert t2.x == t2.y

    def test_gauge_pair_composition_property(self):
        rnd = random.Random(33)
        h, g = lib.pair_idid_heis()
        s = pair_setting(h, g, lib.artin_kt(4))
        for _ in range(8):
            t = rand_triple(rnd, "pair_idid_heis", s)
            a1, b1 = rand_elem(rnd, s.tL, 0), rand_elem(rnd, s.tN, 0)
            a2, b2 = rand_elem(rnd, s.tL, 0), rand_elem(rnd, s.tN, 0)
            once = gauge_apply_pair(a2, b2, gauge_apply_pair(a1, b1, t))
            joint = gauge_apply_pair(bch_product(s.tL, a2, a1),
                                     bch_product(s.tN, b2, b1), t)
            assert (once.x, once.y, once.p) == (joint.x, joint.y, joint.p)

    def test_extended_equiv_witness(self):
        rnd = random.Random(35)
        h, g = lib.pair_idid_endo()
        s = pair_setting(h, g, lib.artin_kt(3))
        t = rand_triple(rnd, "pair_idid_endo", s)
        a = rand_elem(rnd, s.tL, 0)
        b = rand_elem(rnd, s.tN, 0)
        c = rand_elem(rnd, s.tM, -1)
        gy1 = s.apply_g(t.y)
        stab = s.tM.differential_of(c) + s.tM.bracket(gy1, c)
        p2 = bch_product(s.tM, s.apply_g(b),
                         bch_product(s.tM, stab,
                                     bch_product(s.tM, t.p, -s.apply_h(a))))
        t2 = mc_triple(s, gauge_apply(s.tL, a, t.x), gauge_apply(s.tN, b, t.y), p2)
        assert extended_equiv_verify(t, t2, a, b, c) == []
        # a perturbed witness fails
        bad = extended_equiv_verify(t, t2, a, b, c + rand_elem(rnd, s.tM, -1))
        assert bad or c.is_zero()


@pytest.fixture()
def obstruction_work(monkeypatch):
    """The cohomology results and pair cones the obstruction code computes,
    the complexes whose d² it checks (kept alive, so identities are unique),
    and its lifts by the extension's section (integer coefficient maps,
    TensorDgla._map_ints, by its integer columns, once per element lifted)."""
    import mcdeform.dgla as dg
    import mcdeform.maurer_cartan as mc
    from mcdeform.artin import TensorDgla

    work = {"cohomology": [], "cones": 0, "d2": [], "lifts": 0, "section": None}
    real_cohomology, real_cone = mc.compute_cohomology, mc.cone_pair
    real_map, real_d2 = TensorDgla._map_ints, ChainComplex.d_squared_witnesses

    def cohomology(cx, degrees=None):
        work["cohomology"].append(real_cohomology(cx, degrees))
        return work["cohomology"][-1]

    def cone_pair(h, g):
        work["cones"] += 1
        return real_cone(h, g)

    def d_squared_witnesses(cx):
        work["d2"].append(cx)
        return real_d2(cx)

    def map_ints(self, x, columns, target):
        work["lifts"] += columns is work["section"]
        return real_map(self, x, columns, target)

    for module in (dg, mc):  # H²(L) is computed in dgla, the cone's H² in maurer_cartan
        monkeypatch.setattr(module, "compute_cohomology", cohomology)
    monkeypatch.setattr(mc, "cone_pair", cone_pair)
    monkeypatch.setattr(ChainComplex, "d_squared_witnesses", d_squared_witnesses)
    monkeypatch.setattr(TensorDgla, "_map_ints", map_ints)
    return work


def assert_h2_only(work) -> None:
    [H] = work["cohomology"]
    assert set(H.dims) == set(H.projections) == {2} & set(H.complex.space.degrees())
    with pytest.raises(InvalidInput):
        H.dim(1)


def assert_d2_once_per_complex(work) -> None:
    assert len({id(cx) for cx in work["d2"]}) == len(work["d2"])


def fresh_dgla(name: str):
    """The built-in DGLA, built anew: the library's copy may hold its H²."""
    return getattr(lib, name).__wrapped__()


class TestObstructionWork:
    """One obstruction plus lift along K[t]/t³ → K[t]/t² lifts each element
    twice (for the class, then for the lift, which reuses the class's cocycle)
    and computes H² alone, once: a second obstruction and lift on the same
    DGLA or pair computes no H² and builds no cone, and shares its space."""

    @pytest.mark.parametrize("name", ["obstructed", "heis"])
    def test_single(self, obstruction_work, name):
        ext = small_extension_tower(2)[1]
        T = tensor_dgla(fresh_dgla(name), ext.A)
        x = (T.element_from_labels({"x@t": 1}, 1) if name == "obstructed"
             else rand_mc(random.Random(19), T))
        x = mc_element(T, x)
        obstruction_work["section"] = ext._columns[0]
        cls = obstruction_single(ext, x)
        got = lift_if_unobstructed(ext, x, cls)
        assert cls.is_zero() == (name == "heis")
        assert (got is NO_LIFT) == (name == "obstructed")
        assert obstruction_work["lifts"] == 2
        assert_h2_only(obstruction_work)
        again = obstruction_single(ext, x)
        assert lift_if_unobstructed(ext, x, again) == got
        assert again == cls and again.cohomology is cls.cohomology
        assert obstruction_work["lifts"] == 4
        assert_h2_only(obstruction_work)
        assert_d2_once_per_complex(obstruction_work)

    @pytest.mark.parametrize("name", ["pair_idid_obstructed", "pair_idid_heis"])
    def test_pair(self, obstruction_work, name):
        ext = small_extension_tower(2)[1]
        s = pair_setting(*getattr(lib, name)(), ext.A)
        if name == "pair_idid_obstructed":
            t = mc_triple(s, s.tL.element_from_labels({"x@t": 1}, 1),
                          s.tN.element_from_labels({"x@t": 1}, 1),
                          zero_element(s.tM.space, 0))
        else:
            t = rand_triple(random.Random(39), name, s)
        obstruction_work["section"] = ext._columns[0]
        cls = obstruction_pair(ext, t)
        got = lift_pair_if_unobstructed(ext, t, cls)
        assert cls.is_zero() == (name == "pair_idid_heis")
        assert (got is NO_LIFT) == (name == "pair_idid_obstructed")
        assert obstruction_work["lifts"] == 2 * 3  # x, y and p, twice each
        assert obstruction_work["cones"] == 1
        assert_h2_only(obstruction_work)
        again = obstruction_pair(ext, t)
        assert lift_pair_if_unobstructed(ext, t, again) == got
        assert again == cls and again.cone is cls.cone and again.cohomology is cls.cohomology
        assert obstruction_work["cones"] == 1
        assert_h2_only(obstruction_work)
        assert_d2_once_per_complex(obstruction_work)

    def test_single_tower_walk(self, obstruction_work):
        tower = small_extension_tower(6)
        L = fresh_dgla("heis")
        T = tensor_dgla(L, tower[1].A)
        x = mc_element(T, rand_mc(random.Random(23), T))
        for ext in tower[1:]:
            cls = obstruction_single(ext, x)
            x = lift_if_unobstructed(ext, x, cls)
            assert x is not NO_LIFT and cls.cohomology is L.obstruction_space()
        assert x.tensor.coeff == tower[-1].B
        assert_h2_only(obstruction_work)
        assert_d2_once_per_complex(obstruction_work)

    def test_pair_tower_walk(self, obstruction_work):
        # each lift lives in the B-side setting the step derives, which shares
        # the cone and H² of the setting it came from
        tower = small_extension_tower(6)
        s = pair_setting(*lib.pair_idid_heis(), tower[1].A)
        t = rand_triple(random.Random(29), "pair_idid_heis", s)
        for ext in tower[1:]:
            cls = obstruction_pair(ext, t)
            t = lift_pair_if_unobstructed(ext, t, cls)
            assert t is not NO_LIFT
            assert t.setting.obstruction_space() is s.obstruction_space()
        assert t.setting.coeff == tower[-1].B
        assert obstruction_work["cones"] == 1
        assert_h2_only(obstruction_work)
        assert_d2_once_per_complex(obstruction_work)


def j_parts(T_B, ext, x) -> list[GradedElement]:
    """The factor elements x_j with x = Σ_j x_j ⊗ J_j, by one in_span solve
    per factor basis key."""
    by_key: dict = {}
    for key, c in x.coords.items():
        ldeg, lidx, ai = T_B.from_tensor[key]
        by_key.setdefault((ldeg, lidx), la.zero_vector(ext.B.dim))[ai] = c
    parts: list[dict] = [{} for _ in ext.kernel]
    for lkey, vec in by_key.items():
        coords = la.in_span([list(v) for v in ext.kernel], vec)
        assert coords is not None
        for part, c in zip(parts, coords):
            if c:
                part[lkey] = c
    return [GradedElement(T_B.factor.space, part) for part in parts]


def same_lift(got, again, names) -> bool:
    if got is NO_LIFT or again is NO_LIFT:
        return got is again
    return all(getattr(got, n) == getattr(again, n) for n in names)


class TestKeptObstructionSpaces:
    """Along every tower step up to K[t]/t⁴ → K[t]/t³, on every built-in DGLA
    and pair, the classes and lifts read in the kept obstruction space equal
    those read in a fresh compute_cohomology of a new copy of L's complex or
    of a new cone_pair(h, g): the kept space is that H², its class coordinates
    are those of the cocycle in it, and a fresh DGLA or setting, whose space is
    computed anew, gives the same class and lift."""

    def test_single(self):
        rnd = random.Random(61)
        for name, fn in lib.EXAMPLE_DGLAS.items():
            L = fn()
            for ext in small_extension_tower(3):
                T = tensor_dgla(L, ext.A)
                x = mc_element(T, rand_mc(rnd, T))
                cls = obstruction_single(ext, x)
                got = lift_if_unobstructed(ext, x, cls)
                H = compute_cohomology(ChainComplex(L.space, L.d), (2,))
                assert cls.cohomology == H and cls.cohomology is L.obstruction_space(), name
                T_B = cls.problem[2]
                assert cls.coords == tuple(tuple(H.class_of(part, 2))
                                           for part in j_parts(T_B, ext, cls.cocycle)), name
                L2 = Dgla(ChainComplex(L.space, L.d), L.brackets)
                x2 = mc_element(tensor_dgla(L2, ext.A), x.element)
                cls2 = obstruction_single(ext, x2)
                assert cls2.cohomology is not cls.cohomology and cls2 == cls, name
                assert same_lift(got, lift_if_unobstructed(ext, x2, cls2), ["element"]), name

    def test_pair(self):
        rnd = random.Random(67)
        for name, fn in lib.EXAMPLE_PAIRS.items():
            h, g = fn()
            for ext in small_extension_tower(3):
                s = pair_setting(h, g, ext.A)
                t = rand_triple(rnd, name, s)
                cls = obstruction_pair(ext, t)
                got = lift_pair_if_unobstructed(ext, t, cls)
                cone = cone_pair(h, g)
                H = compute_cohomology(cone.complex, (2,))
                assert cls.cone == cone and cls.cohomology == H, name
                sB = cls.problem[2]
                parts = [j_parts(T_B, ext, c) for T_B, c in zip((sB.tL, sB.tN, sB.tM), cls.cocycle)]
                assert cls.coords == tuple(
                    tuple(H.class_of(cone.embed("L", l) + cone.embed("N", k) + cone.embed("M", r), 2))
                    for l, k, r in zip(*parts)), name
                s2 = pair_setting(h, g, ext.A)
                t2 = mc_triple(s2, t.x, t.y, t.p)
                cls2 = obstruction_pair(ext, t2)
                assert cls2.cone is not cls.cone and cls2 == cls, name
                assert same_lift(got, lift_pair_if_unobstructed(ext, t2, cls2), "xyp"), name


class TestLiftContract:
    """A lift finishes the problem its class was computed for: another input,
    extension or class coordinates are refused; an equal input is not."""

    @staticmethod
    def single():
        ext = small_extension_tower(2)[1]
        T, T_B = tensor_dgla(lib.heis(), ext.A), tensor_dgla(lib.heis(), ext.B)
        x1, x2 = (mc_element(T, rand_mc(random.Random(seed), T)) for seed in (19, 20))
        assert x1 != x2
        return ext, T_B, x1, x2

    @staticmethod
    def pair():
        ext = small_extension_tower(2)[1]
        s = pair_setting(*lib.pair_idid_heis(), ext.A)
        t1, t2 = (rand_triple(random.Random(seed), "pair_idid_heis", s) for seed in (39, 40))
        assert t1 != t2
        return ext, pair_setting(*lib.pair_idid_heis(), ext.B), t1, t2

    @staticmethod
    def other_section(ext):
        # t ↦ t + t² is another lifting section, so another extension
        return replace(ext, section=[[F(1)], [F(1)]])

    def test_class_of_another_element(self):
        ext, _T_B, x1, x2 = self.single()
        with pytest.raises(InconsistentInput):
            lift_if_unobstructed(ext, x2, obstruction_single(ext, x1))

    def test_class_of_another_triple(self):
        ext, _sB, t1, t2 = self.pair()
        with pytest.raises(InconsistentInput):
            lift_pair_if_unobstructed(ext, t2, obstruction_pair(ext, t1))

    def test_class_along_another_extension(self):
        ext, _T_B, x, _x2 = self.single()
        cls = obstruction_single(self.other_section(ext), x)
        assert cls.is_zero()
        with pytest.raises(InconsistentInput):
            lift_if_unobstructed(ext, x, cls)
        ext, _sB, t, _t2 = self.pair()
        cls = obstruction_pair(self.other_section(ext), t)
        with pytest.raises(InconsistentInput):
            lift_pair_if_unobstructed(ext, t, cls)

    def test_tampered_pair_class(self):
        ext = small_extension_tower(2)[1]
        s = pair_setting(*lib.pair_idid_obstructed(), ext.A)
        t = mc_triple(s, s.tL.element_from_labels({"x@t": 1}, 1),
                      s.tN.element_from_labels({"x@t": 1}, 1), zero_element(s.tM.space, 0))
        cls = obstruction_pair(ext, t)
        assert not cls.is_zero()
        zero = tuple(tuple(F(0) for _c in vec) for vec in cls.coords)
        with pytest.raises(InconsistentInput):
            lift_pair_if_unobstructed(ext, t, replace(cls, coords=zero))

    def test_equal_input_built_apart_is_accepted(self):
        ext, T_B, x, _x2 = self.single()
        cls = obstruction_single(ext, x)
        ext2 = small_extension_tower(2)[1]
        T2 = tensor_dgla(lib.heis(), ext2.A)
        x_again = mc_element(T2, GradedElement(T2.space, dict(x.element.coords), 1))
        assert x_again.tensor is not x.tensor
        assert lift_if_unobstructed(ext2, x_again, cls) == lift_if_unobstructed(ext, x, cls)
        ext, sB, t, _t2 = self.pair()
        cls = obstruction_pair(ext, t)
        s2 = pair_setting(*lib.pair_idid_heis(), ext.A)
        t_again = mc_triple(s2, t.x, t.y, t.p)
        assert t_again.setting is not t.setting
        assert lift_pair_if_unobstructed(ext, t_again, cls) == lift_pair_if_unobstructed(ext, t, cls)

    def test_omitted_B_side_is_the_recorded_one(self):
        ext, T_B, x, _x2 = self.single()
        cls = obstruction_single(ext, x, tensor_B=T_B)
        lifted = lift_if_unobstructed(ext, x, cls)
        assert lifted is not NO_LIFT and lifted.tensor is T_B
        assert lifted == lift_if_unobstructed(ext, x, cls, tensor_B=T_B)
        ext, sB, t, _t2 = self.pair()
        cls = obstruction_pair(ext, t, setting_B=sB)
        lifted = lift_pair_if_unobstructed(ext, t, cls)
        assert lifted is not NO_LIFT and lifted.setting is sB
        assert lifted == lift_pair_if_unobstructed(ext, t, cls, setting_B=sB)


class TestObstructionPair:
    def test_idid_obstructed_cocycle_and_no_lift(self):
        ext = small_extension_tower(2)[1]
        h, g = lib.pair_idid_obstructed()
        s = pair_setting(h, g, ext.A)
        t = mc_triple(s, s.tL.element_from_labels({"x@t": 1}, 1),
                      s.tN.element_from_labels({"x@t": 1}, 1),
                      zero_element(s.tM.space, 0))
        cls = obstruction_pair(ext, t)
        assert not cls.is_zero()
        l, k, r = cls.cocycle
        sB = pair_setting(h, g, ext.B)
        assert l == sB.tL.element_from_labels({"y@t^2": 1})
        assert k == sB.tN.element_from_labels({"y@t^2": 1})
        assert r.is_zero()
        assert lift_pair_if_unobstructed(ext, t, cls) is NO_LIFT

    def test_degenerate_sources_class_in_shifted_m(self):
        rnd = random.Random(37)
        ext = small_extension_tower(2)[1]
        h, g = lib.pair_sources_zero()
        s = pair_setting(h, g, ext.A)
        t = rand_triple(rnd, "pair_sources_zero", s)
        cls = obstruction_pair(ext, t)
        # H²(C) = H¹(M) for M = heis; class always zero here (heis lifts freely)
        assert cls.cohomology.dim(2) == compute_cohomology(lib.heis().complex).dim(1)
        assert cls.is_zero()
        lifted = lift_pair_if_unobstructed(ext, t, cls)
        assert lifted is not NO_LIFT and lifted.verified

    def test_completeness_on_builtin_pairs(self):
        rnd = random.Random(39)
        for step in (1, 2):
            ext = small_extension_tower(3)[step]
            for name, fn in lib.EXAMPLE_PAIRS.items():
                s = pair_setting(*fn(), ext.A)
                for _ in range(3):
                    t = rand_triple(rnd, name, s)
                    cls = obstruction_pair(ext, t)
                    got = lift_pair_if_unobstructed(ext, t, cls)
                    if cls.is_zero():
                        assert got is not NO_LIFT and got.verified, name
                    else:
                        assert got is NO_LIFT, name

    def test_abelian_triple_always_smooth(self):
        # (L, M, N) all abelian: every pair obstruction class vanishes
        rnd = random.Random(53)
        for step in small_extension_tower(4):
            s = pair_setting(*lib.pair_inj_abelian(), step.A)
            for _ in range(4):
                t = rand_triple(rnd, "pair_inj_abelian", s)
                cls = obstruction_pair(step, t)
                assert cls.is_zero()
                assert lift_pair_if_unobstructed(step, t, cls) is not NO_LIFT

    def test_cocycle_is_always_a_d_cycle(self):
        # obstruction_pair raises if (l, k, r) fails the D-cycle identity;
        # run it across pairs and extensions to exercise that check
        rnd = random.Random(41)
        ext = small_extension_tower(2)[1]
        for name, fn in lib.EXAMPLE_PAIRS.items():
            s = pair_setting(*fn(), ext.A)
            t = rand_triple(rnd, name, s)
            obstruction_pair(ext, t)

    def test_section_independence(self):
        ext = small_extension_tower(2)[1]
        h, g = lib.pair_idid_obstructed()
        s = pair_setting(h, g, ext.A)
        t = mc_triple(s, s.tL.element_from_labels({"x@t": 1}, 1),
                      s.tN.element_from_labels({"x@t": 1}, 1),
                      zero_element(s.tM.space, 0))
        alt = [[F(1)], [F(-2)]]  # t ↦ t − 2t²
        cls1 = obstruction_pair(ext, t)
        cls2 = obstruction_pair(replace(ext, section=alt), t)
        assert cls1.coords == cls2.coords

    def test_unverified_triple_rejected(self):
        ext = small_extension_tower(2)[1]
        h, g = lib.pair_idid_obstructed()
        s = pair_setting(h, g, ext.A)
        from mcdeform.maurer_cartan import McTriple
        t = McTriple(s, zero_element(s.tL.space, 1), zero_element(s.tN.space, 1),
                     zero_element(s.tM.space, 0), False)
        with pytest.raises(NotVerifiedTriple):
            obstruction_pair(ext, t)


class TestGaugeEquivDecide:
    def test_round_trip(self):
        rnd = random.Random(43)
        for L, A in ((lib.heis(), lib.artin_kt(4)),
                     (lib.endo_acyclic(), lib.artin_kt(3))):
            T = tensor_dgla(L, A)
            for _ in range(6):
                x = mc_element(T, rand_mc(rnd, T))
                a = rand_elem(rnd, T, 0)
                y = mc_element(T, gauge_apply(T, a, x.element))
                res = gauge_equiv_decide(x, y)
                assert isinstance(res, Equivalent)
                assert gauge_apply(T, res.witness, x.element) == y.element

    def test_abelian_square_zero_exact(self):
        # x ~ y iff x − y ∈ dL⁰ ⊗ m_A, decided exactly
        T = tensor_dgla(lib.acyclic(), lib.artin_square_zero())
        x = mc_element(T, T.element_from_labels({"v@x": 1}, 1))
        y = mc_element(T, zero_element(T.space, 1))
        assert isinstance(gauge_equiv_decide(x, y), Equivalent)
        z = mc_element(T, T.element_from_labels({"v@x": 1, "v@y": 5}, 1))
        assert isinstance(gauge_equiv_decide(x, z), Equivalent)

    def test_level_one_certificate(self):
        T = tensor_dgla(lib.obstructed(), lib.artin_kt(2))
        x = mc_element(T, T.element_from_labels({"x@t": 1}, 1))
        y = mc_element(T, T.element_from_labels({"x@t": 2}, 1))
        res = gauge_equiv_decide(x, y)
        assert isinstance(res, NotEquivalent)

    def test_same_element(self):
        T = tensor_dgla(lib.obstructed(), lib.artin_kt(2))
        x = mc_element(T, T.element_from_labels({"x@t": 1}, 1))
        assert isinstance(gauge_equiv_decide(x, x), Equivalent)

    def test_budget_has_no_effect(self):
        # a search budget of one node once left this case Undecided; the
        # per-level linear decision has no budget and finds the witness
        rnd = random.Random(45)
        T = tensor_dgla(lib.heis(), lib.artin_kt(4))
        x = mc_element(T, rand_mc(rnd, T))
        a = rand_elem(rnd, T, 0)
        y = mc_element(T, gauge_apply(T, a, x.element))
        res = gauge_equiv_decide(x, y, budget=1)
        assert isinstance(res, Equivalent)
        assert gauge_apply(T, res.witness, x.element) == y.element
        assert res == gauge_equiv_decide(x, y)

    def test_cancellation(self):
        rnd = random.Random(47)
        T = tensor_dgla(lib.heis(), lib.artin_kt(4))
        x = mc_element(T, rand_mc(rnd, T))
        y = mc_element(T, gauge_apply(T, rand_elem(rnd, T, 0), x.element))
        res = gauge_equiv_decide(x, y, cancel=lambda: True)
        assert isinstance(res, Undecided)

    def test_base_mismatch(self):
        T1 = tensor_dgla(lib.heis(), lib.artin_kt(2))
        T2 = tensor_dgla(lib.heis(), lib.artin_kt(3))
        x = mc_element(T1, zero_element(T1.space, 1))
        y = mc_element(T2, zero_element(T2.space, 1))
        with pytest.raises(BaseMismatch):
            gauge_equiv_decide(x, y)


class TestTangent:
    def test_abelian2_shift_zero(self):
        assert tangent_dim_single(lib.abelian2(), 0) == 2

    def test_all_singles_consistent(self):
        # tangent_dim_single asserts the two computations agree internally
        for name, fn in lib.EXAMPLE_DGLAS.items():
            for n in (-1, 0, 1):
                tangent_dim_single(fn(), n)

    def test_degenerate_pair_dims(self):
        h, g = lib.pair_sources_zero()
        H_m = compute_cohomology(lib.heis().complex)
        assert tangent_dim_pair(h, g, 0) == H_m.dim(0)

    def test_m_zero_pair_sum(self):
        h, g = lib.pair_m_zero()
        want = (compute_cohomology(lib.heis0().complex).dim(1)
                + compute_cohomology(lib.abelian2().complex).dim(1))
        assert tangent_dim_pair(h, g, 0) == want

    def test_all_pairs_consistent(self):
        for name, fn in lib.EXAMPLE_PAIRS.items():
            for n in (-1, 0, 1):
                tangent_dim_pair(*fn(), n)


class TestPsiAndMisc:
    def test_psi_zero(self):
        from mcdeform.path_object import psi_fiber_to_pair
        h, g = lib.pair_idid_heis()
        s = pair_setting(h, g, lib.artin_kt(3))
        t = psi_fiber_to_pair(s, zero_element(s.tL.space, 1), zero_element(s.tN.space, 1))
        assert t.verified and t.p.is_zero()

    def test_psi_identity_diagonal(self):
        from mcdeform.path_object import psi_fiber_to_pair
        rnd = random.Random(49)
        h, g = lib.pair_idid_heis()
        s = pair_setting(h, g, lib.artin_kt(3))
        x = rand_mc(rnd, s.tL)
        t = psi_fiber_to_pair(s, x, x)
        assert t.verified

    def test_psi_mismatch_carries_difference(self):
        from mcdeform.path_object import psi_fiber_to_pair
        h, g = lib.pair_idid_heis()
        s = pair_setting(h, g, lib.artin_kt(3))
        x = s.tL.element_from_labels({"x@t": 1}, 1)
        with pytest.raises(NotInFiberProduct) as exc:
            psi_fiber_to_pair(s, x, zero_element(s.tN.space, 1))
        assert exc.value.difference is not None
        assert not exc.value.difference.is_zero()
