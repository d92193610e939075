import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from mcdeform import linalg as la
from mcdeform.dgla import endomorphism_dgla, koszul_sign
from mcdeform.errors import (
    DegreeWindowViolation,
    DifferentialNotSquareZero,
    InvalidInput,
    WindowTooSmall,
)
from mcdeform.graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    GradedSpace,
    basis_element,
    block_sum,
    cohomology_dims,
    compute_cohomology,
    direct_sum,
    element_from_labels,
    element_from_vector,
    graded_map_to_hom_element,
    hom_basis,
    hom_complex,
    htp_complex,
    identity_map,
    kernel_subcomplex,
    map_from_basis_images,
    map_from_images,
    shift,
    zero_element,
)

F = Fraction


def two_term_identity():
    """K → K with d the identity."""
    s = GradedSpace(0, 1, {0: ("u",), 1: ("v",)})
    d = map_from_basis_images(s, s, 1, {"u": basis_element(s, 1, 0)})
    return ChainComplex(s, d)


def point_complex():
    s = GradedSpace(0, 0, {0: ("k",)})
    return ChainComplex(s, GradedMap(s, s, 1, {}))


class TestSpaceAndElements:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(InvalidInput):
            GradedSpace(0, 1, {0: ("a",), 1: ("a",)})

    def test_basis_outside_window_rejected(self):
        with pytest.raises(DegreeWindowViolation):
            GradedSpace(0, 1, {2: ("a",)})

    def test_declared_degree_enforced(self):
        s = GradedSpace(0, 1, {0: ("a",), 1: ("b",)})
        with pytest.raises(DegreeWindowViolation):
            GradedElement(s, {(0, 0): F(1)}, degree=1)

    def test_element_arithmetic(self):
        s = GradedSpace(0, 0, {0: ("a", "b")})
        x = element_from_labels(s, {"a": 1, "b": 2})
        y = element_from_labels(s, {"a": "1/2"})
        assert (x - y + y) == x
        assert (2 * y) == element_from_labels(s, {"a": 1})
        assert (x - x).is_zero()
        assert (x - x).coords == {} and x.scale(0).coords == {}
        assert (x + y).coords == {(0, 0): F(3, 2), (0, 1): F(2)}

    @pytest.mark.parametrize("key", [
        (0, -1),    # would alias the last label of degree 0
        (0, 2),     # one past the last label
        (5, -1),    # outside the degree window
        (5, 0),
        (0, 0.5),   # not an index
        (0.0, 1),   # not a degree
        (0, True),  # a bool is not an index
        (False, 0),
        (0,),       # not a pair
        (0, 0, 0),
        "a",
    ])
    def test_only_basis_keys_are_accepted(self, key):
        s = GradedSpace(0, 1, {0: ("a", "b"), 1: ("c",)})
        with pytest.raises(InvalidInput):
            GradedElement(s, {key: 1})
        with pytest.raises(InvalidInput):  # also with a zero coefficient
            GradedElement(s, {key: 0})

    def test_the_last_label_has_one_key(self):
        s = GradedSpace(0, 1, {0: ("a", "b"), 1: ("c",)})
        x = GradedElement(s, {(0, 1): 1})
        assert x.pretty() == "b" and x == element_from_labels(s, {"b": 1})


class TestGradedMap:
    def test_block_outside_window_rejected(self):
        s = GradedSpace(0, 1, {0: ("a",), 1: ("b",)})
        # degree +1 block from degree 1 would land at degree 2: no room
        with pytest.raises(DegreeWindowViolation):
            GradedMap(s, s, 1, {1: [[F(1)]]})

    def test_compose_and_apply(self):
        cx = two_term_identity()
        d = cx.d
        assert d.compose(d).is_zero()
        u = basis_element(cx.space, 0, 0)
        assert d.apply(u) == basis_element(cx.space, 1, 0)

    def test_identity_map(self):
        cx = two_term_identity()
        i = identity_map(cx.space)
        assert i.compose(cx.d) == cx.d

    def test_map_from_images_refuses_keys_outside_the_source(self):
        s = GradedSpace(0, 1, {0: ("u",), 1: ("v",)})
        v = basis_element(s, 1, 0)
        # (0, −1) is no second name of (0, 0); (0, 5) and (7, 0) are no basis keys
        for key in [(0, -1), (0, 5), (7, 0), (0, 0, 0), (0, F(0)), (True, 0), "u"]:
            with pytest.raises(InvalidInput):
                map_from_images(s, s, 1, {key: v})
        assert map_from_images(s, s, 1, {(0, 0): v}) == two_term_identity().d

    def test_map_from_images_refuses_images_outside_the_target(self):
        s = GradedSpace(0, 1, {0: ("u",), 1: ("v",)})
        wide = GradedSpace(0, 1, {0: ("u",), 1: ("v", "w")})
        same_shape = GradedSpace(0, 1, {0: ("a",), 1: ("b",)})
        for img in [basis_element(wide, 1, 1), basis_element(same_shape, 1, 0), F(1), None]:
            with pytest.raises(InvalidInput):
                map_from_images(s, s, 1, {(0, 0): img})
        with pytest.raises(DegreeWindowViolation):  # a term in degree 0, not 0 + 1
            map_from_images(s, s, 1, {(0, 0): basis_element(s, 0, 0)})

    def test_the_map_is_its_nonzero_columns(self):
        s = GradedSpace(0, 1, {0: ("u", "w"), 1: ("v", "z")})
        f = GradedMap(s, s, 1, {0: [[F(0), F(2)], [F(0), F(0)]]})
        assert f.cols == {0: {1: {0: F(2)}}}
        assert f.blocks == {0: [[F(0), F(2)], [F(0), F(0)]]}
        assert (f - f).cols == f.scale(0).cols == f.compose(f).cols == {}
        m = f.matrix(0)
        m[0][0] = F(5)  # a view: writing it leaves the map as it is
        assert f.matrix(0) == [[F(0), F(2)], [F(0), F(0)]]
        with pytest.raises(AttributeError):
            f.degree = 0


class TestCohomology:
    def test_acyclic_identity(self):
        H = compute_cohomology(two_term_identity())
        assert H.dim(0) == 0 and H.dim(1) == 0

    def test_zero_differential(self):
        s = GradedSpace(0, 2, {0: ("a",), 1: ("b", "c"), 2: ("e",)})
        H = compute_cohomology(ChainComplex(s, GradedMap(s, s, 1, {})))
        for i in s.degrees():
            assert H.dim(i) == s.dim(i)

    def test_truncated_line_factor(self):
        # H⁰ one-dimensional (constants), H¹ = 0, for N in {1,2,3}
        from mcdeform.path_object import truncated_line_complex
        for N in (1, 2, 3):
            H = compute_cohomology(truncated_line_complex(N))
            assert H.dim(0) == 1 and H.dim(1) == 0
            rep = H.representatives[0][0]
            assert rep == basis_element(rep.space, 0, 0)  # the constant t^0

    def test_d_squared_error(self):
        s = GradedSpace(0, 2, {0: ("u",), 1: ("v",), 2: ("w",)})
        d = map_from_basis_images(s, s, 1, {
            "u": basis_element(s, 1, 0), "v": basis_element(s, 2, 0)})
        with pytest.raises(DifferentialNotSquareZero):
            compute_cohomology(ChainComplex(s, d))

    def test_d_squared_success_is_kept_and_failure_is_not(self, monkeypatch):
        from mcdeform.dgla import Dgla, validate_dgla
        checks = []
        real = ChainComplex.d_squared_witnesses

        def counting(cx):
            checks.append(cx)
            return real(cx)
        monkeypatch.setattr(ChainComplex, "d_squared_witnesses", counting)
        good = two_term_identity()
        for _ in range(3):
            good.require_d_squared_zero()
            compute_cohomology(good, (0,))
        assert checks == [good]
        # d² ≠ 0 on u and u2: every call raises, and every call lists both
        s = GradedSpace(0, 2, {0: ("u", "u2"), 1: ("v",), 2: ("w",)})
        v, w = basis_element(s, 1, 0), basis_element(s, 2, 0)
        bad = ChainComplex(s, map_from_basis_images(s, s, 1, {"u": v, "u2": v, "v": w}))
        for _ in range(2):
            with pytest.raises(DifferentialNotSquareZero, match=r"\['u', 'u2'\]"):
                bad.require_d_squared_zero()
            with pytest.raises(DifferentialNotSquareZero):
                compute_cohomology(bad, (2,))
            assert [(v.axiom, v.witness) for v in validate_dgla(Dgla(bad))] == [
                ("d_squared", ("u",)), ("d_squared", ("u2",))]
        assert checks.count(bad) == 6

    def test_projection_kills_boundaries(self):
        rnd = random.Random(3)
        cx = two_term_identity()
        H = compute_cohomology(cx)
        for _ in range(10):
            v = GradedElement(cx.space, {(0, 0): F(rnd.randint(-5, 5))}, 0)
            b = cx.d.apply(v)
            assert all(c == 0 for c in H.class_of(b, 1))
            assert H.h(1).apply(b) == v

    def test_projection_inclusion_identity(self):
        s = GradedSpace(1, 2, {1: ("x1", "x2"), 2: ("y",)})
        H = compute_cohomology(ChainComplex(s, GradedMap(s, s, 1, {})))
        for j, rep in enumerate(H.representatives[1]):
            coords = H.class_of(rep, 1)
            assert coords == la.unit_vector(H.dim(1), j)
            assert H.class_of(rep) == coords

    def test_class_of_refuses_an_element_that_is_not_a_cycle(self):
        from mcdeform import library as lib
        from mcdeform.dgla import cone_pair
        # d is zero on the obstructed DGLA, so its non-cycle is one of its
        # (id, id) cone; acyclic's u has d u = v
        L = lib.acyclic()
        u = basis_element(L.space, 0, 0)
        for H in (compute_cohomology(L.complex), compute_cohomology(L.complex, (0,))):
            for x, degree in ((u, None), (u + u, 0), (u + L.d.apply(u), 0)):
                with pytest.raises(InvalidInput, match="not a cycle in degree 0"):
                    H.class_of(x, degree)
        cone = cone_pair(*lib.pair_idid_obstructed()).complex
        Hc = compute_cohomology(cone)
        refused = []
        for i in cone.space.degrees():
            for q in range(cone.space.dim(i)):
                e = basis_element(cone.space, i, q)
                if cone.d.apply(e).coords:
                    with pytest.raises(InvalidInput, match="not a cycle"):
                        Hc.class_of(e)
                    refused.append(i)
                else:
                    assert Hc.class_of(e) == ref.mat_vec(ref.projection(cone, i),
                                                         e.component_vector(i))
        assert 1 in refused
        assert cone.d._ints is None  # class_of keeps nothing on the complex it reads


def random_decomposed_complex(rnd: random.Random):
    """Random complex assembled from acyclic pairs and free generators, then
    base-changed; the known cohomology dims are the free-generator counts."""
    dmin, dmax = -1, 2
    free = {i: rnd.randint(0, 2) for i in range(dmin, dmax + 1)}
    pairs = {i: rnd.randint(0, 2) for i in range(dmin, dmax)}
    basis = {}
    for i in range(dmin, dmax + 1):
        labels = [f"f{i}_{k}" for k in range(free[i])]
        labels += [f"a{i}_{k}" for k in range(pairs.get(i, 0))]
        labels += [f"b{i}_{k}" for k in range(pairs.get(i - 1, 0))]
        if labels:
            basis[i] = tuple(labels)
    space = GradedSpace(dmin, dmax, basis)
    images = {}
    for i in range(dmin, dmax):
        for k in range(pairs.get(i, 0)):
            images[f"a{i}_{k}"] = element_from_labels(space, {f"b{i+1}_{k}": 1}, i + 1)
    d = map_from_basis_images(space, space, 1, images)
    cx = ChainComplex(space, d)

    # random integer base change per degree (products of shear matrices)
    blocks = {}
    for i in space.degrees():
        n = space.dim(i)
        if n == 0:
            continue
        m = la.identity(n)
        for _ in range(4):
            r, c = rnd.randrange(n), rnd.randrange(n)
            if r != c:
                add = la.identity(n)
                add[r][c] = F(rnd.randint(-2, 2))
                m = la.mat_mul(add, m)
        blocks[i] = m
    change = GradedMap(space, space, 0, blocks)
    inv_blocks = {i: la.inverse(b) for i, b in blocks.items()}
    inverse = GradedMap(space, space, 0, inv_blocks)
    new_d = change.compose(cx.d).compose(inverse)
    return ChainComplex(space, GradedMap(space, space, 1, new_d.blocks)), free


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_cohomology_of_random_decomposed_complexes(seed):
    rnd = random.Random(seed)
    cx, free = random_decomposed_complex(rnd)
    H = compute_cohomology(cx)
    assert cohomology_dims(cx) == H.dims
    for i in cx.space.degrees():
        assert H.dim(i) == free.get(i, 0)
        # rank-nullity bookkeeping per degree
        r_i = cx.d.rank(i)
        r_prev = cx.d.rank(i - 1)
        assert r_i + H.dim(i) + r_prev == cx.space.dim(i)
    euler_space = sum((-1) ** i * cx.space.dim(i) for i in cx.space.degrees())
    euler_h = sum((-1) ** i * H.dim(i) for i in cx.space.degrees())
    assert euler_space == euler_h


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_projection_kills_random_boundaries(seed):
    rnd = random.Random(seed)
    cx, _free = random_decomposed_complex(rnd)
    H = compute_cohomology(cx)
    for i in cx.space.degrees():
        coords = {(i, k): F(rnd.randint(-3, 3)) for k in range(cx.space.dim(i))}
        b = cx.d.apply(GradedElement(cx.space, coords, i))
        got = H.class_of(b, i + 1)
        assert all(c == 0 for c in got)
        assert got == ref.mat_vec(ref.projection(cx, i + 1), b.component_vector(i + 1))


def assert_restricted_cohomology_matches(cx: ChainComplex) -> None:
    """compute_cohomology(cx, (i,)) is the degree-i slice of the full result,
    and refuses every other degree of the window."""
    H = compute_cohomology(cx)
    window = list(cx.space.degrees())
    for i in window:
        R = compute_cohomology(cx, (i,))
        assert R.dims == {i: H.dims[i]}
        assert R.representatives == {i: H.representatives[i]}
        assert R.p == {i: H.p[i]}
        assert R.h(i).cols == H.h(i).cols
        assert R.dim(i) == H.dim(i)
        for j in window:
            if j == i:
                continue
            zero = GradedElement(cx.space, {}, j)
            for ask in (lambda: R.dim(j), lambda: R.representative(j, 0),
                        lambda: R.class_of(zero, degree=j), lambda: R.h(j)):
                with pytest.raises(InvalidInput):
                    ask()
        if len(window) > 1:
            with pytest.raises(InvalidInput):
                R.total_dim()
        # outside the window every degree still reads 0
        assert R.dim(window[0] - 1) == 0 and R.dim(window[-1] + 1) == 0
        assert R.class_of(GradedElement(cx.space, {}), degree=window[-1] + 1) == []
        assert R.h(window[-1] + 1).cols == R.h(window[0] - 1).cols == {}


class TestRestrictedCohomology:
    def test_builtin_dglas(self):
        from mcdeform import library as lib
        for fn in lib.EXAMPLE_DGLAS.values():
            assert_restricted_cohomology_matches(fn().complex)

    def test_example_pair_cones(self):
        from mcdeform import library as lib
        from mcdeform.dgla import cone_pair
        for fn in lib.EXAMPLE_PAIRS.values():
            assert_restricted_cohomology_matches(cone_pair(*fn()).complex)

    def test_truncated_h_at_n_1(self):
        from mcdeform import library as lib
        from mcdeform.path_object import TruncationWindow, truncated_H_complex
        for fn in lib.EXAMPLE_PAIRS.values():
            sub, _embed = truncated_H_complex(*fn(), TruncationWindow(1))
            assert_restricted_cohomology_matches(sub)

    def test_several_degrees_and_degrees_outside_the_window(self):
        cx = two_term_identity()
        H = compute_cohomology(cx, (0, 1, 7))
        assert H.dims == compute_cohomology(cx).dims
        assert H.total_dim() == 0
        assert compute_cohomology(cx, ()).dims == {}

    def test_d_squared_checked_outside_the_asked_degrees(self):
        s = GradedSpace(0, 2, {0: ("u",), 1: ("v",), 2: ("w",)})
        d = map_from_basis_images(s, s, 1, {
            "u": basis_element(s, 1, 0), "v": basis_element(s, 2, 0)})
        with pytest.raises(DifferentialNotSquareZero):
            compute_cohomology(ChainComplex(s, d), (2,))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_restricted_cohomology_of_random_complexes(seed):
    cx, _free = random_decomposed_complex(random.Random(seed))
    assert_restricted_cohomology_matches(cx)


def p_of(H, i: int, x: GradedElement) -> list:
    """p(x) read off H.p at degree i, for any x (class_of reads cycles only)."""
    return [sum((c * row.get(q, 0) for (deg, q), c in x.coords.items() if deg == i), F(0))
            for row in H.p.get(i, ())]


def assert_contraction(cx: ChainComplex) -> None:
    """The (i, p, h) of compute_cohomology(cx) is a contraction in every degree:
    id − ip = dh + hd, h² = 0, hi = 0 and ph = 0 on every basis vector; and p
    is the reference projection on every cycle, and as a matrix."""
    H, d, space = compute_cohomology(cx), cx.d, cx.space
    for i in space.degrees():
        h = H.h(i)
        assert h.degree == -1 and set(h.cols) <= {i} and H.h(i) is h
        for q in range(space.dim(i)):
            e = basis_element(space, i, q)
            ip = zero_element(space, i)
            for c, rep in zip(p_of(H, i, e), H.representatives[i]):
                ip = ip + c * rep
            assert e - ip == d.apply(h.apply(e)) + H.h(i + 1).apply(d.apply(e))
            assert not H.h(i - 1).apply(h.apply(e)).coords
            assert not any(p_of(H, i - 1, h.apply(e)))
        assert not any(h.apply(rep).coords for rep in H.representatives[i])
        projection = ref.projection(cx, i)
        for z in la.nullspace(d.matrix(i), cols=space.dim(i)) if space.dim(i) else []:
            assert H.class_of(element_from_vector(space, i, z)) == ref.mat_vec(projection, z)
        # C, the unit vectors at the pivots of d_i, is the greedy completion the
        # reference takes, so the rows are equal off the cycles too
        assert [[row.get(q, 0) for q in range(space.dim(i))] for row in H.p[i]] == projection


def contraction_cases():
    from mcdeform import library as lib
    from mcdeform.dgla import cone_pair
    from test_kernel_oracles import CONE_CASES, end_complex
    for name, fn in sorted(lib.EXAMPLE_DGLAS.items()):
        yield name, lambda fn=fn: fn().complex
    for k in (1, 2):
        for dense in (False, True):
            yield (f"End(V{k}):{'dense' if dense else 'sparse'}",
                   lambda k=k, dense=dense: endomorphism_dgla(end_complex(k, dense)).complex)
    for name, pair in CONE_CASES.items():
        yield f"cone:{name}", lambda pair=pair: cone_pair(*pair).complex


CONTRACTION_CASES = dict(contraction_cases())


@pytest.mark.parametrize("name", sorted(CONTRACTION_CASES))
def test_cohomology_is_a_contraction(name):
    assert_contraction(CONTRACTION_CASES[name]())


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_cohomology_of_random_complexes_is_a_contraction(seed):
    assert_contraction(random_decomposed_complex(random.Random(seed))[0])


def rand_complex(rnd: random.Random, tag: str) -> ChainComplex:
    """Small complex with a random window, dimensions and differential (d² need
    not vanish); every label holds one '>' and a ':'."""
    dmin = rnd.randint(-2, 1)
    dmax = dmin + rnd.randint(0, 2)
    space = GradedSpace(dmin, dmax, {
        i: tuple(f"{tag}>{i}:{p}" for p in range(rnd.randint(1 if i == dmin else 0, 2)))
        for i in range(dmin, dmax + 1)})
    blocks = {i: [[F(rnd.randint(-2, 2)) for _ in range(space.dim(i))]
                  for _ in range(space.dim(i + 1))] for i in space.degrees()}
    return ChainComplex(space, GradedMap(space, space, 1, blocks))


def elementary_maps(sv: GradedSpace, sw: GradedSpace, n: int) -> list[GradedMap]:
    """The elementary maps of Hom^n(V, W) as graded maps, in hom_basis order."""
    maps = []
    for i, p, q in hom_basis(sv, sw, n):
        block = la.zeros(sw.dim(i + n), sv.dim(i))
        block[q][p] = F(1)
        maps.append(GradedMap(sv, sw, n, {i: block}))
    return maps


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_hom_differential_is_d_w_e_minus_signed_e_d_v(seed):
    rnd = random.Random(seed)
    V, W = rand_complex(rnd, "v"), rand_complex(rnd, "w")
    hom = hom_complex(V, W)
    for n in hom.space.degrees():
        sign = 1 if n % 2 == 0 else -1
        elems = zip(hom_basis(V.space, W.space, n), elementary_maps(V.space, W.space, n))
        for k, ((i, p, q), E) in enumerate(elems):
            assert hom.space.label(n, k) == f"{V.space.label(i, p)}>{W.space.label(i + n, q)}"
            e = graded_map_to_hom_element(E, hom)
            assert e == basis_element(hom.space, n, k)
            want = W.d.compose(E) - E.compose(V.d).scale(sign)
            assert hom.d.apply(e) == graded_map_to_hom_element(want, hom)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_end_bracket_is_the_graded_commutator(seed):
    V = rand_complex(random.Random(seed), "v")
    end = endomorphism_dgla(V)
    elems = [(basis_element(end.space, n, k), E) for n in end.space.degrees()
             for k, E in enumerate(elementary_maps(V.space, V.space, n))]
    for a, A in elems:
        for b, B in elems:
            want = A.compose(B) - B.compose(A).scale(koszul_sign(A.degree, B.degree))
            assert end.bracket(a, b) == graded_map_to_hom_element(want, end.complex)


class TestHom:
    def test_point_hom(self):
        cx = point_complex()
        hom = hom_complex(cx, cx)
        assert hom.space.dim(0) == 1
        assert hom.d.is_zero()

    def test_hom_acyclic_source(self):
        hom = hom_complex(two_term_identity(), point_complex())
        H = compute_cohomology(hom)
        for i in hom.space.degrees():
            assert H.dim(i) == 0

    def test_hom_differential_squares_to_zero(self):
        acy = two_term_identity()
        hom = hom_complex(acy, acy)
        assert hom.d.compose(hom.d).is_zero()

    def test_chain_map_is_hom_cycle(self):
        acy = two_term_identity()
        hom = hom_complex(acy, acy)
        f = graded_map_to_hom_element(identity_map(acy.space), hom)
        assert hom.d.apply(f).is_zero()

    def test_window_too_small(self):
        cx = point_complex()
        with pytest.raises(WindowTooSmall):
            hom_complex(cx, cx, window=(5, 7))

    def test_clipping_window_rejected(self):
        acy = two_term_identity()
        with pytest.raises(DegreeWindowViolation):
            hom_complex(acy, acy, window=(-1, 0))

    def test_htp_degree_bookkeeping(self):
        acy = two_term_identity()
        htp = htp_complex(acy, acy)
        # Htp^i = Hom^{i−1}: the degree-0 identity now sits in degree 1
        assert htp.space.dim(1) == 2


class TestShift:
    def test_shift_zero_identity(self):
        cx = two_term_identity()
        assert shift(cx, 0) == cx

    def test_shift_round_trip(self):
        cx = two_term_identity()
        assert shift(shift(cx, 3), -3) == cx

    def test_shift_sign(self):
        cx = two_term_identity()
        sh = shift(cx, 1)
        assert sh.space.dim(-1) == 1  # u moved to degree −1
        u = basis_element(sh.space, -1, 0)
        assert sh.d.apply(u) == -basis_element(sh.space, 0, 0)


def test_direct_sum_round_trip():
    acy = two_term_identity()
    s = GradedSpace(0, 0, {0: ("w",)})
    pt = ChainComplex(s, GradedMap(s, s, 1, {}))
    total, layout = direct_sum([("0", acy), ("1", pt)])
    maps = ref.block_sum([("0", acy.space, 0), ("1", s, 0)])[1]
    assert ref.placed_maps(total.space, layout) == maps
    [(inc_v, proj_v), (inc_w, proj_w)] = maps
    assert total.space.dim(0) == 2 and total.space.dim(1) == 1
    u = basis_element(acy.space, 0, 0)
    assert proj_v.apply(inc_v.apply(u)) == u
    assert proj_w.apply(inc_v.apply(u)).is_zero()
    assert total.d.compose(inc_v) == inc_v.compose(acy.d)


def test_block_sum_with_offsets_splits_the_identity():
    acy = two_term_identity().space
    pt = GradedSpace(0, 0, {0: ("w",)})
    parts = [("A", acy, 0), ("B", pt, 1), ("C", acy, -1)]
    total, layout = block_sum(parts)
    assert total.labels(0) == ("A:u", "C:v")
    assert total.labels(1) == ("A:v", "B:w")
    assert total.labels(-1) == ("C:u",)
    assert layout == {"A": (acy, 0, {0: 0, 1: 0}), "B": (pt, 1, {0: 1}),
                      "C": (acy, -1, {0: 0, 1: 1})}
    maps = ref.block_sum(parts)[1]
    assert ref.placed_maps(total, layout) == maps
    for k, ((_n, space, _off), (embed, _p)) in enumerate(zip(parts, maps)):
        for j, (_n2, other, _off2) in enumerate(parts):
            through = maps[j][1].compose(embed)
            if j == k:
                assert through == identity_map(space)
            else:
                assert through.is_zero() and through.target == other
    whole = maps[0][0].compose(maps[0][1])
    for embed, project in maps[1:]:
        whole = whole + embed.compose(project)
    assert whole == identity_map(total)


def test_block_sum_of_empty_parts_is_the_zero_space():
    empty = GradedSpace(-2, 3, {})
    total, layout = block_sum([("E", empty, 1)])
    assert total == GradedSpace(0, 0, {}) and layout == {"E": (empty, 1, {})}
    [(embed, project)] = ref.block_sum([("E", empty, 1)])[1]
    assert embed.is_zero() and project.is_zero()
    assert ref.placed_maps(total, layout) == [(embed, project)]


def test_block_sum_refuses_a_repeated_name():
    a, b = GradedSpace(0, 0, {0: ("x",)}), GradedSpace(0, 0, {0: ("y",)})
    with pytest.raises(InvalidInput, match="repeated part name 'P'"):
        block_sum([("P", a, 0), ("P", b, 0)])
    with pytest.raises(InvalidInput):
        direct_sum([("P", ChainComplex(a, GradedMap(a, a, 1, {}))),
                    ("P", ChainComplex(b, GradedMap(b, b, 1, {})))])


def test_kernel_subcomplex_restrict_is_exact():
    acy = two_term_identity()
    # constraint: kill the u-coordinate; what remains is v alone (d-closed)
    target = GradedSpace(0, 0, {0: ("c",)})
    kill_u = map_from_basis_images(acy.space, target, 0, {"u": basis_element(target, 0, 0)})
    sub, embed, restrict = kernel_subcomplex(acy, [kill_u], "K")
    assert sub.space.labels(1) == ("K1_0",) and sub.space.dim(0) == 0
    v = basis_element(acy.space, 1, 0)
    assert embed.apply(restrict(v)) == v
    with pytest.raises(InvalidInput):
        restrict(basis_element(acy.space, 0, 0))


def test_kernel_subcomplex_must_be_d_closed():
    acy = two_term_identity()
    target = GradedSpace(1, 1, {1: ("c",)})
    kill_v = map_from_basis_images(acy.space, target, 0, {"v": basis_element(target, 1, 0)})
    with pytest.raises(InvalidInput):
        kernel_subcomplex(acy, [kill_v], "K")  # d(u) = v leaves the kernel
