import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
    compute_cohomology,
    direct_sum,
    element_from_labels,
    graded_map_to_hom_element,
    hom_basis,
    hom_complex,
    htp_complex,
    identity_map,
    kernel_subcomplex,
    map_from_basis_images,
    shift,
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

    def test_projection_kills_boundaries(self):
        rnd = random.Random(3)
        cx = two_term_identity()
        H = compute_cohomology(cx)
        for _ in range(10):
            v = GradedElement(cx.space, {(0, 0): F(rnd.randint(-5, 5))}, 0)
            b = cx.d.apply(v)
            assert all(c == 0 for c in H.project_vector(1, b.component_vector(1)))

    def test_projection_inclusion_identity(self):
        s = GradedSpace(1, 2, {1: ("x1", "x2"), 2: ("y",)})
        H = compute_cohomology(ChainComplex(s, GradedMap(s, s, 1, {})))
        for j, rep in enumerate(H.representatives[1]):
            coords = H.project_vector(1, rep.component_vector(1))
            assert coords == la.unit_vector(H.dim(1), j)


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
        got = H.project_vector(i + 1, b.component_vector(i + 1))
        assert all(c == 0 for c in got)


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
    total, [(inc_v, proj_v), (inc_w, proj_w)] = direct_sum([("0", acy), ("1", pt)])
    assert total.space.dim(0) == 2 and total.space.dim(1) == 1
    u = basis_element(acy.space, 0, 0)
    assert proj_v.apply(inc_v.apply(u)) == u
    assert proj_w.apply(inc_v.apply(u)).is_zero()
    assert total.d.compose(inc_v) == inc_v.compose(acy.d)


def test_block_sum_with_offsets_splits_the_identity():
    acy = two_term_identity().space
    pt = GradedSpace(0, 0, {0: ("w",)})
    parts = [("A", acy, 0), ("B", pt, 1), ("C", acy, -1)]
    total, maps = block_sum(parts)
    assert total.labels(0) == ("A:u", "C:v")
    assert total.labels(1) == ("A:v", "B:w")
    assert total.labels(-1) == ("C:u",)
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
    total, [(embed, project)] = block_sum([("E", empty, 1)])
    assert total == GradedSpace(0, 0, {})
    assert embed.is_zero() and project.is_zero()


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
