"""The integer bracket kept on a DGLA and the integer columns each map keeps,
the kept solution map of d¹ and the integer columns of a small extension,
the pair maps of a pair setting, the integer gauge and BCH series, the
in-place block assembly of cones and of the maps between direct sums, graded
maps kept as their nonzero columns, the tensor DGLA built from its factors,
and the coefficient-algebra axioms checked over the structure constants, each
compared for equality with the direct construction it replaces
(tests/reference_kernels.py); and the cohomology dimensions counted from
ranks, compared with those of the full cohomology."""

import gc
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import mutations
import reference_kernels as ref
from mcdeform import artin, dgla, graded, maurer_cartan, path_object
from mcdeform import library as lib
from mcdeform import linalg as la
from mcdeform.artin import (
    CoefficientAlgebra,
    artin_from_labels,
    epsilon_algebra,
    omega_complex,
    square_zero_algebra,
    tensor_dgla,
    tower_step,
    truncated_polynomial_algebra,
    validate_artin,
)
from mcdeform.dgla import (
    ChainMap,
    Dgla,
    cone_pair,
    cone_single,
    difference_chain_map,
    direct_sum_dgla,
    endomorphism_dgla,
    gamma_quotient_map,
    identity_morphism,
    les_exactness,
    les_maps,
    swap_iso,
    zero_morphism,
)
from mcdeform.errors import DifferentialNotSquareZero, InvalidInput, NotInjective
from mcdeform.graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    GradedSpace,
    block_sum,
    cohomology_dims,
    compute_cohomology,
    direct_sum,
    identity_map,
    place_blocks,
    whole,
    zero_element,
    zero_map,
)
from mcdeform.maurer_cartan import (
    bch_product,
    gauge_apply,
    gauge_apply_pair,
    gauge_equiv_decide,
    lift_if_unobstructed,
    lift_pair_if_unobstructed,
    mc_element,
    mc_residual,
    mc_triple,
    obstruction_pair,
    obstruction_single,
    pair_setting,
)
from mcdeform.path_object import (
    TruncationWindow,
    truncated_H_complex,
    truncated_H_constraints,
    truncated_path_complex,
)
from util_random import dg_uw

F = Fraction

# distinct primes of 20 to 61 bits: the lcm of a few of them is a large integer
PRIMES = (1_000_003, 1_000_033, 998_244_353, 2_147_483_647, 2**61 - 1)
DENOMINATORS = (1, 1, 2, 3, 6, 7) + PRIMES


def keys_of(space):
    return [(i, p) for i in space.degrees() for p in range(space.dim(i))]


def coefficients():
    return st.builds(F, st.integers(-9, 9).filter(bool), st.sampled_from(DENOMINATORS))


@st.composite
def elements(draw, space, odd_only=False):
    keys = [k for k in keys_of(space) if k[0] % 2 or not odd_only]
    if not keys:
        return zero_element(space)
    support = draw(st.lists(st.sampled_from(keys), max_size=len(keys), unique=True))
    return GradedElement(space, {k: draw(coefficients()) for k in support})


@st.composite
def random_map(draw, source, target, degree):
    """A map of the degree with random sparse entries in every block."""
    blocks = {}
    for i in source.degrees():
        rows, cols = target.dim(i + degree), source.dim(i)
        if rows and cols:
            blocks[i] = [[draw(st.one_of(st.just(0), st.just(0), coefficients()))
                          for _ in range(cols)] for _ in range(rows)]
    return GradedMap(source, target, degree, blocks)


@st.composite
def random_tables(draw):
    """A space in degrees −1..2, random constants on random canonical pairs,
    values in any degree, and a random degree-1 map as d: bracket and d read
    the table and the map, not the axioms."""
    dims = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    if not any(dims):
        dims[1] = 1
    space = GradedSpace(-1, 2, {deg: tuple(f"e{deg}_{i}" for i in range(n))
                                for deg, n in zip(range(-1, 3), dims)})
    keys = keys_of(space)
    pairs = [(a, b) for a in keys for b in keys if a <= b]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=12, unique=True))
    brackets = {pair: draw(elements(space)) for pair in chosen}
    return Dgla(ChainComplex(space, draw(random_map(space, space, 1))), brackets)


def assert_bracket_matches(L, x, y):
    """The bracket (for y and for x itself) against the Fraction walk over all
    support pairs; the integer bracket against the partner walk over the
    Fraction constants, as integers; d against the dense product."""
    assert L.bracket(x, y) == ref.bracket(L, x, y)
    assert L.bracket(x, x) == ref.bracket(L, x, x)
    xi, yi = dgla._to_ints(x), dgla._to_ints(y)
    assert L._bracket_ints(xi, yi) == ref.bracket_ints(L, xi, yi)
    assert L._bracket_ints(xi, xi) == ref.bracket_ints(L, xi, xi)
    dx = L.differential_of(x)
    assert dx == ref.map_apply(L.d, x)
    assert all(type(c) is Fraction for c in dx.coords.values())


def assert_reads_only_stored_pairs(L, x, y):
    """[x, y] reads the constants of L's integer table once per ordered
    support pair with a stored bracket, and none for the others."""
    reads = []

    class Counting(tuple):
        def __iter__(self):
            reads.append(self.pair)
            return super().__iter__()

    def counting(a, b, flat):
        flat = Counting(flat)
        flat.pair = (a, b) if a <= b else (b, a)
        return flat

    expected = ref.bracket(L, x, y)
    pairs = [(a, b) if a <= b else (b, a) for a in x.coords for b in y.coords]
    hits = sorted(pair for pair in pairs if pair in L.brackets)
    table = {a: {b: counting(a, b, flat) for b, flat in row.items()}
             for a, row in L._int_table().items()}
    object.__setattr__(L, "_table", table)
    assert L.bracket(x, y) == expected
    assert sorted(reads) == hits


def scaled(L, bracket_factor, d_factor):
    """L with every structure constant times bracket_factor and d times d_factor."""
    return Dgla(ChainComplex(L.space, L.d.scale(d_factor)),
                {pair: bracket_factor * val for pair, val in L.brackets.items()})


FACTORS = st.sampled_from((1, F(3, 7), F(1, 2**61 - 1)))


class TestBracket:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_tables(self, data):
        L = data.draw(random_tables())
        assert_bracket_matches(L, data.draw(elements(L.space)), data.draw(elements(L.space)))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_odd_by_odd_pairs(self, data):
        # both orders of every odd pair: the reversed one carries the Koszul sign
        L = data.draw(random_tables())
        x = data.draw(elements(L.space, odd_only=True))
        y = data.draw(elements(L.space, odd_only=True))
        assert_bracket_matches(L, x, y)
        assert_bracket_matches(L, y, x)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_large_distinct_prime_denominators(self, data):
        L = data.draw(random_tables())
        keys = keys_of(L.space)
        x = GradedElement(L.space, {k: F(j + 1, PRIMES[j % 3]) for j, k in enumerate(keys)})
        y = GradedElement(L.space, {k: F(-1 - j, PRIMES[3 + j % 2]) for j, k in enumerate(keys)})
        assert_bracket_matches(L, x, y)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_zero_elements(self, data):
        L = data.draw(random_tables())
        x, zero = data.draw(elements(L.space)), zero_element(L.space)
        assert L.bracket(x, zero) == L.bracket(zero, x) == zero == ref.bracket(L, x, zero)
        assert L.bracket(zero, zero) == zero
        assert_bracket_matches(L, zero, x)
        assert L._bracket_ints((1, {}), (1, {})) == (L._scale, {})

    def test_non_integer_constants(self):
        space = GradedSpace(0, 1, {0: ("a", "b"), 1: ("c",)})
        c = GradedElement(space, {(1, 0): F(1, 6)})
        L = Dgla(ChainComplex(space, zero_map(space, space, 1)),
                 {((0, 0), (1, 0)): c, ((0, 1), (1, 0)): F(-3, 4) * c})
        x = GradedElement(space, {(0, 0): F(2, 3), (0, 1): F(5, 7)})
        y = GradedElement(space, {(1, 0): F(7, 10)})
        expected = F(2, 3) * F(7, 10) * F(1, 6) + F(5, 7) * F(7, 10) * F(-1, 8)
        assert L.bracket(x, y) == GradedElement(space, {(1, 0): expected})
        assert_bracket_matches(L, x, y)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_diagonal_pairs(self, data):
        # only [a, a] stored: each key is its own partner, listed once
        L = data.draw(random_tables())
        keys = keys_of(L.space)
        diagonal = data.draw(st.lists(st.sampled_from(keys), min_size=1, unique=True))
        D = Dgla(L.complex, {(a, a): data.draw(elements(L.space)) for a in diagonal})
        assert all(list(D._int_table()[a]) == [a] for a, _a in D.brackets)
        x, y = data.draw(elements(D.space)), data.draw(elements(D.space))
        assert_bracket_matches(D, x, y)
        assert_bracket_matches(D, y, x)
        assert_reads_only_stored_pairs(D, x, y)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reads_only_stored_pairs(self, data):
        L = data.draw(random_tables())
        x = data.draw(elements(L.space))
        y = x if data.draw(st.booleans()) else data.draw(elements(L.space))
        assert_reads_only_stored_pairs(L, x, y)

    @pytest.mark.parametrize("name", sorted(lib.EXAMPLE_DGLAS))
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_builtins_and_their_tensors(self, name, data):
        # constants and d each scaled by 1, 3/7 or 1/(2^61 − 1)
        L = scaled(lib.EXAMPLE_DGLAS[name](), data.draw(FACTORS), data.draw(FACTORS))
        tensors = [tensor_dgla(L, A) for A in (truncated_polynomial_algebra(4), dg_uw(),
                                               epsilon_algebra(0), epsilon_algebra(1))]
        for D in (L, *(T.dgla for T in tensors)):
            x = data.draw(elements(D.space))
            y = x if data.draw(st.booleans()) else data.draw(elements(D.space))
            assert_bracket_matches(D, x, y)
            assert_bracket_matches(D, y, x)
        for T in tensors:
            x = data.draw(homogeneous(T.space, 1))
            assert mc_residual(T, x) == (ref.map_apply(T.dgla.d, x)
                                         + F(1, 2) * ref.bracket(T.dgla, x, x))


class TestPairMaps:
    """The tensored h and g, the linking and the cone's D that a PairSetting
    applies from the integer columns it keeps, against the dense products and
    the Fraction gauge series."""

    @pytest.mark.parametrize("name", sorted(lib.EXAMPLE_PAIRS))
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_pair_maps(self, name, data):
        A = data.draw(st.sampled_from((truncated_polynomial_algebra(4), dg_uw())))
        s = pair_setting(*lib.EXAMPLE_PAIRS[name](), A)
        x, y = data.draw(homogeneous(s.tL.space, 1)), data.draw(homogeneous(s.tN.space, 1))
        p = data.draw(homogeneous(s.tM.space, 0))
        h, g = ref.map_apply(s.h_tensor, x), ref.map_apply(s.g_tensor, y)
        assert s.apply_h(x) == h and s.apply_g(y) == g
        link = s._linking(*(dgla._to_ints(z) for z in (x, y, p)))
        assert dgla._from_ints(s.tM.space, *link) == ref.gauge_apply(s.tM, p, h) - g
        D = s.obstruction_space()[0].complex.d
        w = data.draw(elements(D.source))
        assert dgla._from_ints(D.target, *D._apply_ints(dgla._to_ints(w))) == ref.map_apply(D, w)


def series_cycle(c) -> list:
    """One api_series-style cycle over the objects of c: gauge, residual, BCH,
    the gauge-equivalence decision, pair gauge, and the obstruction and lift of
    an element and of a triple."""
    T, ext = c["T"], c["ext"]
    cls = obstruction_single(ext, c["x"], tensor_B=c["T_B"])
    pcls = obstruction_pair(ext, c["triple"], setting_B=c["sB"])
    return [gauge_apply(T, c["a"], c["x"].element), mc_residual(T, c["x"].element),
            bch_product(T, c["a"], c["b"]), gauge_equiv_decide(c["x"], c["y"]),
            gauge_apply_pair(c["a"], c["b"], c["triple"]),
            cls, lift_if_unobstructed(ext, c["x"], cls, tensor_B=c["T_B"]),
            pcls, lift_pair_if_unobstructed(ext, c["triple"], pcls, setting_B=c["sB"])]


def series_objects(n: int) -> dict:
    """End(V_1) ⊗ K[t]/t^n with an MC element x, y = e^b * x, gauge parameters
    a, b, the (id, id) pair over K[t]/t^n and the triple (x, y, b), and the
    B-side tensor and setting of K[t]/t^{n+1} → K[t]/t^n."""
    L = endomorphism_dgla(end_complex(1, False))
    ext = tower_step(n)
    T = tensor_dgla(L, ext.A)
    keys = keys_of(T.space)
    a = GradedElement(T.space, {k: F(j % 3 - 1) for j, k in enumerate(keys) if k[0] == 0})
    b = GradedElement(T.space, {k: F(j % 2 + 1) for j, k in enumerate(keys) if k[0] == 0})
    x = gauge_apply(T, b - a, zero_element(T.space, 1))
    y = gauge_apply(T, b, x)
    s = pair_setting(identity_morphism(L), identity_morphism(L), ext.A)
    return {"T": T, "ext": ext, "a": a, "b": b, "x": mc_element(T, x), "y": mc_element(T, y),
            "T_B": tensor_dgla(L, ext.B), "triple": mc_triple(s, x, y, b), "sB": s.over(ext.B)}


class TestKeptTables:
    """The integer table is built once per DGLA and the integer columns once per
    map, hold one entry per canonical stored pair, and are small."""

    def test_built_once_over_three_cycles(self, monkeypatch):
        built = Counter()
        table, columns = Dgla._int_table, GradedMap._int_columns

        def counting_table(self):
            if self._table is None:
                built["table", id(self)] += 1
            return table(self)

        def counting_columns(f):
            if f._ints is None:
                built["columns", id(f)] += 1
            return columns(f)

        monkeypatch.setattr(Dgla, "_int_table", counting_table)
        monkeypatch.setattr(GradedMap, "_int_columns", counting_columns)
        c = series_objects(6)
        results = [series_cycle(c)]
        after_one = Counter(built)
        s, sB = c["triple"].setting, c["sB"]
        for L in (c["T"].dgla, c["T_B"].dgla, s.tL.dgla, sB.tL.dgla):
            assert after_one["table", id(L)] == 1 and after_one["columns", id(L.d)] == 1
        for f in (s.h_tensor, sB.h_tensor, s.obstruction_space()[0].complex.d):
            assert after_one["columns", id(f)] == 1
        results += [series_cycle(c), series_cycle(c)]
        assert built == after_one and set(after_one.values()) == {1}
        assert results[0] == results[1] == results[2]

    def test_one_entry_per_canonical_pair(self):
        T = tensor_dgla(endomorphism_dgla(end_complex(1, False)), truncated_polynomial_algebra(6))
        D = T.dgla
        table = D._int_table()
        assert {(a, b) for a, row in table.items() for b in row} == (
            set(D.brackets) | {(b, a) for a, b in D.brackets})
        for (a, b), val in D.brackets.items():
            flat = table[a][b]
            assert table[b][a] is flat
            assert dict(zip(flat[::2], flat[1::2])) == {k: v * D._scale for k, v in val.coords.items()}

    def test_tables_take_at_most_half_the_fraction_storage(self):
        T = tensor_dgla(endomorphism_dgla(end_complex(1, False)), truncated_polynomial_algebra(6))
        D = T.dgla

        def traced(build):
            gc.collect()
            tracemalloc.start()
            try:
                kept = build()
                gc.collect()
                return kept, tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        # D's bracket storage made again: its dict, pair keys, elements and
        # coordinate dicts (the equal Fraction constants are shared, so counted 0)
        _copy, fractions = traced(lambda: {(a, b): graded._trusted(D.space, dict(val.coords), None)
                                           for (a, b), val in D.brackets.items()})
        _table, tables = traced(lambda: (D._int_table(), D.d._int_columns()))
        assert 0 < tables <= fractions / 2


@st.composite
def homogeneous(draw, space, degree):
    keys = [k for k in keys_of(space) if k[0] == degree]
    support = draw(st.lists(st.sampled_from(keys), max_size=len(keys), unique=True)) if keys else []
    return GradedElement(space, {k: draw(coefficients()) for k in support}, degree)


def series_dglas():
    yield from sorted(lib.EXAMPLE_DGLAS.items())
    yield "free_nilpotent_class3", lib.free_nilpotent_class3
    yield "End(V1):dense", lambda: endomorphism_dgla(end_complex(1, True))


SERIES_DGLAS = dict(series_dglas())
SERIES_COEFFS = {"t^6": lambda: truncated_polynomial_algebra(6), "dg_uw": dg_uw}


def assert_same_element(got, want):
    assert got == want and got.degree == want.degree
    assert all(type(c) is Fraction for c in got.coords.values())


class TestSeries:
    """gauge_apply and bch_product summed in ints against the Fraction series,
    on elements with coefficients like 3/7 and 61-bit prime denominators, and
    on the same DGLAs with every structure constant times 3/7."""

    @pytest.mark.parametrize("coeff", sorted(SERIES_COEFFS))
    @pytest.mark.parametrize("name", sorted(SERIES_DGLAS))
    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_gauge_and_bch_match_the_fraction_series(self, name, coeff, data):
        L = SERIES_DGLAS[name]()
        if data.draw(st.booleans()):
            L = Dgla(L.complex, {pair: F(3, 7) * val for pair, val in L.brackets.items()})
        T = tensor_dgla(L, SERIES_COEFFS[coeff]())
        a, b = data.draw(homogeneous(T.space, 0)), data.draw(homogeneous(T.space, 0))
        x = data.draw(homogeneous(T.space, 1))
        assert_same_element(gauge_apply(T, a, x), ref.gauge_apply(T, a, x))
        assert_same_element(bch_product(T, a, b), ref.bch_product(T, a, b))
        assert_same_element(bch_product(T, a, -a), ref.bch_product(T, a, -a))


def end_complex(k: int, dense: bool) -> ChainComplex:
    """V_k in degrees 0, 1 with d(u_i) = (i + 1)·v_i for i < k, or with d
    multiplied by triangular matrices of ones on both sides, which is dense."""
    n = k + 1
    d = [[F(i + 1) if i == j and i < k else F(0) for j in range(n)] for i in range(n)]
    if dense:
        low = [[F(j <= i) for j in range(n)] for i in range(n)]
        up = [list(row) for row in zip(*low)]
        d = la.mat_mul(la.mat_mul(low, d), up)
    space = GradedSpace(0, 1, {0: tuple(f"u{i}" for i in range(n)),
                               1: tuple(f"v{i}" for i in range(n))})
    return ChainComplex(space, GradedMap(space, space, 1, {0: d}))


def cone_cases():
    for name, fn in sorted(lib.EXAMPLE_PAIRS.items()):
        yield name, fn()
    for k in (1, 2):
        for dense in (False, True):
            L = endomorphism_dgla(end_complex(k, dense))
            tag = f"End(V{k}):{'dense' if dense else 'sparse'}"
            yield f"{tag}:idid", (identity_morphism(L), identity_morphism(L))
            yield f"{tag}:idzero", (identity_morphism(L), zero_morphism(L, L))


CONE_CASES = dict(cone_cases())


def assert_same_cone(new, old):
    assert new.complex.space == old.complex.space
    assert new.complex.d.blocks == old.complex.d.blocks
    assert new.layout == old.layout
    assert (new.kind, new.convention, new.h, new.g) == (old.kind, old.convention, old.h, old.g)


class TestBlockAssembly:
    @pytest.mark.parametrize("name", sorted(CONE_CASES))
    def test_cones_and_sums_match_the_composed_maps(self, name):
        h, g = CONE_CASES[name]
        assert_same_cone(cone_pair(h, g), ref.cone_pair(h, g))
        assert_same_cone(cone_pair(g, h), ref.cone_pair(g, h))
        for f in (h, g, difference_chain_map(h, g)):
            assert_same_cone(cone_single(f), ref.cone_single(f))
        diff, old = difference_chain_map(h, g), ref.difference_chain_map(h, g)
        assert (diff.source, diff.target) == (old.source, old.target)
        assert diff.map.blocks == old.map.blocks
        parts = [("L", h.source.complex), ("N", g.source.complex), ("M", h.target.complex)]
        (total, layout), (ref_total, ref_maps) = direct_sum(parts), ref.direct_sum(parts)
        assert total.space == ref_total.space and total.d.blocks == ref_total.d.blocks
        assert ref.placed_maps(total.space, layout) == ref_maps
        for cone in (cone_pair(h, g), cone_single(h)):
            specs = [(part, space, off) for part, (space, off, _s) in cone.layout.items()]
            assert ref.placed_maps(cone.complex.space, cone.layout) == ref.block_sum(specs)[1]

    @pytest.mark.parametrize("name", sorted(n for n in CONE_CASES if "V2" not in n))
    def test_maps_between_sums_match_the_composed_maps(self, name):
        h, g = CONE_CASES[name]

        def assert_same_map(new, old):
            assert (new.source, new.target) == (old.source, old.target)
            assert new.map.blocks == old.map.blocks

        assert_same_map(swap_iso(h, g), ref.swap_iso(h, g))
        if all(h.map.kernel_dim(i) == 0 for i in h.source.space.degrees()):
            assert_same_map(gamma_quotient_map(h, g), ref.gamma_quotient_map(h, g))
        else:
            with pytest.raises(NotInjective):
                gamma_quotient_map(h, g)
        cone, iota, pi, conn = les_maps(h, g)
        ref_cone, ref_iota, ref_pi, ref_conn = ref.les_maps(h, g)
        assert_same_cone(cone, ref_cone)
        assert iota == ref_iota
        assert_same_map(pi, ref_pi)
        assert_same_map(conn, ref_conn)
        for N in (1, 2):
            window = TruncationWindow(N)
            assert truncated_H_constraints(h, g, window) == ref.truncated_H_constraints(h, g, window)
        (product, layout), (ref_product, ref_maps) = (
            direct_sum_dgla(h.source, g.source, ("L", "N")),
            ref.direct_sum_dgla(h.source, g.source, ("L", "N")))
        assert product.complex == ref_product.complex
        assert list(product.brackets.items()) == list(ref_product.brackets.items())
        assert ref.placed_maps(product.space, layout) == ref_maps

    @pytest.mark.parametrize("name", ["pair_idid_heis", "pair_idid_obstructed", "End(V1):dense:idid"])
    def test_les_reports_broken_maps_node_by_node(self, name, monkeypatch):
        # the sequence is exact for every pair, so only broken maps reach the report
        h, g = CONE_CASES[name]
        cone, iota, pi, conn = les_maps(h, g)
        total, parts = direct_sum([("L", h.source.complex), ("N", g.source.complex)])
        h_part = place_blocks(total.space, h.target.space, 0,
                              [(1, h.map, parts["L"], whole(h.target.space))])
        kinds = set()
        for broken in ((cone, iota.scale(0), pi, conn),
                       (cone, iota, ChainMap(pi.source, pi.target, pi.map.scale(0)), conn),
                       (cone, iota, pi, ChainMap(conn.source, conn.target, h_part))):
            monkeypatch.setattr(dgla, "les_maps", lambda h, g: broken)
            report = les_exactness(h, g)
            assert report == ref.les_violations(*broken)
            kinds |= {v.axiom for v in report}
        assert kinds == {"les_composite", "les_exactness"}

    def test_les_builds_and_ranks_each_induced_matrix_once(self, monkeypatch):
        calls, ranked = Counter(), []
        induced, rank = graded.induced_cohomology_matrix, la.rank

        def counting_induced(f, H_src, H_tgt, degree):
            calls[(id(f), degree)] += 1
            return induced(f, H_src, H_tgt, degree)

        def counting_rank(m):
            ranked.append(m)  # kept alive, so that the ids below stay distinct
            return rank(m)

        monkeypatch.setattr(graded, "induced_cohomology_matrix", counting_induced)
        monkeypatch.setattr(la, "rank", counting_rank)
        h, g = CONE_CASES["pair_idid_endo"]
        assert les_exactness(h, g) == []
        # ι in the 7 degrees dmin − 2 .. dmax + 1 of the cone, π and conn in the 6 from dmin − 1
        assert sum(calls.values()) == len(calls) == 19
        assert len(ranked) == len({id(m) for m in ranked}) == 19

    def test_pair_inj_abelian_is_the_pair_of_inclusions(self):
        h, g = lib.pair_inj_abelian()
        product, maps = ref.direct_sum_dgla(lib.acyclic(), lib.acyclic(), ("A", "B"))
        assert h.target == g.target == product
        assert [h.map, g.map] == [embed for embed, _project in maps]

    def test_d_squared_nonzero_still_raises(self):
        # h(a) = b with db = c: h is no chain map, and the cone's d² ≠ 0
        A = GradedSpace(0, 1, {0: ("a",)})
        B = GradedSpace(0, 1, {0: ("b",), 1: ("c",)})
        src = ChainComplex(A, zero_map(A, A, 1))
        tgt = ChainComplex(B, GradedMap(B, B, 1, {0: [[F(1)]]}))
        h = ChainMap(src, tgt, GradedMap(A, B, 0, {0: [[F(1)]]}))
        g = ChainMap(src, tgt, zero_map(A, B, 0))
        for build in (lambda: cone_single(h), lambda: cone_pair(h, g),
                      lambda: cone_pair(g, h), lambda: ref.cone_pair(h, g)):
            with pytest.raises(DifferentialNotSquareZero):
                build()

    def test_terms_on_one_block_add(self):
        V = end_complex(2, True)
        own = whole(V.space)
        twice = place_blocks(V.space, V.space, 1, [(1, V.d, own, own)] * 3
                             + [(-1, V.d, own, own)])
        assert twice == V.d.scale(2)

    def test_a_map_off_its_blocks_is_refused(self):
        V = end_complex(1, False)
        total, layout = block_sum([("L", V.space, 0), ("M", V.space, 1)])
        l, m = layout["L"], layout["M"]
        with pytest.raises(InvalidInput):  # degree 0 + 0 − 0 ≠ 1
            place_blocks(total, total, 1, [(1, identity_map(V.space), l, l)])
        with pytest.raises(InvalidInput):  # a map of another space
            place_blocks(total, total, 1, [(1, identity_map(total), l, m)])

    @pytest.mark.parametrize("shift", [-1, 0, 1, 2])
    @pytest.mark.parametrize("name", sorted(n for n in CONE_CASES if "V2" not in n))
    def test_tangent_pair_ranks_match_the_hand_placed_blocks(self, name, shift, monkeypatch):
        # after the ranks cohomology_dims takes of the cone (none when 1 + shift
        # is outside its window), the blocks tangent_dim_pair ranks are the
        # hand-placed equation matrix and minus the hand-placed gauge matrix
        h, g = CONE_CASES[name]
        eq, gauge = ref.tangent_pair_matrices(h, g, shift)
        ranked = []
        rank = GradedMap.rank

        def recording(f, i):
            ranked.append(f.matrix(i))
            return rank(f, i)

        monkeypatch.setattr(GradedMap, "rank", recording)
        dim = maurer_cartan.tangent_dim_pair(h, g, shift)
        monkeypatch.undo()
        assert len(ranked) in (2, 4) and ranked[-2:] == [eq, [[-c for c in row] for row in gauge]]
        assert dim == len(gauge) - la.rank(eq) - la.rank(gauge)  # gauge has one row per unknown


def dims_cases():
    """name -> complex: every built-in DGLA; the cones of every built-in pair, of
    its two morphisms, and of its ε-tensored pair; truncated H at N = 1; and the
    (id, id) cones of End(V₁) and End(V₂), sparse and dense."""
    for name, fn in sorted(lib.EXAMPLE_DGLAS.items()):
        yield name, lambda fn=fn: fn().complex
    for name, fn in sorted(lib.EXAMPLE_PAIRS.items()):
        yield f"{name}:cone", lambda fn=fn: cone_pair(*fn()).complex
        yield f"{name}:cone h", lambda fn=fn: cone_single(fn()[0]).complex
        yield f"{name}:cone g", lambda fn=fn: cone_single(fn()[1]).complex
        yield f"{name}:H N=1", lambda fn=fn: truncated_H_complex(*fn(), TruncationWindow(1))[0]
        for shift in (-1, 0, 1):
            def eps_cone(fn=fn, shift=shift):
                s = pair_setting(*fn(), epsilon_algebra(shift))
                return cone_pair(ChainMap(s.tL.dgla.complex, s.tM.dgla.complex, s.h_tensor),
                                 ChainMap(s.tN.dgla.complex, s.tM.dgla.complex, s.g_tensor)).complex
            yield f"{name}:eps{shift} cone", eps_cone
    for name in sorted(CONE_CASES):
        if name.startswith("End(") and name.endswith(":idid"):
            yield f"{name}:cone", lambda name=name: cone_pair(*CONE_CASES[name]).complex


DIMS_CASES = dict(dims_cases())


class TestCohomologyDims:
    """graded.cohomology_dims counts ranks; compute_cohomology builds the bases."""

    @pytest.mark.parametrize("name", sorted(DIMS_CASES))
    def test_dims_match_the_full_cohomology(self, name):
        cx = DIMS_CASES[name]()
        want = compute_cohomology(cx).dims
        assert cohomology_dims(cx) == want
        window = list(cx.space.degrees())
        subsets = [(i,) for i in window] + [(), window[::2], (window[0] - 1, window[-1] + 1),
                                            (window[-1], window[-1] + 2, window[0])]
        for degrees in subsets:
            assert cohomology_dims(cx, iter(degrees)) == {
                i: d for i, d in want.items() if i in degrees}

    def test_d_squared_nonzero_raises_as_compute_cohomology_does(self):
        s = GradedSpace(0, 2, {0: ("u",), 1: ("v",), 2: ("w",)})
        bad = ChainComplex(s, GradedMap(s, s, 1, {0: [[F(1)]], 1: [[F(1)]]}))
        with pytest.raises(DifferentialNotSquareZero) as want:
            compute_cohomology(bad)
        for degrees in (None, (2,), ()):
            with pytest.raises(DifferentialNotSquareZero) as got:
                cohomology_dims(bad, degrees)
            assert str(got.value) == str(want.value)


COEFFICIENT_ALGEBRAS = {
    **{f"K[t]/t^{n}": truncated_polynomial_algebra(n) for n in range(2, 6)},
    "eps0": epsilon_algebra(0), "eps1": epsilon_algebra(1), "omega1": omega_complex(1),
    "uw": dg_uw(),
}


class TestTensorDgla:
    @pytest.mark.parametrize("coeff", sorted(COEFFICIENT_ALGEBRAS))
    def test_brackets_match_all_pairs(self, coeff):
        A = COEFFICIENT_ALGEBRAS[coeff]
        dglas = [(name, fn()) for name, fn in lib.EXAMPLE_DGLAS.items()]
        dglas.append(("free_nilpotent_class3", lib.free_nilpotent_class3()))
        if coeff in ("K[t]/t^3", "uw"):
            # invalid tables too, among them nonzero [a, a] in even degree
            dglas += mutations.corpus()
        for name, L in dglas:
            T = tensor_dgla(L, A)
            expected = ref.tensor_brackets(T)
            assert T.dgla.brackets == expected, name
            assert list(T.dgla.brackets) == list(expected), name

    def test_work_scales_with_stored_brackets(self, monkeypatch):
        calls = Counter()

        def counting(cls, method):
            inner = getattr(cls, method)

            def wrapper(*args, **kwargs):
                calls[method] += 1
                return inner(*args, **kwargs)
            monkeypatch.setattr(cls, method, wrapper)

        counting(CoefficientAlgebra, "product_basis")
        counting(Dgla, "bracket_basis")
        L = endomorphism_dgla(end_complex(1, False))
        for A in (truncated_polynomial_algebra(3), truncated_polynomial_algebra(6), dg_uw()):
            calls.clear()
            T = tensor_dgla(L, A)
            n = T.space.total_dim()
            # each stored product of m_A is read in both orders, no bracket of L
            # is looked up, and neither grows with the n² pairs of tensor keys
            assert calls["product_basis"] <= 2 * len(A.table) < n
            assert calls["bracket_basis"] == 0
            calls.clear()
            ref.tensor_brackets(T)
            assert calls["bracket_basis"] >= n * (n + 1) // 2


def path_cases():
    """Every built-in DGLA, and End(V₁) and End(V₂), sparse and dense."""
    yield from sorted(lib.EXAMPLE_DGLAS.items())
    for k in (1, 2):
        for dense in (False, True):
            yield (f"End(V{k}):{'dense' if dense else 'sparse'}",
                   lambda k=k, dense=dense: endomorphism_dgla(end_complex(k, dense)))


class TestTruncatedPath:
    @pytest.mark.parametrize("N", (1, 2, 3))
    @pytest.mark.parametrize("name", [name for name, _fn in path_cases()])
    def test_tensor_matches_the_term_by_term_complex(self, name, N):
        M = dict(path_cases())[name]()
        got, want = truncated_path_complex(M, N), ref.truncated_path_complex(M, N)
        assert (got.space.dmin, got.space.dmax) == (want.space.dmin, want.space.dmax)
        assert got.space == want.space
        assert {i: got.space.dim(i) for i in got.space.degrees()} == \
            {i: want.space.dim(i) for i in want.space.degrees()}
        assert got.d.cols == want.d.cols


# --- graded maps as their nonzero columns ---------------------------------------


@st.composite
def small_spaces(draw, tag):
    dims = draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))
    return GradedSpace(-1, 1, {deg: tuple(f"{tag}{deg}_{i}" for i in range(n))
                               for deg, n in zip(range(-1, 2), dims)})


def basis_images(f):
    """The image of every basis vector of f's source, zero images included."""
    return {k: f.apply(graded.basis_element(f.source, *k)) for k in keys_of(f.source)}


def assert_dense_ops_match(f):
    assert GradedMap(f.source, f.target, f.degree, f.blocks) == f
    images = basis_images(f)
    built = graded.map_from_images(f.source, f.target, f.degree, images)
    assert built == f and built.blocks == f.blocks == ref.dense_map_from_images(
        f.source, f.target, f.degree, images)
    for i in f.source.degrees():
        assert f.rank(i) == ref.dense_rank(f.matrix(i))


def tensor_cases():
    for n in range(2, 7):
        A = truncated_polynomial_algebra(n)
        for name, fn in sorted(lib.EXAMPLE_DGLAS.items()):
            yield f"{name}@t^{n}", (fn, A)
        yield f"End(V1)@t^{n}", (lambda: endomorphism_dgla(end_complex(1, True)), A)
    yield "obstructed@uw", (lib.obstructed, dg_uw())


TENSOR_CASES = dict(tensor_cases())


class TestDenseBlocks:
    """Every map the library builds as columns, against the dense blocks of
    the construction it replaces (reference_kernels.dense_*), compared through
    GradedMap.blocks."""

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_random_maps(self, data):
        U, V, W = (data.draw(small_spaces(tag)) for tag in "uvw")
        m, n = data.draw(st.integers(-1, 1)), data.draw(st.integers(-1, 1))
        g, f = data.draw(random_map(U, V, m)), data.draw(random_map(V, W, n))
        f2 = data.draw(random_map(V, W, n))
        c = data.draw(coefficients())
        for h in (f, g, f + f2, f - f):
            assert_dense_ops_match(h)
        assert f.compose(g).blocks == ref.dense_compose(f, g)
        assert (f + f2).blocks == ref.dense_add(f, f2)
        assert f.scale(c).blocks == ref.dense_scale(c, f)
        assert (f - f).is_zero() and f.scale(0).is_zero()
        x = data.draw(elements(V))
        assert f.apply(x) == ref.map_apply(f, x)
        assert dgla._from_ints(W, *f._apply_ints(dgla._to_ints(x))) == ref.map_apply(f, x)
        total, layout = block_sum([("V", V, 0), ("W", W, 0), ("V2", V, 1)])
        terms = [(1, f, layout["V"], layout["W"]), (-1, f2, layout["V"], layout["W"]),
                 (1, identity_map(V), layout["V"], layout["V2"])]
        placed = place_blocks(total, total, n, terms[:2])
        assert placed.blocks == ref.dense_place_blocks(total, total, n, terms[:2])
        assert place_blocks(total, total, 1, terms[2:]).blocks == ref.dense_place_blocks(
            total, total, 1, terms[2:])
        for cx in (ChainComplex(V, data.draw(random_map(V, V, 1))),
                   ChainComplex(W, data.draw(random_map(W, W, 1)))):
            assert cx.d_squared_witnesses() == ref.dense_d_squared_witnesses(cx)
            assert_dense_ops_match(cx.d)
        V_cx, W_cx = ChainComplex(V, data.draw(random_map(V, V, 1))), ChainComplex(
            W, data.draw(random_map(W, W, 1)))
        if V.total_dim() and W.total_dim():
            hom = graded.hom_complex(V_cx, W_cx)
            assert hom.d.blocks == ref.dense_hom_differential(V_cx, W_cx, hom.space)
            assert_dense_ops_match(hom.d)

    @pytest.mark.parametrize("name", sorted(lib.EXAMPLE_DGLAS))
    def test_builtin_dglas(self, name):
        L = lib.EXAMPLE_DGLAS[name]()
        assert_dense_ops_match(L.d)
        assert L.complex.d_squared_witnesses() == ref.dense_d_squared_witnesses(L.complex) == []
        if L.space.total_dim():
            hom = graded.hom_complex(L.complex, L.complex)
            assert hom.d.blocks == ref.dense_hom_differential(L.complex, L.complex, hom.space)
            assert endomorphism_dgla(L.complex).d == hom.d

    def test_d_squared_witnesses_keep_their_order(self):
        for L in [L for _name, L in mutations.corpus()]:
            assert L.complex.d_squared_witnesses() == ref.dense_d_squared_witnesses(L.complex)

    @pytest.mark.parametrize("name", sorted(CONE_CASES))
    def test_pairs_their_morphisms_and_cones(self, name):
        h, g = CONE_CASES[name]
        for phi in (h, g):
            assert_dense_ops_match(phi.map)
        cone = cone_pair(h, g)
        space, (l, n, m) = cone.complex.space, (cone.layout[p] for p in "LNM")
        assert cone.complex.d.blocks == ref.dense_place_blocks(space, space, 1, [
            (1, h.source.d, l, l), (1, g.source.d, n, n), (1, h.map, l, m),
            (-1, g.map, n, m), (-1, h.target.d, m, m)])
        single = cone_single(h)
        l, m = single.layout["L"], single.layout["M"]
        assert single.complex.d.blocks == ref.dense_place_blocks(
            single.complex.space, single.complex.space, 1,
            [(1, h.source.d, l, l), (1, h.map, l, m), (-1, h.target.d, m, m)])
        if "V2" not in name:
            assert_dense_ops_match(cone.complex.d)

    @pytest.mark.parametrize("name", sorted(TENSOR_CASES))
    def test_tensors(self, name):
        fn, A = TENSOR_CASES[name]
        L = fn()
        T = tensor_dgla(L, A)
        assert T.dgla.d.blocks == ref.dense_tensor_differential(T)
        assert T.dgla.complex.d_squared_witnesses() == ref.dense_d_squared_witnesses(
            T.dgla.complex) == []
        if name.endswith("@t^6") or name.startswith("obstructed"):
            assert_dense_ops_match(T.dgla.d)
        s = pair_setting(identity_morphism(L), zero_morphism(L, L), A)
        for phi, src, tgt, f in ((s.h.map, s.tL, s.tM, s.h_tensor),
                                 (s.g.map, s.tN, s.tM, s.g_tensor)):
            assert f.blocks == ref.dense_tensor_map(phi, src, tgt)

    @pytest.mark.parametrize("name", sorted(lib.EXAMPLE_PAIRS))
    def test_builtin_pair_tensors(self, name):
        h, g = lib.EXAMPLE_PAIRS[name]()
        for n in (2, 6):
            s = pair_setting(h, g, truncated_polynomial_algebra(n))
            for phi, src, f in ((h.map, s.tL, s.h_tensor), (g.map, s.tN, s.g_tensor)):
                assert f.blocks == ref.dense_tensor_map(phi, src, s.tM)
            assert s.tM.dgla.d.blocks == ref.dense_tensor_differential(s.tM)


# --- coefficient-algebra axioms ------------------------------------------------


def oracle_algebras():
    """Every built-in algebra, both ends of the tower steps, dg_uw, Ω[1] and K·ε."""
    algebras = {name: fn() for name, fn in lib.EXAMPLE_ARTIN.items()}
    ext = lib.extension_poly2_mod_uu()
    algebras.update(poly2_mod_uu=ext.A)
    for k in range(1, 6):
        step = tower_step(k)
        algebras[f"tower{k}.B"], algebras[f"tower{k}.A"] = step.B, step.A
    algebras.update(uw=dg_uw(), omega1=omega_complex(1),
                    eps0=epsilon_algebra(0), eps1=epsilon_algebra(1))
    return algebras


# one algebra for each axiom the validator checks, with the axioms it fails
VIOLATING = {
    "non_associative": (artin_from_labels(("a", "b", "c"), {
        ("a", "a"): {"b": 1}, ("a", "b"): {"c": 1}, ("b", "b"): {"c": 1}}),
        {"associativity"}),
    "not_nilpotent": (artin_from_labels(("t", "t^2"), {
        ("t", "t"): {"t^2": 1}, ("t", "t^2"): {"t": 1}}), {"nilpotency", "associativity"}),
    "wrong_product_degree": (CoefficientAlgebra(("e0", "e1"), {(0, 0): {1: 1}}, (0, 1)),
                             {"product_degree"}),
    "odd_square": (CoefficientAlgebra(("u", "v"), {(0, 0): {1: 1}}, (1, 2)),
                   {"graded_commutativity"}),
    "wrong_differential_degree": (CoefficientAlgebra(("a", "b"), {}, (0, 2), {0: {1: 1}}),
                                  {"differential_degree"}),
    "d_squared": (CoefficientAlgebra(("a", "b", "c"), {}, (0, 1, 2), {0: {1: 1}, 1: {2: 1}}),
                  {"d_squared"}),
    "leibniz": (CoefficientAlgebra(("a", "b", "e", "c"), {(0, 1): {2: 1}}, (0, 0, 0, 1),
                                   {0: {3: 1}, 2: {3: 1}}), {"leibniz"}),
}


@st.composite
def coefficient_tables(draw):
    """Random structure constants on up to four basis vectors, graded or not:
    triangular tables (products of e_i, e_j land on e_k, k > i, j) are
    nilpotent, free ones rarely; degrees and d are not matched to the table."""
    dim = draw(st.integers(1, 4))
    degrees = draw(st.none() | st.tuples(*[st.integers(-1, 2)] * dim))
    triangular = draw(st.booleans())

    def values(low):
        keys = range(low + 1 if triangular else 0, dim)
        if not keys:
            return st.just({})
        return st.dictionaries(st.sampled_from(keys), st.integers(-2, 2), max_size=2)
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    table = {pair: draw(values(pair[1])) for pair in
             draw(st.lists(st.sampled_from(pairs), max_size=len(pairs), unique=True))}
    diff = {}
    if degrees is not None:
        diff = draw(st.dictionaries(st.integers(0, dim - 1), values(-1), max_size=dim))
    return CoefficientAlgebra(tuple(f"e{i}" for i in range(dim)), table, degrees, diff)


class TestValidateArtin:
    @pytest.mark.parametrize("name", sorted(oracle_algebras()))
    def test_valid_algebras_match_the_dense_check(self, name):
        A = oracle_algebras()[name]
        assert validate_artin(A) == ref.validate_artin(A) == []

    @pytest.mark.parametrize("name", sorted(VIOLATING))
    def test_each_axiom_matches_the_dense_check(self, name):
        A, axioms = VIOLATING[name]
        report = validate_artin(A)
        assert report == ref.validate_artin(A)
        assert {v.axiom for v in report} == axioms

    @settings(max_examples=300, deadline=None)
    @given(coefficient_tables())
    def test_random_tables_match_the_dense_check(self, A):
        assert validate_artin(A) == ref.validate_artin(A)

    def test_square_zero_makes_no_associativity_products(self, monkeypatch):
        calls = Counter()

        def counting(owner, name):
            inner = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(owner, name, wrapper)

        counting(CoefficientAlgebra, "product_basis")
        counting(artin, "add_scaled")
        counting(artin, "sub_scaled")
        A = square_zero_algebra(tuple(f"x{i}" for i in range(300)))
        calls.clear()
        assert validate_artin(A) == []
        assert not calls
        # K[t]/t⁴ reads each stored product once per order, and sums defects
        A = truncated_polynomial_algebra(4)
        calls.clear()
        assert validate_artin(A) == []
        assert calls["product_basis"] == 2 * len(A.table) and calls["add_scaled"] > 0


# --- powers of the maximal ideal -------------------------------------------------


def polynomials_in_two(n: int) -> CoefficientAlgebra:
    """K[u, v]/(u, v)ⁿ: two generators, and m^k ≠ 0 for k < n."""
    monomials = [(a, k - a) for k in range(1, n) for a in range(k, -1, -1)]
    labels = tuple(f"u{a}v{b}" for a, b in monomials)
    return artin_from_labels(labels, {
        (labels[i], labels[j]): {f"u{a + c}v{b + d}": 1}
        for i, (a, b) in enumerate(monomials) for j, (c, d) in enumerate(monomials)
        if i <= j and a + b + c + d < n})


def power_algebras():
    """The oracle algebras, one per validator axiom, K[t]/tⁿ for n ≤ 12,
    K[u, v]/(u, v)ⁿ for n ≤ 5, K[t]/t³ in the basis t, t − t², which is
    not adapted to its filtration, and square-zero algebras, K[t,dt]_N among
    them, whose filtration is read without the scan."""
    algebras = {**oracle_algebras(), **{name: A for name, (A, _axioms) in VIOLATING.items()}}
    algebras.update({f"kt{n}": truncated_polynomial_algebra(n) for n in range(1, 13)})
    algebras.update({f"kuv{n}": polynomials_in_two(n) for n in range(2, 6)})
    algebras.update({f"square_zero{n}": square_zero_algebra([f"e{i}" for i in range(n)])
                     for n in (0, 1, 4)})
    algebras.update({f"line{N}": path_object._line_algebra(N) for N in (1, 2, 3)})
    algebras["kt3_skew"] = artin_from_labels(("a", "b"), {pair: {"a": 1, "b": -1} for pair in
                                                          (("a", "a"), ("a", "b"), ("b", "b"))})
    return algebras


class TestPowerFiltration:
    """The powers of m, the levels, ν and the adapted basis equal those of the
    dense scan of every product (reference_kernels.power_spans, .filtration)."""

    @staticmethod
    def assert_matches(A):
        spans = artin._power_spans(A.dim, A.product_basis)
        dense = None if spans is None else [
            [[v.get(k, Fraction(0)) for k in range(A.dim)] for v in span] for span in spans]
        assert dense == ref.power_spans(A.dim, A.product_basis)
        assert (A.levels, A.nu, A._adapted) == ref.filtration(A.dim, A.product_basis)

    @pytest.mark.parametrize("name", sorted(power_algebras()))
    def test_named_algebras(self, name):
        self.assert_matches(power_algebras()[name])

    @settings(max_examples=300, deadline=None)
    @given(coefficient_tables())
    def test_random_tables(self, A):
        self.assert_matches(A)

    def test_a_table_that_is_not_associative(self):
        # a·a = b, b·b = c: m² = ⟨b, c⟩ and a spans m/m², but a·m² = 0 while
        # m³ = ⟨c⟩, so m³ is not spanned by lifts of m/m² times m²
        A = artin_from_labels(("a", "b", "c"), {("a", "a"): {"b": 1}, ("b", "b"): {"c": 1}})
        assert (A.levels, A.nu) == ((1, 2, 3), 4)
        self.assert_matches(A)


class TestLiftKernels:
    """What a lift solves and multiplies by, against la.solve and the Fraction
    products: the solution map each obstruction space's d keeps, and the
    integer columns of a small extension's section, alpha and [J | 1]⁻¹."""

    @staticmethod
    def assert_solves_like_la_solve(d):
        dense, n, m = d.matrix(1), d.source.dim(1), d.target.dim(2)
        solution, space = d._solution(), d.source
        images = [d.apply(graded.basis_element(space, 1, q)) for q in range(n)]
        combo = graded.zero_element(space)
        for k, image in enumerate(images):
            combo = combo + F(3 * k - 4, 7 if k % 2 else 2**61 - 1) * image
        targets = images + [combo] + [graded.basis_element(space, 2, r) for r in range(m)]
        for b in targets:
            want = la.solve(dense, b.component_vector(2), cols=n)
            got = solution.apply(b)
            if want is None:  # no boundary: the kept map's image is checked, and fails
                assert d.apply(got) != b
            else:
                assert got == graded.element_from_vector(space, 1, want) and d.apply(got) == b

    @pytest.mark.parametrize("name", sorted(SERIES_DGLAS))
    def test_solution_of_each_dgla_matches_la_solve(self, name):
        self.assert_solves_like_la_solve(SERIES_DGLAS[name]().d)

    @pytest.mark.parametrize("name", sorted(CONE_CASES))
    def test_solution_of_each_pair_cone_matches_la_solve(self, name):
        self.assert_solves_like_la_solve(cone_pair(*CONE_CASES[name]).complex.d)

    @staticmethod
    def alternate(ext, c):
        """ext with the section t^a ↦ t^a + c·J: the same α, entries like c."""
        return replace(ext, section=[[s + c * j for s in row]
                                     for row, j in zip(ext.section, ext.kernel[0])])

    @pytest.mark.parametrize("n", range(1, 7))
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_coefficient_maps_and_kernel_coords_match_the_fraction_products(self, n, data):
        # along the tower step and along it with another section, of entries like c
        step, c = tower_step(n), data.draw(st.sampled_from((F(3, 7), F(-2), F(1, 2**61 - 1))))
        L = SERIES_DGLAS[data.draw(st.sampled_from(("heis", "obstructed", "End(V1):dense")))]()
        T_A, T_B = tensor_dgla(L, step.A), tensor_dgla(L, step.B)
        x, y = data.draw(elements(T_A.space)), data.draw(homogeneous(T_B.space, 1))
        vec = {i: v for i in range(step.B.dim) if (v := data.draw(coefficients()) * (i % 2))}
        den = data.draw(st.sampled_from((1, 6, 2**61 - 1)))
        for ext in (step, self.alternate(step, c)):
            section, alpha, _inverse = ext._columns
            assert_same_element(T_A.map_coefficients(x, section, T_B),
                                ref.map_coefficients(T_A, x, ext.section, T_B))
            assert_same_element(T_B.map_coefficients(y, alpha, T_A),
                                ref.map_coefficients(T_B, y, ext.alpha, T_A))
            in_j = {i: F(5, 3) * v for i, v in enumerate(ext.kernel[0]) if v}
            for v in (vec, in_j):
                assert ext.kernel_coords(v) == ref.kernel_coords(ext, v)
            ints = {i: 7 * i + 1 for i in in_j}
            assert ext.kernel_coords(ints, den) == ref.kernel_coords(
                ext, {i: F(k, den) for i, k in ints.items()})

    def test_built_once_over_three_cycles(self, monkeypatch):
        # the solution map once per obstruction space (on L's d and on the cone's
        # D), the integer columns once per extension, a replaced one its own
        solved, made = Counter(), Counter()
        solution, int_columns = GradedMap._solution, la.int_columns

        def counting_solution(f):
            if f._solved is None:
                solved[id(f)] += 1
            return solution(f)

        def counting_columns(a):
            made["columns"] += 1
            return int_columns(a)

        monkeypatch.setattr(GradedMap, "_solution", counting_solution)
        monkeypatch.setattr(la, "int_columns", counting_columns)
        c = series_objects(6)
        assert made["columns"] == 3  # the section, alpha and [J | 1]⁻¹ of c's extension
        columns, results = c["ext"]._columns, [series_cycle(c)]
        ds = (c["T"].factor.d, c["triple"].setting.obstruction_space()[0].complex.d)
        kept = [d._solved for d in ds]
        results += [series_cycle(c), series_cycle(c)]
        assert results[0] == results[1] == results[2]
        assert solved == {id(d): 1 for d in ds} and all(d._solved is k for d, k in zip(ds, kept))
        assert made["columns"] == 3 and c["ext"]._columns is columns
        alt = self.alternate(c["ext"], F(3, 7))
        assert made["columns"] == 6 and alt._columns[0] != columns[0]
        cls = obstruction_single(alt, c["x"], tensor_B=c["T_B"])
        lift = lift_if_unobstructed(alt, c["x"], cls, tensor_B=c["T_B"])
        assert c["T_B"].map_coefficients(lift.element, alt._columns[1], c["T"]) == c["x"].element
        assert made["columns"] == 6 and set(solved.values()) == {1}
