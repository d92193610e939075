"""The trusted construction of results (graded._trusted) against the checked
constructor.

Sums, negatives, scalings, brackets, map images and coefficient maps build
their results without GradedElement's checks.  Here every such result must
rebuild through the public constructor to the same coordinates, and the
series, obstruction, lift and gauge-equivalence results must not change when
the trusted constructor is swapped for a checked one.
"""

import importlib
import pkgutil
import random
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import mcdeform
from mcdeform import artin, dgla, graded
from mcdeform import library as lib
from mcdeform import linalg as la
from mcdeform.artin import small_extension_tower, tensor_dgla, truncated_polynomial_algebra
from mcdeform.errors import DegreeWindowViolation
from mcdeform.graded import GradedElement, GradedMap
from mcdeform.maurer_cartan import (
    Equivalent,
    McElement,
    McTriple,
    ObstructionClass,
    bch_product,
    gauge_apply,
    gauge_apply_pair,
    gauge_equiv_decide,
    lift_if_unobstructed,
    lift_pair_if_unobstructed,
    mc_element,
    mc_residual,
    obstruction_pair,
    obstruction_single,
    pair_setting,
)
import reference_kernels as ref
from util_random import dg_uw, rand_elem, rand_mc, rand_triple

F = Fraction


def assert_rebuilds(z: GradedElement) -> None:
    """z is what the public constructor makes of its own coordinates."""
    assert all(type(c) is Fraction for c in z.coords.values()), z.coords
    assert GradedElement(z.space, z.coords, z.degree).coords == z.coords


def checked(space, coords, degree):
    z = GradedElement(space, coords, degree)
    assert z.coords == coords and all(type(c) is Fraction for c in coords.values()), coords
    return z


def trusting_modules() -> list:
    """Every module of the package that holds the trusted constructor."""
    names = (info.name for info in pkgutil.iter_modules(mcdeform.__path__))
    modules = (importlib.import_module(f"mcdeform.{name}") for name in names)
    return [module for module in modules if hasattr(module, "_trusted")]


@contextmanager
def checked_construction():
    """Every trusted construction goes through the public constructor, which
    must keep the coordinates it is given."""
    with pytest.MonkeyPatch.context() as mp:
        for module in trusting_modules():
            mp.setattr(module, "_trusted", checked)
        yield


def test_the_series_results_are_trusted_constructions(monkeypatch):
    # gauge and BCH make their results through dgla._from_ints, so through a
    # module the checked rerun patches
    assert {graded, dgla, artin} <= set(trusting_modules())
    made = []

    def recording(space, coords, degree):
        made.append(checked(space, coords, degree))
        return made[-1]

    for module in trusting_modules():
        monkeypatch.setattr(module, "_trusted", recording)
    T = tensor_dgla(lib.heis(), truncated_polynomial_algebra(3))
    a, b = T.element_from_labels({"a@t": 1}, 0), T.element_from_labels({"a@t": 2, "a@t^2": 1}, 0)
    x = T.element_from_labels({"x@t": 1, "y@t": F(3, 7)}, 1)
    for result in (gauge_apply(T, a, x), bch_product(T, a, b)):
        assert any(z is result for z in made)


# --- the same results either way ---------------------------------------------


def fingerprint(r):
    if isinstance(r, GradedElement):
        return "element", r.degree, tuple(sorted(r.coords.items()))
    if isinstance(r, McElement):
        return fingerprint(r.element)
    if isinstance(r, McTriple):
        return tuple(fingerprint(z) for z in (r.x, r.y, r.p))
    if isinstance(r, ObstructionClass):
        return r.degree, r.kernel_labels, r.coords, fingerprint(r.cocycle)
    if isinstance(r, Equivalent):
        return "equivalent", fingerprint(r.witness)
    if isinstance(r, (tuple, list)):
        return tuple(fingerprint(z) for z in r)
    return repr(r)


SERIES_DGLAS = ["heis", "obstructed", "sl2", "free_nilpotent_class3", "endo_acyclic"]
PAIRS = ["pair_idid_heis", "pair_idid_obstructed", "pair_idid_endo"]


def series_results(name: str, n: int) -> list:
    """Gauge, residual, BCH, gauge equivalence, obstruction and lift of
    seeded random elements of L ⊗ m_{K[t]/t^n}."""
    rnd = random.Random(f"{name}:{n}")
    L = getattr(lib, name)()
    ext = small_extension_tower(n)[-1]
    T, T_B = tensor_dgla(L, ext.A), tensor_dgla(L, ext.B)
    a, b, x = rand_elem(rnd, T, 0), rand_elem(rnd, T, 0), rand_mc(rnd, T)
    if name == "obstructed":  # x⊗t^k with 2k = n: MC, and obstructed one level up
        x = T.element_from_labels({f"x@t^{n // 2}" if n > 2 else "x@t": 1}, 1)
    x_mc = mc_element(T, x)
    cls = obstruction_single(ext, x_mc, tensor_B=T_B)
    return [gauge_apply(T, a, x), mc_residual(T, x), bch_product(T, a, b),
            gauge_equiv_decide(x_mc, mc_element(T, gauge_apply(T, b, x))),
            cls, lift_if_unobstructed(ext, x_mc, cls, tensor_B=T_B)]


def pair_results(name: str, n: int) -> list:
    """Pair gauge, obstruction and lift of a seeded random MC triple."""
    rnd = random.Random(f"{name}:{n}")
    ext = small_extension_tower(n)[-1]
    s = pair_setting(*getattr(lib, name)(), ext.A)
    t = rand_triple(rnd, name, s)
    cls = obstruction_pair(ext, t)
    return [gauge_apply_pair(rand_elem(rnd, s.tL, 0), rand_elem(rnd, s.tN, 0), t),
            cls, lift_pair_if_unobstructed(ext, t, cls)]


CASES = ([(series_results, name, n) for name in SERIES_DGLAS for n in (2, 4)]
         + [(pair_results, name, n) for name in PAIRS for n in (2, 3)])


@pytest.mark.parametrize("run, name, n", CASES, ids=[f"{name}:{n}" for _r, name, n in CASES])
def test_checked_construction_gives_equal_results(run, name, n):
    trusted = fingerprint(run(name, n))
    with checked_construction():
        assert fingerprint(run(name, n)) == trusted


# --- every trusted result rebuilds ---------------------------------------------


@lru_cache(maxsize=None)
def tensor(name: str, coeff: str):
    A = dg_uw() if coeff == "uw" else truncated_polynomial_algebra(int(coeff))
    return tensor_dgla(getattr(lib, name)(), A)


TENSORS = [(name, coeff) for name in ("heis", "obstructed", "endo_acyclic", "sl2")
           for coeff in ("3", "4", "uw")]


@st.composite
def elements(draw, space, degree=None):
    """Small supports and coefficients ±1, ±2, so that sums often cancel."""
    keys = [(i, p) for i in space.degrees() for p in range(space.dim(i))
            if degree is None or i == degree]
    support = draw(st.lists(st.sampled_from(keys), unique=True, max_size=5)) if keys else []
    return GradedElement(space, {k: F(draw(st.sampled_from((-2, -1, 1, 2)))) for k in support},
                         degree)


@st.composite
def graded_maps(draw, space):
    degree = draw(st.integers(-1, 1))
    blocks = {i: [[F(draw(st.integers(-1, 1))) for _c in range(space.dim(i))]
                  for _r in range(space.dim(i + degree))]
              for i in space.degrees() if space.dim(i) and space.dim(i + degree)}
    return GradedMap(space, space, degree, blocks)


def apply_by_blocks(f: GradedMap, x: GradedElement) -> GradedElement:
    """f(x) as one matrix-vector product per degree."""
    coords = {}
    for i in {deg for deg, _idx in x.coords}:
        image = ref.mat_vec(f.matrix(i), x.component_vector(i))
        coords.update(((i + f.degree, r), c) for r, c in enumerate(image))
    return GradedElement(f.target, coords, None if x.degree is None else x.degree + f.degree)


def map_coefficients_by_terms(T, x, matrix) -> GradedElement:
    """x⊗a ↦ x⊗(matrix·a), one term per matrix entry, through the constructor."""
    coords = {}
    for key, c in x.coords.items():
        ldeg, lidx, ai = T.from_tensor[key]
        for r, row in enumerate(matrix):
            out = T.to_tensor[(ldeg, lidx)][r]
            coords[out] = coords.get(out, 0) + c * row[ai]
    return GradedElement(T.space, coords, x.degree)


def outcome(run):
    try:
        z = run()
    except DegreeWindowViolation:
        return "DegreeWindowViolation"
    assert_rebuilds(z)
    return z.coords, z.degree


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_trusted_result_rebuilds(data):
    T = tensor(*data.draw(st.sampled_from(TENSORS)))
    space = T.space
    degree = data.draw(st.sampled_from([None, *space.degrees()]))
    x, y = data.draw(elements(space, degree)), data.draw(elements(space, degree))
    c = F(data.draw(st.integers(-2, 2)), data.draw(st.integers(1, 3)))
    results = [x + y, x - y, x - x, x + (-x), -x, x.scale(c), c * y, x.scale(0),
               T.bracket(x, y), T.bracket(x, x), T.bracket(y, x), T.differential_of(x)]
    for z in results:
        assert_rebuilds(z)
    assert (x - x).coords == x.scale(0).coords == {}
    f = data.draw(graded_maps(space))
    for z in (x, y, x - y):
        assert outcome(lambda: f.apply(z)) == outcome(lambda: apply_by_blocks(f, z))
    dim = T.coeff.dim
    matrix = [[F(data.draw(st.integers(-1, 1))) for _c in range(dim)] for _r in range(dim)]
    columns = la.int_columns({j: {r: row[j] for r, row in enumerate(matrix) if row[j]}
                              for j in range(dim)})
    for z in (x, y, x + y):
        assert (outcome(lambda: T.map_coefficients(z, columns, T))
                == outcome(lambda: map_coefficients_by_terms(T, z, matrix)))


def test_a_coefficient_map_that_moves_degrees_is_checked():
    # uw has u, w, uw in degrees 1, −1, 0: u ↦ w moves x⊗u by two degrees
    T = tensor("heis", "uw")
    x = T.element_from_labels({"x@u": 1}, 2)
    moves = {0: {1: F(1)}}
    with pytest.raises(DegreeWindowViolation):
        T.map_coefficients(x, la.int_columns(moves), T)
    undeclared = T.element_from_labels({"x@u": 1})
    assert T.map_coefficients(undeclared, la.int_columns(moves), T) == T.element_from_labels({"x@w": 1})
