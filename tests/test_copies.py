"""Every built-in DGLA, pair and coefficient algebra, a tensor DGLA with its
factored bracket, and one instance of every record type survive copy.copy,
copy.deepcopy and a pickle round trip: the copy equals the original, stays
frozen, and brackets, differentials, maps and products as the original does
on random elements."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from mcdeform import artin, dgla, graded, maurer_cartan, path_object
from mcdeform import library as lib
from mcdeform.artin import small_extension_tower, tensor_dgla, truncated_polynomial_algebra
from mcdeform.graded import GradedElement, Record
from util_random import dg_uw, rand_mc, rand_triple

COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


def random_element(rnd: random.Random, space) -> GradedElement:
    """A mixed-degree element with random rational coordinates on a random support."""
    return GradedElement(space, {(i, p): Fraction(rnd.randint(-9, 9), rnd.choice((1, 2, 7)))
                                 for i in space.degrees() for p in range(space.dim(i))
                                 if rnd.random() < 0.7})


def assert_dgla_copied(L, C, rnd: random.Random) -> None:
    # the copy's space equals the original's, so it takes the original's elements
    assert C == L
    for _ in range(5):
        x, y = random_element(rnd, L.space), random_element(rnd, L.space)
        assert C.bracket(x, y) == L.bracket(x, y)
        assert C.differential_of(x) == L.differential_of(x)


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(lib.EXAMPLE_DGLAS))
def test_builtin_dglas(name, how):
    L = lib.EXAMPLE_DGLAS[name]()
    assert_dgla_copied(L, COPIES[how](L), random.Random(name))


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(lib.EXAMPLE_PAIRS))
def test_builtin_pairs(name, how):
    rnd = random.Random(name)
    pair = lib.EXAMPLE_PAIRS[name]()
    copied = COPIES[how](pair)
    assert copied == pair
    for f, c in zip(pair, copied):
        assert_dgla_copied(f.source, c.source, rnd)
        assert_dgla_copied(f.target, c.target, rnd)
        for _ in range(5):
            x = random_element(rnd, f.source.space)
            assert c.apply(x) == f.apply(x)


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(lib.EXAMPLE_ARTIN))
def test_builtin_coefficient_algebras(name, how):
    rnd = random.Random(name)
    A = lib.EXAMPLE_ARTIN[name]()
    C = COPIES[how](A)
    assert C == A and (C.levels, C.nu, C.adapted_basis) == (A.levels, A.nu, A.adapted_basis)
    for _ in range(5):
        a, b = ({i: Fraction(rnd.randint(-5, 5), rnd.choice((1, 3))) for i in range(A.dim)}
                for _ in range(2))
        assert C.product(a, b) == A.product(a, b)


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("coeff", ["K[t]/t^5", "uw"])
def test_a_factored_tensor(coeff, how):
    rnd = random.Random(coeff)
    A = truncated_polynomial_algebra(5) if coeff == "K[t]/t^5" else dg_uw()
    T = tensor_dgla(lib.sl2(), A)
    C = COPIES[how](T)
    assert C == T and C.complex == T.complex
    for _ in range(5):
        x, y = random_element(rnd, T.space), random_element(rnd, T.space)
        assert C.bracket(x, y) == T.bracket(x, y)
    # neither tensor built its bracket view to bracket, and the views agree
    assert "brackets" not in vars(C) and "brackets" not in vars(T)
    assert C.brackets == T.brackets != {}


def records() -> dict:
    """One instance of every record type: on heis and the (id, id) pair over
    heis, along the tower step K[t]/t³ → K[t]/t²."""
    rnd = random.Random(5)
    L = lib.heis()
    h, g = lib.pair_idid_heis()
    ext = small_extension_tower(2)[1]
    T = tensor_dgla(L, ext.A)
    x = maurer_cartan.mc_element(T, rand_mc(rnd, T))
    s = maurer_cartan.pair_setting(h, g, ext.A)
    t = rand_triple(rnd, "pair_idid_heis", s)
    a = GradedElement(T.space, {(0, 0): Fraction(1)}, 0)
    e = graded.basis_element(L.space, 1, 0)
    m = path_object.poly_t_term(L, 1, e) + path_object.poly_t_term(L, 2, -e)
    hpair = path_object.h_pair_element(h, g, graded.zero_element(L.space, 1),
                                       graded.zero_element(L.space, 1), m)
    found = [L.space, a, L.complex, dgla.Violation("jacobi", ("x", "y", "a"), "defect x"), L,
             h.chain_map(), h, dgla.cone_pair(h, g), dgla.fiber_product_dgla(h, g),
             dgla.CartanHomotopyCandidate(L, L, graded.zero_map(L.space, L.space, -1)),
             ext.A, ext, T, x, maurer_cartan.obstruction_single(ext, x), s, t,
             maurer_cartan.obstruction_pair(ext, t), maurer_cartan.Equivalent(a),
             maurer_cartan.NotEquivalent("no witness"), maurer_cartan.Undecided("budget spent"),
             m, path_object.TruncationWindow(2), hpair, path_object.barycentric_embed(hpair),
             path_object.map_triple_to_K(t)]
    return {type(r).__name__: r for r in found}


RECORDS = records()


def test_every_record_type_has_an_instance():
    defined = {cls.__name__ for module in (graded, dgla, artin, maurer_cartan, path_object)
               for cls in vars(module).values() if isinstance(cls, type)
               and issubclass(cls, Record) and cls is not Record and not cls.__name__.startswith("_")}
    assert set(RECORDS) == defined and len(defined) == 26


@pytest.mark.parametrize("how", sorted(COPIES))
@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records(name, how):
    r = RECORDS[name]
    c = COPIES[how](r)
    assert type(c) is type(r) and c == r
    for obj in (r, c):
        with pytest.raises(AttributeError):
            setattr(obj, obj._fields[0], getattr(obj, obj._fields[0]))
        with pytest.raises(AttributeError):
            delattr(obj, obj._fields[-1])
    assert c.replace() == r


def test_record_repr_hash_and_hidden_fields():
    v = RECORDS["Violation"]
    assert repr(v) == "Violation(axiom='jacobi', witness=('x', 'y', 'a'), detail='defect x')"
    assert hash(v) == hash(copy.deepcopy(v)) and len({v, v.replace(), v.replace(detail="")}) == 2
    assert repr(path_object.TruncationWindow(3)) == "TruncationWindow(N=3)"
    # the class's problem (its extension, input and B side) is kept, but neither
    # compared nor shown
    for name in ("ObstructionClass", "PairObstructionClass"):
        cls = RECORDS[name]
        assert cls.problem and "problem=" not in repr(cls)
        assert cls.replace(problem=()) == cls and cls.replace(problem=()).problem == ()
    with pytest.raises(TypeError):
        hash(RECORDS["GradedElement"])


def record_changes() -> dict:
    """For each record type that compares by Record's rule alone: a change to
    one compared field, and the fields it keeps but does not compare."""
    L, h, A = RECORDS["Dgla"], RECORDS["DglaMorphism"], RECORDS["CoefficientAlgebra"]
    m = RECORDS["PolyElement"]
    a_to_x = graded.map_from_images(L.space, L.space, 1, {(0, 0): graded.basis_element(L.space, 1, 0)})
    return {
        "GradedSpace": ({"dmax": L.space.dmax + 1}, ()),
        "ChainComplex": ({"d": a_to_x}, ()),
        "ChainMap": ({"map": h.map.scale(2)}, ()),
        "DglaMorphism": ({"map": h.map.scale(2)}, ()),
        "PolyElement": ({"t_part": {e: 2 * c for e, c in m.t_part.items()}}, ()),
        "CoefficientAlgebra": ({"labels": ("s",)}, ()),
        "ConeComplex": ({"kind": "single"}, ("convention", "h", "g", "layout")),
        "PairSetting": ({"coeff": truncated_polynomial_algebra(4)},
                        ("tL", "tN", "tM", "h_tensor", "g_tensor")),
        "TensorDgla": ({"coeff": truncated_polynomial_algebra(4)}, ()),
        "TruncationWindow": ({"N": RECORDS["TruncationWindow"].N + 1}, ()),  # one field, hashable
    }


@pytest.mark.parametrize("name", sorted(record_changes()))
def test_records_compare_by_their_declared_fields(name):
    r = RECORDS[name]
    change, hidden = record_changes()[name]
    assert type(r).__eq__ in (Record.__eq__, dgla.Dgla.__eq__)
    assert r._compared == tuple(f for f in r._fields if f not in hidden)
    # the key is a tuple of the compared fields, whatever their number
    assert r._key(r) == tuple(getattr(r, f) for f in r._compared) and type(r._key(r)) is tuple
    for how in COPIES.values():
        assert how(r) == r
    changed = r.replace(**change)
    assert changed != r and not changed == r
    for field in hidden:
        assert f"{field}=" not in repr(r)
        assert r.replace(**{field: None}) == r
    for obj in (r, changed):
        if name == "TruncationWindow":  # no mapping field
            assert hash(obj) == hash(copy.deepcopy(obj)) == hash((obj.N,))
        else:
            with pytest.raises(TypeError):
                hash(obj)


def test_a_tensor_is_a_dgla_equal_to_its_brackets():
    T = tensor_dgla(lib.sl2(), truncated_polynomial_algebra(4))
    T2 = tensor_dgla(copy.deepcopy(lib.sl2()), truncated_polynomial_algebra(4))
    assert isinstance(T, dgla.Dgla) and T.factor is not T2.factor
    # over equal factors and algebras: equal, and no bracket view is built
    assert T == T2 and not T != T2
    assert "brackets" not in vars(T) and "brackets" not in vars(T2)
    # a plain DGLA with the same complex and brackets equals it, both ways
    D = dgla.Dgla(T.complex, T.brackets)
    assert T == D and D == T
    assert T != lib.sl2() and lib.sl2() != T


@pytest.mark.parametrize("how", sorted(COPIES))
def test_a_copied_tensor_builds_no_bracket_view(how):
    T = tensor_dgla(lib.sl2(), truncated_polynomial_algebra(4))
    C = COPIES[how](T)
    assert C == T and C.to_tensor == T.to_tensor and C.levels == T.levels
    assert "brackets" not in vars(C) and "brackets" not in vars(T)
