"""The structure-constant validators against the brute-force reference."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import brute_validate as brute
import mutations
from mcdeform import documents
from mcdeform import library as lib
from mcdeform.dgla import (
    Dgla,
    DglaMorphism,
    identity_morphism,
    morphism_from_labels,
    validate_dgla,
    validate_morphism,
    zero_morphism,
)
from mcdeform.errors import AxiomViolation
from mcdeform.graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    GradedSpace,
    identity_map,
)


def assert_same(fast, reference):
    assert [str(v) for v in fast] == [str(v) for v in reference]


ORDERED = ("leibniz", "jacobi", "bracket_preservation")


def in_basis_order(L, report):
    """The report without the Leibniz and bracket-preservation pairs and the
    Jacobi triples whose basis vectors (of L) are out of basis order: the
    pairs a ≤ b and triples a ≤ b ≤ c remain, every other entry is kept."""
    def ordered(v):
        keys = [L.space.locate(lab) for lab in v.witness]
        return keys == sorted(keys)

    return [v for v in report if v.axiom not in ORDERED or ordered(v)]


def assert_matches_brute_force(L):
    """validate_dgla is the brute report over the ordered pairs and triples,
    and it is empty exactly when the report over all of them is."""
    fast, reference = validate_dgla(L), brute.validate_dgla(L)
    assert_same(fast, in_basis_order(L, reference))
    assert bool(fast) == bool(reference)
    return fast


def assert_morphism_matches_brute_force(phi):
    """validate_morphism is the brute report over the ordered pairs, and it is
    empty exactly when the report over all of them is."""
    fast, reference = validate_morphism(phi), brute.validate_morphism(phi)
    assert_same(fast, in_basis_order(phi.source, reference))
    assert bool(fast) == bool(reference)
    return fast


@pytest.mark.parametrize("name, L", mutations.corpus(), ids=[n for n, _ in mutations.corpus()])
def test_mutation_corpus_matches_brute_force(name, L):
    assert assert_matches_brute_force(L), name
    # doubling every vector breaks bracket preservation wherever a bracket is nonzero
    twice = DglaMorphism(L, L, identity_map(L.space).scale(2))
    assert_morphism_matches_brute_force(twice)


@pytest.mark.parametrize("name", sorted(lib.EXAMPLE_DGLAS))
def test_builtin_dglas_match_brute_force(name):
    L = lib.EXAMPLE_DGLAS[name]()
    assert validate_dgla(L) == brute.validate_dgla(L) == []
    for phi in (identity_morphism(L), zero_morphism(L, L)):
        assert_morphism_matches_brute_force(phi)


@pytest.mark.parametrize("name", sorted(lib.EXAMPLE_PAIRS))
def test_builtin_pairs_match_brute_force(name):
    for phi in lib.EXAMPLE_PAIRS[name]():
        assert_morphism_matches_brute_force(phi)
        for D in (phi.source, phi.target):
            assert_matches_brute_force(D)


def test_morphism_violations_match_brute_force():
    L = lib.obstructed()
    scaled = morphism_from_labels(L, L, {"x": {"x": 2}, "y": {"y": 2}})
    A = lib.acyclic()
    dropped = morphism_from_labels(A, A, {"u": {"u": 1}})
    for phi in (scaled, dropped):
        assert assert_morphism_matches_brute_force(phi)


SMALL = ("heis0", "heis", "obstructed", "acyclic", "endo_acyclic", "sl2")


@st.composite
def corrupted(draw):
    """A small built-in L and a copy with one structure constant or one
    differential entry set to a small integer."""
    L = lib.EXAMPLE_DGLAS[draw(st.sampled_from(SMALL))]()
    space = L.space
    keys = [(i, p) for i in space.degrees() for p in range(space.dim(i))]
    edges = [(a, k) for a in keys for k in keys if k[0] == a[0] + 1]
    value = Fraction(draw(st.integers(min_value=-2, max_value=2)))
    if edges and draw(st.booleans()):
        (i, p), (_j, q) = draw(st.sampled_from(edges))
        blocks = {n: L.d.matrix(n) for n in space.degrees()}
        blocks[i][q][p] = value
        bad = Dgla(ChainComplex(space, GradedMap(space, space, 1, blocks)), L.brackets)
    else:
        a, b = sorted(draw(st.lists(st.sampled_from(keys), min_size=2, max_size=2)))
        k = draw(st.sampled_from(keys))
        brackets = dict(L.brackets)
        coords = dict(brackets[(a, b)].coords) if (a, b) in brackets else {}
        coords[k] = value
        brackets[(a, b)] = GradedElement(space, coords)
        bad = Dgla(L.complex, brackets)
    return L, bad


@settings(max_examples=80, deadline=None)
@given(corrupted())
def test_corruptions_match_brute_force(case):
    L, bad = case
    assert_matches_brute_force(bad)
    for phi in (DglaMorphism(L, bad, identity_map(L.space)),
                DglaMorphism(bad, L, identity_map(L.space))):
        assert_morphism_matches_brute_force(phi)


@st.composite
def random_maps(draw):
    """A degree-0 map between two small built-in DGLAs with entries drawn
    mostly from 0, so that some are morphisms and most are not."""
    L, M = (lib.EXAMPLE_DGLAS[draw(st.sampled_from(SMALL))]() for _ in range(2))
    scalar = st.sampled_from([0, 0, 0, 1, -1, 2]).map(Fraction)
    blocks = {i: [[draw(scalar) for _p in range(L.space.dim(i))]
                  for _q in range(M.space.dim(i))]
              for i in L.space.degrees() if M.space.dim(i)}
    return DglaMorphism(L, M, GradedMap(L.space, M.space, 0, blocks))


@settings(max_examples=80, deadline=None)
@given(random_maps())
def test_random_morphisms_match_brute_force(phi):
    assert_morphism_matches_brute_force(phi)


@st.composite
def bracket_tables(draw):
    """A DGLA candidate on at most five basis vectors in degrees −1 … 1, with
    a random differential and random structure constants, a few of them
    with a term outside the degree |a| + |b|."""
    dims = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=3, max_size=3)
                .filter(lambda ds: 0 < sum(ds) <= 5))
    labels = iter("abcde")
    space = GradedSpace(-1, 1, {deg: tuple(next(labels) for _ in range(n))
                                for deg, n in zip((-1, 0, 1), dims)})
    keys = [(i, p) for i in space.degrees() for p in range(space.dim(i))]
    scalar = st.integers(min_value=-2, max_value=2).map(Fraction)
    blocks = {i: [[draw(scalar) for _p in range(space.dim(i))]
                  for _q in range(space.dim(i + 1))]
              for i in (-1, 0) if draw(st.booleans())}
    d = GradedMap(space, space, 1, blocks)
    pairs = [(a, b) for i, a in enumerate(keys) for b in keys[i:]]
    brackets = {}
    nonzero = scalar.filter(bool)
    for a, b in draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4, unique=True)):
        allowed = [k for k in keys if k[0] == a[0] + b[0]]
        if draw(st.integers(min_value=0, max_value=5)) == 0:
            allowed = keys
        if allowed:
            coords = draw(st.dictionaries(st.sampled_from(allowed), nonzero,
                                          min_size=1, max_size=2))
            brackets[(a, b)] = GradedElement(space, coords)
    return Dgla(ChainComplex(space, d), brackets)


@settings(max_examples=150, deadline=None)
@given(bracket_tables())
def test_random_bracket_tables_match_brute_force(L):
    assert_matches_brute_force(L)


# --- validate each document DGLA once ---------------------------------------


def test_first_error_of_a_pair_is_unchanged():
    # g's source is the corrupted sl2, h is valid: the error names g.source
    _name, bad = mutations.corpus()[0]
    good = lib.sl2()
    doc = documents.serialize_pair(identity_morphism(good),
                                   DglaMorphism(bad, good, identity_map(good.space)))
    with pytest.raises(AxiomViolation) as e:
        documents.parse_pair_body(doc)
    assert str(e.value).startswith("pair.g.source: DGLA axioms violated (jacobi")
