"""Every built-in DGLA, pair and coefficient algebra, and a tensor DGLA with
its factored bracket, survive copy.copy, copy.deepcopy and a pickle round
trip: the copy equals the original, and brackets, differentials, maps and
products as the original does on random elements."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from mcdeform import library as lib
from mcdeform.artin import tensor_dgla, truncated_polynomial_algebra
from mcdeform.graded import GradedElement
from util_random import dg_uw

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
    assert C == T and C.dgla.complex == T.dgla.complex
    for _ in range(5):
        x, y = random_element(rnd, T.space), random_element(rnd, T.space)
        assert C.bracket(x, y) == T.bracket(x, y)
    # neither tensor built its bracket view to bracket, and the views agree
    assert "brackets" not in vars(C.dgla) and "brackets" not in vars(T.dgla)
    assert C.dgla.brackets == T.dgla.brackets != {}
