"""Shared randomized-data helpers for the test suite (seeded, deterministic)."""

from __future__ import annotations

import random
from fractions import Fraction

from mcdeform import library as lib
from mcdeform.artin import CoefficientAlgebra
from mcdeform.graded import GradedElement, zero_element
from mcdeform.maurer_cartan import (
    PairSetting,
    gauge_apply,
    mc_residual,
    mc_triple,
    pair_setting,
)


def rand_elem(rnd: random.Random, space_owner, degree: int, lo=-2, hi=2) -> GradedElement:
    """Random homogeneous element of a TensorDgla/Dgla/ChainComplex space."""
    space = getattr(space_owner, "space", space_owner)
    coords = {}
    for i in range(space.dim(degree)):
        c = rnd.randint(lo, hi)
        if c:
            coords[(degree, i)] = Fraction(c)
    return GradedElement(space, coords, degree)


def dg_uw() -> CoefficientAlgebra:
    """Graded nilpotent dg algebra u (degree 1), w (degree −1), uw (degree 0)
    with u·w = uw = −w·u and dw = uw: degree-0 elements of L ⊗ m mix the
    degrees of L, and ν = 3."""
    one = Fraction(1)
    return CoefficientAlgebra(("u", "w", "uw"), {(0, 1): {2: one}}, degrees=(1, -1, 0),
                              diff={1: {2: one}})


def rand_mc(rnd: random.Random, T) -> GradedElement:
    """Random verified-MC element, by rejection plus gauge perturbation."""
    for _ in range(40):
        x = rand_elem(rnd, T, 1)
        if mc_residual(T, x).is_zero():
            a = rand_elem(rnd, T, 0)
            return gauge_apply(T, a, x)
    # fall back to a gauge transform of zero, always MC
    a = rand_elem(rnd, T, 0)
    return gauge_apply(T, a, zero_element(T.space, 1))


def rand_triple(rnd: random.Random, name: str, setting: PairSetting):
    """Random verified McTriple for each built-in pair family."""
    s = setting
    if name in ("pair_idid_obstructed", "pair_idid_heis", "pair_idid_endo"):
        x = rand_mc(rnd, s.tL)
        p = rand_elem(rnd, s.tM, 0)
        y = gauge_apply(s.tN, p, x)
        return mc_triple(s, x, y, p)
    if name == "pair_idzero_heis0":
        return mc_triple(s, zero_element(s.tL.space, 1), zero_element(s.tN.space, 1),
                         rand_elem(rnd, s.tM, 0))
    if name == "pair_m_zero":
        return mc_triple(s, zero_element(s.tL.space, 1), rand_mc(rnd, s.tN),
                         zero_element(s.tM.space, 0))
    if name == "pair_sources_zero":
        return mc_triple(s, zero_element(s.tL.space, 1), zero_element(s.tN.space, 1),
                         rand_elem(rnd, s.tM, 0))
    if name == "pair_inj_abelian":
        # choose p, then x := first component of dp, y := −(second component)
        p = rand_elem(rnd, s.tM, 0)
        dp = s.tM.differential_of(p)
        x = zero_element(s.tL.space, 1)
        y = zero_element(s.tN.space, 1)
        for (deg, idx), c in dp.coords.items():
            lab = s.tM.space.label(deg, idx)
            inner, albl = lab.split("@")
            if inner.startswith("A:"):
                key = s.tL.space.locate(f"{inner[2:]}@{albl}")
                x = x + GradedElement(s.tL.space, {key: c}, 1)
            else:
                key = s.tN.space.locate(f"{inner[2:]}@{albl}")
                y = y + GradedElement(s.tN.space, {key: -c}, 1)
        return mc_triple(s, x, y, p)
    raise ValueError(f"no triple generator for {name}")


def all_pair_settings(A):
    return {name: pair_setting(*fn(), A) for name, fn in lib.EXAMPLE_PAIRS.items()}
