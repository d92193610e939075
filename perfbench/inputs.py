"""Seeded input family for the benchmark.

V_k is k acyclic pairs u_i -> v_i (u_i in degree 0, v_i in degree 1) plus a
closed class w in degree 0 and a closed class z in degree 1.  End(V_k) has
dimension (2k+2)^2 and, by Kunneth, H(End V_k) = End(H V_k) has dims
{-1: 1, 0: 2, 1: 1} whatever the coefficients.  The *dense* variant
conjugates the differential of V_k by a fixed unimodular integer basis
change in each degree: the cohomology is unchanged, the matrices become
dense and coefficients grow.

The seed changes coefficients only, never sizes: it flips the signs of the
basis vectors of every DGLA and of the matching coordinates of every
element.  Each seed therefore gives different numbers to the library but an
isomorphic problem with the same magnitudes, so the work done, and with it
the figures reported, do not depend on which seed a run uses.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mcdeform import library as lib
from mcdeform.artin import small_extension, tensor_dgla, truncated_polynomial_algebra
from mcdeform.dgla import Dgla, endomorphism_dgla, identity_morphism
from mcdeform.graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    GradedSpace,
    zero_element,
)
from mcdeform.maurer_cartan import gauge_apply, mc_triple, pair_setting

SERIES_ALGEBRAS = ("nilp3", "end1")


def _matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _unimodular(rnd: random.Random, n: int) -> list[list[int]]:
    """Dense unimodular L·U: unit triangular factors, off-diagonal 1 or 2."""
    low = [[1 if i == j else (rnd.randint(1, 2) if j < i else 0) for j in range(n)]
           for i in range(n)]
    up = [[1 if i == j else (rnd.randint(1, 2) if j > i else 0) for j in range(n)]
          for i in range(n)]
    return _matmul(low, up)


def basis_signs(space: GradedSpace, seed: int, tag: str) -> dict[tuple[int, int], int]:
    rnd = random.Random(f"signs:{tag}:{seed}")
    return {(i, p): rnd.choice((-1, 1)) for i in space.degrees() for p in range(space.dim(i))}


def _twist_map(m: GradedMap, s: dict) -> GradedMap:
    """Matrix of m after the basis change e -> s(e)·e on source and target."""
    blocks = {i: [[c * s[(i + m.degree, r)] * s[(i, q)] for q, c in enumerate(row)]
                  for r, row in enumerate(block)]
              for i, block in m.blocks.items()}
    return GradedMap(m.source, m.target, m.degree, blocks)


def twist_dgla(L: Dgla, seed: int, tag: str) -> Dgla:
    """The DGLA isomorphic to L by the seeded sign change of its basis."""
    s = basis_signs(L.space, seed, tag)
    brackets = {(a, b): GradedElement(L.space, {k: c * s[a] * s[b] * s[k]
                                                for k, c in val.coords.items()})
                for (a, b), val in L.brackets.items()}
    return Dgla(ChainComplex(L.space, _twist_map(L.d, s)), brackets)


def v_complex(k: int, dense: bool) -> ChainComplex:
    """V_k: d(u_i) = (1 + i mod 3)·v_i, or P1·d·Q for fixed dense unimodular
    P1, Q when dense."""
    n = k + 1
    d = [[(1 + i % 3) if i == j and i < k else 0 for j in range(n)] for i in range(n)]
    if dense:
        rnd = random.Random(f"template:V{k}")
        d = _matmul(_matmul(_unimodular(rnd, n), d), _unimodular(rnd, n))
    space = GradedSpace(0, 1, {0: tuple(f"u{i}" for i in range(k)) + ("w",),
                               1: tuple(f"v{i}" for i in range(k)) + ("z",)})
    return ChainComplex(space, GradedMap(space, space, 1,
                                         {0: [[Fraction(c) for c in row] for row in d]}))


def end_dgla(k: int, seed: int, dense: bool) -> Dgla:
    return twist_dgla(endomorphism_dgla(v_complex(k, dense)), seed, f"End{k}")


def series_dgla(name: str, seed: int) -> Dgla:
    base = lib.free_nilpotent_class3() if name == "nilp3" else endomorphism_dgla(
        v_complex(1, False))
    return twist_dgla(base, seed, name)


def idid(L):
    return identity_morphism(L), identity_morphism(L)


def template_element(T, degree: int, tag: str, seed: int) -> GradedElement:
    """Element of T = L ⊗ m_A with coefficients in [-2, 2] from a fixed
    template, signed by the seed's sign change of L's basis."""
    rnd = random.Random(f"element:{tag}")
    s = basis_signs(T.factor.space, seed, tag.split(":")[0])
    coords = {}
    for i in range(T.space.dim(degree)):
        c = rnd.randint(-2, 2)
        if c:
            ldeg, lidx, _a = T.from_tensor[(degree, i)]
            coords[(degree, i)] = Fraction(c * s[(ldeg, lidx)])
    return GradedElement(T.space, coords, degree)


def gauge_trivial(T, c: GradedElement) -> GradedElement:
    """e^c * 0, a Maurer-Cartan element by construction."""
    return gauge_apply(T, c, zero_element(T.space, 1))


def tower_extension(n: int):
    """K[t]/t^{n+1} -> K[t]/t^n, the extension the CLI's --tower n+1 builds."""
    B = truncated_polynomial_algebra(n + 1)
    A = truncated_polynomial_algebra(n)
    alpha = [[Fraction(int(i == j)) for j in range(B.dim)] for i in range(A.dim)]
    return small_extension(B, A, alpha)


def series_case(name: str, n: int, seed: int) -> dict:
    """Objects for one (L, n) cell of the series workload over L ⊗ m_{K[t]/t^n}.

    a, b are gauge parameters; for End(V_1) also x = e^c * 0 (MC), the small
    extension K[t]/t^{n+1} -> K[t]/t^n, and a verified pair triple
    (x, e^p * x, p) over (id, id) with pair gauge parameters pa, pb.
    """
    L = series_dgla(name, seed)
    A = truncated_polynomial_algebra(n)
    T = tensor_dgla(L, A)
    case = {"name": name, "n": n, "L": L, "A": A, "T": T,
            "a": template_element(T, 0, f"{name}:a:{n}", seed),
            "b": template_element(T, 0, f"{name}:b:{n}", seed)}
    if name == "end1":
        x = gauge_trivial(T, template_element(T, 0, f"{name}:c:{n}", seed))
        s = pair_setting(*idid(L), A)
        p = template_element(s.tM, 0, f"{name}:p:{n}", seed)
        case.update(
            x=x, ext=tower_extension(n), setting=s,
            triple=mc_triple(s, x, gauge_apply(s.tN, p, x), p),
            pa=template_element(s.tL, 0, f"{name}:pa:{n}", seed),
            pb=template_element(s.tN, 0, f"{name}:pb:{n}", seed))
    return case


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among rationals."""
    best = 0
    for c in values:
        c = Fraction(c)
        best = max(best, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return best


def dgla_profile(L: Dgla) -> dict:
    """Dims, differential nnz/density and coefficient size of a DGLA."""
    space = L.space
    nnz = cells = 0
    coeffs = []
    for i in space.degrees():
        cells += space.dim(i + 1) * space.dim(i)
        for row in L.d.blocks.get(i, []):
            coeffs.extend(c for c in row if c != 0)
    nnz = len(coeffs)
    for val in L.brackets.values():
        coeffs.extend(val.coords.values())
    return {
        "dims": {str(i): space.dim(i) for i in space.degrees()},
        "total_dim": space.total_dim(),
        "d_nnz": nnz,
        "d_density": round(nnz / cells, 4) if cells else 0.0,
        "bracket_entries": len(L.brackets),
        "max_coeff_bits": max_bits(coeffs),
    }
