"""Built-in example DGLAs, morphism pairs, and coefficient algebras.

These are the objects exercised by the test suite and exposed through the
CLI's `examples` command.  Constructors are memoised so that shared targets
compare equal across pairs.
"""

from __future__ import annotations

from functools import lru_cache

from .artin import (
    ONE,
    CoefficientAlgebra,
    SmallExtension,
    artin_from_labels,
    quotient_extension,
    square_zero_algebra,
    truncated_polynomial_algebra,
)
from .dgla import (
    Dgla,
    DglaMorphism,
    abelian_dgla,
    dgla_from_labels,
    direct_sum_dgla,
    endomorphism_dgla,
    identity_morphism,
    zero_dgla,
    zero_morphism,
)
from .graded import (ChainComplex, GradedSpace, element_from_labels, identity_map,
                     map_from_basis_images, place_blocks, whole)


def _complex(window, basis, diff=None) -> ChainComplex:
    space = GradedSpace(window[0], window[1], basis)
    images = {lab: element_from_labels(space, val, space.locate(lab)[0] + 1)
              for lab, val in (diff or {}).items()}
    return ChainComplex(space, map_from_basis_images(space, space, 1, images))


@lru_cache(maxsize=None)
def heis0() -> Dgla:
    """Heisenberg algebra in degree 0: [p,q] = z, z central, d = 0."""
    cx = _complex((0, 0), {0: ("p", "q", "z")})
    return dgla_from_labels(cx, {("p", "q"): {"z": 1}})


@lru_cache(maxsize=None)
def heis() -> Dgla:
    """a in degree 0, x and y in degree 1, [a,x] = y, d = 0."""
    cx = _complex((0, 1), {0: ("a",), 1: ("x", "y")})
    return dgla_from_labels(cx, {("a", "x"): {"y": 1}})


@lru_cache(maxsize=None)
def obstructed() -> Dgla:
    """x in degree 1, y in degree 2, [x,x] = 2y, d = 0: H² = ⟨y⟩ obstructs."""
    cx = _complex((1, 2), {1: ("x",), 2: ("y",)})
    return dgla_from_labels(cx, {("x", "x"): {"y": 2}})


@lru_cache(maxsize=None)
def acyclic() -> Dgla:
    """Abelian two-term complex d(u) = v; H = 0."""
    cx = _complex((0, 1), {0: ("u",), 1: ("v",)}, {"u": {"v": 1}})
    return abelian_dgla(cx)


@lru_cache(maxsize=None)
def abelian2() -> Dgla:
    """Abelian, d = 0: two degree-1 and one degree-2 basis vectors."""
    cx = _complex((1, 2), {1: ("x1", "x2"), 2: ("y1",)})
    return abelian_dgla(cx)


@lru_cache(maxsize=None)
def endo_acyclic() -> Dgla:
    """End(u→v) with graded commutator: degrees −1..1, d ≠ 0, nonabelian."""
    return endomorphism_dgla(acyclic().complex)


@lru_cache(maxsize=None)
def sl2() -> Dgla:
    """sl₂ in degree 0: [h,e] = 2e, [h,f] = −2f, [e,f] = h; Jacobi is rigid."""
    cx = _complex((0, 0), {0: ("e", "f", "h")})
    return dgla_from_labels(cx, {
        ("h", "e"): {"e": 2},
        ("h", "f"): {"f": -2},
        ("e", "f"): {"h": 1},
    })


@lru_cache(maxsize=None)
def zero() -> Dgla:
    return zero_dgla()


EXAMPLE_DGLAS = {
    "zero": zero,
    "heis0": heis0,
    "heis": heis,
    "obstructed": obstructed,
    "acyclic": acyclic,
    "abelian2": abelian2,
    "endo_acyclic": endo_acyclic,
    "sl2": sl2,
}


@lru_cache(maxsize=None)
def _sum_acyclic() -> tuple:
    return direct_sum_dgla(acyclic(), acyclic(), ("A", "B"))


@lru_cache(maxsize=None)
def pair_idid_obstructed() -> tuple[DglaMorphism, DglaMorphism]:
    L = obstructed()
    return identity_morphism(L), identity_morphism(L)


@lru_cache(maxsize=None)
def pair_idid_heis() -> tuple[DglaMorphism, DglaMorphism]:
    L = heis()
    return identity_morphism(L), identity_morphism(L)


@lru_cache(maxsize=None)
def pair_idid_endo() -> tuple[DglaMorphism, DglaMorphism]:
    L = endo_acyclic()
    return identity_morphism(L), identity_morphism(L)


@lru_cache(maxsize=None)
def pair_idzero_heis0() -> tuple[DglaMorphism, DglaMorphism]:
    L = heis0()
    return identity_morphism(L), zero_morphism(L, L)


@lru_cache(maxsize=None)
def pair_inj_abelian() -> tuple[DglaMorphism, DglaMorphism]:
    """h, g the two inclusions acyclic → acyclic ⊕ acyclic; h is injective."""
    M, layout = _sum_acyclic()
    L = acyclic()
    own, ident = whole(L.space), identity_map(L.space)
    h, g = (place_blocks(L.space, M.space, 0, [(1, ident, own, layout[part])]) for part in "AB")
    return DglaMorphism(L, M, h), DglaMorphism(L, M, g)


@lru_cache(maxsize=None)
def pair_m_zero() -> tuple[DglaMorphism, DglaMorphism]:
    """L = heis0, N = abelian2, M = 0: the no-constraint pair."""
    Z = zero()
    return zero_morphism(heis0(), Z), zero_morphism(abelian2(), Z)


@lru_cache(maxsize=None)
def pair_sources_zero() -> tuple[DglaMorphism, DglaMorphism]:
    """L = N = 0, M = heis: the degenerate pair with C ≅ M[−1]."""
    Z = zero()
    M = heis()
    return zero_morphism(Z, M), zero_morphism(Z, M)


EXAMPLE_PAIRS = {
    "pair_idid_obstructed": pair_idid_obstructed,
    "pair_idid_heis": pair_idid_heis,
    "pair_idid_endo": pair_idid_endo,
    "pair_idzero_heis0": pair_idzero_heis0,
    "pair_inj_abelian": pair_inj_abelian,
    "pair_m_zero": pair_m_zero,
    "pair_sources_zero": pair_sources_zero,
}


@lru_cache(maxsize=None)
def artin_kt(n: int) -> CoefficientAlgebra:
    """m_A for K[t]/t^n."""
    return truncated_polynomial_algebra(n)


@lru_cache(maxsize=None)
def artin_square_zero() -> CoefficientAlgebra:
    """K[x,y]/(x², xy, y²): all products vanish, ν = 2."""
    return square_zero_algebra(("x", "y"))


@lru_cache(maxsize=None)
def artin_poly2() -> CoefficientAlgebra:
    """K[u,v]/m³: basis u, v, u², uv, v² with degree-3 products zero."""
    return artin_from_labels(
        ("u", "v", "uu", "uv", "vv"),
        {
            ("u", "u"): {"uu": 1},
            ("u", "v"): {"uv": 1},
            ("v", "v"): {"vv": 1},
        },
    )


EXAMPLE_ARTIN = {
    "kt2": lambda: artin_kt(2),
    "kt3": lambda: artin_kt(3),
    "kt4": lambda: artin_kt(4),
    "kt5": lambda: artin_kt(5),
    "square_zero": artin_square_zero,
    "poly2": artin_poly2,
}


@lru_cache(maxsize=None)
def extension_poly2_mod_uu() -> SmallExtension:
    """K[u,v]/m³ → (K[u,v]/m³)/⟨u²⟩, kernel ⟨u²⟩: a two-variable base."""
    return quotient_extension(artin_poly2(), ("uu",))


@lru_cache(maxsize=None)
def extension_morphism_poly2_to_tower():
    """Morphism of small extensions (φ_B, φ_A, φ_J) from the two-variable base
    onto the K[t]/t³ → K[t]/t² tower step: u ↦ t, v ↦ 0, u² ↦ t².

    Returns (e1, e2, phi_B, phi_A, phi_J) as sparse columns on the m-bases.
    """
    e1 = extension_poly2_mod_uu()
    from .artin import small_extension_tower
    e2 = small_extension_tower(2)[1]  # K[t]/t³ → K[t]/t²
    phi_B = {e1.B.locate("u"): {e2.B.locate("t"): ONE}, e1.B.locate("uu"): {e2.B.locate("t^2"): ONE}}
    phi_A = {e1.A.locate("u"): {e2.A.locate("t"): ONE}}
    phi_J = {0: {0: ONE}}  # u² ↦ t², both kernels one-dimensional
    return e1, e2, phi_B, phi_A, phi_J


def free_nilpotent_class3() -> Dgla:
    """Free 2-generator nilpotent Lie algebra of class 3, in degree 0.

    Basis a, b, ab=[a,b], aab=[a,[a,b]], bab=[b,[a,b]]; the BCH oracle.
    """
    cx = _complex((0, 0), {0: ("a", "b", "ab", "aab", "bab")})
    return dgla_from_labels(cx, {
        ("a", "b"): {"ab": 1},
        ("a", "ab"): {"aab": 1},
        ("b", "ab"): {"bab": 1},
    })
