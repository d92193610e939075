"""The polynomial path object M[t,dt] and the DGLA H_{(h,g)}.

PolyElement arithmetic is exact sparse polynomial arithmetic; truncation
windows appear only where a finite-dimensional complex is needed.  The
truncation shape (t-part ≤ N, dt-part ≤ N−1) is d-closed and keeps the
K[t,dt] factor acyclic.  Its finite model M[t,dt]_N is the tensor product
M ⊗ K[t,dt]_N of artin.tensor_dgla, K[t,dt]_N a square-zero dg algebra;
truncated objects are complexes only, never DGLAs (the bracket adds
exponents).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping

from . import linalg as la
from .artin import CoefficientAlgebra, TensorDgla, tensor_dgla
from .dgla import Dgla, DglaMorphism, Violation
from .errors import (
    DegreeMismatch,
    InvalidInput,
    NotInFiberProduct,
    NotVerifiedMC,
    NotVerifiedTriple,
    TargetMismatch,
    WindowTooSmall,
)
from .graded import (
    ChainComplex,
    CohomologyResult,
    GradedElement,
    GradedMap,
    GradedSpace,
    Record,
    basis_element,
    compute_cohomology,
    direct_sum,
    kernel_subcomplex,
    map_from_images,
    place_blocks,
    whole,
    zero_element,
)
from .maurer_cartan import McTriple, PairSetting, gauge_apply, mc_residual

ONE = Fraction(1)


class PolyElement(Record):
    """Homogeneous element of M[t,dt]: Σ mᵢ tⁱ + Σ nⱼ tʲ dt.

    t-part coefficients live in degree `degree`; dt-part coefficients in
    degree `degree − 1` (dt carries degree 1).  Exponents are ≥ 0.
    """

    dgla: Dgla
    degree: int
    t_part: Mapping[int, GradedElement] = la.EMPTY
    dt_part: Mapping[int, GradedElement] = la.EMPTY

    def __post_init__(self):
        for name, part, want in (("t", self.t_part, self.degree),
                                 ("dt", self.dt_part, self.degree - 1)):
            clean = {}
            for exp, coeff in part.items():
                if exp < 0:
                    raise InvalidInput(f"negative {name}-exponent {exp}")
                if coeff.space != self.dgla.space:
                    raise InvalidInput("coefficient lives in a different space")
                if coeff.is_zero():
                    continue
                hd = coeff.homogeneous_degree()
                if hd != want:
                    raise DegreeMismatch(
                        f"{name}-coefficient at exponent {exp} has degree {hd}, expected {want}")
                clean[exp] = coeff
            object.__setattr__(self, f"{name}_part", clean)

    def is_zero(self) -> bool:
        return not self.t_part and not self.dt_part

    def __add__(self, other: "PolyElement") -> "PolyElement":
        if self.dgla != other.dgla or self.degree != other.degree:
            raise InvalidInput("adding incompatible polynomial elements")
        t = dict(self.t_part)
        for e, c in other.t_part.items():
            t[e] = t[e] + c if e in t else c
        dt = dict(self.dt_part)
        for e, c in other.dt_part.items():
            dt[e] = dt[e] + c if e in dt else c
        return PolyElement(self.dgla, self.degree, t, dt)

    def __neg__(self) -> "PolyElement":
        return self.scale(-1)

    def __sub__(self, other: "PolyElement") -> "PolyElement":
        return self + (-other)

    def scale(self, c) -> "PolyElement":
        c = la.frac(c)
        return PolyElement(self.dgla, self.degree,
                           {e: c * v for e, v in self.t_part.items()},
                           {e: c * v for e, v in self.dt_part.items()})

    def __rmul__(self, c) -> "PolyElement":
        return self.scale(c)

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for e in sorted(self.t_part):
            bits.append(f"({self.t_part[e].pretty()})·t^{e}")
        for e in sorted(self.dt_part):
            bits.append(f"({self.dt_part[e].pretty()})·t^{e}dt")
        return " + ".join(bits)


def poly_constant(M: Dgla, m: GradedElement) -> PolyElement:
    deg = m.homogeneous_degree()
    if deg is None:
        raise DegreeMismatch("constant coefficient must be homogeneous")
    return PolyElement(M, deg, {0: m}, {})


def poly_t_term(M: Dgla, exponent: int, m: GradedElement) -> PolyElement:
    deg = m.homogeneous_degree()
    if deg is None:
        raise DegreeMismatch("coefficient must be homogeneous")
    return PolyElement(M, deg, {exponent: m}, {})


def poly_dt_term(M: Dgla, exponent: int, n: GradedElement) -> PolyElement:
    deg = n.homogeneous_degree()
    if deg is None:
        raise DegreeMismatch("coefficient must be homogeneous")
    return PolyElement(M, deg + 1, {}, {exponent: n})


def _add(part: dict[int, GradedElement], e: int, v: GradedElement) -> None:
    """part[e] += v, keeping no zero coefficient."""
    if not v.is_zero():
        part[e] = part[e] + v if e in part else v


def poly_d(x: PolyElement) -> PolyElement:
    """d(m p(t) + n q(t) dt) = (dm)p(t) + (−1)^{deg m} m p′(t) dt + (dn)q(t)dt."""
    M = x.dgla
    t: dict[int, GradedElement] = {}
    dt: dict[int, GradedElement] = {}

    sign = ONE if x.degree % 2 == 0 else -ONE
    for e, m in x.t_part.items():
        _add(t, e, M.differential_of(m))
        if e > 0:
            _add(dt, e - 1, (sign * e) * m)
    for e, n in x.dt_part.items():
        _add(dt, e, M.differential_of(n))
    return PolyElement(M, x.degree + 1, t, dt)


def poly_bracket(x: PolyElement, y: PolyElement) -> PolyElement:
    """[m p(t), n q(t)] = [m,n] pq; dt picks up the Koszul sign of its side."""
    if x.dgla != y.dgla:
        raise InvalidInput("bracket of elements over different DGLAs")
    M = x.dgla
    t: dict[int, GradedElement] = {}
    dt: dict[int, GradedElement] = {}

    for e1, m in x.t_part.items():
        for e2, n in y.t_part.items():
            _add(t, e1 + e2, M.bracket(m, n))
        for e2, n in y.dt_part.items():
            _add(dt, e1 + e2, M.bracket(m, n))
    # [m tⁱ dt, n tʲ] = (−1)^{deg n} [m,n] t^{i+j} dt; dt·dt terms vanish
    for e1, m in x.dt_part.items():
        for e2, n in y.t_part.items():
            sign = ONE if y.degree % 2 == 0 else -ONE
            _add(dt, e1 + e2, sign * M.bracket(m, n))
    return PolyElement(M, x.degree + y.degree, t, dt)


def evaluate(a, x: PolyElement) -> GradedElement:
    """e_a(Σ mᵢtⁱ + nⱼtʲdt) = Σ mᵢ aⁱ: a DGLA morphism killing the dt-part."""
    a = la.frac(a)
    out = zero_element(x.dgla.space, x.degree)
    for e, m in x.t_part.items():
        out = out + (a ** e) * m
    return out


def substitute_affine(x: PolyElement, c0, c1) -> PolyElement:
    """Pullback along t ↦ c0 + c1·t (so dt ↦ c1·dt); exact binomial expansion."""
    c0, c1 = la.frac(c0), la.frac(c1)
    M = x.dgla
    t: dict[int, GradedElement] = {}
    dt: dict[int, GradedElement] = {}

    for e, m in x.t_part.items():
        for k in range(e + 1):
            coeff = comb(e, k) * (c1 ** k) * (c0 ** (e - k))
            _add(t, k, coeff * m)
    for e, n in x.dt_part.items():
        for k in range(e + 1):
            coeff = comb(e, k) * (c1 ** k) * (c0 ** (e - k)) * c1
            _add(dt, k, coeff * n)
    return PolyElement(M, x.degree, t, dt)


# --- truncated complexes ------------------------------------------------------


class TruncationWindow(Record):
    """t-part exponents ≤ N; dt-part exponents ≤ N−1 (d-closed shape)."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise WindowTooSmall("truncation window needs N ≥ 1")


def _line_algebra(N: int) -> CoefficientAlgebra:
    """K[t,dt]_N: t0..tN in degree 0 and dt0..dt(N−1) in degree 1, every
    product zero and d(tᵏ) = k·tᵏ⁻¹dt."""
    TruncationWindow(N)
    return CoefficientAlgebra((*(f"t{k}" for k in range(N + 1)), *(f"dt{k}" for k in range(N))),
                              degrees=(0,) * (N + 1) + (1,) * N,
                              diff={k: {N + k: Fraction(k)} for k in range(1, N + 1)})


def truncated_line_complex(N: int) -> ChainComplex:
    """K[t,dt]_N as a complex: degree 0 basis t0..tN, degree 1 basis dt0..dt(N−1)."""
    A = _line_algebra(N)
    space = GradedSpace(0, 1, {0: A.labels[:N + 1], 1: A.labels[N + 1:]})
    images = {(0, k): GradedElement(space, {(1, b - N - 1): c for b, c in col.items()}, 1)
              for k, col in A.diff.items()}
    return ChainComplex(space, map_from_images(space, space, 1, images))


def _path_tensor(M: Dgla, N: int) -> TensorDgla:
    """M ⊗ K[t,dt]_N with its d checked; its bracket is never read."""
    path = tensor_dgla(M, _line_algebra(N))
    path.complex.require_d_squared_zero()
    return path


def truncated_path_complex(M: Dgla, N: int) -> ChainComplex:
    """M[t,dt]_N = M ⊗ K[t,dt]_N as a chain complex: degree k lists m·tᵉdt over
    M^{k−1}, then m·tᵉ over M^k, each m with its exponents together."""
    return _path_tensor(M, N).complex


# --- H_{(h,g)} membership and the fibred-product reduction --------------------


class HPairElement(Record):
    """(l, n, m(t,dt)) with h(l) = e₁(m) and g(n) = e₀(m) when verified."""

    h: object
    g: object
    l: GradedElement
    n: GradedElement
    m: PolyElement
    verified: bool = False


class KElement(Record):
    """(l, n, m₁(t,dt), m₂(s,ds)) with h(l) = e₁(m₂), g(n) = e₀(m₁) when verified."""

    h: object
    g: object
    l: GradedElement
    n: GradedElement
    m1: PolyElement
    m2: PolyElement
    verified: bool = False


def _maps_of(h):
    """Accept a DglaMorphism or a bare GradedMap."""
    return h.map if isinstance(h, DglaMorphism) else h


def membership_H(h, g, cand: HPairElement) -> list[Violation]:
    """Check h(l) = e₁(m) and g(n) = e₀(m) exactly."""
    hm, gm = _maps_of(h), _maps_of(g)
    report = []
    d1 = hm.apply(cand.l) - evaluate(1, cand.m)
    if not d1.is_zero():
        report.append(Violation("h_e1", ("l", "m"), f"h(l) − e₁(m) = {d1.pretty()}"))
    d0 = gm.apply(cand.n) - evaluate(0, cand.m)
    if not d0.is_zero():
        report.append(Violation("g_e0", ("n", "m"), f"g(n) − e₀(m) = {d0.pretty()}"))
    return report


def membership_K(h, g, cand: KElement) -> list[Violation]:
    """Check h(l) = e₁(m₂) and g(n) = e₀(m₁) exactly."""
    hm, gm = _maps_of(h), _maps_of(g)
    report = []
    d1 = hm.apply(cand.l) - evaluate(1, cand.m2)
    if not d1.is_zero():
        report.append(Violation("h_e1", ("l", "m2"), f"h(l) − e₁(m₂) = {d1.pretty()}"))
    d0 = gm.apply(cand.n) - evaluate(0, cand.m1)
    if not d0.is_zero():
        report.append(Violation("g_e0", ("n", "m1"), f"g(n) − e₀(m₁) = {d0.pretty()}"))
    return report


def h_pair_element(h, g, l: GradedElement, n: GradedElement,
                   m: PolyElement) -> HPairElement:
    cand = HPairElement(h, g, l, n, m)
    report = membership_H(h, g, cand)
    if report:
        raise NotVerifiedMC("; ".join(str(v) for v in report))
    return HPairElement(h, g, l, n, m, True)


def barycentric_embed(x: HPairElement) -> KElement:
    """(l, n, m) ↦ (l, n, m(t/2, dt/2), m((s+1)/2, ds/2)): glued at ½."""
    if not x.verified:
        raise NotVerifiedMC("barycentric_embed requires a verified H-element")
    m1 = substitute_affine(x.m, 0, Fraction(1, 2))
    m2 = substitute_affine(x.m, Fraction(1, 2), Fraction(1, 2))
    if evaluate(1, m1) != evaluate(0, m2):
        raise InvalidInput("internal: barycentric gluing failed")
    out = KElement(x.h, x.g, x.l, x.n, m1, m2)
    report = membership_K(x.h, x.g, out)
    if report:
        raise InvalidInput("internal: barycentric image leaves K")
    return KElement(x.h, x.g, x.l, x.n, m1, m2, True)


def truncated_H_constraints(h: DglaMorphism, g: DglaMorphism,
                           window: TruncationWindow) -> tuple[ChainComplex, list[GradedMap]]:
    """The ambient complex L ⊕ N ⊕ M[t,dt]_N of the truncated H_{(h,g)} and
    its two constraints into M: (l, n, m) ↦ h(l) − e₁(m) and g(n) − e₀(m)."""
    if h.target != g.target:
        raise TargetMismatch("h and g must share their target")
    L, N, M = h.source, g.source, h.target
    path = _path_tensor(M, window.N)
    ambient, parts = direct_sum([("L", L.complex), ("N", N.complex), ("P", path.complex)])
    m = whole(M.space)

    # evaluations into M: e₁ sums the t-part coefficients, e₀ keeps exponent 0
    def constraint(f: GradedMap, part: str, at_one: bool) -> GradedMap:
        ev = map_from_images(path.space, M.space, 0, {
            path.to_tensor[(i, p)][e]: basis_element(M.space, i, p)
            for i in M.space.degrees() for p in range(M.space.dim(i))
            for e in range(window.N + 1 if at_one else 1)})
        return place_blocks(ambient.space, M.space, 0, [(1, f, parts[part], m),
                                                        (-1, ev, parts["P"], m)])

    return ambient, [constraint(h.map, "L", True), constraint(g.map, "N", False)]


def truncated_H_complex(h: DglaMorphism, g: DglaMorphism,
                        window: TruncationWindow) -> tuple[ChainComplex, GradedMap]:
    """Finite-dimensional model of H_{(h,g)}: the subcomplex of
    L ⊕ N ⊕ M[t,dt]_N cut out by h(l) = e₁(m) and g(n) = e₀(m).

    Returns the subcomplex and its embedding into the ambient complex.
    """
    sub, embed, _restrict = kernel_subcomplex(*truncated_H_constraints(h, g, window), "H")
    sub.require_d_squared_zero()
    return sub, embed


def truncated_H_cohomology(h: DglaMorphism, g: DglaMorphism,
                           window: TruncationWindow) -> CohomologyResult:
    """Cohomology of the truncated H_{(h,g)} model."""
    sub, _embed = truncated_H_complex(h, g, window)
    return compute_cohomology(sub)


# --- element-level maps of the Def_H ≅ Def_{(h,g)} comparison -----------------


class EvaluationPairMc(Record):
    """MC data in the (e₁, e₀) setting: a K-element with linking exponent.

    Components x, y are the L- and N-parts; m1 = g(y), m2 = h(x) as constant
    polynomials over M ⊗ m_A; p links e₁ to e₀ through the gauge action.
    """

    setting: PairSetting
    x: GradedElement
    y: GradedElement
    m1: PolyElement
    m2: PolyElement
    p: GradedElement
    verified: bool = False


def map_triple_to_K(t: McTriple) -> EvaluationPairMc:
    """(x, y, e^p) ↦ ((x, y, g(y), h(x)), e^p): MC in K ⊗ m_A with
    e^p * e₁ = e₀ verified through the gauge action in M ⊗ m_A."""
    if not t.verified:
        raise NotVerifiedTriple("map_triple_to_K requires a verified triple")
    s = t.setting
    gy = s.apply_g(t.y)
    hx = s.apply_h(t.x)
    m1 = poly_constant(s.tM, gy)
    m2 = poly_constant(s.tM, hx)
    for label, elem, tensor in (("x", t.x, s.tL), ("y", t.y, s.tN),
                                ("g(y)", gy, s.tM), ("h(x)", hx, s.tM)):
        if not mc_residual(tensor, elem).is_zero():
            raise InvalidInput(f"internal: component {label} fails MC in K ⊗ m_A")
    if gauge_apply(s.tM, t.p, evaluate(1, m2)) != evaluate(0, m1):
        raise InvalidInput("internal: linking equation fails in the (e₁,e₀) setting")
    return EvaluationPairMc(s, t.x, t.y, m1, m2, t.p, True)


def psi_fiber_to_pair(setting: PairSetting, l: GradedElement,
                      n: GradedElement) -> McTriple:
    """ψ: (l, n) ↦ (l, n, 0) for (l, n) MC in the fiber product L ×_M N."""
    diff = setting.apply_h(l) - setting.apply_g(n)
    if not diff.is_zero():
        raise NotInFiberProduct(f"h(l) − g(n) = {diff.pretty()}", diff)
    if not mc_residual(setting.tL, l).is_zero() or not mc_residual(setting.tN, n).is_zero():
        raise NotVerifiedMC("(l, n) is not Maurer-Cartan in the fiber product")
    from .maurer_cartan import mc_triple
    return mc_triple(setting, l, n, zero_element(setting.tM.space, 0))
