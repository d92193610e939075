"""Maurer-Cartan residuals, gauge action, BCH, obstructions, tangent spaces.

All series (gauge, BCH) are summed exactly; the coefficient algebra's power
filtration certifies termination: every bracket raises the filtration level,
and levels ≥ ν vanish.  An element and a triple share one obstruction-and-lift
path; its cocycles use the lifting section stored on the small extension.  A
different section is a different extension (dataclasses.replace), and that
the class does not depend on it is a theorem, property-tested on such
extensions rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import linalg as la
from .artin import (
    CoefficientAlgebra,
    SmallExtension,
    TensorDgla,
    epsilon_algebra,
    tensor_dgla,
    tensor_map,
)
from .dgla import ConeComplex, Dgla, DglaMorphism, Violation, cone_pair
from .errors import (
    BaseMismatch,
    DegreeMismatch,
    InconsistentInput,
    InvalidInput,
    NotVerifiedMC,
    NotVerifiedTriple,
    TargetMismatch,
)
from .graded import (
    ChainComplex,
    CohomologyResult,
    GradedElement,
    GradedMap,
    basis_element,
    compute_cohomology,
    element_from_vector,
    zero_element,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def _require_degree(x: GradedElement, degree: int, what: str) -> None:
    for (deg, _i), _c in x.coords.items():
        if deg != degree:
            raise DegreeMismatch(f"{what} must be homogeneous of degree {degree}, "
                                 f"found a term in degree {deg}")


def mc_residual(T: TensorDgla, x: GradedElement) -> GradedElement:
    """dx + ½[x,x] for a degree-1 element."""
    _require_degree(x, 1, "Maurer-Cartan candidate")
    return T.differential_of(x) + Fraction(1, 2) * T.bracket(x, x)


def gauge_apply(T: TensorDgla, a: GradedElement, x: GradedElement) -> GradedElement:
    """e^a * x = x + Σ_{n≥0} ad_a^n/(n+1)! ([a,x] − da), summed exactly."""
    _require_degree(a, 0, "gauge parameter")
    _require_degree(x, 1, "gauge target")
    u = T.bracket(a, x) - T.differential_of(a)
    total = x
    term = u
    denom = 1
    n = 0
    while not term.is_zero():
        denom *= n + 1
        total = total + Fraction(1, denom) * term
        term = T.bracket(a, term)
        n += 1
        if n > T.nu + 1:
            raise InvalidInput("gauge series failed to terminate; coefficients not nilpotent")
    return total


def _bernoulli_over_factorial(top: int) -> list[Fraction]:
    """B_j/j! for j ≤ top: the coefficients of x/(eˣ − 1), from
    Σ_{j≤n} B_j/j! · 1/(n+1−j)! = 0 for n ≥ 1."""
    out = [ONE]
    for n in range(1, top + 1):
        out.append(-sum(c / math.factorial(n + 1 - j) for j, c in enumerate(out)))
    return out


def bch_product(T: TensorDgla, a: GradedElement, b: GradedElement) -> GradedElement:
    """Baker-Campbell-Hausdorff product a•b, with e^a e^b = e^{a•b} as gauge
    operators, summed exactly by the recursion of Casas and Murua on its parts
    Z_n of degree n in a and b:

        Z_1 = a + b,   (n+1)·Z_{n+1} = ½[a − b, Z_n] + Σ_{p≥1} B_{2p}/(2p)! · W_{2p}(n),

    where W_j(m) = Σ_{k≥1} [Z_k, W_{j−1}(m − k)], W_0(0) = a + b, is the sum of
    the nested brackets [Z_{k_1}, [… [Z_{k_j}, a + b]]] with k_1 + … + k_j = m.
    Z_n lies in m_A^{nℓ}, ℓ the lower filtration level of a and b, so the sum
    stops exactly before the first n with n·ℓ ≥ ν.
    """
    _require_degree(a, 0, "BCH argument")
    _require_degree(b, 0, "BCH argument")
    level = min(T.element_level(a), T.element_level(b))
    top = max(1, (T.nu - 1) // max(level, 1))
    bern = _bernoulli_over_factorial(top)
    s, diff = a + b, a - b
    zero = zero_element(T.space)
    Z = [zero, s]
    # W[j][m] for 1 ≤ j ≤ m; a W of odd j on the last step is never read
    W = [[s] + [zero] * top] + [[zero] * (top + 1) for _ in range(top)]

    def bracket(x: GradedElement, y: GradedElement) -> GradedElement:
        return zero if x.is_zero() or y.is_zero() else T.bracket(x, y)

    for n in range(1, top):
        for j in range(1, n + 1):
            if j % 2 == 0 or n < top - 1:
                terms = (bracket(Z[k], W[j - 1][n - k]) for k in range(1, n - j + 2))
                W[j][n] = sum(terms, zero)
        tail = sum((bern[2 * p] * W[2 * p][n] for p in range(1, n // 2 + 1)), zero)
        Z.append(Fraction(1, n + 1) * (Fraction(1, 2) * bracket(diff, Z[n]) + tail))
    return sum(Z[2:], s)


@dataclass(frozen=True)
class McElement:
    """Degree-1 element of L ⊗ m_A; verified means the MC residual vanishes."""

    tensor: TensorDgla
    element: GradedElement
    verified: bool = False


def mc_element(T: TensorDgla, x: GradedElement) -> McElement:
    """Verify the Maurer-Cartan equation and wrap the element."""
    res = mc_residual(T, x)
    if not res.is_zero():
        raise NotVerifiedMC(f"MC residual is nonzero: {res.pretty()}")
    return McElement(T, x, True)


def stabilizer_element(x: McElement, hparam: GradedElement) -> GradedElement:
    """a = dh + [x, h] for h of degree −1; fixes x under the gauge action."""
    if not x.verified:
        raise NotVerifiedMC("stabilizer_element requires a verified MC element")
    T = x.tensor
    _require_degree(hparam, -1, "stabilizer parameter")
    a = T.differential_of(hparam) + T.bracket(x.element, hparam)
    if gauge_apply(T, a, x.element) != x.element:
        raise InvalidInput("internal: stabilizer element does not fix x")
    return a


# --- single obstruction ------------------------------------------------------


@dataclass(frozen=True)
class ObstructionClass:
    """Class in H^degree(complex) ⊗ J, with the raw cocycle that produced it."""

    cohomology: CohomologyResult
    degree: int
    kernel_labels: tuple[str, ...]
    coords: tuple[tuple[Fraction, ...], ...]  # one coordinate vector per J basis vector
    cocycle: object

    def is_zero(self) -> bool:
        return all(c == 0 for vec in self.coords for c in vec)

    def label_map(self) -> dict[str, Fraction]:
        """Nonzero class coordinates keyed 'representative-label@J-label'."""
        out: dict[str, Fraction] = {}
        for j, vec in enumerate(self.coords):
            jlab = self.kernel_labels[j]
            for r, c in enumerate(vec):
                if c == 0:
                    continue
                rep = self.cohomology.representative(self.degree, r)
                deg, idx, lead = next(iter(rep.terms()))
                rep_label = rep.space.label(deg, idx)
                out[f"{rep_label}@{jlab}"] = c
        return out


class NoLift:
    """Sentinel: the obstruction class is nonzero, no lift exists."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NoLift"


NO_LIFT = NoLift()


def _j_components(T: TensorDgla, ext: SmallExtension,
                  x: GradedElement) -> list[GradedElement]:
    """Factor elements x_j with x = Σ_j x_j ⊗ J_j; error if x ∉ L ⊗ J."""
    by_l: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (deg, idx), c in x.coords.items():
        ldeg, lidx, ai = T.from_tensor[(deg, idx)]
        by_l.setdefault((ldeg, lidx), {})[ai] = c
    out: list[dict[tuple[int, int], Fraction]] = [dict() for _ in range(ext.kernel_dim)]
    for lkey, bvec in by_l.items():
        coords = ext.kernel_coords(bvec)
        if coords is None:
            raise InvalidInput("cocycle does not lie in ⊗J; extension data inconsistent")
        for j, c in enumerate(coords):
            if c != 0:
                out[j][lkey] = c
    return [GradedElement(T.factor.space, d) for d in out]


def _tensor_with_kernel(T_B: TensorDgla, ext: SmallExtension,
                        parts: Iterable[GradedElement]) -> GradedElement:
    """Σ_j parts_j ⊗ J_j inside the B-tensor."""
    total = zero_element(T_B.space)
    for j, part in enumerate(parts):
        for b_idx, c in enumerate(ext.kernel[j]):
            if c == 0:
                continue
            total = total + c * T_B.pure(part, b_idx)
    return total


def _obstruction_problem(ext: SmallExtension, pieces, cocycle: Callable, cx: ChainComplex,
                         embed: Callable, split: Callable, verified: Callable,
                         cls: ObstructionClass | None = None):
    """Lift MC data along the small extension 0 → J → B → A → 0: one path for
    an element and a triple (Fantechi and Manetti 1998; Manetti 1999).

    pieces holds (T_A, piece over A, T_B) per piece: (x) for an element,
    (x, y, p) for a triple.  Each piece is lifted by ext.section, and cocycle
    maps the lifted pieces to the cocycle, one component per piece in that
    piece's T_B.  For each J basis vector J_j, embed sends the j-th parts of
    the components to a degree-2 element of cx, which must be a cycle; its
    class is read in H²(cx) alone.

    Without cls, returns (cohomology, J labels, class coordinates, cocycle).
    With cls, the recomputed coordinates must be cls.coords.  A nonzero class
    gives NO_LIFT.  A vanishing one gives w_j with D w_j = part j, split sends
    w_j to per-piece corrections, and the result is verified(*bars) for
    bar = lifted piece − Σ_j w_j ⊗ J_j, each bar checked to project back.
    """
    if any(TA.coeff != ext.A for TA, _e, _TB in pieces):
        raise BaseMismatch("input does not live over the extension's target")
    lifted = [TA.map_coefficients(e, ext.section, TB) for TA, e, TB in pieces]
    cocyc = cocycle(*lifted)
    parts = [embed(*js) for js in
             zip(*(_j_components(TB, ext, c) for (_TA, _e, TB), c in zip(pieces, cocyc)))]
    H = compute_cohomology(cx, (2,)) if cls is None else cls.cohomology
    coords = []
    for part in parts:
        if not cx.differential_of(part).is_zero():
            raise InvalidInput("internal: obstruction cocycle is not a cycle")
        coords.append(tuple(H.class_of(part, degree=2)))
    if cls is None:
        jlabels = tuple(ext.kernel_label(j) for j in range(ext.kernel_dim))
        return H, jlabels, tuple(coords), cocyc
    if tuple(coords) != cls.coords:
        raise InconsistentInput("class does not match the recomputed cocycle projection")
    if not cls.is_zero():
        return NO_LIFT
    corrections: list[list[GradedElement]] = [[] for _ in pieces]
    for part in parts:
        w = zero_element(cx.space, 1)
        if not part.is_zero():
            sol = la.solve(cx.d.matrix(1), part.component_vector(2), cols=cx.space.dim(1))
            if sol is None:
                raise InvalidInput("internal: vanishing class but the cocycle is no boundary")
            w = element_from_vector(cx.space, 1, sol)
        for acc, wp in zip(corrections, split(w)):
            acc.append(wp)
    out = []
    for (TA, e, TB), lt, ws in zip(pieces, lifted, corrections):
        bar = lt - _tensor_with_kernel(TB, ext, ws)
        if TB.map_coefficients(bar, ext.alpha, TA) != e:
            raise InvalidInput("internal: lift does not project to the input")
        out.append(bar)
    return verified(*out)


def _element_problem(ext: SmallExtension, x: McElement, T_B: TensorDgla | None) -> tuple:
    """The obstruction problem of x: one piece, with its class in H²(L)."""
    T_B = T_B if T_B is not None else tensor_dgla(x.tensor.factor, ext.B)
    return (ext, [(x.tensor, x.element, T_B)], lambda xt: (mc_residual(T_B, xt),),
            x.tensor.factor.complex, lambda h: h, lambda w: (w,),
            lambda xbar: mc_element(T_B, xbar))


def obstruction_single(ext: SmallExtension, x: McElement, *,
                       tensor_B: TensorDgla | None = None) -> ObstructionClass:
    """Obstruction class in H²(L) ⊗ J to lifting x along the small extension."""
    if not x.verified:
        raise NotVerifiedMC("obstruction_single requires a verified MC element")
    H, jlabels, coords, (cocycle,) = _obstruction_problem(*_element_problem(ext, x, tensor_B))
    return ObstructionClass(H, 2, jlabels, coords, cocycle)


def lift_if_unobstructed(ext: SmallExtension, x: McElement, cls: ObstructionClass,
                         *, tensor_B: TensorDgla | None = None):
    """Constructive lift x̄ = x̃ − q when the class vanishes; NoLift otherwise."""
    if not x.verified:
        raise NotVerifiedMC("lift_if_unobstructed requires a verified MC element")
    return _obstruction_problem(*_element_problem(ext, x, tensor_B), cls)


# --- pair functor ------------------------------------------------------------


@dataclass(frozen=True)
class PairSetting:
    """A pair (h, g) tensored with one coefficient algebra."""

    h: DglaMorphism
    g: DglaMorphism
    coeff: CoefficientAlgebra
    tL: TensorDgla
    tN: TensorDgla
    tM: TensorDgla
    h_tensor: object  # GradedMap on tensors
    g_tensor: object

    def apply_h(self, x: GradedElement) -> GradedElement:
        return self.h_tensor.apply(x)

    def apply_g(self, y: GradedElement) -> GradedElement:
        return self.g_tensor.apply(y)

    def __eq__(self, other):
        if not isinstance(other, PairSetting):
            return NotImplemented
        return (self.h, self.g, self.coeff) == (other.h, other.g, other.coeff)

    __hash__ = None


def pair_setting(h: DglaMorphism, g: DglaMorphism, A: CoefficientAlgebra) -> PairSetting:
    """The pair over A, with one tensor per distinct DGLA among L, N, M and
    one tensor map when g = h."""
    if h.target != g.target:
        raise TargetMismatch("h and g must share their target")
    tL = tensor_dgla(h.source, A)
    tN = tL if g.source == h.source else tensor_dgla(g.source, A)
    tM = tL if h.target == h.source else tN if h.target == g.source else tensor_dgla(h.target, A)
    h_tensor = tensor_map(h.map, tL, tM)
    g_tensor = h_tensor if g == h else tensor_map(g.map, tN, tM)
    return PairSetting(h, g, A, tL, tN, tM, h_tensor, g_tensor)


@dataclass(frozen=True)
class McTriple:
    """(x, y, e^p) for the pair functor; verified means both MC equations and
    the linking equation g(y) = e^p * h(x) hold."""

    setting: PairSetting
    x: GradedElement
    y: GradedElement
    p: GradedElement
    verified: bool = False


def mc_pair_check(setting: PairSetting, x: GradedElement, y: GradedElement,
                  p: GradedElement) -> tuple[McTriple, list[Violation]]:
    """Verify the two MC residuals and the gauge-linking equation exactly."""
    report: list[Violation] = []
    _require_degree(x, 1, "first component")
    _require_degree(y, 1, "second component")
    _require_degree(p, 0, "linking exponent")
    rx = mc_residual(setting.tL, x)
    if not rx.is_zero():
        report.append(Violation("mc_first", ("x",), f"residual {rx.pretty()}"))
    ry = mc_residual(setting.tN, y)
    if not ry.is_zero():
        report.append(Violation("mc_second", ("y",), f"residual {ry.pretty()}"))
    link = setting.apply_g(y) - gauge_apply(setting.tM, p, setting.apply_h(x))
    if not link.is_zero():
        report.append(Violation("linking", ("x", "y", "p"),
                                f"g(y) − e^p*h(x) = {link.pretty()}"))
    return McTriple(setting, x, y, p, not report), report


def mc_triple(setting: PairSetting, x: GradedElement, y: GradedElement,
              p: GradedElement) -> McTriple:
    triple, report = mc_pair_check(setting, x, y, p)
    if report:
        raise NotVerifiedTriple("; ".join(str(v) for v in report))
    return triple


def gauge_apply_pair(a: GradedElement, b: GradedElement, t: McTriple) -> McTriple:
    """(e^a, e^b) * (x, y, e^p) = (e^a*x, e^b*y, e^{g(b)} e^p e^{−h(a)})."""
    if not t.verified:
        raise NotVerifiedTriple("gauge_apply_pair requires a verified triple")
    s = t.setting
    _require_degree(a, 0, "first gauge parameter")
    _require_degree(b, 0, "second gauge parameter")
    x2 = gauge_apply(s.tL, a, t.x)
    y2 = gauge_apply(s.tN, b, t.y)
    p2 = bch_product(s.tM, s.apply_g(b), bch_product(s.tM, t.p, -s.apply_h(a)))
    return mc_triple(s, x2, y2, p2)


def extended_equiv_verify(t1: McTriple, t2: McTriple, a: GradedElement,
                          b: GradedElement, c: GradedElement) -> list[Violation]:
    """Witness check for the extended relation ≈ with stabilizer factor
    T = dc + [g(y₁), c]: verifies the three equations exactly."""
    s = t1.setting
    if t2.setting != s:
        raise BaseMismatch("triples live over different pair settings")
    report: list[Violation] = []
    _require_degree(c, -1, "stabilizer parameter")
    if gauge_apply(s.tL, a, t1.x) != t2.x:
        report.append(Violation("equiv_first", ("a",), "x₂ ≠ e^a * x₁"))
    if gauge_apply(s.tN, b, t1.y) != t2.y:
        report.append(Violation("equiv_second", ("b",), "y₂ ≠ e^b * y₁"))
    gy1 = s.apply_g(t1.y)
    stab = s.tM.differential_of(c) + s.tM.bracket(gy1, c)
    expected = bch_product(
        s.tM, s.apply_g(b),
        bch_product(s.tM, stab, bch_product(s.tM, t1.p, -s.apply_h(a))))
    if expected != t2.p:
        report.append(Violation("equiv_linking", ("a", "b", "c"),
                                "e^{p₂} ≠ e^{g(b)} e^T e^{p₁} e^{−h(a)}"))
    return report


@dataclass(frozen=True)
class PairObstructionClass(ObstructionClass):
    """Obstruction in H²(C_{(h,g)}) ⊗ J; cocycle is the triple (l, k, r)."""

    cone: ConeComplex = None


def _triple_problem(ext: SmallExtension, t: McTriple, sB: PairSetting | None,
                    cone: ConeComplex) -> tuple:
    """The obstruction problem of t: pieces (x, y, p), cocycle (l, k, r) with
    r = −g(ỹ) + e^q * h(x̃), and its class in H²(C_{(h,g)})."""
    s = t.setting
    sB = sB if sB is not None else pair_setting(s.h, s.g, ext.B)

    def cocycle(xt, yt, q):
        return (mc_residual(sB.tL, xt), mc_residual(sB.tN, yt),
                -sB.apply_g(yt) + gauge_apply(sB.tM, q, sB.apply_h(xt)))

    def embed(l, k, r):
        return cone.embed("L", l) + cone.embed("N", k) + cone.embed("M", r)

    return (ext, [(s.tL, t.x, sB.tL), (s.tN, t.y, sB.tN), (s.tM, t.p, sB.tM)], cocycle,
            cone.complex, embed, lambda w: [cone.project(n, w) for n in "LNM"],
            lambda *xyp: mc_triple(sB, *xyp))


def obstruction_pair(ext: SmallExtension, t: McTriple, *,
                     setting_B: PairSetting | None = None) -> PairObstructionClass:
    """Obstruction class in H²(C_{(h,g)}) ⊗ J to lifting a verified triple
    along the small extension."""
    if not t.verified:
        raise NotVerifiedTriple("obstruction_pair requires a verified triple")
    cone = cone_pair(t.setting.h, t.setting.g)
    H, jlabels, coords, cocycle = _obstruction_problem(*_triple_problem(ext, t, setting_B, cone))
    return PairObstructionClass(H, 2, jlabels, coords, cocycle, cone)


def lift_pair_if_unobstructed(ext: SmallExtension, t: McTriple,
                              cls: PairObstructionClass, *,
                              setting_B: PairSetting | None = None):
    """Constructive lift (x̃−u, ỹ−v, q−z) when the class vanishes."""
    if not t.verified:
        raise NotVerifiedTriple("lift_pair_if_unobstructed requires a verified triple")
    return _obstruction_problem(*_triple_problem(ext, t, setting_B, cls.cone), cls)


# --- gauge equivalence decision ----------------------------------------------


@dataclass(frozen=True)
class Equivalent:
    witness: GradedElement


@dataclass(frozen=True)
class NotEquivalent:
    reason: str


@dataclass(frozen=True)
class Undecided:
    reason: str


def gauge_equiv_decide(x: McElement, y: McElement, budget: int | None = None,
                       cancel: Callable[[], bool] | None = None):
    """Decide gauge equivalence by one linear system per m_A-power level.

    With d_x s = ds + [x, s] and a gauge a with r = y − e^a * x ∈ L¹ ⊗ m^k,
    the gauges that still agree with a modulo m^k are a•s with d_x s ∈ m^k,
    and for those e^{a•s} * x ≡ e^a * x − d_x s (mod m^{k+1}) (Goldman and
    Millson 1988; Manetti 1999).  So y is reached modulo m^{k+1} exactly when
    d_x s ≡ −r (mod m^{k+1}) has a solution s ∈ L⁰ ⊗ m; d_x never lowers the
    level, so the rows of all levels so far share one elimination, those of
    lower levels with right-hand side 0.  Levels are read in a basis of m_A
    adapted to its power filtration (CoefficientAlgebra.adapted_basis).

    Returns Equivalent(witness) with e^witness * x = y verified exactly,
    NotEquivalent naming the level and residual that admit no solution, or
    Undecided only when cancel (polled once per level) returns true.  budget
    has no effect: it is accepted because the benchmark harness in
    perfbench/workloads.py still passes it.
    """
    if x.tensor != y.tensor:
        raise BaseMismatch("elements live over different tensor DGLAs")
    if not (x.verified and y.verified):
        raise NotVerifiedMC("gauge_equiv_decide requires verified MC elements")
    T = x.tensor
    P, Q, coeff_levels = T.coeff.adapted_basis

    def rebase(e: GradedElement, m: la.Matrix | None) -> GradedElement:
        return e if m is None else T.map_coefficients(e, m, T)

    level = {key: coeff_levels[ai] for key, (_i, _p, ai) in T.from_tensor.items()}
    # the matrix of d_x on L⁰ ⊗ m: T's differential block, plus
    # [x, e_b] = −Σ_a x_a [e_b, e_a] over the stored brackets (b, a) with a in
    # the support of x (the sign Dgla.bracket gives the reversed pair)
    dx = T.dgla.d.matrix(0)
    for (b, a), val in T.dgla.brackets.items():
        xa = x.element.coords.get(a)
        if xa and b[0] == 0:
            for (_deg, r), c in val.coords.items():
                dx[r][b[1]] -= xa * c
    if P is not None:
        dx_map = GradedMap(T.space, T.space, 1, {0: dx})
        dx = la.from_columns(
            [rebase(dx_map.apply(rebase(basis_element(T.space, 0, i), P)), Q).component_vector(1)
             for i in range(T.space.dim(0))], T.space.dim(1))
    rows = {(1, r): {(0, i): c for i, c in enumerate(drow) if c} for r, drow in enumerate(dx)}
    # reduced rows [pivot, row, rhs] in insertion order: each row is free of
    # the pivots inserted before it, and pivots on an unknown of top level
    echelon: list[list] = []
    a, current = zero_element(T.space, 0), x.element
    for k in range(1, T.nu):
        if cancel is not None and cancel():
            return Undecided(f"cancelled at level {k}")
        r = rebase(y.element - current, Q)
        for key in sorted(key for key in level if key[0] == 1 and level[key] == k):
            row, rhs = dict(rows.get(key, {})), -r.coords.get(key, ZERO)
            for entry in echelon:
                f = row.get(entry[0])
                if f:
                    for col, c in entry[1].items():
                        row[col] = row.get(col, ZERO) - f * c
                    rhs -= f * entry[2]
            row = {col: c for col, c in row.items() if c}
            if row:
                pivot = max(row, key=lambda u: (level[u], -u[1]))
                inv = ONE / row[pivot]
                echelon.append([pivot, {col: c * inv for col, c in row.items()}, rhs * inv])
            elif rhs:
                rk = GradedElement(T.space, {q: c for q, c in r.coords.items()
                                             if level[q] == k}, 1)
                return NotEquivalent(
                    f"no gauge reaches y modulo m^{k + 1}: the level-{k} residual "
                    f"y − e^a * x ≡ {rebase(rk, P).pretty()} (mod m^{k + 1}) is not "
                    f"d_x s for any s")
        if not any(entry[2] for entry in echelon):
            continue
        sol: dict[tuple[int, int], Fraction] = {}
        for entry in reversed(echelon):
            pivot, row, rhs = entry
            sol[pivot] = rhs - sum(c * sol.get(col, ZERO) for col, c in row.items() if col != pivot)
            entry[2] = ZERO
        s = rebase(GradedElement(T.space, sol, 0), P)
        # a + s ≡ a•s modulo m^{level a + level s}, which is all level k needs
        a = a + s if T.element_level(a) + T.element_level(s) > k else bch_product(T, a, s)
        current = gauge_apply(T, a, x.element)
    if current != y.element:
        raise InvalidInput("internal: witness validation failed")
    return Equivalent(a)


# --- tangent dimensions -------------------------------------------------------


def tangent_dim_single(L: Dgla, shift_n: int = 0) -> int:
    """dim H^{1+n}(L), asserted equal to the direct MC/gauge computation
    over K·ε with deg ε = −n."""
    via_cohomology = compute_cohomology(L.complex).dim(1 + shift_n)
    T = tensor_dgla(L, epsilon_algebra(shift_n))
    d1 = T.dgla.complex.d.matrix(1)
    d0 = T.dgla.complex.d.matrix(0)
    solutions = T.space.dim(1) - la.rank(d1)
    return _agreed(via_cohomology, solutions - la.rank(d0))


def _agreed(via_cohomology: int, direct: int) -> int:
    if direct != via_cohomology:
        raise InvalidInput(
            f"tangent computations disagree: H gives {via_cohomology}, MC/gauge gives {direct}")
    return direct


def tangent_dim_pair(h: DglaMorphism, g: DglaMorphism, shift_n: int = 0) -> int:
    """dim H^{1+n}(C_{(h,g)}), asserted equal to the direct MC/gauge count."""
    cone = cone_pair(h, g)
    via_cohomology = compute_cohomology(cone.complex).dim(1 + shift_n)

    s = pair_setting(h, g, epsilon_algebra(shift_n))
    nx, ny, np_ = s.tL.space.dim(1), s.tN.space.dim(1), s.tM.space.dim(0)
    rows_x, rows_y, rows_m = s.tL.space.dim(2), s.tN.space.dim(2), s.tM.space.dim(1)
    cols = nx + ny + np_
    eq = la.zeros(rows_x + rows_y + rows_m, cols)
    dL = s.tL.dgla.complex.d.matrix(1)
    dN = s.tN.dgla.complex.d.matrix(1)
    dM = s.tM.dgla.complex.d.matrix(0)
    hm = s.h_tensor.matrix(1)
    gm = s.g_tensor.matrix(1)
    for r in range(rows_x):
        for c in range(nx):
            eq[r][c] = dL[r][c]
    for r in range(rows_y):
        for c in range(ny):
            eq[rows_x + r][nx + c] = dN[r][c]
    for r in range(rows_m):
        for c in range(nx):
            eq[rows_x + rows_y + r][c] = hm[r][c]
        for c in range(ny):
            eq[rows_x + rows_y + r][nx + c] = -gm[r][c]
        for c in range(np_):
            eq[rows_x + rows_y + r][nx + ny + c] = -dM[r][c]
    solutions = cols - la.rank(eq)

    na, nb = s.tL.space.dim(0), s.tN.space.dim(0)
    nc = s.tM.space.dim(-1)
    gauge = la.zeros(cols, na + nb + nc)
    dL0 = s.tL.dgla.complex.d.matrix(0)
    dN0 = s.tN.dgla.complex.d.matrix(0)
    dMm1 = s.tM.dgla.complex.d.matrix(-1)
    h0 = s.h_tensor.matrix(0)
    g0 = s.g_tensor.matrix(0)
    for r in range(nx):
        for c in range(na):
            gauge[r][c] = -dL0[r][c]
    for r in range(ny):
        for c in range(nb):
            gauge[nx + r][na + c] = -dN0[r][c]
    for r in range(np_):
        for c in range(na):
            gauge[nx + ny + r][c] = -h0[r][c]
        for c in range(nb):
            gauge[nx + ny + r][na + c] = g0[r][c]
        for c in range(nc):
            gauge[nx + ny + r][na + nb + c] = dMm1[r][c]
    return _agreed(via_cohomology, solutions - la.rank(gauge))
