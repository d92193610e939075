"""Maurer-Cartan residuals, gauge action, BCH, obstructions, tangent spaces.

All series (gauge, BCH) are summed exactly; the coefficient algebra's power
filtration certifies termination: every bracket raises the filtration level,
and levels ≥ ν vanish.  An element and a triple share one obstruction-and-lift
path; its cocycles use the lifting section stored on the small extension.  A
different section is a different extension (SmallExtension.replace), and that
the class does not depend on it is a theorem, property-tested on such
extensions rather than assumed.
"""

from __future__ import annotations

import functools
import math
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
from .dgla import ChainMap, ConeComplex, Dgla, DglaMorphism, Violation, _from_ints, _to_ints, cone_pair
from .errors import (
    BaseMismatch,
    DegreeMismatch,
    DegreeWindowViolation,
    InconsistentInput,
    InvalidInput,
    NotVerifiedMC,
    NotVerifiedTriple,
    TargetMismatch,
)
from .graded import (
    CohomologyResult,
    GradedElement,
    Record,
    cohomology_dims,
    compute_cohomology,
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
    """dx + ½[x,x] for a degree-1 element, summed exactly in ints."""
    _require_degree(x, 1, "Maurer-Cartan candidate")
    return _from_ints(T.space, *_residual_ints(T, T._ints(x)))


def _residual_ints(L: Dgla, x: tuple[int, dict]) -> tuple[int, dict]:
    """dx + ½[x,x] of a (den, integer numerators) pair, as one."""
    return _combine([(1, L.d._apply_ints(x)), (Fraction(1, 2), L._bracket_ints(x, x))])


def _combine(terms: Iterable[tuple[Fraction | int, tuple[int, dict]]]) -> tuple[int, dict]:
    """Σ c·nums/den over (c, (den, nums)) as (den, nums) over one lcm, zeros
    dropped; one term with c = 1 comes back as it is."""
    terms = [(c, den, nums) for c, (den, nums) in terms if c and nums]
    if len(terms) == 1 and terms[0][0] == 1:
        return terms[0][1:]
    den = math.lcm(*(c.denominator * d for c, d, _nums in terms))
    out: dict = {}
    for c, d, nums in terms:
        f = c.numerator * (den // (c.denominator * d))
        for k, v in nums.items():
            out[k] = out.get(k, 0) + f * v
    return den, {k: v for k, v in out.items() if v}


def gauge_apply(T: TensorDgla, a: GradedElement, x: GradedElement) -> GradedElement:
    """e^a * x = x + Σ_{n≥0} ad_a^n/(n+1)! ([a,x] − da), summed exactly in ints."""
    _require_degree(a, 0, "gauge parameter")
    _require_degree(x, 1, "gauge target")
    xi = T._ints(x)
    out = _gauge_ints(T, T._ints(a), xi)
    return x if out is xi else _from_ints(T.space, *out)


def _gauge_ints(T: TensorDgla, a: tuple[int, dict], x: tuple[int, dict]) -> tuple[int, dict]:
    """e^a * x of (den, integer numerators) pairs, as one; x itself when [a, x] = da.
    a is grouped once (TensorDgla._grouped) for all the brackets of the series."""
    group, bracket, ga = T._grouped, T._bracket_grouped, T._grouped(a)
    terms, n = [(1, x)], 0
    term = _combine([(1, bracket(ga, group(x))), (-1, T.d._apply_ints(a))])
    while term[1]:
        terms.append((Fraction(1, math.factorial(n + 1)), term))
        term = bracket(ga, group(term))
        n += 1
        if n > T.nu + 1:
            raise InvalidInput("gauge series failed to terminate; coefficients not nilpotent")
    return x if n == 0 else _combine(terms)


@functools.cache
def _bernoulli_over_factorial(top: int) -> tuple[Fraction, ...]:
    """B_j/j! for j ≤ top: the coefficients of x/(eˣ − 1), from
    Σ_{j≤n} B_j/j! · 1/(n+1−j)! = 0 for n ≥ 1.  A constant, made once per top."""
    out = [ONE]
    for n in range(1, top + 1):
        out.append(-sum(c / math.factorial(n + 1 - j) for j, c in enumerate(out)))
    return tuple(out)


def bch_product(T: TensorDgla, a: GradedElement, b: GradedElement) -> GradedElement:
    """Baker-Campbell-Hausdorff product a•b, with e^a e^b = e^{a•b} as gauge
    operators, summed exactly by the recursion of Casas and Murua on its parts
    Z_n of degree n in a and b, each carried as integer numerators over one
    denominator (a Fraction is made only for the result):

        Z_1 = a + b,   (n+1)·Z_{n+1} = ½[a − b, Z_n] + Σ_{p≥1} B_{2p}/(2p)! · W_{2p}(n),

    where W_j(m) = Σ_{k≥1} [Z_k, W_{j−1}(m − k)], W_0(0) = a + b, is the sum of
    the nested brackets [Z_{k_1}, [… [Z_{k_j}, a + b]]] with k_1 + … + k_j = m.
    Z_n lies in m_A^{nℓ}, ℓ the lower filtration level of a and b, so the sum
    stops exactly before the first n with n·ℓ ≥ ν.  a ± b are summed in
    integers, the coefficients B_j/j! are made once per order, and a − b, each
    Z_k and each W that a later bracket reads are grouped once
    (TensorDgla._grouped).
    """
    _require_degree(a, 0, "BCH argument")
    _require_degree(b, 0, "BCH argument")
    ai, bi = T._ints(a), T._ints(b)
    level = min(T.element_level(a), T.element_level(b))
    top = max(1, (T.nu - 1) // max(level, 1))
    z1 = _combine([(1, ai), (1, bi)])
    if top == 1:  # a + b, with the degree a + b declares
        return _from_ints(T.space, *z1, a.degree if a.degree == b.degree else None)
    bern, group, bracket, zero = _bernoulli_over_factorial(top), T._grouped, T._bracket_grouped, (1, {})
    diff, Z, gZ = group(_combine([(1, ai), (-1, bi)])), [zero, z1], [zero, group(z1)]
    # W[j][m] for 1 ≤ j ≤ m, and gW[j][m] grouped for the brackets of later
    # steps; the last step makes only the W of even j, for its Z, and groups
    # none, and the step before it groups only its W of odd j, which the last
    # step's brackets read
    W = [[z1] + [zero] * top] + [[zero] * (top + 1) for _ in range(top)]
    gW = [[gZ[1]] + [zero] * top] + [[zero] * (top + 1) for _ in range(top)]
    for n in range(1, top):
        last = n == top - 1
        for j in range(1, n + 1):
            if j % 2 == 0 or not last:
                W[j][n] = _combine((1, bracket(gZ[k], gW[j - 1][n - k]))
                                   for k in range(1, n - j + 2))
                if j % 2 or n < top - 2:
                    gW[j][n] = group(W[j][n])
        Z.append(_combine([(Fraction(1, 2 * n + 2), bracket(diff, gZ[n]))]
                          + [(bern[2 * p] / (n + 1), W[2 * p][n]) for p in range(1, n // 2 + 1)]))
        if not last:
            gZ.append(group(Z[-1]))
    return _from_ints(T.space, *_combine((1, z) for z in Z[1:]))


class McElement(Record):
    """Degree-1 element of L ⊗ m_A; verified means the MC residual vanishes."""

    tensor: TensorDgla
    element: GradedElement
    verified: bool = False


def mc_element(T: TensorDgla, x: GradedElement) -> McElement:
    """Verify the Maurer-Cartan equation in integers and wrap the element."""
    _require_degree(x, 1, "Maurer-Cartan candidate")
    den, res = _residual_ints(T, T._ints(x))
    if res:
        raise NotVerifiedMC(f"MC residual is nonzero: {_from_ints(T.space, den, res).pretty()}")
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


class ObstructionClass(Record):
    """Class in H^degree(complex) ⊗ J, with the raw cocycle that produced it."""

    cohomology: CohomologyResult
    degree: int
    kernel_labels: tuple[str, ...]
    coords: tuple[tuple[Fraction, ...], ...]  # one coordinate vector per J basis vector
    cocycle: object
    problem: tuple  # (ext, input, B side)
    _hidden = ("problem",)  # which problem a class answers is not part of its value

    def is_zero(self) -> bool:
        return all(c == 0 for vec in self.coords for c in vec)

    def label_map(self) -> dict[str, Fraction]:
        """Nonzero class coordinates keyed 'representative-label@J-label'.  A
        representative is labelled by the first key of its support that no other
        representative holds: its first key whenever that one is its own.  Its
        free column (it is a row-reduced kernel vector) is such a key."""
        H = self.cohomology
        supports = [set(H.representative(self.degree, r).coords) for r in range(H.dim(self.degree))]
        labels = []
        for r, keys in enumerate(supports):
            own = keys.difference(*supports[:r], *supports[r + 1:])
            labels.append(H.complex.space.label(*min(own)))
        return {f"{labels[r]}@{jlab}": c for jlab, vec in zip(self.kernel_labels, self.coords)
                for r, c in enumerate(vec) if c}


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
    den, nums = _to_ints(x)
    by_l: dict[tuple[int, int], dict[int, int]] = {}
    for key, n in nums.items():
        ldeg, lidx, ai = T.from_tensor[key]
        by_l.setdefault((ldeg, lidx), {})[ai] = n
    out: list[dict[tuple[int, int], Fraction]] = [dict() for _ in range(ext.kernel_dim)]
    for lkey, bvec in by_l.items():
        coords = ext.kernel_coords(bvec, den)
        if coords is None:
            raise InvalidInput("cocycle does not lie in ⊗J; extension data inconsistent")
        for j, c in enumerate(coords):
            if c != 0:
                out[j][lkey] = c
    return [GradedElement(T.factor.space, d) for d in out]


def _obstruction_problem(key: tuple, pieces, cocycle: Callable, H: CohomologyResult,
                         embed: Callable, split: Callable, verified: Callable,
                         cls: ObstructionClass | None = None):
    """Lift MC data along the small extension 0 → J → B → A → 0: one path for
    an element and a triple (Fantechi and Manetti 1998; Manetti 1999).

    key is (ext, input, B-side tensor or setting); pieces holds (T_A, piece
    over A, T_B) per piece: (x) for an element, (x, y, p) for a triple.  Each
    piece is lifted by ext.section, and cocycle maps the lifted pieces to the
    cocycle, one component per piece in that piece's T_B, all as (den, integer
    numerators) pairs; a component has its piece's degree + 1, and a lifted
    piece its input's degree.  For each J basis
    vector J_j, embed sends the j-th parts of the components to a degree-2
    cycle of cx = H.complex; H.class_of (which refuses a non-cycle) reads its
    class in the obstruction space H²(cx) that the caller keeps (it does not
    depend on the extension), so no cohomology is computed here.

    Without cls, returns (H, J labels, class coordinates, cocycle).
    With cls, key must be cls.problem, and the coordinates read again from
    cls.cocycle (an element's is bare) must be cls.coords.  A nonzero class gives
    NO_LIFT.  A vanishing one gives w_j = h(part j) with D w_j = part j, by
    the H.h(2) kept on H (checked); split sends w_j to per-piece corrections,
    and the result is verified(*bars) for bar = lifted piece − Σ_j w_j ⊗ J_j,
    each bar checked to project back.
    """
    ext = key[0]
    if any(TA.coeff != ext.A for TA, _e, _TB in pieces):
        raise BaseMismatch("input does not live over the extension's target")
    lifted = [TA._map_ints(TA._ints(e), ext._columns[0], TB) for TA, e, TB in pieces]
    cx = H.complex
    if cls is None:
        cocyc = tuple(_from_ints(TB.space, *c, None if e.degree is None else e.degree + 1)
                      for (_TA, e, TB), c in zip(pieces, cocycle(*lifted)))
    elif all(p is q or p == q for p, q in zip(cls.problem, key)):
        cocyc = (cls.cocycle,) if len(pieces) == 1 else cls.cocycle
    else:
        raise InconsistentInput("class was computed for another extension or input")
    parts = [embed(*js) for js in
             zip(*(_j_components(TB, ext, c) for (_TA, _e, TB), c in zip(pieces, cocyc)))]
    coords = tuple(tuple(H.class_of(part, degree=2)) for part in parts)
    if cls is None:
        jlabels = tuple(ext.kernel_label(j) for j in range(ext.kernel_dim))
        return H, jlabels, coords, cocyc
    if coords != cls.coords:
        raise InconsistentInput("class does not match the recomputed cocycle projection")
    if not cls.is_zero():
        return NO_LIFT
    corrections: list[list[GradedElement]] = [[] for _ in pieces]
    for part in parts:
        pi = _to_ints(part)
        w = H.h(2)._apply_ints(pi)
        if _combine([(1, cx.d._apply_ints(w)), (-1, pi)])[1]:
            raise InvalidInput("internal: vanishing class but the cocycle is no boundary")
        for acc, wp in zip(corrections, split(_from_ints(cx.space, *w, 1))):
            acc.append(wp)
    out = []
    for (TA, e, TB), lt, ws in zip(pieces, lifted, corrections):
        bar = _combine([(1, lt)] + [  # lt − Σ_j ws_j ⊗ J_j
            (-c, (den, {TB.to_tensor[k][b]: n for k, n in nums.items()}))
            for (den, nums), J in zip(map(_to_ints, ws), ext.kernel) for b, c in J.items()])
        if _combine([(1, TB._map_ints(bar, ext._columns[1], TA)), (-1, _to_ints(e))])[1]:
            raise InvalidInput("internal: lift does not project to the input")
        out.append(_from_ints(TB.space, *bar, e.degree))
    return verified(*out)


def _element_problem(ext: SmallExtension, x: McElement, T_B: TensorDgla | None) -> tuple:
    """The obstruction problem of x: one piece, with its class in H²(L), kept
    on L (Dgla.obstruction_space)."""
    L = x.tensor.factor
    T_B = T_B if T_B is not None else tensor_dgla(L, ext.B)
    return ((ext, x, T_B), [(x.tensor, x.element, T_B)],
            lambda xt: (_residual_ints(T_B, xt),),
            L.obstruction_space(), lambda h: h, lambda w: (w,),
            lambda xbar: mc_element(T_B, xbar))


def obstruction_single(ext: SmallExtension, x: McElement, *,
                       tensor_B: TensorDgla | None = None) -> ObstructionClass:
    """Obstruction class in H²(L) ⊗ J to lifting x along the small extension.
    H²(L) is computed once per DGLA and shared by all its classes."""
    if not x.verified:
        raise NotVerifiedMC("obstruction_single requires a verified MC element")
    problem = _element_problem(ext, x, tensor_B)
    H, jlabels, coords, (cocycle,) = _obstruction_problem(*problem)
    return ObstructionClass(H, 2, jlabels, coords, cocycle, problem[0])


def lift_if_unobstructed(ext: SmallExtension, x: McElement, cls: ObstructionClass,
                         *, tensor_B: TensorDgla | None = None):
    """Constructive lift x̄ = x̃ − q when the class vanishes; NoLift otherwise.
    cls must be the class of x along ext; its cocycle is not recomputed, and
    tensor_B defaults to the one it records."""
    if not x.verified:
        raise NotVerifiedMC("lift_if_unobstructed requires a verified MC element")
    return _obstruction_problem(*_element_problem(ext, x, tensor_B or cls.problem[2]), cls)


# --- pair functor ------------------------------------------------------------


class PairSetting(Record):
    """A pair (h, g) tensored with one coefficient algebra."""

    h: DglaMorphism
    g: DglaMorphism
    coeff: CoefficientAlgebra
    tL: TensorDgla
    tN: TensorDgla
    tM: TensorDgla
    h_tensor: object  # GradedMap on tensors
    g_tensor: object
    _hidden = ("tL", "tN", "tM", "h_tensor", "g_tensor")  # all fixed by h, g and coeff

    def __post_init__(self):
        object.__setattr__(self, "_obstruction", None)  # see obstruction_space

    def over(self, B: CoefficientAlgebra) -> PairSetting:
        """The same pair over B, sharing this setting's obstruction space."""
        sB = pair_setting(self.h, self.g, B)
        object.__setattr__(sB, "_obstruction", self._obstruction)
        return sB

    def obstruction_space(self) -> tuple[ConeComplex, CohomologyResult]:
        """The cone C_{(h,g)} and its H², the obstruction space of the pair
        functor: it depends on (h, g) alone, so it is built on first use and
        kept on the setting, and a setting derived from this one by over
        shares it."""
        if self._obstruction is None:
            cone = cone_pair(self.h, self.g)
            object.__setattr__(self, "_obstruction",
                               (cone, compute_cohomology(cone.complex, (2,))))
        return self._obstruction

    def apply_h(self, x: GradedElement) -> GradedElement:
        return _from_ints(self.tM.space, *self.h_tensor._apply_ints(self.tL._ints(x)), x.degree)

    def apply_g(self, y: GradedElement) -> GradedElement:
        return _from_ints(self.tM.space, *self.g_tensor._apply_ints(self.tN._ints(y)), y.degree)

    def _linking(self, x: tuple[int, dict], y: tuple[int, dict], p: tuple[int, dict]) -> tuple[int, dict]:
        """e^p * h(x) − g(y) of (den, integer numerators) pairs: zero when (x, y, e^p) is linked."""
        return _combine([(1, _gauge_ints(self.tM, p, self.h_tensor._apply_ints(x))),
                         (-1, self.g_tensor._apply_ints(y))])



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


class McTriple(Record):
    """(x, y, e^p) for the pair functor; verified means both MC equations and
    the linking equation g(y) = e^p * h(x) hold."""

    setting: PairSetting
    x: GradedElement
    y: GradedElement
    p: GradedElement
    verified: bool = False


def mc_pair_check(setting: PairSetting, x: GradedElement, y: GradedElement,
                  p: GradedElement) -> tuple[McTriple, list[Violation]]:
    """Verify the two MC residuals and the gauge-linking equation exactly, in
    integers; a Fraction element is made only for a violation's message."""
    report: list[Violation] = []
    _require_degree(x, 1, "first component")
    _require_degree(y, 1, "second component")
    _require_degree(p, 0, "linking exponent")
    for axiom, name, T, e in (("mc_first", "x", setting.tL, x), ("mc_second", "y", setting.tN, y)):
        den, res = _residual_ints(T, T._ints(e))
        if res:
            report.append(Violation(axiom, (name,), f"residual {_from_ints(T.space, den, res).pretty()}"))
    den, link = setting._linking(_to_ints(x), _to_ints(y), setting.tM._ints(p))
    if link:
        report.append(Violation("linking", ("x", "y", "p"),
                                f"g(y) − e^p*h(x) = {(-_from_ints(setting.tM.space, den, link)).pretty()}"))
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


class PairObstructionClass(ObstructionClass):
    """Obstruction in H²(C_{(h,g)}) ⊗ J; cocycle is the triple (l, k, r)."""

    cone: ConeComplex = None


def _triple_problem(ext: SmallExtension, t: McTriple, sB: PairSetting | None) -> tuple:
    """The obstruction problem of t: pieces (x, y, p), cocycle (l, k, r) with
    r = e^q * h(x̃) − g(ỹ) (PairSetting._linking), and its class in H²(C_{(h,g)}),
    kept on t's setting (PairSetting.obstruction_space).  A B-side setting derived here
    shares that space, so a tower walk over one (h, g) builds one cone."""
    s = t.setting
    cone, H = s.obstruction_space()
    sB = sB if sB is not None else s.over(ext.B)

    def cocycle(xt, yt, q):
        return _residual_ints(sB.tL, xt), _residual_ints(sB.tN, yt), sB._linking(xt, yt, q)

    def embed(l, k, r):
        return cone.embed("L", l) + cone.embed("N", k) + cone.embed("M", r)

    return ((ext, t, sB), [(s.tL, t.x, sB.tL), (s.tN, t.y, sB.tN), (s.tM, t.p, sB.tM)], cocycle,
            H, embed,
            lambda w: [cone.project(n, w) for n in "LNM"], lambda *xyp: mc_triple(sB, *xyp))


def obstruction_pair(ext: SmallExtension, t: McTriple, *,
                     setting_B: PairSetting | None = None) -> PairObstructionClass:
    """Obstruction class in H²(C_{(h,g)}) ⊗ J to lifting a verified triple
    along the small extension.  The cone and its H² are built once per
    setting and shared by all its classes."""
    if not t.verified:
        raise NotVerifiedTriple("obstruction_pair requires a verified triple")
    problem = _triple_problem(ext, t, setting_B)
    H, jlabels, coords, cocycle = _obstruction_problem(*problem)
    return PairObstructionClass(H, 2, jlabels, coords, cocycle, problem[0],
                                t.setting.obstruction_space()[0])


def lift_pair_if_unobstructed(ext: SmallExtension, t: McTriple,
                              cls: PairObstructionClass, *,
                              setting_B: PairSetting | None = None):
    """Constructive lift (x̃−u, ỹ−v, q−z) when the class vanishes.  cls must be
    the class of t along ext; setting_B defaults to the one it records."""
    if not t.verified:
        raise NotVerifiedTriple("lift_pair_if_unobstructed requires a verified triple")
    return _obstruction_problem(*_triple_problem(ext, t, setting_B or cls.problem[2]), cls)


# --- gauge equivalence decision ----------------------------------------------


class Equivalent(Record):
    witness: GradedElement


class NotEquivalent(Record):
    reason: str


class Undecided(Record):
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

    The rows of d_x are integer numerators over one denominator (_dx_rows:
    d's integer columns and every column of ad_x from one pass of the kernel,
    x grouped once), and the residual is summed and rebased in integers; the
    echelon takes the rows as integers (la.Echelon.add_ints), so a Fraction
    is made only for a right-hand side, a message or the witness.

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
    P, Q = (None if m is None else la.int_columns(m) for m in (P, Q))

    def rebase(e: GradedElement, m: tuple | None) -> GradedElement:
        return e if m is None else T.map_coefficients(e, m, T)

    level = {key: coeff_levels[ai] for key, (_i, _p, ai) in T.from_tensor.items()}
    xi, yi = T._ints(x.element), T._ints(y.element)
    den, rows = _dx_rows(T, xi, P, Q)
    # one echelon of the rows of all levels so far, pivots on unknowns of top level
    echelon = la.Echelon(lambda row: max(row, key=lambda u: (level[u], -u[1])))
    a, current = zero_element(T.space, 0), xi
    for k in range(1, T.nu):
        if cancel is not None and cancel():
            return Undecided(f"cancelled at level {k}")
        r = _combine([(1, yi), (-1, current)])
        rd, r = r if Q is None else _rebased(T, r, Q, 1)
        for key in sorted(key for key in level if key[0] == 1 and level[key] == k):
            _den, row, rhs = echelon.add_ints(den, rows.pop(key, {}),
                                              Fraction(-n, rd) if (n := r.get(key)) else ZERO)
            if not row and rhs:
                rk = GradedElement(T.space, {q: Fraction(n, rd) for q, n in r.items()
                                             if level[q] == k}, 1)
                return NotEquivalent(
                    f"no gauge reaches y modulo m^{k + 1}: the level-{k} residual "
                    f"y − e^a * x ≡ {rebase(rk, P).pretty()} (mod m^{k + 1}) is not "
                    f"d_x s for any s")
        if not any(echelon.rhs.values()):
            continue
        sol, echelon.rhs = echelon.rhs, {}
        s = rebase(GradedElement(T.space, sol, 0), P)
        # a + s ≡ a•s modulo m^{level a + level s}, which is all level k needs
        a = a + s if T.element_level(a) + T.element_level(s) > k else bch_product(T, a, s)
        current = _gauge_ints(T, T._ints(a), xi)
    if _combine([(1, yi), (-1, current)])[1]:
        raise InvalidInput("internal: witness validation failed")
    return Equivalent(a)


def _dx_rows(T: TensorDgla, x: tuple[int, dict], P: tuple | None,
             Q: tuple | None) -> tuple[int, dict]:
    """The rows of d_x s = ds + [x, s] on L⁰ ⊗ m, in the basis of m_A that P
    and Q = P⁻¹ give (la.int_columns; None: the basis as is), as integer
    numerators over one denominator: (den, {(1, r): {(0, i): n}}), each row's
    keys in increasing i.  The columns are d's integer columns and ad_x's
    (TensorDgla._ad_columns, x grouped once)."""
    (dd, dcols), (bd, bcols) = T.d._int_columns(), T._ad_columns(T._grouped(x), 0)
    den, cols = math.lcm(dd, bd), {}
    for i in range(T.space.dim(0)):
        col, it = {}, iter(dcols.get((0, i), ()))
        for k, n in zip(it, it):
            col[k] = n * (den // dd)
        for k, n in bcols.get((0, i), la.EMPTY).items():
            col[k] = col.get(k, 0) + n * (den // bd)
        cols[(0, i)] = col
    if P is not None:  # column i of Q d_x P, over Q's den · P's den · den
        rebased = {}
        for e in cols:
            pd, pe = _rebased(T, (1, {e: 1}), P, 0)
            de: dict = {}
            for j, c in pe.items():
                for k, n in cols[j].items():
                    de[k] = de.get(k, 0) + c * n
            rebased[e] = _rebased(T, (pd * den, de), Q, 1)[1]
        den, cols = Q[0] * P[0] * den, rebased
    rows: dict = {}
    for e, col in cols.items():
        for r, n in col.items():
            if n:
                rows.setdefault(r, {})[e] = n
    return den, rows


def _rebased(T: TensorDgla, v: tuple[int, dict], m: tuple, degree: int) -> tuple[int, dict]:
    """A vector of one degree in the coefficient basis m (T._map_ints), refused
    as map_coefficients refuses it when m moves it out of that degree (only
    a table that breaks the coefficient degrees can)."""
    den, nums = T._map_ints(v, m, T)
    for deg, _i in nums:
        if deg != degree:
            raise DegreeWindowViolation(
                f"nonzero coordinate at degree {deg} in element declared degree {degree}")
    return den, nums


# --- tangent dimensions -------------------------------------------------------


def tangent_dim_single(L: Dgla, shift_n: int = 0) -> int:
    """dim H^{1+n}(L), asserted equal to the direct MC/gauge computation
    over K·ε with deg ε = −n."""
    via_cohomology = cohomology_dims(L.complex, (1 + shift_n,)).get(1 + shift_n, 0)
    T = tensor_dgla(L, epsilon_algebra(shift_n))
    d = T.d
    return _agreed(via_cohomology, d.kernel_dim(1) - d.rank(0))


def _agreed(via_cohomology: int, direct: int) -> int:
    if direct != via_cohomology:
        raise InvalidInput(
            f"tangent computations disagree: H gives {via_cohomology}, MC/gauge gives {direct}")
    return direct


def tangent_dim_pair(h: DglaMorphism, g: DglaMorphism, shift_n: int = 0) -> int:
    """dim H^{1+n}(C_{(h,g)}), asserted equal to the direct MC/gauge count."""
    cone = cone_pair(h, g)
    via_cohomology = cohomology_dims(cone.complex, (1 + shift_n,)).get(1 + shift_n, 0)

    # (x, y, p) in (L⊗ε)¹ ⊕ (N⊗ε)¹ ⊕ (M⊗ε)⁰ with dx = dy = 0 and h(x) − g(y) − dp = 0: the
    # kernel of D in degree 1 of the ε-tensored pair's cone, modulo the image of D in degree 0
    s = pair_setting(h, g, epsilon_algebra(shift_n))
    D = cone_pair(ChainMap(s.tL.complex, s.tM.complex, s.h_tensor),
                  ChainMap(s.tN.complex, s.tM.complex, s.g_tensor)).complex.d
    return _agreed(via_cohomology, D.kernel_dim(1) - D.rank(0))
