"""DGLA structures, morphisms, axiom validation, and mapping cones.

Bracket structure constants are stored only for canonically ordered basis
pairs ((i,p) <= (j,q) lexicographically); the other order is derived from
graded antisymmetry.  The cone differential follows the convention tagged
"iacono-cone-v1": D(l,n,m) = (dl, dn, −dm − g(n) + h(l)), with −d on the
M-part.  Cones are plain complexes; no bracket is ever defined on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import linalg as la
from .errors import (
    DegreeWindowViolation,
    InvalidInput,
    NotInjective,
    TargetMismatch,
    WindowTooSmall,
)
from .graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    GradedSpace,
    basis_element,
    block_layout,
    block_sum,
    direct_sum,
    element_from_labels,
    hom_basis,
    hom_complex,
    identity_map,
    kernel_subcomplex,
    map_from_images,
    zero_complex,
    zero_element,
    zero_map,
    zero_space,
)

ZERO = Fraction(0)
ONE = Fraction(1)

BasisKey = tuple[int, int]  # (degree, index)


def koszul_sign(i: int, j: int) -> Fraction:
    return ONE if (i * j) % 2 == 0 else -ONE


@dataclass(frozen=True)
class Violation:
    """One failed axiom instance with its witnessing basis tuple."""

    axiom: str
    witness: tuple[str, ...]
    detail: str = ""

    def __str__(self):
        where = ", ".join(self.witness)
        msg = f"{self.axiom} violated at ({where})"
        return f"{msg}: {self.detail}" if self.detail else msg


@dataclass(frozen=True)
class Dgla:
    """Chain complex plus bracket structure constants on canonical pairs."""

    complex: ChainComplex
    brackets: Mapping[tuple[BasisKey, BasisKey], GradedElement] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (a, b), val in self.brackets.items():
            if b < a:
                raise InvalidInput(f"non-canonical bracket key {(a, b)}")
            if val.space != self.space:
                raise InvalidInput("bracket value lives in a different space")
            if not val.is_zero():
                clean[(a, b)] = val
        object.__setattr__(self, "brackets", clean)

    @property
    def space(self) -> GradedSpace:
        return self.complex.space

    @property
    def d(self) -> GradedMap:
        return self.complex.d

    def differential_of(self, x: GradedElement) -> GradedElement:
        return self.complex.d.apply(x)

    def bracket_basis(self, a: BasisKey, b: BasisKey) -> GradedElement:
        if b < a:
            stored = self.brackets.get((b, a))
            if stored is None:
                return zero_element(self.space)
            return (-koszul_sign(a[0], b[0])) * stored
        stored = self.brackets.get((a, b))
        if stored is None:
            return zero_element(self.space)
        return stored

    def bracket(self, x: GradedElement, y: GradedElement) -> GradedElement:
        """[x, y] from the stored constants of each support pair, summed into
        one dict; a reversed pair carries the Koszul sign."""
        out: dict[BasisKey, Fraction] = {}
        for a, cx in x.coords.items():
            for b, cy in y.coords.items():
                stored = self.brackets.get((a, b) if a <= b else (b, a))
                if stored is None:
                    continue
                c = cx * cy if a <= b or (a[0] * b[0]) % 2 else -(cx * cy)
                for k, v in stored.coords.items():
                    out[k] = out.get(k, ZERO) + c * v
        return GradedElement(self.space, out)

    def is_abelian(self) -> bool:
        return not self.brackets

    def __eq__(self, other):
        if not isinstance(other, Dgla):
            return NotImplemented
        return self.complex == other.complex and self.brackets == other.brackets

    __hash__ = None


def make_dgla(complex: ChainComplex,
              entries: Iterable[tuple[BasisKey, BasisKey, GradedElement]] = ()) -> Dgla:
    """Fold arbitrary-order bracket entries into canonical storage.

    Entries given in both orders must be antisymmetry-consistent; otherwise
    InvalidInput is raised rather than silently keeping one of them.
    """
    canonical: dict[tuple[BasisKey, BasisKey], GradedElement] = {}
    for a, b, val in entries:
        key, stored = ((a, b), val) if a <= b else ((b, a), (-koszul_sign(a[0], b[0])) * val)
        if key in canonical:
            if canonical[key] != stored:
                raise InvalidInput(f"inconsistent duplicate bracket entries at {key}")
        else:
            canonical[key] = stored
    return Dgla(complex, canonical)


def dgla_from_labels(complex: ChainComplex,
                     entries: Mapping[tuple[str, str], Mapping[str, object]]) -> Dgla:
    """Bracket entries keyed by label pairs, values as label -> scalar maps."""
    space = complex.space
    return make_dgla(complex, [(space.locate(a), space.locate(b),
                                element_from_labels(space, val))
                               for (a, b), val in entries.items()])


def abelian_dgla(complex: ChainComplex) -> Dgla:
    return Dgla(complex, {})


def zero_dgla() -> Dgla:
    return abelian_dgla(zero_complex())


Coords = dict[BasisKey, Fraction]  # sparse vector by basis key; absent keys are zero
EMPTY: dict = {}  # shared default for absent rows and vectors; never written


def _basis_images(f: GradedMap) -> dict[BasisKey, Coords]:
    """f of each source basis vector with a nonzero image."""
    images: dict[BasisKey, Coords] = {}
    for i, block in f.blocks.items():
        for r, row in enumerate(block):
            for q, c in enumerate(row):
                if c:
                    images.setdefault((i, q), {})[(i + f.degree, r)] = c
    return images


def _bracket_table(L: Dgla) -> dict[BasisKey, dict[BasisKey, Coords]]:
    """table[a][b] = [a, b] for every basis pair with a nonzero bracket; the
    non-canonical order carries the Koszul sign, as in Dgla.bracket_basis."""
    table: dict[BasisKey, dict[BasisKey, Coords]] = {}
    for (a, b), val in L.brackets.items():
        table.setdefault(a, {})[b] = val.coords
        if a != b:
            s = -koszul_sign(a[0], b[0])
            table.setdefault(b, {})[a] = {k: s * c for k, c in val.coords.items()}
    return table


def _add(acc: Coords, c: Fraction, x: Coords) -> None:
    """acc += c·x."""
    for k, v in x.items():
        if k in acc:
            acc[k] += c * v
        else:
            acc[k] = c * v


def _sub(acc: Coords, c: Fraction, x: Coords) -> None:
    """acc −= c·x."""
    for k, v in x.items():
        if k in acc:
            acc[k] -= c * v
        else:
            acc[k] = -(c * v)


def _pretty(space: GradedSpace, defect: Coords) -> str | None:
    """The defect as GradedElement.pretty() prints it, or None when it is zero."""
    if not any(defect.values()):
        return None
    return GradedElement(space, defect).pretty()


def validate_dgla(L: Dgla) -> list[Violation]:
    """Check d²=0, bracket degrees, antisymmetry, Leibniz, and Jacobi.

    Violations are report entries, never exceptions; an empty report means
    the candidate is a DGLA.  Leibniz and Jacobi are checked as identities
    over the structure constants, on the basis pairs a ≤ b and triples
    a ≤ b ≤ c in basis order: each pair's or triple's defect is summed into
    one sparse vector, and a triple is visited only when one of its brackets
    is nonzero.  With the bracket graded-antisymmetric (the antisymmetry and
    bracket-degree checks), the Leibniz defect of (b, a) is ±that of (a, b)
    and the Jacobiator is graded-antisymmetric in all three slots, so the
    other orders add no information.
    """
    report: list[Violation] = []
    space = L.space
    for lab in L.complex.d_squared_witnesses():
        report.append(Violation("d_squared", (lab,), "d(d(e)) ≠ 0"))

    keys = [(i, p) for i in space.degrees() for p in range(space.dim(i))]

    def name(k: BasisKey) -> str:
        return space.label(*k)

    for (a, b), val in L.brackets.items():
        expected = a[0] + b[0]
        for (deg, _idx), _c in val.coords.items():
            if deg != expected:
                report.append(Violation(
                    "bracket_degree", (name(a), name(b)),
                    f"value has a term in degree {deg}, expected {expected}",
                ))
                break

    # canonical storage derives [b,a] from [a,b] with the Koszul sign, so
    # only a diagonal [a,a] (a of even degree) can fail antisymmetry
    for a in keys:
        lhs = L.bracket_basis(a, a) + koszul_sign(a[0], a[0]) * L.bracket_basis(a, a)
        if not lhs.is_zero():
            report.append(Violation("antisymmetry", (name(a), name(a)),
                                    f"[a,b]+(−1)^(deg a·deg b)[b,a] = {lhs.pretty()}"))

    table = _bracket_table(L)
    d = _basis_images(L.d)

    # d[a,b] − [da,b] − (−1)^deg a [a,db]
    for i, a in enumerate(keys):
        ta, da = table.get(a, EMPTY), d.get(a, EMPTY)
        add_adb = _add if a[0] % 2 else _sub  # the term −(−1)^deg a [a,db]
        for b in keys[i:]:
            defect: Coords = {}
            for k, c in ta.get(b, EMPTY).items():
                _add(defect, c, d.get(k, EMPTY))
            for k, c in da.items():
                _sub(defect, c, table.get(k, EMPTY).get(b, EMPTY))
            for k, c in d.get(b, EMPTY).items():
                add_adb(defect, c, ta.get(k, EMPTY))
            text = _pretty(space, defect)
            if text is not None:
                report.append(Violation("leibniz", (name(a), name(b)),
                                        f"d[a,b] − [da,b] − (−1)^deg a [a,db] = {text}"))

    # [a,[b,c]] − [[a,b],c] − (−1)^(deg a·deg b) [b,[a,c]]: a term is nonzero
    # only for c that brackets nonzero with a, with b or with a key of [a,b]
    for i, a in enumerate(keys):
        ta = table.get(a, EMPTY)
        for b in keys[i:]:
            tb, ab = table.get(b, EMPTY), ta.get(b, EMPTY)
            add_bac = _add if (a[0] * b[0]) % 2 else _sub  # −(−1)^(deg a·deg b) [b,[a,c]]
            support = set(ta) | set(tb)
            for k in ab:
                support.update(table.get(k, EMPTY))
            for c in sorted(c for c in support if c >= b):
                defect = {}
                for k, v in tb.get(c, EMPTY).items():
                    _add(defect, v, ta.get(k, EMPTY))
                for k, v in ab.items():
                    _sub(defect, v, table.get(k, EMPTY).get(c, EMPTY))
                for k, v in ta.get(c, EMPTY).items():
                    add_bac(defect, v, tb.get(k, EMPTY))
                text = _pretty(space, defect)
                if text is not None:
                    report.append(Violation("jacobi", (name(a), name(b), name(c)),
                                            f"defect {text}"))
    return report


@dataclass(frozen=True)
class ChainMap:
    """Degree-0 map of complexes; commuting with d is checked by is_chain_map."""

    source: ChainComplex
    target: ChainComplex
    map: GradedMap

    def __post_init__(self):
        if self.map.source != self.source.space or self.map.target != self.target.space:
            raise InvalidInput("chain map spaces do not match its complexes")
        if self.map.degree != 0:
            raise DegreeWindowViolation("chain map must have degree 0")

    def apply(self, x: GradedElement) -> GradedElement:
        return self.map.apply(x)

    def commutes_with_d(self) -> bool:
        return self.map.compose(self.source.d) == self.target.d.compose(self.map)

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (self.source, self.target, self.map) == (other.source, other.target, other.map)

    __hash__ = None


@dataclass(frozen=True)
class DglaMorphism:
    """Degree-0 map of DGLAs; axiom compliance checked by validate_morphism."""

    source: Dgla
    target: Dgla
    map: GradedMap

    def __post_init__(self):
        if self.map.source != self.source.space or self.map.target != self.target.space:
            raise InvalidInput("morphism spaces do not match its endpoints")
        if self.map.degree != 0:
            raise DegreeWindowViolation("DGLA morphism must have degree 0")

    def apply(self, x: GradedElement) -> GradedElement:
        return self.map.apply(x)

    def chain_map(self) -> ChainMap:
        return ChainMap(self.source.complex, self.target.complex, self.map)

    def __eq__(self, other):
        if not isinstance(other, DglaMorphism):
            return NotImplemented
        return (self.source, self.target, self.map) == (other.source, other.target, other.map)

    __hash__ = None


def identity_morphism(L: Dgla) -> DglaMorphism:
    return DglaMorphism(L, L, identity_map(L.space))


def zero_morphism(L: Dgla, M: Dgla) -> DglaMorphism:
    return DglaMorphism(L, M, zero_map(L.space, M.space, 0))


def morphism_from_labels(L: Dgla, M: Dgla, images: Mapping[str, Mapping[str, object]]) -> DglaMorphism:
    by_key = {}
    for lab, val in images.items():
        key = L.space.locate(lab)
        by_key[key] = element_from_labels(M.space, val, key[0])
    return DglaMorphism(L, M, map_from_images(L.space, M.space, 0, by_key))


def validate_morphism(phi: DglaMorphism) -> list[Violation]:
    """Check the chain-map identity on every basis vector and bracket
    preservation on the basis pairs a ≤ b, over the images φ(a) of basis
    vectors and the structure constants of both ends.  φ has degree 0, so
    with both brackets graded-antisymmetric (what validate_dgla checks of the
    ends) the defect of (b, a) is −(−1)^{|a||b|} that of (a, b)."""
    report: list[Violation] = []
    L, M = phi.source, phi.target
    space = L.space
    keys = [(i, p) for i in space.degrees() for p in range(space.dim(i))]
    images, dL, dM = _basis_images(phi.map), _basis_images(L.d), _basis_images(M.d)
    tL, tM = _bracket_table(L), _bracket_table(M)

    def name(k: BasisKey) -> str:
        return space.label(*k)

    for a in keys:
        defect: Coords = {}
        for k, c in dL.get(a, EMPTY).items():
            _add(defect, c, images.get(k, EMPTY))
        for k, c in images.get(a, EMPTY).items():
            _sub(defect, c, dM.get(k, EMPTY))
        text = _pretty(M.space, defect)
        if text is not None:
            report.append(Violation("chain_map", (name(a),), f"φ(da) − d φ(a) = {text}"))
    for i, a in enumerate(keys):
        ta, fa = tL.get(a, EMPTY), images.get(a, EMPTY)
        for b in keys[i:]:
            defect = {}
            for k, c in ta.get(b, EMPTY).items():
                _add(defect, c, images.get(k, EMPTY))
            fb = images.get(b, EMPTY)
            for k, c in fa.items():
                tk = tM.get(k, EMPTY)
                for m, e in fb.items():
                    _sub(defect, c * e, tk.get(m, EMPTY))
            text = _pretty(M.space, defect)
            if text is not None:
                report.append(Violation("bracket_preservation", (name(a), name(b)),
                                        f"φ[a,b] − [φa,φb] = {text}"))
    return report


# --- cones -----------------------------------------------------------------

CONE_CONVENTION = "iacono-cone-v1"


def _as_chain_map(f) -> ChainMap:
    if isinstance(f, ChainMap):
        return f
    if isinstance(f, DglaMorphism):
        return f.chain_map()
    raise InvalidInput(f"expected a chain map or DGLA morphism, got {type(f)!r}")


def _as_pair(h, g) -> tuple[ChainMap, ChainMap]:
    h, g = _as_chain_map(h), _as_chain_map(g)
    if h.target != g.target:
        raise TargetMismatch("h and g must share their target")
    return h, g


@dataclass(frozen=True)
class ConeComplex:
    """Suspended mapping cone with provenance and its block_layout.  Cones live
    on in obstruction classes, so no part matrices are kept: embed and project
    move basis keys, and parts builds the maps when asked."""

    complex: ChainComplex
    kind: str  # "single" or "pair"
    convention: str
    h: ChainMap
    g: ChainMap | None
    layout: Mapping[str, tuple[GradedSpace, int, Mapping[int, int]]]

    @property
    def parts(self) -> dict[str, tuple[GradedMap, GradedMap]]:
        """name -> (embed, project), as block_sum builds them."""
        specs = [(name, space, off) for name, (space, off, _s) in self.layout.items()]
        return dict(zip(self.layout, block_sum(specs)[1]))

    def embed(self, part: str, x: GradedElement) -> GradedElement:
        space, off, starts = self.layout[part]
        if x.space != space:
            raise InvalidInput(f"element does not live in cone part {part}")
        return GradedElement(self.complex.space,
                             {(d + off, starts[d] + i): c for (d, i), c in x.coords.items()},
                             None if x.degree is None else x.degree + off)

    def project(self, part: str, x: GradedElement) -> GradedElement:
        space, off, starts = self.layout[part]
        if x.space != self.complex.space:
            raise InvalidInput("element does not live in the cone")
        coords = {}
        for (d, i), c in x.coords.items():
            j = d - off
            if j in starts and 0 <= i - starts[j] < space.dim(j):
                coords[(j, i - starts[j])] = c
        return GradedElement(space, coords, None if x.degree is None else x.degree - off)

    def __eq__(self, other):
        if not isinstance(other, ConeComplex):
            return NotImplemented
        return self.complex == other.complex and self.kind == other.kind

    __hash__ = None


def cone_single(h) -> ConeComplex:
    """Suspended cone of h: C_h^i = L^i ⊕ M^{i−1}, δ(l,m) = (dl, −dm + h(l))."""
    h = _as_chain_map(h)
    L, M = h.source, h.target
    specs = [("L", L.space, 0), ("M", M.space, 1)]
    space, ((in_l, pr_l), (in_m, pr_m)) = block_sum(specs)
    d = (in_l.compose(L.d).compose(pr_l)
         + in_m.compose(h.map).compose(pr_l)
         - in_m.compose(M.d).compose(pr_m))
    cx = ChainComplex(space, d)
    cx.require_d_squared_zero()
    return ConeComplex(cx, "single", CONE_CONVENTION, h, None, block_layout(specs))


def cone_pair(h, g) -> ConeComplex:
    """Suspended cone of a pair: D(l,n,m) = (dl, dn, −dm − g(n) + h(l))."""
    h, g = _as_pair(h, g)
    L, N, M = h.source, g.source, h.target
    specs = [("L", L.space, 0), ("N", N.space, 0), ("M", M.space, 1)]
    space, ((in_l, pr_l), (in_n, pr_n), (in_m, pr_m)) = block_sum(specs)
    d = (in_l.compose(L.d).compose(pr_l)
         + in_n.compose(N.d).compose(pr_n)
         + in_m.compose(h.map).compose(pr_l)
         - in_m.compose(g.map).compose(pr_n)
         - in_m.compose(M.d).compose(pr_m))
    cx = ChainComplex(space, d)
    cx.require_d_squared_zero()
    return ConeComplex(cx, "pair", CONE_CONVENTION, h, g, block_layout(specs))


def difference_chain_map(h, g) -> ChainMap:
    """h − g: L ⊕ N → M, (l, n) ↦ h(l) − g(n), on the labelled direct sum."""
    h, g = _as_pair(h, g)
    total, [(_il, proj_l), (_in, proj_n)] = direct_sum([("L", h.source), ("N", g.source)])
    return ChainMap(total, h.target, h.map.compose(proj_l) - g.map.compose(proj_n))


def cokernel(f: ChainMap) -> tuple[ChainComplex, ChainMap]:
    """Quotient complex coker(f) with its projection π.

    The quotient basis is the deterministic completion of im(f) by standard
    basis vectors of the target, degree by degree.
    """
    M = f.target
    space = M.space
    basis: dict[int, tuple[str, ...]] = {}
    chosen: dict[int, list[int]] = {}
    proj_rows: dict[int, la.Matrix] = {}
    for i in space.degrees():
        n = space.dim(i)
        if n == 0:
            continue
        img = la.column_space_basis(f.map.matrix(i)) if f.source.space.dim(i) else []
        units, f_inv = la.complete_and_invert(img, n)
        if units:
            basis[i] = tuple(f"q:{space.label(i, j)}" for j in units)
            chosen[i] = units
            proj_rows[i] = f_inv[len(img):]
    qspace = GradedSpace(space.dmin, space.dmax, basis) if basis else zero_space()
    pi = GradedMap(space, qspace, 0, proj_rows)
    # induced differential: d̄(q) = π(d(rep(q)))
    dq = map_from_images(qspace, qspace, 1, {
        (i, k): pi.apply(M.d.apply(basis_element(space, i, j)))
        for i, units in chosen.items() for k, j in enumerate(units)})
    qcx = ChainComplex(qspace, dq)
    qcx.require_d_squared_zero()
    return qcx, ChainMap(M, qcx, pi)


def gamma_quotient_map(h, g) -> ChainMap:
    """γ: C_{(h,g)} → C_{π∘g}, (l, n, m) ↦ (−n, π(m)), for injective h."""
    h, g = _as_pair(h, g)
    for i in h.source.space.degrees():
        if h.map.kernel_dim(i) > 0:
            raise NotInjective(f"h has a kernel in degree {i}")
    src_cone = cone_pair(h, g)
    coker_cx, pi = cokernel(h)
    pig = ChainMap(g.source, coker_cx, pi.map.compose(g.map))
    tgt_cone = cone_single(pig)
    m = (tgt_cone.parts["L"][0].compose(src_cone.parts["N"][1]).scale(-1)
         + tgt_cone.parts["M"][0].compose(pi.map).compose(src_cone.parts["M"][1]))
    gamma = ChainMap(src_cone.complex, tgt_cone.complex, m)
    if not gamma.commutes_with_d():
        raise InvalidInput("internal: γ is not a chain map")
    return gamma


def swap_iso(h, g) -> ChainMap:
    """Involution C_{(h,g)} → C_{(g,h)} sending (l, n, m) to (−l, −n, m)."""
    h, g = _as_pair(h, g)
    src = cone_pair(h, g)
    tgt = cone_pair(g, h)
    m = (tgt.parts["N"][0].compose(src.parts["L"][1]).scale(-1)
         + tgt.parts["L"][0].compose(src.parts["N"][1]).scale(-1)
         + tgt.parts["M"][0].compose(src.parts["M"][1]))
    gamma = ChainMap(src.complex, tgt.complex, m)
    if not gamma.commutes_with_d():
        raise InvalidInput("internal: swap is not a chain map")
    return gamma


def les_exactness(h, g) -> list[Violation]:
    """Rank identities for the long exact sequence
    ··· → Hⁱ(C) → Hⁱ(L⊕N) → Hⁱ(M) → H^{i+1}(C) → ···.

    The three composites vanish identically by construction; exactness is
    checked by rank counting: at every node, rank of the incoming map must
    equal the nullity of the outgoing one.
    """
    from .graded import compute_cohomology, induced_cohomology_matrix

    h, g = _as_pair(h, g)
    cone = cone_pair(h, g)
    H_c = compute_cohomology(cone.complex)
    total, [(inc_l, proj_l), (inc_n, proj_n)] = direct_sum([("L", h.source), ("N", g.source)])
    H_sum = compute_cohomology(total)
    H_m = compute_cohomology(h.target)

    # ι: H^{i−1}(M) → H^i(C) via the M-part embedding (degree +1)
    iota = cone.parts["M"][0]
    # π: H^i(C) → H^i(L⊕N) projecting to the source parts
    pi = inc_l.compose(cone.parts["L"][1]) + inc_n.compose(cone.parts["N"][1])
    # connecting map: class of h(l) − g(n)
    conn = h.map.compose(proj_l) - g.map.compose(proj_n)

    report: list[Violation] = []
    degrees = range(cone.complex.space.dmin - 1, cone.complex.space.dmax + 2)
    for i in degrees:
        mi = induced_cohomology_matrix(iota, H_m, H_c, i - 1)
        mp = induced_cohomology_matrix(pi, H_c, H_sum, i)
        mc = induced_cohomology_matrix(conn, H_sum, H_m, i)
        mi_next = induced_cohomology_matrix(iota, H_m, H_c, i)
        if not la.is_zero_matrix(la.mat_mul(mp, mi)):
            report.append(Violation("les_composite", (f"H^{i}(C)",), "π∘ι ≠ 0"))
        if la.rank(mi) != H_c.dim(i) - la.rank(mp):
            report.append(Violation("les_exactness", (f"H^{i}(C)",),
                                    f"rank ι = {la.rank(mi)}, nullity π = {H_c.dim(i) - la.rank(mp)}"))
        if not la.is_zero_matrix(la.mat_mul(mc, mp)):
            report.append(Violation("les_composite", (f"H^{i}(L⊕N)",), "conn∘π ≠ 0"))
        if la.rank(mp) != H_sum.dim(i) - la.rank(mc):
            report.append(Violation("les_exactness", (f"H^{i}(L⊕N)",),
                                    f"rank π = {la.rank(mp)}, nullity conn = {H_sum.dim(i) - la.rank(mc)}"))
        if not la.is_zero_matrix(la.mat_mul(mi_next, mc)):
            report.append(Violation("les_composite", (f"H^{i}(M)",), "ι∘conn ≠ 0"))
        if la.rank(mc) != H_m.dim(i) - la.rank(mi_next):
            report.append(Violation("les_exactness", (f"H^{i}(M)",),
                                    f"rank conn = {la.rank(mc)}, nullity ι = {H_m.dim(i) - la.rank(mi_next)}"))
    return report


# --- fiber products --------------------------------------------------------


def direct_sum_dgla(L: Dgla, N: Dgla, names: tuple[str, str]) -> tuple[
        Dgla, GradedMap, GradedMap, GradedMap, GradedMap]:
    """Product DGLA L × N with componentwise bracket."""
    cx, [(inc_l, proj_l), (inc_n, proj_n)] = direct_sum(zip(names, (L.complex, N.complex)))

    def key(inc: GradedMap, k: BasisKey) -> BasisKey:
        (image,) = inc.apply(basis_element(inc.source, *k)).coords
        return image

    entries = [(key(inc, a), key(inc, b), inc.apply(val))
               for D, inc in ((L, inc_l), (N, inc_n)) for (a, b), val in D.brackets.items()]
    return make_dgla(cx, entries), inc_l, inc_n, proj_l, proj_n


@dataclass(frozen=True)
class FiberProduct:
    """Sub-DGLA L ×_M N with its embedding and a surjectivity report."""

    dgla: Dgla
    product: Dgla
    embed: GradedMap  # fiber -> L ⊕ N
    surjective: Mapping[int, bool]  # per degree, is g−h: N×L → M surjective

    def all_surjective(self) -> bool:
        return all(self.surjective.values())


def fiber_product_dgla(h: DglaMorphism, g: DglaMorphism) -> FiberProduct:
    """Kernel of (h−g): L⊕N → M with restricted differential and bracket."""
    if h.target != g.target:
        raise TargetMismatch("h and g must share their target")
    L, N, M = h.source, g.source, h.target
    product, inc_l, inc_n, proj_l, proj_n = direct_sum_dgla(L, N, ("L", "N"))
    diff = h.map.compose(proj_l) - g.map.compose(proj_n)
    fcx, embed, restrict = kernel_subcomplex(product.complex, [diff], "fp")
    fspace = fcx.space
    keys = [(i, p) for i in fspace.degrees() for p in range(fspace.dim(i))]
    entries = []
    for a in keys:
        ea = embed.apply(basis_element(fspace, *a))
        for b in keys:
            if b < a:
                continue
            val = product.bracket(ea, embed.apply(basis_element(fspace, *b)))
            if not val.is_zero():
                entries.append((a, b, restrict(val)))
    fdgla = make_dgla(fcx, entries)

    surj = {}
    for i in M.space.degrees():
        dim_m = M.space.dim(i)
        surj[i] = (la.rank(diff.matrix(i)) == dim_m)
    return FiberProduct(fdgla, product, embed, surj)


# --- Cartan homotopy and the adjoined-differential DGLA --------------------


@dataclass(frozen=True)
class CartanHomotopyCandidate:
    source: Dgla
    target: Dgla
    imap: GradedMap  # degree −1

    def __post_init__(self):
        if self.imap.degree != -1:
            raise DegreeWindowViolation("Cartan homotopy candidate must have degree −1")
        if self.imap.source != self.source.space or self.imap.target != self.target.space:
            raise InvalidInput("candidate map endpoints do not match")


def cartan_homotopy_check(c: CartanHomotopyCandidate) -> list[Violation]:
    """Check i([a,b]) = [i(a), d'i(b)] and [i(a), i(b)] = 0 on basis pairs,
    with d'i(a) = d_M(i(a)) + i(d_L(a))."""
    report: list[Violation] = []
    L, M, imap = c.source, c.target, c.imap
    space = L.space
    di = M.complex.d.compose(imap) + imap.compose(L.complex.d)
    keys = [(i, p) for i in space.degrees() for p in range(space.dim(i))]
    for a in keys:
        ea = basis_element(space, *a)
        ia = imap.apply(ea)
        for b in keys:
            eb = basis_element(space, *b)
            lhs = imap.apply(L.bracket(ea, eb))
            rhs = M.bracket(ia, di.apply(eb))
            if lhs != rhs:
                report.append(Violation(
                    "cartan_bracket", (space.label(*a), space.label(*b)),
                    f"i[a,b] − [i(a), d'i(b)] = {(lhs - rhs).pretty()}"))
            comm = M.bracket(ia, imap.apply(eb))
            if not comm.is_zero():
                report.append(Violation(
                    "cartan_commuting", (space.label(*a), space.label(*b)),
                    f"[i(a), i(b)] = {comm.pretty()}"))
    return report


def adjoin_d(L: Dgla, label: str = "delta") -> tuple[Dgla, str]:
    """Adjoin a degree-1 element δ with [δ, v]' = dv and d'(δ) = 0.

    δ is the last degree-1 basis vector, so every key of L is unchanged.
    Returns the extended DGLA and the actual label used for δ.
    """
    space = L.space
    if not (space.dmin <= 1 <= space.dmax):
        raise WindowTooSmall("degree window does not admit degree 1")
    delta = label
    while space.has_label(delta):
        delta += "'"
    basis = dict(space.basis)
    basis[1] = space.labels(1) + (delta,)
    nspace = GradedSpace(space.dmin, space.dmax, basis)

    def lift(x: GradedElement) -> GradedElement:
        return GradedElement(nspace, x.coords, x.degree)

    d_images = {(i, p): lift(L.differential_of(basis_element(space, i, p)))
                for i in space.degrees() for p in range(space.dim(i))}
    ncx = ChainComplex(nspace, map_from_images(nspace, nspace, 1, d_images))
    dkey = (1, space.dim(1))
    entries = [(a, b, lift(val)) for (a, b), val in L.brackets.items()]
    entries += [(dkey, k, dv) for k, dv in d_images.items() if not dv.is_zero()]
    return make_dgla(ncx, entries), delta


def endomorphism_dgla(V: ChainComplex) -> Dgla:
    """End(V) = Hom^*(V, V) with graded commutator bracket and d' = [d, −]."""
    hom = hom_complex(V, V)
    hspace = hom.space
    elems = {n: hom_basis(V.space, V.space, n) for n in hspace.degrees()}
    index = {(n, e): k for n, es in elems.items() for k, e in enumerate(es)}

    def ends(key: BasisKey) -> tuple[BasisKey, BasisKey]:
        i, p, q = elems[key[0]][key[1]]
        return (i, p), (i + key[0], q)

    keys = [(n, k) for n in hspace.degrees() for k in range(hspace.dim(n))]
    entries = []
    for a in keys:
        sa, ta = ends(a)
        for b in keys:
            if b < a:
                continue
            sb, tb = ends(b)
            n = a[0] + b[0]
            coords: dict[BasisKey, Fraction] = {}
            # a ∘ b is the elementary map sb -> ta when target(b) == source(a)
            if tb == sa:
                key = (n, index[(n, (*sb, ta[1]))])
                coords[key] = coords.get(key, ZERO) + ONE
            if ta == sb:
                key = (n, index[(n, (*sa, tb[1]))])
                coords[key] = coords.get(key, ZERO) - koszul_sign(a[0], b[0])
            val = GradedElement(hspace, coords, n)
            if not val.is_zero():
                entries.append((a, b, val))
    return make_dgla(hom, entries)
