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
from math import lcm
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
    CohomologyResult,
    GradedElement,
    GradedMap,
    GradedSpace,
    Part,
    _map,
    _trusted,
    basis_element,
    block_sum,
    compute_cohomology,
    direct_sum,
    element_from_labels,
    hom_basis,
    hom_complex,
    identity_map,
    kernel_subcomplex,
    map_from_images,
    place_blocks,
    whole,
    zero_complex,
    zero_element,
    zero_map,
    zero_space,
)
from .linalg import EMPTY, add_scaled, sub_scaled

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
        for pair, val in self.brackets.items():
            if pair[1] < pair[0]:
                raise InvalidInput(f"non-canonical bracket key {pair}")
            if val.space != self.space:
                raise InvalidInput("bracket value lives in a different space")
            if not val.is_zero():
                clean[pair] = val
        object.__setattr__(self, "brackets", clean)
        object.__setattr__(self, "_scale", lcm(*(c.denominator for val in clean.values()
                                                 for c in val.coords.values())))
        object.__setattr__(self, "_table", None)  # see _int_table
        object.__setattr__(self, "_h2", None)  # see obstruction_space

    def _int_table(self) -> dict[BasisKey, dict[BasisKey, tuple]]:
        """Basis key -> {partner: constants} for every stored [a, b], under a and
        under b: its constants times _scale as one flat tuple (key, n, key, n, …)
        that both rows share.  Built on first use and kept on L."""
        if self._table is None:
            table: dict[BasisKey, dict[BasisKey, tuple]] = {}
            flats: dict[tuple, tuple] = {}  # equal constants are one tuple
            for (a, b), val in self.brackets.items():
                flat = _flat(val.coords, self._scale)
                flat = flats.setdefault(flat, flat)
                table.setdefault(a, {})[b] = table.setdefault(b, {})[a] = flat
            object.__setattr__(self, "_table", table)
        return self._table

    def obstruction_space(self) -> CohomologyResult:
        """H²(L), the obstruction space of Def_L: it does not depend on the small
        extension, so it is computed on first use and kept on L."""
        if self._h2 is None:
            object.__setattr__(self, "_h2", compute_cohomology(self.complex, (2,)))
        return self._h2

    @property
    def space(self) -> GradedSpace:
        return self.complex.space

    @property
    def d(self) -> GradedMap:
        return self.complex.d

    def _ints(self, x: GradedElement) -> tuple[int, dict[BasisKey, int]]:
        """x as (den, integer numerators) (_to_ints), checked to live in L's space."""
        if x.space is not self.space and x.space != self.space:
            raise InvalidInput("element outside the DGLA's space")
        return _to_ints(x)

    def differential_of(self, x: GradedElement) -> GradedElement:
        """dx, from the integer columns kept on d (GradedMap._int_columns)."""
        return _from_ints(self.space, *self.d._apply_ints(self._ints(x)),
                          None if x.degree is None else x.degree + 1)

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
        """[x, y] from the stored constants of each support pair; a reversed pair
        carries the Koszul sign.  Summed exactly in ints by _bracket_ints, one
        Fraction per output."""
        return _from_ints(self.space, *self._bracket_ints(self._ints(x), self._ints(y)))

    def _bracket_ints(self, x: tuple[int, dict], y: tuple[int, dict]) -> tuple[int, dict]:
        """[x, y] of (den, integer numerators) pairs (see _to_ints) as one, over
        den x · den y · _scale, zeros dropped.  Each key of x walks the shorter
        of its table row and y, so only the constants of pairs with a stored
        bracket are read, once per ordered support pair."""
        table = self._int_table()
        (dx, xs), (dy, ys) = x, y
        out: dict[BasisKey, int] = {}
        ykeys = ys.keys()
        for a, cx in xs.items():
            row = table.get(a)
            if row is None:
                continue
            for b in row.keys() & ykeys:  # walks the shorter of the two
                c = cx * ys[b] if a <= b or (a[0] * b[0]) % 2 else -(cx * ys[b])
                it = iter(row[b])
                for k, n in zip(it, it):
                    out[k] = out.get(k, 0) + c * n
        return dx * dy * self._scale, {k: n for k, n in out.items() if n}

    def is_abelian(self) -> bool:
        return not self.brackets

    def __eq__(self, other):
        if not isinstance(other, Dgla):
            return NotImplemented
        return self.complex == other.complex and self.brackets == other.brackets

    __hash__ = None


def _to_ints(z: GradedElement) -> tuple[int, dict[BasisKey, int]]:
    """(den, numerators) with z = numerators/den, den the lcm of its denominators."""
    return la.to_ints(z.coords)


def _from_ints(space: GradedSpace, den: int, nums: Mapping[BasisKey, int],
               degree: int | None = None) -> GradedElement:
    """The element nums/den from nonzero numerators, one Fraction each."""
    return _trusted(space, {k: Fraction(n, den) for k, n in nums.items()}, degree)


def _flat(coords: Mapping[BasisKey, Fraction], den: int) -> tuple:
    """(key, n, key, n, …) with n = coordinate · den, den a common denominator."""
    return tuple(t for k, c in coords.items() for t in (k, c.numerator * (den // c.denominator)))


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


def _image(f: GradedMap, key: BasisKey) -> Coords:
    """f of the basis vector key, read off its column."""
    col = f.cols.get(key[0], EMPTY).get(key[1])
    return {(key[0] + f.degree, r): c for r, c in col.items()} if col else EMPTY


def _bracket_table(L: Dgla) -> dict[BasisKey, dict[BasisKey, Coords]]:
    """table[a][b] = [a, b] for every basis pair with a nonzero bracket (the
    pairs of L's integer table), as Dgla.bracket_basis gives it: the
    non-canonical order carries the Koszul sign."""
    return {a: {b: L.bracket_basis(a, b).coords for b in row} for a, row in L._int_table().items()}


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
    d = {k: _image(L.d, k) for k in keys}

    # d[a,b] − [da,b] − (−1)^deg a [a,db]
    for i, a in enumerate(keys):
        ta, da = table.get(a, EMPTY), d[a]
        add_adb = add_scaled if a[0] % 2 else sub_scaled  # the term −(−1)^deg a [a,db]
        for b in keys[i:]:
            defect: Coords = {}
            for k, c in ta.get(b, EMPTY).items():
                add_scaled(defect, c, d[k])
            for k, c in da.items():
                sub_scaled(defect, c, table.get(k, EMPTY).get(b, EMPTY))
            for k, c in d[b].items():
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
            add_bac = add_scaled if (a[0] * b[0]) % 2 else sub_scaled  # −(−1)^(deg a·deg b) [b,[a,c]]
            support = set(ta) | set(tb)
            for k in ab:
                support.update(table.get(k, EMPTY))
            for c in sorted(c for c in support if c >= b):
                defect = {}
                for k, v in tb.get(c, EMPTY).items():
                    add_scaled(defect, v, ta.get(k, EMPTY))
                for k, v in ab.items():
                    sub_scaled(defect, v, table.get(k, EMPTY).get(c, EMPTY))
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
    tL, tM = _bracket_table(L), _bracket_table(M)
    images, dL = ({k: _image(f, k) for k in keys} for f in (phi.map, L.d))

    def name(k: BasisKey) -> str:
        return space.label(*k)

    for a in keys:
        defect: Coords = {}
        for k, c in dL[a].items():
            add_scaled(defect, c, images[k])
        for k, c in images[a].items():
            sub_scaled(defect, c, _image(M.d, k))
        text = _pretty(M.space, defect)
        if text is not None:
            report.append(Violation("chain_map", (name(a),), f"φ(da) − d φ(a) = {text}"))
    for i, a in enumerate(keys):
        ta, fa = tL.get(a, EMPTY), images[a]
        for b in keys[i:]:
            defect = {}
            for k, c in ta.get(b, EMPTY).items():
                add_scaled(defect, c, images[k])
            fb = images[b]
            for k, c in fa.items():
                tk = tM.get(k, EMPTY)
                for m, e in fb.items():
                    sub_scaled(defect, c * e, tk.get(m, EMPTY))
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
    """Suspended mapping cone with provenance and its block_sum layout.  Cones
    live on in obstruction classes, so no part matrices are kept: embed and
    project move basis keys, and maps between cones are placed by layout."""

    complex: ChainComplex
    kind: str  # "single" or "pair"
    convention: str
    h: ChainMap
    g: ChainMap | None
    layout: Mapping[str, Part]

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
    space, layout = block_sum([("L", L.space, 0), ("M", M.space, 1)])
    l, m = layout["L"], layout["M"]
    cx = ChainComplex(space, place_blocks(space, space, 1, [
        (1, L.d, l, l), (1, h.map, l, m), (-1, M.d, m, m)]))
    cx.require_d_squared_zero()
    return ConeComplex(cx, "single", CONE_CONVENTION, h, None, layout)


def cone_pair(h, g) -> ConeComplex:
    """Suspended cone of a pair: D(l,n,m) = (dl, dn, −dm − g(n) + h(l))."""
    h, g = _as_pair(h, g)
    L, N, M = h.source, g.source, h.target
    space, layout = block_sum([("L", L.space, 0), ("N", N.space, 0), ("M", M.space, 1)])
    l, n, m = layout["L"], layout["N"], layout["M"]
    cx = ChainComplex(space, place_blocks(space, space, 1, [
        (1, L.d, l, l), (1, N.d, n, n), (1, h.map, l, m), (-1, g.map, n, m), (-1, M.d, m, m)]))
    cx.require_d_squared_zero()
    return ConeComplex(cx, "pair", CONE_CONVENTION, h, g, layout)


def difference_chain_map(h, g) -> ChainMap:
    """h − g: L ⊕ N → M, (l, n) ↦ h(l) − g(n), on the labelled direct sum."""
    h, g = _as_pair(h, g)
    total, parts = direct_sum([("L", h.source), ("N", g.source)])
    m = whole(h.target.space)
    return ChainMap(total, h.target, place_blocks(total.space, h.target.space, 0, [
        (1, h.map, parts["L"], m), (-1, g.map, parts["N"], m)]))


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
    tgt_cone = cone_single(ChainMap(g.source, coker_cx, pi.map.compose(g.map)))
    src, tgt = src_cone.layout, tgt_cone.layout
    gamma = ChainMap(src_cone.complex, tgt_cone.complex, place_blocks(
        src_cone.complex.space, tgt_cone.complex.space, 0, [
            (-1, identity_map(g.source.space), src["N"], tgt["L"]),
            (1, pi.map, src["M"], tgt["M"])]))
    if not gamma.commutes_with_d():
        raise InvalidInput("internal: γ is not a chain map")
    return gamma


def swap_iso(h, g) -> ChainMap:
    """Involution C_{(h,g)} → C_{(g,h)} sending (l, n, m) to (−l, −n, m)."""
    h, g = _as_pair(h, g)
    src, tgt = cone_pair(h, g), cone_pair(g, h)
    s, t = src.layout, tgt.layout
    swap = ChainMap(src.complex, tgt.complex, place_blocks(src.complex.space, tgt.complex.space, 0, [
        (-1, identity_map(h.source.space), s["L"], t["N"]),
        (-1, identity_map(g.source.space), s["N"], t["L"]),
        (1, identity_map(h.target.space), s["M"], t["M"])]))
    if not swap.commutes_with_d():
        raise InvalidInput("internal: swap is not a chain map")
    return swap


def les_maps(h, g) -> tuple[ConeComplex, GradedMap, ChainMap, ChainMap]:
    """The cone C of the pair and the maps of its long exact sequence:
    ι: M → C of degree 1 (the M-part embedding), π: C → L⊕N (onto the
    source parts) and the connecting map h − g: L⊕N → M."""
    h, g = _as_pair(h, g)
    cone = cone_pair(h, g)
    conn = difference_chain_map(h, g)
    _total, parts = block_sum([("L", h.source.space, 0), ("N", g.source.space, 0)])
    c, M = cone.layout, h.target.space
    iota = place_blocks(M, cone.complex.space, 1, [(1, identity_map(M), whole(M), c["M"])])
    pi = place_blocks(cone.complex.space, conn.source.space, 0, [
        (1, identity_map(h.source.space), c["L"], parts["L"]),
        (1, identity_map(g.source.space), c["N"], parts["N"])])
    return cone, iota, ChainMap(cone.complex, conn.source, pi), conn


def les_exactness(h, g) -> list[Violation]:
    """Rank identities for the long exact sequence
    ··· → Hⁱ(C) → Hⁱ(L⊕N) → Hⁱ(M) → H^{i+1}(C) → ···.

    The three composites vanish identically by construction; exactness is
    checked by rank counting: at every node, rank of the incoming map must
    equal the nullity of the outgoing one.
    """
    from .graded import compute_cohomology, induced_cohomology_matrix

    cone, iota, pi, conn = les_maps(h, g)
    H_c, H_sum, H_m = (compute_cohomology(cx) for cx in (cone.complex, conn.source, conn.target))

    def induced(name, f, src, tgt, i):
        m = induced_cohomology_matrix(f, src, tgt, i)
        return name, m, la.rank(m)

    lo, hi = cone.complex.space.dmin - 1, cone.complex.space.dmax + 2
    # ι at degree i enters H^{i+1}(C) and leaves H^i(M): built and ranked once
    iota_at = {i: induced("ι", iota, H_m, H_c, i) for i in range(lo - 1, hi)}
    report: list[Violation] = []
    for i in range(lo, hi):
        maps = [iota_at[i - 1], induced("π", pi.map, H_c, H_sum, i),
                induced("conn", conn.map, H_sum, H_m, i), iota_at[i]]
        nodes = [(f"H^{i}(C)", H_c), (f"H^{i}(L⊕N)", H_sum), (f"H^{i}(M)", H_m)]
        # node k sits between maps k (incoming) and k + 1 (outgoing)
        for (node, H), (a, into, r_in), (b, out, r_out) in zip(nodes, maps, maps[1:]):
            if not la.is_zero_matrix(la.mat_mul(out, into)):
                report.append(Violation("les_composite", (node,), f"{b}∘{a} ≠ 0"))
            nullity = H.dim(i) - r_out
            if r_in != nullity:
                report.append(Violation("les_exactness", (node,),
                                        f"rank {a} = {r_in}, nullity {b} = {nullity}"))
    return report


# --- fiber products --------------------------------------------------------


def direct_sum_dgla(L: Dgla, N: Dgla, names: tuple[str, str]) -> tuple[Dgla, dict[str, Part]]:
    """Product DGLA L × N with componentwise bracket, and its block_sum layout."""
    cx, layout = direct_sum(zip(names, (L.complex, N.complex)))

    def key(name: str, k: BasisKey) -> BasisKey:
        return k[0], layout[name][2][k[0]] + k[1]

    entries = [(key(name, a), key(name, b),
                GradedElement(cx.space, {key(name, k): c for k, c in val.coords.items()}, val.degree))
               for name, D in zip(names, (L, N)) for (a, b), val in D.brackets.items()]
    return make_dgla(cx, entries), layout


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
    product, _layout = direct_sum_dgla(L, N, ("L", "N"))
    diff = difference_chain_map(h, g).map
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

    surj = {i: diff.rank(i) == M.space.dim(i) for i in M.space.degrees()}
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

    # every key of L keeps its index, so d keeps its columns, and d'(δ) = 0
    ncx = ChainComplex(nspace, _map(nspace, nspace, 1, L.d.cols))
    dkey = (1, space.dim(1))
    entries = [(a, b, GradedElement(nspace, val.coords, val.degree)) for (a, b), val in L.brackets.items()]
    entries += [(dkey, (i, q), GradedElement(nspace, _image(L.d, (i, q)), i + 1))
                for i, cs in L.d.cols.items() for q in cs]
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
