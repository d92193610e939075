"""Graded vector spaces, graded maps, chain complexes, cohomology.

Everything lives over the exact rationals inside a finite degree window.
Elements are sparse maps (degree, basis index) -> Fraction; a map keeps each
source degree as its nonzero columns, sparse {row: Fraction} dicts, and gives
dense blocks only as views for the dense row reductions (see linalg).  All
objects are immutable values, except that a map keeps its integer columns once
a series applies it, and a complex its passed d² check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping

from . import linalg as la
from .linalg import EMPTY
from .errors import (
    DegreeMismatch,
    DegreeWindowViolation,
    DifferentialNotSquareZero,
    InvalidInput,
    WindowTooSmall,
)

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True, eq=True)
class GradedSpace:
    """Finite-window graded vector space with labelled basis per degree."""

    dmin: int
    dmax: int
    basis: Mapping[int, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.dmin > self.dmax:
            raise InvalidInput(f"empty degree window [{self.dmin},{self.dmax}]")
        clean: dict[int, tuple[str, ...]] = {}
        seen: dict[str, int] = {}
        for deg, labels in sorted(self.basis.items()):
            labels = tuple(labels)
            if not labels:
                continue
            if not self.dmin <= deg <= self.dmax:
                raise DegreeWindowViolation(
                    f"basis declared at degree {deg} outside window [{self.dmin},{self.dmax}]"
                )
            for lab in labels:
                if lab in seen:
                    raise InvalidInput(f"duplicate basis label {lab!r}")
                seen[lab] = deg
            clean[deg] = labels
        object.__setattr__(self, "basis", clean)
        object.__setattr__(self, "_index", None)  # label -> (degree, index), built on first use

    @property
    def _locate(self) -> dict[str, tuple[int, int]]:
        if self._index is None:
            object.__setattr__(self, "_index", {lab: (deg, idx)
                                                for deg, labels in self.basis.items()
                                                for idx, lab in enumerate(labels)})
        return self._index

    def degrees(self) -> range:
        return range(self.dmin, self.dmax + 1)

    def dim(self, degree: int) -> int:
        return len(self.basis.get(degree, ()))

    def total_dim(self) -> int:
        return sum(len(v) for v in self.basis.values())

    def labels(self, degree: int) -> tuple[str, ...]:
        return self.basis.get(degree, ())

    def label(self, degree: int, index: int) -> str:
        return self.basis[degree][index]

    def locate(self, lab: str) -> tuple[int, int]:
        try:
            return self._locate[lab]
        except KeyError:
            raise InvalidInput(f"unknown basis label {lab!r}") from None

    def has_label(self, lab: str) -> bool:
        return lab in self._locate

    def __eq__(self, other):
        if not isinstance(other, GradedSpace):
            return NotImplemented
        return (self.dmin, self.dmax, self.basis) == (other.dmin, other.dmax, other.basis)

    __hash__ = None


def zero_space() -> GradedSpace:
    return GradedSpace(0, 0, {})


@dataclass(frozen=True, slots=True)
class GradedElement:
    """Sparse element; an optional declared homogeneous degree is enforced."""

    space: GradedSpace
    coords: Mapping[tuple[int, int], Fraction]
    degree: int | None = None

    def __post_init__(self):
        clean = {}
        for key, c in self.coords.items():
            # a basis key: two ints (bool is not one), the index inside its degree
            if type(key) is not tuple or len(key) != 2:
                raise InvalidInput(f"coordinate key {key!r} is not a (degree, index) pair")
            deg, idx = key
            if type(deg) is not int or type(idx) is not int:
                raise InvalidInput(f"coordinate key {key!r} is not a pair of ints")
            if not 0 <= idx < self.space.dim(deg):
                raise InvalidInput(f"coordinate at ({deg},{idx}) outside basis")
            c = la.frac(c)
            if c == 0:
                continue
            if self.degree is not None and deg != self.degree:
                raise DegreeWindowViolation(
                    f"nonzero coordinate at degree {deg} in element declared degree {self.degree}"
                )
            clean[key] = c
        object.__setattr__(self, "coords", clean)

    def is_zero(self) -> bool:
        return not self.coords

    def terms(self) -> Iterable[tuple[int, int, Fraction]]:
        for (deg, idx), c in sorted(self.coords.items()):
            yield deg, idx, c

    def homogeneous_degree(self) -> int | None:
        """Common degree of all nonzero terms (declared degree as fallback)."""
        degs = {deg for (deg, _i) in self.coords}
        if not degs:
            return self.degree
        if len(degs) == 1:
            return next(iter(degs))
        return None

    def component_vector(self, degree: int) -> la.Vector:
        v = la.zero_vector(self.space.dim(degree))
        for (deg, idx), c in self.coords.items():
            if deg == degree:
                v[idx] = c
        return v

    def component(self, degree: int) -> "GradedElement":
        return GradedElement(
            self.space,
            {k: c for k, c in self.coords.items() if k[0] == degree},
            degree,
        )

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if self.space is not other.space and self.space != other.space:
            raise InvalidInput("adding elements of different spaces")
        coords = dict(self.coords)
        for k, c in other.coords.items():
            if k in coords:
                s = coords[k] + c
                if s:
                    coords[k] = s
                else:
                    del coords[k]
            else:
                coords[k] = c
        deg = self.degree if self.degree == other.degree else None
        return _trusted(self.space, coords, deg)

    def __neg__(self) -> "GradedElement":
        return _trusted(self.space, {k: -c for k, c in self.coords.items()}, self.degree)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        return self + (-other)

    def scale(self, c) -> "GradedElement":
        c = la.frac(c)
        return _trusted(self.space, {k: c * v for k, v in self.coords.items()} if c else {},
                        self.degree)

    def __rmul__(self, c) -> "GradedElement":
        return self.scale(c)

    def __eq__(self, other):
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.space == other.space and self.coords == other.coords

    __hash__ = None

    def pretty(self) -> str:
        if not self.coords:
            return "0"
        parts = []
        for deg, idx, c in self.terms():
            lab = self.space.label(deg, idx)
            parts.append(lab if c == 1 else f"{c}*{lab}")
        return " + ".join(parts)


def _trusted(space: GradedSpace, coords: dict[tuple[int, int], Fraction],
             degree: int | None) -> GradedElement:
    """An element from coordinates the library built itself, with none of the
    constructor's checks: every key a basis key of space, in degree when it is
    declared, and every value a nonzero Fraction.  The caller hands over coords."""
    x = object.__new__(GradedElement)
    object.__setattr__(x, "space", space)
    object.__setattr__(x, "coords", coords)
    object.__setattr__(x, "degree", degree)
    return x


def zero_element(space: GradedSpace, degree: int | None = None) -> GradedElement:
    return GradedElement(space, {}, degree)


def basis_element(space: GradedSpace, degree: int, index: int) -> GradedElement:
    return GradedElement(space, {(degree, index): ONE}, degree)


def element_from_labels(space: GradedSpace, coeffs: Mapping[str, object],
                        degree: int | None = None) -> GradedElement:
    coords = {}
    for lab, c in coeffs.items():
        deg, idx = space.locate(lab)
        coords[(deg, idx)] = coords.get((deg, idx), ZERO) + la.frac(c)
    return GradedElement(space, coords, degree)


def element_from_vector(space: GradedSpace, degree: int, vec: la.Vector) -> GradedElement:
    return GradedElement(space, {(degree, i): c for i, c in enumerate(vec)}, degree)


Columns = dict[int, dict[int, dict[int, Fraction]]]  # degree -> column -> {row: value}, zero-free


class GradedMap:
    """Degree-n linear map, stored as its nonzero columns: cols[i][q] is the
    image of basis vector q of source degree i, as {row r: Fraction} over the
    basis of target degree i + n.  Every level is zero-free: absent degrees,
    columns and rows are zero, so equal maps have equal columns.

    The public constructor takes dense blocks, blocks[i] of shape
    (dim_target(i+n), dim_source(i)), and checks them: a nonzero block whose
    target degree falls outside the target window is refused, otherwise the
    map would silently truncate d²=0-style identities.  Maps the library
    builds itself come from _map.  matrix(i) and blocks are dense views, built
    on each read.  A map keeps its integer columns (_int_columns) and its
    solution map (_solution) once used; it is otherwise immutable.
    """

    __slots__ = ("source", "target", "degree", "cols", "_ints", "_solved")

    def __init__(self, source: GradedSpace, target: GradedSpace, degree: int,
                 blocks: Mapping[int, la.Matrix] | None = None):
        cols: Columns = {}
        for i, mat in (blocks or {}).items():
            tdeg = i + degree
            sdim = source.dim(i)
            tdim = target.dim(tdeg)
            if tdim == 0 or sdim == 0:
                if not la.is_zero_matrix(mat):
                    raise DegreeWindowViolation(f"nonzero block from degree {i} into degree "
                                                f"{tdeg} (dimensions {sdim} -> {tdim})")
                continue
            if len(mat) != tdim or any(len(row) != sdim for row in mat):
                raise InvalidInput(f"block at degree {i} has shape {len(mat)}x"
                                   f"{la.num_cols(mat)}, expected {tdim}x{sdim}")
            for r, row in enumerate(mat):
                for q, x in enumerate(row):
                    if x := la.frac(x):
                        cols.setdefault(i, {}).setdefault(q, {})[r] = x
        for name, value in zip(self.__slots__, (source, target, degree, cols, None, None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"GradedMap is immutable: cannot set {name!r}")

    @property
    def blocks(self) -> dict[int, la.Matrix]:
        """The nonzero blocks as dense matrices, built on each read."""
        return {i: self.matrix(i) for i in self.cols}

    def matrix(self, i: int) -> la.Matrix:
        """The dense block at source degree i, built on each read."""
        m = la.zeros(self.target.dim(i + self.degree), self.source.dim(i))
        for q, col in self.cols.get(i, EMPTY).items():
            for r, c in col.items():
                m[r][q] = c
        return m

    def _int_columns(self) -> tuple[int, dict[tuple[int, int], tuple]]:
        """The map as (den, columns): each nonzero column, keyed by its source
        basis key, as one flat tuple (key, n, key, n, …) of integer numerators
        over den, the lcm of the map's denominators.  Built on first use and
        kept on the map, for the series."""
        if self._ints is None:
            den = lcm(*(c.denominator for cs in self.cols.values()
                        for col in cs.values() for c in col.values()))
            object.__setattr__(self, "_ints", (den, {
                (i, q): tuple(t for r, c in col.items()
                              for t in ((i + self.degree, r), c.numerator * (den // c.denominator)))
                for i, cs in self.cols.items() for q, col in cs.items()}))
        return self._ints

    def _apply_ints(self, x: tuple[int, dict]) -> tuple[int, dict]:
        """The map applied to a (den, integer numerators) pair, as one."""
        (df, cols), (dx, xs) = self._int_columns(), x
        out: dict[tuple[int, int], int] = {}
        for k, c in xs.items():
            it = iter(cols.get(k, ()))
            for t, n in zip(it, it):
                out[t] = out.get(t, 0) + c * n
        return df * dx, {k: n for k, n in out.items() if n}

    def _solution(self) -> "GradedMap":
        """b ↦ w with f w = b and every free unknown 0 (as la.solve) for each b
        in the image of f at source degree 1, read off the reduced rows of
        [f_1 | 1] in one Echelon; built on first use and kept on the map f."""
        if self._solved is None:
            span, cols, d1 = la.Echelon(), {}, self.cols.get(1, EMPTY).items()
            for r in range(self.target.dim(1 + self.degree)):
                span.add({(1, r): ONE, **{(0, q): col[r] for q, col in d1 if r in col}})
            for (part, p), (den, row) in span.rows.items():
                for (t, r), n in row.items():
                    if part < t:
                        cols.setdefault(r, {})[p] = Fraction(n, den)
            object.__setattr__(self, "_solved", _map(
                self.target, self.source, -self.degree, {1 + self.degree: cols} if cols else {}))
        return self._solved

    def apply(self, x: GradedElement) -> GradedElement:
        if x.space is not self.source and x.space != self.source:
            raise InvalidInput("element does not live in the map's source")
        coords: dict[tuple[int, int], Fraction] = {}
        for (deg, idx), c in x.coords.items():
            col = self.cols.get(deg, EMPTY).get(idx)
            if col is None:
                continue
            tdeg = deg + self.degree
            for r, v in col.items():
                key = (tdeg, r)
                coords[key] = coords[key] + c * v if key in coords else c * v
        deg = None if x.degree is None else x.degree + self.degree
        # a column's rows are the basis of its target degree, inside the window
        return _trusted(self.target, {k: v for k, v in coords.items() if v}, deg)

    def compose(self, inner: "GradedMap") -> "GradedMap":
        """self ∘ inner."""
        if inner.target != self.source:
            raise InvalidInput("composition shape mismatch")
        cols: Columns = {}
        for i, icols in inner.cols.items():
            outer = self.cols.get(i + inner.degree, EMPTY)
            for q, col in icols.items():
                acc = cols.setdefault(i, {}).setdefault(q, {})
                for r, c in col.items():
                    la.add_scaled(acc, c, outer.get(r, EMPTY))
        return _map(inner.source, self.target, inner.degree + self.degree, _nonzero(cols))

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            raise InvalidInput("adding incompatible maps")
        s, t = whole(self.source), whole(self.target)
        return place_blocks(self.source, self.target, self.degree, [(1, self, s, t), (1, other, s, t)])

    def __neg__(self) -> "GradedMap":
        return self.scale(-1)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self + (-other)

    def scale(self, c) -> "GradedMap":
        c = la.frac(c)
        cols = {i: {q: {r: c * v for r, v in col.items()} for q, col in cs.items()}
                for i, cs in self.cols.items()} if c else {}
        return _map(self.source, self.target, self.degree, cols)

    def is_zero(self) -> bool:
        return not self.cols

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return ((self.source, self.target, self.degree, self.cols)
                == (other.source, other.target, other.degree, other.cols))

    __hash__ = None

    def kernel_dim(self, i: int) -> int:
        return self.source.dim(i) - self.rank(i)

    def rank(self, i: int) -> int:
        """The rank of the block at source degree i, from its columns."""
        return la.sparse_rank(self.cols.get(i, EMPTY).values())


def _map(source: GradedSpace, target: GradedSpace, degree: int, cols: Columns) -> GradedMap:
    """A map from columns the library built itself, with none of the
    constructor's checks: every column and row an index of its degree, every
    level zero-free.  The caller hands over cols."""
    f = GradedMap(source, target, degree)
    object.__setattr__(f, "cols", cols)
    return f


def _nonzero(cols: Columns) -> Columns:
    """cols with its zero entries, empty columns and empty degrees dropped."""
    out: Columns = {}
    for i, cs in cols.items():
        kept = {q: nz for q, col in cs.items() if (nz := {r: c for r, c in col.items() if c})}
        if kept:
            out[i] = kept
    return out


def zero_map(source: GradedSpace, target: GradedSpace, degree: int) -> GradedMap:
    return _map(source, target, degree, {})


def map_from_images(source: GradedSpace, target: GradedSpace, degree: int,
                    images: Mapping[tuple[int, int], GradedElement]) -> GradedMap:
    """Build a GradedMap from images of (some) source basis keys (degree, index).
    A key that is no basis key of source, or an image that is no element of
    target, raises InvalidInput; a term outside degree + the key's degree
    raises DegreeWindowViolation."""
    cols: Columns = {}
    for key, img in images.items():
        if (type(key) is not tuple or len(key) != 2 or not all(type(k) is int for k in key)
                or not 0 <= key[1] < source.dim(key[0])):
            raise InvalidInput(f"image key {key!r} is not a basis key of the source")
        if not isinstance(img, GradedElement) or (img.space is not target and img.space != target):
            raise InvalidInput(f"image of {source.label(*key)!r} is not an element of the target")
        col = {}
        for (d, r), c in img.coords.items():
            if d != key[0] + degree:
                raise DegreeWindowViolation(f"image of {source.label(*key)!r} has a term at "
                                            f"degree {d}, expected {key[0] + degree}")
            col[r] = c
        if col:
            cols.setdefault(key[0], {})[key[1]] = col
    return _map(source, target, degree, cols)


def map_from_basis_images(source: GradedSpace, target: GradedSpace, degree: int,
                          images: Mapping[str, GradedElement]) -> GradedMap:
    """Build a GradedMap from images of (some) source basis labels."""
    return map_from_images(source, target, degree,
                           {source.locate(lab): img for lab, img in images.items()})


def identity_map(space: GradedSpace) -> GradedMap:
    return _map(space, space, 0, {i: {q: {q: ONE} for q in range(len(labels))}
                                  for i, labels in space.basis.items()})


@dataclass(frozen=True)
class ChainComplex:
    """Graded space with a degree +1 differential."""

    space: GradedSpace
    d: GradedMap

    def __post_init__(self):
        if self.d.source != self.space or self.d.target != self.space:
            raise InvalidInput("differential must be an endomap of the space")
        if self.d.degree != 1:
            raise DegreeWindowViolation(f"differential has degree {self.d.degree}, expected 1")
        object.__setattr__(self, "_d_squared_zero", False)  # see require_d_squared_zero

    def d_squared_witnesses(self) -> list[str]:
        """Labels of basis vectors on which d(d(e)) is nonzero."""
        dd = self.d.compose(self.d).cols
        return [self.space.label(i, q) for i in sorted(dd) for q in sorted(dd[i])]

    def require_d_squared_zero(self) -> None:
        """Raise DifferentialNotSquareZero unless d∘d = 0.  A success is kept on
        the complex, which is immutable, so each complex is checked once; a
        failing complex raises on every call."""
        if self._d_squared_zero:
            return
        bad = self.d_squared_witnesses()
        if bad:
            raise DifferentialNotSquareZero(f"d²≠0 on basis vectors {bad}")
        object.__setattr__(self, "_d_squared_zero", True)

    def __eq__(self, other):
        if not isinstance(other, ChainComplex):
            return NotImplemented
        return self.space == other.space and self.d == other.d

    __hash__ = None


def zero_complex() -> ChainComplex:
    s = zero_space()
    return ChainComplex(s, zero_map(s, s, 1))


@dataclass(frozen=True)
class CohomologyResult:
    """Dimensions, representative cycles, and class-projection matrices.

    For each degree i, ``projections[i]`` is a dim H^i x dim V^i matrix P
    with P·(boundary) = 0 and P·(representative_j) = e_j, so P sends any
    cycle's coordinates to its class coordinates.

    The result covers the degrees of ``dims``: every degree of the window
    unless compute_cohomology was asked for some degrees only.  Accessors
    raise InvalidInput at a window degree it does not cover; degrees outside
    the window read 0.
    """

    complex: ChainComplex
    dims: Mapping[int, int]
    representatives: Mapping[int, tuple[GradedElement, ...]]
    projections: Mapping[int, la.Matrix]

    def _require(self, degree: int) -> None:
        space = self.complex.space
        if degree not in self.dims and space.dmin <= degree <= space.dmax:
            raise InvalidInput(f"cohomology was computed in degrees {sorted(self.dims)} "
                               f"only, not in degree {degree}")

    def dim(self, degree: int) -> int:
        self._require(degree)
        return self.dims.get(degree, 0)

    def total_dim(self) -> int:
        for i in self.complex.space.degrees():
            self._require(i)
        return sum(self.dims.values())

    def project_vector(self, degree: int, vec: la.Vector) -> la.Vector:
        self._require(degree)
        if degree not in self.projections:
            return []
        return la.mat_vec(self.projections[degree], vec)

    def class_of(self, x: GradedElement, degree: int | None = None) -> la.Vector:
        """Class coordinates of a homogeneous cycle."""
        if degree is None:
            degree = x.homogeneous_degree()
            if degree is None:
                raise DegreeMismatch(f"element is not homogeneous: {x.coords}")
        return self.project_vector(degree, x.component_vector(degree))

    def representative(self, degree: int, j: int) -> GradedElement:
        self._require(degree)
        return self.representatives[degree][j]


def compute_cohomology(complex: ChainComplex,
                       degrees: Iterable[int] | None = None) -> CohomologyResult:
    """Exact cohomology of a validated complex, degree by degree.

    With degrees, only those degrees of the window are computed, each exactly
    as in the full result; d² = 0 is still required on the whole complex
    (checked once per complex object, see require_d_squared_zero).  Nothing
    is cached: every call row-reduces again.

    Representatives are chosen deterministically from the row-reduced kernel
    basis: kernel vectors are scanned in free-column order and kept whenever
    they add a dimension beyond the boundary span.
    """
    complex.require_d_squared_zero()
    space = complex.space
    wanted = space.degrees() if degrees is None else set(degrees)
    dims: dict[int, int] = {}
    reps: dict[int, tuple[GradedElement, ...]] = {}
    projs: dict[int, la.Matrix] = {}
    for i in space.degrees():
        if i in wanted:
            dims[i], reps[i], projs[i] = _cohomology_at(complex, i)
    return CohomologyResult(complex, dims, reps, projs)


def cohomology_dims(complex: ChainComplex,
                    degrees: Iterable[int] | None = None) -> dict[int, int]:
    """compute_cohomology(complex, degrees).dims from ranks alone:
    dim H^i = dim V^i − rank d_i − rank d_{i−1}, each rank taken once."""
    complex.require_d_squared_zero()
    space = complex.space
    wanted = space.degrees() if degrees is None else set(degrees)
    covered = [i for i in space.degrees() if i in wanted]
    ranks = {i: complex.d.rank(i) for i in {j for i in covered for j in (i - 1, i)}}
    return {i: space.dim(i) - ranks[i] - ranks[i - 1] for i in covered}


def _cohomology_at(complex: ChainComplex, i: int) -> tuple[
        int, tuple[GradedElement, ...], la.Matrix]:
    """dim H^i, its representatives and its projection matrix."""
    space = complex.space
    n = space.dim(i)
    if n == 0:
        return 0, (), []
    d_i = complex.d.matrix(i)
    d_prev = complex.d.matrix(i - 1)
    kernel = la.nullspace(d_i, cols=n)
    boundary_basis = la.column_space_basis(d_prev) if space.dim(i - 1) else []
    h_dim = len(kernel) - len(boundary_basis)
    chosen = [kernel[k] for k in la.extend_basis(boundary_basis, kernel, n)]
    if len(chosen) != h_dim:
        raise InvalidInput("internal: representative selection failed")

    # Complete [boundaries | representatives] to a basis of V^i with
    # standard basis vectors; the projection is the representative rows
    # of the inverse basis matrix.
    nb = len(boundary_basis)
    _units, f_inv = la.complete_and_invert(boundary_basis + chosen, n)
    return h_dim, tuple(element_from_vector(space, i, v) for v in chosen), f_inv[nb:nb + h_dim]


def shift(complex: ChainComplex, n: int) -> ChainComplex:
    """Shifted complex V[n]: V[n]^i = V^{i+n}, differential (−1)^n d."""
    if n == 0:
        return complex
    space = complex.space
    new_space = GradedSpace(
        space.dmin - n, space.dmax - n,
        {deg - n: labels for deg, labels in space.basis.items()},
    )
    cols = complex.d.cols if n % 2 == 0 else complex.d.scale(-1).cols
    return ChainComplex(new_space, _map(new_space, new_space, 1,
                                        {i - n: cs for i, cs in cols.items()}))


def hom_basis(sv: GradedSpace, sw: GradedSpace, n: int) -> list[tuple[int, int, int]]:
    """The basis of Hom^n(V, W) in order: elementary maps (i, p, q) sending
    basis vector p of V^i to basis vector q of W^{i+n}."""
    return [(i, p, q) for i in sv.degrees() for p in range(sv.dim(i)) for q in range(sw.dim(i + n))]


def hom_complex(V: ChainComplex, W: ChainComplex,
                window: tuple[int, int] | None = None) -> ChainComplex:
    """Hom^*(V, W) with differential d'(f) = d_W f − (−1)^{deg f} f d_V.

    The basis of Hom^n is hom_basis(V, W, n), labelled "v>w".  With no
    window the full natural window is used; an explicit window that clips a
    nonzero d' entry raises DegreeWindowViolation, and one holding no nonzero
    Hom^n at all raises WindowTooSmall.
    """
    sv, sw = V.space, W.space
    nat_min = sw.dmin - sv.dmax
    nat_max = sw.dmax - sv.dmin
    if window is None:
        window = (nat_min, nat_max)
    wmin, wmax = window
    if wmin > wmax:
        raise WindowTooSmall(f"empty Hom window [{wmin},{wmax}]")

    def label(n: int, i: int, p: int, q: int) -> str:
        return f"{sv.label(i, p)}>{sw.label(i + n, q)}"

    elems = {n: hom_basis(sv, sw, n) for n in range(wmin, wmax + 1)}
    basis = {n: tuple(label(n, *e) for e in es) for n, es in elems.items()}
    if not any(basis.values()):
        raise WindowTooSmall(f"window [{wmin},{wmax}] holds no nonzero Hom^n")
    hspace = GradedSpace(wmin, wmax, basis)

    dv_rows: dict[int, dict[int, dict[int, Fraction]]] = {}  # degree -> row p of d_V -> {s: c}
    for i, cs in V.d.cols.items():
        for s, col in cs.items():
            for p, c in col.items():
                dv_rows.setdefault(i, {}).setdefault(p, {})[s] = c
    cols: Columns = {}
    for n in hspace.degrees():
        rows = {e: r for r, e in enumerate(elems.get(n + 1, ()))}
        for k, (i, p, q) in enumerate(elems[n]):
            # d_W ∘ E hits (i,p) -> (i+n+1, r); (−1)^n E ∘ d_V hits (i−1, s) -> (i+n, q)
            dw = W.d.cols.get(i + n, EMPTY).get(q, EMPTY)
            dv = dv_rows.get(i - 1, EMPTY).get(p, EMPTY)
            if not (dw or dv):
                continue
            if n + 1 > wmax:
                e = (i, p, min(dw)) if dw else (i - 1, min(dv), q)
                raise DegreeWindowViolation(f"d'({label(n, i, p, q)}) needs Hom^{n+1} "
                                            f"entry {label(n + 1, *e)} outside window")
            col = {rows[(i, p, r)]: c for r, c in dw.items()}
            col.update((rows[(i - 1, s, q)], c if n % 2 else -c) for s, c in dv.items())
            cols.setdefault(n, {})[k] = col
    return ChainComplex(hspace, _map(hspace, hspace, 1, cols))


def htp_complex(V: ChainComplex, W: ChainComplex,
                window: tuple[int, int] | None = None) -> ChainComplex:
    """Htp(V, W) = Hom^*(V[1], W), obtained by composing with the shift."""
    return hom_complex(shift(V, 1), W, window)


def graded_map_to_hom_element(f: GradedMap, hom: ChainComplex) -> GradedElement:
    """Coordinates of a graded map inside the basis of Hom^*(f.source, f.target)."""
    n = f.degree
    index = {e: k for k, e in enumerate(hom_basis(f.source, f.target, n))}
    coords = {(n, index[(i, p, q)]): c for i, cs in f.cols.items()
              for p, col in cs.items() for q, c in col.items()}
    if coords and hom.space.dim(n) != len(index):
        raise InvalidInput(f"Hom^{n} is outside the window of the Hom complex")
    return GradedElement(hom.space, coords, n)


def induced_cohomology_matrix(f: GradedMap, H_src: CohomologyResult,
                              H_tgt: CohomologyResult, degree: int) -> la.Matrix:
    """Matrix of the map induced in cohomology at one degree.

    f must be a chain map of degree n; column j is the class of f applied to
    the j-th source representative, in target-class coordinates at
    degree + n.
    """
    cols = []
    for j in range(H_src.dim(degree)):
        img = f.apply(H_src.representative(degree, j))
        cols.append(H_tgt.project_vector(degree + f.degree,
                                         img.component_vector(degree + f.degree)))
    return la.from_columns(cols, H_tgt.dim(degree + f.degree))


Part = tuple[GradedSpace, int, Mapping[int, int]]  # (space, offset, starts), see block_sum


def block_sum(parts: Iterable[tuple[str, GradedSpace, int]]) -> tuple[GradedSpace, dict[str, Part]]:
    """Labelled direct sum of (name, space, offset) parts, and its layout.

    A part contributes space^{i−offset} to degree i, labelled "name:label";
    within a degree the parts follow the given order.  The layout sends each
    name to (space, offset, starts): degree j of the part begins at index
    starts[j] of degree j + offset.  A repeated name raises InvalidInput.
    """
    labels: dict[int, list[str]] = {}
    layout: dict[str, Part] = {}
    for name, space, off in parts:
        if name in layout:
            raise InvalidInput(f"repeated part name {name!r} in a direct sum")
        starts = {}
        for j, own in space.basis.items():
            column = labels.setdefault(j + off, [])
            starts[j] = len(column)
            # interned: sums are rebuilt often with the same labels, and kept results share them
            column.extend(sys.intern(f"{name}:{l}") for l in own)
        layout[name] = (space, off, starts)
    if not labels:  # all parts empty: keep a legal empty window
        return zero_space(), layout
    dmin = min(s.dmin + off for s, off, _s in layout.values())
    dmax = max(s.dmax + off for s, off, _s in layout.values())
    return GradedSpace(dmin, dmax, labels), layout


def whole(space: GradedSpace) -> Part:
    """space as the one part of itself, for place_blocks."""
    return space, 0, {j: 0 for j in space.basis}


def place_blocks(source: GradedSpace, target: GradedSpace, degree: int,
                 terms: Iterable[tuple[int, GradedMap, Part, Part]]) -> GradedMap:
    """Σ sign · embed_t ∘ f ∘ project_s over the terms (sign, f, s, t), s and t
    block_sum layout parts of source and target: each block of f is written,
    times its sign ±1, at the parts' offsets, with no embedding or projection
    built."""
    cols: Columns = {}
    for sign, f, (s_space, s_off, s_starts), (t_space, t_off, t_starts) in terms:
        if f.source != s_space or f.target != t_space or f.degree + t_off - s_off != degree:
            raise InvalidInput("map does not fit its blocks")
        for j, cs in f.cols.items():
            out = cols.setdefault(j + s_off, {})
            r0, c0 = t_starts[j + f.degree], s_starts[j]
            for q, col in cs.items():
                acc = out.setdefault(c0 + q, {})
                for r, v in col.items():
                    k, v = r0 + r, v if sign > 0 else -v
                    acc[k] = acc[k] + v if k in acc else v
    return _map(source, target, degree, _nonzero(cols))


def direct_sum(parts: Iterable[tuple[str, ChainComplex]]) -> tuple[ChainComplex, dict[str, Part]]:
    """Labelled direct sum of complexes with the blockwise differential, and
    its block_sum layout."""
    parts = list(parts)
    space, layout = block_sum((name, cx.space, 0) for name, cx in parts)
    d = place_blocks(space, space, 1, [(1, cx.d, layout[n], layout[n]) for n, cx in parts])
    return ChainComplex(space, d), layout


def kernel_subcomplex(ambient: ChainComplex, constraints: list[GradedMap], tag: str) -> tuple[
        ChainComplex, GradedMap, Callable[[GradedElement], GradedElement]]:
    """The subcomplex of ambient killed by every degree-0 constraint map.

    Degree i gets the nullspace basis of the stacked constraint matrices,
    labelled "{tag}{i}_{k}".  Returns the subcomplex, its embedding, and
    restrict: the exact inverse of the embedding on its image, raising
    InvalidInput on any element outside it (so also if the kernel is not
    d-closed).
    """
    space = ambient.space
    basis, kernels = {}, {}
    for i in space.degrees():
        if space.dim(i) == 0:
            continue
        ker = la.nullspace([row for c in constraints for row in c.matrix(i)], cols=space.dim(i))
        if ker:
            # interned as in block_sum
            basis[i] = tuple(sys.intern(f"{tag}{i}_{k}") for k in range(len(ker)))
            kernels[i] = ker
    sub = GradedSpace(space.dmin, space.dmax, basis) if basis else zero_space()
    embed = _map(sub, space, 0, {i: {k: {r: c for r, c in enumerate(v) if c}
                                     for k, v in enumerate(ker)} for i, ker in kernels.items()})

    def restrict(x: GradedElement) -> GradedElement:
        coords = {}
        for deg in sorted({d for d, _i in x.coords}):
            sol = la.in_span(kernels.get(deg, []), x.component_vector(deg))
            if sol is None:
                raise InvalidInput(f"element leaves the {tag} subcomplex")
            coords.update(((deg, k), c) for k, c in enumerate(sol))
        return GradedElement(sub, coords, x.degree)

    d = map_from_images(sub, sub, 1, {(i, k): restrict(ambient.d.apply(embed.apply(
        basis_element(sub, i, k)))) for i in kernels for k in range(sub.dim(i))})
    return ChainComplex(sub, d), embed, restrict
