"""Graded vector spaces, graded maps, chain complexes, cohomology.

Everything lives over the exact rationals inside a finite degree window.
Degree blocks are dense matrices (see linalg); elements are sparse maps
(degree, basis index) -> Fraction.  All objects are immutable values.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from . import linalg as la
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


@dataclass(frozen=True)
class GradedMap:
    """Degree-n linear map given by one matrix per populated source degree.

    blocks[i] has shape (dim_target(i+n), dim_source(i)); absent blocks are
    zero.  A block whose target degree falls outside the target window must
    be zero, otherwise the map silently truncates d²=0-style identities.
    """

    source: GradedSpace
    target: GradedSpace
    degree: int
    blocks: Mapping[int, la.Matrix] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for i, mat in self.blocks.items():
            tdeg = i + self.degree
            sdim = self.source.dim(i)
            tdim = self.target.dim(tdeg)
            if tdim == 0 or sdim == 0:
                if not la.is_zero_matrix(mat):
                    raise DegreeWindowViolation(
                        f"nonzero block from degree {i} into degree {tdeg} "
                        f"(dimensions {sdim} -> {tdim})"
                    )
                continue
            if len(mat) != tdim or any(len(row) != sdim for row in mat):
                raise InvalidInput(
                    f"block at degree {i} has shape {len(mat)}x{la.num_cols(mat)}, "
                    f"expected {tdim}x{sdim}"
                )
            if not la.is_zero_matrix(mat):
                clean[i] = [ [la.frac(x) for x in row] for row in mat ]
        object.__setattr__(self, "blocks", clean)

    def matrix(self, i: int) -> la.Matrix:
        if i in self.blocks:
            return la.mat_copy(self.blocks[i])
        return la.zeros(self.target.dim(i + self.degree), self.source.dim(i))

    def apply(self, x: GradedElement) -> GradedElement:
        if x.space is not self.source and x.space != self.source:
            raise InvalidInput("element does not live in the map's source")
        coords: dict[tuple[int, int], Fraction] = {}
        for (deg, idx), c in x.coords.items():
            block = self.blocks.get(deg)
            if block is None:
                continue
            tdeg = deg + self.degree
            for r, row in enumerate(block):
                v = row[idx]
                if v:
                    key = (tdeg, r)
                    coords[key] = coords[key] + c * v if key in coords else c * v
        deg = None if x.degree is None else x.degree + self.degree
        # a block's rows are the basis of its target degree, inside the window
        return _trusted(self.target, {k: v for k, v in coords.items() if v}, deg)

    def compose(self, inner: "GradedMap") -> "GradedMap":
        """self ∘ inner."""
        if inner.target != self.source:
            raise InvalidInput("composition shape mismatch")
        blocks = {}
        for i in inner.source.degrees():
            mid = i + inner.degree
            tdeg = mid + self.degree
            if inner.source.dim(i) == 0 or self.target.dim(tdeg) == 0:
                continue
            b = la.mat_mul(self.matrix(mid), inner.matrix(i))
            if not la.is_zero_matrix(b):
                blocks[i] = b
        return GradedMap(inner.source, self.target, inner.degree + self.degree, blocks)

    def __add__(self, other: "GradedMap") -> "GradedMap":
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            raise InvalidInput("adding incompatible maps")
        blocks = {}
        for i in set(self.blocks) | set(other.blocks):
            blocks[i] = la.mat_add(self.matrix(i), other.matrix(i))
        return GradedMap(self.source, self.target, self.degree, blocks)

    def __neg__(self) -> "GradedMap":
        return self.scale(-1)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return self + (-other)

    def scale(self, c) -> "GradedMap":
        c = la.frac(c)
        return GradedMap(
            self.source, self.target, self.degree,
            {i: la.mat_scale(c, m) for i, m in self.blocks.items()},
        )

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            return False
        return self.blocks == other.blocks

    __hash__ = None

    def kernel_dim(self, i: int) -> int:
        return self.source.dim(i) - la.rank(self.matrix(i))

    def rank(self, i: int) -> int:
        return la.rank(self.matrix(i))


def zero_map(source: GradedSpace, target: GradedSpace, degree: int) -> GradedMap:
    return GradedMap(source, target, degree, {})


def map_from_images(source: GradedSpace, target: GradedSpace, degree: int,
                    images: Mapping[tuple[int, int], GradedElement]) -> GradedMap:
    """Build a GradedMap from images of (some) source basis keys (degree, index)."""
    blocks: dict[int, la.Matrix] = {}
    for (sdeg, sidx), img in images.items():
        tdeg = sdeg + degree
        for (d, r), c in img.coords.items():
            if d != tdeg:
                raise DegreeWindowViolation(
                    f"image of {source.label(sdeg, sidx)!r} has a term at degree {d}, "
                    f"expected {tdeg}")
            block = blocks.setdefault(sdeg, la.zeros(target.dim(tdeg), source.dim(sdeg)))
            block[r][sidx] += c
    return GradedMap(source, target, degree, blocks)


def map_from_basis_images(source: GradedSpace, target: GradedSpace, degree: int,
                          images: Mapping[str, GradedElement]) -> GradedMap:
    """Build a GradedMap from images of (some) source basis labels."""
    return map_from_images(source, target, degree,
                           {source.locate(lab): img for lab, img in images.items()})


def identity_map(space: GradedSpace) -> GradedMap:
    blocks = {i: la.identity(space.dim(i)) for i in space.degrees() if space.dim(i)}
    return GradedMap(space, space, 0, blocks)


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
        bad = []
        dd = self.d.compose(self.d)
        for i, block in dd.blocks.items():
            for col in range(la.num_cols(block)):
                if any(row[col] != 0 for row in block):
                    bad.append(self.space.label(i, col))
        return bad

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
    space, blocks = complex.space, complex.d.blocks
    wanted = space.degrees() if degrees is None else set(degrees)
    covered = [i for i in space.degrees() if i in wanted]
    ranks = {i: la.rank(blocks[i]) if i in blocks else 0
             for i in {j for i in covered for j in (i - 1, i)}}
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
    sign = ONE if n % 2 == 0 else -ONE
    blocks = {}
    for i, mat in complex.d.blocks.items():
        blocks[i - n] = la.mat_scale(sign, mat)
    return ChainComplex(new_space, GradedMap(new_space, new_space, 1, blocks))


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

    blocks = {}
    for n in hspace.degrees():
        sign = ONE if n % 2 == 0 else -ONE
        rows = {e: r for r, e in enumerate(elems.get(n + 1, ()))}
        block = la.zeros(hspace.dim(n + 1), hspace.dim(n))
        for col, (i, p, q) in enumerate(elems[n]):
            dw, dv = W.d.matrix(i + n), V.d.matrix(i - 1)
            # d_W ∘ E hits (i,p) -> (i+n+1, r); (−1)^n E ∘ d_V hits (i−1, s) -> (i+n, q)
            terms = ([((i, p, r), dw[r][q]) for r in range(sw.dim(i + n + 1))]
                     + [((i - 1, s, q), -sign * dv[p][s]) for s in range(sv.dim(i - 1))])
            for e, c in terms:
                if c == 0:
                    continue
                if n + 1 > wmax:
                    raise DegreeWindowViolation(f"d'({label(n, i, p, q)}) needs Hom^{n+1} "
                                                f"entry {label(n + 1, *e)} outside window")
                block[rows[e]][col] += c
        blocks[n] = block
    return ChainComplex(hspace, GradedMap(hspace, hspace, 1, blocks))


def htp_complex(V: ChainComplex, W: ChainComplex,
                window: tuple[int, int] | None = None) -> ChainComplex:
    """Htp(V, W) = Hom^*(V[1], W), obtained by composing with the shift."""
    return hom_complex(shift(V, 1), W, window)


def graded_map_to_hom_element(f: GradedMap, hom: ChainComplex) -> GradedElement:
    """Coordinates of a graded map inside the basis of Hom^*(f.source, f.target)."""
    n = f.degree
    index = {e: k for k, e in enumerate(hom_basis(f.source, f.target, n))}
    coords = {(n, index[(i, p, q)]): c for i, block in f.blocks.items()
              for q, row in enumerate(block) for p, c in enumerate(row) if c != 0}
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
    blocks: dict[int, la.Matrix] = {}
    for sign, f, (s_space, s_off, s_starts), (t_space, t_off, t_starts) in terms:
        if f.source != s_space or f.target != t_space or f.degree + t_off - s_off != degree:
            raise InvalidInput("map does not fit its blocks")
        for j, block in f.blocks.items():
            i = j + s_off
            if i not in blocks:
                blocks[i] = la.zeros(target.dim(i + degree), source.dim(i))
            r0, c0 = t_starts[j + f.degree], s_starts[j]
            for r, row in enumerate(block):
                out = blocks[i][r0 + r]
                for c, v in enumerate(row):
                    if v:
                        out[c0 + c] += v if sign > 0 else -v
    return GradedMap(source, target, degree, blocks)


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
    basis, cols = {}, {}
    for i in space.degrees():
        if space.dim(i) == 0:
            continue
        ker = la.nullspace([row for c in constraints for row in c.matrix(i)], cols=space.dim(i))
        if ker:
            # interned as in block_sum
            basis[i] = tuple(sys.intern(f"{tag}{i}_{k}") for k in range(len(ker)))
            cols[i] = ker
    sub = GradedSpace(space.dmin, space.dmax, basis) if basis else zero_space()
    embed = GradedMap(sub, space, 0, {i: la.from_columns(ker, space.dim(i))
                                      for i, ker in cols.items()})

    def restrict(x: GradedElement) -> GradedElement:
        coords = {}
        for deg in sorted({d for d, _i in x.coords}):
            sol = la.in_span(cols.get(deg, []), x.component_vector(deg))
            if sol is None:
                raise InvalidInput(f"element leaves the {tag} subcomplex")
            coords.update(((deg, k), c) for k, c in enumerate(sol))
        return GradedElement(sub, coords, x.degree)

    blocks = {}
    for i in cols:
        images = [restrict(ambient.d.apply(embed.apply(basis_element(sub, i, k))))
                  for k in range(sub.dim(i))]
        blocks[i] = [[img.coords.get((i + 1, r), ZERO) for img in images]
                     for r in range(sub.dim(i + 1))]
    return ChainComplex(sub, GradedMap(sub, sub, 1, blocks)), embed, restrict
