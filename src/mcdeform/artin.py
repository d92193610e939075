"""Coefficient algebras and the tensor DGLA L ⊗ m_A.

Only the maximal ideal is ever represented: an ArtinLocalAlgebra is a basis
of m_A with a multiplication table, a DgNilpotentAlgebra is a graded
nilpotent dg algebra (finite-dimensional, used as the coefficient ring of
the extended functors).  Filtration levels certify nilpotency and power the
termination of every gauge/BCH series downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Mapping

from . import linalg as la
from .dgla import Dgla, Violation, make_dgla
from .errors import InvalidInput
from .graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    GradedSpace,
    basis_element,
    element_from_labels,
    map_from_images,
)

ZERO = Fraction(0)
ONE = Fraction(1)

Coeffs = dict[int, Fraction]  # sparse vector over the algebra basis


def _clean(vec: Mapping[int, object]) -> Coeffs:
    out = {}
    for i, c in vec.items():
        c = la.frac(c)
        if c != 0:
            out[i] = c
    return out


def _power_spans(dim: int, product) -> list[list[la.Vector]] | None:
    """Bases of m, m², … up to the last nonzero power, by breadth-first
    products, or None when the power chain stabilizes nonzero.

    product(i, vec) multiplies basis element i with a sparse vector.
    """
    if dim == 0:
        return []
    spans: list[list[la.Vector]] = [[la.unit_vector(dim, i) for i in range(dim)]]
    for _step in range(dim + 1):
        nxt = [[prod.get(k, ZERO) for k in range(dim)]
               for i in range(dim) for v in spans[-1]
               if (prod := product(i, {k: c for k, c in enumerate(v) if c != 0}))]
        basis = [nxt[k] for k in la.extend_basis([], nxt, dim)]
        if not basis:
            return spans
        # every kept span is independent, so its length is its dimension
        if len(basis) == len(spans[-1]):
            return None
        spans.append(basis)
    return None


def _filtration(dim: int, product) -> tuple[tuple[int, ...] | None, int | None]:
    """Levels and nilpotency index, or (None, None) when not nilpotent."""
    spans = _power_spans(dim, product)
    if spans is None:
        return None, None
    # e_i lies in m^{k+1} exactly when i is a pivot of the rref of spans[k]
    # whose row is e_i; the spans shrink, so the last k that holds e_i wins
    levels = [1] * dim
    for k in range(1, len(spans)):
        rows, pivots = la.rref(spans[k])
        for r, i in enumerate(pivots):
            if rows[r] == la.unit_vector(dim, i):
                levels[i] = k + 1
    return tuple(levels), len(spans) + 1


class _Coefficients:
    """The labels and power filtration both coefficient-algebra types share."""

    @property
    def dim(self) -> int:
        return len(self.labels)

    def locate(self, lab: str) -> int:
        try:
            return self.labels.index(lab)
        except ValueError:
            raise InvalidInput(f"unknown coefficient label {lab!r}") from None

    @cached_property
    def adapted_basis(self) -> tuple[la.Matrix | None, la.Matrix | None, tuple[int, ...]]:
        """A basis of m adapted to its power filtration: every m^k is spanned
        by the basis vectors of level ≥ k.  (P, Q, levels) holds the basis as
        the columns of P in this basis, Q = P⁻¹, and levels[j] the level of
        column j; P = Q = None when this basis is adapted (levels = self.levels).
        """
        spans = _power_spans(self.dim, self.product_basis)
        if spans is None:
            raise InvalidInput("coefficient algebra is not nilpotent")
        if all(sum(lvl > k for lvl in self.levels) == len(span)
               for k, span in enumerate(spans)):
            return None, None, self.levels
        basis, levels = [], []
        for k in reversed(range(len(spans))):
            new = la.extend_basis(basis, spans[k], self.dim)
            basis += [spans[k][i] for i in new]
            levels += [k + 1] * len(new)
        P = la.from_columns(basis, self.dim)
        return P, la.inverse(P), tuple(levels)

    def _set_filtration(self) -> None:
        if self.levels is None:
            levels, nu = _filtration(self.dim, self.product_basis)
            object.__setattr__(self, "levels", levels)
            object.__setattr__(self, "nu", nu)


@dataclass(frozen=True)
class ArtinLocalAlgebra(_Coefficients):
    """Maximal ideal m_A of a local Artinian algebra, by multiplication table.

    table holds canonical pairs i <= j only; commutativity supplies the rest.
    levels[i] is the largest n with basis_i ∈ m_A^n; nu is the least n with
    m_A^n = 0 (None when the table is not nilpotent — validate_artin reports).
    """

    labels: tuple[str, ...]
    table: Mapping[tuple[int, int], Coeffs] = field(default_factory=dict)
    levels: tuple[int, ...] | None = None
    nu: int | None = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInput("duplicate coefficient labels")
        clean = {}
        for (i, j), vec in self.table.items():
            if j < i:
                raise InvalidInput(f"non-canonical table key {(i, j)}")
            if not 0 <= i < self.dim or not 0 <= j < self.dim:
                raise InvalidInput(f"table key {(i, j)} outside basis")
            v = _clean(vec)
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "table", clean)
        self._set_filtration()

    def degree_of(self, i: int) -> int:
        return 0

    def d_of(self, i: int) -> Coeffs:
        return {}

    def product_basis(self, i: int, vec: Coeffs) -> Coeffs:
        out: Coeffs = {}
        for j, c in vec.items():
            entry = self.table.get((i, j) if i <= j else (j, i))
            if not entry:
                continue
            for k, e in entry.items():
                out[k] = out.get(k, ZERO) + c * e
        return _clean(out)

    def product(self, a: Coeffs, b: Coeffs) -> Coeffs:
        out: Coeffs = {}
        for i, ca in a.items():
            part = self.product_basis(i, b)
            for k, c in part.items():
                out[k] = out.get(k, ZERO) + ca * c
        return _clean(out)

    def __eq__(self, other):
        if not isinstance(other, ArtinLocalAlgebra):
            return NotImplemented
        return self.labels == other.labels and self.table == other.table

    __hash__ = None


@dataclass(frozen=True)
class DgNilpotentAlgebra(_Coefficients):
    """Graded nilpotent dg algebra: graded-commutative table plus differential.

    table holds canonical pairs i <= j; the swapped product carries the sign
    (−1)^{deg_i · deg_j}.
    """

    labels: tuple[str, ...]
    degrees: tuple[int, ...]
    diff: Mapping[int, Coeffs] = field(default_factory=dict)
    table: Mapping[tuple[int, int], Coeffs] = field(default_factory=dict)
    levels: tuple[int, ...] | None = None
    nu: int | None = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise InvalidInput("duplicate coefficient labels")
        if len(self.degrees) != len(self.labels):
            raise InvalidInput("degrees/labels length mismatch")
        clean = {}
        for (i, j), vec in self.table.items():
            if j < i:
                raise InvalidInput(f"non-canonical table key {(i, j)}")
            v = _clean(vec)
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "table", clean)
        object.__setattr__(self, "diff", {i: _clean(v) for i, v in self.diff.items() if _clean(v)})
        self._set_filtration()

    def degree_of(self, i: int) -> int:
        return self.degrees[i]

    def d_of(self, i: int) -> Coeffs:
        return dict(self.diff.get(i, {}))

    def product_basis(self, i: int, vec: Coeffs) -> Coeffs:
        out: Coeffs = {}
        for j, c in vec.items():
            if i <= j:
                entry, sign = self.table.get((i, j)), ONE
            else:
                entry = self.table.get((j, i))
                sign = ONE if (self.degrees[i] * self.degrees[j]) % 2 == 0 else -ONE
            if not entry:
                continue
            for k, e in entry.items():
                out[k] = out.get(k, ZERO) + sign * c * e
        return _clean(out)

    def __eq__(self, other):
        if not isinstance(other, DgNilpotentAlgebra):
            return NotImplemented
        return (self.labels, self.degrees) == (other.labels, other.degrees) and \
            self.table == other.table and self.diff == other.diff

    __hash__ = None


CoefficientAlgebra = ArtinLocalAlgebra | DgNilpotentAlgebra


def artin_from_labels(labels, products: Mapping[tuple[str, str], Mapping[str, object]]) -> ArtinLocalAlgebra:
    labels = tuple(labels)
    idx = {lab: i for i, lab in enumerate(labels)}
    table: dict[tuple[int, int], Coeffs] = {}
    for (a, b), val in products.items():
        i, j = idx[a], idx[b]
        key = (i, j) if i <= j else (j, i)
        vec = { idx[l]: la.frac(c) for l, c in val.items() }
        if key in table and table[key] != _clean(vec):
            raise InvalidInput(f"inconsistent duplicate product for {key}")
        table[key] = vec
    return ArtinLocalAlgebra(labels, table)


def validate_artin(A: CoefficientAlgebra) -> list[Violation]:
    """Commutativity, associativity, nilpotency (plus Leibniz/d² when graded)."""
    report: list[Violation] = []
    dim = A.dim
    graded = isinstance(A, DgNilpotentAlgebra)

    def unit(i: int) -> Coeffs:
        return {i: ONE}

    def name(i: int) -> str:
        return A.labels[i]

    # graded commutativity on the diagonal (odd squares must vanish);
    # off-diagonal order is derived, so only table-shape errors can occur.
    for i in range(dim):
        if graded and A.degrees[i] % 2 == 1:
            sq = A.product_basis(i, unit(i))
            if sq:
                report.append(Violation("graded_commutativity", (name(i), name(i)),
                                        "odd-degree square is nonzero"))

    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                left = A.product_basis(i, A.product_basis(j, unit(k)))
                ij = A.product_basis(i, unit(j))
                right: Coeffs = {}
                for m, c in ij.items():
                    part = A.product_basis(m, unit(k))
                    for t, e in part.items():
                        right[t] = right.get(t, ZERO) + c * e
                if left != _clean(right):
                    report.append(Violation("associativity", (name(i), name(j), name(k)),
                                            "(a·b)·c ≠ a·(b·c)"))

    if A.nu is None:
        report.append(Violation("nilpotency", tuple(A.labels),
                                "power filtration stabilizes on a nonzero span"))

    if graded:
        for (i, j), vec in A.table.items():
            want = A.degrees[i] + A.degrees[j]
            for k in vec:
                if A.degrees[k] != want:
                    report.append(Violation("product_degree", (name(i), name(j)),
                                            f"product has a term in degree {A.degrees[k]}, "
                                            f"expected {want}"))
        for i in range(dim):
            for k, c in A.d_of(i).items():
                if A.degrees[k] != A.degrees[i] + 1:
                    report.append(Violation("differential_degree", (name(i),),
                                            f"d hits degree {A.degrees[k]}"))
        for i in range(dim):
            dd: Coeffs = {}
            for k, c in A.d_of(i).items():
                for t, e in A.d_of(k).items():
                    dd[t] = dd.get(t, ZERO) + c * e
            if _clean(dd):
                report.append(Violation("d_squared", (name(i),), "d(d(a)) ≠ 0"))
        for i in range(dim):
            for j in range(dim):
                prod = A.product_basis(i, unit(j))
                lhs: Coeffs = {}
                for m, c in prod.items():
                    for t, e in A.d_of(m).items():
                        lhs[t] = lhs.get(t, ZERO) + c * e
                rhs: Coeffs = {}
                for m, c in A.d_of(i).items():
                    for t, e in A.product_basis(m, unit(j)).items():
                        rhs[t] = rhs.get(t, ZERO) + c * e
                sign = ONE if A.degrees[i] % 2 == 0 else -ONE
                for m, c in A.d_of(j).items():
                    for t, e in A.product_basis(i, {m: c}).items():
                        rhs[t] = rhs.get(t, ZERO) + sign * e
                if _clean(lhs) != _clean(rhs):
                    report.append(Violation("leibniz", (name(i), name(j)),
                                            "d(a·b) ≠ da·b + (−1)^deg a a·db"))
    return report


def truncated_polynomial_algebra(n: int) -> ArtinLocalAlgebra:
    """m_A for A = K[t]/t^n, basis t, …, t^{n−1}; n = 1 gives m = 0."""
    if n < 1:
        raise InvalidInput("truncation order must be ≥ 1")
    labels = tuple(f"t^{k}" if k > 1 else "t" for k in range(1, n))
    table = {}
    for i in range(1, n):
        for j in range(i, n):
            if i + j < n:
                table[(i - 1, j - 1)] = {i + j - 1: ONE}
    return ArtinLocalAlgebra(labels, table)


def square_zero_algebra(labels) -> ArtinLocalAlgebra:
    """m_A with all products zero (e.g. K[x,y]/(x², xy, y²))."""
    return ArtinLocalAlgebra(tuple(labels), {})


@dataclass(frozen=True)
class SmallExtension:
    """0 → J → B → A → 0 with m_B · J = 0 and a designated lifting section.

    alpha is the surjection matrix m_B → m_A (dim A × dim B); section is a
    right inverse (dim B × dim A) fixing the deterministic lift of every
    A-basis element; kernel holds the J basis as vectors in m_B.
    """

    B: ArtinLocalAlgebra
    A: ArtinLocalAlgebra
    alpha: la.Matrix
    section: la.Matrix
    kernel: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        dimB, dimA = self.B.dim, self.A.dim
        if len(self.alpha) != dimA or any(len(r) != dimB for r in self.alpha):
            raise InvalidInput("alpha has the wrong shape")
        if len(self.section) != dimB or any(len(r) != dimA for r in self.section):
            raise InvalidInput("section has the wrong shape")
        if la.rank(self.alpha) != dimA:
            raise InvalidInput("alpha is not surjective")
        comp = la.mat_mul(self.alpha, self.section)
        if comp != la.identity(dimA):
            raise InvalidInput("section is not a right inverse of alpha")
        # alpha must be an algebra map
        for i in range(dimB):
            for j in range(i, dimB):
                prod = dict(self.B.table.get((i, j), {}))
                vec = la.zero_vector(dimB)
                for k, c in prod.items():
                    vec[k] = c
                lhs = la.mat_vec(self.alpha, vec)
                a_i = [self.alpha[r][i] for r in range(dimA)]
                a_j = [self.alpha[r][j] for r in range(dimA)]
                rhs_s = self.A.product(
                    {k: c for k, c in enumerate(a_i) if c != 0},
                    {k: c for k, c in enumerate(a_j) if c != 0})
                rhs = la.zero_vector(dimA)
                for k, c in rhs_s.items():
                    rhs[k] = c
                if lhs != rhs:
                    raise InvalidInput(
                        f"alpha is not an algebra map at ({self.B.labels[i]}, {self.B.labels[j]})")
        computed = la.nullspace(self.alpha, cols=dimB)
        span = [list(v) for v in self.kernel]
        if len(la.extend_basis([], span, dimB)) != len(span) or len(span) != len(computed):
            raise InvalidInput("declared kernel basis does not match ker alpha")
        for v in computed:
            if la.in_span(span, v) is None:
                raise InvalidInput("declared kernel basis does not match ker alpha")
        for v in self.kernel:
            sparse = {k: c for k, c in enumerate(v) if c != 0}
            for i in range(dimB):
                if self.B.product_basis(i, sparse):
                    raise InvalidInput("m_B · J ≠ 0: not a small extension")

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)

    def kernel_label(self, j: int) -> str:
        vec = self.kernel[j]
        for k, c in enumerate(vec):
            if c != 0:
                lead = self.B.labels[k]
                return lead if c == 1 else f"{c}*{lead}"
        return "0"

    def project_coeffs(self, vec: Coeffs) -> Coeffs:
        out: Coeffs = {}
        for i, c in vec.items():
            for r in range(self.A.dim):
                if self.alpha[r][i] != 0:
                    out[r] = out.get(r, ZERO) + c * self.alpha[r][i]
        return _clean(out)

    def lift_coeffs(self, vec: Coeffs) -> Coeffs:
        out: Coeffs = {}
        for i, c in vec.items():
            for r in range(self.B.dim):
                if self.section[r][i] != 0:
                    out[r] = out.get(r, ZERO) + c * self.section[r][i]
        return _clean(out)

    def kernel_coords(self, vec: Coeffs) -> la.Vector | None:
        """Coordinates of a m_B vector in the J basis, or None if outside J."""
        dense = la.zero_vector(self.B.dim)
        for i, c in vec.items():
            dense[i] = c
        return la.in_span([list(v) for v in self.kernel], dense)


def small_extension(B: ArtinLocalAlgebra, A: ArtinLocalAlgebra,
                    alpha: la.Matrix, section: la.Matrix | None = None) -> SmallExtension:
    dimB, dimA = B.dim, A.dim
    if section is None:
        section_cols = []
        for r in range(dimA):
            sol = la.solve(alpha, la.unit_vector(dimA, r), cols=dimB)
            if sol is None:
                raise InvalidInput("alpha is not surjective")
            section_cols.append(sol)
        section = la.from_columns(section_cols, dimB)
    kernel = tuple(tuple(v) for v in la.nullspace(alpha, cols=dimB))
    return SmallExtension(B, A, alpha, section, kernel)


def quotient_extension(B: ArtinLocalAlgebra, ideal_labels) -> SmallExtension:
    """B → B/⟨ideal basis labels⟩ with the obvious section."""
    drop = {B.locate(l) for l in ideal_labels}
    keep = [i for i in range(B.dim) if i not in drop]
    labels = tuple(B.labels[i] for i in keep)
    reindex = {i: r for r, i in enumerate(keep)}
    table = {}
    for (i, j), vec in B.table.items():
        if i in drop or j in drop:
            continue
        pruned = {reindex[k]: c for k, c in vec.items() if k not in drop}
        # dropped labels must be an ideal: products may only leak into J
        if pruned:
            table[(reindex[i], reindex[j])] = pruned
    A = ArtinLocalAlgebra(labels, table)
    alpha = la.zeros(A.dim, B.dim)
    for i in keep:
        alpha[reindex[i]][i] = ONE
    section = la.zeros(B.dim, A.dim)
    for i in keep:
        section[i][reindex[i]] = ONE
    return SmallExtension(B, A, alpha, section,
                          tuple(tuple(la.unit_vector(B.dim, i)) for i in sorted(drop)))


def small_extension_tower(n: int) -> list[SmallExtension]:
    """K[t]/t^{k+1} → K[t]/t^k for k = 1..n; every kernel is ⟨t^k⟩."""
    if n < 1:
        raise InvalidInput("tower length must be ≥ 1")
    return [tower_step(k) for k in range(1, n + 1)]


def tower_step(k: int) -> SmallExtension:
    """K[t]/t^{k+1} → K[t]/t^k, t^i ↦ t^i, with kernel ⟨t^k⟩."""
    B, A = truncated_polynomial_algebra(k + 1), truncated_polynomial_algebra(k)
    return small_extension(B, A, [la.unit_vector(B.dim, i) for i in range(A.dim)])


def omega_complex(n: int) -> DgNilpotentAlgebra:
    """Acyclic two-term algebra Ω[n]: degrees −n and −n+1, trivial products."""
    return DgNilpotentAlgebra(
        labels=(f"w0[{n}]", f"w1[{n}]"),
        degrees=(-n, -n + 1),
        diff={0: {1: ONE}},
        table={},
    )


def epsilon_algebra(n: int = 0) -> DgNilpotentAlgebra:
    """K·ε with deg ε = −n and ε² = 0 (the tangent-probe coefficient)."""
    return DgNilpotentAlgebra(labels=("eps",), degrees=(-n,), diff={}, table={})


# --- tensor DGLA ------------------------------------------------------------


def tensor_label(l_label: str, a_label: str) -> str:
    return f"{l_label}@{a_label}"


@dataclass(frozen=True)
class TensorDgla:
    """L ⊗ m_A as a Dgla, with index bookkeeping back to the factors.

    Basis vectors are x⊗a for x over the factor DGLA basis and a over the
    coefficient basis, in degree deg x + deg a.  levels[key] is the m_A-power
    level of the coefficient factor — the termination certificate for gauge
    and BCH series.
    """

    dgla: Dgla
    factor: Dgla
    coeff: CoefficientAlgebra
    to_tensor: Mapping[tuple[int, int, int], tuple[int, int]]
    from_tensor: Mapping[tuple[int, int], tuple[int, int, int]]
    levels: Mapping[tuple[int, int], int]

    @property
    def space(self) -> GradedSpace:
        return self.dgla.space

    @property
    def nu(self) -> int:
        return self.coeff.nu if self.coeff.nu is not None else 0

    def differential_of(self, x: GradedElement) -> GradedElement:
        return self.dgla.differential_of(x)

    def bracket(self, x: GradedElement, y: GradedElement) -> GradedElement:
        return self.dgla.bracket(x, y)

    def pure(self, l_elem: GradedElement, a_idx: int) -> GradedElement:
        coords = {}
        for (deg, idx), c in l_elem.coords.items():
            coords[self.to_tensor[(deg, idx, a_idx)]] = c
        deg = None
        if l_elem.degree is not None:
            deg = l_elem.degree + self.coeff.degree_of(a_idx)
        return GradedElement(self.space, coords, deg)

    def map_coefficients(self, x: GradedElement, matrix: la.Matrix,
                         target: "TensorDgla") -> GradedElement:
        """Apply a linear map of coefficient algebras: x⊗a ↦ x⊗(matrix·a)."""
        coords: dict[tuple[int, int], Fraction] = {}
        for (deg, idx), c in x.coords.items():
            ldeg, lidx, ai = self.from_tensor[(deg, idx)]
            for r in range(target.coeff.dim):
                m = matrix[r][ai]
                if m == 0:
                    continue
                key = target.to_tensor[(ldeg, lidx, r)]
                coords[key] = coords.get(key, ZERO) + c * m
        return GradedElement(target.space, coords, x.degree)

    def element_level(self, x: GradedElement) -> int:
        """Minimal coefficient level over the support (∞ ≡ nu for zero)."""
        if x.is_zero():
            return self.nu
        return min(self.levels[k] for k in x.coords)

    def element_from_labels(self, coeffs: Mapping[str, object],
                            degree: int | None = None) -> GradedElement:
        return element_from_labels(self.space, coeffs, degree)

    def __eq__(self, other):
        if not isinstance(other, TensorDgla):
            return NotImplemented
        return self.dgla == other.dgla and self.factor == other.factor and self.coeff == other.coeff

    __hash__ = None


def tensor_dgla(L: Dgla, A: CoefficientAlgebra) -> TensorDgla:
    """L ⊗ m_A with the Koszul sign on graded coefficients.

    d(x⊗a) = dx⊗a + (−1)^{deg x} x⊗da;
    [x⊗a, y⊗b] = (−1)^{deg a · deg y} [x,y] ⊗ ab.
    """
    lspace = L.space
    adim = A.dim
    if adim == 0:
        empty = GradedSpace(0, 0, {})
        cx = ChainComplex(empty, GradedMap(empty, empty, 1, {}))
        return TensorDgla(Dgla(cx, {}), L, A, {}, {}, {})

    degs = [A.degree_of(i) for i in range(adim)]
    dmin = lspace.dmin + min(degs)
    dmax = lspace.dmax + max(degs)
    per_degree: dict[int, list[tuple[int, int, int]]] = {}
    for i in lspace.degrees():
        for p in range(lspace.dim(i)):
            for a in range(adim):
                per_degree.setdefault(i + degs[a], []).append((i, p, a))
    basis = {}
    to_tensor: dict[tuple[int, int, int], tuple[int, int]] = {}
    from_tensor: dict[tuple[int, int], tuple[int, int, int]] = {}
    levels: dict[tuple[int, int], int] = {}
    for deg in sorted(per_degree):
        labels = []
        for k, (i, p, a) in enumerate(per_degree[deg]):
            labels.append(tensor_label(lspace.label(i, p), A.labels[a]))
            to_tensor[(i, p, a)] = (deg, k)
            from_tensor[(deg, k)] = (i, p, a)
            levels[(deg, k)] = A.levels[a] if A.levels else 1
        basis[deg] = tuple(labels)
    tspace = GradedSpace(dmin, dmax, basis)

    d_images = {}
    for (i, p, a), (deg, k) in to_tensor.items():
        coords: dict[tuple[int, int], Fraction] = {}
        dl = L.differential_of(basis_element(lspace, i, p))
        for (dd, qq), c in dl.coords.items():
            key = to_tensor[(dd, qq, a)]
            coords[key] = coords.get(key, ZERO) + c
        sign = ONE if i % 2 == 0 else -ONE
        for b, c in A.d_of(a).items():
            key = to_tensor[(i, p, b)]
            coords[key] = coords.get(key, ZERO) + sign * c
        if coords:
            d_images[(deg, k)] = GradedElement(tspace, coords, deg + 1)
    cx = ChainComplex(tspace, map_from_images(tspace, tspace, 1, d_images))

    entries = []
    keys = sorted(from_tensor)
    for t1 in keys:
        i, p, a = from_tensor[t1]
        for t2 in keys:
            if t2 < t1:
                continue
            j, q, b = from_tensor[t2]
            base = L.bracket_basis((i, p), (j, q))
            if base.is_zero():
                continue
            ab = A.product_basis(a, {b: ONE})
            if not ab:
                continue
            sign = ONE if (degs[a] * j) % 2 == 0 else -ONE
            coords: dict[tuple[int, int], Fraction] = {}
            for (dd, rr), c in base.coords.items():
                for cidx, ce in ab.items():
                    key = to_tensor[(dd, rr, cidx)]
                    coords[key] = coords.get(key, ZERO) + sign * c * ce
            val = GradedElement(tspace, coords)
            if not val.is_zero():
                entries.append((t1, t2, val))
    tdgla = make_dgla(cx, entries)
    return TensorDgla(tdgla, L, A, to_tensor, from_tensor, levels)


def tensor_map(phi: GradedMap, src: TensorDgla, tgt: TensorDgla) -> GradedMap:
    """Extend a degree-0 map of factors to the tensors: x⊗a ↦ φ(x)⊗a."""
    if src.coeff != tgt.coeff:
        raise InvalidInput("tensor_map requires a shared coefficient algebra")
    if phi.degree != 0:
        raise InvalidInput("only degree-0 maps extend without signs")
    images = {}
    for (deg, k), (i, p, a) in src.from_tensor.items():
        img = phi.apply(basis_element(phi.source, i, p))
        if img.is_zero():
            continue
        coords = {}
        for (dd, qq), c in img.coords.items():
            coords[tgt.to_tensor[(dd, qq, a)]] = c
        images[(deg, k)] = GradedElement(tgt.space, coords, deg)
    return map_from_images(src.space, tgt.space, 0, images)
