"""Coefficient algebras and the tensor DGLA L ⊗ m_A.

Only the maximal ideal is ever represented: a CoefficientAlgebra is a basis
of m_A with a multiplication table, and with degrees and a differential it is
a graded nilpotent dg algebra (finite-dimensional, used as the coefficient
ring of the extended functors); a local Artinian algebra is the case of
degree 0 and d = 0.  Filtration levels certify nilpotency and power the
termination of every gauge/BCH series downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import linalg as la
from .dgla import Dgla, Violation, make_dgla
from .errors import DegreeWindowViolation, InvalidInput
from .graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    GradedSpace,
    _map,
    _trusted,
    element_from_labels,
)
from .linalg import EMPTY, add_scaled, sub_scaled

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


def _power_spans(dim: int, product) -> list[list[Coeffs]] | None:
    """Sparse bases of m, m², … up to the last nonzero power, or None when the
    power chain stabilizes nonzero.  The basis of m^{k+1} = m·m^k is the greedy
    choice among the products e_i·v, i-major over the basis of m and the basis
    v of m^k; product(i, vec) multiplies basis element i with a sparse vector."""
    if dim == 0:
        return []
    spans: list[list[Coeffs]] = [[{i: ONE} for i in range(dim)]]
    for _step in range(dim + 1):
        echelon = la.Echelon()
        basis = [p for i in range(dim) for v in spans[-1]
                 if (p := product(i, v)) and echelon.add(p)[0]]
        if not basis:
            return spans
        # every kept span is independent, so its length is its dimension
        if len(basis) == len(spans[-1]):
            return None
        spans.append(basis)
    return None


def _filtration(dim: int, product):
    """(levels, nu, adapted_basis) of CoefficientAlgebra from one pass over
    the powers of m, or (None, None, None) when m is not nilpotent."""
    spans = _power_spans(dim, product)
    if spans is None:
        return None, None, None
    # one echelon, grown from the top power down, spans m^{k+1} once spans[k] is
    # in: its new vectors have level k + 1, and so has each e_i it first holds
    levels, echelon, basis, adapted = [1] * dim, la.Echelon(), [], []
    for k in reversed(range(len(spans))):
        new = [v for v in spans[k] if echelon.add(v)[0]]
        basis += new
        adapted += [k + 1] * len(new)
        for i in range(dim if k else 0):
            if levels[i] == 1 and not echelon.reduce({i: ONE})[0]:
                levels[i] = k + 1
    levels, nu = tuple(levels), len(spans) + 1
    if all(sum(lvl > k for lvl in levels) == len(span) for k, span in enumerate(spans)):
        return levels, nu, (None, None, levels)
    P = la.from_columns([[v.get(i, ZERO) for i in range(dim)] for v in basis], dim)
    return levels, nu, (P, la.inverse(P), tuple(adapted))


def _basis_vector(vec: Mapping[int, object], dim: int, what: str) -> Coeffs:
    """vec without its zero entries; every key must index the basis."""
    for k in vec:
        if k not in range(dim):
            raise InvalidInput(f"{what} has key {k!r} outside the basis")
    return _clean(vec)


@dataclass(frozen=True)
class CoefficientAlgebra:
    """Maximal ideal m of a graded nilpotent dg algebra, by structure constants.

    degrees=None is a local Artinian algebra (degree 0, d = 0); a tuple of
    degrees makes a dg algebra with differential diff.  table holds canonical
    pairs i <= j only; the swapped product e_j·e_i carries the Koszul sign
    (−1)^{deg_i · deg_j}.  levels[i] is the largest n with e_i ∈ m^n and nu
    the least n with m^n = 0, both computed from the table with one pass over
    the powers of m (None when the table is not nilpotent — validate_artin
    reports).
    """

    labels: tuple[str, ...]
    table: Mapping[tuple[int, int], Coeffs] = field(default_factory=dict)
    degrees: tuple[int, ...] | None = None
    diff: Mapping[int, Coeffs] = field(default_factory=dict)
    levels: tuple[int, ...] | None = field(init=False, compare=False)
    nu: int | None = field(init=False, compare=False)
    _adapted: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        dim = self.dim
        if len(set(self.labels)) != dim:
            raise InvalidInput("duplicate coefficient labels")
        if self.degrees is None:
            if self.diff:
                raise InvalidInput("a differential needs degrees")
        elif len(self.degrees) != dim:
            raise InvalidInput("degrees/labels length mismatch")
        table = {}
        for (i, j), vec in self.table.items():
            if j < i:
                raise InvalidInput(f"non-canonical table key {(i, j)}")
            if i not in range(dim) or j not in range(dim):
                raise InvalidInput(f"table key {(i, j)} outside basis")
            if v := _basis_vector(vec, dim, f"table value of {(i, j)}"):
                table[(i, j)] = v
        diff = {}
        for i, vec in self.diff.items():
            if i not in range(dim):
                raise InvalidInput(f"differential key {i!r} outside basis")
            if v := _basis_vector(vec, dim, f"differential of {i}"):
                diff[i] = v
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "diff", diff)
        # with no product, m² = 0: the dim² zero products of the scan say only that
        levels, nu, adapted = (_filtration(dim, self.product_basis) if table or not dim
                               else ((1,) * dim, 2, (None, None, (1,) * dim)))
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "_adapted", adapted)

    __hash__ = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    def locate(self, lab: str) -> int:
        try:
            return self.labels.index(lab)
        except ValueError:
            raise InvalidInput(f"unknown coefficient label {lab!r}") from None

    @property
    def adapted_basis(self) -> tuple[la.Matrix | None, la.Matrix | None, tuple[int, ...]]:
        """A basis of m adapted to its power filtration: every m^k is spanned
        by the basis vectors of level ≥ k.  (P, Q, levels) holds the basis as
        the columns of P in this basis, Q = P⁻¹, and levels[j] the level of
        column j; P = Q = None when this basis is adapted (levels = self.levels).
        """
        if self.nu is None:
            raise InvalidInput("coefficient algebra is not nilpotent")
        return self._adapted

    def degree_of(self, i: int) -> int:
        return 0 if self.degrees is None else self.degrees[i]

    def product_basis(self, i: int, vec: Coeffs) -> Coeffs:
        """e_i · vec."""
        out: Coeffs = {}
        degrees = self.degrees
        for j, c in vec.items():
            if i <= j:
                entry = self.table.get((i, j))
            else:
                entry = self.table.get((j, i))
                if degrees is not None and degrees[i] * degrees[j] % 2:
                    c = -c
            if entry:
                add_scaled(out, c, entry)
        return _clean(out)

    def product(self, a: Coeffs, b: Coeffs) -> Coeffs:
        out: Coeffs = {}
        for i, ca in a.items():
            add_scaled(out, ca, self.product_basis(i, b))
        return _clean(out)


def artin_from_labels(labels, products: Mapping[tuple[str, str], Mapping[str, object]]) -> CoefficientAlgebra:
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
    return CoefficientAlgebra(labels, table)


def validate_artin(A: CoefficientAlgebra) -> list[Violation]:
    """Graded commutativity, associativity, nilpotency, product and
    differential degrees, d² = 0 and Leibniz, over the structure constants.

    An Artin algebra (degree 0, d = 0) can fail only the first three.  A
    triple (i, j, k) is visited only when e_i·e_j or e_j·e_k is nonzero, and
    a Leibniz pair (i, j) only when e_i·e_j, de_i or de_j is nonzero: every
    other defect vanishes.  Each defect is summed into one sparse vector.
    """
    report: list[Violation] = []
    dim, diff, name = A.dim, A.diff, A.labels.__getitem__
    deg = [A.degree_of(i) for i in range(dim)]
    # prod[i][j] = e_i·e_j, for the nonzero products in both orders
    prod: dict[int, dict[int, Coeffs]] = {}
    for i, j in A.table:
        for a, b in ((i, j), (j, i)):
            prod.setdefault(a, {})[b] = A.product_basis(a, {b: ONE})
    # graded commutativity on the diagonal (odd squares must vanish);
    # off-diagonal order is derived, so only table-shape errors can occur.
    for i in range(dim):
        if deg[i] % 2 and (i, i) in A.table:
            report.append(Violation("graded_commutativity", (name(i), name(i)),
                                    "odd-degree square is nonzero"))

    # (e_i·e_j)·e_k − e_i·(e_j·e_k): both terms vanish unless e_i·e_j or
    # e_j·e_k is nonzero, and unless e_i and e_k each have a nonzero product
    active = sorted(prod)
    for i in active:
        pi = prod[i]
        for j in active:
            pj, ij = prod[j], pi.get(j, EMPTY)
            for k in (active if ij else sorted(pj)):
                defect: Coeffs = {}
                for m, c in pj.get(k, EMPTY).items():
                    add_scaled(defect, c, pi.get(m, EMPTY))
                for m, c in ij.items():
                    sub_scaled(defect, c, prod.get(m, EMPTY).get(k, EMPTY))
                if any(defect.values()):
                    report.append(Violation("associativity", (name(i), name(j), name(k)),
                                            "(a·b)·c ≠ a·(b·c)"))

    if A.nu is None:
        report.append(Violation("nilpotency", tuple(A.labels),
                                "power filtration stabilizes on a nonzero span"))

    for (i, j), vec in A.table.items():
        want = deg[i] + deg[j]
        for k in vec:
            if deg[k] != want:
                report.append(Violation("product_degree", (name(i), name(j)),
                                        f"product has a term in degree {deg[k]}, "
                                        f"expected {want}"))
    for i in sorted(diff):
        for k in diff[i]:
            if deg[k] != deg[i] + 1:
                report.append(Violation("differential_degree", (name(i),),
                                        f"d hits degree {deg[k]}"))
    for i in sorted(diff):
        dd: Coeffs = {}
        for k, c in diff[i].items():
            add_scaled(dd, c, diff.get(k, EMPTY))
        if any(dd.values()):
            report.append(Violation("d_squared", (name(i),), "d(d(a)) ≠ 0"))

    # d(e_i·e_j) − de_i·e_j − (−1)^deg e_i e_i·de_j
    for i in range(dim):
        pi, di = prod.get(i, EMPTY), diff.get(i, EMPTY)
        add_adb = add_scaled if deg[i] % 2 else sub_scaled  # the term −(−1)^deg a a·db
        for j in (range(dim) if di else sorted(set(pi) | set(diff))):
            defect = {}
            for m, c in pi.get(j, EMPTY).items():
                add_scaled(defect, c, diff.get(m, EMPTY))
            for m, c in di.items():
                sub_scaled(defect, c, prod.get(m, EMPTY).get(j, EMPTY))
            for m, c in diff.get(j, EMPTY).items():
                add_adb(defect, c, pi.get(m, EMPTY))
            if any(defect.values()):
                report.append(Violation("leibniz", (name(i), name(j)),
                                        "d(a·b) ≠ da·b + (−1)^deg a a·db"))
    return report


def truncated_polynomial_algebra(n: int) -> CoefficientAlgebra:
    """m_A for A = K[t]/t^n, basis t, …, t^{n−1}; n = 1 gives m = 0."""
    if n < 1:
        raise InvalidInput("truncation order must be ≥ 1")
    labels = tuple(f"t^{k}" if k > 1 else "t" for k in range(1, n))
    table = {}
    for i in range(1, n):
        for j in range(i, n):
            if i + j < n:
                table[(i - 1, j - 1)] = {i + j - 1: ONE}
    return CoefficientAlgebra(labels, table)


def square_zero_algebra(labels) -> CoefficientAlgebra:
    """m_A with all products zero (e.g. K[x,y]/(x², xy, y²))."""
    return CoefficientAlgebra(tuple(labels))


@dataclass(frozen=True)
class SmallExtension:
    """0 → J → B → A → 0 with m_B · J = 0 and a designated lifting section.

    alpha is the surjection matrix m_B → m_A (dim A × dim B); section is a
    right inverse (dim B × dim A) fixing the deterministic lift of every
    A-basis element; kernel holds the J basis as vectors in m_B.
    """

    B: CoefficientAlgebra
    A: CoefficientAlgebra
    alpha: la.Matrix
    section: la.Matrix
    kernel: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        for end, alg in (("source", self.B), ("target", self.A)):
            if alg.degrees is not None:
                raise InvalidInput(f"{end} is a dg algebra, not an Artin algebra")
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
        # alpha must be an algebra map: α(e_i·e_j) = α(e_i)·α(e_j)
        images = [{r: row[i] for r, row in enumerate(self.alpha) if row[i]} for i in range(dimB)]
        for i in range(dimB):
            for j in range(i, dimB):
                if self.project_coeffs(self.B.product_basis(i, {j: ONE})) != \
                        self.A.product(images[i], images[j]):
                    raise InvalidInput(
                        f"alpha is not an algebra map at ({self.B.labels[i]}, {self.B.labels[j]})")
        # J = ker alpha: alpha·J = 0, J independent, and dim J = dim B − dim A
        sparse, echelon = [{k: c for k, c in enumerate(v) if c} for v in self.kernel], la.Echelon()
        if len(sparse) != dimB - dimA or any(
                len(v) != dimB or self.project_coeffs(s) or not echelon.add(s)[0]
                for v, s in zip(self.kernel, sparse)):
            raise InvalidInput("declared kernel basis does not match ker alpha")
        if any(self.B.product_basis(i, v) for v in sparse for i in range(dimB)):
            raise InvalidInput("m_B · J ≠ 0: not a small extension")
        # integer columns (la.int_columns) of the section, alpha and [J | unit vectors]⁻¹
        inverse = la.complete_and_invert([list(v) for v in self.kernel], dimB)[1]
        object.__setattr__(self, "_columns", tuple(
            la.int_columns(m) for m in (self.section, self.alpha, inverse)))

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
        return la.mat_vec_sparse(self.alpha, vec)

    def lift_coeffs(self, vec: Coeffs) -> Coeffs:
        return la.mat_vec_sparse(self.section, vec)

    def kernel_coords(self, vec: Coeffs, den: int = 1) -> la.Vector | None:
        """Coordinates of the m_B vector vec/den in the J basis, or None if outside
        J: its coordinates in the basis [J | unit vectors] of m_B, summed in
        integers from the kept inverse's columns, must vanish on the unit vectors."""
        (iden, cols), (vden, nums) = self._columns[2], la.to_ints(vec)
        coords = [0] * self.B.dim
        for i, c in nums.items():
            it = iter(cols.get(i, ()))
            for j, n in zip(it, it):
                coords[j] += c * n
        return None if any(coords[self.kernel_dim:]) else [
            Fraction(n, iden * vden * den) for n in coords[:self.kernel_dim]]


def small_extension(B: CoefficientAlgebra, A: CoefficientAlgebra,
                    alpha: la.Matrix, section: la.Matrix | None = None) -> SmallExtension:
    """The extension with the section and kernel of one rref of [α | 1]: with
    every free unknown 0, the section's rows at the pivots are the right block,
    and each free column gives one kernel vector (as la.solve and la.nullspace)."""
    dimB, dimA = B.dim, A.dim
    r, pivots = la.rref([row + unit for row, unit in zip(alpha, la.identity(dimA))])
    pivots = [p for p in pivots if p < dimB]
    if section is None:
        if len(pivots) < dimA:
            raise InvalidInput("alpha is not surjective")
        section = la.zeros(dimB, dimA)
        for row, p in zip(r, pivots):
            section[p] = row[dimB:]
    kernel = []
    for free in (j for j in range(dimB) if j not in pivots):
        v = la.unit_vector(dimB, free)
        for row, p in zip(r, pivots):
            v[p] = -row[free]
        kernel.append(tuple(v))
    return SmallExtension(B, A, alpha, section, tuple(kernel))


def quotient_extension(B: CoefficientAlgebra, ideal_labels) -> SmallExtension:
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
    A = CoefficientAlgebra(labels, table)
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
    algebras = [truncated_polynomial_algebra(k) for k in range(1, n + 2)]
    return [_truncation(B, A) for A, B in zip(algebras, algebras[1:])]


def tower_step(k: int) -> SmallExtension:
    """K[t]/t^{k+1} → K[t]/t^k, with kernel ⟨t^k⟩."""
    return _truncation(truncated_polynomial_algebra(k + 1), truncated_polynomial_algebra(k))


def _truncation(B: CoefficientAlgebra, A: CoefficientAlgebra) -> SmallExtension:
    """B → A, t^i ↦ t^i, for B and A of one tower."""
    return small_extension(B, A, [la.unit_vector(B.dim, i) for i in range(A.dim)])


def omega_complex(n: int) -> CoefficientAlgebra:
    """Acyclic two-term algebra Ω[n]: degrees −n and −n+1, trivial products."""
    return CoefficientAlgebra((f"w0[{n}]", f"w1[{n}]"), degrees=(-n, -n + 1),
                              diff={0: {1: ONE}})


def epsilon_algebra(n: int = 0) -> CoefficientAlgebra:
    """K·ε with deg ε = −n and ε² = 0 (the tangent-probe coefficient)."""
    return CoefficientAlgebra(("eps",), degrees=(-n,))


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

    def map_coefficients(self, x: GradedElement, columns: tuple[int, dict],
                         target: "TensorDgla") -> GradedElement:
        """Apply a linear map of coefficient algebras, x⊗a ↦ x⊗(matrix·a), given
        by the matrix's integer columns (la.int_columns): one Fraction per output."""
        den, nums = self._map_ints(la.to_ints(x.coords), columns, target)
        coords = {k: Fraction(n, den) for k, n in nums.items()}
        if x.degree is not None and any(deg != x.degree for deg, _i in coords):
            # a map that moves coefficient degrees: the constructor refuses the result
            return GradedElement(target.space, coords, x.degree)
        return _trusted(target.space, coords, x.degree)

    def _map_ints(self, x: tuple[int, dict], columns: tuple, target: "TensorDgla") -> tuple[int, dict]:
        """map_coefficients of a (den, integer numerators) pair, as one."""
        from_tensor, to_tensor = self.from_tensor, target.to_tensor
        (dm, cols), (dx, xs) = columns, x
        out: dict[tuple[int, int], int] = {}
        for key, c in xs.items():
            ldeg, lidx, ai = from_tensor[key]
            it = iter(cols.get(ai, ()))
            for r, n in zip(it, it):
                k = to_tensor[(ldeg, lidx, r)]
                out[k] = out.get(k, 0) + c * n
        return dm * dx, {k: n for k, n in out.items() if n}

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

    # one column per x⊗a, from x's column of L's d and a's differential; the
    # two parts hit tensor vectors of different degrees of L, so never cancel
    cols: dict[int, dict[int, dict[int, Fraction]]] = {}
    for (i, p, a), (deg, k) in to_tensor.items():
        col = {to_tensor[(i + 1, r, a)][1]: c for r, c in L.d.cols.get(i, EMPTY).get(p, EMPTY).items()}
        for b, c in A.diff.get(a, EMPTY).items():
            t, r = to_tensor[(i, p, b)]
            if t != deg + 1:
                raise DegreeWindowViolation(f"d of {tspace.label(deg, k)!r} has a term at "
                                            f"degree {t}, expected {deg + 1}")
            col[r] = -c if i % 2 else c
        if col:
            cols.setdefault(deg, {})[k] = col
    cx = ChainComplex(tspace, _map(tspace, tspace, 1, cols))

    # [x⊗a, y⊗b] for each stored [x, y] and each nonzero product ab, stored
    # in canonical order; a diagonal [x, x] takes each tensor pair once.  With
    # equal constants of L and of A interned, each signed product of two is
    # made once, keyed by the ids of its factors (alive through the call)
    interned = {}
    products = {(a, b): {k: interned.setdefault(v, v) for k, v in ab.items()}
                for i, j in A.table for a, b in ((i, j), (j, i))
                if (ab := A.product_basis(a, {b: ONE}))}
    entries, made = [], {}
    for (x, y), val in L.brackets.items():
        lconsts = [(key, interned.setdefault(c, c)) for key, c in val.coords.items()]
        for (a, b), ab in products.items():
            t1, t2 = to_tensor[(*x, a)], to_tensor[(*y, b)]
            if x == y and t2 < t1:
                continue
            negate = (degs[a] * y[0]) % 2 == 1
            if t2 < t1:  # the reversed order carries −(−1)^(deg t1·deg t2)
                t1, t2, negate = t2, t1, negate ^ ((t1[0] * t2[0]) % 2 == 0)
            coords: dict[tuple[int, int], Fraction] = {}
            for (dd, rr), c in lconsts:
                for cidx, ce in ab.items():
                    f = (id(c), id(ce), negate)
                    if f not in made:
                        made[f] = -c * ce if negate else c * ce
                    coords[to_tensor[(dd, rr, cidx)]] = made[f]
            entries.append((t1, t2, GradedElement(tspace, coords)))
    tdgla = make_dgla(cx, sorted(entries, key=lambda e: sorted(e[:2])))
    return TensorDgla(tdgla, L, A, to_tensor, from_tensor, levels)


def tensor_map(phi: GradedMap, src: TensorDgla, tgt: TensorDgla) -> GradedMap:
    """Extend a degree-0 map of factors to the tensors: x⊗a ↦ φ(x)⊗a."""
    if src.coeff != tgt.coeff:
        raise InvalidInput("tensor_map requires a shared coefficient algebra")
    if phi.degree != 0:
        raise InvalidInput("only degree-0 maps extend without signs")
    if phi.source != src.factor.space or phi.target != tgt.factor.space:
        raise InvalidInput("tensor_map requires a map between the factors")
    cols: dict[int, dict[int, dict[int, Fraction]]] = {}
    for (deg, k), (i, p, a) in src.from_tensor.items():
        if col := phi.cols.get(i, EMPTY).get(p):
            cols.setdefault(deg, {})[k] = {tgt.to_tensor[(i, r, a)][1]: c for r, c in col.items()}
    return _map(src.space, tgt.space, 0, cols)
