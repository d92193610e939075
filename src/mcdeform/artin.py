"""Coefficient algebras and the tensor DGLA L ⊗ m_A.

Only the maximal ideal is ever represented: a CoefficientAlgebra is a basis
of m_A with a multiplication table, and with degrees and a differential it is
a graded nilpotent dg algebra (finite-dimensional, used as the coefficient
ring of the extended functors); a local Artinian algebra is the case of
degree 0 and d = 0.  Filtration levels certify nilpotency and power the
termination of every gauge/BCH series downstream.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Mapping

from . import linalg as la
from .dgla import Dgla, Violation, _from_ints
from .errors import DegreeWindowViolation, InvalidInput
from .graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    GradedSpace,
    Record,
    _map,
    _trusted,
    element_from_labels,
    zero_space,
)
from .linalg import EMPTY, add_scaled, sub_scaled

ONE = Fraction(1)

Coeffs = dict[int, Fraction]  # sparse vector over the algebra basis
Columns = dict[int, Coeffs]  # a linear map by its nonzero columns {j: {row: Fraction}}


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
    P = dict(enumerate(basis))
    return levels, nu, (P, la.solution_map(P, dim, dim)[0], tuple(adapted))


def _basis_vector(vec: Mapping[int, object], dim: int, what: str) -> Coeffs:
    """vec without its zero entries; every key must index the basis."""
    for k in vec:
        if k not in range(dim):
            raise InvalidInput(f"{what} has key {k!r} outside the basis")
    return _clean(vec)


class CoefficientAlgebra(Record):
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
    table: Mapping[tuple[int, int], Coeffs] = EMPTY
    degrees: tuple[int, ...] | None = None
    diff: Mapping[int, Coeffs] = EMPTY

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.degrees is not None:
            object.__setattr__(self, "degrees", tuple(self.degrees))
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

    @property
    def dim(self) -> int:
        return len(self.labels)

    def locate(self, lab: str) -> int:
        try:
            return self.labels.index(lab)
        except ValueError:
            raise InvalidInput(f"unknown coefficient label {lab!r}") from None

    @property
    def adapted_basis(self) -> tuple[Columns | None, Columns | None, tuple[int, ...]]:
        """A basis of m adapted to its power filtration: every m^k is spanned
        by the basis vectors of level ≥ k.  (P, Q, levels) holds the basis as
        the sparse columns of P in this basis, Q = P⁻¹ as sparse columns, and
        levels[j] the level of column j; P = Q = None when this basis is
        adapted (levels = self.levels).
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
    """An Artin algebra from products keyed by label pairs, values as
    label -> scalar maps; a pair given in both orders must agree."""
    labels = tuple(labels)
    idx = {lab: i for i, lab in enumerate(labels)}

    def locate(lab: str) -> int:
        if lab not in idx:
            raise InvalidInput(f"unknown coefficient label {lab!r}")
        return idx[lab]

    table: dict[tuple[int, int], Coeffs] = {}
    for (a, b), val in products.items():
        key = tuple(sorted((locate(a), locate(b))))
        vec = _clean({locate(l): c for l, c in val.items()})
        if table.setdefault(key, vec) != vec:
            raise InvalidInput(f"inconsistent duplicate product for {key}")
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


def _columns_in(cols: Columns, n: int, m: int, what: str) -> Columns:
    """cols without zero entries or columns, each key in range(n) and each row in range(m)."""
    if any(j not in range(n) or any(r not in range(m) for r in col) for j, col in cols.items()):
        raise InvalidInput(f"{what} has the wrong shape")
    return {j: v for j, col in cols.items() if (v := _clean(col))}


class SmallExtension(Record):
    """0 → J → B → A → 0 with m_B · J = 0 and a designated lifting section.

    alpha is the surjection m_B → m_A and section a right inverse m_A → m_B
    fixing the deterministic lift of every A-basis element, both as sparse
    columns {j: {row: Fraction}}, zero-free (an absent column is zero);
    kernel holds the J basis as sparse vectors of m_B.
    """

    B: CoefficientAlgebra
    A: CoefficientAlgebra
    alpha: Columns
    section: Columns
    kernel: tuple[Coeffs, ...]

    def __post_init__(self):
        for end, alg in (("source", self.B), ("target", self.A)):
            if alg.degrees is not None:
                raise InvalidInput(f"{end} is a dg algebra, not an Artin algebra")
        dimB, dimA = self.B.dim, self.A.dim
        for name, n, m in (("alpha", dimB, dimA), ("section", dimA, dimB)):
            object.__setattr__(self, name, _columns_in(getattr(self, name), n, m, name))
        alpha, section = self.alpha, self.section
        if la.sparse_rank(alpha.values()) != dimA:
            raise InvalidInput("alpha is not surjective")
        if any(self.project_coeffs(section.get(i, EMPTY)) != {i: ONE} for i in range(dimA)):
            raise InvalidInput("section is not a right inverse of alpha")
        # alpha must be an algebra map: α(e_i·e_j) = α(e_i)·α(e_j)
        for i in range(dimB):
            for j in range(i, dimB):
                if self.project_coeffs(self.B.product_basis(i, {j: ONE})) != \
                        self.A.product(alpha.get(i, EMPTY), alpha.get(j, EMPTY)):
                    raise InvalidInput(
                        f"alpha is not an algebra map at ({self.B.labels[i]}, {self.B.labels[j]})")
        # J = ker alpha: dim J = dim B − dim A, alpha·J = 0, and J independent, so
        # that no J vector is a free unknown of the solve of [J | unit vectors],
        # whose solution map gives the coordinates in J (kernel_coords)
        k, kernel = dimB - dimA, tuple(_clean(v) for v in self.kernel)
        if len(kernel) != k or any(i not in range(dimB) for v in kernel for i in v) or any(
                self.project_coeffs(v) for v in kernel):
            raise InvalidInput("declared kernel basis does not match ker alpha")
        coords, free = la.solution_map({**dict(enumerate(kernel)),
                                        **{k + i: {i: ONE} for i in range(dimB)}}, k + dimB, dimB)
        if any(j < k for j in free):
            raise InvalidInput("declared kernel basis does not match ker alpha")
        if any(self.B.product_basis(i, v) for v in kernel for i in range(dimB)):
            raise InvalidInput("m_B · J ≠ 0: not a small extension")
        object.__setattr__(self, "kernel", kernel)
        # integer columns (la.int_columns) of the section, alpha and the J coordinates
        object.__setattr__(self, "_columns", tuple(map(la.int_columns, (section, alpha, coords))))

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)

    def kernel_label(self, j: int) -> str:
        lead, c = min(self.kernel[j].items())
        return self.B.labels[lead] if c == 1 else f"{c}*{self.B.labels[lead]}"

    def project_coeffs(self, vec: Coeffs) -> Coeffs:
        return la.apply_columns(self.alpha, vec)

    def lift_coeffs(self, vec: Coeffs) -> Coeffs:
        return la.apply_columns(self.section, vec)

    def kernel_coords(self, vec: Coeffs, den: int = 1) -> la.Vector | None:
        """Coordinates of the m_B vector vec/den in the J basis, or None if outside
        J: its coordinates in the basis [J | unit vectors] of m_B, summed in
        integers from the kept solution map's columns, must vanish on the unit
        vectors."""
        (iden, cols), (vden, nums), k = self._columns[2], la.to_ints(vec), self.kernel_dim
        coords = [0] * (k + self.B.dim)
        for i, c in nums.items():
            it = iter(cols.get(i, ()))
            for j, n in zip(it, it):
                coords[j] += c * n
        return None if any(coords[k:]) else [Fraction(n, iden * vden * den) for n in coords[:k]]


def small_extension(B: CoefficientAlgebra, A: CoefficientAlgebra, alpha: la.Matrix) -> SmallExtension:
    """The extension with the section and kernel that solve α (la.solution_map):
    with every free unknown 0, section column r solves α w = e_r, and each free
    column gives one kernel vector (as linalg's solve and nullspace).  alpha comes
    dense, dim A rows of dim B entries, and is kept as its sparse columns."""
    dimB, dimA = B.dim, A.dim
    if len(alpha) != dimA or any(len(row) != dimB for row in alpha):
        raise InvalidInput("alpha has the wrong shape")
    cols = {j: col for j in range(dimB)
            if (col := {r: c for r, row in enumerate(alpha) if (c := la.frac(row[j]))})}
    section, kernel = la.solution_map(cols, dimB, dimA)
    return SmallExtension(B, A, cols, section, tuple(kernel.values()))


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
    return SmallExtension(B, A, {i: {r: ONE} for i, r in reindex.items()},
                          {r: {i: ONE} for i, r in reindex.items()},
                          tuple({i: ONE} for i in sorted(drop)))


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
    """B → A, t^i ↦ t^i, for B and A of one tower: the section t^i ↦ t^i and
    the kernel t^{dim B} are small_extension's."""
    units = {i: {i: ONE} for i in range(A.dim)}
    return SmallExtension(B, A, units, units, ({A.dim: ONE},))


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


class TensorDgla(Dgla):
    """L ⊗ m_A, the Dgla of its factor L and coefficient algebra A, with the
    Koszul sign on graded coefficients:

        d(x⊗a) = dx⊗a + (−1)^{deg x} x⊗da;
        [x⊗a, y⊗b] = (−1)^{deg a · deg y} [x,y] ⊗ ab.

    Basis vectors are x⊗a for x over L's basis and a over A's, in degree
    deg x + deg a.  Its fields are L and A; the complex, the index maps
    (to_tensor[x][a] the key of x⊗e_a, from_tensor[key] = (*x, a)), levels
    and the bracket kernel are derived once.  levels[key] is the m_A-power
    level of the coefficient factor — the termination certificate for gauge
    and BCH series.  It keeps no table of its own: it brackets through L's
    integer table and A's products, kept once over one A-scale.  Its
    brackets (for validation, serialisation and a tensor over it) are the
    kernel's on basis pairs, derived on first read; with no product, L's
    table is unread.  Two tensors compare by L and A, which fix the rest.
    """

    _fields = ()  # L and A, not Dgla's complex and brackets, which derive from them
    factor: Dgla
    coeff: CoefficientAlgebra

    def __post_init__(self):
        L, A = self.factor, self.coeff
        lspace, degs = L.space, [A.degree_of(a) for a in range(A.dim)]
        per_degree: dict[int, list[tuple[int, int, int]]] = {}
        basis, to_tensor, from_tensor, levels = {}, {}, {}, {}
        for i in lspace.degrees():
            for p in range(lspace.dim(i)):
                to_tensor[(i, p)] = [None] * A.dim
                for a in range(A.dim):
                    per_degree.setdefault(i + degs[a], []).append((i, p, a))
        for deg in sorted(per_degree):
            basis[deg] = tuple(tensor_label(lspace.label(i, p), A.labels[a]) for i, p, a in per_degree[deg])
            for k, (i, p, a) in enumerate(per_degree[deg]):
                to_tensor[(i, p)][a] = (deg, k)
                from_tensor[(deg, k)] = (i, p, a)
                levels[(deg, k)] = A.levels[a] if A.levels else 1
        tspace = (GradedSpace(lspace.dmin + min(degs), lspace.dmax + max(degs), basis) if degs
                  else zero_space())

        # one column per x⊗a, from x's column of L's d and a's differential; the
        # two parts hit tensor vectors of different degrees of L, so never cancel
        cols: dict[int, dict[int, dict[int, Fraction]]] = {}
        for (deg, k), (i, p, a) in from_tensor.items():
            col = {to_tensor[(i + 1, r)][a][1]: c for r, c in L.d.cols.get(i, EMPTY).get(p, EMPTY).items()}
            for b, c in A.diff.get(a, EMPTY).items():
                t, r = to_tensor[(i, p)][b]
                if t != deg + 1:
                    raise DegreeWindowViolation(f"d of {tspace.label(deg, k)!r} has a term at "
                                                f"degree {t}, expected {deg + 1}")
                col[r] = -c if i % 2 else c
            if col:
                cols.setdefault(deg, {})[k] = col

        ascale = lcm(*(c.denominator for vec in A.table.values() for c in vec.values()))
        ab = {(a, b): [(k, int(c * ascale)) for k, c in A.product_basis(a, {b: ONE}).items()]
              for i, j in A.table for a, b in ((i, j), (j, i))}
        # products[diagonal][p][a] = [(b, ±e_a·e_b), …] for [l, l′], l′ of parity p: the
        # sign (−1)^{deg a · p}; on a diagonal [l, l], as Dgla derives it, a pair of
        # keys l⊗e_a > l⊗e_b reads l⊗e_b, l⊗e_a with the reversed-order sign
        products: tuple = ([{}, {}], [{}, {}])
        for (a, b), p in itertools.product(ab, (0, 1)):
            signs = [((a, b), degs[a] * p % 2)] * 2
            if (degs[b], b) < (degs[a], a):
                signs[1] = ((b, a), (1 + (p + degs[a]) * (p + degs[b]) + degs[b] * p) % 2)
            for diag, (pair, odd) in enumerate(signs):
                products[diag][p].setdefault(a, []).append((b, [(k, (-1) ** odd * m) for k, m in ab[pair]]))
        # split[key] = (l, a) for the key of l⊗e_a when e_a has a product
        split = {key: ((i, p), a) for key, (i, p, a) in from_tensor.items() if a in products[0][0]}
        for name, value in (("complex", ChainComplex(tspace, _map(tspace, tspace, 1, cols))),
                            ("to_tensor", to_tensor), ("from_tensor", from_tensor), ("levels", levels),
                            ("_products", products), ("_split", split), ("_scale", L._scale * ascale),
                            ("_table", None), ("_h2", None)):
            object.__setattr__(self, name, value)

    @property
    def nu(self) -> int:
        return self.coeff.nu if self.coeff.nu is not None else 0

    def pure(self, l_elem: GradedElement, a_idx: int) -> GradedElement:
        coords = {}
        for key, c in l_elem.coords.items():
            coords[self.to_tensor[key][a_idx]] = c
        deg = None
        if l_elem.degree is not None:
            deg = l_elem.degree + self.coeff.degree_of(a_idx)
        return GradedElement(self.space, coords, deg)

    def map_coefficients(self, x: GradedElement, columns: tuple[int, dict],
                         target: "TensorDgla") -> GradedElement:
        """Apply a linear map of coefficient algebras, x⊗a ↦ x⊗(matrix·a), given
        by the integer columns (la.int_columns) of its sparse columns: one Fraction
        per output."""
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
            row, it = to_tensor[(ldeg, lidx)], iter(cols.get(ai, ()))
            for r, n in zip(it, it):
                k = row[r]
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

    @cached_property
    def brackets(self) -> dict:
        rows, table = self.to_tensor, self.factor._int_table() if self._split else EMPTY
        pairs = {(rows[x][a], rows[y][b]) for x, row in table.items() for y in row
                 for a, pa in self._products[0][0].items() for b, _ab in pa}
        return {(t1, t2): _from_ints(self.space, *ints) for t1, t2 in sorted(pairs)
                if t1 <= t2 and (ints := self._bracket_ints((1, {t1: 1}), (1, {t2: 1})))[1]}

    def _grouped(self, x: tuple[int, dict]) -> tuple[int, dict]:
        """A (den, integer numerators) pair with its numerators grouped by L-key
        into A-vectors, (den, {l: {a: n}}), the entries of each e_a that has no
        product dropped.  A series groups each operand it brackets more than
        once here, once, and brackets it by _bracket_grouped."""
        out, split = {}, self._split
        for key, n in x[1].items():
            if (at := split.get(key)) is not None:
                out.setdefault(at[0], {})[at[1]] = n
        return x[0], out

    def _bracket_ints(self, x: tuple[int, dict], y: tuple[int, dict]) -> tuple[int, dict]:
        """Dgla._bracket_ints: (den x · den y · _scale, nonzero numerators), by
        _bracket_grouped of the two arguments grouped.  y is grouped first: in
        the series it is often the shorter, or has no product at all; [x, x]
        groups x once and still sums every ordered pair of its support."""
        gy = self._grouped(y)
        gx = (gy if x[1] is y[1] else self._grouped(x)) if gy[1] else (x[0], EMPTY)
        return self._bracket_grouped(gx, gy)

    def _bracket_grouped(self, x: tuple[int, dict], y: tuple[int, dict]) -> tuple[int, dict]:
        """[x, y] of grouped pairs (_grouped) as _bracket_ints gives it: for each
        stored pair (l, l′) of L's table they meet, the product of their
        A-vectors, scattered through the constants of [l, l′] into tensor keys."""
        (dx, gx), (dy, gy) = x, y
        products, rows, out = self._products, self.to_tensor, {}
        table = self.factor._int_table() if gx and gy else EMPTY
        for l, u in gx.items():
            row = table.get(l)
            for l2, v in (gy.items() if row else ()):
                if (consts := row.get(l2)) is None:
                    continue
                ab, prods = {}, products[l2 == l][l2[0] % 2]
                for a, ca in u.items():
                    for b, prod in prods[a]:
                        if (cb := v.get(b)) is not None:
                            for k, m in prod:
                                ab[k] = ab.get(k, 0) + ca * cb * m
                if not ab:
                    continue
                neg = l2 < l and (l[0] * l2[0]) % 2 == 0  # [l, l′] = −[l′, l], stored
                it = iter(consts)
                for key, n in zip(it, it):
                    row_keys, n = rows[key], -n if neg else n
                    for k, m in ab.items():
                        t = row_keys[k]
                        out[t] = out.get(t, 0) + n * m
        return dx * dy * self._scale, {k: n for k, n in out.items() if n}

    def _ad_columns(self, x: tuple[int, dict], degree: int) -> tuple[int, dict]:
        """The columns e ↦ [x, e] of ad_x at the basis keys e of one degree, x
        grouped (_grouped): (den x · _scale, {e: {key: n}}), zero columns
        absent.  Each column is _bracket_grouped of x and the grouped e, made in
        one pass over x's stored pairs, with no grouping per basis key."""
        dx, gx = x
        products, rows, split, cols = self._products, self.to_tensor, self._split, {}
        table = self.factor._int_table() if gx and split else EMPTY
        for l, u in gx.items():
            for l2, consts in table.get(l, EMPTY).items():
                prods, targets = products[l2 == l][l2[0] % 2], rows[l2]
                neg = l2 < l and (l[0] * l2[0]) % 2 == 0
                for a, ca in u.items():
                    for b, prod in prods[a]:
                        if (e := targets[b])[0] != degree:
                            continue
                        col = cols.setdefault(e, {})
                        it = iter(consts)
                        for key, n in zip(it, it):
                            row_keys, n = rows[key], -ca * n if neg else ca * n
                            for k, m in prod:
                                t = row_keys[k]
                                col[t] = col.get(t, 0) + n * m
        return dx * self._scale, {e: nz for e, col in cols.items()
                                  if (nz := {k: n for k, n in col.items() if n})}


def tensor_dgla(L: Dgla, A: CoefficientAlgebra) -> TensorDgla:
    """L ⊗ m_A (TensorDgla)."""
    return TensorDgla(L, A)


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
            cols.setdefault(deg, {})[k] = {tgt.to_tensor[(i, r)][a][1]: c for r, c in col.items()}
    return _map(src.space, tgt.space, 0, cols)
