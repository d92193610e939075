"""The direct constructions behind the fast kernels: the references for them.

- ``bracket``: [x, y] summed over Fractions, one product per support pair and
  structure constant (``Dgla.bracket`` sums over integers instead).
- ``bracket_ints``: [x, y] of (den, integer numerators) pairs by a walk over
  each key's partners in the stored pairs, every Fraction constant scaled to
  an integer on every read (``Dgla._bracket_ints`` reads the integer table
  kept on the DGLA instead).
- ``mat_vec``: a dense matrix-vector product, every row summed over the
  nonzero entries of the vector (the library keeps no dense product of a
  matrix and a vector; the references below and the tests use this one).
- ``map_apply``: f(x) by one dense matrix-vector product per degree
  (``GradedMap.apply`` reads f's columns, and ``Dgla.differential_of`` and
  the pair maps of ``PairSetting`` apply the integer columns each map keeps
  instead).
- ``dense_map_from_images``, ``dense_compose``, ``dense_add``,
  ``dense_scale``, ``dense_place_blocks``, ``dense_hom_differential``,
  ``dense_d_squared_witnesses``, ``dense_tensor_differential`` and
  ``dense_tensor_map``: graded maps built as one dense block per source
  degree, as the library stored them before (a ``GradedMap`` keeps its
  nonzero columns instead, and gives dense blocks only as the ``.blocks``
  view the tests compare).
- ``gauge_apply`` and ``bch_product``: the gauge and BCH series summed term
  by term over Fractions, each term a ``GradedElement`` and each bracket
  ``Dgla.bracket`` (``maurer_cartan`` carries every term as integer
  numerators over one denominator instead, groups once each operand it
  brackets more than once, and makes Fractions once).  BCH reads its
  coefficients B_j/j! from ``bernoulli_over_factorial``, a literal table of
  the Bernoulli numbers B_0 … B_12 (``maurer_cartan`` computes them by a
  recurrence, once per order).
- ``block_sum``: every embedding and projection of a labelled direct sum as a
  matrix of ones and zeros, each part found by its labels in the total space
  (``graded.block_sum`` returns a layout of offsets instead).  ``cone_single``,
  ``cone_pair``, ``direct_sum``, ``difference_chain_map``,
  ``gamma_quotient_map``, ``swap_iso``, ``les_maps``, ``les_violations``,
  ``truncated_H_constraints`` and ``direct_sum_dgla``: every map between sums
  as embed ∘ f ∘ project, composed from those maps (``graded.place_blocks``
  writes the blocks in place instead).
- ``tensor_brackets``: the structure constants of L ⊗ m_A from every pair of
  tensor basis keys, through ``bracket_basis`` and ``product_basis``
  (``artin.tensor_dgla`` walks the stored brackets of L instead).
- ``tangent_pair_matrices``: the MC-equation and gauge matrices of the tangent
  count of a pair, each block placed by hand (``tangent_dim_pair`` places
  them as one map of a ``block_sum`` instead).
- ``power_spans`` and ``filtration``: the powers of m from every product
  of a basis vector with a basis vector of the last power, each chosen by a
  dense row reduction, the levels read off one rref per power, and the
  adapted basis as dense P and Q = ``la.inverse(P)`` (``artin._power_spans``
  scans the same products with a sparse greedy elimination, and
  ``artin._filtration`` reads levels by sparse membership and keeps P and Q
  as sparse columns, Q from ``la.solution_map``).
- ``validate_artin``: the axioms of a coefficient algebra checked with
  products of basis vectors over every pair and triple of the basis
  (``artin.validate_artin`` visits only those whose products are nonzero).
- ``dense_rank``: the number of pivots of the dense rref (``linalg.rank``
  counts the rows a sparse ``Echelon`` keeps instead).
- ``extension_section_kernel``: the section of a small extension by one
  ``la.solve`` per basis vector of m_A and its kernel by ``la.nullspace``,
  both dense (``artin.small_extension`` reads both off ``la.solution_map``
  of α, as sparse columns, instead).
- ``FractionEchelon``: the sparse echelon with every row a dict of Fractions,
  each row operation one Fraction product per entry (``linalg.Echelon`` keeps
  each row as integer numerators over one denominator instead).
- ``map_coefficients`` and ``kernel_coords``: a coefficient map applied to a
  tensor element, and the J coordinates of a vector of m_B, by Fraction
  products with dense matrices, the inverse of [J | unit vectors] made again
  by ``la.complete_and_invert`` on each call (``TensorDgla.map_coefficients``
  and ``SmallExtension.kernel_coords`` sum integers over the integer columns
  the extension keeps, the J coordinates' from ``la.solution_map``,
  instead).  ``dense`` writes sparse columns as the dense matrix these take.
- ``projection`` and ``solution``: the class projection of Hⁱ as the dense
  matrix of the representative rows of the inverse of [boundaries |
  representatives | unit vectors], the unit vectors completing greedily by
  ``la.complete_and_invert``; and b ↦ w with d w = b at degree 2 for every
  boundary b, by ``la.solution_map`` of d¹ (``CohomologyResult`` keeps p as
  sparse rows of the inverse of [B | R | C], C the unit vectors at the pivots
  of d, which is the greedy completion, and builds h from the same inverse:
  p equals the projection, and h the solution on every boundary).
- ``truncated_path_complex``: M[t,dt]_N built term by term, one
  ``path_object.poly_d`` per m·tᵉ and m·tᵉdt, placed by ``path_key`` and
  named as the tensor names them (``path_object.truncated_path_complex`` is
  ``tensor_dgla(M, K[t,dt]_N)`` instead); ``truncated_H_constraints`` builds
  on it.

The tests compare each kernel with its reference for equality.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mcdeform import graded
from mcdeform.artin import _clean, epsilon_algebra, tensor_label
from mcdeform import linalg as la
from mcdeform.dgla import (
    CONE_CONVENTION,
    ChainMap,
    ConeComplex,
    Dgla,
    Violation,
    _as_chain_map,
    _as_pair,
    cokernel,
    make_dgla,
)
from mcdeform.errors import InvalidInput
from mcdeform.graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    GradedSpace,
    basis_element,
    compute_cohomology,
    identity_map,
    induced_cohomology_matrix,
    map_from_images,
    place_blocks,
    whole,
    zero_element,
    zero_map,
)
from mcdeform.maurer_cartan import _require_degree, pair_setting
from mcdeform.path_object import poly_d, poly_dt_term, poly_t_term

ZERO, ONE = Fraction(0), Fraction(1)


def bracket(L: Dgla, x: GradedElement, y: GradedElement) -> GradedElement:
    out = {}
    for a, cx in x.coords.items():
        for b, cy in y.coords.items():
            stored = L.brackets.get((a, b) if a <= b else (b, a))
            if stored is None:
                continue
            c = cx * cy if a <= b or (a[0] * b[0]) % 2 else -(cx * cy)
            for k, v in stored.coords.items():
                out[k] = out.get(k, ZERO) + c * v
    return GradedElement(L.space, out)


def bracket_ints(L: Dgla, x: tuple[int, dict], y: tuple[int, dict]) -> tuple[int, dict]:
    partners: dict = {}
    for a, b in L.brackets:
        partners.setdefault(a, []).append(b)
        if a != b:
            partners.setdefault(b, []).append(a)
    (dx, xs), (dy, ys) = x, y
    out: dict = {}
    for a, cx in xs.items():
        for b in partners.get(a, ()):
            cy = ys.get(b)
            if cy is None:
                continue
            if a <= b:
                stored, c = L.brackets[(a, b)], cx * cy
            else:
                stored = L.brackets[(b, a)]
                c = cx * cy if (a[0] * b[0]) % 2 else -(cx * cy)
            for k, v in stored.coords.items():
                out[k] = out.get(k, 0) + c * (v.numerator * (L._scale // v.denominator))
    return dx * dy * L._scale, {k: n for k, n in out.items() if n}


def mat_vec(a: la.Matrix, v: la.Vector) -> la.Vector:
    return [sum((row[j] * x for j, x in enumerate(v) if x), ZERO) for row in a]


def map_apply(f: GradedMap, x: GradedElement) -> GradedElement:
    coords = {}
    for i in f.source.degrees():
        if f.target.dim(i + f.degree):
            image = mat_vec(f.matrix(i), x.component_vector(i))
            coords.update(((i + f.degree, r), c) for r, c in enumerate(image) if c)
    return GradedElement(f.target, coords)


def gauge_apply(T, a: GradedElement, x: GradedElement) -> GradedElement:
    """e^a * x = x + Σ_{n≥0} ad_a^n/(n+1)! ([a,x] − da), one Fraction term at a time."""
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


# the Bernoulli numbers B_0 … B_12, with B_1 = −1/2 as in x/(eˣ − 1) = Σ B_j xʲ/j!
# (Abramowitz and Stegun, Handbook of Mathematical Functions, Table 23.2)
BERNOULLI = tuple(map(Fraction, ("1", "-1/2", "1/6", "0", "-1/30", "0", "1/42", "0", "-1/30",
                                 "0", "5/66", "0", "-691/2730")))


def bernoulli_over_factorial(top: int) -> list[Fraction]:
    """B_j/j! for j ≤ top ≤ 12, from the table BERNOULLI."""
    if top >= len(BERNOULLI):
        raise ValueError(f"the table holds B_j for j ≤ {len(BERNOULLI) - 1} only")
    return [B / math.factorial(j) for j, B in enumerate(BERNOULLI[:top + 1])]


def bch_product(T, a: GradedElement, b: GradedElement) -> GradedElement:
    """a•b by the recursion of Casas and Murua (see maurer_cartan.bch_product),
    every Z_n and W_j(m) a GradedElement."""
    _require_degree(a, 0, "BCH argument")
    _require_degree(b, 0, "BCH argument")
    level = min(T.element_level(a), T.element_level(b))
    top = max(1, (T.nu - 1) // max(level, 1))
    bern = bernoulli_over_factorial(top)
    s, diff = a + b, a - b
    zero = zero_element(T.space)
    Z = [zero, s]
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


def block_sum(parts):
    """graded.block_sum's total space with one (embed, project) pair per part,
    the part's rows in each degree located by their labels "name:label"."""
    parts = list(parts)
    total, _layout = graded.block_sum(parts)
    maps = []
    for name, space, off in parts:
        embed, project = {}, {}
        for j, labels in space.basis.items():
            i = j + off
            rows = []
            for label in labels:
                deg, row = total.locate(f"{name}:{label}")
                assert deg == i
                rows.append(row)
            embed[j] = [[ONE if r == rows[c] else ZERO for c in range(len(rows))]
                        for r in range(total.dim(i))]
            project[i] = [[ONE if c == rows[r] else ZERO for c in range(total.dim(i))]
                          for r in range(len(rows))]
        maps.append((GradedMap(space, total, off, embed), GradedMap(total, space, -off, project)))
    return total, maps


def placed_maps(total, layout):
    """The (embed, project) pair of each part of a layout, placed by
    graded.place_blocks from identity maps: what block_sum must equal."""
    maps = []
    for space, off, starts in layout.values():
        ident, part = identity_map(space), (space, off, starts)
        maps.append((place_blocks(space, total, off, [(1, ident, whole(space), part)]),
                     place_blocks(total, space, -off, [(1, ident, part, whole(space))])))
    return maps


def cone_maps(cone: ConeComplex) -> dict:
    """name -> (embed, project) for each part of a cone."""
    specs = [(name, space, off) for name, (space, off, _s) in cone.layout.items()]
    return dict(zip(cone.layout, block_sum(specs)[1]))


def cone_single(h) -> ConeComplex:
    h = _as_chain_map(h)
    L, M = h.source, h.target
    specs = [("L", L.space, 0), ("M", M.space, 1)]
    space, ((in_l, pr_l), (in_m, pr_m)) = block_sum(specs)
    d = (in_l.compose(L.d).compose(pr_l)
         + in_m.compose(h.map).compose(pr_l)
         - in_m.compose(M.d).compose(pr_m))
    cx = ChainComplex(space, d)
    cx.require_d_squared_zero()
    return ConeComplex(cx, "single", CONE_CONVENTION, h, None, graded.block_sum(specs)[1])


def cone_pair(h, g) -> ConeComplex:
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
    return ConeComplex(cx, "pair", CONE_CONVENTION, h, g, graded.block_sum(specs)[1])


def direct_sum(parts):
    parts = list(parts)
    space, maps = block_sum((name, cx.space, 0) for name, cx in parts)
    d = zero_map(space, space, 1)
    for (_name, cx), (embed, project) in zip(parts, maps):
        d = d + embed.compose(cx.d).compose(project)
    return ChainComplex(space, d), maps


def difference_chain_map(h, g) -> ChainMap:
    h, g = _as_pair(h, g)
    total, [(_il, proj_l), (_in, proj_n)] = direct_sum([("L", h.source), ("N", g.source)])
    return ChainMap(total, h.target, h.map.compose(proj_l) - g.map.compose(proj_n))


def gamma_quotient_map(h, g) -> ChainMap:
    """γ(l, n, m) = (−n, π(m)); h must be injective."""
    h, g = _as_pair(h, g)
    src_cone = cone_pair(h, g)
    coker_cx, pi = cokernel(h)
    tgt_cone = cone_single(ChainMap(g.source, coker_cx, pi.map.compose(g.map)))
    src, tgt = cone_maps(src_cone), cone_maps(tgt_cone)
    m = (tgt["L"][0].compose(src["N"][1]).scale(-1)
         + tgt["M"][0].compose(pi.map).compose(src["M"][1]))
    return ChainMap(src_cone.complex, tgt_cone.complex, m)


def swap_iso(h, g) -> ChainMap:
    h, g = _as_pair(h, g)
    src, tgt = cone_pair(h, g), cone_pair(g, h)
    s, t = cone_maps(src), cone_maps(tgt)
    m = (t["N"][0].compose(s["L"][1]).scale(-1)
         + t["L"][0].compose(s["N"][1]).scale(-1)
         + t["M"][0].compose(s["M"][1]))
    return ChainMap(src.complex, tgt.complex, m)


def les_maps(h, g):
    h, g = _as_pair(h, g)
    cone = cone_pair(h, g)
    total, [(inc_l, _pl), (inc_n, _pn)] = direct_sum([("L", h.source), ("N", g.source)])
    parts = cone_maps(cone)
    pi = inc_l.compose(parts["L"][1]) + inc_n.compose(parts["N"][1])
    return cone, parts["M"][0], ChainMap(cone.complex, total, pi), difference_chain_map(h, g)


def dense_rank(a: la.Matrix) -> int:
    return len(la.rref(a)[1])


def les_violations(cone, iota, pi, conn):
    """les_exactness's report on the given maps, each node written out."""
    H_c, H_sum, H_m = (compute_cohomology(cx) for cx in (cone.complex, conn.source, conn.target))
    report = []
    for i in range(cone.complex.space.dmin - 1, cone.complex.space.dmax + 2):
        mi = induced_cohomology_matrix(iota, H_m, H_c, i - 1)
        mp = induced_cohomology_matrix(pi.map, H_c, H_sum, i)
        mc = induced_cohomology_matrix(conn.map, H_sum, H_m, i)
        mi_next = induced_cohomology_matrix(iota, H_m, H_c, i)
        if not la.is_zero_matrix(la.mat_mul(mp, mi)):
            report.append(Violation("les_composite", (f"H^{i}(C)",), "π∘ι ≠ 0"))
        if dense_rank(mi) != H_c.dim(i) - dense_rank(mp):
            report.append(Violation("les_exactness", (f"H^{i}(C)",),
                                    f"rank ι = {dense_rank(mi)}, "
                                    f"nullity π = {H_c.dim(i) - dense_rank(mp)}"))
        if not la.is_zero_matrix(la.mat_mul(mc, mp)):
            report.append(Violation("les_composite", (f"H^{i}(L⊕N)",), "conn∘π ≠ 0"))
        if dense_rank(mp) != H_sum.dim(i) - dense_rank(mc):
            report.append(Violation("les_exactness", (f"H^{i}(L⊕N)",),
                                    f"rank π = {dense_rank(mp)}, "
                                    f"nullity conn = {H_sum.dim(i) - dense_rank(mc)}"))
        if not la.is_zero_matrix(la.mat_mul(mi_next, mc)):
            report.append(Violation("les_composite", (f"H^{i}(M)",), "ι∘conn ≠ 0"))
        if dense_rank(mc) != H_m.dim(i) - dense_rank(mi_next):
            report.append(Violation("les_exactness", (f"H^{i}(M)",),
                                    f"rank conn = {dense_rank(mc)}, "
                                    f"nullity ι = {H_m.dim(i) - dense_rank(mi_next)}"))
    return report


def path_key(mspace, N: int, kind: str, exp: int, deg: int, p: int) -> tuple[int, int]:
    """Key in M[t,dt]_N of m·t^exp (kind "t") or m·t^exp·dt (kind "dt"), m the
    basis vector (deg, p) of M.  Degree k lists the dt-parts of M^{k−1} first,
    then the t-parts of M^k; each basis vector's exponents sit together."""
    if kind == "dt":
        return deg + 1, p * N + exp
    return deg, mspace.dim(deg - 1) * N + p * (N + 1) + exp


def truncated_path_complex(M: Dgla, N: int) -> ChainComplex:
    mspace = M.space
    terms = [(kind, e, i, p) for i in mspace.degrees() for p in range(mspace.dim(i))
             for kind, top in (("t", N + 1), ("dt", N)) for e in range(top)]
    labels = {path_key(mspace, N, kind, e, i, p): tensor_label(mspace.label(i, p), f"{kind}{e}")
              for kind, e, i, p in terms}
    basis: dict[int, list[str]] = {}
    for (deg, _idx), lab in sorted(labels.items()):
        basis.setdefault(deg, []).append(lab)
    space = GradedSpace(mspace.dmin, mspace.dmax + 1, basis)

    def embed(x) -> GradedElement:
        return GradedElement(space, {
            path_key(mspace, N, kind, e, deg, idx): c
            for kind, part in (("t", x.t_part), ("dt", x.dt_part))
            for e, m in part.items() for (deg, idx), c in m.coords.items()}, x.degree)

    images = {}
    for kind, e, i, p in terms:
        m = basis_element(mspace, i, p)
        x = poly_t_term(M, e, m) if kind == "t" else poly_dt_term(M, e, m)
        images[path_key(mspace, N, kind, e, i, p)] = embed(poly_d(x))
    return ChainComplex(space, map_from_images(space, space, 1, images))


def truncated_H_constraints(h, g, window):
    L, N, M = h.source, g.source, h.target
    path = truncated_path_complex(M, window.N)
    ambient, [(_il, pr_L), (_in, pr_N), (_ip, pr_P)] = direct_sum(
        [("L", L.complex), ("N", N.complex), ("P", path)])

    def eval_map(at_one: bool) -> GradedMap:
        return map_from_images(path.space, M.space, 0, {
            path_key(M.space, window.N, "t", e, i, p): basis_element(M.space, i, p)
            for i in M.space.degrees() for p in range(M.space.dim(i))
            for e in range(window.N + 1 if at_one else 1)})

    return ambient, [h.map.compose(pr_L) - eval_map(True).compose(pr_P),
                     g.map.compose(pr_N) - eval_map(False).compose(pr_P)]


def direct_sum_dgla(L: Dgla, N: Dgla, names):
    """The product DGLA and its (embed, project) pairs, the bracket keys read
    through the embeddings."""
    cx, maps = direct_sum(zip(names, (L.complex, N.complex)))

    def key(inc: GradedMap, k):
        (image,) = inc.apply(basis_element(inc.source, *k)).coords
        return image

    entries = [(key(inc, a), key(inc, b), inc.apply(val))
               for D, (inc, _p) in zip((L, N), maps) for (a, b), val in D.brackets.items()]
    return make_dgla(cx, entries), maps


def tensor_brackets(T) -> dict:
    """The brackets of T = tensor_dgla(L, A), from all pairs t1 ≤ t2 of keys."""
    L, A, from_tensor, to_tensor = T.factor, T.coeff, T.from_tensor, T.to_tensor
    degs = [A.degree_of(i) for i in range(A.dim)]
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
            coords = {}
            for (dd, rr), c in base.coords.items():
                for cidx, ce in ab.items():
                    key = to_tensor[(dd, rr)][cidx]
                    coords[key] = coords.get(key, ZERO) + sign * c * ce
            val = GradedElement(T.space, coords)
            if not val.is_zero():
                entries.append((t1, t2, val))
    return make_dgla(T.complex, entries).brackets


def validate_artin(A) -> list[Violation]:
    """Commutativity, associativity, nilpotency (plus Leibniz/d² when graded),
    by products of basis vectors over every pair and triple of the basis."""
    report: list[Violation] = []
    dim = A.dim
    graded = A.degrees is not None

    def unit(i: int) -> dict:
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
                right: dict = {}
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
            for k, c in A.diff.get(i, {}).items():
                if A.degrees[k] != A.degrees[i] + 1:
                    report.append(Violation("differential_degree", (name(i),),
                                            f"d hits degree {A.degrees[k]}"))
        for i in range(dim):
            dd: dict = {}
            for k, c in A.diff.get(i, {}).items():
                for t, e in A.diff.get(k, {}).items():
                    dd[t] = dd.get(t, ZERO) + c * e
            if _clean(dd):
                report.append(Violation("d_squared", (name(i),), "d(d(a)) ≠ 0"))
        for i in range(dim):
            for j in range(dim):
                prod = A.product_basis(i, unit(j))
                lhs: dict = {}
                for m, c in prod.items():
                    for t, e in A.diff.get(m, {}).items():
                        lhs[t] = lhs.get(t, ZERO) + c * e
                rhs: dict = {}
                for m, c in A.diff.get(i, {}).items():
                    for t, e in A.product_basis(m, unit(j)).items():
                        rhs[t] = rhs.get(t, ZERO) + c * e
                sign = ONE if A.degrees[i] % 2 == 0 else -ONE
                for m, c in A.diff.get(j, {}).items():
                    for t, e in A.product_basis(i, {m: c}).items():
                        rhs[t] = rhs.get(t, ZERO) + sign * e
                if _clean(lhs) != _clean(rhs):
                    report.append(Violation("leibniz", (name(i), name(j)),
                                            "d(a·b) ≠ da·b + (−1)^deg a a·db"))
    return report


def tangent_pair_matrices(h, g, shift_n: int):
    """The MC equations and the gauge action of the tangent count of a pair
    over K·ε, each block placed by hand (``maurer_cartan.tangent_dim_pair``
    places them as one map of a block_sum instead): the equation matrix, and
    the gauge matrix, which is minus the degree-0 block of that map."""
    s = pair_setting(h, g, epsilon_algebra(shift_n))
    nx, ny, np_ = s.tL.space.dim(1), s.tN.space.dim(1), s.tM.space.dim(0)
    rows_x, rows_y, rows_m = s.tL.space.dim(2), s.tN.space.dim(2), s.tM.space.dim(1)
    cols = nx + ny + np_
    eq = la.zeros(rows_x + rows_y + rows_m, cols)
    dL = s.tL.complex.d.matrix(1)
    dN = s.tN.complex.d.matrix(1)
    dM = s.tM.complex.d.matrix(0)
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

    na, nb = s.tL.space.dim(0), s.tN.space.dim(0)
    nc = s.tM.space.dim(-1)
    gauge = la.zeros(cols, na + nb + nc)
    dL0 = s.tL.complex.d.matrix(0)
    dN0 = s.tN.complex.d.matrix(0)
    dMm1 = s.tM.complex.d.matrix(-1)
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
    return eq, gauge


def power_spans(dim: int, product):
    """Dense bases of m, m², … up to the last nonzero power, or None when the
    power chain stabilizes nonzero: every product e_i·v of a basis vector with
    a basis vector of the last power, the independent ones kept by one dense
    row reduction per power."""
    if dim == 0:
        return []
    spans = [[la.unit_vector(dim, i) for i in range(dim)]]
    for _step in range(dim + 1):
        sparse = [{k: c for k, c in enumerate(v) if c != 0} for v in spans[-1]]
        nxt = [[prod.get(k, Fraction(0)) for k in range(dim)]
               for i in range(dim) for v in sparse if (prod := product(i, v))]
        basis = [nxt[k] for k in la.extend_basis([], nxt, dim)]
        if not basis:
            return spans
        if len(basis) == len(spans[-1]):
            return None
        spans.append(basis)
    return None


def filtration(dim: int, product):
    """(levels, nu, adapted_basis) as artin._filtration gives them, from
    power_spans: e_i lies in m^{k+1} when i is a pivot of the rref of the
    basis of m^{k+1} whose row is e_i."""
    spans = power_spans(dim, product)
    if spans is None:
        return None, None, None
    levels = [1] * dim
    for k in range(1, len(spans)):
        rows, pivots = la.rref(spans[k])
        for r, i in enumerate(pivots):
            if rows[r] == la.unit_vector(dim, i):
                levels[i] = k + 1
    levels, nu = tuple(levels), len(spans) + 1
    if all(sum(lvl > k for lvl in levels) == len(span) for k, span in enumerate(spans)):
        return levels, nu, (None, None, levels)
    basis, adapted = [], []
    for k in reversed(range(len(spans))):
        new = la.extend_basis(basis, spans[k], dim)
        basis += [spans[k][i] for i in new]
        adapted += [k + 1] * len(new)
    P = la.from_columns(basis, dim)
    return levels, nu, (P, la.inverse(P), tuple(adapted))


def extension_section_kernel(alpha: la.Matrix, dimB: int, dimA: int):
    """(section, kernel) of a small extension with surjection alpha, as
    artin.small_extension computes them; None when alpha is not surjective."""
    cols = [la.solve(alpha, la.unit_vector(dimA, r), cols=dimB) for r in range(dimA)]
    if None in cols:
        return None
    return la.from_columns(cols, dimB), tuple(tuple(v) for v in la.nullspace(alpha, cols=dimB))


# --- dense blocks: graded maps as one dense matrix per source degree ----------
#
# Each function returns the map's nonzero blocks, as GradedMap.blocks reads
# them off the map's columns.


def _nonzero_blocks(blocks: dict) -> dict:
    return {i: b for i, b in sorted(blocks.items()) if not la.is_zero_matrix(b)}


def dense_map_from_images(source, target, degree: int, images) -> dict:
    blocks = {}
    for (sdeg, sidx), img in images.items():
        if sdeg not in blocks:
            blocks[sdeg] = la.zeros(target.dim(sdeg + degree), source.dim(sdeg))
        for (_d, r), c in img.coords.items():
            blocks[sdeg][r][sidx] += c
    return _nonzero_blocks(blocks)


def dense_compose(outer: GradedMap, inner: GradedMap) -> dict:
    """outer ∘ inner, one dense product per source degree."""
    blocks = {}
    for i in inner.source.degrees():
        mid = i + inner.degree
        if inner.source.dim(i) and outer.target.dim(mid + outer.degree):
            blocks[i] = la.mat_mul(outer.matrix(mid), inner.matrix(i))
    return _nonzero_blocks(blocks)


def dense_add(f: GradedMap, g: GradedMap) -> dict:
    return _nonzero_blocks({i: [[x + y for x, y in zip(rf, rg)]
                                for rf, rg in zip(f.matrix(i), g.matrix(i))]
                            for i in set(f.blocks) | set(g.blocks)})


def dense_scale(c, f: GradedMap) -> dict:
    return _nonzero_blocks({i: [[c * x for x in row] for row in b] for i, b in f.blocks.items()})


def dense_place_blocks(source, target, degree: int, terms) -> dict:
    """graded.place_blocks, writing each dense block of each term at its offsets."""
    blocks = {}
    for sign, f, (_s, s_off, s_starts), (_t, _t_off, t_starts) in terms:
        for j, block in f.blocks.items():
            i = j + s_off
            if i not in blocks:
                blocks[i] = la.zeros(target.dim(i + degree), source.dim(i))
            r0, c0 = t_starts[j + f.degree], s_starts[j]
            for r, row in enumerate(block):
                for c, v in enumerate(row):
                    blocks[i][r0 + r][c0 + c] += sign * v
    return _nonzero_blocks(blocks)


def dense_hom_differential(V: ChainComplex, W: ChainComplex, hspace) -> dict:
    """The blocks of d'(f) = d_W f − (−1)^{deg f} f d_V on hspace, the space of
    graded.hom_complex(V, W) over its window, filled column by column from the
    dense blocks of d_W and d_V."""
    sv, sw = V.space, W.space
    blocks = {}
    for n in hspace.degrees():
        sign = ONE if n % 2 == 0 else -ONE
        rows = {e: r for r, e in enumerate(graded.hom_basis(sv, sw, n + 1))}
        block = la.zeros(hspace.dim(n + 1), hspace.dim(n))
        for col, (i, p, q) in enumerate(graded.hom_basis(sv, sw, n)):
            dw, dv = W.d.matrix(i + n), V.d.matrix(i - 1)
            terms = ([((i, p, r), dw[r][q]) for r in range(sw.dim(i + n + 1))]
                     + [((i - 1, s, q), -sign * dv[p][s]) for s in range(sv.dim(i - 1))])
            for e, c in terms:
                if c:
                    block[rows[e]][col] += c
        blocks[n] = block
    return _nonzero_blocks(blocks)


def dense_d_squared_witnesses(cx: ChainComplex) -> list[str]:
    """Labels of the basis vectors whose column of the dense d∘d is nonzero,
    degree by degree and column by column."""
    return [cx.space.label(i, col) for i, block in dense_compose(cx.d, cx.d).items()
            for col in range(len(block[0])) if any(row[col] for row in block)]


def dense_tensor_differential(T) -> dict:
    """d(x⊗a) = dx⊗a + (−1)^{deg x} x⊗da of T = L ⊗ m_A, from the dense blocks
    of L's d and A's differential."""
    L, A, space = T.factor, T.coeff, T.space
    blocks = {deg: la.zeros(space.dim(deg + 1), space.dim(deg)) for deg in space.basis}
    for (deg, k), (i, p, a) in T.from_tensor.items():
        dl = L.d.matrix(i)
        for r in range(L.space.dim(i + 1)):
            if dl[r][p]:
                blocks[deg][T.to_tensor[(i + 1, r)][a][1]][k] += dl[r][p]
        for b, c in A.diff.get(a, {}).items():
            blocks[deg][T.to_tensor[(i, p)][b][1]][k] += c if i % 2 == 0 else -c
    return _nonzero_blocks(blocks)


def dense_tensor_map(phi: GradedMap, src, tgt) -> dict:
    """x⊗a ↦ φ(x)⊗a, from the dense blocks of φ."""
    blocks = {deg: la.zeros(tgt.space.dim(deg), src.space.dim(deg)) for deg in src.space.basis}
    for (deg, k), (i, p, a) in src.from_tensor.items():
        for r, row in enumerate(phi.matrix(i)):
            if row[p]:
                blocks[deg][tgt.to_tensor[(i, r)][a][1]][k] += row[p]
    return _nonzero_blocks(blocks)


class FractionEchelon:
    """The span of sparse rows added one at a time, with right-hand sides, each
    row a dict {column: Fraction} kept reduced (1 at its own pivot, 0 at the
    others'); pivot(rest) picks a new row's pivot."""

    def __init__(self, pivot=min):
        self.pivot = pivot
        self.rows: dict = {}
        self.rhs: dict = {}

    def reduce(self, vec, rhs=ZERO):
        hits = [(p, c) for p, c in vec.items() if p in self.rows]
        if not hits:
            return vec, rhs
        vec = dict(vec)
        for p, c in hits:
            la.sub_scaled(vec, c, self.rows[p])
            if p in self.rhs:
                rhs -= c * self.rhs[p]
        return {k: c for k, c in vec.items() if c}, rhs

    def add(self, vec, rhs=ZERO):
        rest, rest_rhs = self.reduce(vec, rhs)
        if rest:
            p = self.pivot(rest)
            lead = rest[p]
            row = {k: c / lead for k, c in rest.items()}
            for q, other in self.rows.items():
                if c := other.get(p):
                    la.sub_scaled(other, c, row)
                    self.rows[q] = {k: v for k, v in other.items() if v}
                    if rest_rhs:
                        self.rhs[q] = self.rhs.get(q, ZERO) - c * rest_rhs / lead
            self.rows[p] = row
            if rest_rhs:
                self.rhs[p] = rest_rhs / lead
        return rest, rest_rhs


def map_coefficients(T, x: GradedElement, matrix: la.Matrix, target) -> GradedElement:
    """x⊗a ↦ x⊗(matrix·a), one Fraction product per term and matrix entry."""
    coords: dict = {}
    for key, c in x.coords.items():
        ldeg, lidx, ai = T.from_tensor[key]
        for r, row in enumerate(matrix):
            if row[ai]:
                out = target.to_tensor[(ldeg, lidx)][r]
                coords[out] = coords.get(out, ZERO) + c * row[ai]
    return GradedElement(target.space, coords, x.degree)


def dense(cols: dict | None, rows: int, n: int) -> la.Matrix | None:
    """The rows x n matrix whose sparse columns are cols; None stays None."""
    if cols is None:
        return None
    out = la.zeros(rows, n)
    for j, col in cols.items():
        for r, c in col.items():
            out[r][j] = c
    return out


def kernel_coords(ext, vec: dict):
    """The J coordinates of a vector of m_B, or None outside J: its coordinates
    in the basis [J | unit vectors], by the dense inverse made here."""
    J = [[v.get(i, ZERO) for i in range(ext.B.dim)] for v in ext.kernel]
    inverse = la.complete_and_invert(J, ext.B.dim)[1]
    coords = [sum((row[i] * c for i, c in vec.items()), ZERO) for row in inverse]
    return None if any(coords[ext.kernel_dim:]) else coords[:ext.kernel_dim]


def projection(cx: ChainComplex, i: int) -> la.Matrix:
    """The dim Hⁱ x dim Vⁱ class projection: the representative rows of the
    inverse of [boundaries | representatives | unit vectors], the unit
    vectors taken greedily (la.complete_and_invert)."""
    n = cx.space.dim(i)
    if n == 0:
        return []
    kernel = la.nullspace(cx.d.matrix(i), cols=n)
    boundaries = la.column_space_basis(cx.d.matrix(i - 1)) if cx.space.dim(i - 1) else []
    chosen = [kernel[k] for k in la.extend_basis(boundaries, kernel, n)]
    inverse = la.complete_and_invert(boundaries + chosen, n)[1]
    return inverse[len(boundaries):len(boundaries) + len(chosen)]


def solution(d: GradedMap) -> GradedMap:
    """b ↦ w with d w = b and every free unknown 0 (as la.solve) for each b in
    the image of d at source degree 1, by la.solution_map of d¹."""
    cols = la.solution_map(d.cols.get(1, {}), d.source.dim(1), d.target.dim(1 + d.degree))[0]
    return graded._map(d.target, d.source, -d.degree, {1 + d.degree: cols} if cols else {})
