"""The direct constructions behind three fast kernels: the references for them.

- ``bracket``: [x, y] summed over Fractions, one product per support pair and
  structure constant (``Dgla.bracket`` sums over integers instead).
- ``block_sum``: every embedding and projection as a matrix of ones and
  zeros, and ``cone_single``, ``cone_pair``, ``direct_sum``,
  ``difference_chain_map``: every block as embed ∘ f ∘ project, composed
  from those maps (``graded.place_blocks`` writes the blocks in place instead).
- ``tensor_brackets``: the structure constants of L ⊗ m_A from every pair of
  tensor basis keys, through ``bracket_basis`` and ``product_basis``
  (``artin.tensor_dgla`` walks the stored brackets of L instead).

The tests compare each kernel with its reference for equality.
"""

from __future__ import annotations

from fractions import Fraction

from mcdeform.dgla import (
    CONE_CONVENTION,
    ChainMap,
    ConeComplex,
    Dgla,
    _as_chain_map,
    _as_pair,
    make_dgla,
)
from mcdeform.graded import (
    ChainComplex,
    GradedElement,
    GradedMap,
    block_layout,
    block_space,
    zero_map,
)

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


def block_sum(parts):
    parts = list(parts)
    total = block_space(parts)
    maps = []
    for space, off, starts in block_layout(parts).values():
        embed, project = {}, {}
        for j, at in starts.items():
            n, i = space.dim(j), j + off
            embed[j] = [[ONE if r == at + c else ZERO for c in range(n)]
                        for r in range(total.dim(i))]
            project[i] = [[ONE if c == at + r else ZERO for c in range(total.dim(i))]
                          for r in range(n)]
        maps.append((GradedMap(space, total, off, embed), GradedMap(total, space, -off, project)))
    return total, maps


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
    return ConeComplex(cx, "single", CONE_CONVENTION, h, None, block_layout(specs))


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
    return ConeComplex(cx, "pair", CONE_CONVENTION, h, g, block_layout(specs))


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
                    key = to_tensor[(dd, rr, cidx)]
                    coords[key] = coords.get(key, ZERO) + sign * c * ce
            val = GradedElement(T.space, coords)
            if not val.is_zero():
                entries.append((t1, t2, val))
    return make_dgla(T.dgla.complex, entries).brackets
