"""The bounded kernel-ball search that decided gauge equivalence before the
per-level linear decision of `maurer_cartan.gauge_equiv_decide`.

Kept as a test oracle: at each filtration level it solves d a ≡ y − e^a * x
for a particular solution and tries integer combinations of kernel vectors up
to `radius` in L∞, within a node budget.  Its Equivalent carries a verified
witness; its NotEquivalent is sound only when the coefficient basis is adapted
to the power filtration (it reads levels off `TensorDgla.levels`); anything
else is Undecided.  Wherever it decides on an adapted basis, the linear
decision must agree.
"""

from __future__ import annotations

from typing import Callable

from mcdeform import linalg as la
from mcdeform.errors import BaseMismatch, InvalidInput, NotVerifiedMC
from mcdeform.graded import GradedElement, zero_element
from mcdeform.maurer_cartan import (
    ZERO,
    Equivalent,
    McElement,
    NotEquivalent,
    Undecided,
    gauge_apply,
)


class _Budget:
    def __init__(self, nodes: int):
        self.remaining = nodes

    def spend(self) -> bool:
        self.remaining -= 1
        return self.remaining >= 0


def _kernel_ball(particular: la.Vector, kernel: list[la.Vector], radius: int):
    """particular + integer combinations of kernel vectors, by growing L∞ shell."""
    yield particular
    if not kernel:
        return
    from itertools import product

    for r in range(1, radius + 1):
        for coeffs in product(range(-r, r + 1), repeat=len(kernel)):
            if max(abs(c) for c in coeffs) != r:
                continue
            vec = list(particular)
            for c, k in zip(coeffs, kernel):
                if c:
                    vec = [v + c * kv for v, kv in zip(vec, k)]
            yield vec


def search_equiv_decide(x: McElement, y: McElement, budget: int = 2000,
                        radius: int = 3,
                        cancel: Callable[[], bool] | None = None):
    """Staged decision of gauge equivalence along the m_A-power filtration.

    Level 1 is a linear system (its infeasibility is a sound NotEquivalent
    certificate); at each deeper level the condition is affine-linear in the
    new unknown given earlier choices, and kernel freedoms are carried and
    backtracked as integer combinations within the node budget.  Returns
    Equivalent(witness) with gauge_apply(witness, x) = y verified,
    NotEquivalent, or Undecided on budget/cancel exhaustion.
    """
    if x.tensor != y.tensor:
        raise BaseMismatch("elements live over different tensor DGLAs")
    if not (x.verified and y.verified):
        raise NotVerifiedMC("gauge_equiv_decide requires verified MC elements")
    T = x.tensor
    space = T.space

    def keys_at(degree: int, level: int) -> list[tuple[int, int]]:
        return [(degree, i) for i in range(space.dim(degree))
                if T.levels[(degree, i)] == level]

    levels = sorted({lvl for lvl in T.levels.values()})
    unknown_keys = {lvl: keys_at(0, lvl) for lvl in levels}
    row_keys = {lvl: keys_at(1, lvl) for lvl in levels}

    # level-k system matrix: d restricted to (level-k deg-0) -> (level-k deg-1)
    d0 = T.complex.d.matrix(0)
    sys_mats = {}
    for lvl in levels:
        cols = unknown_keys[lvl]
        rows = row_keys[lvl]
        sys_mats[lvl] = [[d0[rk[1]][ck[1]] if space.dim(1) else ZERO for ck in cols]
                         for rk in rows]

    budget_box = _Budget(budget)
    out_of_budget = []

    def attempt(level_idx: int, a_cur: GradedElement):
        if cancel is not None and cancel():
            out_of_budget.append("cancelled")
            return None
        if level_idx == len(levels):
            if gauge_apply(T, a_cur, x.element) == y.element:
                return a_cur
            return None
        lvl = levels[level_idx]
        cols = unknown_keys[lvl]
        rows = row_keys[lvl]
        current = gauge_apply(T, a_cur, x.element)
        rhs = [(current - y.element).coords.get(rk, ZERO) for rk in rows]
        if not cols:
            if any(c != 0 for c in rhs):
                return "infeasible"
            return attempt(level_idx + 1, a_cur)
        mat = sys_mats[lvl]
        particular = la.solve(mat, rhs, cols=len(cols))
        if particular is None:
            return "infeasible"
        kernel = la.nullspace(mat, cols=len(cols))
        for cand in _kernel_ball(particular, kernel, radius):
            if not budget_box.spend():
                out_of_budget.append("budget")
                return None
            a_next = a_cur + GradedElement(
                space, {ck: cand[i] for i, ck in enumerate(cols)}, 0)
            got = attempt(level_idx + 1, a_next)
            if isinstance(got, GradedElement):
                return got
            if got == "infeasible" and not kernel:
                # no freedom at this level: deeper infeasibility propagates
                return None
        return None

    result = attempt(0, zero_element(space, 0))
    if isinstance(result, GradedElement):
        if gauge_apply(T, result, x.element) != y.element:
            raise InvalidInput("internal: witness validation failed")
        return Equivalent(result)
    if result == "infeasible":
        return NotEquivalent("level-1 linear system y − x ≡ −da (mod m²) is infeasible")
    if out_of_budget:
        return Undecided(f"search stopped: {out_of_budget[0]}")
    return Undecided("no witness found within the explored kernel perturbations")
