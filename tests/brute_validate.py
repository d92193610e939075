"""Brute-force DGLA and morphism validators: the reference for the fast ones.

These evaluate every axiom instance through ``Dgla.bracket`` and
``GradedMap.apply`` on basis elements, one identity at a time.  They are
slow (five brackets per Jacobi triple) but share no code with the
structure-constant checks in ``mcdeform.dgla``, so the tests compare the two
violation lists entry for entry.
"""

from __future__ import annotations

from mcdeform.dgla import Dgla, DglaMorphism, Violation, koszul_sign
from mcdeform.graded import basis_element

ONE = koszul_sign(0, 0)


def validate_dgla(L: Dgla) -> list[Violation]:
    """Check d²=0, bracket degrees, antisymmetry, Leibniz, and Jacobi."""
    report: list[Violation] = []
    space = L.space
    for lab in L.complex.d_squared_witnesses():
        report.append(Violation("d_squared", (lab,), "d(d(e)) ≠ 0"))

    keys = [(i, p) for i in space.degrees() for p in range(space.dim(i))]

    def name(k) -> str:
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

    for a in keys:
        lhs = L.bracket_basis(a, a) + koszul_sign(a[0], a[0]) * L.bracket_basis(a, a)
        if not lhs.is_zero():
            report.append(Violation("antisymmetry", (name(a), name(a)),
                                    f"[a,b]+(−1)^(deg a·deg b)[b,a] = {lhs.pretty()}"))

    d = L.complex.d
    for a in keys:
        ea = basis_element(space, *a)
        da = d.apply(ea)
        for b in keys:
            eb = basis_element(space, *b)
            lhs = d.apply(L.bracket(ea, eb))
            sign = ONE if a[0] % 2 == 0 else -ONE
            rhs = L.bracket(da, eb) + sign * L.bracket(ea, d.apply(eb))
            if lhs != rhs:
                report.append(Violation("leibniz", (name(a), name(b)),
                                        f"d[a,b] − [da,b] − (−1)^deg a [a,db] = {(lhs - rhs).pretty()}"))

    for a in keys:
        ea = basis_element(space, *a)
        for b in keys:
            eb = basis_element(space, *b)
            ab = L.bracket(ea, eb)
            sign = koszul_sign(a[0], b[0])
            for c in keys:
                ec = basis_element(space, *c)
                lhs = L.bracket(ea, L.bracket(eb, ec))
                rhs = L.bracket(ab, ec) + sign * L.bracket(eb, L.bracket(ea, ec))
                if lhs != rhs:
                    report.append(Violation("jacobi", (name(a), name(b), name(c)),
                                            f"defect {(lhs - rhs).pretty()}"))
    return report


def validate_morphism(phi: DglaMorphism) -> list[Violation]:
    """Check chain-map and bracket-preservation on all basis pairs."""
    report: list[Violation] = []
    L, M = phi.source, phi.target
    space = L.space
    keys = [(i, p) for i in space.degrees() for p in range(space.dim(i))]

    def name(k) -> str:
        return space.label(*k)

    for a in keys:
        ea = basis_element(space, *a)
        lhs = phi.apply(L.differential_of(ea))
        rhs = M.differential_of(phi.apply(ea))
        if lhs != rhs:
            report.append(Violation("chain_map", (name(a),),
                                    f"φ(da) − d φ(a) = {(lhs - rhs).pretty()}"))
    for a in keys:
        ea = basis_element(space, *a)
        fa = phi.apply(ea)
        for b in keys:
            eb = basis_element(space, *b)
            lhs = phi.apply(L.bracket(ea, eb))
            rhs = M.bracket(fa, phi.apply(eb))
            if lhs != rhs:
                report.append(Violation("bracket_preservation", (name(a), name(b)),
                                        f"φ[a,b] − [φa,φb] = {(lhs - rhs).pretty()}"))
    return report
