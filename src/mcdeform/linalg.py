"""Exact linear algebra over the rationals: dense, and one sparse echelon.

Matrices are lists of rows of Fractions, shape (rows, cols); vectors are
lists of Fractions.  Zero-row and zero-column matrices are legal: an r x 0
matrix is ``[[] for _ in range(r)]`` and a 0 x c matrix is ``[]`` (the column
count is then carried by the caller).  The dense routines return fresh objects
and never mutate their arguments; mat_mul and inverse reuse zero entries
instead of computing fresh zeros.  Sparse vectors are zero-free dicts
{column: Fraction}: the vectors an Echelon takes (its rows are kept as integer
numerators over one denominator each) and the columns of a graded map.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

Vector = list[Fraction]
Matrix = list[list[Fraction]]
Sparse = dict  # {column: Fraction}, zero-free: absent columns are zero

ZERO = Fraction(0)
ONE = Fraction(1)
EMPTY: Sparse = {}  # shared default for absent rows and vectors; never written


def frac(x) -> Fraction:
    """Coerce ints, strings like '2/3', and Fractions to Fraction; bools are refused."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def zero_vector(n: int) -> Vector:
    return [ZERO] * n


def num_cols(a: Matrix, default: int = 0) -> int:
    return len(a[0]) if a else default


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((row[j] * x for j, x in enumerate(v) if x), ZERO) for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner = len(a), num_cols(a)
    cols = num_cols(b)
    if not a:
        return []
    if b and inner and inner != len(b):
        raise ValueError(f"shape mismatch: {rows}x{inner} times {len(b)}x{cols}")
    if inner == 0:
        return zeros(rows, cols)
    out = zeros(rows, cols)
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            aik = arow[k]
            if aik == 0:
                continue
            for j, bkj in enumerate(b[k]):
                if bkj:
                    orow[j] += aik * bkj
    return out


def is_zero_matrix(a: Matrix) -> bool:
    return all(x == 0 for row in a for x in row)


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Row-reduced echelon form and the list of pivot columns."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = num_cols(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot_row = None
        for i in range(r, rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def nullspace(a: Matrix, cols: int | None = None) -> list[Vector]:
    """Deterministic kernel basis: one vector per free column, in order."""
    c = num_cols(a, cols or 0)
    if not a:
        return [unit_vector(c, j) for j in range(c)]
    r, pivots = rref(a)
    pivot_set = set(pivots)
    basis = []
    for free in range(c):
        if free in pivot_set:
            continue
        v = zero_vector(c)
        v[free] = ONE
        for row_idx, pc in enumerate(pivots):
            v[pc] = -r[row_idx][free]
        basis.append(v)
    return basis


def unit_vector(n: int, j: int) -> Vector:
    v = zero_vector(n)
    v[j] = ONE
    return v


def solve(a: Matrix, b: Vector, cols: int | None = None) -> Vector | None:
    """One solution of a·x = b, or None if the system is infeasible."""
    c = num_cols(a, cols or 0)
    if not a:
        return zero_vector(c)
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    r, pivots = rref(aug)
    if c in pivots:
        return None
    x = zero_vector(c)
    for row_idx, pc in enumerate(pivots):
        x[pc] = r[row_idx][c]
    return x


def from_columns(cols_list: list[Vector], rows: int) -> Matrix:
    return [[col[i] for col in cols_list] for i in range(rows)]


def column_space_basis(a: Matrix) -> list[Vector]:
    return [[row[j] for row in a] for j in rref(a)[1]]


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("inverse of a non-square matrix")
    aug = [row[:] + identity(n)[i] for i, row in enumerate(a)]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return [[x if x else ZERO for x in row[n:]] for row in r]


def in_span(basis: list[Vector], v: Vector) -> Vector | None:
    """Coordinates of v in the given spanning vectors, or None."""
    if not basis:
        return [] if all(x == 0 for x in v) else None
    mat = from_columns(basis, len(v))
    return solve(mat, v, cols=len(basis))


def extend_basis(base: list[Vector], candidates: list[Vector], length: int) -> list[int]:
    """Indices of the candidates a greedy scan keeps: each one that lies
    outside the span of base plus the candidates kept before it.

    These are the candidate pivot columns of one rref([base | candidates]);
    base may be dependent.  Vectors have the given length.
    """
    if not candidates:
        return []
    pivots = rref(from_columns(base + candidates, length))[1]
    return [p - len(base) for p in pivots if p >= len(base)]


def complete_and_invert(span: list[Vector], n: int) -> tuple[list[int], Matrix]:
    """Complete independent vectors to a basis of Q^n with unit vectors, taken
    greedily in index order; returns the unit indices used and the inverse of
    the basis matrix [span | units]."""
    units = extend_basis(span, identity(n), n)
    return units, inverse(from_columns(span + [unit_vector(n, j) for j in units], n))


def add_scaled(acc: Sparse, c: Fraction, x: Sparse) -> None:
    """acc += c·x."""
    for k, v in x.items():
        if k in acc:
            acc[k] += c * v
        else:
            acc[k] = c * v


def sub_scaled(acc: Sparse, c: Fraction, x: Sparse) -> None:
    """acc −= c·x."""
    for k, v in x.items():
        if k in acc:
            acc[k] -= c * v
        else:
            acc[k] = -(c * v)


def to_ints(vec: Sparse) -> tuple[int, dict]:
    """(den, numerators) with vec = numerators/den, den the lcm of its denominators."""
    den = lcm(*(c.denominator for c in vec.values()))
    return den, {k: c.numerator * (den // c.denominator) for k, c in vec.items()}


def int_columns(a: Matrix) -> tuple[int, dict[int, tuple]]:
    """a as (den, columns): each column j as one flat tuple (r, n, r, n, …) of its
    nonzero entries' integer numerators over den, the lcm of a's denominators."""
    den = lcm(*(x.denominator for row in a for x in row))
    return den, {j: tuple(t for r, row in enumerate(a) if row[j]
                          for t in (r, row[j].numerator * (den // row[j].denominator)))
                 for j in range(num_cols(a))}


def mat_vec_sparse(a: Matrix, x: Sparse) -> Sparse:
    """a·x for a sparse x over the columns of a, as a sparse vector over its rows."""
    out = ((r, sum((row[i] * c for i, c in x.items() if row[i]), ZERO)) for r, row in enumerate(a))
    return {r: v for r, v in out if v}


def rank(a: Matrix) -> int:
    """The rank of a dense matrix, by sparse_rank of its rows."""
    return sparse_rank({j: c for j, c in enumerate(row) if c} for row in a)


def sparse_rank(vectors: Iterable[Sparse]) -> int:
    """The dimension of the span of sparse vectors: the number of them an
    Echelon keeps; no dense rref runs."""
    span = Echelon()
    for v in vectors:
        span.add(v)
    return len(span.rows)


def _primitive(den: int, nums: dict) -> tuple[int, dict]:
    """nums/den as (den, nums) with den > 0, no zero numerator and no common factor."""
    nums = {k: n for k, n in nums.items() if n}
    g = gcd(den, *nums.values()) * (-1 if den < 0 else 1)
    return (den, nums) if g == 1 else (den // g, {k: n // g for k, n in nums.items()})


def _cleared(den: int, nums: dict, c: int, rden: int, row: dict) -> tuple[int, dict]:
    """nums/den − (c/den)·(row/rden), as numerators over den·rden; nums may be reused."""
    if rden != 1:
        den, nums = den * rden, {k: n * rden for k, n in nums.items()}
    for k, n in row.items():
        nums[k] = nums.get(k, 0) - c * n
    return den, nums


class Echelon:
    """The span of sparse rows added one at a time, with right-hand sides.

    Rows stay reduced (1 at their own pivot, 0 at the others'), so a vector
    reduces against just the rows whose pivots it holds.  pivot(rest) picks a
    new row's pivot, the least column by default.  A row is kept fraction-free
    (Bareiss, Math. Comp. 1968) as (den, nums), integer numerators over one
    denominator with no common factor.  rhs maps pivots to right-hand sides
    (absent: 0); with every free unknown 0 it solves the rows added."""

    def __init__(self, pivot=min):
        self.pivot = pivot
        self.rows: dict = {}  # pivot -> (den, nums), nums[pivot] == den
        self.rhs: dict = {}  # pivot -> right-hand side, mostly nonzero

    def _reduce(self, vec: Sparse, rhs: Fraction) -> tuple[int, dict, Fraction]:
        """(vec, rhs) less the rows that clear vec at their pivots, vec as primitive (den, nums)."""
        den, nums = to_ints(vec)
        for p in [p for p in vec if p in self.rows]:
            if p in self.rhs:
                rhs -= Fraction(nums[p], den) * self.rhs[p]
            den, nums = _cleared(den, nums, nums[p], *self.rows[p])
        return *_primitive(den, nums), rhs

    def reduce(self, vec: Sparse, rhs: Fraction = ZERO) -> tuple[Sparse, Fraction]:
        """(vec, rhs) less the rows that clear vec at their pivots: vec comes back
        empty exactly when it lies in the span, and as is when it holds no pivot."""
        if not any(p in self.rows for p in vec):
            return vec, rhs
        den, nums, rhs = self._reduce(vec, rhs)
        return {k: Fraction(n, den) for k, n in nums.items()}, rhs

    def add(self, vec: Sparse, rhs: Fraction = ZERO) -> tuple[Sparse, Fraction]:
        """reduce(vec, rhs), keeping a nonempty rest as a row reduced with the others."""
        den, nums, rhs = self._reduce(vec, rhs)
        rest = {k: Fraction(n, den) for k, n in nums.items()}
        if rest:
            p = self.pivot(rest)
            (rden, row), lead = _primitive(nums[p], nums), rest[p]
            for q, (oden, other) in self.rows.items():
                if c := other.get(p):
                    self.rows[q] = _primitive(*_cleared(oden, other, c, rden, row))
                    if rhs:
                        self.rhs[q] = self.rhs.get(q, ZERO) - Fraction(c, oden) * rhs / lead
            self.rows[p] = rden, row
            if rhs:
                self.rhs[p] = rhs / lead
        return rest, rhs
