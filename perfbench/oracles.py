"""Independent checks of the library's answers.

Nothing here calls the code under test for arithmetic.  Series results are
recomputed from the structure constants of L alone on L ⊗ m_{K[t]/t^n}
(own bracket, differential, gauge series and MC residual).  BCH is checked
in closed form where L is nilpotent of class 3, and through matrices over
K[t]/t^n (log(exp A · exp B)) where L = End(V).  Cohomology dimensions are
known in advance from Kunneth.

Elements are dicts {(L-label, power of t): Fraction}, read from library
elements or from CLI reports through their `x@t^k` labels.
"""

from __future__ import annotations

from fractions import Fraction

KUNNETH = {-1: 1, 0: 2, 1: 1}


def parse_label(label: str) -> tuple[str, int]:
    l_label, a_label = label.rsplit("@", 1)
    return l_label, 1 if a_label == "t" else int(a_label[2:])


def from_element(x) -> dict:
    """Label-keyed coordinates of a library GradedElement."""
    space = x.space
    return {parse_label(space.label(d, i)): Fraction(c) for (d, i), c in x.coords.items()}


def from_report(coords: dict) -> dict:
    """Label-keyed coordinates of a CLI report's `label -> "p/q"` map."""
    return {parse_label(lab): Fraction(c) for lab, c in coords.items()}


def _add(out: dict, key, c) -> None:
    v = out.get(key, 0) + c
    if v:
        out[key] = v
    else:
        out.pop(key, None)


def combine(*terms) -> dict:
    """Σ c·x over (c, x) pairs."""
    out: dict = {}
    for c, x in terms:
        for k, v in x.items():
            _add(out, k, c * v)
    return out


def truncate(x: dict, n: int) -> dict:
    """Image under K[t]/t^{n+1} -> K[t]/t^n: drop the powers >= n."""
    return {k: v for k, v in x.items() if k[1] < n}


class SeriesOracle:
    """Arithmetic on L ⊗ m_{K[t]/t^n} from L's own structure constants."""

    def __init__(self, L):
        space = L.space
        self.degree = {space.label(d, i): d for d in space.degrees() for i in range(space.dim(d))}
        self.brackets = {}
        for (a, b), val in L.brackets.items():
            self.brackets[(space.label(*a), space.label(*b))] = {
                space.label(*k): Fraction(c) for k, c in val.coords.items()}
        self.diff: dict[str, dict[str, Fraction]] = {}
        for i, block in L.d.blocks.items():
            for r, row in enumerate(block):
                for q, c in enumerate(row):
                    if c != 0:
                        target = self.diff.setdefault(space.label(i, q), {})
                        target[space.label(i + 1, r)] = Fraction(c)

    def _basis_bracket(self, a: str, b: str) -> tuple[dict, int]:
        val = self.brackets.get((a, b))
        if val is not None:
            return val, 1
        val = self.brackets.get((b, a))
        if val is None:
            return {}, 1
        # [a, b] = -(-1)^{|a||b|} [b, a]
        return val, -1 if (self.degree[a] * self.degree[b]) % 2 == 0 else 1

    def bracket(self, x: dict, y: dict, n: int) -> dict:
        out: dict = {}
        for (la, pa), ca in x.items():
            for (lb, pb), cb in y.items():
                p = pa + pb
                if p >= n:
                    continue
                val, sign = self._basis_bracket(la, lb)
                for lk, ck in val.items():
                    _add(out, (lk, p), sign * ca * cb * ck)
        return out

    def d(self, x: dict) -> dict:
        out: dict = {}
        for (l, p), c in x.items():
            for lk, ck in self.diff.get(l, {}).items():
                _add(out, (lk, p), c * ck)
        return out

    def residual(self, x: dict, n: int) -> dict:
        return combine((1, self.d(x)), (Fraction(1, 2), self.bracket(x, x, n)))

    def gauge(self, a: dict, x: dict, n: int) -> dict:
        """e^a * x = x + Σ_k ad_a^k ([a, x] − da) / (k+1)!."""
        term = combine((1, self.bracket(a, x, n)), (-1, self.d(a)))
        total = dict(x)
        fact = 1
        k = 0
        while term:
            k += 1
            fact *= k
            total = combine((1, total), (Fraction(1, fact), term))
            term = self.bracket(a, term, n)
        return total

    def bch_class3(self, a: dict, b: dict, n: int) -> dict:
        """a•b when every bracket of length >= 4 in L vanishes (class 3)."""
        ab = self.bracket(a, b, n)
        return combine((1, a), (1, b), (Fraction(1, 2), ab),
                       (Fraction(1, 12), self.bracket(a, ab, n)),
                       (Fraction(-1, 12), self.bracket(b, ab, n)))


# --- End(V) through matrices over K[t]/t^n ------------------------------------


class EndMatrices:
    """Degree-0 elements of End(V) ⊗ m_A as matrices over A = K[t]/t^n.

    `signs[label]` undoes the seeded sign change of End(V)'s basis; the
    elementary map `src>tgt` is the matrix unit at (tgt, src).
    """

    def __init__(self, signs: dict[str, int], vlabels: tuple[str, ...]):
        self.signs = signs
        self.index = {lab: i for i, lab in enumerate(vlabels)}
        self.size = len(vlabels)

    def matrix(self, x: dict, n: int):
        m = [[[Fraction(0)] * n for _ in range(self.size)] for _ in range(self.size)]
        for (lab, p), c in x.items():
            src, tgt = lab.split(">")
            m[self.index[tgt]][self.index[src]][p] += c * self.signs[lab]
        return m

    def _mul(self, a, b, n):
        size = self.size
        out = [[[Fraction(0)] * n for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for k in range(size):
                aik = a[i][k]
                if not any(aik):
                    continue
                for j in range(size):
                    bkj = b[k][j]
                    acc = out[i][j]
                    for p, c in enumerate(aik):
                        if c:
                            for q in range(n - p):
                                if bkj[q]:
                                    acc[p + q] += c * bkj[q]
        return out

    def _lin(self, terms, n):
        size = self.size
        out = [[[Fraction(0)] * n for _ in range(size)] for _ in range(size)]
        for c, m in terms:
            for i in range(size):
                for j in range(size):
                    for p in range(n):
                        out[i][j][p] += c * m[i][j][p]
        return out

    def _series(self, m, n, coeff):
        """Σ_{k>=1} coeff(k) m^k for m with entries in m_A (nilpotent)."""
        total = self._lin([], n)
        power = m
        for k in range(1, n):
            total = self._lin([(1, total), (coeff(k), power)], n)
            power = self._mul(power, m, n)
        return total

    def bch(self, xs: list[dict], n: int):
        """Matrix of log(exp(x_1)···exp(x_r)); exp and log are finite sums here."""
        fact = [1]
        for k in range(1, n + 1):
            fact.append(fact[-1] * k)
        size = self.size
        one = [[[Fraction(int(i == j))] + [Fraction(0)] * (n - 1) for j in range(size)]
               for i in range(size)]
        prod = one
        for x in xs:
            e = self._series(self.matrix(x, n), n, lambda k: Fraction(1, fact[k]))
            prod = self._mul(prod, self._lin([(1, one), (1, e)], n), n)
        u = self._lin([(1, prod), (-1, one)], n)
        return self._series(u, n, lambda k: Fraction((-1) ** (k + 1), k))


# --- cohomology ----------------------------------------------------------------


def nonzero_dims(dims) -> dict[int, int]:
    return {int(k): int(v) for k, v in dims.items() if int(v)}


def representatives_are_cycles(H) -> bool:
    """d(r) = 0 for every representative, by our own matrix-vector product."""
    d = H.complex.d
    for deg, reps in H.representatives.items():
        block = d.blocks.get(deg)
        if block is None:
            continue
        for r in reps:
            vec = r.component_vector(deg)
            if any(sum(c * v for c, v in zip(row, vec)) != 0 for row in block):
                return False
    return True
