"""The Baker-Campbell-Hausdorff product by the Dynkin series, word by word.

Reference for `maurer_cartan.bch_product`: every right-nested word in a and b
of weight < ν is bracketed out and weighted by its Dynkin coefficient.  Its
cost grows exponentially with ν, so the tests keep ν small.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mcdeform.artin import TensorDgla
from mcdeform.graded import GradedElement, zero_element


def compositions(weight: int, blocks: int):
    """Sequences of `blocks` pairs (p, q) with p+q ≥ 1 summing to `weight`."""
    if blocks == 0:
        if weight == 0:
            yield ()
        return
    for first in range(1, weight - blocks + 2):
        for p in range(first + 1):
            q = first - p
            for rest in compositions(weight - first, blocks - 1):
                yield ((p, q),) + rest


def dynkin_term(T: TensorDgla, a: GradedElement, b: GradedElement,
                comp: tuple[tuple[int, int], ...]) -> GradedElement:
    """Right-nested bracket word ad_a^{p1} ad_b^{q1} … applied to the last letter."""
    word: list[GradedElement] = []
    for p, q in comp:
        word.extend([a] * p)
        word.extend([b] * q)
    inner = word.pop()
    out = inner
    for letter in reversed(word):
        if out.is_zero():
            return out
        out = T.bracket(letter, out)
    return out


def dynkin_bch(T: TensorDgla, a: GradedElement, b: GradedElement) -> GradedElement:
    """a•b summed over every word of weight ≤ max(ν − 1, 1); words of weight
    ≥ ν vanish by the filtration certificate."""
    total = zero_element(T.space, 0)
    max_weight = max(T.nu - 1, 1)
    for w in range(1, max_weight + 1):
        for n in range(1, w + 1):
            for comp in compositions(w, n):
                term = dynkin_term(T, a, b, comp)
                if term.is_zero():
                    continue
                denom = n * w
                for p, q in comp:
                    denom *= math.factorial(p) * math.factorial(q)
                sign = 1 if (n - 1) % 2 == 0 else -1
                total = total + Fraction(sign, denom) * term
    return total
