"""Host speed, measured with a fixed reference unit of exact arithmetic.

The shared host this benchmark was made on changes speed under load from
its neighbours: a vCPU runs up to about 1.9x slower for a fraction of a
second to minutes at a time.  The benchmark times a reference unit (no
mcdeform code) next to the ops and reports every time scaled by
`scale(samples)`, i.e. as on a host that runs the unit in REF_UNIT_S.  A
slower program still reads slower; a slower host does not.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REF_UNIT_S = 0.002  # nominal reference-unit time the reported times assume


def reference_unit() -> int:
    """Fraction Gauss-Jordan elimination of a fixed 7x10 matrix."""
    n = 7
    m = [[Fraction((3 * i + 5 * j) % 13 - 6, 1 + (i * j) % 5) for j in range(n + 3)]
         for i in range(n)]
    r = 0
    for c in range(n + 3):
        p = next((i for i in range(r, n) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(n):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def unit_time() -> float:
    """Best of three reference units, with the cyclic collector off so that
    garbage left by the previous op is not collected inside the sample."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            reference_unit()
            best = min(best, time.perf_counter() - t0)
    finally:
        gc.enable()
    return best


def scale(samples) -> float:
    """REF_UNIT_S over the mean reference-unit time of `samples`: the mean,
    not the median, because a window can mix fast and slow spells and an op
    in it is slowed by their average."""
    return REF_UNIT_S / statistics.fmean(samples)
