"""Fixed reference work that measures how fast the machine runs right now.

A shared host can run this Python code 1.5x faster or slower for minutes at
a time.  The benchmark times this kernel after every solve and set-up, and
rescales its published times to the speed at which the kernel takes
NOMINAL_S, so such swings do not move the figures.  The kernel never calls
detcover, so no change to the program can change it.  It is shaped like
the sieve: carry-less 64-bit products reduced modulo x^64 + x^4 + x^3 + x + 1
inside Gaussian elimination, and subset bitmask bookkeeping on small ints.
"""

from __future__ import annotations

import random
import time

# kernel seconds on the 2-core machine, CPython 3.11, the benchmark was tuned on
NOMINAL_S = 0.009

_MASK = (1 << 64) - 1
_rng = random.Random("detcover-bench/reference")
_MATRICES = [[[_rng.getrandbits(64) if _rng.random() < 0.4 else 0 for _ in range(8)]
              for _ in range(8)] for _ in range(3)]


def _mul(a: int, b: int) -> int:
    p = 0
    while a:
        if a & 1:
            p ^= b
        a >>= 1
        b <<= 1
    hi = p >> 64
    while hi:
        p = (p & _MASK) ^ hi ^ (hi << 1) ^ (hi << 3) ^ (hi << 4)
        hi = p >> 64
    return p


def kernel() -> int:
    acc = 0
    for mat in _MATRICES:
        a = [row[:] for row in mat]
        for col in range(len(a)):
            pivot = next((r for r in range(col, len(a)) if a[r][col]), None)
            if pivot is None:
                break
            a[col], a[pivot] = a[pivot], a[col]
            piv = a[col][col]
            for r in range(col + 1, len(a)):
                f = a[r][col]
                if f:
                    a[r] = [x ^ _mul(_mul(f, y), piv) for x, y in zip(a[r], a[col])]
            acc ^= piv
        masks = {code: sum(1 << i for i in range(8) if code >> i & 1) for code in range(256)}
        acc ^= len(masks)
    return acc


def sample() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
