"""Run-time exponent optimization and attempt budgeting.

The sieve's cost on an instance splits by how the random vertex set U of
size t*n meets a hidden cover: probes cost 2^(n - |U|) determinant
evaluations, and the success probability of a single attempt is the
chance that U touches every edge of some cover at most twice.  The
exponent base as a function of the stratification parameters (tau12 =
fraction of cover edges meeting U at least once, tau2 = fraction meeting
it twice) is minimized over a shrinking grid; the minimizer also fixes
the sampling fraction t = tau12 + tau2 and the attempt-count base.  Each
grid row is evaluated in one pass that skips the points clamped onto a
point already seen (tau2 onto tau12, tau12 onto 1): such a point repeats
its value, which never beats the incumbent under the strict < that keeps
the first minimum, so the result is bit-identical to the plain grid.

Everything here is closed-form plus a grid search, no Monte Carlo; the
attempt count uses exact rational arithmetic so that ceil() boundaries
cannot wobble with floating-point noise.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ParamRow:
    """Optimized knobs for one arity k."""

    k: int
    tau12: float
    tau2: float
    t: float
    attempt_base: float  # per-vertex growth of the attempt count
    base: float          # overall run-time exponent base


# reference values, k -> (tau12, tau2, t, attempt_base, base)
REFERENCE_ROWS = {
    3: (0.961, 0.679, 0.547, 1.092, 1.496),
    4: (0.936, 0.613, 0.387, 1.073, 1.642),
    5: (0.921, 0.583, 0.301, 1.060, 1.721),
    6: (0.912, 0.565, 0.246, 1.050, 1.771),
    7: (0.905, 0.554, 0.208, 1.043, 1.806),
    8: (0.900, 0.546, 0.181, 1.038, 1.832),
}

GENERAL_BOUND_CONSTANT = 8.415


def _xlnx(x: float) -> float:
    """x * ln(x) extended continuously by 0 at x = 0."""
    if x < 0:
        raise ValueError(f"negative argument {x}")
    if x == 0.0:
        return 0.0
    return x * math.log(x)


def runtime_base(k: int, tau12: float, tau2: float) -> float:
    """Exponent base c with run time c^n at the given stratification.

    Balances the 2^(n - |U|) probe cost against the reciprocal success
    probability of drawing a U that meets tau12*n/k cover edges, tau2*n/k
    of them twice.  Valid for 0 <= tau2 <= tau12 <= 1.
    """
    if not 0 <= tau2 <= tau12 <= 1:
        raise ValueError(f"need 0 <= tau2 <= tau12 <= 1, got {tau12}, {tau2}")
    ln_num = ((k - tau12) * math.log(2.0) + _xlnx(tau2) + _xlnx(tau12 - tau2)
              + _xlnx(1.0 - tau12))
    ln_den = ((tau12 - k) * math.log(k) + tau2 * math.log(k - 1.0)
              + _xlnx(k - tau12 - tau2) + _xlnx(tau12 + tau2))
    return math.exp((ln_num - ln_den) / k)


@functools.lru_cache(maxsize=None)
def optimize(k: int) -> ParamRow:
    """Minimize runtime_base over (tau12, tau2) by grid refinement.

    Four passes, each shrinking the step tenfold around the incumbent
    (0.02 down to 2e-5), which pins the minimizer well below the 1e-4
    resolution the reference rows are quoted at.  A row is one list of
    runtime_base values, its float operations in their order, the clamped
    repeats skipped; the result equals the plain scan's bit for bit.
    """
    if k < 3:
        raise ValueError(f"optimization applies to k >= 3, got {k}")
    log, exp = math.log, math.exp
    ln2, lnk, lnk1 = log(2.0), log(k), log(k - 1.0)
    best = (math.inf, 0.0, 0.0)
    lo12, lo2, span, step = 0.0, 0.0, 1.0, 0.02
    for _ in range(4):
        steps = round(span / step)
        grid2 = [lo2 + j * step for j in range(steps + 1)]
        for t12 in dict.fromkeys(min(lo12 + i * step, 1.0) for i in range(steps + 1)):
            cut = bisect.bisect_left(grid2, t12)  # t2 clamps to t12 from here on
            t2s = grid2[:cut] + [t12] if cut <= steps else grid2
            km, x1 = k - t12, _xlnx(1.0 - t12)
            a, b = km * ln2, (t12 - k) * lnk
            cs = [exp((a + (t2 * log(t2) if t2 else 0.0)
                       + ((t12 - t2) * log(t12 - t2) if t12 != t2 else 0.0) + x1
                       - (b + t2 * lnk1 + (km - t2) * log(km - t2)
                          + ((t12 + t2) * log(t12 + t2) if t12 + t2 else 0.0))) / k) for t2 in t2s]
            c = min(cs)
            if c < best[0]:
                best = (c, t12, t2s[cs.index(c)])
        lo12, lo2 = max(0.0, best[1] - 2 * step), max(0.0, best[2] - 2 * step)
        span, step = 4 * step, step / 10
    c, tau12, tau2 = best
    t = (tau12 + tau2) / k  # each touched cover edge contributes its meet count to |U|
    return ParamRow(k=k, tau12=tau12, tau2=tau2, t=t,
                    attempt_base=c / 2.0 ** (1.0 - t), base=c)


def general_bound(k: int) -> float:
    """Closed-form upper bound on the optimized base, from the fixed
    stratification tau12 = 0.9, tau2 = 0.6 rearranged around a single
    constant close to 8.415."""
    if k < 3:
        raise ValueError(f"bound applies to k >= 3, got {k}")
    ln_inner = (math.log(GENERAL_BOUND_CONSTANT) + (0.9 - k) * math.log(k)
                + 0.6 * math.log(k - 1.0) + (k - 1.5) * math.log(k - 1.5))
    return 2.0 * math.exp(-ln_inner / k)  # in logs: (k - 1.5)^(k - 1.5) overflows from k = 145


def kdm_base(k: int) -> float:
    """Exponent base 2^((k-2)/k) of the partitioned-instance solver."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    return 2.0 ** ((k - 2) / k)


@functools.lru_cache(maxsize=None)
def _success_probability_cached(n: int, k: int, tn: int) -> Fraction:
    blocks = n // k
    hits = 0
    for t2 in range(max(0, tn - blocks), tn // 2 + 1):  # t1 + t2 <= blocks, t1 >= 0
        t1 = tn - 2 * t2
        hits += (math.comb(blocks, t1) * math.comb(blocks - t1, t2)
                 * math.comb(k, 2) ** t2 * k ** t1)
    return Fraction(hits, math.comb(n, tn))


def success_probability_exact(n: int, k: int, t: float) -> Fraction:
    """Chance a uniform random (t*n)-subset meets every block of a hidden
    partition of n vertices into n/k blocks at most twice.

    Counts subsets by (t1, t2) = blocks met once / twice: choose which
    blocks, then one of k vertices or one of C(k, 2) pairs per block.
    Exact rational output.
    """
    if n <= 0 or n % k != 0:
        raise ValueError(f"n={n} must be a positive multiple of k={k}")
    tn = round(t * n)
    if not 0 <= tn <= n:
        raise ValueError(f"t={t} puts the sample size outside 0..{n}")
    return _success_probability_cached(n, k, tn)


def check_epsilon(epsilon: float) -> None:
    """Refuse an epsilon outside [smallest normal float, 1): 1/subnormal can overflow."""
    if not sys.float_info.min <= epsilon < 1:
        raise ValueError(f"epsilon must be in [{sys.float_info.min}, 1), got {epsilon}")


def repetitions(n: int, k: int, t: float, epsilon: float) -> int:
    """Attempts needed to push the miss probability below epsilon:
    ceil(ln(1/epsilon) / p) with p the exact single-attempt probability
    (epsilon as check_epsilon accepts it)."""
    check_epsilon(epsilon)
    p = success_probability_exact(n, k, t)
    if p == 0:
        raise ValueError("single attempt can never succeed")
    need = Fraction(math.log(1.0 / epsilon)) / p
    return max(1, math.ceil(need))
