"""Fixed-seed micro-loops for the field and linear-algebra layers.

Each figure is the median over REPS repetitions of a loop sized to take
roughly TARGET_S seconds, divided by the operations in the loop.  The
operands depend only on MICRO_SEED, never on the workload seed.
"""

from __future__ import annotations

import random
import statistics
import time

MICRO_SEED = 20091002
REPS = 7
TARGET_S = 0.02
DET_SIZES = (6, 10, 14)
INTERP_DEGREE = 10

# ROADMAP baseline figures (2-core machine, CPython 3.11)
BASELINE = {"gf2m.mul_ns": 5800.0, "gf2m.inv_ns": 20800.0, "linalg.det_dense10_us": 2500.0}


def _per_op(body, ops: int) -> float:
    """Median seconds per operation of body(), which performs `ops` operations."""
    body()
    t0 = time.perf_counter()
    body()
    once = max(time.perf_counter() - t0, 1e-6)
    loops = max(1, round(TARGET_S / once))
    samples = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        for _ in range(loops):
            body()
        samples.append((time.perf_counter() - t0) / (loops * ops))
    return statistics.median(samples)


def _dense(rng: random.Random, size: int, bits: int) -> list[list[int]]:
    return [[rng.getrandbits(bits) for _ in range(size)] for _ in range(size)]


def _sparse(rng: random.Random, size: int, bits: int) -> list[list[int]]:
    """Bipartite sieve matrix: a hidden perfect matching plus two random
    entries per row, three nonzeros a row as in the kdm workload."""
    mat = [[0] * size for _ in range(size)]
    perm = rng.sample(range(size), size)
    for r in range(size):
        for c in (perm[r], rng.randrange(size), rng.randrange(size)):
            mat[r][c] ^= rng.getrandbits(bits)
    return mat


def run(gf, linalg) -> dict[str, float]:
    rng = random.Random(MICRO_SEED)
    bits = gf.m
    pairs = [(rng.getrandbits(bits), rng.getrandbits(bits)) for _ in range(256)]
    nonzero = [a or 1 for a, _ in pairs]
    mul, inv = gf.mul, gf.inv
    out = {
        "gf2m.mul_ns": _per_op(lambda: [mul(a, b) for a, b in pairs], len(pairs)) * 1e9,
        "gf2m.inv_ns": _per_op(lambda: [inv(a) for a in nonzero], len(nonzero)) * 1e9,
    }
    for size in DET_SIZES:
        for kind, make in (("dense", _dense), ("sparse", _sparse)):
            mats = [make(rng, size, bits) for _ in range(4)]
            out[f"linalg.det_{kind}{size}_us"] = _per_op(
                lambda: [linalg.determinant(m, gf) for m in mats], len(mats)) * 1e6
    points = [(x, rng.getrandbits(bits)) for x in range(1, INTERP_DEGREE + 2)]
    out[f"linalg.interp{INTERP_DEGREE}_us"] = _per_op(
        lambda: linalg.interpolate(points, INTERP_DEGREE, gf), 1) * 1e6
    return out
