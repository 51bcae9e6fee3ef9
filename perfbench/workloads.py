"""Workloads of the detcover benchmark and the instance documents they run.

Every workload is k = 3 over GF(2^64) with epsilon 2^-20.  Instances are
drawn here from the workload seed, not by detcover.generate, so that a
change to the program's own generator cannot change what is measured; the
program only ever sees the serialized documents.

The instance stream depends on the instance shape and the seed, never on
the workload name, so kdm and kdm_2w run the same instances with the same
solver seeds.  A run's list holds the first `count` documents of the
stream; a longer list only appends, so the first solves of a workload and
seed are the same at every --seconds.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

K = 3
FIELD_DEGREE = 64
EPSILON = 2.0 ** -20


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str          # solver: "kdm" (partitioned) or "xkc"
    n: int
    edges: int
    planted: bool      # hide a perfect cover; unplanted lists keep only no-instances
    threads: int
    rate: float        # list length per --second, about 0.8 of the seed code's solve rate
    smoke_n: int       # vertex count of the tiny smoke variant


# Why each workload exists is recorded in BENCHMARK.json.  kdm_2w is the
# only workload that runs the thread fan-out over X ranges; its timings
# swing by up to a quarter between runs on a 2-core machine, so it is left
# out of BENCHMARK.json and the traced runs of every workload report the
# fan-out as solver.speedup_2w instead.
WORKLOADS = {w.name: w for w in (
    Workload("kdm", "kdm", 42, 42, True, 1, 1.5, 12),
    Workload("kdm_2w", "kdm", 42, 42, True, 2, 1.5, 12),
    Workload("xkc_yes", "xkc", 18, 18, True, 1, 4.0, 9),
    Workload("xkc_no", "xkc", 15, 15, False, 1, 0.8, 9),
)}

MIN_COUNT = 6          # at least the solves that the committed digests cover
SMOKE_COUNT = 3


@dataclass
class Instance:
    doc: str           # serialized document handed to detcover.parse
    solver_seed: int
    has_cover: bool    # the benchmark's own exact-cover search


def list_size(w: Workload, seconds: float, smoke: bool) -> int:
    if smoke:
        return SMOKE_COUNT
    return max(MIN_COUNT, math.ceil(w.rate * seconds))


def instances(w: Workload, seed: int, count: int, smoke: bool) -> list[Instance]:
    """The first `count` instances of the workload's stream for `seed`."""
    n = w.smoke_n if smoke else w.n
    edges = n if smoke else w.edges
    rng = random.Random(f"detcover-bench/{w.mode}/{n}/{edges}/{w.planted}/{seed}")
    out = []
    while len(out) < count:
        if w.mode == "kdm":
            doc = _kdm_doc(rng, n, edges)
        else:
            doc = _xkc_doc(rng, n, edges, w.planted)
        cover = has_cover(doc["n"], doc["edges"])
        if not w.planted and (cover or _uncovered(doc)):
            continue  # refutation list: keep instances that touch every vertex and have no cover
        out.append(Instance(json.dumps(doc, separators=(",", ":")),
                            rng.getrandbits(32), cover))
    return out


def _kdm_doc(rng: random.Random, n: int, edges: int) -> dict:
    size = n // K
    blocks = [list(range(b * size, (b + 1) * size)) for b in range(K)]
    perms = [rng.sample(block, size) for block in blocks]
    chosen = [sorted(p[j] for p in perms) for j in range(size)]
    while len(chosen) < edges:
        chosen.append(sorted(rng.choice(block) for block in blocks))
    rng.shuffle(chosen)
    return {"k": K, "n": n, "edges": chosen, "partition": blocks}


def _xkc_doc(rng: random.Random, n: int, edges: int, planted: bool) -> dict:
    chosen = []
    if planted:
        order = rng.sample(range(n), n)
        chosen = [sorted(order[j:j + K]) for j in range(0, n, K)]
    while len(chosen) < edges:
        chosen.append(sorted(rng.sample(range(n), K)))
    rng.shuffle(chosen)
    return {"k": K, "n": n, "edges": chosen}


def _uncovered(doc: dict) -> bool:
    return len({v for e in doc["edges"] for v in e}) < doc["n"]


def has_cover(n: int, edges) -> bool:
    """Exact-cover existence by branching on the lowest uncovered vertex.

    Independent of detcover.oracle, so the answer key is checked too.
    """
    masks = [sum(1 << v for v in e) for e in edges]
    full = (1 << n) - 1

    def search(covered: int) -> bool:
        if covered == full:
            return True
        low = ~covered & (covered + 1)
        return any(m & low and not m & covered and search(covered | m) for m in masks)

    return search(0)
