"""k-uniform hypergraph instances and U-projections.

An instance is n vertices (dense ids 0..n-1) plus a list of k-edges kept
as sorted tuples; the list may repeat an edge (multiset semantics, edge
id = list position).  Matching-style instances additionally carry a
partition of the vertices into k equal blocks, and a legal edge then
meets every block exactly once.

The on-disk form is one line of JSON:

    {"k":3,"n":9,"edges":[[0,1,2],[3,4,5],[6,7,8]],"partition":[[0,1,2],...]}

with "partition" optional.  serialize() emits exactly this key order with
compact separators, so equal instances produce byte-identical documents.

A ProjectedView classifies every edge by how it meets a chosen vertex set
U: twice (pairs), once (loops), not at all (empties), or three-plus times
(dropped).  The solver only ever sieves instances whose dropped list is
empty.  Views are cheap throwaway values: the general sieve projects once
per U, and for each avoided set X its walk yields, restrict_avoiding
drops the edges meeting X by their vertex bitmasks.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field


class ParseError(ValueError):
    """Malformed or invalid instance document."""


@dataclass
class Violation:
    """One structural problem found by validate()."""

    kind: str
    message: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


@dataclass
class Hypergraph:
    n: int
    k: int
    edges: list[tuple[int, ...]]
    partition: list[tuple[int, ...]] | None = None

    @functools.cached_property
    def edge_masks(self) -> list[int]:
        """Per-edge vertex bitmask; bit v set iff vertex v is in the edge."""
        return [_mask(e) for e in self.edges]


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def validate(H: Hypergraph) -> Violation | None:
    """First structural violation, or None for a well-formed instance."""
    if not isinstance(H.n, int) or not isinstance(H.k, int):
        return Violation("shape", "n and k must be integers")
    if H.k < 2:
        return Violation("shape", f"k must be at least 2, got {H.k}")
    if H.n < 0:
        return Violation("shape", f"n must be nonnegative, got {H.n}")
    for eid, e in enumerate(H.edges):
        if len(e) != H.k:
            return Violation("arity", f"edge {eid} has {len(e)} vertices, expected {H.k}")
        for v in e:
            if not isinstance(v, int) or isinstance(v, bool):
                return Violation("vertex-range", f"edge {eid} has non-integer vertex {v!r}")
            if v < 0 or v >= H.n:
                return Violation("vertex-range", f"edge {eid} vertex {v} outside 0..{H.n - 1}")
        if len(set(e)) != H.k:
            return Violation("repeated-vertex", f"edge {eid} repeats a vertex")
    if H.partition is not None:
        for b, block in enumerate(H.partition):
            for v in block:
                if not isinstance(v, int) or isinstance(v, bool):
                    return Violation("vertex-range",
                                     f"partition block {b} has non-integer vertex {v!r}")
        if H.n % H.k != 0:
            return Violation("partition-shape", f"n={H.n} is not divisible by k={H.k}")
        if len(H.partition) != H.k:
            return Violation("partition-shape",
                             f"partition has {len(H.partition)} blocks, expected {H.k}")
        size = H.n // H.k
        seen: set[int] = set()
        for b, block in enumerate(H.partition):
            if len(block) != size:
                return Violation("partition-shape",
                                 f"block {b} has {len(block)} vertices, expected {size}")
            seen.update(block)
        if seen != set(range(H.n)):
            return Violation("partition-cover", "blocks do not partition the vertex set")
        home = [0] * H.n        # home[v]: the block holding v
        for b, block in enumerate(H.partition):
            for v in block:
                home[v] = b
        for eid, e in enumerate(H.edges):
            met = [home[v] for v in e]
            if len(set(met)) < H.k:  # k vertices in fewer than k blocks
                b = next(b for b in range(H.k) if met.count(b) != 1)
                return Violation("partition-meet",
                                 f"edge {eid} meets block {b} {met.count(b)} times, expected once")
    return None


@dataclass
class ProjectedView:
    """Edges of an instance classified by intersection size with U.

    Dense indices 0..|U|-1 refer to positions in u_order (ascending).
    pairs holds (edge id, i, j) with i < j, loops holds (edge id, i),
    empties and dropped hold bare edge ids.
    """

    u_order: tuple[int, ...]
    pairs: list[tuple[int, int, int]] = field(default_factory=list)
    loops: list[tuple[int, int]] = field(default_factory=list)
    empties: list[int] = field(default_factory=list)
    dropped: list[int] = field(default_factory=list)

    @property
    def u_size(self) -> int:
        return len(self.u_order)

    @functools.cached_property
    def u_mask(self) -> int:
        return _mask(self.u_order)


def project(H: Hypergraph, u_vertices) -> ProjectedView:
    """Classify every edge of H against the vertex set U."""
    u_order = tuple(sorted(set(u_vertices)))
    if u_order and (u_order[0] < 0 or u_order[-1] >= H.n):
        raise ValueError("U is not a subset of the vertex set")
    index = {v: i for i, v in enumerate(u_order)}
    view = ProjectedView(u_order)
    for eid, e in enumerate(H.edges):
        hits = sorted(index[v] for v in e if v in index)
        if not hits:
            view.empties.append(eid)
        elif len(hits) == 1:
            view.loops.append((eid, hits[0]))
        elif len(hits) == 2:
            view.pairs.append((eid, hits[0], hits[1]))
        else:
            view.dropped.append(eid)
    return view


def restrict_avoiding(view: ProjectedView, H: Hypergraph, x_mask: int) -> ProjectedView:
    """Copy of the view without any edge that meets the avoided set X.

    X is a vertex bitmask (bit v set iff v is in X).  X lives outside U,
    so classification of surviving edges is unchanged; they are only kept
    or removed wholesale.
    """
    if x_mask & view.u_mask:
        raise ValueError("X overlaps U")
    if x_mask >> H.n:
        raise ValueError("X is not a subset of the vertex set")
    masks = H.edge_masks
    return ProjectedView(
        view.u_order,
        [p for p in view.pairs if not masks[p[0]] & x_mask],
        [l for l in view.loops if not masks[l[0]] & x_mask],
        [e for e in view.empties if not masks[e] & x_mask],
        [e for e in view.dropped if not masks[e] & x_mask],
    )


def parse(text: str) -> Hypergraph:
    """Instance from a JSON document; validates before returning."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    for key in ("k", "n", "edges"):
        if key not in doc:
            raise ParseError(f"missing required key {key!r}")
    k, n, edges = doc["k"], doc["n"], doc["edges"]
    if not isinstance(k, int) or isinstance(k, bool):
        raise ParseError("k must be an integer")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError("n must be an integer")
    if not isinstance(edges, list) or any(not isinstance(e, list) for e in edges):
        raise ParseError("edges must be a list of lists")
    partition = doc.get("partition")
    if partition is not None:
        if not isinstance(partition, list) or any(not isinstance(b, list) for b in partition):
            raise ParseError("partition must be a list of lists")
    # validate before sorting: sorted() raises TypeError on mixed vertex types
    violation = validate(Hypergraph(n, k, edges, partition))
    if violation is not None:
        raise ParseError(str(violation))
    if partition is not None:
        partition = [tuple(sorted(b)) for b in partition]
    return Hypergraph(n, k, [tuple(sorted(e)) for e in edges], partition)


def serialize(H: Hypergraph) -> str:
    """Canonical single-line JSON for the instance."""
    doc: dict = {"k": H.k, "n": H.n, "edges": [list(e) for e in H.edges]}
    if H.partition is not None:
        doc["partition"] = [list(b) for b in H.partition]
    return json.dumps(doc, separators=(",", ":"))


def generate(rng: random.Random, k: int, n: int, edge_count: int,
             plant: bool = False, kdm: bool = False) -> Hypergraph:
    """Random instance; with plant=True a perfect cover is hidden inside.

    kdm=True adds the k contiguous equal blocks as a partition and draws
    every edge with one vertex per block.  Deterministic given the rng
    state.  Raises ValueError for infeasible combinations (n not a
    multiple of k when a partition or plant is requested, edge budget
    smaller than a planted cover, edges on an empty vertex set).
    """
    if k < 2 or n < 0 or edge_count < 0:
        raise ValueError("need k >= 2, n >= 0, edge_count >= 0")
    if (plant or kdm) and n % k != 0:
        raise ValueError(f"n={n} is not a multiple of k={k}")
    if n == 0 and edge_count > 0:
        raise ValueError("cannot draw edges on an empty vertex set")
    cover_size = n // k
    if plant and edge_count < cover_size:
        raise ValueError(f"planting needs at least {cover_size} edges")

    partition = None
    edges: list[tuple[int, ...]] = []
    if kdm:
        size = n // k
        partition = [tuple(range(b * size, (b + 1) * size)) for b in range(k)]
        if plant:
            perms = [rng.sample(block, size) for block in partition]
            edges += [tuple(sorted(perms[b][j] for b in range(k))) for j in range(size)]
        while len(edges) < edge_count:
            edges.append(tuple(sorted(rng.choice(block) for block in partition)))
    else:
        if plant and n:
            order = rng.sample(range(n), n)
            edges += [tuple(sorted(order[j * k:(j + 1) * k])) for j in range(cover_size)]
        while len(edges) < edge_count:
            edges.append(tuple(sorted(rng.sample(range(n), k))))
    rng.shuffle(edges)
    H = Hypergraph(n, k, edges, partition)
    violation = validate(H)
    assert violation is None, violation
    return H
