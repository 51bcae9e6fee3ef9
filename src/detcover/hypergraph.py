"""k-uniform hypergraph instances and U-projections.

An instance is n vertices (dense ids 0..n-1) plus a list of k-edges kept
as sorted tuples; the list may repeat an edge (multiset semantics, edge
id = list position).  Matching-style instances additionally carry a
partition of the vertices into k equal blocks, and a legal edge then
meets every block exactly once.  An instance is validated once, when it
is built: Hypergraph raises ValueError("kind: message") on a violation.

The on-disk form is one line of JSON:

    {"k":3,"n":9,"edges":[[0,1,2],[3,4,5],[6,7,8]],"partition":[[0,1,2],...]}

with "partition" optional.  serialize() emits exactly this key order with
compact separators, so equal instances produce byte-identical documents.

A ProjectedView classifies every edge by how it meets a chosen vertex set
U: twice (pairs), once (loops) or not at all (empties).  project refuses
an edge that meets U three or more times: such an edge lies in no cover
the sieve counts, and the solver leaves it out before it projects.
Views are cheap throwaway values: the general sieve projects once per U,
and for each avoided set X its walk yields, restrict_avoiding drops the
edges meeting X by their vertex bitmasks.
"""

from __future__ import annotations

import copy
import functools
import json
import random
from dataclasses import dataclass, field


class ParseError(ValueError):
    """Malformed or invalid instance document."""


@dataclass
class Hypergraph:
    """A well-formed instance in canonical form: construction validates
    it, then sorts each edge and each partition block into a tuple.  It
    is not mutated afterwards (edge_masks caches the edges); keep()
    builds a sub-instance without checking it again."""

    n: int
    k: int
    edges: list[tuple[int, ...]]
    partition: list[tuple[int, ...]] | None = None

    def __post_init__(self):
        validate(self)  # before sorting: sorted() raises TypeError on mixed vertex types
        self.edges = [tuple(sorted(e)) for e in self.edges]
        if self.partition is not None:
            self.partition = [tuple(sorted(b)) for b in self.partition]

    @functools.cached_property
    def edge_masks(self) -> list[int]:
        """Per-edge vertex bitmask; bit v set iff vertex v is in the edge."""
        return [_mask(e) for e in self.edges]

    def keep(self, ids) -> Hypergraph:
        """The instance of the edges `ids` with the same vertices, partition
        and masks; a multiset of valid edges is valid, so it is not checked."""
        sub = copy.copy(self)
        sub.edges = [self.edges[i] for i in ids]
        sub.edge_masks = [self.edge_masks[i] for i in ids]
        return sub


def _mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def validate(H: Hypergraph) -> None:
    """Raise ValueError("kind: message") on the first structural
    violation; return None for a well-formed instance."""
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (H.n, H.k)):
        raise ValueError("shape: n and k must be integers")
    if H.k < 2:
        raise ValueError(f"shape: k must be at least 2, got {H.k}")
    if H.n < 0:
        raise ValueError(f"shape: n must be nonnegative, got {H.n}")
    for eid, e in enumerate(H.edges):
        if len(e) != H.k:
            raise ValueError(f"arity: edge {eid} has {len(e)} vertices, expected {H.k}")
        for v in e:
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"vertex-range: edge {eid} has non-integer vertex {v!r}")
            if v < 0 or v >= H.n:
                raise ValueError(f"vertex-range: edge {eid} vertex {v} outside 0..{H.n - 1}")
        if len(set(e)) != H.k:
            raise ValueError(f"repeated-vertex: edge {eid} repeats a vertex")
    if H.partition is not None:
        for b, block in enumerate(H.partition):
            for v in block:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ValueError(f"vertex-range: partition block {b} "
                                     f"has non-integer vertex {v!r}")
        if H.n % H.k != 0:
            raise ValueError(f"partition-shape: n={H.n} is not divisible by k={H.k}")
        if len(H.partition) != H.k:
            raise ValueError(f"partition-shape: partition has {len(H.partition)} blocks, "
                             f"expected {H.k}")
        size = H.n // H.k
        seen: set[int] = set()
        for b, block in enumerate(H.partition):
            if len(block) != size:
                raise ValueError(f"partition-shape: block {b} has {len(block)} vertices, "
                                 f"expected {size}")
            seen.update(block)
        if seen != set(range(H.n)):
            raise ValueError("partition-cover: blocks do not partition the vertex set")
        home = [0] * H.n        # home[v]: the block holding v
        for b, block in enumerate(H.partition):
            for v in block:
                home[v] = b
        for eid, e in enumerate(H.edges):
            met = [home[v] for v in e]
            if len(set(met)) < H.k:  # k vertices in fewer than k blocks
                b = next(b for b in range(H.k) if met.count(b) != 1)
                raise ValueError(f"partition-meet: edge {eid} meets block {b} "
                                 f"{met.count(b)} times, expected once")


@dataclass
class ProjectedView:
    """Edges of an instance classified by intersection size with U.

    Dense indices 0..|U|-1 refer to positions in u_order (ascending).
    pairs holds (edge id, i, j) with i < j, loops holds (edge id, i),
    empties holds bare edge ids.  No edge meets U more than twice.
    """

    u_order: tuple[int, ...]
    pairs: list[tuple[int, int, int]] = field(default_factory=list)
    loops: list[tuple[int, int]] = field(default_factory=list)
    empties: list[int] = field(default_factory=list)

    @property
    def u_size(self) -> int:
        return len(self.u_order)

    @functools.cached_property
    def u_mask(self) -> int:
        return _mask(self.u_order)


def project(H: Hypergraph, u_vertices) -> ProjectedView:
    """Classify every edge of H against the vertex set U; ValueError if
    an edge meets U more than twice."""
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
            raise ValueError(f"edge {eid} meets U more than twice")
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
    )


def parse(text: str) -> Hypergraph:
    """Instance from a JSON document; ParseError if it is malformed or
    the instance it names is invalid."""
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
    if not isinstance(edges, list) or any(not isinstance(e, list) for e in edges):
        raise ParseError("edges must be a list of lists")
    partition = doc.get("partition")
    if partition is not None:
        if not isinstance(partition, list) or any(not isinstance(b, list) for b in partition):
            raise ParseError("partition must be a list of lists")
    try:
        return Hypergraph(n, k, edges, partition)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


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
            edges += [tuple(perms[b][j] for b in range(k)) for j in range(size)]
        while len(edges) < edge_count:
            edges.append(tuple(rng.choice(block) for block in partition))
    else:
        if plant and n:
            order = rng.sample(range(n), n)
            edges += [tuple(order[j * k:(j + 1) * k]) for j in range(cover_size)]
        while len(edges) < edge_count:
            edges.append(tuple(rng.sample(range(n), k)))
    rng.shuffle(edges)
    return Hypergraph(n, k, edges, partition)
