"""Slow exact references the randomized solver is checked against.

dlx_count / dlx_enumerate run Knuth's dancing-links Algorithm X on the
vertex/edge incidence matrix, so they count or list exact covers without
any randomness.  ie_count recounts them by inclusion-exclusion over
avoided vertex sets, an entirely different route that doubles as a check
on the sieve's combinatorial identity.  enumerate_matchings and
cover_weight_brute recompute the determinant-based quantities of
matchweight by explicit enumeration; both carry hard size guards because
they are exponential on purpose.
"""

from __future__ import annotations

import itertools
import math

from .gf2m import GF2m
from .hypergraph import Hypergraph, ProjectedView


class _Column:
    __slots__ = ("name", "size", "up", "down", "left", "right")

    def __init__(self, name: int):
        self.name = name
        self.size = 0
        self.up = self.down = self
        self.left = self.right = self


class _Node:
    __slots__ = ("row", "column", "up", "down", "left", "right")

    def __init__(self, row: int, column: _Column):
        self.row = row
        self.column = column
        self.up = self.down = self
        self.left = self.right = self


def _build_dlx(H: Hypergraph):
    root = _Column(-1)
    columns = []
    for v in range(H.n):
        col = _Column(v)
        col.left = root.left
        col.right = root
        root.left.right = col
        root.left = col
        columns.append(col)
    for eid, e in enumerate(H.edges):
        first = None
        for v in sorted(e):
            col = columns[v]
            node = _Node(eid, col)
            node.up = col.up
            node.down = col
            col.up.down = node
            col.up = node
            col.size += 1
            if first is None:
                first = node
            else:
                node.left = first.left
                node.right = first
                first.left.right = node
                first.left = node
    return root


def _cover(col: _Column) -> None:
    col.right.left = col.left
    col.left.right = col.right
    i = col.down
    while i is not col:
        j = i.right
        while j is not i:
            j.down.up = j.up
            j.up.down = j.down
            j.column.size -= 1
            j = j.right
        i = i.down


def _uncover(col: _Column) -> None:
    i = col.up
    while i is not col:
        j = i.left
        while j is not i:
            j.column.size += 1
            j.down.up = j
            j.up.down = j
            j = j.left
        i = i.up
    col.right.left = col
    col.left.right = col


def _search(root: _Column, partial: list[int]):
    if root.right is root:
        yield sorted(partial)
        return
    # smallest column, ties broken by lowest vertex id
    col = root.right
    best = col
    while col is not root:
        if col.size < best.size or (col.size == best.size and col.name < best.name):
            best = col
        col = col.right
    if best.size == 0:
        return
    _cover(best)
    r = best.down
    while r is not best:
        partial.append(r.row)
        j = r.right
        while j is not r:
            _cover(j.column)
            j = j.right
        yield from _search(root, partial)
        j = r.left
        while j is not r:
            _uncover(j.column)
            j = j.left
        partial.pop()
        r = r.down
    _uncover(best)


def dlx_enumerate(H: Hypergraph) -> list[list[int]]:
    """All exact covers, each a sorted list of edge ids.

    Duplicate edges give duplicate covers: the multiset semantics count
    edge ids, not edge vertex sets.
    """
    if H.n == 0:
        return [[]]
    return list(_search(_build_dlx(H), []))


def dlx_count(H: Hypergraph) -> int:
    """Number of exact covers (edge-id families, so multiplicity-aware)."""
    if H.n == 0:
        return 1
    return sum(1 for _ in _search(_build_dlx(H), []))


def ie_count(H: Hypergraph) -> int:
    """Exact cover count by inclusion-exclusion over avoided vertex sets.

    For each X, d(X) edges avoid X and contribute C(d(X), n/k) candidate
    families; signs by |X| parity leave exactly the families covering
    every vertex.  Exponential in n (2^n terms).  No cover exists when k
    does not divide n.
    """
    if H.n % H.k != 0:
        return 0
    need = H.n // H.k
    masks = H.edge_masks
    comb = [math.comb(d, need) for d in range(len(masks) + 1)]
    total = 0
    for x in range(1 << H.n):
        d = sum(1 for mk in masks if not mk & x)
        if x.bit_count() & 1:
            total -= comb[d]
        else:
            total += comb[d]
    return total


def enumerate_matchings(view: ProjectedView, weights, gf: GF2m) -> list[tuple[int, int]]:
    """Every perfect matching of the view's U-multigraph, explicitly.

    Returns (loop count, weight) per matching, weight being the product
    of loop weights and squared pair weights.  Covers each vertex with
    the lowest uncovered one first, so each matching appears exactly
    once.  Guarded to |U| <= 12.
    """
    if view.dropped:
        raise ValueError("view still contains dropped edges")
    u = view.u_size
    if u > 12:
        raise ValueError(f"|U| = {u} exceeds the enumeration guard of 12")
    pairs_at: list[list[tuple[int, int]]] = [[] for _ in range(u)]
    loops_at: list[list[int]] = [[] for _ in range(u)]
    for eid, i, j in view.pairs:
        pairs_at[i].append((eid, j))
        pairs_at[j].append((eid, i))
    for eid, i in view.loops:
        loops_at[i].append(eid)
    full = (1 << u) - 1
    out: list[tuple[int, int]] = []

    def extend(covered: int, loop_ct: int, edge_ct: int, weight: int) -> None:
        if covered == full:
            # every matching with i loops uses (|U| + i) / 2 edges
            assert 2 * edge_ct == u + loop_ct
            out.append((loop_ct, weight))
            return
        v = ((covered + 1) & ~covered).bit_length() - 1  # lowest uncovered
        bit = 1 << v
        for eid in loops_at[v]:
            extend(covered | bit, loop_ct + 1, edge_ct + 1, gf.mul(weight, weights[eid]))
        for eid, w in pairs_at[v]:
            if covered & (1 << w):
                continue
            sq = gf.mul(weights[eid], weights[eid])
            extend(covered | bit | (1 << w), loop_ct, edge_ct + 1, gf.mul(weight, sq))

    extend(0, 0, 0, 1)
    return out


def cover_weight_brute(H: Hypergraph, u_vertices, x_vertices, weights, gf: GF2m) -> int:
    """Probe value by direct enumeration of n/k-edge families.

    A family contributes iff it avoids X, covers U, and is disjoint on U;
    its weight doubles the exponent of edges meeting U twice.  Guarded to
    |E| <= 24.
    """
    if len(H.edges) > 24:
        raise ValueError(f"|E| = {len(H.edges)} exceeds the enumeration guard of 24")
    if H.n % H.k != 0:
        raise ValueError(f"n={H.n} is not a multiple of k={H.k}")
    need = H.n // H.k
    u_set = set(u_vertices)
    x_mask = 0
    for v in x_vertices:
        x_mask |= 1 << v
    if u_set & set(x_vertices):
        raise ValueError("X overlaps U")
    masks = H.edge_masks
    surviving = [eid for eid in range(len(H.edges)) if not masks[eid] & x_mask]
    u_mask_full = 0
    for v in u_set:
        u_mask_full |= 1 << v
    u_masks = [masks[eid] & u_mask_full for eid in range(len(H.edges))]

    total = 0
    for family in itertools.combinations(surviving, need):
        seen = 0
        ok = True
        for eid in family:
            um = u_masks[eid]
            if um & seen:  # meets U where a prior family edge already did
                ok = False
                break
            seen |= um
        if not ok or seen != u_mask_full:
            continue
        weight = 1
        for eid in family:
            w = weights[eid]
            if u_masks[eid].bit_count() == 2:
                w = gf.mul(w, w)
            weight = gf.mul(weight, w)
        total ^= weight
    return total
