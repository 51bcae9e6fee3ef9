"""Slow exact references the randomized solver is checked against.

dlx_count / dlx_enumerate run Knuth's dancing-links Algorithm X on the
vertex/edge incidence matrix, so they count or list exact covers without
any randomness.  ie_count recounts them by inclusion-exclusion over
avoided vertex sets, an entirely different route that doubles as a check
on the sieve's combinatorial identity.
"""

from __future__ import annotations

import math

from .hypergraph import Hypergraph


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
