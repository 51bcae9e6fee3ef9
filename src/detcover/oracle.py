"""Slow exact references the randomized solver is checked against.

dlx_count / dlx_enumerate run Knuth's Algorithm X on edge bitsets, with
the column and row order of his dancing links, so they count or list
exact covers without any randomness.  ie_count recounts them by
inclusion-exclusion over avoided vertex sets, an entirely different
route that doubles as a check on the sieve's combinatorial identity.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import or_

from .hypergraph import Hypergraph


def _covers(H: Hypergraph):
    """Knuth's Algorithm X on bitsets: inc[v] holds the ids of the edges
    that hold vertex v, clash[e] those that meet edge e, and `live` those
    that avoid every chosen edge.  Each node branches on the open vertex
    in the fewest live edges (lowest id on ties) and tries its live edges
    in id order, the column and row order of dancing links.  The search
    recurses once per chosen edge, so a cover too deep for Python's
    recursion limit raises ValueError."""
    masks = H.edge_masks
    inc = [0] * H.n
    for e, edge in enumerate(H.edges):
        for v in edge:
            inc[v] |= 1 << e
    clash = [reduce(or_, (inc[v] for v in edge), 0) for edge in H.edges]

    def search(open_vertices, live, chosen):
        if not open_vertices:
            yield sorted(chosen)
            return
        best = min((v for v in range(H.n) if open_vertices >> v & 1),
                   key=lambda v: (inc[v] & live).bit_count())
        options = inc[best] & live
        while options:
            e = (options & -options).bit_length() - 1
            options &= options - 1
            chosen.append(e)
            yield from search(open_vertices & ~masks[e], live & ~clash[e], chosen)
            chosen.pop()

    try:
        yield from search((1 << H.n) - 1, (1 << len(masks)) - 1, [])
    except RecursionError:
        raise ValueError(f"a cover of n={H.n} is too deep for the exact search "
                         f"({H.n // H.k} nested edge choices)") from None


def dlx_enumerate(H: Hypergraph) -> list[list[int]]:
    """All exact covers, each a sorted list of edge ids.

    Duplicate edges give duplicate covers: the multiset semantics count
    edge ids, not edge vertex sets.
    """
    return list(_covers(H))


def dlx_count(H: Hypergraph) -> int:
    """Number of exact covers (edge-id families, so multiplicity-aware)."""
    return sum(1 for _ in _covers(H))


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
