"""Shared helpers: independent reference implementations the package is
checked against.  Everything here deliberately avoids the production code
paths (different multiplication loop, cofactor instead of elimination,
explicit enumeration instead of determinants)."""

from __future__ import annotations

import itertools
import math
import random

from detcover import (GF2m, Hypergraph, ParamRow, ProjectedView, dlx_enumerate,
                      generate, runtime_base)


def rand_instance(rng: random.Random, k: int, n: int, max_edges: int,
                  plant_prob: float = 0.5, min_edges: int = 0,
                  kdm: bool = False) -> Hypergraph:
    """Random instance; plants a cover with the given probability whenever
    the drawn edge budget can hold one."""
    edges = rng.randint(min_edges, max_edges)
    plant = edges >= n // k and rng.random() < plant_prob
    return generate(rng, k, n, edges, plant=plant, kdm=kdm)


def ref_optimize(k: int) -> ParamRow:
    """The exponent optimizer as a plain scan: every point of the four
    shrinking grids, clamped repeats included, through runtime_base; a
    point replaces the incumbent only if its base is strictly smaller."""
    best = (math.inf, 0.0, 0.0)
    lo12, lo2 = 0.0, 0.0
    span = 1.0
    step = 0.02
    for _ in range(4):
        steps = round(span / step)
        for i in range(steps + 1):
            t12 = min(lo12 + i * step, 1.0)
            for j in range(steps + 1):
                t2 = min(lo2 + j * step, t12)
                c = runtime_base(k, t12, t2)
                if c < best[0]:
                    best = (c, t12, t2)
        _, b12, b2 = best
        lo12 = max(0.0, b12 - 2 * step)
        lo2 = max(0.0, b2 - 2 * step)
        span = 4 * step
        step /= 10
    c, tau12, tau2 = best
    t = (tau12 + tau2) / k
    return ParamRow(k=k, tau12=tau12, tau2=tau2, t=t,
                    attempt_base=c / 2.0 ** (1.0 - t), base=c)


def ref_mul(a: int, b: int, m: int, reduction: int) -> int:
    """Product in GF(2^m) by interleaved shift-and-reduce.

    Walks the bits of b from the low end, doubling a modulo the reduction
    polynomial at every step; no windowing, no deferred fold.
    """
    mask = (1 << m) - 1
    low = reduction & mask
    top = 1 << (m - 1)
    p = 0
    while b:
        if b & 1:
            p ^= a
        b >>= 1
        carry = a & top
        a = (a << 1) & mask
        if carry:
            a ^= low
    return p


def ref_det(mat, gf) -> int:
    """Determinant by cofactor expansion along the first row.

    No signs in characteristic 2, so this is also the permanent.
    """
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    total = 0
    for j, v in enumerate(mat[0]):
        if not v:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total ^= gf.mul(v, ref_det(minor, gf))
    return total


class CountingField:
    """A field with its multiplications and inversions counted."""

    def __init__(self, gf):
        self.gf = gf
        self.m = gf.m
        self.mul_calls = 0
        self.inv_calls = 0

    def mul(self, a, b):
        self.mul_calls += 1
        return self.gf.mul(a, b)

    def inv(self, a):
        self.inv_calls += 1
        return self.gf.inv(a)


def build_tutte(view: ProjectedView, weights, s: int, gf) -> list[list[int]]:
    """Symmetric matching matrix of a view at diagonal scale s.

    Entry (i, j), i != j, XORs the weights of the pairs joining U
    positions i and j; diagonal entry i is s times the XOR of the loop
    weights at i.  Its determinant is sum_i M_i s^i, evaluated at one s.
    """
    u = view.u_size
    mat = [[0] * u for _ in range(u)]
    for eid, i, j in view.pairs:
        w = weights[eid]
        mat[i][j] ^= w
        mat[j][i] ^= w
    loop_sums = [0] * u
    for eid, i in view.loops:
        loop_sums[i] ^= weights[eid]
    for i, w in enumerate(loop_sums):
        mat[i][i] = gf.mul(s, w)
    return mat


def enumerate_matchings(view: ProjectedView, weights, gf: GF2m) -> list[tuple[int, int]]:
    """Every perfect matching of the view's U-multigraph, explicitly.

    Returns (loop count, weight) per matching, weight being the product
    of loop weights and squared pair weights.  Covers each vertex with
    the lowest uncovered one first, so each matching appears exactly
    once.  Guarded to |U| <= 12.
    """
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


def rand_matrix(rng: random.Random, size: int, gf) -> list[list[int]]:
    return [[gf.sample(rng) for _ in range(size)] for _ in range(size)]


def family_weight(H: Hypergraph, edge_ids, u_mask: int, weights, gf) -> int:
    """Product of the family's edge weights, squaring edges that meet the
    distinguished vertex set twice."""
    term = 1
    for eid in edge_ids:
        w = weights[eid]
        if (H.edge_masks[eid] & u_mask).bit_count() == 2:
            w = gf.mul(w, w)
        term = gf.mul(term, w)
    return term


def covers_weight_sum(H: Hypergraph, u_vertices, weights, gf) -> int:
    """XOR of family_weight over every exact cover, covers listed by the
    Algorithm X oracle (dlx_enumerate).  This is the quantity the sieve
    computes."""
    u_mask = 0
    for v in u_vertices:
        u_mask |= 1 << v
    total = 0
    for cover in dlx_enumerate(H):
        total ^= family_weight(H, cover, u_mask, weights, gf)
    return total


def filtered_for(H: Hypergraph, u_vertices) -> Hypergraph:
    """Copy of H without the edges meeting the vertex set three+ times."""
    u_mask = 0
    for v in u_vertices:
        u_mask |= 1 << v
    keep = [e for e, mk in enumerate(H.edge_masks) if (mk & u_mask).bit_count() <= 2]
    return Hypergraph(H.n, H.k, [H.edges[e] for e in keep])


def edge_parts(H: Hypergraph, ids) -> list[list[int]]:
    """The connected components of H's edges `ids`, two edges joined when
    they share a vertex, in the order of their first edge in `ids`: each
    its edge ids, increasing.  Breadth first over a vertex -> edges table."""
    holding = {}
    for e in ids:
        for v in H.edges[e]:
            holding.setdefault(v, []).append(e)
    parts, placed = [], set()
    for e in ids:
        if e in placed:
            continue
        placed.add(e)
        queue = [e]
        for f in queue:  # the queue grows while it is walked
            for v in H.edges[f]:
                for g in holding[v]:
                    if g not in placed:
                        placed.add(g)
                        queue.append(g)
        parts.append(sorted(queue))
    return parts


def edge_components(H: Hypergraph, ids) -> list[tuple[list[int], Hypergraph]]:
    """The edge_parts of H's edges `ids`, each as (its edge ids; the
    instance of those edges on the vertices they hold, relabelled 0.. in
    increasing order, with every partition block, if any, cut to them)."""
    out = []
    for part in edge_parts(H, ids):
        vertices = sorted({v for f in part for v in H.edges[f]})
        label = {v: i for i, v in enumerate(vertices)}
        blocks = None if H.partition is None else [
            tuple(label[v] for v in block if v in label) for block in H.partition]
        out.append((part, Hypergraph(len(vertices), H.k,
                                     [tuple(label[v] for v in H.edges[f]) for f in part], blocks)))
    return out
