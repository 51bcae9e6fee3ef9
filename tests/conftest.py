"""Shared helpers: independent reference implementations the package is
checked against.  Everything here deliberately avoids the production code
paths (different multiplication loop, cofactor instead of elimination,
explicit enumeration instead of determinants)."""

from __future__ import annotations

import random

from detcover import Hypergraph, ProjectedView, dlx_enumerate, generate


def rand_instance(rng: random.Random, k: int, n: int, max_edges: int,
                  plant_prob: float = 0.5, min_edges: int = 0,
                  kdm: bool = False) -> Hypergraph:
    """Random instance; plants a cover with the given probability whenever
    the drawn edge budget can hold one."""
    edges = rng.randint(min_edges, max_edges)
    plant = edges >= n // k and rng.random() < plant_prob
    return generate(rng, k, n, edges, plant=plant, kdm=kdm)


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
    if view.dropped:
        raise ValueError("view still contains dropped edges")
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
    dancing-links oracle.  This is the quantity the sieve computes."""
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
