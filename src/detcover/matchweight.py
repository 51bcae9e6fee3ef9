"""Weighted matching sums on a projected view, via determinants.

A view with only pairs and loops induces a multigraph on U.  Its perfect
matchings (loops cover one vertex, pairs cover two) are graded by loop
count, and the graded sums are read off the symmetric |U| x |U| matrix
with pair weights off the diagonal and s-scaled loop sums on it.  Its
determinant is a polynomial in s whose degree-i coefficient M_i sums,
over perfect matchings using exactly i loops, the product of loop
weights times squared pair weights (in characteristic 2 the determinant
is the permanent, so nothing cancels by sign).  M_i vanishes unless i
and |U| have the same parity, so the determinant is s^(|U| mod 2) Q(s^2)
with deg Q = floor(|U|/2), and floor(|U|/2) + 1 evaluations recover
every M_i through a recovery matrix built once per |U| and field.

cover_weight() combines the M_i with elementary symmetric sums Z_j of the
untouched-edge weights: a cover of all n/k vertex groups decomposes into
a matching on U plus j = n/k - (|U| + i)/2 edges missing U entirely, so
the total cover weight is XOR over i of Z_j * M_i.
"""

from __future__ import annotations

import functools

from .gf2m import GF2m
from .hypergraph import ProjectedView
from .linalg import determinant, interpolate


def build_tutte(view: ProjectedView, weights, s: int, gf: GF2m) -> list[list[int]]:
    """Symmetric matching matrix at diagonal scale s.

    Entry (i, j), i != j, XORs the weights of the pairs joining U
    positions i and j; diagonal entry i is s times the XOR of the loop
    weights at i.
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


def loop_weights(view: ProjectedView, weights, gf: GF2m) -> list[int]:
    """Matching sums M_0..M_|U| graded by loop count.

    With p = |U| mod 2 and h = floor(|U|/2), det(tutte(s)) = s^p Q(s^2)
    where Q has degree h and coefficients M_p, M_(p+2), ..., M_|U|; the
    other M_i are zero.  Evaluating the determinant at h + 1 distinct
    points pins Q down (squaring is injective in characteristic 2, so the
    squared points stay distinct), and the cached matrix of
    _recovery_basis turns the values into the M_i with mul and XOR only.
    The result does not depend on which distinct points are used.
    """
    u = view.u_size
    xs, basis = _recovery_basis(u, gf)
    values = [determinant(build_tutte(view, weights, s, gf), gf) for s in xs]
    mul = gf.mul
    out = [0] * (u + 1)
    for j, row in enumerate(basis):
        acc = 0
        for b, d in zip(row, values):
            if d:
                acc ^= mul(b, d)
        out[2 * j + u % 2] = acc
    return out


@functools.cache
def _recovery_basis(u: int, gf: GF2m) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Abscissas s_t and the matrix mapping det(tutte(s_t)) to M_(2j+p).

    Entry (j, t) is entry (j, t) of the inverse Vandermonde matrix on the
    squared points s_t^2, times s_t^-p to divide out the s^p factor.
    Column t of that inverse is the interpolant of the t-th unit vector.
    """
    h = u // 2
    xs = gf.distinct_points(h + 1)
    squares = [gf.mul(s, s) for s in xs]
    cols = []
    for t, s in enumerate(xs):
        col = interpolate([(y, 1 if i == t else 0) for i, y in enumerate(squares)], h, gf)
        if u % 2:
            scale = gf.inv(s)
            col = [gf.mul(c, scale) for c in col]
        cols.append(col)
    return tuple(xs), tuple(zip(*cols))


def elementary_symmetric(values, max_degree: int, gf: GF2m) -> list[int]:
    """Z_0..Z_max_degree: sums over j-subsets of the products of values.

    One in-place pass per value; order of the values cannot matter.
    Degrees beyond len(values) are zero, Z_0 is one.
    """
    table = [0] * (max_degree + 1)
    table[0] = 1
    seen = 0
    for v in values:
        seen += 1
        for j in range(min(seen, max_degree), 0, -1):
            if table[j - 1] and v:
                table[j] ^= gf.mul(table[j - 1], v)
    return table


def cover_weight(view: ProjectedView, weights, n: int, k: int, gf: GF2m) -> int:
    """Probe value of the sieve: weight of U-matchings padded to n/k edges.

    Sums, over perfect matchings of U with i loops and over all
    (n/k - (|U| + i)/2)-subsets of the empties pool, the product of edge
    weights with pair weights squared.  XORed across every avoided set X
    the non-covering families cancel in pairs and only exact covers of
    the vertex set survive.  Exact zero short-circuits: an uncoverable U
    vertex, too few surviving edges, or a U too large for the edge
    budget.
    """
    if view.dropped:
        raise ValueError("view still contains dropped edges")
    need = n // k
    u = view.u_size
    if len(view.pairs) + len(view.loops) + len(view.empties) < need:
        return 0
    if u:
        covered = [False] * u
        for _, i, j in view.pairs:
            covered[i] = True
            covered[j] = True
        for _, i in view.loops:
            covered[i] = True
        if not all(covered):
            return 0
        if (u + 1) // 2 > need:
            return 0
    m_vals = loop_weights(view, weights, gf)
    z_vals = elementary_symmetric([weights[e] for e in view.empties], need, gf)
    total = 0
    for i, m_i in enumerate(m_vals):
        if not m_i:
            continue
        j = need - (u + i) // 2
        if j >= 0:
            total ^= gf.mul(z_vals[j], m_i)
    return total
