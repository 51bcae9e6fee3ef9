"""Weighted matching sums on a projected view, via one series determinant.

A view with only pairs and loops induces a multigraph on U.  Its perfect
matchings (loops cover one vertex, pairs cover two) are graded by loop
count, and the graded sums are read off the symmetric |U| x |U| matrix
T(s) with pair weights off the diagonal and s times the loop sums on it.
Its determinant is a polynomial in s whose degree-i coefficient M_i
sums, over perfect matchings using exactly i loops, the product of loop
weights times squared pair weights (in characteristic 2 the determinant
is the permanent, so nothing cancels by sign).  M_i vanishes unless i
and |U| have the same parity.

A probe reads M_i only for i <= top = 2n/k - |U|: a matching with more
loops uses more than n/k edges.  loop_weights() therefore computes
M_0..M_top as the determinant of T(s) over the truncated power-series
ring GF(2^m)[s]/(s^(top+1)), one elimination per probe.  It builds T(s)
directly in linalg's packed layout, one int per entry with the
coefficient of s^t at bits [t*m, (t+1)*m): a pair weight is the int
itself and a loop weight is shifted left by m.

cover_weight() combines the M_i with elementary symmetric sums Z_j of the
untouched-edge weights: a cover of all n/k vertex groups decomposes into
a matching on U plus j = n/k - (|U| + i)/2 edges missing U entirely, so
the total cover weight is XOR over i of Z_j * M_i.
"""

from __future__ import annotations

from .gf2m import GF2m
from .hypergraph import ProjectedView
from .linalg import series_determinant
from .linalg import determinant, interpolate  # unused; perfbench/tracing.py patches these names


def loop_weights(view: ProjectedView, weights, gf: GF2m, top: int) -> list[int]:
    """Matching sums M_0..M_top graded by loop count.

    Builds T(s) once as packed series rows (linalg.series_determinant):
    pair weights XORed into the constant term, loop weights shifted by m
    bits into the s-coefficient, and takes its determinant modulo
    s^(top + 1).  Entries past |U| are zero.
    """
    if view.dropped:
        raise ValueError("view still contains dropped edges")
    rows = [{} for _ in range(view.u_size)]
    for eid, i, j in view.pairs:
        w = weights[eid]
        rows[i][j] = rows[i].get(j, 0) ^ w
        rows[j][i] = rows[j].get(i, 0) ^ w
    if top:
        m = gf.m
        for eid, i in view.loops:
            rows[i][i] = rows[i].get(i, 0) ^ (weights[eid] << m)
    return series_determinant(rows, top + 1, gf)


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
    the vertex set survive.  A U too large for the edge budget gives
    exact zero.
    """
    if view.dropped:
        raise ValueError("view still contains dropped edges")
    need = n // k
    u = view.u_size
    top = 2 * need - u          # the most loops a cover can use
    if top < 0:
        return 0
    m_vals = loop_weights(view, weights, gf, top)
    z_vals = elementary_symmetric([weights[e] for e in view.empties], top // 2, gf)
    total = 0
    # only loop counts of |U|'s parity can be nonzero; i = top reads Z_0
    for i in range(u % 2, top + 1, 2):
        if m_vals[i]:
            total ^= gf.mul(z_vals[need - (u + i) // 2], m_vals[i])
    return total
