"""Dense determinants and polynomial interpolation over GF(2^m).

Everything here works on lists of plain ints plus a GF2m instance.  In
characteristic 2 row swaps do not flip the determinant's sign and the
determinant coincides with the permanent, which is what the matching
machinery relies on.
"""

from __future__ import annotations

from .gf2m import GF2m


def determinant(mat: list[list[int]], gf: GF2m) -> int:
    """Determinant by Gaussian elimination over the field.

    The input is copied, never modified.  The empty 0x0 matrix has
    determinant one.  Pivots are found by scanning each column downward
    for the first nonzero entry; a zero column means determinant zero.

    Sieve matrices are sparse, so the elimination does only the work
    whose result is read again.  A pivot is inverted only when some lower
    row has a nonzero entry in its column and the pivot row has a nonzero
    entry right of it, so never for the last column.  Rows are updated
    from the column after the pivot, since the pivot column is never read
    again, and only the nonzero entries of the pivot row are walked.
    """
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix must be square")
    a = [row[:] for row in mat]
    mul = gf.mul
    det = 1
    for col in range(n):
        pivot = col
        while not a[pivot][col]:
            pivot += 1
            if pivot == n:
                return 0
        arow = a[pivot]
        if pivot != col:
            a[pivot] = a[col]  # no sign change in char 2
            a[col] = arow
        piv = arow[col]
        det = mul(det, piv)
        tail = [(c, arow[c]) for c in range(col + 1, n) if arow[c]]
        below = [brow for brow in a[col + 1:] if brow[col]]
        if not (tail and below):
            continue
        ipiv = gf.inv(piv)
        for brow in below:
            factor = mul(brow[col], ipiv)
            for c, v in tail:
                brow[c] ^= mul(factor, v)
    return det


def evaluate(coeffs: list[int], x: int, gf: GF2m) -> int:
    """Evaluate a polynomial given by ascending coefficients, via Horner."""
    acc = 0
    mul = gf.mul
    for c in reversed(coeffs):
        acc = mul(acc, x) ^ c
    return acc


def interpolate(points: list[tuple[int, int]], degree_bound: int, gf: GF2m) -> list[int]:
    """Coefficients of the unique polynomial of degree <= degree_bound
    through the first degree_bound + 1 of the given (x, y) points.

    Lagrange form assembled from the master polynomial prod(t + x_i):
    each basis numerator is the master divided synthetically by its own
    root, scaled by the inverse of its value at that root.  Duplicate
    abscissas among the used points are an error.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    need = degree_bound + 1
    if len(points) < need:
        raise ValueError(f"need {need} points, got {len(points)}")
    pts = points[:need]
    xs = [x for x, _ in pts]
    if len(set(xs)) != need:
        raise ValueError("duplicate abscissa")

    mul = gf.mul
    # master(t) = prod_i (t + x_i); in char 2 this vanishes at every x_i
    master = [1]
    for x in xs:
        nxt = [0] * (len(master) + 1)
        for i, c in enumerate(master):
            nxt[i + 1] ^= c
            if c and x:
                nxt[i] ^= mul(c, x)
        master = nxt

    coeffs = [0] * need
    for x, y in pts:
        if y == 0:
            continue
        basis = _divide_out_root(master, x, gf)
        scale = mul(y, gf.inv(evaluate(basis, x, gf)))
        for j, c in enumerate(basis):
            if c:
                coeffs[j] ^= mul(c, scale)
    return coeffs


def _divide_out_root(master: list[int], x: int, gf: GF2m) -> list[int]:
    """Synthetic division of the monic master polynomial by (t + x)."""
    mul = gf.mul
    d = len(master) - 2
    q = [0] * (d + 1)
    carry = master[d + 1]
    for j in range(d, -1, -1):
        q[j] = carry
        carry = master[j] ^ mul(carry, x)
    # carry is master(x), zero whenever x really is a root
    return q
