"""Determinants and polynomial interpolation over GF(2^m).

Everything here works on lists of plain ints plus a GF2m instance.  In
characteristic 2 row and column swaps do not flip the determinant's sign
and the determinant coincides with the permanent, which is what the
matching machinery relies on.  There is one Gaussian elimination,
series_determinant(), over the truncated power-series ring
GF(2^m)[s]/(s^precision) with sparse rows of ascending coefficient
lists; determinant() is its precision-1 case on a plain matrix.  The
solver does not interpolate; interpolate() and evaluate() remain for the
benchmark's micro-loops and as the reference route in the tests.
"""

from __future__ import annotations

from .gf2m import GF2m


def determinant(mat: list[list[int]], gf: GF2m) -> int:
    """Determinant of a square matrix over the field: series_determinant()
    at precision 1 on the matrix's nonzero entries.

    The input is never modified.  The empty 0x0 matrix has determinant
    one.
    """
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix must be square")
    rows = [{c: [v] for c, v in enumerate(row) if v} for row in mat]
    return series_determinant(rows, 1, gf)[0]


def series_determinant(rows: list[dict[int, list[int]]], precision: int, gf: GF2m) -> list[int]:
    """The `precision` lowest coefficients of the determinant of a sparse
    n x n matrix of power series in s.

    rows[i] maps a column j to entry (i, j) as a list of ascending
    coefficients; absent entries are zero, coefficients at or past
    `precision` are ignored and short lists are zero-padded.  The input
    is copied, never modified.  The empty matrix has determinant one.

    Gaussian elimination with full valuation pivoting.  Each step finds
    the least s-valuation v among the remaining entries.  If v > 0 every
    remaining entry is divisible by s^v, so they are all divided by it
    and v times the number of rows left joins a running valuation; once
    that reaches the precision, or no nonzero entry is left, the result
    is zero.  Otherwise the pivot is a unit, chosen to keep fill-in low
    (least (row entries - 1) x (column entries - 1), Markowitz's rule),
    inverted with one field inversion of its constant term, and its
    column is eliminated with products truncated to the precision still
    needed, skipping zero coefficients.  Sieve matrices are sparse, so a
    pivot is inverted only when it eliminates something: when its row has
    another entry and some other remaining row has a nonzero entry in its
    column, so never for the last pivot.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    n = len(rows)
    for row in rows:
        if row and (min(row) < 0 or max(row) >= n):
            raise ValueError("column index out of range")
    a = [{c: e[:precision] + [0] * (precision - len(e)) for c, e in row.items()}
         for row in rows]
    val = 0           # determinant = s^val * product of pivots * det(rest)
    w = precision     # coefficients still needed of every remaining entry
    pivots = []
    while a:
        best = w
        for row in a:
            for e in row.values():
                for v in range(best):
                    if e[v]:
                        best = v
                        break
                if not best:
                    break
            if not best:
                break
        if best == w:
            return [0] * precision
        if best:
            val += best * len(a)
            if val >= precision:
                return [0] * precision
            w = precision - val
            for row in a:
                for c, e in row.items():
                    row[c] = e[best:best + w]
        counts = {}
        for row in a:
            for c in row:
                counts[c] = counts.get(c, 0) + 1
        cost = n * n
        for r, row in enumerate(a):
            rest = len(row) - 1
            for c, e in row.items():
                if e[0] and rest * (counts[c] - 1) < cost:
                    cost, pr, pc = rest * (counts[c] - 1), r, c
            if not cost:
                break
        prow = a.pop(pr)  # no sign change in char 2
        piv = prow.pop(pc)
        pivots.append(piv)
        below = []
        for row in a:
            e = row.pop(pc, None)
            if e is not None and any(e):
                below.append((row, e))
        if not (prow and below):
            continue
        ipiv = _series_inverse(piv, w, gf)
        for row, e in below:
            factor = _mul_add([0] * w, e, ipiv, w, gf)
            for c, t in prow.items():
                if c not in row:
                    row[c] = [0] * w
                _mul_add(row[c], factor, t, w, gf)
    if not pivots:
        return [1] + [0] * (precision - 1)
    det = pivots[0][:w]
    for piv in pivots[1:]:
        det = _mul_add([0] * w, det, piv, w, gf)
    return [0] * val + det


def _mul_add(acc: list[int], a: list[int], b: list[int], w: int, gf: GF2m) -> list[int]:
    """acc += a * b modulo s^w, in place, skipping zero coefficients."""
    mul = gf.mul
    for i in range(w):
        x = a[i]
        if x:
            for j in range(w - i):
                y = b[j]
                if y:
                    acc[i + j] ^= mul(x, y)
    return acc


def _series_inverse(a: list[int], w: int, gf: GF2m) -> list[int]:
    """Inverse of a unit power series modulo s^w.

    One field inversion of the constant term b_0 = a_0^-1, then
    a * b = 1 gives b_k = b_0 * sum_(j=1..k) a_j b_(k-j) (no signs in
    characteristic 2).
    """
    mul = gf.mul
    b0 = gf.inv(a[0])
    b = [b0]
    for k in range(1, w):
        acc = 0
        for j in range(1, k + 1):
            if a[j] and b[k - j]:
                acc ^= mul(a[j], b[k - j])
        b.append(mul(acc, b0) if acc else 0)
    return b


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
