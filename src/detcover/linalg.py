"""Determinants and polynomial interpolation over GF(2^m).

Everything here works on plain ints plus a GF2m instance.  In
characteristic 2 row and column swaps do not flip the determinant's sign
and the determinant coincides with the permanent, which is what the
matching machinery relies on.  There is one Gaussian elimination,
series_determinant(), over the truncated power-series ring
GF(2^m)[s]/(s^precision).  Its sparse rows hold packed series: one int
whose bits [t*m, (t+1)*m) are the coefficient of s^t, so addition is
XOR, a precision-1 entry is the field element itself, and only products
and inverses look at single coefficients.  The elimination is
fraction-free (after Bareiss, 1968), so a determinant makes at most one
field inversion.  determinant() is its precision-1 case on a plain
matrix, given as dense lists or sparse {col: value} rows.  The solver
does not interpolate;
interpolate() and evaluate() remain for the benchmark's micro-loops and
as the reference route in the tests.
"""

from __future__ import annotations

from .gf2m import GF2m


def determinant(mat: list, gf: GF2m) -> int:
    """Determinant of a square matrix over the field: series_determinant()
    at precision 1 on the matrix's nonzero entries.

    Each row is either a dense list of n entries or a sparse
    {col: value} dict, whose absent entries are zero; a column outside
    0..n-1 is an error.  The input is never modified.  The empty 0x0
    matrix has determinant one.
    """
    n = len(mat)
    if any(not isinstance(row, dict) and len(row) != n for row in mat):
        raise ValueError("matrix must be square")
    rows = [row if isinstance(row, dict) else {c: v for c, v in enumerate(row) if v} for row in mat]
    return series_determinant(rows, 1, gf)[0]


def series_determinant(rows: list[dict[int, int]], precision: int, gf: GF2m) -> list[int]:
    """The `precision` lowest coefficients of the determinant of a sparse
    n x n matrix of power series in s.

    rows[i] maps a column j to entry (i, j) as a packed series: bits
    [t*m, (t+1)*m) of the int hold the coefficient of s^t, m = gf.m.
    Absent entries are zero and coefficients at or past `precision` are
    ignored.  The input is never modified.  The empty matrix has
    determinant one.

    Gaussian elimination with full valuation pivoting.  Each step looks
    for a unit pivot (nonzero constant term) that keeps fill-in low:
    least (row entries - 1) x (column entries - 1), Markowitz's rule,
    the first such entry in row and column order.  The row sets of the
    columns are kept across steps, and an entry that cancels to zero is
    dropped, so a row that empties ends the elimination with a zero
    determinant.  When no entry is a unit, every remaining entry is
    divisible by s^v, v their least s-valuation, so all are shifted
    right by v coefficients and v times the number of rows left joins a
    running valuation; once that reaches the precision the result is
    zero.

    The elimination is fraction-free.  A pivot eliminates something when
    its row has another entry and some other remaining row has an entry
    in its column; then each such row becomes piv * row + e * (pivot
    row), e its entry in the pivot's column, with products truncated to
    the precision still needed.  That scales the determinant by the
    unit piv once per row, and the pivot's own factor cancels one of
    those.  So the pivots that eliminate nothing, the last pivot always
    among them, multiply into a numerator, and the surplus scales into a
    denominator, both kept as they come.  The denominator is inverted
    once, at the end, as a series with one field inversion of its
    constant term, and not at all when no step scales more than one
    row.  At precision 1 the entries are field elements, and products
    go straight to gf.mul.
    """
    if precision < 1:
        raise ValueError("precision must be positive")
    n = len(rows)
    m = gf.m
    mask = (1 << m) - 1
    mul = gf.mul
    zero = [0] * precision
    w = precision     # coefficients still needed of every remaining entry
    keep = (1 << (w * m)) - 1
    a = []            # a[r]: row r's nonzero entries, packed and truncated to w
    cols = [set() for _ in range(n)]  # cols[c]: the remaining rows with an entry in column c
    for r, row in enumerate(rows):
        kept = {}
        for c, e in row.items():
            if not 0 <= c < n:
                raise ValueError("column index out of range")
            e &= keep
            if e:
                kept[c] = e
                cols[c].add(r)
        a.append(kept)
    if not all(a):
        return zero

    if precision == 1:  # plain field elements
        times = mul
    else:
        def times(x, y):  # x * y modulo s^w
            if x <= mask and y <= mask:
                return mul(x, y)
            xs = [(x >> (i * m)) & mask for i in range(w)]
            ys = [(y >> (j * m)) & mask for j in range(w)]
            out = 0
            for i, xi in enumerate(xs):
                if xi:
                    for j in range(w - i):
                        if ys[j]:
                            out ^= mul(xi, ys[j]) << ((i + j) * m)
            return out

    live = list(range(n))  # the remaining rows, in order
    val = 0           # determinant = s^val * det * det(rest) / den
    det = den = 1
    while live:
        cost = n * n
        for r in live:
            row = a[r]
            rest = len(row) - 1
            for c, e in row.items():
                if e & mask:
                    k = rest * (len(cols[c]) - 1)
                    if k < cost:
                        cost, pr, pc = k, r, c
                        if not k:
                            break
            if not cost:
                break
        if cost == n * n:  # no unit: divide every remaining entry by s^v
            v = min((e & -e).bit_length() - 1 for r in live for e in a[r].values()) // m
            val += v * len(live)
            if val >= precision:
                return zero
            w = precision - val
            keep = (1 << (w * m)) - 1
            for r in live:
                row = a[r]
                for c, e in list(row.items()):
                    e = (e >> (v * m)) & keep
                    if e:
                        row[c] = e
                    else:
                        del row[c]
                        cols[c].discard(r)
                if not row:
                    return zero
            continue
        live.remove(pr)
        prow = a[pr]
        piv = prow.pop(pc)
        for c in prow:
            cols[c].discard(pr)
        below = cols[pc]
        below.discard(pr)
        if not (prow and below):
            det = piv if det == 1 else times(det, piv)
        else:  # piv scales each row below, and the pivot's factor cancels one
            for _ in range(len(below) - 1):
                den = piv if den == 1 else times(den, piv)
        for r in below:
            row = a[r]
            e = row.pop(pc)
            if prow:
                for c, t in row.items():
                    row[c] = times(piv, t)
                for c, t in prow.items():
                    p = times(e, t)
                    if p:
                        old = row.get(c)
                        if old is None:
                            row[c] = p
                            cols[c].add(r)
                        elif old != p:
                            row[c] = old ^ p
                        else:
                            del row[c]
                            cols[c].discard(r)
            if not row:
                return zero
    det &= keep
    if den != 1:
        det = times(det, _series_inverse(den & keep, w, m, gf))
    return zero[:val] + [(det >> (t * m)) & mask for t in range(w)]


def _series_inverse(a: int, w: int, m: int, gf: GF2m) -> int:
    """Inverse of a packed unit power series modulo s^w.

    One field inversion of the constant term b_0 = a_0^-1, then
    a * b = 1 gives b_k = b_0 * sum_(j=1..k) a_j b_(k-j) (no signs in
    characteristic 2).
    """
    mask = (1 << m) - 1
    b0 = gf.inv(a & mask)
    if a <= mask:
        return b0
    mul = gf.mul
    coeffs = [(a >> (j * m)) & mask for j in range(w)]
    b = [b0]
    for k in range(1, w):
        acc = 0
        for j in range(1, k + 1):
            if coeffs[j] and b[k - j]:
                acc ^= mul(coeffs[j], b[k - j])
        b.append(mul(acc, b0) if acc else 0)
    return sum(c << (t * m) for t, c in enumerate(b))


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
