"""Determinant and interpolation checked against slow exact references."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcover import (GF8, GF64, determinant, evaluate, interpolate,
                      series_determinant)

from conftest import CountingField, rand_matrix, ref_det


def _matmul(a, b, gf):
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            acc = 0
            for l in range(n):
                acc ^= gf.mul(a[i][l], b[l][j])
            out[i][j] = acc
    return out


def test_identity_determinants():
    for n in range(6):
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        assert determinant(eye, GF64) == 1


def test_diagonal_determinant():
    gf = GF8
    d = [3, 7, 19, 0x53]
    mat = [[d[i] if i == j else 0 for j in range(4)] for i in range(4)]
    expect = 1
    for v in d:
        expect = gf.mul(expect, v)
    assert determinant(mat, gf) == expect


def test_repeated_row_gives_zero():
    rng = random.Random(5)
    row = [GF64.sample(rng) for _ in range(4)]
    other = [GF64.sample(rng) for _ in range(4)]
    mat = [row[:], other, row[:], [GF64.sample(rng) for _ in range(4)]]
    assert determinant(mat, GF64) == 0


def test_determinant_matches_cofactor_oracle():
    rng = random.Random(77)
    for _ in range(1000):
        mat = rand_matrix(rng, 5, GF8)
        assert determinant(mat, GF8) == ref_det(mat, GF8)


def _sieve_shaped(rng, size, gf, kind):
    """Sparse matrix as the sieve builds them: a hidden perfect matching
    on a random permutation (so pivots lie off the diagonal) plus a few
    random entries; "zero-col" then clears one column, "upper" and
    "lower" keep one triangle of a dense matrix with a nonzero diagonal."""
    if kind in ("upper", "lower"):
        mat = rand_matrix(rng, size, gf)
        for r in range(size):
            mat[r][r] = mat[r][r] or 1
            for c in range(size):
                if (c < r) if kind == "upper" else (c > r):
                    mat[r][c] = 0
        return mat
    mat = [[0] * size for _ in range(size)]
    perm = rng.sample(range(size), size)
    for r in range(size):
        mat[r][perm[r]] ^= gf.sample(rng) or 1
    for _ in range(size):
        mat[rng.randrange(size)][rng.randrange(size)] ^= gf.sample(rng)
    if kind == "zero-col" and size:
        col = rng.randrange(size)
        for row in mat:
            row[col] = 0
    return mat


@pytest.mark.parametrize("gf", [GF8, GF64])
@pytest.mark.parametrize("kind", ["matching", "zero-col", "upper", "lower"])
def test_determinant_matches_cofactor_oracle_on_sieve_shapes(gf, kind):
    rng = random.Random(f"{gf.m}-{kind}")
    for size in range(8):
        for _ in range(25):
            mat = _sieve_shaped(rng, size, gf, kind)
            assert determinant(mat, gf) == ref_det(mat, gf)


@pytest.mark.parametrize("gf", [GF8, GF64])
@pytest.mark.parametrize("kind", ["matching", "zero-col", "upper", "lower"])
def test_determinant_takes_sparse_rows(gf, kind):
    # {col: value} rows, as the kdm sweep passes them: their columns in a
    # shuffled order and an explicit zero in some rows; same value as the
    # dense call and the cofactor oracle, input untouched
    rng = random.Random(f"sparse-{gf.m}-{kind}")
    for size in range(8):
        for _ in range(25):
            mat = _sieve_shaped(rng, size, gf, kind)
            rows = []
            for row in mat:
                cells = [(c, v) for c, v in enumerate(row) if v or rng.random() < 0.2]
                rng.shuffle(cells)
                rows.append(dict(cells))
            snapshot = [dict(row) for row in rows]
            assert determinant(rows, gf) == determinant(mat, gf) == ref_det(mat, gf)
            assert rows == snapshot
    with pytest.raises(ValueError, match="column"):
        determinant([{0: 1, 2: 1}, {1: 1}], gf)
    with pytest.raises(ValueError, match="column"):
        determinant([{-1: 1}], gf)


def _kdm_shaped(rng, size, gf):
    """A hidden permutation plus two random entries per row, as the kdm
    probes at b = n/k = 14 look."""
    mat = [[0] * size for _ in range(size)]
    perm = rng.sample(range(size), size)
    for r in range(size):
        mat[r][perm[r]] ^= gf.sample(rng) or 1
        for _ in range(2):
            mat[r][rng.randrange(size)] ^= gf.sample(rng)
    return mat


@pytest.mark.parametrize("gf", [GF8, GF64])
def test_determinant_at_kdm_scale(gf):
    # permuting rows and columns or transposing changes the Markowitz
    # pivot order but not the value
    rng = random.Random(f"kdm-scale-{gf.m}")
    for size in range(8, 15):
        for _ in range(4):
            mat = _kdm_shaped(rng, size, gf)
            det = determinant(mat, gf)
            assert det == ref_det(mat, gf)
            for _ in range(3):
                rp = rng.sample(range(size), size)
                cp = rng.sample(range(size), size)
                assert determinant([[mat[r][c] for c in cp] for r in rp], gf) == det
            assert determinant([list(col) for col in zip(*mat)], gf) == det
        # three rows confined to two columns: no empty row or column,
        # but no perfect matching either
        mat = _kdm_shaped(rng, size, gf)
        cols = rng.sample(range(size), 2)
        for r in rng.sample(range(size), 3):
            mat[r] = [gf.sample(rng) or 1 if c in cols else 0 for c in range(size)]
        assert determinant(mat, gf) == 0


def test_determinant_inverts_only_pivots_it_eliminates_with():
    rng = random.Random(24)
    # a lower-triangular pivot row has nothing right of the pivot to eliminate with
    for kind in ("upper", "lower", "diagonal"):
        mat = _sieve_shaped(rng, 6, GF64, "lower" if kind == "lower" else "upper")
        if kind == "diagonal":
            mat = [[v if r == c else 0 for c, v in enumerate(row)] for r, row in enumerate(mat)]
        gf = CountingField(GF64)
        assert determinant(mat, gf) == ref_det(mat, GF64)
        assert gf.inv_calls == 0
    gf = CountingField(GF64)
    mat = rand_matrix(rng, 6, GF64)
    assert determinant(mat, gf) == ref_det(mat, GF64)
    assert gf.inv_calls <= 1  # fraction-free: one inversion, at the end


def test_determinant_leaves_input_alone():
    rng = random.Random(8)
    mat = rand_matrix(rng, 4, GF64)
    snapshot = [row[:] for row in mat]
    determinant(mat, GF64)
    assert mat == snapshot


def test_determinant_multiplicative():
    rng = random.Random(21)
    for _ in range(200):
        a = rand_matrix(rng, 4, GF8)
        b = rand_matrix(rng, 4, GF8)
        lhs = determinant(_matmul(a, b, GF8), GF8)
        rhs = GF8.mul(determinant(a, GF8), determinant(b, GF8))
        assert lhs == rhs


def test_determinant_transpose_invariant():
    rng = random.Random(22)
    for _ in range(200):
        a = rand_matrix(rng, 5, GF8)
        at = [list(col) for col in zip(*a)]
        assert determinant(a, GF8) == determinant(at, GF8)


def test_determinant_is_permanent_mod_2():
    # on 0/1 matrices the field determinant equals the integer permanent
    # reduced mod 2, computed here by brute-force expansion
    import itertools
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 5)
        mat = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        perm = 0
        for sigma in itertools.permutations(range(n)):
            term = 1
            for i in range(n):
                term *= mat[i][sigma[i]]
            perm += term
        assert determinant(mat, GF64) == perm % 2


def test_determinant_rejects_non_square():
    with pytest.raises(ValueError):
        determinant([[1, 2]], GF8)


def _ref_series_det(mat, precision, gf):
    """Cofactor expansion along the first row with products of
    coefficient lists truncated below s^precision."""
    n = len(mat)
    if n == 0:
        return [1] + [0] * (precision - 1)
    total = [0] * precision
    for j, entry in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        sub = _ref_series_det(minor, precision, gf)
        for a, x in enumerate(entry[:precision]):
            for b in range(precision - a):
                total[a + b] ^= gf.mul(x, sub[b])
    return total


def _pack(coeffs, m):
    """A coefficient list as one int, coefficient t at bits [t*m, (t+1)*m)."""
    return sum(c << (t * m) for t, c in enumerate(coeffs))


def _sparse(mat, m):
    return [{c: _pack(e, m) for c, e in enumerate(row) if any(e)} for row in mat]


def _rand_series_matrix(rng, size, length, gf, density):
    """Entries s^v times a random polynomial, v up to 2; zero entries at
    rate 1 - density.  Some coefficient lists are short, some long."""
    mat = []
    for _ in range(size):
        row = []
        for _ in range(size):
            entry = [0] * rng.randint(0, length + 1)
            if rng.random() < density:
                for i in range(min(rng.randint(0, 2), len(entry)), len(entry)):
                    entry[i] = gf.sample(rng)
            row.append(entry)
        mat.append(row)
    return mat


@pytest.mark.parametrize("gf", [GF8, GF64])
def test_series_determinant_matches_cofactor_reference(gf):
    rng = random.Random(f"series-{gf.m}")
    for size in range(7):
        for precision in range(1, 6):
            for density in (0.3, 0.7, 1.0):
                mat = _rand_series_matrix(rng, size, precision, gf, density)
                padded = [[e + [0] * (precision - len(e)) for e in row] for row in mat]
                expect = _ref_series_det(padded, precision, gf)
                assert series_determinant(_sparse(mat, gf.m), precision, gf) == expect


def test_series_determinant_divides_out_valuation():
    # s * I_3 has determinant s^3; diag(s, s^2, 1) has s^3 as well, and
    # its first pivot search finds the unit at (2, 2)
    eye = [{i: 7 << 8} for i in range(3)]
    assert series_determinant(eye, 5, GF8) == [0, 0, 0, GF8.mul(GF8.mul(7, 7), 7), 0]
    assert series_determinant(eye, 3, GF8) == [0, 0, 0]
    mixed = [{0: 1 << 8}, {1: 1 << 16}, {2: 1}]
    assert series_determinant(mixed, 4, GF8) == [0, 0, 0, 1]
    assert series_determinant(mixed, 3, GF8) == [0, 0, 0]
    assert series_determinant([{}, {1: 1}], 2, GF8) == [0, 0]
    assert series_determinant([], 3, GF8) == [1, 0, 0]


def _times(x, y, precision, gf):
    """Product of two coefficient lists modulo s^precision."""
    out = [0] * precision
    for i, a in enumerate(x[:precision]):
        for j, b in enumerate(y[:precision - i]):
            out[i + j] ^= gf.mul(a, b)
    return out


@pytest.mark.parametrize("precision", [1, 2, 3])
def test_series_determinant_drops_an_entry_that_cancels(precision):
    # row 1 is lam * row 0 on columns 0 and 1, so eliminating the first
    # pivot, (0, 0), cancels entry (1, 1); the elimination goes on with
    # row 1 = {2: c} and gives a * c * d
    gf = GF8
    rng = random.Random(f"cancel-{precision}")

    def series(unit):
        e = [gf.sample(rng) for _ in range(precision)]
        if unit:
            e[0] = e[0] or 1
        return e

    nonzero = 0
    for _ in range(40):
        a, b, lam, c, d, e = (series(unit) for unit in (True, True, True, False, False, False))
        zero = [0] * precision
        mat = [[a, b, zero],
               [_times(lam, a, precision, gf), _times(lam, b, precision, gf), c],
               [zero, d, e]]
        expect = _ref_series_det(mat, precision, gf)
        assert series_determinant(_sparse(mat, gf.m), precision, gf) == expect
        nonzero += any(expect)
    assert nonzero >= 20


@pytest.mark.parametrize("gf", [GF8, GF64])
def test_singular_matrix_whose_last_row_cancels(gf):
    # after the free pivot (0, 0), eliminating pivot (1, 1) from row 2 =
    # lam * row 1 fraction-free takes two products, a * (lam b) and
    # (lam a) * b, and no inversion, and empties row 2: the determinant
    # is zero, and the two pivots are never multiplied
    rng = random.Random(f"last-row-{gf.m}")
    for _ in range(20):
        p, a, b, lam = (gf.sample(rng) or 1 for _ in range(4))
        mat = [[p, 0, 0], [0, a, b], [0, gf.mul(lam, a), gf.mul(lam, b)]]
        counted = CountingField(gf)
        assert determinant(mat, counted) == 0 == ref_det(mat, gf)
        assert (counted.mul_calls, counted.inv_calls) == (2, 0)


@pytest.mark.parametrize("gf", [GF8, GF64])
def test_determinant_makes_at_most_one_inversion(gf):
    # fraction-free at precision 1: kdm-shaped sparse matrices, dense
    # ones, and rank-deficient ones with a row lam * another row, each
    # equal to the cofactor oracle after at most one field inversion.
    # Dense steps scale several rows, so most dense matrices invert once;
    # a rank-deficient one empties a row first and never inverts
    rng = random.Random(f"one-inversion-{gf.m}")
    inverted = 0
    for kind, sizes in (("kdm", range(2, 15)), ("dense", range(2, 8)), ("deficient", range(2, 8))):
        for size in sizes:
            mat = _kdm_shaped(rng, size, gf) if kind == "kdm" else rand_matrix(rng, size, gf)
            if kind == "deficient":
                r, t = rng.sample(range(size), 2)
                lam = gf.sample(rng) or 1
                mat[r] = [gf.mul(lam, v) for v in mat[t]]
            counted = CountingField(gf)
            det = determinant(mat, counted)
            assert det == ref_det(mat, gf), (size, kind)
            assert counted.inv_calls <= (kind != "deficient"), (size, kind)
            inverted += counted.inv_calls
    assert inverted >= 5


def test_series_determinant_inverts_only_pivots_it_eliminates_with():
    rng = random.Random(26)
    gf = CountingField(GF64)
    diagonal = [{i: _pack([GF64.sample(rng) or 1, GF64.sample(rng)], 64)} for i in range(6)]
    series_determinant(diagonal, 2, gf)
    assert gf.inv_calls == 0
    for _ in range(20):
        mat = _rand_series_matrix(rng, 6, 3, GF64, 1.0)
        gf.inv_calls = 0
        series_determinant(_sparse(mat, 64), 3, gf)
        assert gf.inv_calls <= 1  # fraction-free: one inversion, at the end


def test_series_determinant_leaves_input_alone():
    rng = random.Random(27)
    rows = _sparse(_rand_series_matrix(rng, 5, 3, GF64, 0.8), 64)
    snapshot = [dict(row) for row in rows]
    series_determinant(rows, 3, GF64)
    assert rows == snapshot


def test_series_determinant_rejects_bad_input():
    with pytest.raises(ValueError):
        series_determinant([{0: 1}], 0, GF8)
    with pytest.raises(ValueError):
        series_determinant([{1: 1}], 1, GF8)
    with pytest.raises(ValueError):
        series_determinant([{-1: 1}, {}], 1, GF8)


def test_evaluate_basics():
    assert evaluate([], 5, GF8) == 0
    assert evaluate([7], 5, GF8) == 7
    assert evaluate([0, 1], 0xAB, GF8) == 0xAB


@given(coeffs=st.lists(st.integers(0, 255), max_size=6), x=st.integers(0, 255))
def test_evaluate_matches_power_sum(coeffs, x):
    expect = 0
    for i, c in enumerate(coeffs):
        expect ^= GF8.mul(c, GF8.power(x, i))
    assert evaluate(coeffs, x, GF8) == expect


def test_interpolate_constant():
    assert interpolate([(1, 0x42)], 0, GF8) == [0x42]


def test_interpolate_roundtrip_degree_six():
    rng = random.Random(31)
    for _ in range(50):
        coeffs = [GF64.sample(rng) for _ in range(7)]
        xs = list(range(1, 8))
        pts = [(x, evaluate(coeffs, x, GF64)) for x in xs]
        assert interpolate(pts, 6, GF64) == coeffs


def test_interpolate_ignores_extra_points():
    rng = random.Random(32)
    coeffs = [GF8.sample(rng) for _ in range(4)]
    pts = [(x, evaluate(coeffs, x, GF8)) for x in range(1, 10)]
    assert interpolate(pts, 3, GF8) == coeffs


def test_interpolate_errors():
    with pytest.raises(ValueError):
        interpolate([(1, 1)], 1, GF8)  # too few points
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2), (2, 0)], 2, GF8)  # duplicate abscissa
    with pytest.raises(ValueError):
        interpolate([(1, 1)], -1, GF8)


@settings(max_examples=60)
@given(data=st.data(), degree=st.integers(0, 5))
def test_interpolate_inverts_evaluate(data, degree):
    coeffs = data.draw(st.lists(st.integers(0, 255),
                                min_size=degree + 1, max_size=degree + 1))
    xs = list(range(1, degree + 2))
    pts = [(x, evaluate(coeffs, x, GF8)) for x in xs]
    got = interpolate(pts, degree, GF8)
    for x, y in pts:
        assert evaluate(got, x, GF8) == y
    assert got == coeffs
