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
    on a random permutation (so pivoting must swap rows) plus a few
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
    assert gf.inv_calls <= 5  # the last pivot is never inverted


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


def _sparse(mat):
    return [{c: e for c, e in enumerate(row) if any(e)} for row in mat]


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
                assert series_determinant(_sparse(mat), precision, gf) == expect


def test_series_determinant_precision_one_is_determinant():
    rng = random.Random(25)
    for size in range(7):
        for kind in ("matching", "zero-col", "upper", "lower"):
            mat = _sieve_shaped(rng, size, GF64, kind)
            rows = _sparse([[[v] for v in row] for row in mat])
            assert series_determinant(rows, 1, GF64) == [determinant(mat, GF64)]


def test_series_determinant_divides_out_valuation():
    # s * I_3 has determinant s^3; diag(s, s^2, 1) has s^3 as well, and
    # its first pivot search finds the unit at (2, 2)
    eye = [{i: [0, 7]} for i in range(3)]
    assert series_determinant(eye, 5, GF8) == [0, 0, 0, GF8.mul(GF8.mul(7, 7), 7), 0]
    assert series_determinant(eye, 3, GF8) == [0, 0, 0]
    mixed = [{0: [0, 1]}, {1: [0, 0, 1]}, {2: [1]}]
    assert series_determinant(mixed, 4, GF8) == [0, 0, 0, 1]
    assert series_determinant(mixed, 3, GF8) == [0, 0, 0]
    assert series_determinant([{}, {1: [1]}], 2, GF8) == [0, 0]
    assert series_determinant([], 3, GF8) == [1, 0, 0]


def test_series_determinant_inverts_only_pivots_it_eliminates_with():
    rng = random.Random(26)
    gf = CountingField(GF64)
    diagonal = [{i: [GF64.sample(rng) or 1, GF64.sample(rng)]} for i in range(6)]
    series_determinant(diagonal, 2, gf)
    assert gf.inv_calls == 0
    for _ in range(20):
        mat = _rand_series_matrix(rng, 6, 3, GF64, 1.0)
        series_determinant(_sparse(mat), 3, gf)
    assert gf.inv_calls <= 20 * 5  # the last pivot is never inverted


def test_series_determinant_leaves_input_alone():
    rng = random.Random(27)
    rows = _sparse(_rand_series_matrix(rng, 5, 3, GF64, 0.8))
    snapshot = [{c: e[:] for c, e in row.items()} for row in rows]
    series_determinant(rows, 3, GF64)
    assert rows == snapshot


def test_series_determinant_rejects_bad_input():
    with pytest.raises(ValueError):
        series_determinant([{0: [1]}], 0, GF8)
    with pytest.raises(ValueError):
        series_determinant([{1: [1]}], 1, GF8)
    with pytest.raises(ValueError):
        series_determinant([{-1: [1]}, {}], 1, GF8)


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
