"""Field arithmetic: known values, axioms, and an independent product."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detcover
from detcover import GF8, GF64, GF2m, field_for, is_irreducible
from detcover.gf2m import _poly_mod

from conftest import ref_mul

elem8 = st.integers(min_value=0, max_value=255)
elem64 = st.integers(min_value=0, max_value=2 ** 64 - 1)


def test_mul_known_values():
    # classic byte-field pair of mutual inverses
    assert GF8.mul(0x53, 0xCA) == 0x01
    assert GF8.mul(0x57, 0x01) == 0x57
    assert GF8.mul(0x57, 0x00) == 0x00
    assert GF64.mul(1, (1 << 64) - 1) == (1 << 64) - 1


def test_mul_matches_shift_reduce_sampled_64():
    rng = random.Random(1)
    for _ in range(2000):
        a = rng.getrandbits(64)
        b = rng.getrandbits(64)
        assert GF64.mul(a, b) == ref_mul(a, b, 64, GF64.reduction)


@pytest.mark.parametrize("m, reduction", [(4, 0b10011), (5, 0b100101)])
def test_small_fields_exhaustive(m, reduction):
    # x^4 + x + 1 and x^5 + x^2 + 1: trinomials, whose low parts fold
    # unlike GF8's and GF64's 0x1B; every product against the
    # shift-and-reduce reference, every inverse round trip
    gf = GF2m(m, reduction)
    for a in range(gf.order):
        for b in range(gf.order):
            assert gf.mul(a, b) == ref_mul(a, b, m, reduction)
        if a:
            inv = gf.inv(a)
            assert inv < gf.order and gf.mul(a, inv) == gf.mul(inv, a) == 1


def test_inverse_roundtrip_exhaustive_8():
    for a in range(1, 256):
        assert GF8.mul(a, GF8.inv(a)) == 1


def test_inverse_known_value():
    assert GF8.inv(0x53) == 0xCA
    assert GF8.inv(1) == 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GF8.inv(0)
    with pytest.raises(ZeroDivisionError):
        GF64.inv(0)


def test_inverse_of_a_zero_divisor_raises():
    # the constructor tests irreducibility only up to m = 16, so it takes
    # x^18 + x + 1, which has the factor x^5 + x^2 + 1; that factor has no
    # inverse, and its Euclid once looped forever on a zero remainder.  The
    # call runs in a subprocess, so a hang fails the test instead of
    # stalling the suite
    code = ("from detcover import GF2m\n"
            "g = GF2m(18, 0x40003)\n"
            "assert g.mul(g.inv(0b11), 0b11) == 1\n"
            "try:\n"
            "    g.inv(0b100101)\n"
            "except ZeroDivisionError:\n"
            "    print('raised')\n")
    src = str(Path(detcover.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=30)
    assert run.returncode == 0 and run.stdout == "raised\n", run.stderr


def test_inverse_agrees_with_fermat():
    # second route: a^(2^m - 2) is the inverse in a field of order 2^m
    rng = random.Random(2)
    for a in range(1, 256):
        assert GF8.inv(a) == GF8.power(a, 2 ** 8 - 2)
    for _ in range(50):
        a = rng.getrandbits(64) | 1
        assert GF64.inv(a) == GF64.power(a, 2 ** 64 - 2)


@given(a=elem8, b=elem8, c=elem8)
def test_axioms_gf8(a, b, c):
    _check_axioms(GF8, a, b, c)


@settings(max_examples=200)
@given(a=elem64, b=elem64, c=elem64)
def test_axioms_gf64(a, b, c):
    _check_axioms(GF64, a, b, c)


def _check_axioms(gf, a, b, c):
    # addition is XOR: commutative, associative, every element its own negative
    assert a ^ b == b ^ a
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert a ^ a == 0
    assert gf.mul(a, b) == gf.mul(b, a)
    assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
    assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
    assert gf.mul(a, 1) == a
    assert gf.mul(a, 0) == 0


@given(a=elem64, b=elem64)
def test_frobenius_gf64(a, b):
    # squaring is additive in characteristic 2
    s = a ^ b
    assert GF64.mul(s, s) == GF64.mul(a, a) ^ GF64.mul(b, b)


def test_sample_bits_unbiased():
    rng = random.Random(123)
    n = 100_000
    counts = [0] * 8
    for _ in range(n):
        v = GF8.sample(rng)
        for b in range(8):
            counts[b] += (v >> b) & 1
    for b in range(8):
        assert abs(counts[b] / n - 0.5) < 0.01


def test_sample_deterministic_per_seed():
    a = [GF64.sample(random.Random(9)) for _ in range(5)]
    b = [GF64.sample(random.Random(9)) for _ in range(5)]
    c = [GF64.sample(random.Random(10)) for _ in range(5)]
    assert a == b
    assert a != c


def test_constructor_rejects_bad_modulus():
    with pytest.raises(ValueError):
        GF2m(8, 0x100)  # x^8, obviously reducible
    with pytest.raises(ValueError):
        GF2m(4, 0b10101)  # (x^2 + x + 1)^2
    with pytest.raises(ValueError):
        GF2m(8, 0x1B)  # degree mismatch
    small = GF2m(4, 0b10011)
    assert small.mul(small.inv(7), 7) == 1
    # mul's written-out window covers 64 bits, and its fold four shifts
    with pytest.raises(ValueError, match="64 bits"):
        GF2m(65, (1 << 65) | 0b100111)
    with pytest.raises(ValueError, match="trinomial or pentanomial"):
        GF2m(7, 0b10111111)  # irreducible, with seven terms
    GF2m(64, (1 << 64) | 0b100111)  # degree 64 is still in range


def test_is_irreducible_small_cases():
    assert is_irreducible(0b111)  # x^2 + x + 1
    assert not is_irreducible(0b101)  # x^2 + 1 = (x + 1)^2
    assert is_irreducible(0x11B)
    assert not is_irreducible(0x11C)


def test_field_for():
    assert field_for(8) is GF8
    assert field_for(64) is GF64
    with pytest.raises(ValueError):
        field_for(16)


def test_production_modulus_is_irreducible():
    # x^(2^64) == x (mod f) forces every irreducible factor degree to
    # divide 64; gcd(x^(2^32) - x, f) == 1 rules out degrees dividing 32,
    # leaving only 64 itself.
    f = GF64.reduction
    s = 2  # the polynomial x
    for _ in range(64):
        s = GF64.mul(s, s)
    assert s == 2
    g = 2
    for _ in range(32):
        g = GF64.mul(g, g)
    a, b = f, g ^ 2  # x^(2^32) + x as an element, lifted to a polynomial
    while b:
        a, b = b, _poly_mod(a, b)
    assert a == 1


def test_power():
    assert GF8.power(0x53, 0) == 1
    assert GF8.power(0x53, 1) == 0x53
    assert GF8.power(0x53, 2) == GF8.mul(0x53, 0x53)
    with pytest.raises(ValueError):
        GF8.power(3, -1)
