"""Exponent optimization, success probabilities, and attempt budgets."""

import math
import random
import sys
from collections import Counter
from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import combinations

import pytest

from detcover import (REFERENCE_ROWS, general_bound, kdm_base, optimize,
                      repetitions, runtime_base, success_probability_exact)

from conftest import ref_optimize


def test_runtime_base_domain():
    with pytest.raises(ValueError):
        runtime_base(3, 0.5, 0.6)  # tau2 above tau12
    with pytest.raises(ValueError):
        runtime_base(3, 1.2, 0.1)
    assert runtime_base(3, 1.0, 1.0) > 0  # boundary is fine


def test_runtime_base_at_fixed_stratification():
    # the closed-form bound is this very point, up to the rounding of its
    # printed constant (8.415 vs the exact value), hence the 1e-4 slack;
    # from k = 145 on, (k - 1.5)^(k - 1.5) alone overflows a float
    for k in (*range(3, 9), 145, 200, 1000):
        assert abs(runtime_base(k, 0.9, 0.6) - general_bound(k)) < 1e-4


def test_optimize_matches_reference_rows():
    for k, (tau12, tau2, t, attempt_base, base) in REFERENCE_ROWS.items():
        row = optimize(k)
        assert abs(row.base - base) <= 1e-3
        assert abs(row.tau12 - tau12) <= 1e-2
        assert abs(row.tau2 - tau2) <= 1e-2
        assert abs(row.t - t) <= 1e-2
        assert abs(row.attempt_base - attempt_base) <= 2e-3


def test_optimize_finds_interior_minimum():
    for k in (3, 5, 8):
        row = optimize(k)
        here = runtime_base(k, row.tau12, row.tau2)
        for d12, d2 in ((0.005, 0), (-0.005, 0), (0, 0.005), (0, -0.005)):
            assert here <= runtime_base(k, row.tau12 + d12, row.tau2 + d2) + 1e-12


def test_optimize_rejects_small_k():
    with pytest.raises(ValueError):
        optimize(2)


def test_optimize_equals_the_plain_grid_scan_bit_for_bit():
    for k in (*range(3, 21), 145, 1000):
        assert optimize(k) == ref_optimize(k), k
    # the minimizer is a sum of grid steps, so IEEE arithmetic fixes its bits
    pins = {3: ("0x1.ec1a8ac5c13fdp-1", "0x1.5bf9c62a1b5c9p-1"),
            4: ("0x1.df43419e30016p-1", "0x1.39c0ebedfa440p-1"),
            5: ("0x1.d7b2031ceaf26p-1", "0x1.2a5269595fedbp-1"),
            6: ("0x1.d2c27a63736cfp-1", "0x1.21797cc39ffd6p-1"),
            7: ("0x1.cf47304039ac0p-1", "0x1.1bb2fec56d5d0p-1"),
            8: ("0x1.ccb5350092cd0p-1", "0x1.17a4e7ab75644p-1")}
    for k, (tau12, tau2) in pins.items():
        row = optimize(k)
        assert (row.tau12.hex(), row.tau2.hex()) == (tau12, tau2), k


def test_optimize_base_is_runtime_base_at_its_minimizer():
    for k in range(3, 21):
        row = optimize(k)
        assert row.base == runtime_base(k, row.tau12, row.tau2), k


def test_optimize_refuses_a_k_too_large_for_a_float():
    # the CLI maps this to exit status 2 (test_solve_k_too_large_for_a_float_is_an_error)
    with pytest.raises(OverflowError):
        optimize(10 ** 400)


def test_general_bound_dominates_and_grows():
    prev = 0.0
    for k in (*range(3, 17), 145, 200, 1000):
        bound = general_bound(k)
        assert bound < 2.0
        assert bound > prev
        prev = bound
    for k in (*range(3, 9), 145, 200, 1000):
        assert general_bound(k) >= optimize(k).base


def test_kdm_base_values():
    assert kdm_base(2) == 1.0
    expect = {3: 1.260, 4: 1.414, 5: 1.516, 6: 1.587, 7: 1.641, 8: 1.682}
    for k, v in expect.items():
        assert abs(kdm_base(k) - v) <= 1e-3
    with pytest.raises(ValueError):
        kdm_base(1)


def test_success_probability_known_values():
    assert success_probability_exact(3, 3, 2 / 3) == 1
    assert success_probability_exact(9, 3, 0.0) == 1
    assert success_probability_exact(9, 3, 5 / 9) == Fraction(9, 14)
    assert success_probability_exact(12, 3, 7 / 12) == Fraction(324, 792)
    assert success_probability_exact(6, 3, 0.5) == Fraction(9, 10)
    with pytest.raises(ValueError):
        success_probability_exact(10, 3, 0.5)
    with pytest.raises(ValueError):
        success_probability_exact(0, 3, 0.5)


def test_success_probability_matches_exhaustive_count():
    # every tn-subset of n vertices in n/k blocks of consecutive labels;
    # the good ones meet each block at most twice
    for k in (2, 3, 4):
        for n in range(k, 13, k):
            for tn in range(n + 1):
                good = total = 0
                for s in combinations(range(n), tn):
                    total += 1
                    good += all(c <= 2 for c in Counter(v // k for v in s).values())
                assert success_probability_exact(n, k, tn / n) == Fraction(good, total), \
                    (n, k, tn)


def test_success_probability_matches_sampling():
    rng = random.Random(1234)
    cases = []
    while len(cases) < 20:
        k = rng.choice([3, 4])
        n = k * rng.randint(2, 4)
        tn = rng.randint(2, n)
        cases.append((n, k, tn))
    trials = 20_000
    for n, k, tn in cases:
        p = float(success_probability_exact(n, k, tn / n))
        blocks = [set(range(b * k, (b + 1) * k)) for b in range(n // k)]
        hits = 0
        for _ in range(trials):
            u = set(rng.sample(range(n), tn))
            if all(len(u & blk) <= 2 for blk in blocks):
                hits += 1
        sigma = math.sqrt(max(p * (1 - p), 1e-12) / trials)
        assert abs(hits / trials - p) <= 3 * sigma + 1e-9


def test_repetitions_known_values():
    eps = 2.0 ** -20
    assert repetitions(3, 3, 2 / 3, eps) == math.ceil(20 * math.log(2))
    assert repetitions(9, 3, 5 / 9, eps) == 22
    assert repetitions(12, 3, 7 / 12, eps) == 34
    assert repetitions(9, 3, 5 / 9, 0.9) == 1
    with pytest.raises(ValueError):
        repetitions(9, 3, 5 / 9, 0.0)
    with pytest.raises(ValueError):
        repetitions(9, 3, 5 / 9, 1.5)


def test_repetitions_rejects_subnormal_epsilon():
    # ln(1/epsilon) overflows for the smallest subnormals, so all are refused
    tiny = sys.float_info.min
    assert repetitions(9, 3, 5 / 9, tiny) > repetitions(9, 3, 5 / 9, 2.0 ** -20)
    for eps in (tiny / 2, 1e-310, 5e-324, math.nan):
        with pytest.raises(ValueError, match="epsilon"):
            repetitions(9, 3, 5 / 9, eps)


def test_repetitions_against_decimal_arithmetic():
    # second route with 50-digit decimals instead of float-over-Fraction
    getcontext().prec = 50
    eps = 2.0 ** -20
    for n, k in ((6, 3), (9, 3), (12, 3), (15, 3), (8, 4), (12, 4)):
        row = optimize(k)
        tn = min(n, max(2, round(row.t * n)))
        p = success_probability_exact(n, k, tn / n)
        dec = (Decimal(2) ** 20).ln() / (Decimal(p.numerator) / Decimal(p.denominator))
        assert repetitions(n, k, tn / n, eps) == math.ceil(dec)
