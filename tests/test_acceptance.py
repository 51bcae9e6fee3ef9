"""Acceptance gate: every release criterion at its stated tolerance.

Run with  pytest tests/test_acceptance.py -v -s  to see one PASS line per
criterion; any miss fails the corresponding test outright.
"""

import itertools
import random
import threading
import time

from detcover import (GF8, GF64, Hypergraph, ProjectedView, REFERENCE_ROWS,
                      SieveConfig, cover_weight, determinant, dlx_count,
                      general_bound, generate, ie_count, kdm_base, optimize,
                      project, restrict_avoiding, runtime_base, sieve_decide,
                      solve_kdm, solve_xkc)
from detcover import params as params_mod
from detcover import solver as solver_mod

from conftest import (build_tutte, cover_weight_brute, edge_components, enumerate_matchings,
                      filtered_for, rand_instance, ref_mul)


def _ok(num, msg):
    print(f"PASS criterion {num:02d}: {msg}")


def test_criterion_01_optimizer_reproduces_reference_table():
    params_mod.optimize.cache_clear()
    t0 = time.perf_counter()
    rows = {k: optimize(k) for k in range(3, 9)}
    elapsed = time.perf_counter() - t0
    for k, (tau12, tau2, _, _, base) in REFERENCE_ROWS.items():
        row = rows[k]
        assert abs(row.base - base) <= 0.001, (k, row.base, base)
        assert abs(row.tau12 - tau12) <= 0.01, (k, row.tau12, tau12)
        assert abs(row.tau2 - tau2) <= 0.01, (k, row.tau2, tau2)
    assert elapsed < 10.0, elapsed
    _ok(1, f"six optimized rows within 1e-3/1e-2 in {elapsed:.2f}s")


def test_criterion_02_partitioned_solver_bases():
    expect = {3: 1.260, 4: 1.414, 5: 1.516, 6: 1.587, 7: 1.641, 8: 1.682}
    for k, v in expect.items():
        assert abs(kdm_base(k) - v) <= 0.001, (k, kdm_base(k), v)
    _ok(2, "partitioned-solver bases match the reference values within 1e-3")


def test_criterion_03_closed_form_bound():
    for k in range(3, 9):
        c = runtime_base(k, 0.9, 0.6)
        g = k ** (0.9 - k) * (k - 1.0) ** 0.6 * (k - 1.5) ** (k - 1.5)
        constant = (2.0 / c) ** k / g
        assert abs(constant - 8.415) <= 0.01, (k, constant)
    prev = 0.0
    for k in range(3, 17):
        b = general_bound(k)
        assert prev < b < 2.0, (k, b)
        prev = b
    for k in range(3, 9):
        assert general_bound(k) >= optimize(k).base, k
    _ok(3, "rearranged constant is 8.415 +/- 0.01 and the closed-form bound "
           "dominates every optimized base")


def test_criterion_04_printed_rows_are_consistent():
    for k, (_, _, t, attempt_base, _) in REFERENCE_ROWS.items():
        reconstructed = 2.0 ** (1.0 - t) * attempt_base
        assert abs(optimize(k).base - reconstructed) <= 0.002, (k, reconstructed)
    _ok(4, "base == 2^(1-t) * attempt_base for every printed row within 2e-3")


def _bipartite_matching_sum(b, pairs, weights, gf):
    adj = [[] for _ in range(b)]
    for eid, i, j in pairs:
        adj[i].append((eid, j - b))

    def rec(i, used):
        if i == b:
            return 1
        total = 0
        for eid, j in adj[i]:
            if used & (1 << j):
                continue
            sub = rec(i + 1, used | (1 << j))
            if sub:
                total ^= gf.mul(weights[eid], sub)
        return total

    return rec(0, 0)


def test_criterion_05_determinants_equal_matching_enumeration():
    rng = random.Random(505)
    for _ in range(250):  # bipartite half, through the sieve's bipartite probe
        b = rng.randint(1, 4)
        edge_count = rng.randint(0, 3 * b)
        pairs = [(eid, rng.randrange(b), b + rng.randrange(b))
                 for eid in range(edge_count)]
        w = [GF64.sample(rng) for _ in range(edge_count)]
        # k = 2 and U = every vertex: one probe, the determinant squared
        H = Hypergraph(2 * b, 2, [(i, j) for _, i, j in pairs],
                       [tuple(range(b)), tuple(range(b, 2 * b))])
        expect = _bipartite_matching_sum(b, pairs, w, GF64)
        assert sieve_decide(H, range(2 * b), w, GF64) == GF64.mul(expect, expect)
    for _ in range(250):  # loopy half at a random diagonal scale
        u = rng.randint(0, 8)
        pairs, loops = [], []
        for eid in range(rng.randint(0, 12)):
            if u >= 2 and rng.random() < 0.65:
                i, j = sorted(rng.sample(range(u), 2))
                pairs.append((eid, i, j))
            elif u >= 1:
                loops.append((eid, rng.randrange(u)))
        count = len(pairs) + len(loops)
        w = [GF64.sample(rng) for _ in range(count)]
        view = ProjectedView(tuple(range(u)), pairs=pairs, loops=loops)
        s = GF64.sample(rng)
        det = determinant(build_tutte(view, w, s, GF64), GF64)
        expect = 0
        for loop_ct, weight in enumerate_matchings(view, w, GF64):
            expect ^= GF64.mul(GF64.power(s, loop_ct), weight)
        assert det == expect
    _ok(5, "500 random multigraph determinants equal explicit matching sums")


def test_criterion_06_probe_value_equals_brute_force():
    rng = random.Random(606)
    for _ in range(300):
        n = rng.choice([6, 9, 12])
        H0 = rand_instance(rng, 3, n, 14)
        u = sorted(rng.sample(range(n), rng.randint(0, 6)))
        H = filtered_for(H0, u)
        assert len(H.edges) <= 20
        w = [GF64.sample(rng) for _ in H.edges]
        pool = sorted(set(range(n)) - set(u))
        x = sorted(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
        view = restrict_avoiding(project(H, u), H, sum(1 << v for v in x))
        assert cover_weight(view, w, n, 3, GF64) == cover_weight_brute(H, u, x, w, GF64)
    _ok(6, "300 probe values match brute-force family enumeration")


def test_criterion_07_exact_counters_agree():
    rng = random.Random(707)
    for _ in range(200):
        k = rng.choice([3, 4])
        n = k * rng.randint(1, 12 // k)
        H = rand_instance(rng, k, n, 12)
        assert dlx_count(H) == ie_count(H), (n, k, H.edges)
    _ok(7, "Algorithm X and inclusion-exclusion counts agree on 200 instances")


def test_criterion_08_ten_thousand_runs_sound():
    rng = random.Random(808)
    runs = 0
    yes_seen = 0
    # partitioned solver: 400 instances x 20 seeds
    for n, k in ((3, 3), (6, 3), (9, 3), (8, 4)):
        for _ in range(100):
            edges = rng.randint(1, 8)
            plant = rng.random() < 0.5 and edges >= n // k
            H = generate(rng, k, n, edges, plant=plant, kdm=True)
            covers = dlx_count(H)
            for seed in range(20):
                d = solve_kdm(H, SieveConfig(seed=rng.randrange(2 ** 31)))
                runs += 1
                if d.answer == "yes":
                    yes_seen += 1
                    assert covers >= 1, (H.edges, seed)
                if covers == 0:
                    assert d.answer == "no", (H.edges, seed)
    # random-U solver: 100 instances x 20 seeds
    for n, count in ((6, 60), (9, 40)):
        for _ in range(count):
            edges = rng.randint(0, 8)
            plant = rng.random() < 0.4 and edges >= n // 3
            H = generate(rng, 3, n, edges, plant=plant)
            covers = dlx_count(H)
            for seed in range(20):
                d = solve_xkc(H, SieveConfig(seed=rng.randrange(2 ** 31),
                                             epsilon=0.25))
                runs += 1
                if d.answer == "yes":
                    yes_seen += 1
                    assert covers >= 1, (H.edges, seed)
                if covers == 0:
                    assert d.answer == "no", (H.edges, seed)
    assert runs == 10_000
    assert yes_seen > 1000  # the mix really exercised the yes path
    _ok(8, f"10^4 solver runs: no exception, every yes certified "
           f"({yes_seen} yes answers)")


def test_criterion_09_planted_instances_answer_yes():
    rng = random.Random(909)
    runs = 0
    yes = 0
    for n, inst_count in ((9, 60), (12, 40)):
        for _ in range(inst_count):
            H = generate(rng, 3, n, n // 3 + 4, plant=True)
            for _ in range(10):
                d = solve_xkc(H, SieveConfig(seed=rng.randrange(2 ** 31),
                                             epsilon=2.0 ** -20))
                runs += 1
                yes += d.answer == "yes"
    assert runs == 1000
    assert yes >= 999, yes
    _ok(9, f"planted instances answered yes in {yes}/1000 runs")


def test_criterion_10_partitioned_probe_counts(monkeypatch):
    # the nominal count of one sweep, 2^(n - 2n/k), and one walk per
    # component of more than one edge of what the clash rule keeps,
    # over the whole of that component's V - (its blocks 0 and 1), so the
    # X each sweep takes come from all of its codes
    walks = []
    original = solver_mod._walk

    def walking(rest, *args):
        walks.append(rest)
        return original(rest, *args)

    monkeypatch.setattr(solver_mod, "_walk", walking)
    rng = random.Random(10)
    expect = {6: 4, 9: 8, 12: 16, 15: 32}
    swept = 0
    for n, probes in expect.items():
        H = generate(rng, 3, n, n, plant=True, kdm=True)
        walks.clear()
        d = solve_kdm(H, SieveConfig(seed=rng.randrange(2 ** 31)))
        assert d.yes and d.probes == probes and d.attempts == 1, (n, d.probes)
        kept = solver_mod._reduced(H.edges, H.n)
        parts = [C for ids, C in edge_components(H, kept) if len(ids) > 1]
        assert walks == [((1 << C.n) - 1) ^ sum(1 << v for v in (*C.partition[0], *C.partition[1]))
                         for C in parts], (n, walks)
        swept += len(parts)
    assert swept >= 2, swept
    _ok(10, "probe counts are exactly 4, 8, 16, 32 for n = 6, 9, 12, 15 at k = 3")


def test_criterion_11_worker_count_never_changes_the_sum(monkeypatch):
    # every sweep runs on the calling thread: no solve starts a thread,
    # and the accepted worker count changes nothing a solve reports
    def refuse(thread):
        raise AssertionError(f"a solve started thread {thread.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    rng = random.Random(1111)
    seen = {"kdm yes": 0, "kdm no": 0, "xkc yes": 0, "xkc no": 0}
    for _ in range(50):
        H = rand_instance(rng, 3, rng.choice([6, 9]), 10, min_edges=1, kdm=True)
        seed = rng.randrange(10 ** 6)
        for name, solve in (("kdm", solve_kdm), ("xkc", solve_xkc)):
            one, four, eight = (solve(H, SieveConfig(seed=seed, threads=threads))
                                for threads in (1, 4, 8))
            key = (one.answer, one.probes, one.attempts, one.reason)
            assert (four.answer, four.probes, four.attempts, four.reason) == key
            assert (eight.answer, eight.probes, eight.attempts, eight.reason) == key
            seen[f"{name} {one.answer}"] += 1
    assert min(seen.values()) >= 5, seen
    _ok(11, "solve_kdm and solve_xkc decide 50 instances alike at 1, 4 and 8 workers, "
            "starting no thread")


def test_criterion_12_field_axioms_and_independent_product():
    rng = random.Random(1212)
    for gf in (GF8, GF64):
        for _ in range(10_000):
            a, b, c = gf.sample(rng), gf.sample(rng), gf.sample(rng)
            assert a ^ b == b ^ a
            assert (a ^ b) ^ c == a ^ (b ^ c)
            assert a ^ a == 0
            assert gf.mul(a, b) == gf.mul(b, a)
            assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
            assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
            assert gf.mul(a, 1) == a and gf.mul(a, 0) == 0
            if a:
                assert gf.mul(a, gf.inv(a)) == 1
    for a, b in itertools.product(range(256), repeat=2):
        assert GF8.mul(a, b) == ref_mul(a, b, 8, GF8.reduction), (a, b)
    _ok(12, "field axioms on 10^4 triples per field; exhaustive byte-field "
            "product matches an independent implementation")
