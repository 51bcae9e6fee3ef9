"""Matching matrices, loop strata, and the probe value against brute force."""

import random

import pytest

from detcover import (GF8, GF64, Hypergraph, ProjectedView,
                      cover_weight, determinant, elementary_symmetric, generate,
                      interpolate, loop_weights, project, restrict_avoiding,
                      sieve_decide)

from detcover import linalg as linalg_mod
from detcover import matchweight as matchweight_mod

from conftest import (CountingField, build_tutte, cover_weight_brute, enumerate_matchings,
                      filtered_for)


def _bipartite_probe(n, edges, weights, partition, gf=GF8):
    # k = 2 and U = every vertex: the sieve runs one bipartite probe and
    # returns that determinant squared
    return sieve_decide(Hypergraph(n, 2, edges, partition), range(n), weights, gf)


def test_edmonds_single_edge():
    assert _bipartite_probe(2, [(0, 1)], [0xAB], [(0,), (1,)]) == GF8.mul(0xAB, 0xAB)


def test_edmonds_parallel_edges_xor():
    got = _bipartite_probe(2, [(0, 1), (0, 1)], [0xAB, 0x0F], [(0,), (1,)])
    assert got == GF8.mul(0xAB ^ 0x0F, 0xAB ^ 0x0F)


def test_edmonds_two_by_two():
    # vertices 0,1 left and 2,3 right; one edge per slot: [[3, 5], [7, 11]]
    w = [3, 5, 7, 11]
    got = _bipartite_probe(4, [(0, 2), (0, 3), (1, 2), (1, 3)], w, [(0, 1), (2, 3)])
    det = GF8.mul(3, 11) ^ GF8.mul(5, 7)
    assert got == GF8.mul(det, det)


def test_edmonds_rejects_bad_shapes():
    with pytest.raises(ValueError, match="n/k"):  # blocks differ in size
        _bipartite_probe(4, [(0, 1)], [1], [(0,), (1, 2, 3)])
    with pytest.raises(ValueError, match="join"):  # edge inside one side
        _bipartite_probe(4, [(0, 1)], [1], [(0, 1), (2, 3)])
    # an edge meeting U = blocks 0 and 1 only once joins nothing
    H = Hypergraph(6, 3, [(0, 2, 4), (0, 4, 5)], [(0, 1), (2, 3), (4, 5)])
    with pytest.raises(ValueError, match="join"):
        sieve_decide(H, [0, 1, 2, 3], [1, 2], GF8)


def test_tutte_single_loop():
    view = ProjectedView((4,), loops=[(0, 0)])
    assert build_tutte(view, [0x53], 2, GF8) == [[GF8.mul(2, 0x53)]]


def test_tutte_symmetric():
    rng = random.Random(3)
    H = generate(rng, 3, 9, 10)
    u = [0, 2, 5, 7]
    view = project(filtered_for(H, u), u)
    w = [GF64.sample(rng) for _ in range(10)]
    mat = build_tutte(view, w, GF64.sample(rng), GF64)
    for i in range(len(mat)):
        for j in range(i):
            assert mat[i][j] == mat[j][i]


def test_tutte_rejects_dropped():
    view = ProjectedView((0, 1), dropped=[0])
    with pytest.raises(ValueError):
        build_tutte(view, [1], 1, GF8)


def test_loop_weights_rejects_dropped():
    view = ProjectedView((0, 1), dropped=[0])
    with pytest.raises(ValueError):
        loop_weights(view, [1], GF8, 1)


def test_loop_weights_no_edges():
    view = ProjectedView((0, 1))
    assert loop_weights(view, [], GF64, 2) == [0, 0, 0]


def test_loop_weights_single_loop():
    view = ProjectedView((3,), loops=[(0, 0)])
    assert loop_weights(view, [0x77], GF64, 1) == [0, 0x77]


def _random_view(rng, u, edge_count, gf, pair_prob=0.7):
    pairs, loops = [], []
    for eid in range(edge_count):
        if u >= 2 and rng.random() < pair_prob:
            i, j = sorted(rng.sample(range(u), 2))
            pairs.append((eid, i, j))
        elif u >= 1:
            loops.append((eid, rng.randrange(u)))
    view = ProjectedView(tuple(range(u)), pairs=pairs, loops=loops)
    return view, [gf.sample(rng) for _ in range(edge_count)]


def _strata(view, w, gf, top):
    strata = [0] * (max(view.u_size, top) + 1)
    for loop_ct, weight in enumerate_matchings(view, w, gf):
        strata[loop_ct] ^= weight
    return strata[:top + 1]


def test_loop_weights_match_enumeration():
    # every |U| from 0 to 10, so both parities and the workloads' 8 and
    # 10, at every truncation from M_0 alone to one past M_|U|
    rng = random.Random(44)
    for u in range(11):
        for rep in range(16):
            gf = (GF8, GF64)[rep % 2]
            view, w = _random_view(rng, u, rng.randint(0, 2 * u + 3), gf)
            for top in range(u + 2):
                assert loop_weights(view, w, gf, top) == _strata(view, w, gf, top), (u, top)


def test_loop_weights_top_zero_is_loop_free_determinant():
    rng = random.Random(52)
    for u in range(11):
        for gf in (GF8, GF64):
            view, w = _random_view(rng, u, 2 * u, gf)
            assert loop_weights(view, w, gf, 0) == [determinant(build_tutte(view, w, 0, gf), gf)]


def test_loop_weights_loops_only():
    # every entry lies on the diagonal with valuation 1, so the first
    # pivot search divides each row by s and the valuation becomes |U|;
    # with top < |U| it stops there, before any field operation
    rng = random.Random(53)
    for u in range(1, 9):
        loops = [(eid, eid % u) for eid in range(2 * u)]
        view = ProjectedView(tuple(range(u)), loops=loops)
        w = [GF64.sample(rng) for _ in loops]
        product = 1
        for i in range(u):
            product = GF64.mul(product, w[i] ^ w[i + u])
        gf = CountingField(GF64)
        assert loop_weights(view, w, gf, u + 1) == [0] * u + [product, 0]
        assert gf.inv_calls == 0
        gf = CountingField(GF64)
        assert loop_weights(view, w, gf, u - 1) == [0] * u
        assert (gf.mul_calls, gf.inv_calls) == (0, 0)


def test_loop_weights_without_matching_in_budget_is_zero():
    # one pair plus loops everywhere needs |U| - 2 loops at least; a pair
    # pattern with an uncovered vertex has no matching at all
    rng = random.Random(54)
    u = 6
    view = ProjectedView(tuple(range(u)), pairs=[(0, 0, 1)],
                         loops=[(eid + 1, eid) for eid in range(u)])
    w = [GF64.sample(rng) for _ in range(u + 1)]
    for top in range(u - 2):
        assert loop_weights(view, w, GF64, top) == [0] * (top + 1)
    assert loop_weights(view, w, GF64, u - 2) == _strata(view, w, GF64, u - 2)
    assert loop_weights(view, w, GF64, u - 2)[u - 2] != 0
    gf = CountingField(GF64)
    bare = ProjectedView((0, 1, 2, 3), pairs=[(0, 0, 1), (1, 1, 2)])
    assert loop_weights(bare, w[:2], gf, 4) == [0] * 5
    assert (gf.mul_calls, gf.inv_calls) == (0, 0)


def test_loop_weights_one_elimination(monkeypatch):
    def forbidden(*args):
        raise AssertionError("loop_weights must not evaluate and interpolate")

    for mod in (matchweight_mod, linalg_mod):
        monkeypatch.setattr(mod, "determinant", forbidden)
        monkeypatch.setattr(mod, "interpolate", forbidden)
    rng = random.Random(47)
    for u in range(11):
        for _ in range(8):
            view, w = _random_view(rng, u, rng.randint(0, 3 * u), GF64)
            gf = CountingField(GF64)
            assert loop_weights(view, w, gf, u) == _strata(view, w, GF64, u)
            assert gf.inv_calls <= u


def test_loop_weights_parity():
    rng = random.Random(45)
    for _ in range(50):
        u = rng.randint(1, 6)
        view, w = _random_view(rng, u, rng.randint(1, 8), GF64, pair_prob=0.5)
        got = loop_weights(view, w, GF64, u)
        for i, v in enumerate(got):
            if (i ^ u) & 1:
                assert v == 0


def test_loop_weights_equals_interpolated_determinants():
    # the evaluate-and-interpolate route: det(tutte(s)) = s^p Q(s^2) with
    # p = |U| mod 2, so floor(|U|/2) + 1 determinants pin down Q, whose
    # coefficients are M_p, M_(p+2), ...
    rng = random.Random(46)
    for u in range(11):
        view, w = _random_view(rng, u, 2 * u + 2, GF64, pair_prob=0.6)
        h, p = u // 2, u % 2
        pts = []
        for s in range(1, h + 2):
            det = determinant(build_tutte(view, w, s, GF64), GF64)
            if p:
                det = GF64.mul(det, GF64.inv(s))
            pts.append((GF64.mul(s, s), det))
        expect = [0] * (u + 1)
        for j, c in enumerate(interpolate(pts, h, GF64)):
            expect[2 * j + p] = c
        assert loop_weights(view, w, GF64, u) == expect


def test_elementary_symmetric_small_cases():
    assert elementary_symmetric([], 3, GF8) == [1, 0, 0, 0]
    a, b = 0x15, 0x3C
    assert elementary_symmetric([a, b], 2, GF8) == [1, a ^ b, GF8.mul(a, b)]
    assert elementary_symmetric([a], 3, GF8) == [1, a, 0, 0]


def test_elementary_symmetric_matches_combinations():
    import itertools
    rng = random.Random(47)
    for _ in range(40):
        vals = [GF8.sample(rng) for _ in range(rng.randint(0, 7))]
        top = rng.randint(0, 6)
        got = elementary_symmetric(vals, top, GF8)
        for j in range(top + 1):
            expect = 0
            for combo in itertools.combinations(vals, j):
                term = 1
                for v in combo:
                    term = GF8.mul(term, v)
                expect ^= term
            assert got[j] == expect


def test_elementary_symmetric_order_invariant():
    rng = random.Random(48)
    vals = [GF64.sample(rng) for _ in range(6)]
    shuffled = vals[:]
    rng.shuffle(shuffled)
    assert elementary_symmetric(vals, 5, GF64) == elementary_symmetric(shuffled, 5, GF64)


def test_cover_weight_empty_u_is_symmetric_sum():
    rng = random.Random(49)
    H = generate(rng, 3, 9, 8)
    w = [GF64.sample(rng) for _ in H.edges]
    view = project(H, [])
    assert cover_weight(view, w, 9, 3, GF64) == elementary_symmetric(w, 3, GF64)[3]


def test_cover_weight_no_edges_is_zero():
    view = ProjectedView((0, 1))
    assert cover_weight(view, [], 6, 3, GF64) == 0


def test_cover_weight_rejects_dropped():
    view = ProjectedView((0, 1), dropped=[0])
    with pytest.raises(ValueError):
        cover_weight(view, [1], 6, 3, GF8)


def test_cover_weight_matches_brute_force():
    rng = random.Random(50)
    for _ in range(120):
        n = rng.choice([6, 9])
        H0 = generate(rng, 3, n, rng.randint(0, 12))
        u = sorted(rng.sample(range(n), rng.randint(0, 5)))
        H = filtered_for(H0, u)
        w = [GF64.sample(rng) for _ in H.edges]
        pool = sorted(set(range(n)) - set(u))
        x = sorted(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
        view = restrict_avoiding(project(H, u), H, sum(1 << v for v in x))
        assert cover_weight(view, w, n, 3, GF64) == cover_weight_brute(H, u, x, w, GF64)


def test_cover_weight_all_pairs_is_tutte_stratum():
    # pairs-only view: only the loop-free stratum contributes
    rng = random.Random(51)
    H = generate(rng, 3, 6, 6, kdm=True, plant=True)
    u = list(H.partition[0]) + list(H.partition[1])
    view = project(H, u)
    w = [GF64.sample(rng) for _ in H.edges]
    assert cover_weight(view, w, 6, 3, GF64) == loop_weights(view, w, GF64, 0)[0]
