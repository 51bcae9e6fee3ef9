"""The exact oracles against each other and against tiny closed forms."""

import random

import pytest

from detcover import GF64, Hypergraph, dlx_count, dlx_enumerate, generate, ie_count, project

from conftest import cover_weight_brute, enumerate_matchings, family_weight, rand_instance


def test_dlx_single_edge():
    H = Hypergraph(3, 3, [(0, 1, 2)])
    assert dlx_enumerate(H) == [[0]]
    assert dlx_count(H) == 1


def test_dlx_respects_multiplicity():
    H = Hypergraph(3, 3, [(0, 1, 2), (0, 1, 2)])
    assert dlx_count(H) == 2
    assert dlx_enumerate(H) == [[0], [1]]


def test_dlx_two_disjoint_plus_decoy():
    H = Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5), (0, 1, 3)])
    assert dlx_enumerate(H) == [[0, 1]]


def test_dlx_empty_cases():
    assert dlx_count(Hypergraph(0, 3, [])) == 1
    assert dlx_count(Hypergraph(6, 3, [])) == 0
    assert dlx_count(Hypergraph(6, 3, [(0, 1, 2)])) == 0


def test_dlx_covers_partition_vertices():
    rng = random.Random(1)
    for _ in range(30):
        H = rand_instance(rng, 3, 9, 10)
        for cover in dlx_enumerate(H):
            seen = sorted(v for eid in cover for v in H.edges[eid])
            assert seen == list(range(9))


def test_ie_small_cases():
    assert ie_count(Hypergraph(0, 3, [])) == 1
    assert ie_count(Hypergraph(3, 3, [(0, 1, 2)])) == 1
    assert ie_count(Hypergraph(6, 3, [(0, 1, 2)])) == 0
    assert ie_count(Hypergraph(4, 3, [(0, 1, 2)])) == 0


def test_ie_matches_dlx():
    rng = random.Random(2)
    for _ in range(60):
        k = rng.choice([3, 4])
        n = k * rng.randint(1, 3)
        H = rand_instance(rng, k, n, 10)
        assert ie_count(H) == dlx_count(H)


def test_enumerate_matchings_counts_edges():
    from detcover import ProjectedView
    view = ProjectedView((0, 1), pairs=[(0, 0, 1)], loops=[(1, 0), (2, 1)])
    w = [3, 5, 7]
    got = sorted(enumerate_matchings(view, w, GF64))
    # one pair matching (squared) and one two-loop matching
    assert got == sorted([(0, GF64.mul(3, 3)), (2, GF64.mul(5, 7))])


def test_enumerate_matchings_guard():
    from detcover import ProjectedView
    with pytest.raises(ValueError):
        enumerate_matchings(ProjectedView(tuple(range(13))), [], GF64)


def test_cover_weight_brute_blocked_by_x():
    H = Hypergraph(3, 3, [(0, 1, 2)])
    w = [0x5A]
    assert cover_weight_brute(H, [0], [1], w, GF64) == 0
    assert cover_weight_brute(H, [0], [], w, GF64) == 0x5A


def test_cover_weight_brute_squares_pairs():
    H = Hypergraph(3, 3, [(0, 1, 2)])
    w = [0x5A]
    assert cover_weight_brute(H, [0, 1], [], w, GF64) == GF64.mul(0x5A, 0x5A)


def test_cover_weight_brute_guard():
    H = Hypergraph(3, 3, [(0, 1, 2)] * 25)
    with pytest.raises(ValueError):
        cover_weight_brute(H, [], [], [1] * 25, GF64)


def test_sieving_brute_probe_values_counts_covers():
    # XOR of the probe value over every X equals the weight of the exact
    # covers alone; everything else cancels in pairs
    rng = random.Random(3)
    for _ in range(20):
        H = rand_instance(rng, 3, 6, 7)
        w = [GF64.sample(rng) for _ in H.edges]
        total = 0
        for code in range(1 << 6):
            x = [v for v in range(6) if code >> v & 1]
            total ^= cover_weight_brute(H, [], x, w, GF64)
        expect = 0
        for cover in dlx_enumerate(H):
            expect ^= family_weight(H, cover, 0, w, GF64)
        assert total == expect
