"""The exact oracles against each other and against tiny closed forms."""

import random
from collections import Counter
from itertools import combinations

import pytest

from detcover import GF64, Hypergraph, dlx_count, dlx_enumerate, generate, ie_count

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


def test_dlx_lists_every_cover_brute_force_finds():
    # every n//k-subset of edge ids whose edges meet every vertex (they
    # hold at most n vertices, so they are disjoint too), with duplicate
    # edges, k = 2..5 and n a multiple of k or not
    rng = random.Random(29)
    seen = {"several covers": 0, "duplicate edges": 0, "n not a multiple of k": 0}
    for rep in range(300):
        k = 2 + rep % 4
        n = rng.randint(0, 12)
        edges = [tuple(sorted(rng.sample(range(n), k))) for _ in range(rng.randint(0, 9))] if n >= k else []
        if rep % 2 == 0 and n % k == 0:
            order = rng.sample(range(n), n)
            edges += [tuple(sorted(order[i:i + k])) for i in range(0, n, k)]
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 2))] if edges else []
        rng.shuffle(edges)
        H = Hypergraph(n, k, edges)
        brute = [ids for ids in combinations(range(len(edges)), n // k)
                 if len({v for e in ids for v in edges[e]}) == n]
        got = dlx_enumerate(H)
        assert Counter(map(tuple, got)) == Counter(brute), H
        assert dlx_count(H) == len(got)
        seen["several covers"] += len(got) > 1
        seen["duplicate edges"] += len(set(edges)) < len(edges)
        seen["n not a multiple of k"] += n % k != 0
    assert min(seen.values()) >= 30, seen


def test_dlx_branches_on_the_vertex_in_the_fewest_live_edges():
    # the root branches on vertex 1 (two edges, as vertices 2, 3 and 5
    # have, and 0 and 4 three).  After edge 1 = (1, 2), vertices 0, 3, 4
    # and 5 each lie in two live edges, so vertex 0 goes next and edge 0
    # comes before edge 5.  Counting every edge, not the live ones, would
    # branch on vertex 3 and list [1, 3, 5] first; always branching on the
    # lowest open vertex would list [2, 3, 4] second
    H = Hypergraph(6, 2, [(0, 5), (1, 2), (0, 1), (3, 5), (2, 4), (0, 4), (3, 4)])
    assert dlx_enumerate(H) == [[0, 1, 6], [1, 3, 5], [2, 3, 4]]


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


def test_dlx_too_deep_raises_value_error():
    # the `gen --k 3 --n 3300 --edges 1100 --plant --seed 1` instance: its
    # cover of 1100 edges nests deeper than Python's recursion limit, and
    # the library says so instead of raising RecursionError (dlx_enumerate
    # runs the same search)
    H = generate(random.Random(1), 3, 3300, 1100, plant=True)
    with pytest.raises(ValueError, match=r"a cover of n=3300 is too deep for the exact search "
                                         r"\(1100 nested edge choices\)"):
        dlx_count(H)
