"""The sieve against explicit enumeration, plus both end-to-end solvers."""

import random
import sys
from bisect import bisect_left
from collections import Counter
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_, xor

import pytest

from detcover import (GF8, GF64, Hypergraph, SieveConfig, cover_weight, dlx_count, generate,
                      project, restrict_avoiding, sieve_decide, solve_kdm, solve_xkc)
from detcover import solver as solver_mod

from conftest import cover_weight_brute, covers_weight_sum, filtered_for, rand_instance, ref_det


def test_sieve_single_probe_when_u_is_everything():
    # k=2 keeps every edge inside U, so the X range collapses to one probe
    rng = random.Random(1)
    H = generate(rng, 2, 6, 8, plant=True)
    w = [GF64.sample(rng) for _ in H.edges]
    value = sieve_decide(H, range(6), w, GF64)
    assert value == covers_weight_sum(H, range(6), w, GF64)


def test_sieve_u_beyond_the_edge_budget_probes_nothing(monkeypatch):
    # |U| = 5 > 2n/k = 4: n/k = 2 edges meeting U at most twice each
    # cannot cover U.  The loop budget 2n/k - |U| is negative, so the
    # general kernel's witness search at the root finds no family, and
    # the walk never starts
    rng = random.Random(3)
    H = Hypergraph(6, 3, [(0, 1, 5), (2, 3, 5), (1, 4, 5), (0, 4, 5)])
    u = [0, 1, 2, 3, 4]
    w = [GF64.sample(rng) for _ in H.edges]

    def probe(*args):
        raise AssertionError("cover_weight called with |U| > 2n/k")

    monkeypatch.setattr(solver_mod, "cover_weight", probe)
    assert sieve_decide(H, u, w, GF64) == covers_weight_sum(H, u, w, GF64) == 0


def test_sieve_matches_cover_enumeration():
    rng = random.Random(2)
    checked_nonzero = 0
    for _ in range(60):
        n = rng.choice([6, 9])
        H0 = rand_instance(rng, 3, n, 10, plant_prob=0.6, min_edges=1)
        u = sorted(rng.sample(range(n), rng.choice([2, 3, 4])))
        H = filtered_for(H0, u)
        w = [GF64.sample(rng) for _ in H.edges]
        expect = covers_weight_sum(H, u, w, GF64)
        assert sieve_decide(H, u, w, GF64) == expect
        checked_nonzero += bool(expect)
    assert checked_nonzero >= 10  # the comparison saw real covers, not only zeros


def test_sieve_with_empty_u_sums_plain_cover_products():
    # U = {} degrades every edge to the empties pool; the sweep over all
    # of V must still isolate exactly the cover products
    rng = random.Random(13)
    seen_nonzero = 0
    for _ in range(20):
        H = rand_instance(rng, 3, 6, 8, plant_prob=0.7)
        w = [GF64.sample(rng) for _ in H.edges]
        expect = covers_weight_sum(H, [], w, GF64)
        assert sieve_decide(H, [], w, GF64) == expect
        seen_nonzero += bool(expect)
    assert seen_nonzero >= 5


def test_sieve_zero_when_unsolvable():
    H = Hypergraph(6, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
    for seed in range(10):
        rng = random.Random(seed)
        w = [GF64.sample(rng) for _ in H.edges]
        assert sieve_decide(H, [0, 1], w, GF64) == 0


def test_sieve_rejects_bad_input():
    H = Hypergraph(6, 3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        sieve_decide(H, [0, 1, 2], [1], GF64)  # an edge meets U thrice
    with pytest.raises(ValueError):
        sieve_decide(H, [0], [1, 2], GF64)  # weight count mismatch
    with pytest.raises(ValueError):
        sieve_decide(Hypergraph(4, 3, [(0, 1, 2)]), [0], [1], GF64)


def _can_be_nonzero(H, u, x_mask):
    """The sieve's zero test by brute force: some n/k edges avoiding X
    hold a family, meeting each U vertex exactly once (a perfect matching
    of U by pairs and loops, padded with edges that miss U)."""
    u_mask = sum(1 << v for v in u)
    meets = [mk & u_mask for mk in H.edge_masks if not mk & x_mask]
    return any(sum(c) == u_mask == reduce(or_, c, 0) for c in combinations(meets, H.n // H.k))


def _families(H, u):
    """Every family by brute force, as edge-id tuples: n/k edges whose U
    parts are disjoint and cover U (a perfect matching of U by pairs and
    loops, padded with edges that miss U)."""
    u_mask = sum(1 << v for v in u)
    meets = [mk & u_mask for mk in H.edge_masks]
    return [f for f in combinations(range(len(H.edges)), H.n // H.k)
            if sum(meets[e] for e in f) == u_mask == reduce(or_, (meets[e] for e in f), 0)]


def _walk_model(rest, masks, families):
    """The walks' output by brute force: (yielded, pruned) codes, in the
    code order of _code_order(rest, masks).  A family of Y is one of
    `families` (edge-id tuples) with every edge avoiding Y.  A node Y
    passes when it has a family and every vertex below its lowest code
    bit (every vertex at the root) lies in an edge of a family of Y.  The
    walk reaches Y when every proper ancestor of Y in the code tree, root
    included, passes; a reached Y with a family is yielded if it passes
    and pruned, with its subtree, if not."""
    rest = _code_order(rest, masks)
    memo = {}

    def check(code):  # (has a family, passes)
        if code not in memo:
            y = sum(1 << v for i, v in enumerate(rest) if code >> i & 1)
            live = [f for f in families if not any(masks[e] & y for e in f)]
            used = reduce(or_, (masks[e] for f in live for e in f), 0)
            below = (code & -code).bit_length() - 1 if code else len(rest)
            memo[code] = bool(live), bool(live) and all(used >> v & 1 for v in rest[:below])
        return memo[code]

    yielded, pruned = [], []
    for code in range(1 << len(rest)):
        ancestors = [0, *(code >> i << i for i in reversed(range(len(rest))) if code >> i & 1)]
        if all(check(a)[1] for a in ancestors[:-1]) and check(code)[0]:
            (yielded if check(code)[1] else pruned).append(code)
    return yielded, pruned


def _subtree(code, codes):
    """The codes of the subtree below `code` in the walks' code tree."""
    return range(code, code + (code & -code)) if code else range(codes)


def test_sieve_probe_count(monkeypatch):
    # cover_weight runs exactly once on each X that the brute-force walk
    # model yields; every other X without a family has probe zero, and
    # the probes of all the other X XOR to zero
    made, probed = [], []
    inner_restrict, inner_cover = solver_mod.restrict_avoiding, solver_mod.cover_weight

    def restricting(view, H, x_mask):
        made.append((x_mask, inner_restrict(view, H, x_mask)))
        return made[-1][1]

    def counting(view, weights, n, k, gf):
        probed.append(next(x for x, v in made if v is view))
        return inner_cover(view, weights, n, k, gf)

    monkeypatch.setattr(solver_mod, "restrict_avoiding", restricting)
    monkeypatch.setattr(solver_mod, "cover_weight", counting)
    rng = random.Random(3)
    cases = [(generate(rng, 3, 9, 6, plant=True), [0, 1, 4])]
    for _ in range(8):
        n = rng.choice([6, 9])
        cases.append((rand_instance(rng, 3, n, 9, min_edges=1),
                      sorted(rng.sample(range(n), rng.choice([0, 2, 3, 4])))))
    skipped = 0
    for H, u in cases:
        sub = filtered_for(H, u)
        w = [GF64.sample(rng) for _ in sub.edges]
        made.clear()
        probed.clear()
        sieve_decide(sub, u, w, GF64)
        rest = [v for v in range(sub.n) if v not in u]
        xs = _in_code_order(rest, sub.edge_masks)
        passing = [xs[c] for c in _walk_model(rest, sub.edge_masks, _families(sub, u))[0]]
        assert sorted(probed) == sorted(passing)
        left = 0
        for x in set(xs) - set(passing):
            value = cover_weight_brute(sub, u, [v for v in rest if x >> v & 1], w, GF64)
            assert value == 0 or _can_be_nonzero(sub, u, x)
            left ^= value
        assert left == 0
        skipped += len(xs) - len(passing)
    assert skipped >= 100


def test_parallel_sieve_is_bit_identical():
    rng = random.Random(4)
    for _ in range(10):
        n = rng.choice([6, 9])
        H0 = rand_instance(rng, 3, n, 9, min_edges=1)
        u = sorted(rng.sample(range(n), 3))
        H = filtered_for(H0, u)
        w = [GF64.sample(rng) for _ in H.edges]
        serial = sieve_decide(H, u, w, GF64)
        for threads in (1, 2, 4, 8, 64):
            assert sieve_decide(H, u, w, GF64, threads) == serial


def _code_order(rest, masks):
    """The vertices of `rest` in the walks' code order: bit i of a code
    puts the i-th in X.  Fewest edges (vertex bitmasks `masks`) first,
    equal counts by label."""
    return sorted(rest, key=lambda v: (sum(mk >> v & 1 for mk in masks), v))


def _in_code_order(rest, masks):
    """Every X within the vertex list `rest`, by code (see _code_order)."""
    order = _code_order(rest, masks)
    return [sum(1 << v for i, v in enumerate(order) if c >> i & 1) for c in range(1 << len(order))]


def _view_ends(H, view):
    ends = [()] * len(H.edges)
    for eid, *at in view.pairs + view.loops:
        ends[eid] = tuple(at)
    return ends


def test_sweep_filters_each_avoided_set_once(monkeypatch):
    # against the brute-force walk model: each sieve walks once, yields
    # its passing X once each, in increasing code order, and only those
    # reach the filter, once each; one thread filters each X as the walk
    # yields it, more are dealt the walked X, and every count gives one
    # total; the X never yielded have probe values that XOR to zero
    walks, events = [], []
    inner_walk, inner_restrict = solver_mod._walk, solver_mod.restrict_avoiding

    def walking(*args):
        walks.append(args)
        return _tapped(inner_walk(*args), lambda x: events.append(("yield", x)))

    def recording(view, H, x_mask):
        events.append(("filter", x_mask))
        return inner_restrict(view, H, x_mask)

    monkeypatch.setattr(solver_mod, "_walk", walking)
    monkeypatch.setattr(solver_mod, "restrict_avoiding", recording)
    rng = random.Random(15)
    u = [1, 4, 5, 7]
    rest = [0, 2, 3, 6, 8]  # V - U has gaps, so codes and masks differ
    split = 0
    for _ in range(7):
        H = filtered_for(rand_instance(rng, 3, 9, 9, min_edges=1), u)
        w = [GF64.sample(rng) for _ in H.edges]
        walk = _in_code_order(rest, H.edge_masks)
        expect = [walk[c] for c in _walk_model(rest, H.edge_masks, _families(H, u))[0]]
        assert len(expect) < len(walk)
        totals = set()
        for threads in (1, 3, 64):
            walks.clear()
            events.clear()
            totals.add(sieve_decide(H, u, w, GF64, threads))
            assert len(walks) == 1 or not expect and not walks  # no walk: the root has no family
            assert [x for kind, x in events if kind == "yield"] == expect
            assert sorted(x for kind, x in events if kind == "filter") == sorted(expect)
            if threads == 1:    # the walk itself, never listed
                assert events == [(kind, x) for x in expect for kind in ("yield", "filter")]
        assert len(totals) == 1
        values = [cover_weight_brute(H, u, [v for v in rest if x >> v & 1], w, GF64)
                  for x in set(walk) - set(expect)]
        assert reduce(xor, values, 0) == 0
        view = project(H, u)
        args = (_view_ends(H, view), H.edge_masks, 3, len(u), sum(1 << v for v in rest))
        assert list(solver_mod._live_probes(*args)) == expect
        split += len(expect) > 3
    assert split >= 2


def test_family_loop_budget():
    # U indices 0 and 1, each with a loop and joined by a pair: a budget of
    # 0 admits no loop, a negative budget admits no family at all, and
    # `least` can force loops within the budget
    both, loops_only = [0b11, 0b11], [0b01, 0b10]
    assert solver_mod._family(both, 0b11, 0, 0, 2) == [1]
    assert solver_mod._family(loops_only, 0b11, 0, 0, 2) is None
    assert solver_mod._family(loops_only, 0b11, 1, 0, 2) is None
    assert sorted(solver_mod._family(loops_only, 0b11, 2, 0, 2)) == [0, 3]
    assert sorted(solver_mod._family(both, 0b11, 2, 1, 2)) == [0, 3]
    for budget in (-1, -2):
        assert solver_mod._family(both, 0b11, budget, 0, 2) is None
        assert solver_mod._family(both, 0, budget, 0, 2) is None
    assert solver_mod._family(both, 0, 0, 0, 2) == []


class _StubKernel:
    """A kernel for _walk over the vertices `rest`, which keeps the dead
    edges it is told of: kill checks that they are exactly the edges
    meeting X (read off the dead one-vertex edges) and fails at the codes
    (in _code_order) in `fail`; revive must undo the latest unmatched
    kill; user's uses(i) takes a live edge and is not reject(X,
    masks[i])."""

    def __init__(self, rest, masks, fail=(), reject=lambda x, mk: False):
        self.order, self.masks = _code_order(rest, masks), masks
        self.fail, self.reject = set(fail), reject
        self.singles = [i for i, mk in enumerate(masks) if mk.bit_count() == 1]
        self.dead, self.stack, self.codes = set(), [], []

    def x(self):
        return reduce(or_, (self.masks[i] for i in self.singles if i in self.dead), 0)

    def kill(self, ids):
        assert ids and not self.dead & set(ids)
        self.dead |= set(ids)
        self.stack.append(ids)
        x = self.x()
        assert self.dead == {i for i, mk in enumerate(self.masks) if mk & x}
        self.codes.append(sum(1 << j for j, v in enumerate(self.order) if x >> v & 1))
        return self.codes[-1] not in self.fail

    def revive(self, ids):
        assert self.stack.pop() == ids
        self.dead -= set(ids)

    def user(self):
        x = self.x()

        def uses(i):
            assert i not in self.dead  # the walk asks only about live edges
            return not self.reject(x, self.masks[i])

        return uses

    def walk(self):
        rest = sum(1 << v for v in self.order)
        return list(solver_mod._walk(rest, self.masks, self.kill, self.revive, self.user))


def _prefixes(code, width):
    """The nodes on the code tree's path from the root down to `code`."""
    return [0, *(code >> i << i for i in reversed(range(width)) if code >> i & 1)]


def test_walk_with_stub_kernels():
    # a one-vertex edge per vertex of V - U keeps every vertex in a live
    # edge, so only the stubs prune; the other edges, some with two
    # vertices of V - U (alive until X takes the first) and some with
    # vertices of U, make kill lists longer than one edge and the code
    # order differ from the label order
    rng = random.Random(31)
    fails = rejects = shuffled = 0
    for _ in range(12):
        n = rng.randint(5, 9)
        order = sorted(rng.sample(range(n), rng.randint(3, 5)))
        width, codes = len(order), 1 << len(order)
        masks = [1 << v for v in order]
        masks += [sum(1 << v for v in rng.sample(range(n), 3)) for _ in range(rng.randint(2, 6))]
        rng.shuffle(masks)
        order = _code_order(order, masks)
        shuffled += order != sorted(order)
        xs = _in_code_order(order, masks)
        # every X, in code order
        kernel = _StubKernel(order, masks)
        assert kernel.walk() == xs and not kernel.stack
        # a kill that fails at code c skips exactly c's subtree [c, c + (c & -c))
        fail = rng.sample(range(1, codes), rng.randint(1, 3))
        expect = [xs[c] for c in range(codes)
                  if not any(f <= c < f + (f & -f) for f in fail)]
        kernel = _StubKernel(order, masks, fail)
        assert kernel.walk() == expect and not kernel.stack
        fails += codes - len(expect)
        # rejecting every edge of one vertex prunes at the root
        bare = rng.choice(order)
        kernel = _StubKernel(order, masks, reject=lambda x, mk: mk >> bare & 1)
        assert kernel.walk() == [] and kernel.stack == []
        # rejecting them only once X holds w prunes each node that holds w
        # and can still add v, with its subtree
        v, w = rng.sample(range(width), 2)
        pruned = {a for a in range(codes) if a >> w & 1 and v < (a & -a).bit_length() - 1}
        expect = [xs[c] for c in range(codes) if not pruned & set(_prefixes(c, width))]
        kernel = _StubKernel(order, masks,
                             reject=lambda x, mk: x >> order[w] & 1 and mk >> order[v] & 1)
        assert kernel.walk() == expect and not kernel.stack
        rejects += codes - len(expect)
    assert fails >= 40 and rejects >= 40 and shuffled >= 4, (fails, rejects, shuffled)


def test_walk_code_order_follows_edge_counts():
    # besides its one-vertex edge, vertex 2 of V - U lies in three edges,
    # 5 and 7 in two each, 4 in one and 1 in none: code bits 0..4 put 1,
    # 4, 5, 7, 2 in X, so the vertex in the most edges takes the top bit
    # and the tie between 5 and 7 keeps label order
    rest = [1, 2, 4, 5, 7]
    masks = [sum(1 << v for v in e)
             for e in [(0, 2, 5), (2, 3, 4), (2, 6, 7), (5, 7, 8), *((v,) for v in rest)]]
    order = [1, 4, 5, 7, 2]
    assert _code_order(rest, masks) == order
    xs = [sum(1 << v for i, v in enumerate(order) if c >> i & 1) for c in range(32)]
    walk = list(solver_mod._walk(sum(1 << v for v in rest), masks, lambda ids: True,
                                 lambda ids: None, lambda: lambda i: True))
    assert walk == xs
    assert all(x >> 2 & 1 for x in walk[16:]) and not any(x >> 2 & 1 for x in walk[:16])


def _relabel(H, perm):
    """H with vertex v renamed perm[v]; edge i stays edge i."""
    edges = [tuple(sorted(perm[v] for v in e)) for e in H.edges]
    blocks = H.partition and [tuple(perm[v] for v in block) for block in H.partition]
    return Hypergraph(H.n, H.k, edges, blocks)


def test_relabelling_v_minus_u_keeps_totals_and_answers():
    # renaming the vertices of V - U can reorder the code bits (ties in
    # edge count go by label) and so change which subtrees the walks
    # skip, but not the sieve total, each edge keeping its weight, nor
    # what either solver answers
    rng = random.Random(32)
    seen = {"reordered": 0, "nonzero": 0, "yes": 0, "no": 0}
    for rep in range(24):
        gf, kdm = (GF8, GF64)[rep % 2], rep % 4 >= 2
        k = rng.choice([3, 4])
        n = k * rng.choice([2, 3])
        H0 = rand_instance(rng, k, n, n // k + 5, plant_prob=0.6, min_edges=1, kdm=kdm)
        if kdm:
            u = [*H0.partition[0], *H0.partition[1]]
        else:
            u = sorted(rng.sample(range(n), rng.choice([2, 3, 4])))
        rest = [v for v in range(n) if v not in u]
        perm = list(range(n))
        for v, image in zip(rest, rng.sample(rest, len(rest))):
            perm[v] = image
        H, G0 = filtered_for(H0, u), _relabel(H0, perm)
        G = _relabel(H, perm)
        moved = [perm[v] for v in _code_order(rest, H.edge_masks)]
        seen["reordered"] += moved != _code_order(sorted(moved), G.edge_masks)
        w = [gf.sample(rng) for _ in H.edges]
        total = sieve_decide(H, u, w, gf)
        solve = solve_kdm if kdm else solve_xkc
        for threads in (1, 3):
            assert sieve_decide(G, u, w, gf, threads) == total, (rep, threads)
            cfg = SieveConfig(m=gf.m, seed=rep, threads=threads)
            before, after = solve(H0, cfg), solve(G0, cfg)
            assert before.answer == after.answer, (rep, threads)
        seen["nonzero"] += bool(total)
        seen[before.answer] += 1
    assert min(seen.values()) >= 5, seen


def test_live_probes_yield_exactly_the_filtered_sets():
    # against the brute-force walk model, on views with pairs, loops,
    # empty and duplicate edges; k = 4 and the loops put two vertices of
    # an edge in V - U, so hit counts reach 2.
    # The skipped X add nothing: the yielded probes alone sum to the
    # cover enumeration
    rng = random.Random(19)
    kinds = {"pairs": 0, "loops": 0, "empties": 0, "duplicates": 0, "rejected": 0}
    for gf in (GF8, GF64):
        for k, n in ((3, 6), (3, 9), (4, 8)):
            for _ in range(4):
                H0 = rand_instance(rng, k, n, n // k + 4, plant_prob=0.7, min_edges=2)
                edges = H0.edges + rng.sample(H0.edges, 2)
                u = sorted(rng.sample(range(n), rng.choice([0, 2, 3, 4])))
                H = filtered_for(Hypergraph(n, k, edges), u)
                view = project(H, u)
                rest = ((1 << n) - 1) ^ view.u_mask
                order = [v for v in range(n) if rest >> v & 1]
                walk = _in_code_order(order, H.edge_masks)
                expect = [walk[c] for c in _walk_model(order, H.edge_masks, _families(H, u))[0]]
                args = (_view_ends(H, view), H.edge_masks, n // k, len(u), rest)
                assert list(solver_mod._live_probes(*args)) == expect, (k, n, u)
                w = [gf.sample(rng) for _ in H.edges]
                values = [cover_weight(restrict_avoiding(view, H, x), w, n, k, gf) for x in expect]
                if gf is GF64:  # the filter is exact: a family makes the probe nonzero
                    assert all(values), (k, n, u)
                total = 0
                for v in values:
                    total ^= v
                assert total == covers_weight_sum(H, u, w, gf)
                for kind in ("pairs", "loops", "empties"):
                    kinds[kind] += bool(getattr(view, kind))
                kinds["duplicates"] += len(set(H.edges)) < len(H.edges)
                kinds["rejected"] += len(walk) - len(expect)
    assert min(kinds.values()) >= 5, kinds


def test_skipped_subtrees_cancel():
    # brute force: every subtree that a walk skips on its cancel test (a
    # vertex below the node's lowest code bit in no edge of any family, or
    # of any perfect matching) XORs to zero, the yields still sum to the
    # cover enumeration, and the walk yields exactly them.
    # xkc views have pairs, loops, empties and duplicate edges; kdm has
    # cancelling twins and denser instances with fewer covers, and k = 4
    # makes hit counts reach 2
    rng = random.Random(27)
    seen = {"pairs": 0, "loops": 0, "empties": 0, "duplicates": 0, "xkc pruned": 0,
            "k = 3 pruned": 0, "k = 4 pruned": 0, "nonzero": 0}
    for gf in (GF8, GF64):
        for k, n in ((3, 6), (3, 9), (4, 8)):
            for _ in range(6):
                H0 = rand_instance(rng, k, n, n // k + 4, plant_prob=0.7, min_edges=2)
                u = sorted(rng.sample(range(n), rng.choice([0, 2, 3, 4])))
                H = filtered_for(Hypergraph(n, k, H0.edges + rng.sample(H0.edges, 2)), u)
                view = project(H, u)
                rest = [v for v in range(n) if v not in u]
                xs = _in_code_order(rest, H.edge_masks)
                yielded, pruned = _walk_model(rest, H.edge_masks, _families(H, u))
                w = [gf.sample(rng) for _ in H.edges]
                probe = [cover_weight_brute(H, u, [v for v in rest if x >> v & 1], w, gf)
                         for x in xs]
                for c in pruned:
                    assert reduce(xor, (probe[d] for d in _subtree(c, len(xs))), 0) == 0
                total = reduce(xor, (probe[c] for c in yielded), 0)
                assert total == covers_weight_sum(H, u, w, gf)
                args = (_view_ends(H, view), H.edge_masks, n // k, len(u),
                        sum(1 << v for v in rest))
                assert list(solver_mod._live_probes(*args)) == [xs[c] for c in yielded], (k, n, u)
                for kind in ("pairs", "loops", "empties"):
                    seen[kind] += bool(getattr(view, kind))
                seen["duplicates"] += len(set(H.edges)) < len(H.edges)
                seen["xkc pruned"] += len(pruned)
                seen["nonzero"] += bool(total)
        for k, n in ((3, 9), (3, 12), (3, 15), (3, 18), (4, 8), (4, 12)):
            cases = [_kdm_with_cancelling_twins(rng, gf, k, n, swap) for swap in (False, True)]
            for _ in range(6):
                H = rand_instance(rng, k, n, 3 * n // k, plant_prob=0.3, min_edges=3 * n // k,
                                  kdm=True)
                cases.append((H, [gf.sample(rng) for _ in H.edges]))
            for H, w in cases:
                entries, b, rest, codes, xs = _kdm_case(H)
                yielded, pruned = _kdm_model(entries, b, rest)
                probe = [ref_det(_live_grid(entries, b, w, x)[1], gf) for x in xs]
                for c in pruned:
                    assert reduce(xor, (probe[d] for d in _subtree(c, codes)), 0) == 0
                total = reduce(xor, (probe[c] for c in yielded), 0)
                u = [*H.partition[0], *H.partition[1]]
                assert gf.mul(total, total) == covers_weight_sum(H, u, w, gf)
                walk = list(solver_mod._matchable_probes(entries, b, rest))
                assert walk == [xs[c] for c in yielded], (k, n)
                seen[f"k = {k} pruned"] += len(pruned)
                seen["nonzero"] += bool(total)
    assert min(seen.values()) >= 10, seen


def test_walk_is_output_sensitive(monkeypatch):
    # one perfect matching and no other edge: 2^24 nominal X, but adding
    # any vertex of V - U empties a matched cell that no augmenting path
    # repairs, so only X = {} is probed.  The block race opens all three
    # pairs' walks, b augmenting paths at each root, and pair (0, 1) ends
    # first, after one failed repair per vertex of block 2.  The sweep
    # takes the matching that walk returns, with no search of its own,
    # and splits the root support into b blocks of 1x1, which need no
    # determinant
    calls = {"_perfect_matching": 0, "_augment": 0, "determinant": 0, "cover_weight": 0}
    last = {}                   # the arguments of each name's latest call
    for name in calls:
        def counting(*args, _name=name, _inner=getattr(solver_mod, name)):
            calls[_name] += 1
            last[_name] = args
            return _inner(*args)
        monkeypatch.setattr(solver_mod, name, counting)
    handed = []                 # the matching each sweep gets
    inner_sweep = solver_mod._sweep_kdm

    def sweeping(entries, matching, *args):
        handed.append(matching)
        return inner_sweep(entries, matching, *args)

    monkeypatch.setattr(solver_mod, "_sweep_kdm", sweeping)
    rng = random.Random(21)
    b = 24
    blocks = [list(range(i * b, (i + 1) * b)) for i in range(3)]
    cols, tails = rng.sample(blocks[1], b), rng.sample(blocks[2], b)
    H = Hypergraph(3 * b, 3, [tuple(e) for e in zip(blocks[0], cols, tails)], blocks)
    w = [GF64.sample(rng) for _ in H.edges]
    product = 1
    for x in w:
        product = GF64.mul(product, x)
    assert sieve_decide(H, blocks[0] + blocks[1], w, GF64) == GF64.mul(product, product)
    assert calls == {"_perfect_matching": 3, "_augment": 4 * b, "determinant": 0,
                     "cover_weight": 0}
    # the last search was pair (1, 2)'s root; pair (0, 1)'s matching is
    # the hidden one, row i to column cols[i]
    assert last["_perfect_matching"] == ([1 << (t - 2 * b) for _, t in sorted(zip(cols, tails))],)
    col_of = [c - b for c in cols]
    assert handed == [(sorted(range(b), key=col_of.__getitem__), col_of)]
    # the xkc twin: one exact cover of n = 33 vertices; U takes one vertex
    # of each edge and a second of two, so |V - U| = 20
    vertices = rng.sample(range(33), 33)
    edges = [tuple(sorted(vertices[i:i + 3])) for i in range(0, 33, 3)]
    u = sorted([e[0] for e in edges] + [e[1] for e in edges[:2]])
    H = Hypergraph(33, 3, edges)
    w = [GF64.sample(rng) for _ in edges]
    value = sieve_decide(H, u, w, GF64)
    assert value and value == covers_weight_sum(H, u, w, GF64)
    assert calls["cover_weight"] == 1
    # n = 9, |U| = 6, so top = 0: U's pairs form two triangles, which have
    # no perfect matching, and loops may not help.  At four of the eight X
    # every U vertex keeps a live edge and at least n/k edges stay live,
    # but no X holds a family, so the walk fails its one search at the root
    u, rest = list(range(6)), [6, 7, 8]
    edges = [(0, 1, 6), (1, 2, 7), (0, 2, 8), (3, 4, 6), (4, 5, 7), (3, 5, 8),
             (6, 7, 8), (0, 6, 7), (3, 7, 8)]
    H = Hypergraph(9, 3, edges)
    old_test = [x for x in _in_code_order(rest, H.edge_masks)
                if sum(not mk & x for mk in H.edge_masks) >= 3
                and all(any(mk >> v & 1 and not mk & x for mk in H.edge_masks) for v in u)]
    assert len(old_test) == 4
    searches = []
    inner_family = solver_mod._family

    def searching(adj, free, *args):
        searches.append(free)
        return inner_family(adj, free, *args)

    monkeypatch.setattr(solver_mod, "_family", searching)
    args = (_view_ends(H, project(H, u)), H.edge_masks, 3, 6, sum(1 << v for v in rest))
    assert list(solver_mod._live_probes(*args)) == []
    assert searches.count(0b111111) == 1
    w = [GF64.sample(rng) for _ in edges]
    calls["cover_weight"] = 0
    assert sieve_decide(H, u, w, GF64) == 0
    assert calls["cover_weight"] == 0
    # a root prune: n = 12, U = {0, 1, 2, 3}.  Families exist at 16 of the
    # 256 X, but vertex 11 lies only in the pair (0, 2), and no family uses
    # it, since no live edge covers 1 and 3 together or as loops; the walk
    # yields nothing, and no cover_weight runs
    u, rest = [0, 1, 2, 3], list(range(4, 12))
    edges = [(0, 1, 4), (2, 3, 5), (6, 7, 8), (4, 9, 10), (5, 9, 10), (0, 2, 11)]
    H = Hypergraph(12, 3, edges)
    with_family = [x for x in _in_code_order(rest, H.edge_masks) if _can_be_nonzero(H, u, x)]
    assert len(with_family) == 16
    w = [GF64.sample(rng) for _ in edges]
    assert sieve_decide(H, u, w, GF64) == 0
    assert calls["cover_weight"] == 0
    # the kdm twin of that prune: the hidden perfect matching's b = 24
    # edges use only 23 third-block vertices, and the last one lies only in
    # an edge joining row 0 to row 1's column, a cell that no perfect
    # matching uses; the root of the race's first walk makes b augmenting
    # paths and cancels, so no other walk starts
    cols, tails = rng.sample(blocks[1], b), rng.sample(blocks[2], b)
    edges = [(row, col, tail) for row, col, tail in zip(blocks[0], cols, tails[:-1] + tails[:1])]
    H = Hypergraph(3 * b, 3, [*edges, (blocks[0][0], cols[1], tails[-1])], blocks)
    rows = [0] * b
    for _, _, r, c in solver_mod._bipartite_entries(H, blocks[0], blocks[1]):
        rows[r] |= 1 << c
    assert solver_mod._perfect_matching(rows) is not None  # so the matching test passes
    calls.update(_perfect_matching=0, _augment=0, determinant=0)
    w = [GF64.sample(rng) for _ in H.edges]
    assert sieve_decide(H, blocks[0] + blocks[1], w, GF64) == 0
    assert calls == {"_perfect_matching": 1, "_augment": b, "determinant": 0, "cover_weight": 0}


def test_worker_count_below_one_is_rejected():
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            SieveConfig(threads=threads)
    H = Hypergraph(6, 3, [(0, 1, 2), (3, 4, 5)])
    with pytest.raises(ValueError, match="threads"):
        sieve_decide(H, [0, 3], [1, 2], GF64, 0)
    # sieves that end at 0 before any probe check it too: a root support
    # with no perfect matching, and U too large for any family
    kdm = Hypergraph(6, 3, [(0, 2, 4)], [(0, 1), (2, 3), (4, 5)])
    assert sieve_decide(kdm, [0, 1, 2, 3], [1], GF64) == 0
    with pytest.raises(ValueError, match="threads"):
        sieve_decide(kdm, [0, 1, 2, 3], [1], GF64, 0)
    wide = Hypergraph(6, 3, [(0, 1, 2), (2, 3, 4)])
    assert sieve_decide(wide, [0, 1, 3, 4, 5], [1, 2], GF64) == 0
    with pytest.raises(ValueError, match="threads"):
        sieve_decide(wide, [0, 1, 3, 4, 5], [1, 2], GF64, 0)


def _inline_pool(log):
    """A stand-in for ThreadPoolExecutor that runs each mapped call
    inline, so any worker count is checked without starting a thread;
    each map appends (max_workers, its argument tuples) to log."""
    class InlinePool:
        def __init__(self, max_workers):
            self.size = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            log.append((self.size, list(zip(*iterables))))
            return [fn(*args) for args in log[-1][1]]

    return InlinePool


def test_worker_pool_is_capped_at_cpu_count(monkeypatch):
    # every count walks once and deals the walked X round robin to
    # min(threads, len, cpu_count) workers, one map call each; the
    # stand-in pool runs worker i's share whole before worker i + 1's
    log, walks, filtered = [], [], []
    inner_walk, inner_restrict = solver_mod._walk, solver_mod.restrict_avoiding

    def walking(*args):
        walks.append(args)
        return inner_walk(*args)

    def recording(view, H, x_mask):
        filtered.append(x_mask)
        return inner_restrict(view, H, x_mask)

    monkeypatch.setattr(solver_mod, "ThreadPoolExecutor", _inline_pool(log))
    monkeypatch.setattr(solver_mod.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(solver_mod, "_walk", walking)
    monkeypatch.setattr(solver_mod, "restrict_avoiding", recording)
    rng = random.Random(12)
    u = [0, 1, 4]
    H = filtered_for(generate(rng, 3, 9, 6, plant=True), u)
    w = [GF64.sample(rng) for _ in H.edges]
    serial = sieve_decide(H, u, w, GF64)
    whole = list(filtered)
    assert len(whole) == 4 and len(walks) == 1 and not log
    for threads in (2, 4, 64, 100_000):
        walks.clear()
        filtered.clear()
        assert sieve_decide(H, u, w, GF64, threads) == serial
        parts = min(threads, 3)
        assert len(walks) == 1 and log[-1] == (parts, [(i,) for i in range(parts)])
        assert filtered == [x for i in range(parts) for x in whole[i::parts]]
    assert len(log) == 4
    # kdm deals the X list its walk kept, one X a worker here
    kdm = generate(random.Random(24), 3, 12, 8, plant=True, kdm=True)
    xs = solver_mod._cheapest_blocks(kdm)[3]
    d = solve_kdm(kdm, SieveConfig(seed=1, threads=100_000))
    assert d.yes and d.probes == 16 and len(xs) == 3
    assert log[-1] == (3, [(0,), (1,), (2,)])


def test_threads_share_one_kdm_set_up(monkeypatch):
    # the kdm sweep splits its blocks, multiplies the untouched ones and
    # keeps its memo once per sieve, and deals only the per-X products to
    # the workers: at every thread count each (block, key) is computed at
    # most once, on the inputs of one thread.  The stand-in pool runs the
    # workers one after another, so no race stores a key twice
    log, calls = [], []
    inner_det = solver_mod.determinant

    def computing(rows, gf):
        calls.append(_canon(rows))
        return inner_det(rows, gf)

    monkeypatch.setattr(solver_mod, "determinant", computing)
    monkeypatch.setattr(solver_mod, "ThreadPoolExecutor", _inline_pool(log))
    monkeypatch.setattr(solver_mod.os, "cpu_count", lambda: 4)
    rng = random.Random(33)
    seen = {"dealt": 0, "determinants": 0}
    for rep in range(12):
        gf = (GF8, GF64)[rep % 2]
        k, n = rng.choice([(3, 21), (4, 16), (4, 20)])
        H = generate(rng, k, n, n, plant=True, kdm=True)  # n edges: long X lists, wide blocks
        w = [gf.sample(rng) for _ in H.edges]
        u = [*H.partition[0], *H.partition[1]]
        _, entries, _, xs = solver_mod._cheapest_blocks(H)
        calls.clear()
        total = sieve_decide(H, u, w, gf)
        one = Counter(calls)
        assert not one - _block_inputs(entries, n // k, w, xs)[0]
        for threads in (2, 3, 100_000):
            calls.clear()
            log.clear()
            assert sieve_decide(H, u, w, gf, threads) == total
            assert Counter(calls) == one, (rep, threads)
            parts = min(threads, len(xs), 4)
            assert log == ([(parts, [(i,) for i in range(parts)])] if parts > 1 else [])
            seen["dealt"] += parts > 1
        seen["determinants"] += sum(one.values())
    assert seen["dealt"] >= 24 and seen["determinants"] >= 60, seen


def test_racing_workers_share_the_kdm_memo(monkeypatch):
    # real threads, more than the cores, switching every microsecond: the
    # workers share the sweep's memo, so a race may compute a (block,
    # key) twice but never another one, and the total holds
    calls = []
    inner_det = solver_mod.determinant

    def computing(rows, gf):
        calls.append(_canon(rows))
        return inner_det(rows, gf)

    monkeypatch.setattr(solver_mod, "determinant", computing)
    monkeypatch.setattr(solver_mod.os, "cpu_count", lambda: 8)
    rng = random.Random(34)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for rep in range(6):
            gf = (GF8, GF64)[rep % 2]
            H = generate(rng, 4, 20, 20, plant=True, kdm=True)
            w = [gf.sample(rng) for _ in H.edges]
            u = [*H.partition[0], *H.partition[1]]
            calls.clear()
            total = sieve_decide(H, u, w, gf)
            one = set(calls)
            for _ in range(3):
                calls.clear()
                assert sieve_decide(H, u, w, gf, 8) == total, rep
                assert set(calls) == one, rep
    finally:
        sys.setswitchinterval(interval)


def test_solve_kdm_planted_yes():
    rng = random.Random(5)
    for seed in range(10):
        H = generate(rng, 3, 9, 8, plant=True, kdm=True)
        d = solve_kdm(H, SieveConfig(seed=seed))
        assert d.answer == "yes"
        assert d.probes == 8 and d.attempts == 1
        assert dlx_count(H) >= 1


def test_solve_kdm_unsolvable_no():
    # block-0 vertices 1 and 2 lie only in edges through vertex 3, so no
    # two of their edges are disjoint; every vertex lies in an edge
    H = Hypergraph(9, 3, [(0, 3, 6), (0, 4, 7), (0, 5, 8), (1, 3, 6), (2, 3, 7)],
                   [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    n, k = 9, 3
    for seed in range(10):
        d = solve_kdm(H, SieveConfig(seed=seed))
        assert d.answer == "no" and d.reason is None
        assert d.attempts == d.max_attempts == 1
        assert d.probes == 2 ** (n - 2 * n // k)
        assert d.u_fraction == 2 / k


def test_solve_kdm_trivial_sizes():
    H = Hypergraph(3, 3, [(0, 1, 2)], [(0,), (1,), (2,)])
    d = solve_kdm(H)
    assert d.answer == "yes" and d.probes == 2
    empty = Hypergraph(0, 3, [], [(), (), ()])
    assert solve_kdm(empty).answer == "yes"


def test_solve_kdm_empty_instance_sweeps_nothing():
    # sieve_decide rejects n = 0, so the solver answers before sweeping
    d = solve_kdm(Hypergraph(0, 2, [], [(), ()]), SieveConfig(seed=4))
    assert d.yes and d.probes == d.attempts == 0 and d.reason == "empty instance"


def test_solve_kdm_needs_partition():
    with pytest.raises(ValueError):
        solve_kdm(Hypergraph(3, 3, [(0, 1, 2)]))
    with pytest.raises(ValueError):
        solve_kdm(Hypergraph(3, 3, [(0, 1)], [(0,), (1,), (2,)]))


def test_solve_kdm_matches_general_sieve():
    rng = random.Random(6)
    for _ in range(15):
        H = rand_instance(rng, 3, 9, 9, min_edges=1, kdm=True)
        seed = rng.randrange(10 ** 6)
        fast = solve_kdm(H, SieveConfig(seed=seed))
        gf = GF64
        wrng = random.Random(seed)
        w = [gf.sample(wrng) for _ in H.edges]
        u = list(H.partition[0]) + list(H.partition[1])
        general = sieve_decide(Hypergraph(H.n, H.k, H.edges), u, w, gf)
        assert (fast.answer == "yes") == bool(general)


def _first(partition, i, j):
    """The partition with blocks i and j moved to the front, in that order."""
    return [partition[i], partition[j], *(q for t, q in enumerate(partition) if t not in (i, j))]


def test_every_pair_of_blocks_gives_the_same_total():
    # the bipartite sweep over any pair of blocks sums the same covers,
    # each edge meeting U twice, so the squared total does not move
    rng = random.Random(23)
    nonzero = 0
    for rep in range(24):
        gf = (GF8, GF64)[rep % 2]
        k = (3, 4)[rep // 2 % 2]
        n = k * rng.choice([2, 3])
        H = rand_instance(rng, k, n, n // k + 5, plant_prob=0.7, min_edges=1, kdm=True)
        w = [gf.sample(rng) for _ in H.edges]
        expect = covers_weight_sum(H, [*H.partition[0], *H.partition[1]], w, gf)
        for i, j in combinations(range(k), 2):
            blocks = _first(H.partition, i, j)
            u = [*blocks[0], *blocks[1]]
            assert sieve_decide(Hypergraph(n, k, H.edges, blocks), u, w, gf) == expect, (i, j)
        nonzero += bool(expect)
    assert nonzero >= 8


def _pair_cost(H, i, j):
    """Brute force: how many X avoiding blocks i and j the walk model
    yields for the bipartite sweep between them."""
    entries, b, rest, _, _ = _kdm_case(Hypergraph(H.n, H.k, H.edges, _first(H.partition, i, j)))
    return len(_kdm_model(entries, b, rest)[0])


def _covering(rng, *args, **kwargs):
    """rand_instance, drawn again until every vertex lies in an edge, so
    a solve reaches its sweep instead of the uncovered-vertex rule."""
    while True:
        H = rand_instance(rng, *args, **kwargs)
        if reduce(or_, H.edge_masks, 0).bit_count() == H.n:
            return H


def test_solve_kdm_sieves_the_cheapest_pair(monkeypatch):
    # _bipartite_entries is wrapped to record the blocks of every entry
    # list it builds; the one list the determinant pass receives names
    # the pair sieved
    built, swept = [], []
    inner_entries, inner_sweep = solver_mod._bipartite_entries, solver_mod._sweep_kdm

    def building(H, left, right):
        built.append((inner_entries(H, left, right), left, right))
        return built[-1][0]

    def sweeping(entries, *args):
        swept.append(entries)
        return inner_sweep(entries, *args)

    monkeypatch.setattr(solver_mod, "_bipartite_entries", building)
    monkeypatch.setattr(solver_mod, "_sweep_kdm", sweeping)

    def sieved_pair(H, seed):
        built.clear()
        swept.clear()
        d = solve_kdm(H, SieveConfig(seed=seed))
        assert len(built) == len(list(combinations(range(H.k), 2)))
        [entries] = swept
        [(left, right)] = [(a, z) for e, a, z in built if e is entries]
        return d, (H.partition.index(left), H.partition.index(right))

    # blocks {0, 1}, {2, 3}, {4, 5}: removing either block-2 vertex leaves
    # a perfect matching between blocks 0 and 1 (3 matchable X), while
    # removing any vertex of block 0 or 1 leaves a row without an edge
    H = Hypergraph(6, 3, [(0, 2, 4), (1, 3, 5), (0, 2, 5), (1, 3, 4)],
                   [(0, 1), (2, 3), (4, 5)])
    assert [_pair_cost(H, *p) for p in combinations(range(3), 2)] == [3, 1, 1]
    d, pair = sieved_pair(H, 3)
    assert pair == (0, 2) and d.yes and d.probes == 4 and d.attempts == 1
    rng = random.Random(24)
    moved = 0
    for _ in range(30):
        k = rng.choice([3, 4])
        n = k * rng.choice([2, 3])
        H = _covering(rng, k, n, n // k + 6, plant_prob=0.8, min_edges=1, kdm=True)
        costs = {p: _pair_cost(H, *p) for p in combinations(range(k), 2)}
        d, pair = sieved_pair(H, rng.randrange(100))
        assert pair == min(costs, key=lambda p: (costs[p], p))
        assert d.probes == 2 ** (n - 2 * n // k) and d.yes == (dlx_count(H) > 0)
        moved += pair != (0, 1)
    assert moved >= 5


def test_solve_kdm_walks_each_pair_once(monkeypatch):
    # planted instances, so every pair's root yields X = {} and the race
    # starts every walk; after it, the determinant pass runs on the
    # winner's kept list and no walk starts again
    events = []
    inner_walk, inner_sweep = solver_mod._walk, solver_mod._sweep_kdm

    def walking(rest, *args):
        events.append(("walk", rest))
        return inner_walk(rest, *args)

    def sweeping(entries, matching, weights, gf, xs, threads):
        events.append(("sweep", list(xs)))
        return inner_sweep(entries, matching, weights, gf, xs, threads)

    monkeypatch.setattr(solver_mod, "_walk", walking)
    monkeypatch.setattr(solver_mod, "_sweep_kdm", sweeping)
    rng = random.Random(28)
    for k, n, pairs in ((3, 9, 3), (3, 12, 3), (4, 8, 6), (4, 12, 6)):
        for _ in range(4):
            H = generate(rng, k, n, n // k + 5, plant=True, kdm=True)
            events.clear()
            d = solve_kdm(H, SieveConfig(seed=rng.randrange(100)))
            assert d.yes
            assert [kind for kind, _ in events] == ["walk"] * pairs + ["sweep"]
            xs = events[-1][1]
            p = H.partition
            assert sorted(rest for _, rest in events[:-1]) == sorted(
                ((1 << n) - 1) ^ sum(1 << v for v in (*p[i], *p[j]))
                for i, j in combinations(range(k), 2))
            order = solver_mod._cheapest_blocks(H)[0]
            entries, b, rest, codes, every = _kdm_case(Hypergraph(n, k, H.edges, order))
            assert xs == [every[c] for c in _kdm_model(entries, b, rest)[0]]


def test_determinant_gets_the_live_rows_of_each_kept_x(monkeypatch):
    # solve_kdm's determinant calls against the brute-force live grid of
    # each X the winner's walk kept, at the weights the solver draws (one
    # per edge, in edge order): each call gets {col: value} rows, the
    # live grid of one root block wider than 1x1 at one kept X (rows in
    # any order), and one thread computes each (block, key) at most
    # once.  Each kept X's product of block determinants is the
    # determinant of its live grid, and the totals agree for 1 to 3
    # threads
    calls, totals = [], []
    seen = {"determinants": 0, "nonzero": 0}
    inner_det, inner_total = solver_mod.determinant, solver_mod.sieve_decide

    def computing(rows, gf):
        assert all(isinstance(row, dict) for row in rows)
        calls.append(_canon(rows))
        return inner_det(rows, gf)

    def totalling(*args):
        totals.append(inner_total(*args))
        return totals[-1]

    monkeypatch.setattr(solver_mod, "determinant", computing)
    monkeypatch.setattr(solver_mod, "sieve_decide", totalling)
    rng = random.Random(29)
    for rep in range(12):
        gf = (GF8, GF64)[rep % 2]
        k, n = rng.choice([(3, 9), (3, 12), (4, 12)])
        H = _covering(rng, k, n, 3 * n // k, plant_prob=0.7, min_edges=3 * n // k, kdm=True)
        seed = rng.randrange(10 ** 6)
        wrng = random.Random(seed)
        w = [gf.sample(wrng) for _ in H.edges]
        order, entries, matching, xs = solver_mod._cheapest_blocks(H)
        for x in xs:
            mat = _live_grid(entries, n // k, w, x)[1]
            assert solver_mod._sweep_kdm(entries, matching, w, gf, [x]) == ref_det(mat, gf)
        inputs = _block_inputs(entries, n // k, w, xs)[0]
        totals.clear()
        for threads in (1, 2, 3):
            calls.clear()
            d = solve_kdm(H, SieveConfig(m=gf.m, seed=seed, threads=threads))
            assert set(calls) <= set(inputs)
            if threads == 1:
                assert not Counter(calls) - inputs
                seen["determinants"] += len(calls)
        assert totals[0] == totals[1] == totals[2]
        assert d.yes == bool(totals[0])
        u = [*order[0], *order[1]]
        assert totals[0] == covers_weight_sum(Hypergraph(n, k, H.edges, order), u, w, gf)
        seen["nonzero"] += bool(totals[0])
    assert min(seen.values()) >= 6, seen


def test_cheapest_blocks_counts_in_lockstep(monkeypatch):
    # the pair with the fewest matchable X by brute force, the lowest on a
    # tie; the walks are wrapped to count what each one yields, and none
    # may run past the winner's full count plus one
    pulled = []
    inner = solver_mod._matchable_probes

    def counting(*args):
        walk = len(pulled)
        pulled.append(0)

        def pull(_):
            pulled[walk] += 1

        return (yield from _tapped(inner(*args), pull))

    monkeypatch.setattr(solver_mod, "_matchable_probes", counting)

    def check(H, i, j, fewest):
        pulled.clear()
        order, entries, matching, xs = solver_mod._cheapest_blocks(H)
        assert order == _first(H.partition, i, j)
        # the winner's matching is perfect on its root support; with none
        # its walk yields nothing
        if matching is None:
            assert xs == []
        else:
            row_of, col_of = matching
            assert all(row_of[c] == r for r, c in enumerate(col_of))
            assert {(r, c) for r, c in enumerate(col_of)} <= {(r, c) for *_, r, c in entries}
        assert entries == solver_mod._bipartite_entries(H, H.partition[i], H.partition[j])
        assert pulled[list(combinations(range(H.k), 2)).index((i, j))] == fewest
        assert max(pulled) <= fewest + 1
        # the winner's walk ran to its end, so the race keeps all it yields
        case = _kdm_case(Hypergraph(H.n, H.k, H.edges, order))
        assert xs == [case[4][c] for c in _kdm_model(*case[:3])[0]]

    # the instance of the test above: pairs (0, 2) and (1, 2) tie at one
    # matchable X below (0, 1) at three; with the blocks reversed the tie
    # is between (0, 1) and (0, 2), the first pair of the lockstep
    H = Hypergraph(6, 3, [(0, 2, 4), (1, 3, 5), (0, 2, 5), (1, 3, 4)],
                   [(0, 1), (2, 3), (4, 5)])
    check(H, 0, 2, 1)
    check(Hypergraph(6, 3, H.edges, H.partition[::-1]), 0, 1, 1)
    rng = random.Random(26)
    ties = 0
    for k in (3, 4):
        for _ in range(20):
            n = k * rng.choice([2, 3, 4] if k == 3 else [2, 3])
            H = rand_instance(rng, k, n, n // k + 6, plant_prob=0.8, min_edges=1, kdm=True)
            costs = {p: _pair_cost(H, *p) for p in combinations(range(k), 2)}
            best = min(costs, key=lambda p: (costs[p], p))
            check(H, *best, costs[best])
            ties += list(costs.values()).count(costs[best]) > 1
    assert ties >= 5


def test_solve_kdm_agrees_with_the_oracle():
    rng = random.Random(25)
    answers = {True: 0, False: 0}
    for rep in range(60):
        k = rng.choice([2, 3, 4])
        n = k * rng.randint(1, 12 // k)
        H = rand_instance(rng, k, n, n // k + rng.randint(0, 6), plant_prob=0.5, kdm=True)
        d = solve_kdm(H, SieveConfig(seed=rep))
        expect = dlx_count(H) > 0
        assert d.yes == expect, (H, rep)
        answers[expect] += 1
    assert min(answers.values()) >= 15, answers


def test_bipartite_and_general_probes_agree(monkeypatch):
    # the bipartite kernel squares its XOR, the general one squares pair
    # weights per probe; in characteristic 2 both give the cover sum
    kernels = []
    for name in ("_sweep_kdm", "_live_probes"):
        def recording(*args, _name=name, _inner=getattr(solver_mod, name)):
            kernels.append(_name)
            return _inner(*args)
        monkeypatch.setattr(solver_mod, name, recording)
    rng = random.Random(14)
    nonzero = 0
    for rep in range(40):
        gf = (GF8, GF64)[rep % 2]
        k = rng.choice([3, 4])
        n = k * rng.choice([2, 3])
        H = rand_instance(rng, k, n, n // k + 4, min_edges=1, kdm=True)
        if rep % 4 >= 2:  # blocks 0 and 1 trade places, so rows and columns do
            p = H.partition
            H = Hypergraph(H.n, H.k, H.edges, [p[1], p[0], *p[2:]])
        u = [*H.partition[0], *H.partition[1]]
        w = [gf.sample(rng) for _ in H.edges]
        expect = covers_weight_sum(H, u, w, gf)
        for threads in (1, 3):
            kernels.clear()
            assert sieve_decide(H, u, w, gf, threads) == expect
            assert set(kernels) == {"_sweep_kdm"}
            kernels.clear()
            assert sieve_decide(Hypergraph(H.n, H.k, H.edges), u, w, gf, threads) == expect
            assert set(kernels) == {"_live_probes"}
        nonzero += bool(expect)
    assert nonzero >= 10


def test_general_and_bipartite_kernels_walk_the_same_x(monkeypatch):
    # with U = blocks i and j every edge is a pair of U and there are no
    # loops or empties, so a family is a perfect matching of the live
    # support and an edge lies in one iff its cell does: on every pair,
    # the general walk on the unpartitioned copy yields the X of the
    # bipartite walk, in the same order.  They stay two kernels because
    # the general one walks several times slower
    walked = []
    inner = solver_mod._live_probes

    def walking(*args):
        walked.append(mine := [])
        for x in inner(*args):
            mine.append(x)
            yield x

    monkeypatch.setattr(solver_mod, "_live_probes", walking)
    rng = random.Random(31)
    seen = {"yielded": 0, "pruned": 0, "empty walks": 0, "nonzero": 0}
    for rep in range(16):
        gf = (GF8, GF64)[rep % 2]
        k, n = rng.choice([(3, 6), (3, 9), (3, 12), (3, 15), (4, 8), (4, 12)])
        H = rand_instance(rng, k, n, 3 * n // k, plant_prob=0.6, min_edges=n // k, kdm=True)
        p, b = H.partition, n // k
        w = [gf.sample(rng) for _ in H.edges]
        for i, j in combinations(range(k), 2):
            u = [*p[i], *p[j]]
            rest = ((1 << n) - 1) ^ sum(1 << v for v in u)
            walked.clear()
            total = sieve_decide(Hypergraph(n, k, H.edges), u, w, gf)
            entries = solver_mod._bipartite_entries(H, p[i], p[j])
            expect = list(solver_mod._matchable_probes(entries, b, rest))
            assert walked == [expect], (k, n, i, j)
            seen["yielded"] += len(expect)
            seen["pruned"] += (1 << rest.bit_count()) - len(expect)
            seen["empty walks"] += not expect
            seen["nonzero"] += bool(total)
    assert min(seen.values()) >= 10, seen


def _kdm_with_cancelling_twins(rng, gf, k, n, swap):
    """Random partitioned instance plus, for two of its edges, twins that
    share the edge's cell and weight: an exact copy, which cancels the
    edge in that cell at every probe (a cell with live edges reads zero),
    and one that differs outside blocks 0 and 1, which cancels it only
    while both are live."""
    H = rand_instance(rng, k, n, n // k + 3, plant_prob=0.9, min_edges=2, kdm=True)
    p = H.partition
    edges = list(H.edges)
    w = [gf.sample(rng) for _ in edges]
    for eid in rng.sample(range(len(H.edges)), 2):
        e = H.edges[eid]
        other = tuple(sorted([*(v for v in e if v in p[0] or v in p[1]),
                              *(rng.choice(block) for block in p[2:])]))
        edges += [e, other]
        w += [w[eid], w[eid]]
    if swap:  # blocks 0 and 1 trade places, so rows and columns do
        p = [p[1], p[0], *p[2:]]
    return Hypergraph(n, k, edges, p), w


def test_bipartite_kernel_matches_cover_sum_at_every_split():
    # the determinant pass, over the walk's X list split at every point,
    # against the cover enumeration; k = 4 puts two vertices of each edge
    # in V - U, so hit counts reach 2
    rng = random.Random(16)
    pick = random.Random(16)    # root matchings, off the instance stream
    nonzero = 0
    for gf in (GF8, GF64):
        for k, sizes in ((3, (6, 9, 12, 15)), (4, (8, 12))):
            for swap in (False, True):
                for n in (*sizes, *sizes):
                    H, w = _kdm_with_cancelling_twins(rng, gf, k, n, swap)
                    u = [*H.partition[0], *H.partition[1]]
                    entries, b, rest, _, _ = _kdm_case(H)
                    xs = list(solver_mod._matchable_probes(entries, b, rest))
                    whole = solver_mod._sweep_kdm(entries, _root_matching(entries, b, pick), w,
                                                  gf, xs)
                    assert gf.mul(whole, whole) == covers_weight_sum(H, u, w, gf)
                    for cut in range(len(xs) + 1):
                        head = solver_mod._sweep_kdm(entries, _root_matching(entries, b, pick), w,
                                                     gf, xs[:cut])
                        tail = solver_mod._sweep_kdm(entries, _root_matching(entries, b, pick), w,
                                                     gf, xs[cut:])
                        assert head ^ tail == whole, (n, k, cut)
                    nonzero += bool(whole)
    assert nonzero >= 10


def _matchable(rows):
    b = len(rows)
    return any(all(rows[r] >> perm[r] & 1 for r in range(b)) for perm in permutations(range(b)))


def _live_grid(entries, b, weights, x):
    """Brute-force support masks and value matrix of the edges avoiding X."""
    support = [0] * b
    mat = [[0] * b for _ in range(b)]
    for mk, eid, r, c in entries:
        if not mk & x:
            support[r] |= 1 << c
            mat[r][c] ^= weights[eid]
    return support, mat


def _dm_blocks(entries, b):
    """(rows, cols) of each Dulmage-Mendelsohn block of the root support,
    by brute force: the connected components of the cells that lie in
    some perfect matching.  None when the support has no perfect
    matching."""
    support = [0] * b
    for _, _, r, c in entries:
        support[r] |= 1 << c
    part = list(range(2 * b))   # union-find over rows 0..b-1 and columns b..2b-1

    def find(v):
        while part[v] != v:
            v = part[v]
        return v

    perms = [p for p in permutations(range(b)) if all(support[r] >> c & 1 for r, c in enumerate(p))]
    for perm in perms:
        for r, c in enumerate(perm):
            part[find(r)] = find(b + c)
    groups = {}
    for v in range(2 * b):
        groups.setdefault(find(v), []).append(v)
    return [([v for v in g if v < b], [v - b for v in g if v >= b])
            for g in groups.values()] if perms else None


def _block_mat(mat, rows, cols):
    return [[mat[r][c] for c in cols] for r in rows]


def _canon(rows):
    """A matrix's dense or {col: value} rows, zeros dropped, as a sorted
    tuple, so the order of the rows does not count."""
    return tuple(sorted(tuple(sorted(row.items())) for row in _nonzero_rows(rows)))


def _block_inputs(entries, b, w, xs):
    """(Counter of the canonical live grids, one per distinct (block, key)
    of a root block wider than 1x1 with key = x & the vertices of its
    edges, x in xs; the number of (wide block, X) pairs)."""
    inputs, pairs = Counter(), 0
    for rows, cols in _dm_blocks(entries, b) or []:
        if len(cols) > 1:
            seen = reduce(or_, (mk for mk, _, r, c in entries if r in rows and c in cols))
            pairs += len(xs)
            for key in {x & seen for x in xs}:
                inputs[_canon(_block_mat(_live_grid(entries, b, w, key)[1], rows, cols))] += 1
    return inputs, pairs


def _pattern(mat):
    return [sum(1 << c for c, v in enumerate(row) if v) for row in mat]


def test_perfect_matching_check_against_permutations():
    rng = random.Random(17)
    seen = {True: 0, False: 0}
    for _ in range(800):
        b = rng.randint(0, 6)
        density = rng.random()
        rows = [sum(1 << c for c in range(b) if rng.random() < density) for _ in range(b)]
        if b and rng.random() < 0.2:
            rows[rng.randrange(b)] = 0
        expect = _matchable(rows)
        matching = solver_mod._perfect_matching(rows)
        assert (matching is not None) == expect, rows
        seen[expect] += 1
        if expect:  # the two arrays name one matching, on edges of the graph
            row_of, col_of = matching
            assert sorted(col_of) == list(range(b))
            assert all(rows[r] >> c & 1 and row_of[c] == r for r, c in enumerate(col_of))
        else:  # any matrix with this nonzero pattern is singular
            mat = [[GF64.sample(rng) | 1 if rows[r] >> c & 1 else 0 for c in range(b)]
                   for r in range(b)]
            assert ref_det(mat, GF64) == 0
    assert min(seen.values()) >= 100


def _tapped(walk, see):
    """A generator's items, each passed to see as it passes, and its
    return value (a bipartite walk's matching)."""
    while True:
        try:
            item = next(walk)
        except StopIteration as end:
            return end.value
        see(item)
        yield item


def _root_matching(entries, b, pick):
    """A perfect matching of the root support (X = {}) as _sweep_kdm takes
    it, (row of each column, column of each row), drawn by `pick` from
    all of them by brute force; None when it has none.  No sweep may
    depend on which one it gets."""
    support = [0] * b
    for _, _, r, c in entries:
        support[r] |= 1 << c
    perms = [p for p in permutations(range(b)) if all(support[r] >> c & 1 for r, c in enumerate(p))]
    if not perms:
        return None
    col_of = list(pick.choice(perms))
    return sorted(range(b), key=col_of.__getitem__), col_of


def _kdm_case(H):
    """(entries, b, rest, codes, the X of every code) of the bipartite sweep."""
    n, b = H.n, H.n // H.k
    u_mask = sum(1 << v for v in (*H.partition[0], *H.partition[1]))
    rest = ((1 << n) - 1) ^ u_mask
    xs = _in_code_order([v for v in range(n) if rest >> v & 1], H.edge_masks)
    return solver_mod._bipartite_entries(H, *H.partition[:2]), b, rest, len(xs), xs


def _kdm_model(entries, b, rest):
    """_walk_model for the bipartite sweep, whose families are the perfect
    matchings of the grid with one edge (entry index) per matched cell."""
    cells = {}
    for i, (_, _, r, c) in enumerate(entries):
        cells.setdefault((r, c), []).append(i)
    families = [f for perm in permutations(range(b))
                for f in product(*(cells.get((r, c), []) for r, c in enumerate(perm)))]
    order = [v for v in range(rest.bit_length()) if rest >> v & 1]
    return _walk_model(order, [mk for mk, *_ in entries], families)


def _nonzero_rows(rows):
    """Dense or {col: value} rows as the list of their nonzero cells."""
    return [{c: v for c, v in (row.items() if isinstance(row, dict) else enumerate(row)) if v}
            for row in rows]


def test_matchable_probes_yield_exactly_the_matchable_sets(monkeypatch):
    # brute force over every code: the walk yields exactly the X of the
    # walk model (a perfect matching of the live support, and every lower
    # vertex in a cell that one uses), in code order; the determinant pass,
    # over the whole list and over 2 to 7 slices cut where a code range
    # would split, hands each slice's determinant the live grid of a root
    # block at one of its X, at most once per (block, key), and the
    # slices XOR to the whole total; k = 4 puts two vertices of each edge
    # in V - U, so hit counts reach 2, and twins duplicate or cancel cells
    mats = []
    inner_det = solver_mod.determinant

    def computing(rows, gf):
        mats.append(_canon(rows))
        return inner_det(rows, gf)

    monkeypatch.setattr(solver_mod, "determinant", computing)
    rng = random.Random(22)
    pick = random.Random(22)    # root matchings, off the instance stream
    seen = {"yielded": 0, "pruned": 0, "cancelled": 0, "nonzero": 0}
    for rep in range(8):
        gf = (GF8, GF64)[rep % 2]
        for k, n in ((3, 6), (3, 9), (3, 12), (3, 15), (4, 8), (4, 12), (4, 16)):
            H, w = _kdm_with_cancelling_twins(rng, gf, k, n, rep % 4 >= 2)
            entries, b, rest, codes, xs = _kdm_case(H)
            expect = []
            yielded = _kdm_model(entries, b, rest)[0]
            for c in yielded:
                mat = _live_grid(entries, b, w, xs[c])[1]
                expect.append((xs[c], mat))
                seen["cancelled"] += not _matchable(_pattern(mat))
            walked = list(solver_mod._matchable_probes(entries, b, rest))
            assert walked == [x for x, _ in expect]
            total = 0
            for _, mat in expect:
                total ^= ref_det(mat, gf)
            splits = [[]]
            for _ in range(3):
                cuts = sorted(rng.sample(range(1, codes), rng.randint(1, min(6, codes - 1))))
                splits.append([bisect_left(yielded, cut) for cut in cuts])
            for cuts in splits:
                bounds = [0, *cuts, len(walked)]
                swept = 0
                for a, z in zip(bounds, bounds[1:]):
                    mats.clear()
                    matching = _root_matching(entries, b, pick)
                    swept ^= solver_mod._sweep_kdm(entries, matching, w, gf, walked[a:z])
                    inputs = _block_inputs(entries, b, w, walked[a:z])[0]
                    assert not Counter(mats) - inputs, (k, n, bounds)
                assert swept == total, (k, n, bounds)
            u = [*H.partition[0], *H.partition[1]]
            assert gf.mul(total, total) == covers_weight_sum(H, u, w, gf)
            seen["yielded"] += len(expect)
            seen["pruned"] += codes - len(expect)
            seen["nonzero"] += bool(total)
    assert min(seen.values()) >= 15, seen


def test_matching_check_skips_exactly_the_unmatchable_probes(monkeypatch):
    # through sieve_decide: the walk yields the X of the walk model; every
    # skipped X whose live support has no perfect matching has a singular
    # matrix, and the determinants of all the skipped X XOR to zero; the
    # sweep gets exactly the yielded X, and those whose cancelling twins
    # leave a nonzero pattern with no perfect matching give zero
    walked, swept = [], []
    inner_walk, inner_sweep = solver_mod._matchable_probes, solver_mod._sweep_kdm

    def walking(*args):         # one list per pair's walk in the block race
        walked.append(mine := [])
        return (yield from _tapped(inner_walk(*args), mine.append))

    def sweeping(entries, matching, weights, gf, xs, threads):
        swept.extend(xs)
        return inner_sweep(entries, matching, weights, gf, xs, threads)

    monkeypatch.setattr(solver_mod, "_matchable_probes", walking)
    monkeypatch.setattr(solver_mod, "_sweep_kdm", sweeping)
    rng = random.Random(18)
    pick = random.Random(18)    # root matchings, off the instance stream
    skipped = cancelled = 0
    for rep in range(30):
        gf = (GF8, GF64)[rep % 2]
        k, n = rng.choice([(3, 12), (3, 15), (4, 12)])
        H, w = _kdm_with_cancelling_twins(rng, gf, k, n, rep % 4 >= 2)
        order = solver_mod._cheapest_blocks(H)[0]
        pair = (H.partition.index(order[0]), H.partition.index(order[1]))
        walked.clear()
        swept.clear()
        sieve_decide(H, [*H.partition[0], *H.partition[1]], w, gf)
        winner = walked[list(combinations(range(k), 2)).index(pair)]
        entries, b, rest, _, xs = _kdm_case(Hypergraph(H.n, H.k, H.edges, order))
        assert winner == [xs[c] for c in _kdm_model(entries, b, rest)[0]] == swept
        matching = _root_matching(entries, b, pick)
        probe = {x: inner_sweep(entries, matching, w, gf, [x]) for x in winner}
        left = 0
        for x in xs:
            support, mat = _live_grid(entries, b, w, x)
            if x not in probe:
                skipped += 1
                det = ref_det(mat, gf)
                left ^= det
                assert det == 0 or _matchable(support)
            elif not _matchable(_pattern(mat)):
                cancelled += 1
                assert probe[x] == ref_det(mat, gf) == 0
        assert left == 0
    assert skipped >= 20 and cancelled >= 5


def test_sweep_factors_over_the_root_blocks(monkeypatch):
    # the root support's Dulmage-Mendelsohn blocks, by brute force: at
    # every code, the one-X sweep and the product of the blocks' live
    # determinants both equal the live grid's determinant.  Over the
    # walked list and over lists that spare one wide block's vertices,
    # every determinant input is a wide block's live grid at one listed
    # X, once per (block, key) at most, and a block that no X of a
    # nonempty list touches is computed once; the list swept twice sums to zero with
    # no further call, its repeated keys hitting the memo.  1 to 3
    # threads give one sieve value, the cover sum
    calls = []
    inner_det = solver_mod.determinant

    def computing(rows, gf):
        calls.append(_canon(rows))
        return inner_det(rows, gf)

    monkeypatch.setattr(solver_mod, "determinant", computing)
    rng = random.Random(31)
    pick = random.Random(31)    # root matchings, off the instance stream
    seen = {"wide blocks": 0, "untouched": 0, "memo hits": 0, "nonzero": 0, "no matching": 0}
    for rep in range(8):
        gf = (GF8, GF64)[rep % 2]
        for k, n in ((3, 9), (3, 12), (4, 12), (4, 16)):
            dense = rand_instance(rng, k, n, 3 * n // k, plant_prob=0.5, min_edges=2 * n // k,
                                  kdm=True)
            for H, w in (_kdm_with_cancelling_twins(rng, gf, k, n, rep % 4 >= 2),
                         (dense, [gf.sample(rng) for _ in dense.edges])):
                entries, b, rest, _, xs = _kdm_case(H)
                blocks = _dm_blocks(entries, b)
                matching = _root_matching(entries, b, pick)
                for x in xs:
                    mat = _live_grid(entries, b, w, x)[1]
                    det = ref_det(mat, gf)
                    parts = [ref_det(_block_mat(mat, *blk), gf) for blk in blocks or []]
                    assert (reduce(gf.mul, parts, 1) if blocks else 0) == det
                    calls.clear()
                    assert solver_mod._sweep_kdm(entries, matching, w, gf, [x]) == det
                    assert not Counter(calls) - _block_inputs(entries, b, w, [x])[0]
                wide = [(rows, cols, reduce(or_, (mk for mk, _, r, c in entries
                                                  if r in rows and c in cols)))
                        for rows, cols in blocks or [] if len(cols) > 1]
                walk, walked = solver_mod._matchable_probes(entries, b, rest), []
                while True:     # the walk's list, then the matching it returns
                    try:
                        walked.append(next(walk))
                    except StopIteration as end:
                        lists = [(walked, end.value)]
                        break
                assert (lists[0][1] is None) == (blocks is None)
                lists += [([x for x in xs if not x & vertices], matching) for _, _, vertices in wide]
                for xl, root in lists:
                    calls.clear()
                    total = solver_mod._sweep_kdm(entries, root, w, gf, xl)
                    assert total == reduce(xor, (ref_det(_live_grid(entries, b, w, x)[1], gf)
                                                 for x in xl), 0)
                    inputs, pairs = _block_inputs(entries, b, w, xl)
                    made = Counter(calls)
                    assert not made - inputs
                    for rows, cols, vertices in wide:  # an empty list computes nothing
                        if xl and not vertices & reduce(or_, xl, 0):
                            full = _live_grid(entries, b, w, 0)[1]
                            assert made[_canon(_block_mat(full, rows, cols))] >= 1
                            seen["untouched"] += 1
                    calls.clear()
                    assert solver_mod._sweep_kdm(entries, matching, w, gf, xl + xl) == 0
                    assert Counter(calls) == made
                    seen["memo hits"] += pairs > sum(inputs.values())
                u = [*H.partition[0], *H.partition[1]]
                values = {sieve_decide(H, u, w, gf, threads) for threads in (1, 2, 3)}
                assert values == {covers_weight_sum(H, u, w, gf)}
                seen["wide blocks"] += len(wide)
                seen["nonzero"] += values != {0}
                seen["no matching"] += blocks is None
    assert min(seen.values()) >= 5, seen


def test_solve_xkc_planted_yes():
    rng = random.Random(7)
    H = generate(rng, 3, 9, 9, plant=True)
    d = solve_xkc(H, SieveConfig(seed=11))
    assert d.answer == "yes"
    assert d.max_attempts == 22
    assert d.attempts <= d.max_attempts
    assert d.probes == d.attempts * 2 ** 4


def test_solve_xkc_unsolvable_no():
    # vertices 0..3 lie only in the edges among them, and no 3-sets
    # cover 4 vertices exactly; every vertex lies in an edge
    H = Hypergraph(9, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (4, 5, 6), (6, 7, 8)])
    for seed in range(20):
        d = solve_xkc(H, SieveConfig(seed=seed))
        assert d.answer == "no"
        assert d.attempts == d.max_attempts == 22


def test_solve_xkc_edge_answers():
    assert solve_xkc(Hypergraph(0, 3, [])).answer == "yes"
    d = solve_xkc(Hypergraph(4, 3, [(0, 1, 2)]))
    assert d.answer == "no" and "multiple" in d.reason


def test_solve_xkc_k2_uses_whole_vertex_set():
    H = Hypergraph(4, 2, [(0, 1), (2, 3), (0, 2)])
    d = solve_xkc(H, SieveConfig(seed=3))
    assert d.answer == "yes"
    assert d.u_fraction == 1.0
    assert d.probes == d.attempts  # single probe per attempt


def test_solve_xkc_attempt_budget_grows_with_epsilon():
    H = Hypergraph(9, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (4, 5, 6), (6, 7, 8)])
    loose = solve_xkc(H, SieveConfig(seed=1, epsilon=0.25))
    tight = solve_xkc(H, SieveConfig(seed=1, epsilon=2.0 ** -20))
    assert loose.max_attempts < tight.max_attempts


def test_solve_xkc_threads_do_not_change_the_answer():
    rng = random.Random(8)
    for _ in range(5):
        H = generate(rng, 3, 9, 8, plant=True)
        seed = rng.randrange(10 ** 6)
        a = solve_xkc(H, SieveConfig(seed=seed, threads=1))
        b = solve_xkc(H, SieveConfig(seed=seed, threads=4))
        assert (a.answer, a.probes, a.attempts) == (b.answer, b.probes, b.attempts)


def test_solve_rejects_invalid_instances():
    bad = Hypergraph(6, 3, [(0, 1, 7)])
    with pytest.raises(ValueError):
        solve_xkc(bad)
    with pytest.raises(ValueError):
        solve_xkc(Hypergraph(6, 3, [(0, 1, 2)]), SieveConfig(m=16))


def test_solver_soundness_small_mix():
    rng = random.Random(9)
    for _ in range(100):
        H = rand_instance(rng, 3, 6, 6, plant_prob=0.4)
        covers = dlx_count(H)
        d = solve_xkc(H, SieveConfig(seed=rng.randrange(10 ** 6), epsilon=0.3))
        if d.answer == "yes":
            assert covers >= 1
        if covers == 0:
            assert d.answer == "no"
