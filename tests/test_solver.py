"""The sieve against explicit enumeration, plus both end-to-end solvers."""

import random
from bisect import bisect_left
from collections import Counter
from functools import reduce
from itertools import combinations, permutations, product
from operator import or_, xor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from detcover import (GF8, GF64, Hypergraph, SieveConfig, cover_weight, dlx_count, dlx_enumerate,
                      generate, project, restrict_avoiding, sieve_decide, solve_kdm, solve_xkc)
from detcover import solver as solver_mod

from conftest import (cover_weight_brute, covers_weight_sum, edge_components, edge_parts,
                      filtered_for, rand_instance, ref_det)


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
    with pytest.raises(ValueError, match="edge 0 meets U more than twice"):
        sieve_decide(H, [0, 1, 2], [1], GF64)
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


def _code_order(rest, masks):
    """The vertices of `rest` in the walks' code order: bit i of a code
    puts the i-th in X.  Fewest edges (vertex bitmasks `masks`) first,
    equal counts by label."""
    return sorted(rest, key=lambda v: (sum(mk >> v & 1 for mk in masks), v))


def _in_code_order(rest, masks):
    """Every X within the vertex list `rest`, by code (see _code_order)."""
    order = _code_order(rest, masks)
    return [sum(1 << v for i, v in enumerate(order) if c >> i & 1) for c in range(1 << len(order))]


def test_sweep_filters_each_avoided_set_once(monkeypatch):
    # against the brute-force walk model: each sieve walks once, yields
    # its passing X once each, in increasing code order, and only those
    # reach the filter, once each, as the walk yields them; the X never
    # yielded have probe values that XOR to zero
    walks, events = [], []
    inner_walk, inner_restrict = solver_mod._walk, solver_mod.restrict_avoiding

    def walking(*args):
        walks.append(args)
        for x in inner_walk(*args):
            events.append(("yield", x))
            yield x

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
        walks.clear()
        events.clear()
        sieve_decide(H, u, w, GF64)
        assert len(walks) == 1 or not expect and not walks  # no walk: the root has no family
        assert events == [(kind, x) for x in expect for kind in ("yield", "filter")]  # never listed
        values = [cover_weight_brute(H, u, [v for v in rest if x >> v & 1], w, GF64)
                  for x in set(walk) - set(expect)]
        assert reduce(xor, values, 0) == 0
        args = (project(H, u), H.edge_masks, 3, sum(1 << v for v in rest))
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
        assert sieve_decide(G, u, w, gf) == total, rep
        cfg = SieveConfig(m=gf.m, seed=rep)
        before, after = solve(H0, cfg), solve(G0, cfg)
        assert before.answer == after.answer, rep
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
                args = (view, H.edge_masks, n // k, rest)
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
                args = (view, H.edge_masks, n // k, sum(1 << v for v in rest))
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
    # repairs, so only X = {} is probed.  The walk over blocks 0 and 1
    # makes b augmenting paths at its root and one failed repair per
    # vertex of block 2.  The sweep gets the one X, and its one
    # determinant gets the b rows of the hidden permutation, one entry each
    calls = {"_perfect_matching": 0, "_augment": 0, "determinant": 0, "cover_weight": 0}
    last = {}                   # the arguments of each name's latest call
    for name in calls:
        def counting(*args, _name=name, _inner=getattr(solver_mod, name)):
            calls[_name] += 1
            last[_name] = args
            return _inner(*args)
        monkeypatch.setattr(solver_mod, name, counting)
    handed = []                 # (b, the X list) of each sweep
    inner_sweep = solver_mod._sweep_kdm

    def sweeping(entries, b, weights, gf, xs):
        xs = list(xs)           # runs the walk, which the sweep drives
        handed.append((b, xs))
        return inner_sweep(entries, b, weights, gf, xs)

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
    assert calls == {"_perfect_matching": 1, "_augment": 2 * b, "determinant": 1,
                     "cover_weight": 0}
    # the one search was the root's, and its matching is the hidden one,
    # row i to column cols[i]; the one determinant is that permutation's
    col_of = [c - b for c in cols]
    assert last["_perfect_matching"] == ([1 << c for c in col_of],)
    assert handed == [(b, [0])]
    assert last["determinant"] == ([{c: w[r]} for r, c in enumerate(col_of)], GF64)
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
    args = (project(H, u), H.edge_masks, 3, sum(1 << v for v in rest))
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
    # matching uses; the walk's root makes b augmenting paths and cancels
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


def test_solve_kdm_planted_yes():
    rng = random.Random(5)
    for seed in range(10):
        H = generate(rng, 3, 9, 8, plant=True, kdm=True)
        d = solve_kdm(H, SieveConfig(seed=seed))
        assert d.answer == "yes"
        assert d.probes == 8 and d.attempts == 1
        assert dlx_count(H) >= 1


def test_solve_kdm_unsolvable_no():
    # instances with no cover, every vertex in an edge.  In the first,
    # block-0 vertex 1 lies only in (1, 3, 6), which the clash rule
    # forces; that drops both other edges through vertex 3 and leaves
    # vertex 2 in no edge.  In the next two, the clash rule drops
    # nothing, but the component K_{2,3} on {0, 1} x {5, 6, 7} (5
    # vertices) or K_{2,4} on {0, 1} x {6, 7, 8, 9} (6 vertices) has
    # blocks of unequal size; building it as an instance would raise,
    # so the checks come first.  In the last, every vertex lies in two
    # edges and the clash rule drops nothing: one component, blocks of
    # four, and only the sieve answers, with no reason
    bare = Hypergraph(9, 3, [(0, 3, 6), (0, 4, 7), (0, 5, 8), (1, 3, 6), (2, 3, 7)],
                      [(0, 1, 2), (3, 4, 5), (6, 7, 8)])
    split = Hypergraph(10, 2, [(a, b) for a in (0, 1) for b in (5, 6, 7)]
                       + [(a, b) for a in (2, 3, 4) for b in (8, 9)], [range(5), range(5, 10)])
    even = Hypergraph(12, 2, [(a, b) for a in (0, 1) for b in (6, 7, 8, 9)]
                      + [(a, b) for a in (2, 3, 4, 5) for b in (10, 11)], [range(6), range(6, 12)])
    swept = Hypergraph(12, 3, [(0, 5, 8), (0, 6, 9), (1, 4, 10), (1, 7, 8), (2, 5, 11), (2, 6, 10),
                               (3, 4, 9), (3, 7, 11)], [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11)])
    for H in (split, even, swept):
        assert _clash_kept(H, range(len(H.edges))) == list(range(len(H.edges)))
    component = "component: no edges cover the {} vertices of a component of the kept edges exactly"
    for H, reason in ((bare, "clash: a vertex lies in no edge that the clash rule keeps"),
                      (split, component.format(5)), (even, component.format(6)), (swept, None)):
        assert not dlx_count(H)
        n, k = H.n, H.k
        for seed in range(10):
            d = solve_kdm(H, SieveConfig(seed=seed))
            assert d.answer == "no" and d.reason == reason
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


def _planted_matchings(rng, k, n, count, extra=0):
    """A partitioned instance on shuffled blocks whose edges are `count`
    random perfect matchings of the blocks, each an exact cover, and
    `extra` random edges, duplicates dropped.  The clash rule keeps
    every edge of the matchings, so the support it leaves has pairs of
    blocks with more than one perfect matching."""
    b = n // k
    perm = rng.sample(range(n), n)
    blocks = [perm[t * b:(t + 1) * b] for t in range(k)]
    edges = {tuple(vs) for _ in range(count) for vs in zip(*(rng.sample(q, b) for q in blocks))}
    edges |= {tuple(rng.choice(q) for q in blocks) for _ in range(extra)}
    return Hypergraph(n, k, sorted(edges), blocks)


def _kept(H):
    """The ids of the edges of a kdm instance H that the clash rule keeps,
    or None when it leaves a vertex in no edge: the set-based reference,
    which kept_components follows (test_kept_components_follows_the_reference)."""
    return _clash_kept(H, range(len(H.edges)))


def test_solve_kdm_walks_blocks_0_and_1_once(monkeypatch):
    # per component of more than one edge of what the clash rule keeps,
    # in the order of their lowest edge ids: one walk over the
    # component's V - (its blocks 0 and 1), then one determinant pass
    # over the X the walk model yields
    events = []
    inner_walk, inner_sweep = solver_mod._walk, solver_mod._sweep_kdm

    def walking(rest, *args):
        events.append(("walk", rest))
        return inner_walk(rest, *args)

    def sweeping(entries, b, weights, gf, xs):
        xs = list(xs)           # runs the walk, which the sweep drives
        events.append(("sweep", xs))
        return inner_sweep(entries, b, weights, gf, xs)

    monkeypatch.setattr(solver_mod, "_walk", walking)
    monkeypatch.setattr(solver_mod, "_sweep_kdm", sweeping)
    rng = random.Random(28)
    swept = 0
    for k, n in ((3, 9), (3, 12), (4, 8), (4, 12)):
        for _ in range(4):
            H = generate(rng, k, n, n // k + 5, plant=True, kdm=True)
            events.clear()
            d = solve_kdm(H, SieveConfig(seed=rng.randrange(100)))
            assert d.yes
            expect = []
            for ids, C in edge_components(H, _kept(H)):
                if len(ids) > 1:
                    entries, b, rest, codes, every = _kdm_case(C)
                    expect += [("walk", rest),
                               ("sweep", [every[c] for c in _kdm_model(entries, b, rest)[0]])]
            assert events == expect
            swept += len(expect) // 2
    assert swept >= 8, swept


def test_determinant_gets_the_live_rows_of_each_kept_x(monkeypatch):
    # solve_kdm's determinant calls against the brute-force live grids,
    # at the weights the solver draws (one per edge, in edge order): each
    # call gets {col: value} rows, and the calls are exactly the live grid
    # of each swept component (one of more than one edge) at each X its
    # walk kept, once each.  The one-X sweep of the whole reduced
    # instance is its live grid's determinant, and each solve's product of
    # its component totals (one sieve_decide per swept component) times
    # the squared one-edge weights is the cover sum
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
    # the sweep runs on what the clash rule keeps, at the weights
    # drawn for the kept edges; planted matchings keep root blocks wider
    # than 1x1 there, where most random instances keep one cover's edges
    rng = random.Random(29)
    for rep in range(12):
        gf = (GF8, GF64)[rep % 2]
        k, n = rng.choice([(3, 9), (3, 12), (4, 12)])
        H = _planted_matchings(rng, k, n, 3, rng.randint(0, n // k))
        seed = rng.randrange(10 ** 6)
        wrng = random.Random(seed)
        w = [gf.sample(wrng) for _ in H.edges]
        kept = _kept(H)
        F, wf = Hypergraph(n, k, [H.edges[e] for e in kept], H.partition), [w[e] for e in kept]
        entries, b, rest, _, _ = _kdm_case(F)
        for x in solver_mod._matchable_probes(entries, b, rest):
            mat = _live_grid(entries, b, wf, x)[1]
            assert solver_mod._sweep_kdm(entries, b, wf, gf, [x]) == ref_det(mat, gf)
        inputs = Counter()
        for ids, C in edge_components(H, kept):
            if len(ids) > 1:
                entries, b, rest, _, _ = _kdm_case(C)
                xs = list(solver_mod._matchable_probes(entries, b, rest))
                inputs += _grid_inputs(entries, b, [w[e] for e in ids], xs)
        singles = [w[ids[0]] for ids, _ in edge_components(H, kept) if len(ids) == 1]
        calls.clear()
        totals.clear()
        d = solve_kdm(H, SieveConfig(m=gf.m, seed=seed))
        assert Counter(calls) == inputs, rep
        seen["determinants"] += len(calls)
        assert d.yes == all(totals)
        u = [*H.partition[0], *H.partition[1]]
        whole = reduce(gf.mul, (gf.mul(x, x) for x in singles), reduce(gf.mul, totals, 1))
        assert whole == covers_weight_sum(H, u, w, gf)
        seen["nonzero"] += bool(whole)
    assert min(seen.values()) >= 6, seen


def _with_duplicates(rng, H, count):
    """H with `count` of its edges, drawn at random, listed twice more at
    the end; a kept edge and its copy form one two-edge component."""
    extra = [rng.choice(H.edges) for _ in range(count)] if H.edges else []
    return Hypergraph(H.n, H.k, [*H.edges, *extra], H.partition)


def test_component_split_keeps_the_total():
    # _sieve sieves each connected component of the kept edges on its
    # own, in both modes: the product of the components' totals, each on
    # its part of U, one-edge components included, is the total on the
    # whole instance.  A kdm component's part of U is its blocks 0 and 1.
    # When the clash rule or a component check answers, the instance has
    # no cover
    rng = random.Random(30)
    seen = Counter()
    for rep in range(200):
        gf = (GF8, GF64)[rep % 2]
        k = (2, 3, 4)[rep % 3]
        n = k * rng.randint(1, 12 // k)
        kind = rep % 5
        if kind == 0:           # planted or not, maybe a duplicate
            H = rand_instance(rng, k, n, n // k + rng.randint(0, 4), plant_prob=0.5, kdm=True)
            H = _with_duplicates(rng, H, rng.randint(0, 1))
        elif kind == 1:         # a cover and a few random edges
            H = generate(rng, k, n, n // k + rng.randint(0, 3), plant=True, kdm=True)
        elif kind == 2:         # a cover, some of its edges twice or more
            H = _with_duplicates(rng, generate(rng, k, n, n // k, plant=True, kdm=True),
                                 rng.randint(2, 3))
        elif kind == 3:         # every pair of blocks with several perfect matchings
            H = _planted_matchings(rng, k, n, rng.randint(2, 3), rng.randint(0, 4))
        else:                   # no partition, planted or not, maybe a duplicate
            H = _with_duplicates(rng, rand_instance(rng, k, n, 2 * n, plant_prob=0.5), rng.randint(0, 2))
        if H.partition is None:
            u = sorted(rng.sample(range(n), solver_mod.u_size(H, False)))
            u_mask = sum(1 << v for v in u)
            ids = [e for e, mk in enumerate(H.edge_masks) if (mk & u_mask).bit_count() <= 2]
        else:
            u, ids = [*H.partition[0], *H.partition[1]], range(len(H.edges))
        w = [gf.sample(rng) for _ in ids]
        F = Hypergraph(n, k, [H.edges[e] for e in ids], H.partition)
        whole = sieve_decide(F, u, w, gf)
        split = solver_mod.kept_components(H, ids)[0]
        if split is None:       # answered before any sweep
            assert not whole and not dlx_count(F), rep
            seen["answered no"] += 1
            continue
        parts = edge_components(H, _clash_kept(H, ids))
        assert split == [part for part, _ in parts], rep
        weight = dict(zip(ids, w))
        sieved = solver_mod._sieve(H, u, split, [weight.get(e) for e in range(len(H.edges))], gf)[0]
        totals = []
        for part, C in parts:
            built, part_u = solver_mod._component(H, part, u)
            assert built == C, rep
            if C.partition is not None:
                assert set(part_u) == {*C.partition[0], *C.partition[1]}, rep
            totals.append(sieve_decide(C, part_u, [weight[e] for e in part], gf))
        assert reduce(gf.mul, totals, 1) == whole, rep
        assert sieved == all(t for t, (part, _) in zip(totals, parts) if len(part) > 1), rep
        swept = sum(len(part) > 1 for part, _ in parts)
        seen["several swept" if swept > 1 else "one swept" if swept else "none swept"] += 1
        seen["xkc" if H.partition is None else "kdm"] += 1
    assert len(seen) == 6 and min(seen.values()) >= 15, seen


def test_one_edge_components_need_no_sweep(monkeypatch):
    # kept edges that are one exact cover answer yes with no walk.  A
    # one-edge component drawn weight 0 used to zero the whole total and
    # answer a false no; it is a cover of its own vertices whatever its
    # weight, so the answer is now yes
    walks = []
    inner_walk = solver_mod._walk

    def walking(*args):
        walks.append(args)
        return inner_walk(*args)

    monkeypatch.setattr(solver_mod, "_walk", walking)
    blocks = [(0, 1), (2, 3), (4, 5)]
    cover = Hypergraph(6, 3, [(0, 2, 4), (1, 3, 5)], blocks)
    rng = random.Random(139)
    w = [GF8.sample(rng) for _ in cover.edges]
    assert w == [0, 245] and sieve_decide(cover, [0, 1, 2, 3], w, GF8) == 0
    walks.clear()
    d = solve_kdm(cover, SieveConfig(m=8, seed=139))
    assert d.yes and d.reason == "clash: the kept edges are one exact cover"
    assert d.probes == 4 and d.attempts == d.max_attempts == 1 and not walks
    # a duplicated edge is a two-edge component, swept on its own; the
    # other edge, weight 0, is not
    twin = Hypergraph(6, 3, [(0, 2, 4), (0, 2, 4), (1, 3, 5)], blocks)
    rng = random.Random(309)
    w = [GF8.sample(rng) for _ in twin.edges]
    assert w == [16, 76, 0] and sieve_decide(twin, [0, 1, 2, 3], w, GF8) == 0
    walks.clear()
    d = solve_kdm(twin, SieveConfig(m=8, seed=309))
    assert d.yes and d.reason is None and len(walks) == 1
    assert walks[0][0] == 0b100  # the component's vertices 0, 2, 4 are 0, 1, 2; block 2 is {2}


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
        kernels.clear()
        assert sieve_decide(H, u, w, gf) == expect
        assert set(kernels) == {"_sweep_kdm"}
        kernels.clear()
        assert sieve_decide(Hypergraph(H.n, H.k, H.edges), u, w, gf) == expect
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
    # in V - U, so hit counts reach 2.  Beside the cancelling twins, dense
    # unfiltered instances put cells off every perfect matching of the
    # root support (between its Dulmage-Mendelsohn blocks), which each X's
    # determinant reads along with the rest
    rng = random.Random(16)
    seen = {"nonzero": 0, "stray cells": 0}
    for gf in (GF8, GF64):
        for k, sizes in ((3, (6, 9, 12, 15)), (4, (8, 12))):
            for swap in (False, True):
                for n in (*sizes, *sizes):
                    dense = rand_instance(rng, k, n, 3 * n // k, plant_prob=0.5,
                                          min_edges=2 * n // k, kdm=True)
                    for H, w in (_kdm_with_cancelling_twins(rng, gf, k, n, swap),
                                 (dense, [gf.sample(rng) for _ in dense.edges])):
                        u = [*H.partition[0], *H.partition[1]]
                        entries, b, rest, _, _ = _kdm_case(H)
                        xs = list(solver_mod._matchable_probes(entries, b, rest))
                        whole = solver_mod._sweep_kdm(entries, b, w, gf, xs)
                        assert gf.mul(whole, whole) == covers_weight_sum(H, u, w, gf)
                        for cut in range(len(xs) + 1):
                            head = solver_mod._sweep_kdm(entries, b, w, gf, xs[:cut])
                            tail = solver_mod._sweep_kdm(entries, b, w, gf, xs[cut:])
                            assert head ^ tail == whole, (n, k, cut)
                        used = _matched_cells(_live_grid(entries, b, w, 0)[0])
                        seen["nonzero"] += bool(whole)
                        seen["stray cells"] += bool(used) and any((r, c) not in used
                                                                  for *_, r, c in entries)
    assert min(seen.values()) >= 10, seen


def _matchable(rows):
    b = len(rows)
    return any(all(rows[r] >> perm[r] & 1 for r in range(b)) for perm in permutations(range(b)))


def _matched_cells(rows):
    """The cells (r, c) in some perfect matching of the support whose row
    r has bit c of rows[r] set, by brute force over permutations."""
    b = len(rows)
    return {(r, c) for perm in permutations(range(b))
            if all(rows[r] >> perm[r] & 1 for r in range(b)) for r, c in enumerate(perm)}


def _live_grid(entries, b, weights, x):
    """Brute-force support masks and value matrix of the edges avoiding X."""
    support = [0] * b
    mat = [[0] * b for _ in range(b)]
    for mk, eid, r, c in entries:
        if not mk & x:
            support[r] |= 1 << c
            mat[r][c] ^= weights[eid]
    return support, mat


def _canon(rows):
    """A matrix's dense or {col: value} rows, zeros left out, as a sorted
    tuple, so the order of the rows does not count."""
    return tuple(sorted(tuple(sorted(row.items())) for row in _nonzero_rows(rows)))


def _grid_inputs(entries, b, w, xs):
    """Counter of the canonical live grids of the X in xs, one per X."""
    return Counter(_canon(_live_grid(entries, b, w, x)[1]) for x in xs)


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
    # vertex in a cell that one uses), in code order, and nothing when the
    # root support has no perfect matching; the determinant pass, over the
    # whole list and over 2 to 7 slices cut where a code range would
    # split, hands the determinant the live grid of each of a slice's X,
    # once each, and the slices XOR to the whole total; k = 4 puts two
    # vertices of each edge in V - U, so hit counts reach 2, and twins
    # duplicate or cancel cells
    mats = []
    inner_det = solver_mod.determinant

    def computing(rows, gf):
        mats.append(_canon(rows))
        return inner_det(rows, gf)

    monkeypatch.setattr(solver_mod, "determinant", computing)
    rng = random.Random(22)
    seen = {"yielded": 0, "pruned": 0, "cancelled": 0, "nonzero": 0, "root matchings": 0}
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
            if _matchable(_live_grid(entries, b, w, 0)[0]):
                seen["root matchings"] += 1
            else:
                assert walked == []
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
                    swept ^= solver_mod._sweep_kdm(entries, b, w, gf, walked[a:z])
                    assert Counter(mats) == _grid_inputs(entries, b, w, walked[a:z]), (k, n, bounds)
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

    def walking(*args):
        walked.append(list(inner_walk(*args)))
        return walked[-1]

    def sweeping(entries, b, weights, gf, xs):
        swept.extend(xs)
        return inner_sweep(entries, b, weights, gf, xs)

    monkeypatch.setattr(solver_mod, "_matchable_probes", walking)
    monkeypatch.setattr(solver_mod, "_sweep_kdm", sweeping)
    rng = random.Random(18)
    skipped = cancelled = 0
    for rep in range(30):
        gf = (GF8, GF64)[rep % 2]
        k, n = rng.choice([(3, 12), (3, 15), (4, 12)])
        H, w = _kdm_with_cancelling_twins(rng, gf, k, n, rep % 4 >= 2)
        walked.clear()
        swept.clear()
        sieve_decide(H, [*H.partition[0], *H.partition[1]], w, gf)
        [winner] = walked
        entries, b, rest, _, xs = _kdm_case(H)
        assert winner == [xs[c] for c in _kdm_model(entries, b, rest)[0]] == swept
        probe = {x: inner_sweep(entries, b, w, gf, [x]) for x in winner}
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
    # an invalid instance cannot be built, so no solver sees one
    with pytest.raises(ValueError, match=r"^vertex-range: edge 0 vertex 7 outside 0\.\.5$"):
        Hypergraph(6, 3, [(0, 1, 7)])
    with pytest.raises(ValueError):
        solve_xkc(Hypergraph(6, 3, [(0, 1, 2)]), SieveConfig(m=16))
    with pytest.raises(ValueError, match="unsupported field degree 7"):
        SieveConfig(m=7)


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


def test_refuted_never_refutes_an_instance_with_a_cover(monkeypatch):
    # unpartitioned instances, planted or not, with repeated edges:
    # kept_components refutes (answers no before any sweep) only
    # instances with no cover, and keeps every edge of every exact cover,
    # in disjoint increasing parts.  sieve_decide is patched to yes, so an
    # answer of no is one of the rules
    monkeypatch.setattr(solver_mod, "sieve_decide", lambda *args: True)
    rng = random.Random(34)
    covered = Counter()         # (has a cover, refuted) over instances with no bare vertex
    for _ in range(600):
        k = rng.choice([2, 3, 4])
        n = k * rng.randint(1, 4)
        H = rand_instance(rng, k, n, 2 * n, plant_prob=0.3, min_edges=n // k)
        edges = H.edges + [rng.choice(H.edges) for _ in range(rng.randint(0, 3))]
        H = Hypergraph(n, k, edges)  # repeated edges included
        covers = dlx_enumerate(H)
        parts = solver_mod.kept_components(H, range(len(edges)))[0]
        fires = parts is None or not solver_mod._sieve(H, [], parts, [1] * len(edges), GF64)[0]
        assert not (fires and covers), H.edges
        if covers:
            kept = [e for part in parts for e in part]
            assert all(part == sorted(part) for part in parts) and len(set(kept)) == len(kept), H
            assert {e for cover in covers for e in cover} <= set(kept), H
        if reduce(or_, H.edge_masks) == (1 << n) - 1:
            covered[bool(covers), fires] += 1
    # the rules settle at least four of five no-instances with no bare vertex
    assert covered[True, False] >= 200
    assert covered[False, True] >= 50 and covered[False, True] >= 4 * covered[False, False]


def test_matching_filter_keeps_every_cover_and_the_sieve_total():
    # the clash rule is solve_kdm's filter now (it replaced the matching
    # filter).  Random partitioned instances, planted or not: every edge
    # of every exact cover survives it, and the sieve total on what
    # survives, at the weights of the surviving edges, is the total on
    # the whole instance and the summed cover weight
    rng = random.Random(43)
    seen = {"dropped": 0, "bare": 0, "nonzero": 0}
    for rep in range(90):
        gf = (GF8, GF64)[rep % 2]
        k = (2, 3, 4)[rep % 3]
        n = k * rng.randint(1, 12 // k)
        if rep % 5 == 4:
            H = _planted_matchings(rng, k, n, rng.randint(1, 3), rng.randint(0, 6))
        else:
            H = rand_instance(rng, k, n, n // k + rng.randint(0, 6), plant_prob=0.5, kdm=True)
        w = [gf.sample(rng) for _ in H.edges]
        u = [*H.partition[0], *H.partition[1]]
        whole = sieve_decide(H, u, w, gf)
        assert whole == covers_weight_sum(H, u, w, gf), rep
        kept = _kept(H)
        if kept is None:
            assert not whole and not dlx_count(H), rep
            seen["bare"] += 1
            continue
        assert {e for cover in dlx_enumerate(H) for e in cover} <= set(kept), rep
        F = Hypergraph(n, k, [H.edges[e] for e in kept], H.partition)
        assert sieve_decide(F, u, [w[e] for e in kept], gf) == whole, rep
        seen["dropped"] += len(H.edges) > len(kept)
        seen["nonzero"] += bool(whole)
    assert min(seen.values()) >= 15, seen


def test_refuted_rules():
    # kept_components's clash rule, and its component check after it
    def reduced(edges, n):      # the kept edge ids, increasing, or the reason for a no
        parts, reason = solver_mod.kept_components(Hypergraph(n, len(edges[0]), edges),
                                                   range(len(edges)))
        return reason if parts is None else sorted(e for part in parts for e in part)

    bare = "clash: a vertex lies in no edge that the clash rule keeps"

    # vertex 5 lies in no edge
    assert reduced([(0, 1, 2), (2, 3, 4)], 6) == bare
    # clash: every vertex lies in two edges and no edge is forced, but
    # (1, 3, 5) and (2, 4, 5) meet both edges through vertex 0, so
    # neither lies in a cover, and vertex 5 is left in no edge
    assert reduced([(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)], 6) == bare
    # forced chain: (0, 1) is forced and kills (1, 2); only then is (2, 3)
    # forced, which kills both edges through vertex 4
    assert reduced([(0, 1), (1, 2), (2, 3), (3, 4), (3, 5)], 6) == bare
    # a cover plus (0, 4, 8): vertex 1 lies only in (1, 4, 7), which is
    # forced and kills (0, 4, 8); the cover is kept
    assert reduced([(0, 3, 6), (1, 4, 7), (2, 5, 8), (0, 4, 8)], 9) == [0, 1, 2]
    # the rows and columns of a 3 x 3 grid: two covers, nothing dropped
    grid = [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)]
    assert reduced(grid, 9) == list(range(6))
    # two 5-cycles: no rule drops an edge, and each component holds 5
    # vertices, not a multiple of k = 2, so kept_components answers
    # before any sweep
    cycles = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    H = Hypergraph(10, 2, cycles)
    assert _clash_kept(H, range(10)) == list(range(10))
    assert solver_mod.kept_components(H, range(10)) == (
        None, "component: no edges cover the 5 vertices of a component of the kept edges exactly")


@st.composite
def _instance_and_subset(draw):
    """A k in {2, 3, 4} instance, maybe holding a planted cover, with a
    random subset of its edge ids."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = k * draw(st.integers(1, 4))
    edge = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True)
    edges = draw(st.lists(edge, max_size=2 * n))
    if draw(st.booleans()):
        order = draw(st.permutations(range(n)))
        edges += [order[i:i + k] for i in range(0, n, k)]
    H = Hypergraph(n, k, [tuple(e) for e in draw(st.permutations(edges))])
    sub = [e for e in range(len(H.edges)) if draw(st.booleans())]
    return H, sub


@settings(max_examples=300, deadline=None)
@given(case=_instance_and_subset())
def test_reduction_is_monotone_under_edge_deletion(case):
    # what solve_xkc's root reduction rests on: for edge sets S' within
    # S, a refuted S leaves S' refuted, S' keeps only edges S keeps, and
    # reducing S' within S's kept edges keeps what reducing S' keeps
    # (the clash rule as the set-based reference, which kept_components
    # follows)
    H, sub = case
    whole, part = _clash_kept(H, range(len(H.edges))), _clash_kept(H, sub)
    if whole is None:
        assert part is None
        assert solver_mod.kept_components(H, sub)[0] is None
        return
    assert part is None or set(part) <= set(whole)
    assert _clash_kept(H, [e for e in sub if e in set(whole)]) == part
    if solver_mod.kept_components(H, range(len(H.edges)))[0] is None:
        assert solver_mod.kept_components(H, sub)[0] is None


def test_refutation_never_changes_a_decision(monkeypatch):
    # the clash rule drops only edges that lie in no cover, and a refuted
    # attempt still draws its U and weights, so at m = 64 every
    # (answer, probes, attempts, max_attempts) is the one made with the
    # rule off (every edge kept, None only for a vertex in no edge).  A
    # root refutation settles the whole budget at once and adds its
    # reason; a yes whose deciding attempt keeps one exact cover's edges
    # alone, which the rule off may not, adds the cover-in-hand reason
    def decisions():
        rng = random.Random(35)
        out = []
        for _ in range(200):
            k = rng.choice([2, 3, 3, 4])
            n = k * rng.randint(2, 3)
            H = rand_instance(rng, k, n, 2 * n, plant_prob=0.5, min_edges=n)
            d = solve_xkc(H, SieveConfig(seed=rng.randrange(10 ** 6)))
            out.append((d.answer, d.probes, d.attempts, d.max_attempts, d.reason))
        return out

    inner = solver_mod.kept_components
    fired = Counter()

    def counted(H, ids):
        parts, reason = inner(H, ids)
        fired["dropped"] += parts is not None and sum(map(len, parts)) < len(ids)
        return parts, reason

    def keeping(H, ids):        # the split and the checks, with the clash rule off
        if len({v for e in ids for v in H.edges[e]}) < H.n:
            return None, "clash: a vertex lies in no edge that the clash rule keeps"
        return _checked(H, edge_parts(H, sorted(ids)))

    monkeypatch.setattr(solver_mod, "kept_components", counted)
    shipped = decisions()
    monkeypatch.setattr(solver_mod, "kept_components", keeping)
    plain = decisions()
    for ours, theirs in zip(shipped, plain):
        assert ours[:4] == theirs[:4]
        if ours[4] == theirs[4]:
            continue
        assert theirs[4] is None, ours
        if ours[0] == "yes":    # the deciding attempt's kept edges are one exact cover
            assert ours[4] == "clash: the kept edges are one exact cover", ours
            fired["cover"] += 1
        else:                   # refuted at the root: the full budget, no U drawn
            assert ours[2] == ours[3], ours
            assert ours[4].startswith(("clash: a vertex", "component: ")), ours
            fired["root"] += 1
    assert fired["root"] >= 20 and fired["dropped"] >= 100, fired  # the rule fired both ways
    assert fired["cover"] >= 20, fired
    assert Counter(d[0] for d in shipped)["yes"] >= 100


def _xkc_stream(H, seed, attempts, gf=GF64):
    """(U, weights) of solve_xkc's first `attempts` attempts at `seed`,
    replayed from the documented stream: U = sorted(rng.sample(range(n),
    tn)), then one gf.sample per edge that meets U at most twice, in
    edge-id order; the weight of any other edge is None."""
    rng = random.Random(seed)
    tn = solver_mod.u_size(H, False)
    stream = []
    for _ in range(attempts):
        u = sorted(rng.sample(range(H.n), tn))
        stream.append((u, [gf.sample(rng) if len(set(e) & set(u)) <= 2 else None for e in H.edges]))
    return stream


def test_both_solvers_reduce_once_per_attempt(monkeypatch):
    # solve_kdm calls kept_components once, at the root: its one U, blocks
    # 0 and 1, drops no edge.  solve_xkc calls it once at the root, then once
    # per attempt whose U drops a root-kept edge (one meeting U three or
    # more times); an attempt that drops none sieves the root's
    # components.  It draws no U when the root refutes.  Neither reaches
    # sieve_decide but through _sieve
    calls, inner = [], solver_mod.kept_components
    monkeypatch.setattr(solver_mod, "kept_components", lambda H, ids: calls.append(H.n) or inner(H, ids))
    rng = random.Random(36)
    seen = Counter()
    for rep in range(80):
        kdm = rep % 2 == 1
        H = rand_instance(rng, 3, 9, 12, plant_prob=0.5, min_edges=3, kdm=kdm)
        calls.clear()
        d = (solve_kdm if kdm else solve_xkc)(H, SieveConfig(seed=rep, epsilon=0.01))
        if kdm or d.attempts == 0:  # kdm's one attempt is its root; no U for a bare vertex
            assert calls == [H.n] * d.attempts, rep
            seen["kdm" if kdm else "bare"] += 1
        elif not d.yes and d.reason is not None:  # refuted at the root
            assert calls == [H.n] and d.attempts == d.max_attempts, rep
            seen["root"] += 1
        else:
            kept = [e for part in inner(H, range(len(H.edges)))[0] for e in part]
            drops = sum(any(w[e] is None for e in kept) for _, w in _xkc_stream(H, rep, d.attempts))
            assert calls == [H.n] * (1 + drops), rep
            seen["drawn", d.attempts > 1] += 1
            seen["reused"] += drops < d.attempts
    assert seen["kdm"] == 40 and seen["root"] >= 2 and seen["drawn", True] >= 4, seen
    assert seen["reused"] >= 10, seen


def _clash_kept(H, ids):
    """What the clash rule keeps of H's edges `ids`, or None when it
    leaves a vertex in no edge: until it drops nothing, drop the edges
    that miss a vertex v and meet every edge through v."""
    live = list(ids)
    while True:
        for v in range(H.n):
            through = [set(H.edges[e]) for e in live if v in H.edges[e]]
            if not through:
                return None
            clash = {e for e in live if v not in H.edges[e] and all(t & set(H.edges[e]) for t in through)}
            if clash:
                live = [e for e in live if e not in clash]
                break
        else:
            return live


def _checked(H, parts):
    """(parts, None), or None and the reason for the first of the parts
    (lists of H's edge ids) whose vertex count is not a multiple of k or
    whose partition blocks, if any, differ in size."""
    for part in parts:
        vertices = {v for e in part for v in H.edges[e]}
        if len(vertices) % H.k or len({len(vertices & set(b)) for b in H.partition or ()}) > 1:
            return None, (f"component: no edges cover the {len(vertices)} vertices "
                          f"of a component of the kept edges exactly")
    return parts, None


@st.composite
def _instance_and_ids(draw):
    """A k in {2, 3, 4} instance, partitioned or not, with all or a random
    subset of its edge ids in any order.  Its edges are random, maybe
    with a planted cover, or pieces on runs of the vertices that the
    clash rule may leave whole: unpartitioned, the k-sets of consecutive
    vertices around a cycle on each run; partitioned, every edge across
    the j-th runs of the blocks.  A piece whose vertex count is not a
    multiple of k, or whose runs differ in length, fails the check."""
    k = draw(st.sampled_from([2, 3, 4]))
    n = k * draw(st.integers(1, 12 // k + 2))
    b, order = n // k, draw(st.permutations(range(n)))
    blocks = [order[t * b:(t + 1) * b] for t in range(k)] if draw(st.booleans()) else None

    def runs(vertices, count, least):   # `vertices` cut into `count` runs of `least` or more
        spare = len(vertices) - count * least
        cuts = sorted(draw(st.lists(st.integers(0, spare), min_size=count - 1, max_size=count - 1)))
        ends = [least * (j + 1) + c for j, c in enumerate([*cuts, spare])]
        return [vertices[i:j] for i, j in zip([0, *ends], ends)]

    if draw(st.booleans()) and blocks:
        # runs of 2 or more where b allows, so no vertex is forced, and of
        # at most about 3, so the product stays small
        count = draw(st.integers(-(-b // 3), max(-(-b // 3), b // 2)))
        pieces = zip(*(runs(block, count, 2 if 2 * count <= b else 1) for block in blocks))
        edges = [e for piece in pieces for e in product(*piece)]
    elif blocks:                # an edge takes one vertex of each block
        edge = st.tuples(*(st.sampled_from(block) for block in blocks))
        planted = [tuple(block[i] for block in blocks) for i in range(b)]
        edges = draw(st.lists(edge, max_size=2 * n)) + (planted if draw(st.booleans()) else [])
    elif draw(st.booleans()):   # no clash around a cycle of 3k - 1 or more
        least = min(3 * k - 1, n)
        edges = sorted({tuple(sorted(run[(i + j) % len(run)] for j in range(k)))
                        for run in runs(order, draw(st.integers(1, n // least)), least)
                        for i in range(len(run))})
    else:
        edge = st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True).map(tuple)
        planted = [tuple(order[i:i + k]) for i in range(0, n, k)]
        edges = draw(st.lists(edge, max_size=2 * n)) + (planted if draw(st.booleans()) else [])
    H = Hypergraph(n, k, draw(st.permutations(edges)), blocks)
    ids = range(len(H.edges)) if draw(st.booleans()) else [
        e for e in range(len(H.edges)) if draw(st.booleans())]
    return H, draw(st.permutations(ids))


@settings(max_examples=500, deadline=None)
@given(case=_instance_and_ids())
@example(case=(Hypergraph(12, 2, [(5 + i, 5 + (i + 1) % 7) for i in range(7)]  # a 7-cycle, a 5-cycle
                          + [(i, (i + 1) % 5) for i in range(5)]), [3, 8, 0, 11, 5, 9, 1, 6, 10, 2, 7, 4]))
@example(case=(Hypergraph(12, 2, [(a, b) for a in (2, 3, 4, 5) for b in (10, 11)]  # K_{4,2}, K_{2,4}
                          + [(a, b) for a in (0, 1) for b in (6, 7, 8, 9)], [range(6), range(6, 12)]),
               [11, 0, 5, 2, 7, 9, 1, 4, 3, 10, 6, 8, 15, 13, 12, 14]))
@example(case=(Hypergraph(8, 3, [(i, (i + 1) % 8, (i + 2) % 8) for i in range(8)]), range(7, -1, -1)))
def test_kept_components_follows_the_reference(case):
    # kept_components against an independent reference: the set-based
    # clash rule, then conftest's breadth-first split of the sorted kept
    # ids, then the vertex-count and block-size check of each component,
    # the first failing one giving the reason.  The examples fail the
    # checks: a cycle of 7 vertices listed before one of 5 at k = 2 (the
    # reason names 7), K_{2,4} listed after K_{4,2} (6 vertices each, in
    # blocks of unequal size), and a cycle of 8 vertices at k = 3
    H, ids = case
    kept = _clash_kept(H, sorted(ids))
    expect = ((None, "clash: a vertex lies in no edge that the clash rule keeps") if kept is None
              else _checked(H, edge_parts(H, kept)))
    assert solver_mod.kept_components(H, ids) == expect


def test_xkc_attempt_weights_follow_the_documented_stream(monkeypatch):
    # a planted cover among more edges, (0, 5, 11) listed twice: the root
    # keeps a component that must be swept.  At seed 3 the first three
    # attempts drop a root-kept edge and reduce again, and the fourth
    # keeps them all and answers yes.  Each sieve_decide call, in order,
    # gets the next swept component of its attempt's kept edges, on that
    # attempt's replayed U, at the replayed weights of the component's
    # edges in edge-id order; an attempt stops at its first zero total
    H = Hypergraph(12, 3, [(0, 5, 11), (1, 3, 7), (3, 6, 8), (0, 1, 5), (2, 7, 9), (2, 3, 10),
                           (0, 1, 8), (0, 8, 11), (6, 9, 10), (2, 4, 8), (3, 4, 5), (4, 7, 11),
                           (0, 5, 11), (4, 5, 10), (0, 2, 5), (5, 10, 11)])
    calls, inner = [], solver_mod.sieve_decide

    def deciding(C, u, weights, gf):
        calls.append((C, u, weights, inner(C, u, weights, gf)))
        return calls[-1][-1]

    monkeypatch.setattr(solver_mod, "sieve_decide", deciding)
    d = solve_xkc(H, SieveConfig(seed=3))
    assert d.yes and d.attempts == 4
    root = _clash_kept(H, range(len(H.edges)))
    got, dropped = iter(calls), []
    for u, w in _xkc_stream(H, 3, d.attempts):
        dropped.append(any(w[e] is None for e in root))
        kept = _clash_kept(H, [e for e in root if w[e] is not None])
        parts = [] if kept is None else edge_components(H, kept)
        if any(C.n % H.k for _, C in parts):
            continue            # a component no cover can fill: no sweep
        for ids, _ in parts:
            if len(ids) > 1:
                C, part_u, weights, total = next(got)
                assert (C, part_u) == solver_mod._component(H, ids, u)
                assert weights == [w[e] for e in ids]
                if not total:
                    break
    assert next(got, None) is None
    assert dropped == [True, True, True, False] and len(calls) == 3
    assert calls[-1][-1] == 0x52f133d8d590fec9


def test_refuted_attempts_are_not_swept(monkeypatch):
    # vertex 4 forces (4, 5, 6), which kills (6, 7, 8) and leaves vertex
    # 7 bare; the clash rule refutes the whole instance at the root, so
    # the full budget is settled and nothing is swept
    H = Hypergraph(9, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (4, 5, 6), (6, 7, 8)])

    def sweep(*args):
        raise AssertionError("sieve_decide called on a refuted attempt")

    monkeypatch.setattr(solver_mod, "sieve_decide", sweep)
    for seed in range(5):
        d = solve_xkc(H, SieveConfig(seed=seed))
        assert (d.answer, d.reason) == ("no", "clash: a vertex lies in no edge that the clash rule keeps")
        assert d.attempts == d.max_attempts == 22  # the full budget is spent
        assert d.probes == d.attempts << (H.n - solver_mod.u_size(H, False))
