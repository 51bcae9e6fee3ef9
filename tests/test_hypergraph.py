"""Instance validation, projections, restriction, and the JSON format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcover import (Hypergraph, ParseError, SieveConfig, dlx_count, generate, parse,
                      project, restrict_avoiding, serialize, solve_kdm, solve_xkc,
                      validate)
from detcover import hypergraph as hypergraph_mod
from detcover import solver as solver_mod

from conftest import filtered_for


def _h(n, k, edges, partition=None):
    return Hypergraph(n, k, [tuple(e) for e in edges],
                      None if partition is None else [tuple(b) for b in partition])


def test_validate_accepts_well_formed():
    assert validate(_h(6, 3, [(0, 1, 2), (3, 4, 5), (0, 1, 2)])) is None
    assert validate(_h(0, 3, [])) is None
    assert validate(_h(4, 2, [(0, 2), (1, 3)], [(0, 1), (2, 3)])) is None


def test_validate_flags_arity():
    with pytest.raises(ValueError, match="^arity: "):
        _h(6, 3, [(0, 1)])


def test_validate_flags_vertex_range():
    with pytest.raises(ValueError, match="^vertex-range: "):
        _h(6, 3, [(0, 1, 6)])
    with pytest.raises(ValueError, match="^vertex-range: "):
        _h(6, 3, [(-1, 1, 2)])


def test_validate_flags_repeated_vertex():
    with pytest.raises(ValueError, match="^repeated-vertex: "):
        _h(6, 3, [(1, 1, 2)])


def test_validate_flags_partition_problems():
    with pytest.raises(ValueError, match="^partition-meet: .*block 0 2 times"):
        _h(4, 2, [(0, 1)], [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="^partition-shape: "):
        _h(4, 2, [], [(0, 1, 2), (3,)])
    with pytest.raises(ValueError, match="^partition-cover: "):
        _h(4, 2, [], [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="^partition-shape: "):
        _h(3, 2, [], [(0, 1), (2,)])


def test_validate_reports_the_first_edge_that_breaks_the_partition():
    # edge 1 meets block 1 twice and block 2 never; the later edge 2
    # misses the earlier block 0.  Edges come first, then blocks in order
    blocks = [(0, 1), (2, 3), (4, 5)]
    with pytest.raises(ValueError) as exc:
        _h(6, 3, [(0, 2, 4), (0, 2, 3), (2, 4, 5)], blocks)
    assert str(exc.value) == "partition-meet: edge 1 meets block 1 2 times, expected once"
    with pytest.raises(ValueError) as exc:
        _h(6, 3, [(0, 2, 4), (2, 4, 5), (0, 2, 3)], blocks)
    assert str(exc.value) == "partition-meet: edge 1 meets block 0 0 times, expected once"


def test_validate_flags_bad_shape():
    with pytest.raises(ValueError, match="^shape: "):
        _h(3, 1, [])
    with pytest.raises(ValueError, match="^shape: "):
        _h(-1, 3, [])


def test_construction_refuses_a_bool_n_or_k():
    for n, k in ((True, 2), (False, 2), (4, True)):
        with pytest.raises(ValueError) as exc:
            Hypergraph(n, k, [])
        assert str(exc.value) == "shape: n and k must be integers"


def test_construction_sorts_and_raises_the_validate_message():
    H = Hypergraph(3, 3, [[2, 0, 1]], [[1], [0], [2]])
    assert H.edges == [(0, 1, 2)] and H.partition == [(1,), (0,), (2,)]
    H = Hypergraph(4, 2, [(3, 0), (2, 1)], [(2, 0), (3, 1)])
    assert H.edges == [(0, 3), (1, 2)] and H.partition == [(0, 2), (1, 3)]
    with pytest.raises(ValueError) as exc:
        Hypergraph(6, 3, [(0, 1, 2), (5, 3)])
    assert str(exc.value) == "arity: edge 1 has 2 vertices, expected 3"
    with pytest.raises(ValueError) as exc:  # checked before sorting meets the mixed types
        Hypergraph(6, 3, [(0, "1", 2)])
    assert str(exc.value) == "vertex-range: edge 0 has non-integer vertex '1'"


def test_keep_equals_a_fresh_construction_without_validating(monkeypatch):
    rng = random.Random(12)
    for kdm in (False, True):
        H = generate(rng, 3, 12, 10, kdm=kdm)
        calls = []
        monkeypatch.setattr(hypergraph_mod, "validate", lambda H: calls.append(H))
        ids = [7, 0, 3, 3, 9]
        sub = H.keep(ids)
        monkeypatch.undo()
        assert calls == []
        fresh = Hypergraph(H.n, H.k, [H.edges[i] for i in ids], H.partition)
        assert sub == fresh and sub.edge_masks == fresh.edge_masks
        assert len(H.edges) == len(H.edge_masks) == 10  # the parent is left as it was
        assert H.keep([]).edges == H.keep([]).edge_masks == []


def test_validate_runs_once_per_built_instance(monkeypatch):
    calls = []
    original = hypergraph_mod.validate

    def counting(H):
        calls.append(H)
        return original(H)

    monkeypatch.setattr(hypergraph_mod, "validate", counting)
    rng = random.Random(13)
    for kdm in (False, True):
        text = serialize(generate(rng, 3, 12, 9, plant=True, kdm=kdm))
        calls.clear()
        H = parse(text)
        assert calls == [H]     # one check per parsed document, none again
    H = Hypergraph(9, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (4, 5, 6), (6, 7, 8)])
    calls.clear()
    d = solve_xkc(H, SieveConfig(seed=1, epsilon=0.01))
    assert calls == [] and d.attempts > 1     # no check in any attempt
    swept = []                  # per instance: the components of two or more edges
    for seed in range(6):
        H = generate(random.Random(seed), 3, 12, 12, plant=True, kdm=True)
        kept, _ = solver_mod._matching_filter(H)
        parts = solver_mod._components([H.edge_masks[e] for e in kept])
        swept.append(sum(len(part) > 1 for part in parts))
        calls.clear()
        solve_kdm(H, SieveConfig(seed=seed))
        assert len(calls) == swept[-1]  # _component builds, and checks, each swept one
    assert 0 in swept and max(swept) > 1


def test_project_classifies():
    H = _h(6, 3, [(0, 1, 2), (0, 3, 4), (3, 4, 5), (0, 1, 3)])
    view = project(H, [0, 1])
    assert view.u_order == (0, 1)
    assert view.pairs == [(0, 0, 1), (3, 0, 1)]
    assert view.loops == [(1, 0)]
    assert view.empties == [2]
    everything = project(H, [])
    assert everything.empties == [0, 1, 2, 3]
    with pytest.raises(ValueError, match="edge 0 meets U more than twice"):
        project(H, [0, 1, 2])


def test_project_rejects_foreign_vertices():
    H = _h(6, 3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        project(H, [5, 6])


def test_project_partitioned_instance_is_all_pairs():
    rng = random.Random(4)
    for _ in range(20):
        H = generate(rng, 3, 9, rng.randint(1, 10), kdm=True)
        view = project(H, list(H.partition[0]) + list(H.partition[1]))
        assert len(view.pairs) == len(H.edges)
        assert not view.loops and not view.empties


@settings(max_examples=60)
@given(data=st.data())
def test_project_partitions_edges(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = data.draw(st.sampled_from([6, 9, 12]))
    H = generate(rng, 3, n, rng.randint(0, 12))
    u = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    if any(len(set(e) & u) >= 3 for e in H.edges):
        with pytest.raises(ValueError, match="more than twice"):
            project(H, u)
        return
    view = project(H, u)
    assert len(view.pairs) + len(view.loops) + len(view.empties) == len(H.edges)
    for eid, i, j in view.pairs:
        assert len(set(H.edges[eid]) & set(u)) == 2 and i < j
    for eid, _ in view.loops:
        assert len(set(H.edges[eid]) & set(u)) == 1
    for eid in view.empties:
        assert not set(H.edges[eid]) & set(u)


def test_restrict_avoiding():
    H = _h(6, 3, [(0, 1, 2), (0, 3, 4), (3, 4, 5), (0, 1, 3)])
    view = project(H, [0, 1])
    same = restrict_avoiding(view, H, 0)
    assert same == view
    cut = restrict_avoiding(view, H, 1 << 4)
    assert cut.pairs == [(0, 0, 1), (3, 0, 1)]
    assert cut.loops == [] and cut.empties == []
    nothing = restrict_avoiding(view, H, 1 << 2 | 1 << 3)
    assert not nothing.pairs and not nothing.loops and not nothing.empties


def test_restrict_avoiding_rejects_overlap():
    H = _h(6, 3, [(0, 1, 2)])
    view = project(H, [0, 1])
    with pytest.raises(ValueError):
        restrict_avoiding(view, H, 1 << 1 | 1 << 4)
    with pytest.raises(ValueError):
        restrict_avoiding(view, H, 1 << 6)


def test_restrict_avoiding_matches_set_arithmetic():
    rng = random.Random(12)
    for _ in range(200):
        n = rng.choice([6, 9])
        H = generate(rng, 3, n, rng.randint(0, 10))
        u = set(rng.sample(range(n), rng.randint(0, 4)))
        pool = sorted(set(range(n)) - u)
        x = set(rng.sample(pool, rng.randint(0, min(3, len(pool)))))
        H = filtered_for(H, u)
        got = restrict_avoiding(project(H, u), H, sum(1 << v for v in x))
        survivors = [e for e in range(len(H.edges)) if not set(H.edges[e]) & x]
        kept = sorted([p[0] for p in got.pairs] + [l[0] for l in got.loops] + got.empties)
        assert kept == survivors


def test_parse_serialize_roundtrip():
    text = '{"k":3,"n":6,"edges":[[0,1,2],[3,4,5],[0,1,2]]}'
    H = parse(text)
    assert serialize(H) == text
    text_p = '{"k":2,"n":4,"edges":[[0,2],[1,3]],"partition":[[0,1],[2,3]]}'
    assert serialize(parse(text_p)) == text_p


def test_parse_normalizes_vertex_order():
    H = parse('{"k":3,"n":6,"edges":[[2,0,1]]}')
    assert H.edges == [(0, 1, 2)]


def test_parse_rejects_malformed():
    with pytest.raises(ParseError, match="line 1"):
        parse('{"k":3,')
    with pytest.raises(ParseError, match="missing"):
        parse('{"k":3,"n":6}')
    with pytest.raises(ParseError, match="arity"):
        parse('{"k":3,"n":6,"edges":[[0,1]]}')
    with pytest.raises(ParseError, match="vertex-range"):
        parse('{"k":3,"n":6,"edges":[[0,1,9]]}')
    for edge in ('[0,"a",1]', '[0,[1],2]', '[0,2.5,1]', '[0,true,2]', '[0,{},1]'):
        with pytest.raises(ParseError, match="vertex-range"):
            parse('{"k":3,"n":3,"edges":[%s]}' % edge)
    for block in ('"x"', '2.5', '[2]', 'false'):
        with pytest.raises(ParseError, match="vertex-range"):
            parse('{"k":3,"n":3,"edges":[[0,1,2]],"partition":[[0],[1],[%s]]}' % block)
    with pytest.raises(ParseError):
        parse('[1,2,3]')
    with pytest.raises(ParseError):
        parse('{"k":"3","n":6,"edges":[]}')


def test_parse_refuses_a_bool_or_string_n_or_k_with_the_shape_message():
    for doc in ('{"k":3,"n":true,"edges":[]}', '{"k":true,"n":2,"edges":[]}',
                '{"k":"3","n":6,"edges":[]}', '{"k":3,"n":6.0,"edges":[]}'):
        with pytest.raises(ParseError) as exc:
            parse(doc)
        assert str(exc.value) == "shape: n and k must be integers", doc


def test_parse_rejects_deep_nesting():
    # json.loads gives up with RecursionError, which must not escape parse
    for text in ("[" * 100_000 + "]" * 100_000,
                 '{"k":3,"n":3,"edges":' + "[" * 100_000 + "]" * 100_000 + "}"):
        with pytest.raises(ParseError, match="nests too deeply"):
            parse(text)


def test_generate_deterministic():
    a = serialize(generate(random.Random(99), 3, 9, 7, plant=True))
    b = serialize(generate(random.Random(99), 3, 9, 7, plant=True))
    c = serialize(generate(random.Random(98), 3, 9, 7, plant=True))
    assert a == b
    assert a != c


def test_generate_roundtrips_through_text():
    rng = random.Random(5)
    for _ in range(20):
        H = generate(rng, rng.choice([2, 3, 4]), 12, rng.randint(0, 8),
                     kdm=rng.random() < 0.5)
        again = parse(serialize(H))
        assert (again.n, again.k, again.edges, again.partition) == (
            H.n, H.k, H.edges, H.partition)


def test_generate_plants_a_cover():
    rng = random.Random(6)
    for _ in range(20):
        H = generate(rng, 3, 9, rng.randint(3, 10), plant=True,
                     kdm=rng.random() < 0.5)
        assert validate(H) is None
        assert dlx_count(H) >= 1


def test_generate_without_edges_is_unsolvable():
    H = generate(random.Random(7), 3, 9, 0)
    assert dlx_count(H) == 0


def test_generate_kdm_has_valid_partition():
    H = generate(random.Random(8), 4, 12, 6, kdm=True)
    assert H.partition is not None and len(H.partition) == 4
    assert validate(H) is None


def test_generate_rejects_infeasible():
    rng = random.Random(9)
    with pytest.raises(ValueError):
        generate(rng, 3, 10, 5, plant=True)  # n not a multiple of k
    with pytest.raises(ValueError):
        generate(rng, 3, 9, 2, plant=True)  # budget below a full cover
    with pytest.raises(ValueError):
        generate(rng, 3, 0, 1)
    with pytest.raises(ValueError):
        generate(rng, 1, 3, 1)


def test_empty_instance_is_fine():
    H = generate(random.Random(1), 3, 0, 0, plant=True, kdm=True)
    assert H.n == 0 and H.edges == [] and len(H.partition) == 3
    assert dlx_count(H) == 1
