"""Instance validation, projections, restriction, and the JSON format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detcover import (Hypergraph, ParseError, dlx_count, generate, parse,
                      project, restrict_avoiding, serialize, validate)


def _h(n, k, edges, partition=None):
    return Hypergraph(n, k, [tuple(e) for e in edges],
                      None if partition is None else [tuple(b) for b in partition])


def test_validate_accepts_well_formed():
    assert validate(_h(6, 3, [(0, 1, 2), (3, 4, 5), (0, 1, 2)])) is None
    assert validate(_h(0, 3, [])) is None
    assert validate(_h(4, 2, [(0, 2), (1, 3)], [(0, 1), (2, 3)])) is None


def test_validate_flags_arity():
    v = validate(_h(6, 3, [(0, 1)]))
    assert v is not None and v.kind == "arity"


def test_validate_flags_vertex_range():
    v = validate(_h(6, 3, [(0, 1, 6)]))
    assert v is not None and v.kind == "vertex-range"
    v = validate(_h(6, 3, [(-1, 1, 2)]))
    assert v is not None and v.kind == "vertex-range"


def test_validate_flags_repeated_vertex():
    v = validate(_h(6, 3, [(1, 1, 2)]))
    assert v is not None and v.kind == "repeated-vertex"


def test_validate_flags_partition_problems():
    v = validate(_h(4, 2, [(0, 1)], [(0, 1), (2, 3)]))
    assert v is not None and v.kind == "partition-meet"
    assert "block 0" in v.message and "2 times" in v.message
    v = validate(_h(4, 2, [], [(0, 1, 2), (3,)]))
    assert v is not None and v.kind == "partition-shape"
    v = validate(_h(4, 2, [], [(0, 1), (1, 2)]))
    assert v is not None and v.kind == "partition-cover"
    v = validate(_h(3, 2, [], [(0, 1), (2,)]))
    assert v is not None and v.kind == "partition-shape"


def test_validate_reports_the_first_edge_that_breaks_the_partition():
    # edge 1 meets block 1 twice and block 2 never; the later edge 2
    # misses the earlier block 0.  Edges come first, then blocks in order
    blocks = [(0, 1), (2, 3), (4, 5)]
    v = validate(_h(6, 3, [(0, 2, 4), (0, 2, 3), (2, 4, 5)], blocks))
    assert v is not None and v.kind == "partition-meet"
    assert v.message == "edge 1 meets block 1 2 times, expected once"
    v = validate(_h(6, 3, [(0, 2, 4), (2, 4, 5), (0, 2, 3)], blocks))
    assert v.message == "edge 1 meets block 0 0 times, expected once"


def test_validate_flags_bad_shape():
    v = validate(_h(3, 1, []))
    assert v is not None and v.kind == "shape"
    v = validate(_h(-1, 3, []))
    assert v is not None and v.kind == "shape"


def test_project_classifies():
    H = _h(6, 3, [(0, 1, 2), (0, 3, 4), (3, 4, 5), (0, 1, 3)])
    view = project(H, [0, 1])
    assert view.u_order == (0, 1)
    assert view.pairs == [(0, 0, 1), (3, 0, 1)]
    assert view.loops == [(1, 0)]
    assert view.empties == [2]
    assert view.dropped == []
    everything = project(H, [])
    assert everything.empties == [0, 1, 2, 3]
    dropped = project(H, [0, 1, 2])
    assert dropped.dropped == [0]


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
        assert not view.loops and not view.empties and not view.dropped


@settings(max_examples=60)
@given(data=st.data())
def test_project_partitions_edges(data):
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    n = data.draw(st.sampled_from([6, 9, 12]))
    H = generate(rng, 3, n, rng.randint(0, 12))
    u = data.draw(st.sets(st.integers(0, n - 1), max_size=n))
    view = project(H, u)
    assert (len(view.pairs) + len(view.loops) + len(view.empties)
            + len(view.dropped)) == len(H.edges)
    for eid, i, j in view.pairs:
        assert len(set(H.edges[eid]) & set(u)) == 2 and i < j
    for eid, _ in view.loops:
        assert len(set(H.edges[eid]) & set(u)) == 1
    for eid in view.empties:
        assert not set(H.edges[eid]) & set(u)
    for eid in view.dropped:
        assert len(set(H.edges[eid]) & set(u)) >= 3


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
        got = restrict_avoiding(project(H, u), H, sum(1 << v for v in x))
        survivors = [e for e in range(len(H.edges)) if not set(H.edges[e]) & x]
        kept = sorted([p[0] for p in got.pairs] + [l[0] for l in got.loops]
                      + got.empties + got.dropped)
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
