"""Graph toolkit tests: structure, components, canonicalization,
isomorphism search, serialization."""

import json
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cleangraphs.cleangraph import cl2, idempotent_graph
from cleangraphs.graph import (
    ComponentSummary,
    Graph,
    IsoWitness,
    canonical_form,
    complete_graph,
    disjoint_union,
    empty_graph,
    export,
    find_isomorphism,
    parse_edgelist,
    path_graph,
    verify_mapping,
)
from cleangraphs.modring import factorize
from cleangraphs.shuriken import build_shu


@st.composite
def small_graphs(draw, max_vertices=8):
    k = draw(st.integers(min_value=0, max_value=max_vertices))
    labels = [f"v{i}" for i in range(1, k + 1)]
    pairs = list(combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(labels, chosen)


# -- basics ------------------------------------------------------------------


def test_add_and_query():
    g = Graph(["a"], [("a", "b")])
    assert g.vertices == ("a", "b")
    assert g.has_edge("b", "a")
    assert g.degree("a") == 1
    assert g.num_edges == 1


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph([], [("x", "x")])


def test_rejects_non_string_labels():
    with pytest.raises(TypeError):
        Graph([3])


def test_stock_graphs():
    assert complete_graph(4).num_edges == 6
    assert empty_graph(5).num_edges == 0
    assert path_graph(4).edges() == (("v1", "v2"), ("v2", "v3"), ("v3", "v4"))
    assert complete_graph(0).num_vertices == 0


def test_equality_ignores_vertex_order():
    a = Graph(["x", "y"], [("x", "y")])
    b = Graph(["y", "x"], [("y", "x")])
    assert a == b


@given(small_graphs())
def test_handshake(g):
    assert sum(g.degree(v) for v in g.vertices) == 2 * g.num_edges


@given(small_graphs())
def test_degree_sequence_is_sorted(g):
    seq = g.degree_sequence()
    assert list(seq) == sorted(seq, reverse=True)


# -- induced subgraphs and unions --------------------------------------------------


def test_induced_subgraph():
    g = complete_graph(4)
    sub = g.induced_subgraph(["v1", "v3"])
    assert sub.vertices == ("v1", "v3")
    assert sub.num_edges == 1
    with pytest.raises(ValueError):
        g.induced_subgraph(["nope"])


def test_relabel_roundtrip():
    g = path_graph(3)
    fwd = {"v1": "a", "v2": "b", "v3": "c"}
    h = g.relabel(fwd)
    assert h.has_edge("a", "b") and h.has_edge("b", "c") and not h.has_edge("a", "c")
    with pytest.raises(ValueError):
        g.relabel({"v1": "a", "v2": "a", "v3": "c"})


def test_disjoint_union_labels():
    u = disjoint_union([complete_graph(2), complete_graph(1)])
    assert set(u.vertices) == {"p0_v1", "p0_v2", "p1_v1"}
    assert u.num_edges == 1


# -- components ----------------------------------------------------------------


def test_components_of_union():
    u = disjoint_union([complete_graph(3), path_graph(2), empty_graph(1)])
    comps = u.connected_components()
    assert [c.num_vertices for c in comps] == [3, 2, 1]
    assert not u.is_connected()
    assert complete_graph(3).is_connected()
    assert empty_graph(0).is_connected()


@given(small_graphs())
def test_components_partition_vertices(g):
    comps = g.connected_components()
    seen = [v for c in comps for v in c.vertices]
    assert sorted(seen) == sorted(g.vertices)
    assert sum(c.num_edges for c in comps) == g.num_edges


# -- canonical forms ------------------------------------------------------------


def test_canonical_form_detects_isomorphic_relabelings():
    g = path_graph(4)
    h = Graph(["w", "x", "y", "z"], [("x", "w"), ("w", "y"), ("y", "z")])
    assert canonical_form(g) == canonical_form(h)
    assert canonical_form(g) != canonical_form(complete_graph(4))


def test_canonical_form_caps_out():
    assert canonical_form(complete_graph(9)) is None


def test_graph_counts_up_to_isomorphism():
    # classic sequence: 1, 2, 4, 11, 34 graphs on 1..5 vertices
    want = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for k, expected in want.items():
        labels = [f"v{i}" for i in range(1, k + 1)]
        pairs = list(combinations(labels, 2))
        forms = set()
        for mask in range(1 << len(pairs)):
            g = Graph(labels, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            forms.add(canonical_form(g))
        assert len(forms) == expected


def test_component_summary():
    a = disjoint_union([complete_graph(2), complete_graph(2), empty_graph(1)])
    b = disjoint_union([empty_graph(1), complete_graph(2), complete_graph(2)])
    assert ComponentSummary.of(a) == ComponentSummary.of(b)
    assert ComponentSummary.of(a) != ComponentSummary.of(complete_graph(5))
    assert "2 x (2v,1e)" in ComponentSummary.of(a).describe()


# -- isomorphism -----------------------------------------------------------------


def test_find_isomorphism_on_relabeling():
    g = complete_graph(4)
    h = g.relabel({"v1": "a", "v2": "b", "v3": "c", "v4": "d"})
    res = find_isomorphism(g, h)
    assert res.status == "isomorphic"
    assert verify_mapping(g, h, res.witness)


def test_find_isomorphism_rejects_different_structure():
    assert find_isomorphism(path_graph(3), complete_graph(3)).status == "not_isomorphic"
    # same degree sequence, different structure: C6 vs 2C3
    c6 = Graph(
        [f"u{i}" for i in range(6)],
        [(f"u{i}", f"u{(i + 1) % 6}") for i in range(6)],
    )
    two_c3 = disjoint_union(
        [
            Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]),
            Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")]),
        ]
    )
    assert find_isomorphism(c6, two_c3).status == "not_isomorphic"


def test_find_isomorphism_budget_exhaustion():
    g = complete_graph(8)
    h = g.relabel({f"v{i}": f"w{i}" for i in range(1, 9)})
    res = find_isomorphism(g, h, budget=3)
    assert res.status == "inconclusive"
    assert res.nodes_expanded > 3


def test_searcher_never_returns_an_unverified_witness(monkeypatch):
    # an explicit check, not an assert that python -O would strip
    monkeypatch.setattr("cleangraphs.graph.verify_mapping", lambda g, h, witness: False)
    g = complete_graph(4)
    h = g.relabel({"v1": "a", "v2": "b", "v3": "c", "v4": "d"})
    with pytest.raises(RuntimeError, match="not an isomorphism"):
        find_isomorphism(g, h)


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_searcher_finds_witness_for_any_relabeling(g, rng):
    names = [f"w{i}" for i in range(g.num_vertices)]
    rng.shuffle(names)
    mapping = dict(zip(g.vertices, names))
    h = g.relabel(mapping) if g.num_vertices else Graph()
    res = find_isomorphism(g, h)
    assert res.status == "isomorphic"
    assert verify_mapping(g, h, res.witness)


# truncated tetrahedron: cubic on 12 vertices, so degrees alone split nothing
TRUNCATED_TETRAHEDRON = [
    (1, 2), (1, 3), (2, 3), (1, 4), (2, 7), (3, 10), (4, 5), (4, 6), (5, 6),
    (5, 8), (6, 11), (7, 8), (7, 9), (8, 9), (9, 12), (10, 11), (10, 12), (11, 12),
]
SHUFFLED = [7, 12, 3, 10, 1, 5, 9, 2, 11, 6, 4, 8]
PERMUTED = {1: 9, 2: 4, 3: 11, 4: 1, 5: 12, 6: 7, 7: 2, 8: 10, 9: 6, 10: 3, 11: 8, 12: 5}


def _truncated_tetrahedra():
    """Two labellings of the truncated tetrahedron: v1..v12 added in a
    shuffled order (so label order, insertion order and numeric order all
    differ), and a relabelled copy added in order."""
    g = Graph([f"v{i}" for i in SHUFFLED], [(f"v{a}", f"v{b}") for a, b in TRUNCATED_TETRAHEDRON])
    h = Graph(
        [f"v{i}" for i in range(1, 13)],
        [(f"v{PERMUTED[a]}", f"v{PERMUTED[b]}") for a, b in TRUNCATED_TETRAHEDRON],
    )
    return g, h


def test_searcher_result_is_pinned_on_shuffled_labels():
    # captured before vertices were stored by index; the search order and
    # the candidate order break ties by label, never by insertion order
    g, h = _truncated_tetrahedra()
    res = find_isomorphism(g, h)
    assert res.nodes_expanded == 43
    assert res.witness.pairs == (
        ("v1", "v1"), ("v10", "v8"), ("v11", "v3"), ("v12", "v5"), ("v2", "v12"),
        ("v3", "v7"), ("v4", "v9"), ("v5", "v4"), ("v6", "v11"), ("v7", "v10"),
        ("v8", "v2"), ("v9", "v6"),
    )
    res = find_isomorphism(h, g)
    assert res.nodes_expanded == 48
    assert res.witness.pairs == (
        ("v1", "v1"), ("v10", "v7"), ("v11", "v6"), ("v12", "v2"), ("v2", "v8"),
        ("v3", "v11"), ("v4", "v5"), ("v5", "v12"), ("v6", "v9"), ("v7", "v3"),
        ("v8", "v10"), ("v9", "v4"),
    )


def test_searcher_result_is_pinned_on_pair_labels():
    # cl2(Z_22) stores "(1,3)" before "(1,13)" but sorts it after; the
    # witness sends (e, u) to copy[u] of the idempotent e (hub for e = 1)
    left = cl2(22)
    ring = factorize(22)
    part = ring.unit_partition()
    right = build_shu(idempotent_graph(ring), part.t, part.k)
    res = find_isomorphism(left, right)
    assert res.nodes_expanded == 73
    copy = {1: 1, 3: 9, 5: 6, 7: 8, 9: 7, 13: 10, 15: 4, 17: 3, 19: 5, 21: 2}
    images = {1: "z", 11: "11", 12: "12"}
    assert res.witness.pairs == tuple(
        sorted((f"({e},{u})", f"{images[e]}@{i}") for e in images for u, i in copy.items())
    )


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_insertion_order_does_not_reach_the_searcher(g, rng):
    shuffled = list(g.vertices)
    rng.shuffle(shuffled)
    same = Graph(shuffled, g.edges())
    names = [f"w{i}" for i in range(g.num_vertices)]
    rng.shuffle(names)
    h = g.relabel(dict(zip(g.vertices, names)))
    assert find_isomorphism(same, h) == find_isomorphism(g, h)


def test_verify_mapping_rejects_bad_maps():
    g = path_graph(3)
    h = path_graph(3)
    assert verify_mapping(g, h, {"v1": "v1", "v2": "v2", "v3": "v3"})
    # middle vertex sent to an endpoint
    assert not verify_mapping(g, h, {"v1": "v2", "v2": "v1", "v3": "v3"})
    assert not verify_mapping(g, h, {"v1": "v1", "v2": "v2"})
    assert not verify_mapping(g, h, {"v1": "v1", "v2": "v1", "v3": "v3"})
    assert not verify_mapping(g, complete_graph(3), {"v1": "v1", "v2": "v2", "v3": "v3"})


def test_witness_round_trip():
    w = IsoWitness.from_dict({"b": "y", "a": "x"})
    assert w.pairs == (("a", "x"), ("b", "y"))
    assert w.as_dict() == {"a": "x", "b": "y"}


# -- serialization ----------------------------------------------------------------


def fixture_graph():
    return Graph(["b", "a", "c"], [("a", "b"), ("b", "c")])


def test_export_dot():
    text = export(fixture_graph(), "dot")
    assert text == (
        'graph {\n  "b";\n  "a";\n  "c";\n'
        '  "a" -- "b";\n  "b" -- "c";\n}\n'
    )


def test_export_json():
    doc = json.loads(export(fixture_graph(), "json"))
    assert doc == {"vertices": ["b", "a", "c"], "edges": [["a", "b"], ["b", "c"]]}


def test_export_edgelist_and_parse():
    text = export(fixture_graph(), "edgelist")
    assert text.splitlines()[0] == "# 3 vertices, 2 edges"
    back = parse_edgelist(text)
    assert back == fixture_graph()
    assert back.vertices == fixture_graph().vertices


def test_export_incidence():
    lines = export(fixture_graph(), "incidence").splitlines()
    assert lines[0] == "vertex,a--b,b--c"
    assert lines[1] == "b,1,1"
    assert lines[2] == "a,1,0"
    assert lines[3] == "c,0,1"


def test_export_rejects_unknown_format_and_bad_labels():
    with pytest.raises(ValueError):
        export(fixture_graph(), "gml")
    with pytest.raises(ValueError):
        export(Graph(["a b"]), "dot")
    # a trailing backslash would escape the closing quote in DOT, and an
    # empty label writes a "v " line that parse_edgelist cannot read
    for bad in ("a\\", ""):
        for fmt in ("dot", "edgelist"):
            with pytest.raises(ValueError):
                export(Graph([bad]), fmt)


def test_parse_edgelist_handles_comments_and_implicit_vertices():
    g = parse_edgelist("# header\n\ne x y\nv lonely\n")
    assert set(g.vertices) == {"x", "y", "lonely"}
    assert g.num_edges == 1
    with pytest.raises(ValueError):
        parse_edgelist("edge x y\n")


@given(small_graphs())
def test_edgelist_round_trip(g):
    assert parse_edgelist(export(g, "edgelist")) == g
