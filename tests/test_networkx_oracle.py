"""The searcher, the graph reads and the component split against
networkx as an independent reference (VF2++: Juttner & Madarasi,
Discrete Applied Mathematics, 2018).  Test-only: skipped where networkx
is missing."""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cleangraphs.graph import Graph, _joint_refinement, find_isomorphism, verify_mapping

from graph_helpers import disjoint_union, relabel

nx = pytest.importorskip("networkx")


def to_nx(g: Graph):
    out = nx.Graph()
    out.add_nodes_from(g.vertices)
    out.add_edges_from(g.edges())
    return out


@st.composite
def graphs(draw, k, prefix):
    labels = [f"{prefix}{i}" for i in range(1, k + 1)]
    pairs = list(combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(draw(st.permutations(labels)), chosen)


@st.composite
def graph_pairs(draw, max_vertices=7):
    """Two graphs on the same number of vertices: either independent, or
    the second a relabelled, reordered copy of the first."""
    # from one vertex up: vf2pp_is_isomorphic calls two empty graphs non-isomorphic
    k = draw(st.integers(min_value=1, max_value=max_vertices))
    g = draw(graphs(k, "v"))
    if draw(st.booleans()):
        return g, draw(graphs(k, "w"))
    names = draw(st.permutations([f"w{i}" for i in range(1, k + 1)]))
    h = relabel(g, dict(zip(g.vertices, names)))
    return g, Graph(draw(st.permutations(list(h.vertices))), h.edges())


def cycle(labels):
    return Graph(labels, [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))])


def c6_and_two_triangles():
    return cycle(["u0", "u1", "u2", "u3", "u4", "u5"]), disjoint_union([cycle(["a", "b", "c"])] * 2)


@given(graph_pairs())
@settings(max_examples=150, deadline=None)
def test_searcher_verdict_matches_vf2pp(pair):
    g, h = pair
    res = find_isomorphism(g, h)
    assert res.status != "inconclusive"
    assert (res.status == "isomorphic") == nx.vf2pp_is_isomorphic(to_nx(g), to_nx(h))
    if res.witness is not None:
        assert verify_mapping(g, h, res.witness)


@given(graphs(8, "v"))
@settings(max_examples=100, deadline=None)
def test_components_match_networkx(g):
    ours = {frozenset(c.vertices) for c in g.connected_components()}
    assert ours == {frozenset(c) for c in nx.connected_components(to_nx(g))}
    assert g.is_connected() == (g.num_vertices == 0 or nx.is_connected(to_nx(g)))


@st.composite
def labelled_specs(draw, max_vertices=12):
    """Distinct labels in a shuffled order and a set of edges between them:
    the label order, the index order and the edge order all differ."""
    k = draw(st.integers(min_value=0, max_value=max_vertices))
    names = st.text(alphabet="abxyz019", min_size=1, max_size=3)
    labels = draw(st.lists(names, min_size=k, max_size=k, unique=True))
    pairs = list(combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return draw(st.permutations(labels)), [tuple(draw(st.permutations(e))) for e in chosen]


@given(labelled_specs())
@settings(max_examples=200, deadline=None)
def test_graph_reads_match_networkx(spec):
    labels, edges = spec
    g = Graph(labels, edges)
    ref = nx.Graph()
    ref.add_nodes_from(labels)
    ref.add_edges_from(edges)
    assert g.degrees() == [ref.degree(v) for v in labels]
    for v in labels:
        assert len(g.neighbors(v)) == ref.degree(v)
        assert g.neighbors(v) == frozenset(ref.neighbors(v))
    assert g.num_edges == ref.number_of_edges()
    assert g.edges() == tuple(sorted(tuple(sorted(e)) for e in ref.edges()))
    # components largest first, ties by their labels in index order
    in_index_order = [tuple(sorted(c, key=labels.index)) for c in nx.connected_components(ref)]
    in_index_order.sort(key=lambda c: (-len(c), c))
    comps = g.connected_components()
    assert [c.vertices for c in comps] == in_index_order
    for c in comps:
        want = ref.subgraph(c.vertices).edges()
        assert c.edges() == tuple(sorted(tuple(sorted(e)) for e in want))
    assert g.is_connected() == (not labels or nx.is_connected(ref))


def test_refinement_blind_pair_is_decided_correctly():
    # both 2-regular on 6 vertices: colour refinement leaves one class
    c6, two_c3 = c6_and_two_triangles()
    assert not nx.vf2pp_is_isomorphic(to_nx(c6), to_nx(two_c3))
    assert find_isomorphism(c6, two_c3).status == "not_isomorphic"


def test_refinement_blind_pair_with_tiny_budget_is_inconclusive():
    c6, two_c3 = c6_and_two_triangles()
    res = find_isomorphism(c6, two_c3, budget=1)
    assert res.status == "inconclusive"
    assert res.witness is None


def cfi_graph(base_edges, twisted):
    """The Cai-Fuerer-Immerman graph over a base graph (Cai, Fuerer &
    Immerman, Combinatorica 1992).  Each base vertex v becomes a gadget:
    two ends a(v,e,0), a(v,e,1) per incident edge e and one middle vertex
    per even-sized set S of incident edges, joined to a(v,e,1) for e in S
    and to a(v,e,0) otherwise.  Each base edge joins the matching ends of
    its two gadgets; the twisted graph crosses them on the first edge."""
    def end(v, e, bit):
        return f"a{v}:{e[0]}{e[1]}:{bit}"

    labels, edges = [], []
    for v in sorted({v for e in base_edges for v in e}):
        incident = [e for e in base_edges if v in e]
        labels += [end(v, e, bit) for e in incident for bit in (0, 1)]
        for size in range(0, len(incident) + 1, 2):
            for chosen in combinations(incident, size):
                middle = f"m{v}:" + ",".join(f"{a}{b}" for a, b in chosen)
                labels.append(middle)
                edges += [(middle, end(v, e, int(e in chosen))) for e in incident]
    for i, e in enumerate(base_edges):
        flip = int(twisted and i == 0)
        edges += [(end(e[0], e, bit), end(e[1], e, bit ^ flip)) for bit in (0, 1)]
    return Graph(labels, edges)


def cfi_pair_over_k4():
    k4 = list(combinations(range(4), 2))
    return cfi_graph(k4, twisted=False), cfi_graph(k4, twisted=True)


def test_cfi_pair_is_blind_to_refinement_and_decided_correctly():
    g, h = cfi_pair_over_k4()
    assert (g.num_vertices, g.num_edges) == (h.num_vertices, h.num_edges) == (40, 60)
    # 3-regular, and colour refinement leaves both graphs one class
    cg, ch = _joint_refinement(g, h)
    assert set(cg) == set(ch) and len(set(cg)) == 1
    assert not nx.vf2pp_is_isomorphic(to_nx(g), to_nx(h))
    assert find_isomorphism(g, h).status == "not_isomorphic"


def test_cfi_pair_with_tiny_budget_is_inconclusive():
    g, h = cfi_pair_over_k4()
    res = find_isomorphism(g, h, budget=10)
    assert res.status == "inconclusive"
    assert res.witness is None


def test_cfi_graph_is_isomorphic_to_a_relabelled_copy():
    g, _ = cfi_pair_over_k4()
    names = {v: f"w{i}" for i, v in enumerate(reversed(g.vertices))}
    copy = relabel(g, names)
    copy = Graph(sorted(copy.vertices), copy.edges())
    res = find_isomorphism(g, copy)
    assert res.status == "isomorphic"
    assert verify_mapping(g, copy, res.witness)

