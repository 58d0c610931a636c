"""Shuriken graph and shuriken operation tests."""

import hashlib
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from cleangraphs.cleangraph import idempotent_graph
from cleangraphs.graph import Graph, complete_graph, export
from cleangraphs.shuriken import build_sh, build_shu, copy_label, is_null

from graph_helpers import empty_graph, path_graph

# valid standalone parameters: t a power of two dividing n, n - t even
SH_PARAMS = [(1, 1), (1, 3), (1, 5), (1, 7), (2, 2), (2, 4), (2, 6), (2, 8), (4, 4), (4, 8), (8, 8)]


def sh_edge_count(t, n):
    return n * n + 2 * t + 2 * (n - t) + 3 * (n - t) // 2


def test_sh_2_6_shape():
    g = build_sh(2, 6)
    assert g.num_vertices == 18
    assert g.num_edges == sh_edge_count(2, 6) == 54
    # straight spokes at i <= t, crossed above
    assert "c1" in g.neighbors("a1") and "c2" in g.neighbors("b2")
    assert "c6" in g.neighbors("a3") and "c3" in g.neighbors("b6")
    assert "c3" not in g.neighbors("a3")
    # mirror matchings pair 3-6 and 4-5
    assert "a6" in g.neighbors("a3") and "b5" in g.neighbors("b4")
    assert "c6" in g.neighbors("c3")
    assert "a2" not in g.neighbors("a1")


def literal_sh(t: int, n: int) -> Graph:
    """Reference builder: the core, spokes and matchings linked one edge
    at a time."""
    g = Graph()
    # a[i], b[i], c[i]: the vertex indices of a_i, b_i, c_i
    a, b, c = ({i: g.add_vertex(f"{row}{i}") for i in range(1, n + 1)} for row in "abc")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            g.link(a[i], b[j])
    for i in range(1, t + 1):
        g.link(a[i], c[i])
        g.link(b[i], c[i])
    for i in range(t + 1, n + 1):
        m = n + t + 1 - i
        g.link(a[i], c[m])
        g.link(b[i], c[m])
    for i in range(t + 1, (n + t) // 2 + 1):
        m = n + t + 1 - i
        g.link(a[i], a[m])
        g.link(b[i], b[m])
        g.link(c[i], c[m])
    return g


# every valid (t, n) with n <= 64
ALL_SH_PARAMS = [
    (t, n)
    for t in (1, 2, 4, 8, 16, 32, 64)
    for n in range(t, 65, t)
    if (n - t) % 2 == 0
]


@pytest.mark.parametrize("t,n", ALL_SH_PARAMS)
def test_sh_matches_literal_builder(t, n):
    g, want = build_sh(t, n), literal_sh(t, n)
    assert g.labels == want.labels
    assert g.index == want.index
    assert g.adj == want.adj


def test_sh_minimal_is_triangle():
    g = build_sh(1, 1)
    assert g.num_vertices == 3
    assert g.num_edges == 3


@pytest.mark.parametrize("t,n", SH_PARAMS)
def test_sh_edge_counts(t, n):
    g = build_sh(t, n)
    assert g.num_vertices == 3 * n
    assert g.num_edges == sh_edge_count(t, n)


@pytest.mark.parametrize(
    "t,n", [(3, 6), (0, 4), (-2, 4), (2, 5), (4, 2), (2, 7), (1, 4)]
)
def test_sh_rejects_bad_parameters(t, n):
    with pytest.raises(ValueError):
        build_sh(t, n)


def test_sh_degrees():
    t, n = 2, 6
    g = build_sh(t, n)
    for i in range(1, n + 1):
        want = n + 1 if i <= t else n + 2
        assert len(g.neighbors(f"a{i}")) == want
        assert len(g.neighbors(f"b{i}")) == want
        assert len(g.neighbors(f"c{i}")) == (2 if i <= t else 3)


def test_shu_of_p3():
    g = build_shu(path_graph(3), 2, 4)
    assert g.num_vertices == 16
    assert g.num_edges == 52
    # lifted edges reach across all copy pairs
    assert "v2@3" in g.neighbors("v1@1")
    assert "v3@3" not in g.neighbors("v1@1")
    # first two copies are cliques including the hub
    assert "v3@2" in g.neighbors("v1@2") and "v3@1" in g.neighbors("z@1")
    # copies 3 and 4 are completely joined
    assert "v1@4" in g.neighbors("v1@3") and "z@4" in g.neighbors("z@3")
    assert "v1@3" not in g.neighbors("z@3")


def test_shu_of_null_graph_splits():
    g = build_shu(empty_graph(2), 2, 4)
    comps = g.connected_components()
    # two clique copies and one joined pair
    assert sorted(c.num_vertices for c in comps) == [3, 3, 6]


def test_shu_on_zero_vertex_graph_gives_hub_skeleton():
    g = build_shu(empty_graph(0), 2, 4)
    assert g.num_vertices == 4
    assert sorted(c.num_vertices for c in g.connected_components()) == [1, 1, 2]


def test_shu_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_shu(path_graph(2), 2, 5)
    with pytest.raises(ValueError):
        build_shu(path_graph(2), 0, 2)
    with pytest.raises(ValueError):
        build_shu(path_graph(2), 4, 2)


def test_shu_rejects_reserved_label():
    from cleangraphs.graph import Graph

    with pytest.raises(ValueError):
        build_shu(Graph(["z", "w"], [("z", "w")]), 2, 2)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_shu_vertex_count_and_degrees(t, extra, k):
    n = t + 2 * extra
    g = complete_graph(k)
    shu = build_shu(g, t, n)
    assert shu.num_vertices == n * (k + 1)
    # a completed copy's hub sees its copy; a copy vertex also sees its
    # lifted columns, which subsume the in-copy clique edges
    if k and t >= 1:
        assert len(shu.neighbors("z@1")) == k
        assert len(shu.neighbors("v1@1")) == n * (k - 1) + 1


def literal_shu(g: Graph, t: int, n: int) -> Graph:
    """Reference builder: each lifted edge, clique and join linked one pair
    at a time."""
    full = g.labels + ["z"]
    out = Graph()
    # at[i][x]: the vertex index of full[x] in copy i
    at = {i: [out.add_vertex(copy_label(v, i)) for v in full] for i in range(1, n + 1)}
    for x in range(len(g.labels)):
        for y in range(x + 1, len(g.labels)):
            if g.adj[x] >> y & 1:
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        out.link(at[i][x], at[j][y])
    for i in range(1, t + 1):
        for x in range(len(full)):
            for y in range(x + 1, len(full)):
                out.link(at[i][x], at[i][y])
    for i in range(t + 1, (n + t) // 2 + 1):
        m = n + t + 1 - i
        for x in at[i]:
            for y in at[m]:
                out.link(x, y)
    return out


@st.composite
def small_graphs(draw) -> Graph:
    k = draw(st.integers(min_value=0, max_value=7))
    labels = [f"v{i}" for i in range(1, k + 1)]
    pairs = list(combinations(labels, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph(labels, chosen)


@given(small_graphs(), st.integers(min_value=1, max_value=3), st.sampled_from([0, 2, 4]))
@settings(max_examples=150, deadline=None)
def test_shu_matches_literal_builder(g, t, extra):
    # extra = n - t: 0 gives t = n, and t = 1 is drawn too
    n = t + extra
    shu, want = build_shu(g, t, n), literal_shu(g, t, n)
    assert shu.labels == want.labels
    assert shu.adj == want.adj


def test_shu_of_idempotent_graph_edgelist_digest():
    # Shu(t=8, n=48) of I(Z_210): the right-hand side of the master
    # isomorphism at n = 210
    text = export(build_shu(idempotent_graph(210), 8, 48), "edgelist")
    digest = "67a2eaa5ae355d7f04b50b4e78eac1f6526e972cea0a33e3b5de5f4ed19cb96b"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_is_null():
    assert is_null(empty_graph(3))
    assert is_null(empty_graph(0))
    assert not is_null(path_graph(2))
