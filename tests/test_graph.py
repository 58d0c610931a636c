"""Graph toolkit tests: structure, components, isomorphism search,
serialization."""

import csv
import io
import json
import random
from collections import Counter
from itertools import combinations
from typing import Iterable

import pytest
from hypothesis import example, given, settings, strategies as st

from cleangraphs import graph as graph_module, verify as verify_module
from cleangraphs.cleangraph import cl1, cl2, cl2_pairs, clean_graph, idempotent_graph, pair_label
from cleangraphs.graph import (
    DEFAULT_SEARCH_BUDGET,
    EXPORT_FORMATS,
    Graph,
    IsoResult,
    IsoWitness,
    _joint_refinement,
    _renumbered,
    _row_of,
    _search_order,
    _select,
    complete_graph,
    export,
    find_isomorphism,
    parse_edgelist,
    verify_mapping,
)
from cleangraphs.modring import factorize
from cleangraphs.shuriken import build_sh, build_shu, copy_index, copy_label
from cleangraphs.verify import verify_degree_formula, verify_general

from graph_helpers import (
    circulant_graph,
    disjoint_union,
    empty_graph,
    graph_types,
    ladder_graph,
    path_graph,
    random_connected_graph,
    relabel,
)


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
    assert "a" in g.neighbors("b")
    assert len(g.neighbors("a")) == 1
    assert g.num_edges == 1


def test_repeated_labels_keep_their_first_position():
    g = Graph(["b", "a", "b", "c", "a"], [("c", "d")])
    assert g.labels == ["b", "a", "c", "d"]
    assert g.index == {"b": 0, "a": 1, "c": 2, "d": 3}
    assert g.adj == [0, 0, 1 << 3, 1 << 2]


def test_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph([], [("x", "x")])


def test_rejects_non_string_labels():
    with pytest.raises(TypeError):
        Graph([3])
    with pytest.raises(TypeError):
        Graph(["a", "b", 3])


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
    assert sum(len(g.neighbors(v)) for v in g.vertices) == 2 * g.num_edges


# -- labels built on first read -------------------------------------------------------


def ring_labels(idempotents, units):
    return [pair_label(e, u) for e in idempotents for u in units]


def shu_labels(g: Graph, n: int):
    return [copy_label(v, i) for i in range(1, n + 1) for v in [*g.vertices, "z"]]


# builder -> (the graph, its labels in the documented order)
LABEL_RECIPES = {
    "cl2": lambda: (cl2(60), [pair_label(e, u) for e, u in cl2_pairs(60)]),
    "cl1": lambda: (cl1(60), ring_labels((0,), factorize(60).units())),
    "clean_graph": lambda: (
        clean_graph(60),
        ring_labels(factorize(60).idempotents(), factorize(60).units()),
    ),
    "idempotent_graph": lambda: (
        idempotent_graph(210),
        [str(e) for e in factorize(210).nontrivial_idempotents()],
    ),
    "build_sh": lambda: (build_sh(2, 6), [f"{r}{i}" for r in "abc" for i in range(1, 7)]),
    "build_shu": lambda: (build_shu(path_graph(3), 2, 4), shu_labels(path_graph(3), 4)),
    "complete_graph": lambda: (complete_graph(5), [f"v{i}" for i in range(1, 6)]),
    "parse_edgelist": lambda: (parse_edgelist("e b a\nv c\ne a d\n"), ["b", "a", "c", "d"]),
}


@pytest.mark.parametrize("builder", list(LABEL_RECIPES))
def test_builders_label_every_vertex_in_the_documented_order(builder):
    g, want = LABEL_RECIPES[builder]()
    assert g.labels == want
    assert len(set(want)) == g.num_vertices == len(g.adj)
    assert all(type(v) is str for v in want)
    assert g.index == {v: i for i, v in enumerate(want)}


def test_shuriken_layouts_follow_copy_index():
    base = path_graph(3)
    shu = build_shu(base, 2, 4)
    w = base.num_vertices + 1
    for i in range(1, 5):
        for x, v in enumerate([*base.vertices, "z"]):
            assert shu.index[copy_label(v, i)] == copy_index(i, x, w)
    sh = build_sh(2, 6)
    for r, row in enumerate("abc", start=1):
        for i in range(1, 7):
            assert sh.index[f"{row}{i}"] == copy_index(r, i - 1, 6)


@pytest.mark.parametrize(
    "labels,error,message",
    [
        (["a", "a"], ValueError, "2 rows for 1 distinct labels"),
        (["a"], ValueError, "2 rows for 1 distinct labels"),
        (["a", 3], TypeError, "vertex labels must be str, got int"),
    ],
    ids=["repeated", "short", "not_str"],
)
@pytest.mark.parametrize("read", ["labels", "index"])
def test_from_rows_checks_its_labels_when_they_are_first_read(labels, error, message, read):
    g = Graph.from_rows(iter(labels), [0b10, 0b01])
    # the rows serve before any label is read
    assert (g.num_vertices, g.num_edges, g.degrees()) == (2, 1, [1, 1])
    # a one-shot source fails alike when read again
    for _ in range(2):
        with pytest.raises(error, match=message):
            getattr(g, read)


def test_add_vertex_builds_the_labels_first():
    g = complete_graph(2)
    assert g.add_vertex("v3") == 2
    assert g.add_vertex("v1") == 0
    assert g.labels == ["v1", "v2", "v3"]
    with pytest.raises(TypeError):
        Graph.from_rows(["a", 3], [0, 0]).add_vertex("b")


def count_label_builds(monkeypatch) -> list[int]:
    """The vertex counts of the graphs whose labels get built from now on."""
    built: list[int] = []
    real = Graph._build_labels

    def counting(g):
        built.append(len(g.adj))
        real(g)

    monkeypatch.setattr(Graph, "_build_labels", counting)
    return built


def test_checks_build_no_labels_they_do_not_read(monkeypatch):
    built = count_label_builds(monkeypatch)
    assert verify_degree_formula(60).ok
    assert built == []
    # above the searcher's size gate the witness is checked on indices, so
    # only Shu's input, the 14-vertex idempotent graph, is ever labelled
    assert verify_general(210).ok
    assert built == [14]


# -- bitset rows against their literal reading ---------------------------------------


@st.composite
def rows(draw):
    """A width and a row of that width, from empty through sparse to full,
    so that each way of reading and building a row is drawn."""
    width = draw(st.integers(min_value=0, max_value=300))
    share = draw(st.sampled_from([0.0, 0.01, 0.03, 0.1, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return width, sum(1 << j for j in range(width) if rng.random() < share)


@given(rows())
@settings(max_examples=300, deadline=None)
def test_row_helpers_match_a_bit_by_bit_reading(spec):
    width, row = spec
    members = [j for j in range(width) if row >> j & 1]
    assert _select(row, range(width)) == members
    names = [f"x{j}" for j in range(width)]
    assert _select(row, names) == [names[j] for j in members]
    assert _row_of(members, width) == row
    # repeats and any order build the same row
    assert _row_of(members[::-1] + members[: len(members) // 2], width) == row


@st.composite
def permuted_rows(draw):
    """The rows of a graph on up to 300 vertices, from empty through
    sparse to complete, so that rows have fewer and more than FEW bits
    and fill less and more than 1/DENSE of their width; and a random
    order of the vertices."""
    k = draw(st.integers(min_value=0, max_value=300))
    share = draw(st.sampled_from([0.0, 0.01, 0.03, 0.1, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    adj = [0] * k
    for i, j in combinations(range(k), 2):
        if rng.random() < share:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    perm = list(range(k))
    rng.shuffle(perm)
    return adj, perm


@given(permuted_rows())
@example(([], []))
@example(([0], [0]))
@example(([0b10, 0b01], [1, 0]))
@settings(max_examples=100, deadline=None)
def test_renumbered_matches_a_row_by_row_relabelling(case):
    adj, perm = case
    k = len(adj)
    inverse = sorted(range(k), key=perm.__getitem__)
    assert _renumbered(adj, perm) == [_row_of(_select(adj[p], inverse), k) for p in perm]


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
    assert sorted(g.component_shapes()) == sorted((c.num_vertices, c.num_edges) for c in comps)


# -- isomorphism -----------------------------------------------------------------


def test_find_isomorphism_on_relabeling():
    g = complete_graph(4)
    h = relabel(g, {"v1": "a", "v2": "b", "v3": "c", "v4": "d"})
    res = find_isomorphism(g, h)
    assert res.status == "isomorphic"
    assert verify_mapping(g, h, res.witness)


def test_graph_counts_up_to_isomorphism():
    # classic sequence: 1, 2, 4, 11, 34 graphs on 1..5 vertices
    want = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    assert {k: len(graph_types(k)) for k in want} == want


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


@pytest.mark.parametrize(
    "g,h",
    [
        (empty_graph(2), empty_graph(3)),  # vertex counts differ
        (path_graph(3), complete_graph(3)),  # edge counts differ
        # 4 vertices and 3 edges each, degrees 2,2,1,1 against 3,1,1,1
        (path_graph(4), Graph([], [("c", "x"), ("c", "y"), ("c", "z")])),
    ],
    ids=["vertex_count", "edge_count", "degree_multiset"],
)
def test_searcher_rejects_on_invariants_without_search(g, h, monkeypatch):
    # decided from the degrees alone: no neighbour list is read
    def unread(row, values):
        raise AssertionError("a neighbour list was built")

    monkeypatch.setattr(graph_module, "_select", unread)
    assert find_isomorphism(g, h) == IsoResult("not_isomorphic", None, 0)
    assert find_isomorphism(h, g) == IsoResult("not_isomorphic", None, 0)


def test_searcher_maps_two_empty_graphs_without_search():
    assert find_isomorphism(Graph(), Graph()) == IsoResult("isomorphic", IsoWitness(()), 0)


def test_find_isomorphism_budget_exhaustion():
    g = complete_graph(8)
    h = relabel(g, {f"v{i}": f"w{i}" for i in range(1, 9)})
    # the count stops at the first node past the budget
    assert find_isomorphism(g, h, budget=3) == IsoResult("inconclusive", None, 4)


def test_searcher_never_returns_an_unverified_witness(monkeypatch):
    # an explicit check, not an assert that python -O would strip
    monkeypatch.setattr("cleangraphs.graph.verify_mapping", lambda g, h, witness: False)
    g = complete_graph(4)
    h = relabel(g, {"v1": "a", "v2": "b", "v3": "c", "v4": "d"})
    with pytest.raises(RuntimeError, match="not an isomorphism"):
        find_isomorphism(g, h)


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_searcher_finds_witness_for_any_relabeling(g, rng):
    names = [f"w{i}" for i in range(g.num_vertices)]
    rng.shuffle(names)
    mapping = dict(zip(g.vertices, names))
    h = relabel(g, mapping)
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


def _master_pair(n: int) -> tuple[Graph, Graph]:
    """cl2(Z_n) and the shuriken graph of the master statement."""
    ring = factorize(n)
    part = ring.unit_partition()
    return cl2(n), build_shu(idempotent_graph(ring), part.t, part.k)


def test_searcher_result_is_pinned_on_pair_labels():
    # cl2(Z_22) stores "(1,3)" before "(1,13)" but sorts it after; the
    # witness sends (e, u) to copy[u] of the idempotent e (hub for e = 1)
    res = find_isomorphism(*_master_pair(22))
    assert res.nodes_expanded == 73
    copy = {1: 1, 3: 9, 5: 6, 7: 8, 9: 7, 13: 10, 15: 4, 17: 3, 19: 5, 21: 2}
    images = {1: "z", 11: "11", 12: "12"}
    assert res.witness.pairs == tuple(
        sorted((f"({e},{u})", f"{images[e]}@{i}") for e in images for u, i in copy.items())
    )


def test_searcher_work_is_pinned_on_the_ladder_shuriken_pair():
    # the heaviest searcher call of the benchmark's shu workload: cubic
    # inputs, so refinement leaves the whole search to the backtracking
    left = build_shu(ladder_graph(4, "a", False), 2, 4)
    right = build_shu(ladder_graph(4, "b", True), 2, 4)
    assert find_isomorphism(left, right) == IsoResult("not_isomorphic", None, 170132)


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_insertion_order_does_not_reach_the_searcher(g, rng):
    shuffled = list(g.vertices)
    rng.shuffle(shuffled)
    same = Graph(shuffled, g.edges())
    names = [f"w{i}" for i in range(g.num_vertices)]
    rng.shuffle(names)
    h = relabel(g, dict(zip(g.vertices, names)))
    assert find_isomorphism(same, h) == find_isomorphism(g, h)


def test_verify_mapping_rejects_bad_permutations():
    g = path_graph(3)
    h = path_graph(3)
    assert verify_mapping(g, h, [0, 1, 2])
    assert verify_mapping(g, h, (2, 1, 0))
    assert not verify_mapping(g, h, [1, 0, 2])  # the middle vertex onto an end
    assert not verify_mapping(g, h, [0, 1])
    assert not verify_mapping(g, h, [0, 1, 2, 0])
    assert not verify_mapping(g, h, [0, 0, 2])
    assert not verify_mapping(g, h, [0, 1, 3])
    assert not verify_mapping(g, h, [0, -2, 2])
    # with 8 vertices, -8 read from the end is vertex 0, both among h's
    # rows and in the image's one byte: taken so, this is the identity
    p8 = path_graph(8)
    assert verify_mapping(p8, p8, range(8))
    assert not verify_mapping(p8, p8, [-8, *range(1, 8)])


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


# -- the searcher against its literal form --------------------------------------------
#
# find_isomorphism as it was before it filtered candidates by bitsets and
# counted nodes by bit counts, with the refinement and the search order as
# they were before they read class masks and buckets, kept verbatim so
# that the fast versions can be held to them: same partition, same order,
# same verdict, same witness, same node count, also when the budget cuts
# the search.


def literal_joint_refinement(g: Graph, h: Graph) -> tuple[list[int], list[int]] | None:
    """Degree-seeded color refinement run over both graphs at once.

    Returns stable colorings (by vertex index) sharing one palette, or
    None as soon as the color histograms split (which certifies
    non-isomorphism).  The degree histograms are compared before any
    neighbour list is built.
    """
    cg, ch = g.degrees(), h.degrees()
    if Counter(cg) != Counter(ch):
        return None
    everyone = range(len(cg))
    g_nbrs = [_select(row, everyone) for row in g.adj]
    h_nbrs = [_select(row, everyone) for row in h.adj]
    while True:
        palette: dict[tuple, int] = {}

        def recolor(nbrs: list[list[int]], colors: list[int]) -> list[int]:
            return [
                palette.setdefault((c, tuple(sorted([colors[w] for w in row]))), len(palette))
                for c, row in zip(colors, nbrs)
            ]

        ng, nh = recolor(g_nbrs, cg), recolor(h_nbrs, ch)
        stable = len(set(ng)) == len(set(cg))
        cg, ch = ng, nh
        if Counter(cg) != Counter(ch):
            return None
        if stable:
            return cg, ch


def literal_search_order(g: Graph, colors: list[int]) -> list[int]:
    """Vertex indices in backtracking order: stay adjacent to the mapped
    prefix, prefer rare colors and high degree, then the smaller label.

    The last three keys never change, so they are ranked once; a
    vertex's score is its rank less k for each placed neighbour, and the
    next vertex is the one with the lowest score (labels are distinct,
    so scores never tie).
    """
    class_size = Counter(colors)
    labels, k = g.labels, len(g.labels)
    degrees = g.degrees()
    score = [0] * k
    ranked = sorted(range(k), key=lambda u: (class_size[colors[u]], -degrees[u], labels[u]))
    for r, u in enumerate(ranked):
        score[u] = r
    order: list[int] = []
    remaining = set(range(k))
    while remaining:
        v = min(remaining, key=score.__getitem__)
        order.append(v)
        remaining.remove(v)
        for w in _select(g.adj[v], range(k)):
            score[w] -= k
    return order


def literal_find_isomorphism(
    g: Graph, h: Graph, budget: int = DEFAULT_SEARCH_BUDGET
) -> IsoResult:
    """Decide whether g and h are isomorphic, within a node budget.

    Pipeline: joint color refinement, whose first step compares the
    degree histograms, then color-respecting backtracking.  Exhausting
    the search space proves non-isomorphism; exceeding ``budget`` node
    expansions yields ``inconclusive`` instead of a wrong verdict.  Ties
    in the search order and among candidates are broken by label, so the
    result does not depend on the order the vertices were added in.  A
    witness is returned only once verify_mapping accepts it;
    RuntimeError otherwise.
    """
    refined = literal_joint_refinement(g, h)
    if refined is None:
        return IsoResult("not_isomorphic", None, 0)
    if g.num_vertices == 0:
        return IsoResult("isomorphic", IsoWitness(()), 0)
    cg, ch = refined

    order = literal_search_order(g, cg)
    k = len(order)
    # candidates of each color, in label order
    by_color: dict[int, list[int]] = {}
    for v in sorted(range(k), key=h.labels.__getitem__):
        by_color.setdefault(ch[v], []).append(v)
    # back[d]: the neighbours of order[d] that come before it in the order
    everyone = range(k)
    back: list[list[int]] = []
    placed = 0
    for v in order:
        back.append(_select(g.adj[v] & placed, everyone))
        placed |= 1 << v

    h_adj = h.adj
    image = [0] * k  # image[v]: the h vertex that g vertex v is mapped to
    used = 0  # the h vertices mapped onto so far, as a row
    cand_iters: list[Iterable[int]] = [iter(by_color.get(cg[order[0]], []))]
    # targets[d]: the images of back[d], as a row; the images are distinct,
    # so their sum is their union
    targets = [0]
    depth = 0
    expanded = 0

    while depth >= 0:
        target = targets[depth]
        for cand in cand_iters[depth]:
            if used >> cand & 1:
                continue
            expanded += 1
            if expanded > budget:
                return IsoResult("inconclusive", None, expanded)
            # exact consistency with the mapped prefix: the mapped vertices
            # adjacent to cand are exactly the images of the current vertex's
            # mapped neighbours, so edges and non-edges both match
            if h_adj[cand] & used != target:
                continue
            image[order[depth]] = cand
            used |= 1 << cand
            depth += 1
            if depth == k:
                witness = IsoWitness.from_dict({g.labels[v]: h.labels[image[v]] for v in range(k)})
                if not verify_mapping(g, h, witness):
                    raise RuntimeError("searcher built a witness that is not an isomorphism")
                return IsoResult("isomorphic", witness, expanded)
            cand_iters.append(iter(by_color.get(cg[order[depth]], [])))
            targets.append(sum(1 << image[w] for w in back[depth]))
            break
        else:
            cand_iters.pop()
            targets.pop()
            depth -= 1
            if depth >= 0:
                used ^= 1 << image[order[depth]]
    return IsoResult("not_isomorphic", None, expanded)



def assert_searcher_matches_literal(g: Graph, h: Graph) -> None:
    full = literal_find_isomorphism(g, h)
    assert find_isomorphism(g, h) == full
    nodes = full.nodes_expanded
    # a negative budget cuts at the first node, as a zero one does
    for budget in (-1, 0, 1, nodes - 1, nodes):
        assert find_isomorphism(g, h, budget) == literal_find_isomorphism(g, h, budget)


def shuffled(g: Graph, rng: random.Random) -> Graph:
    names = [f"w{i}" for i in range(g.num_vertices)]
    rng.shuffle(names)
    return relabel(g, dict(zip(g.vertices, names)))


@st.composite
def relabelled_pairs(draw):
    g = draw(small_graphs(max_vertices=9))
    return g, shuffled(g, draw(st.randoms(use_true_random=False)))


@st.composite
def toggled_pairs(draw):
    """One graph with a pair of vertices toggled on each side, the second
    side relabelled: the same pair twice gives isomorphic sides, two pairs
    often give equal edge counts on sides that differ."""
    g = draw(small_graphs(max_vertices=9).filter(lambda g: g.num_vertices >= 2))
    pairs = list(combinations(g.vertices, 2))
    sides = [
        Graph(g.vertices, set(g.edges()) ^ {tuple(sorted(draw(st.sampled_from(pairs))))})
        for _ in range(2)
    ]
    return sides[0], shuffled(sides[1], draw(st.randoms(use_true_random=False)))


@st.composite
def regular_pairs(draw):
    """Pairs that colour refinement cannot split: a cycle or circulant
    against a relabelled circulant with as many steps, and a prism against
    a relabelled prism or Moebius ladder."""
    rng = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        m = draw(st.integers(min_value=3, max_value=6))
        twisted = draw(st.booleans())
        return ladder_graph(m, "a", False), shuffled(ladder_graph(m, "b", twisted), rng)
    m = draw(st.integers(min_value=3, max_value=11))
    steps = range(1, m // 2 + 1)
    size = draw(st.integers(min_value=1, max_value=len(steps)))
    chosen = st.lists(st.sampled_from(steps), min_size=size, max_size=size, unique=True)
    left, right = draw(chosen), draw(chosen)
    return circulant_graph(m, left), shuffled(circulant_graph(m, right), rng)


def complement(g: Graph) -> Graph:
    edges = set(g.edges())
    return Graph(g.vertices, [e for e in combinations(sorted(g.vertices), 2) if e not in edges])


@st.composite
def dense_pairs(draw):
    """The complements of a relabelled or a toggled pair: dense sides,
    whose refinement rounds count neighbours by class masks."""
    g, h = draw(st.one_of(relabelled_pairs(), toggled_pairs()))
    return complement(g), complement(h)


searcher_pairs = st.one_of(relabelled_pairs(), toggled_pairs(), regular_pairs(), dense_pairs())


@given(searcher_pairs)
@settings(max_examples=200, deadline=None)
def test_searcher_matches_its_literal_form(pair):
    assert_searcher_matches_literal(*pair)


def joint_classes(refined):
    """A joint coloring as the set of its (g class, h class) pairs, one
    pair per color: equal for two colorings that split both graphs alike,
    whatever numbers they give the colors."""
    if refined is None:
        return None
    members: dict[int, tuple[list[int], list[int]]] = {}
    for side, colors in enumerate(refined):
        for v, c in enumerate(colors):
            members.setdefault(c, ([], []))[side].append(v)
    return {(tuple(a), tuple(b)) for a, b in members.values()}


def assert_front_end_matches_literal(g: Graph, h: Graph) -> None:
    refined, literal = _joint_refinement(g, h), literal_joint_refinement(g, h)
    assert joint_classes(refined) == joint_classes(literal)
    if refined is not None:
        assert _search_order(g, refined[0]) == literal_search_order(g, literal[0])


@given(searcher_pairs)
@settings(max_examples=300, deadline=None)
def test_front_end_matches_its_literal_form(pair):
    assert_front_end_matches_literal(*pair)


def _shu_pair(g: Graph, h: Graph, t: int = 2, n: int = 4) -> tuple[Graph, Graph]:
    """Shu(g) and Shu(h), at t = 2, n = 4 unless given."""
    return build_shu(g, t, n), build_shu(h, t, n)


PINNED_PAIRS = {
    "tetrahedra": _truncated_tetrahedra,
    "tetrahedra_reversed": lambda: _truncated_tetrahedra()[::-1],
    "cl2_22": lambda: _master_pair(22),
    "shu_k33_prism": lambda: _shu_pair(circulant_graph(6, [1, 3]), ladder_graph(3, "x", False)),
    "shu_ladders3": lambda: _shu_pair(ladder_graph(3, "a", False), ladder_graph(3, "b", True)),
    "shu_c8": lambda: _shu_pair(circulant_graph(8, [1]), shuffled(circulant_graph(8, [1]), random.Random(8))),
    # the pair that CI pins through verify shu-inheritance
    "shu_random60": lambda: _shu_pair(*random_connected_graph(1, 60, 90), 2, 6),
}


@pytest.mark.parametrize("name", list(PINNED_PAIRS))
def test_searcher_matches_its_literal_form_on_pinned_pairs(name):
    assert_searcher_matches_literal(*PINNED_PAIRS[name]())


@pytest.mark.parametrize("name", list(PINNED_PAIRS))
def test_front_end_matches_its_literal_form_on_pinned_pairs(name):
    g, h = PINNED_PAIRS[name]()
    assert_front_end_matches_literal(g, h)
    assert_front_end_matches_literal(h, g)


def round_forms(g: Graph) -> list[str]:
    """The form of each refinement round on g, read from V, the class
    count C before the round and the degree total 2E: "mask" when
    V·C <= 2E, else "list".  Rounds are counted on g alone; the joint
    refinement makes as many, unless the histograms split first."""
    colors = g.degrees()
    k, total = len(colors), sum(colors)
    nbrs = [_select(row, range(k)) for row in g.adj]
    forms = []
    while True:
        count = len(set(colors))
        forms.append("mask" if k * count <= total else "list")
        palette: dict[tuple, int] = {}
        colors = [
            palette.setdefault((c, tuple(sorted(colors[w] for w in row))), len(palette))
            for c, row in zip(colors, nbrs)
        ]
        if len(palette) == count:
            return forms


def test_front_end_inputs_take_both_round_forms():
    # both forms are exact, so the oracle tests above pass whichever form
    # a round takes; this shows that their inputs take both
    forms = {name: round_forms(make()[0]) for name, make in PINNED_PAIRS.items()}
    # regular sides are one class, so V·C <= 2E in their only round
    assert all(forms[name] == ["mask"] for name in PINNED_PAIRS if name != "shu_random60")
    # one call with a mask round and then sparse rounds
    assert forms["shu_random60"] == ["mask", "list", "list"]
    # the drawn pairs hold sparse sides and their complements
    assert set(round_forms(path_graph(9))) == {"list"}
    assert set(round_forms(complement(path_graph(9)))) == {"mask"}


# -- the witness check against its literal form --------------------------------------
#
# verify_mapping as it was before it mapped rows by their difference with
# the previous row, kept verbatim so that the fast version can be held to it.


def literal_verify_mapping(g: Graph, h: Graph, mapping) -> bool:
    if isinstance(mapping, IsoWitness):
        mapping = mapping.as_dict()
    k = g.num_vertices
    if len(mapping) != k or h.num_vertices != k or g.num_edges != h.num_edges:
        return False
    perm = [0] * k
    for a, b in mapping.items():
        i, j = g.index.get(a), h.index.get(b)
        if i is None or j is None:
            return False
        perm[i] = j
    if len(set(perm)) != k:
        return False
    return all(
        _row_of(_select(row, perm), k) == target
        for row, target in zip(g.adj, map(h.adj.__getitem__, perm))
    )


@st.composite
def relabellings(draw):
    """A graph, a relabelled copy stored in another vertex order, the
    relabelling, two of the graph's vertices and two pairs of copy labels.
    The graphs run from sparse to dense, so that rows are mapped both
    whole and by their difference with the previous row."""
    k = draw(st.integers(min_value=2, max_value=40))
    share = draw(st.sampled_from([0.1, 0.5, 0.9]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    labels = [f"v{i}" for i in range(k)]
    g = Graph(labels, [e for e in combinations(labels, 2) if rng.random() < share])
    names = [f"w{i}" for i in range(k)]
    rng.shuffle(names)
    mapping = dict(zip(labels, names))
    copy = relabel(g, mapping)
    h = Graph(rng.sample(names, k), copy.edges())
    a, b = rng.sample(labels, 2)
    return g, h, mapping, (a, b), rng.sample(names, 2), rng.sample(names, 2)


def toggled(h: Graph, *pairs) -> Graph:
    """h with each of the label pairs turned from an edge into a non-edge
    or back."""
    edges = set(h.edges())
    for pair in pairs:
        edges ^= {tuple(sorted(pair))}
    return Graph(h.vertices, edges)


def as_permutation(g: Graph, h: Graph, mapping) -> list[int]:
    """The label map as vertex indices: vertex i of g goes to entry i."""
    return [h.index[mapping[v]] for v in g.labels]


@given(relabellings())
@settings(max_examples=300, deadline=None)
def test_verify_mapping_agrees_with_its_literal_form(case):
    g, h, mapping, (a, b), one, other = case
    swapped = {**mapping, a: mapping[b], b: mapping[a]}
    clash = {**mapping, a: mapping[b]}  # two vertices onto one, one target missed
    # one edge toggled changes the edge count, two may keep it
    checks = [
        (h, mapping),
        (h, swapped),
        (toggled(h, one), mapping),
        (toggled(h, one, other), mapping),
        (h, clash),
    ]
    for target, m in checks:
        want = literal_verify_mapping(g, target, m)
        assert verify_mapping(g, target, m) == want
        assert verify_mapping(g, target, as_permutation(g, target, m)) == want
    assert verify_mapping(g, h, mapping)
    assert not verify_mapping(g, toggled(h, one), mapping)
    assert not verify_mapping(g, h, clash)


def general_witness(n: int, monkeypatch) -> tuple[Graph, Graph, dict[str, str]]:
    """cl2(n), the Shu graph and the witness that verify_general checks,
    translated from the index permutation it is built as to labels."""
    seen = []
    monkeypatch.setattr(graph_module, "verify_mapping", lambda *args: seen.append(args))
    verify_general(n)
    monkeypatch.undo()
    ((g, h, perm),) = seen
    return g, h, {g.labels[i]: h.labels[j] for i, j in enumerate(perm)}


@pytest.mark.parametrize("n", [30, 60, 210, 380])
def test_verify_mapping_on_general_witnesses(n, monkeypatch):
    g, h, mapping = general_witness(n, monkeypatch)
    assert verify_mapping(g, h, mapping)
    assert literal_verify_mapping(g, h, mapping)
    # unless a and b are twins, swapping their targets spoils the rows of
    # a, b and of every vertex adjacent to one of them only, so the first
    # spoiled row is the lowest bit of spoiled(a, b); among the first
    # vertices of the idempotent blocks, take the pair that spoils nothing
    # before the latest row
    width = len(factorize(n).units())
    starts = range(0, g.num_vertices, width)

    def spoiled(a, b):
        return g.adj[a] ^ g.adj[b] | 1 << a | 1 << b

    def first(row):
        return (row & -row).bit_length() - 1

    a, b = max(combinations(starts, 2), key=lambda ab: first(spoiled(*ab)))
    assert first(spoiled(a, b)) >= g.num_vertices // 4
    la, lb = g.labels[a], g.labels[b]
    swapped = {**mapping, la: mapping[lb], lb: mapping[la]}
    assert not verify_mapping(g, h, swapped)
    assert not verify_mapping(g, h, as_permutation(g, h, swapped))
    assert not literal_verify_mapping(g, h, swapped)


def test_verify_mapping_maps_row_differences(monkeypatch):
    # consecutive rows of cl2(380) mostly differ in one column, so the
    # check maps a small share of the bits it would map row by row
    g, h, mapping = general_witness(380, monkeypatch)
    mapped = []

    def counting(row, values):
        mapped.append(row.bit_count())
        return _select(row, values)

    monkeypatch.setattr(graph_module, "_select", counting)
    assert verify_mapping(g, h, mapping)
    assert sum(mapped) * 10 < 2 * g.num_edges


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


def test_parse_edgelist_errors_name_the_fault():
    with pytest.raises(ValueError, match=r"^self-loop at 'a' not allowed$"):
        parse_edgelist("v a\ne a a\n")
    with pytest.raises(ValueError, match=r"^line 4: cannot parse 'e x y z'$"):
        parse_edgelist("# header\nv x\n\ne x y z\n")


@given(small_graphs())
def test_edgelist_round_trip(g):
    assert parse_edgelist(export(g, "edgelist")) == g


# -- the I/O boundary against its literal form --------------------------------------
#
# The edge walk, the four writers and the parser as they were before the
# row-at-a-time rewrite, kept verbatim (edges() and _check_exportable
# inlined as functions) so that the fast versions can be held to them.


def literal_edges(g: Graph) -> tuple[tuple[str, str], ...]:
    labels = g.labels
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    rank = sorted(range(len(labels)), key=by_label.__getitem__)  # inverse of by_label
    k = len(labels)
    return tuple(
        (labels[i], labels[by_label[s]])
        for r, i in enumerate(by_label)
        for s in sorted(rank[j] for j in range(k) if rank[j] > r and g.adj[i] >> j & 1)
    )


def literal_check_exportable(g: Graph) -> None:
    for v in g.labels:
        if not v:
            raise ValueError("empty vertex label")
        if v.endswith("\\"):
            raise ValueError(f"label {v!r} ends in a backslash")
        if any(ch.isspace() for ch in v) or '"' in v:
            raise ValueError(f"label {v!r} contains whitespace or quotes")


def literal_export(g: Graph, fmt: str) -> str:
    literal_check_exportable(g)
    if fmt == "dot":
        lines = ["graph {"]
        lines += [f'  "{v}";' for v in g.vertices]
        lines += [f'  "{a}" -- "{b}";' for a, b in literal_edges(g)]
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        doc = {
            "vertices": list(g.vertices),
            "edges": [list(e) for e in literal_edges(g)],
        }
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "edgelist":
        lines = [f"# {g.num_vertices} vertices, {g.num_edges} edges"]
        lines += [f"v {v}" for v in g.vertices]
        lines += [f"e {a} {b}" for a, b in literal_edges(g)]
        return "\n".join(lines) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    es = literal_edges(g)
    writer.writerow(["vertex"] + [f"{a}--{b}" for a, b in es])
    for v in g.vertices:
        writer.writerow([v] + [1 if v in e else 0 for e in es])
    return buf.getvalue()


def literal_parse_edgelist(text: str) -> Graph:
    g = Graph()
    index = g.index
    for ln, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if fields[0] == "e" and len(fields) == 3:
            _, a, b = fields
            if a == b:
                raise ValueError(f"self-loop at {a!r} not allowed")
            i = index.get(a)
            if i is None:
                i = g.add_vertex(a)
            j = index.get(b)
            if j is None:
                j = g.add_vertex(b)
            g.link(i, j)
        elif fields[0] == "v" and len(fields) == 2:
            g.add_vertex(fields[1])
        else:
            raise ValueError(f"line {ln}: cannot parse {raw!r}")
    return g


def outcome(f, *args):
    """What f returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


# labels the boundary must get right: the line keywords, comment marks,
# csv and JSON metacharacters, non-ASCII and control characters
AWKWARD_LABELS = ["e", "v", "#", "#e", "a,b", "x\\y", "\\u00e9", "é", "日本", "\x00", "\x7f", "\U0001f600"]


def exportable(v: str) -> bool:
    return bool(v) and not any(ch.isspace() for ch in v) and '"' not in v and not v.endswith("\\")


@st.composite
def labelled_graphs(draw, labels):
    """A graph on distinct drawn labels, added in an order unrelated to
    label order, with its edges added in drawn order."""
    names = draw(st.lists(labels, unique=True, max_size=9))
    pairs = list(combinations(names, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    g = Graph(draw(st.permutations(names)))
    for a, b in chosen:
        g.add_edge(*draw(st.permutations([a, b])))
    return g


any_label = st.one_of(st.sampled_from(AWKWARD_LABELS), st.text(max_size=4))


@given(labelled_graphs(any_label.filter(exportable)))
@settings(max_examples=300, deadline=None)
def test_export_matches_literal_export(g):
    assert g.edges() == literal_edges(g)
    for fmt in EXPORT_FORMATS:
        assert export(g, fmt) == literal_export(g, fmt)


@given(labelled_graphs(any_label))
@settings(max_examples=200, deadline=None)
def test_export_refuses_what_literal_export_refuses(g):
    for fmt in EXPORT_FORMATS:
        assert outcome(export, g, fmt) == outcome(literal_export, g, fmt)


@pytest.mark.parametrize("n", [90, 210])
def test_parse_edgelist_matches_literal_parser_on_cl2(n):
    # rows of several hundred bits, dense and sparse
    text = export(cl2(n), "edgelist")
    assert parsed(parse_edgelist, text) == parsed(literal_parse_edgelist, text)


@pytest.mark.parametrize("n", [30, 90])
def test_export_matches_literal_export_on_cl2(n):
    # compared line by line: a failure report diffing two whole texts of
    # several hundred kilobytes would take minutes
    g = cl2(n)
    for fmt in EXPORT_FORMATS:
        assert export(g, fmt).split("\n") == literal_export(g, fmt).split("\n")


parse_label = st.sampled_from(["a", "b", "c", "#c", "e", "v", "é", "x,y"])


@st.composite
def edgelist_lines(draw):
    """One line, written with assorted blanks: mostly well formed, now
    and then one that the parser must refuse."""
    a, b = draw(st.lists(parse_label, min_size=2, max_size=2, unique=True))
    if draw(st.integers(min_value=0, max_value=29)):
        choices = [["e", a, b], ["e", a, b], ["e", b, a], ["v", a], ["#", "3", "vertices"], ["#e", a, b], []]
    else:
        choices = [["e", a, a], ["e"], ["v"], [a], ["e", a, b, b], ["v", a, b], ["edge", a, b]]
    fields = draw(st.sampled_from(choices))
    # \x0c is a line boundary to str.splitlines, a blank to str.split
    sep = draw(st.sampled_from([" ", " ", "\t", "  ", " \t"]))
    lead, trail = draw(st.lists(st.sampled_from(["", "", " ", "\t", "\x0c"]), min_size=2, max_size=2))
    return lead + sep.join(fields) + trail


@st.composite
def edgelist_texts(draw):
    lines = draw(st.lists(edgelist_lines(), max_size=25))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if text and draw(st.booleans()) else text


def parsed(parse, text):
    got = outcome(parse, text)
    return (got.labels, got.index, got.adj) if isinstance(got, Graph) else got


@given(edgelist_texts())
@example("e a b\ne a c\nv d\ne d b\ne a d\nv a\ne a c\n")  # first labels a, a, d, a, a
@example("e a b\ne a c\ne a x y\ne a d\n")
@settings(max_examples=500, deadline=None)
def test_parse_edgelist_matches_literal_parser(text):
    assert parsed(parse_edgelist, text) == parsed(literal_parse_edgelist, text)
