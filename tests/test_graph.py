"""Graph toolkit tests: structure, components, isomorphism search,
serialization."""

import csv
import io
import json
import random
import tracemalloc
from collections import Counter
from functools import cached_property
from itertools import combinations, islice
from typing import Iterable

import pytest
from hypothesis import example, given, settings, strategies as st

from cleangraphs import graph as graph_module, verify as verify_module
from cleangraphs.cleangraph import cl1, cl2, cl2_pairs, clean_graph, idempotent_graph, pair_label
from cleangraphs.graph import (
    DEFAULT_SEARCH_BUDGET,
    EXPORT_FORMATS,
    STRIP,
    Graph,
    IsoResult,
    _joint_refinement,
    _renumbered,
    _row_of,
    _search_order,
    _select,
    _tile_swaps,
    _transposed,
    _transposed_by_bits,
    _transposed_by_tiles,
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
    Trickle,
    circulant_graph,
    disjoint_union,
    double_edge_swaps,
    empty_graph,
    graph_types,
    ladder_graph,
    path_graph,
    random_connected_graph,
    relabel,
    spelt,
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


@pytest.mark.parametrize("i, j, bad", [(0, 5, 5), (5, 0, 5), (-3, 0, -3), (-1, 0, -1), (0, -1, -1)])
def test_refused_link_leaves_the_rows_unchanged(i, j, bad):
    g = Graph(["a", "b", "c"], [("a", "b")])
    with pytest.raises(IndexError, match=f"^vertex index {bad} out of range$"):
        g.link(i, j)
    assert g.adj == [0b010, 0b001, 0]
    assert g.degrees() == [1, 1, 0] and g.num_edges == 1
    with pytest.raises(ValueError, match="^self-loop at 'c' not allowed$"):
        g.link(2, 2)
    assert g.adj == [0b010, 0b001, 0]


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
    real = vars(Graph)["labels"].func

    def counting(g):
        built.append(len(g.adj))
        return real(g)

    labels = cached_property(counting)
    labels.__set_name__(Graph, "labels")
    monkeypatch.setattr(Graph, "labels", labels)
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


TRANSPOSES = [_transposed, _transposed_by_bits, _transposed_by_tiles]


@st.composite
def bit_matrices(draw):
    """Square bit matrices that are not symmetric, from empty to full, at
    and around the tiles' runs of 8 and of STRIP rows, and at 44 rows,
    the shu benchmark's median shape."""
    k = draw(st.sampled_from([0, 1, 7, 8, 9, 44, 79, 80, 81, STRIP - 1, STRIP, STRIP + 1, 2 * STRIP + 3]))
    share = draw(st.sampled_from([0.0, 0.003, 0.03, 0.3, 0.9, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    return [_row_of(rng.sample(range(k), round(share * k)), k) for _ in range(k)]


@given(bit_matrices())
@example([])
@example([(1 << 2 * STRIP + 3) - 1] * (2 * STRIP + 3))
@example([1 << i for i in range(STRIP + 1)][::-1])  # the anti-diagonal
@settings(max_examples=60, deadline=None)
def test_transposes_match_a_bit_by_bit_transpose(rows):
    k = len(rows)
    expected = [sum((rows[i] >> j & 1) << i for i in range(k)) for j in range(k)]
    for transpose in TRANSPOSES:
        assert transpose(list(rows)) == expected, transpose.__name__


@pytest.mark.parametrize("share", [0.0, 0.3, 1.0])
def test_tiles_match_a_bit_by_bit_transpose_at_every_narrow_size(share):
    # every size from 80 down to 0, so each row width's masks are made for
    # its widest matrix and kept for up to seven narrower ones: 9 rows
    # after 16, for one
    _tile_swaps.cache_clear()
    rng = random.Random(share)
    for k in range(80, -1, -1):
        rows = [_row_of(rng.sample(range(k), round(share * k)), k) for _ in range(k)]
        expected = [sum((rows[i] >> j & 1) << i for i in range(k)) for j in range(k)]
        assert _transposed_by_tiles(list(rows)) == expected, k


@pytest.mark.parametrize("size", [1, 2, 31, 32, 33, 126, 900])
def test_tile_masks_cover_one_run_of_rows(size):
    # the masks outlive the transpose that made them, so each is at most
    # min(STRIP, 8 * size) rows of size bytes, however wide the matrix
    bits = 8 * min(STRIP, 8 * size) * size
    assert all(0 < mask.bit_length() <= bits for _, mask in _tile_swaps(size))


def test_tile_masks_keep_a_bounded_number_of_widths():
    # a transpose at each of 8 more widths than the memo keeps: it holds
    # maxsize widths, the latest, and the transposes stay right after an
    # old width is let go and made again
    _tile_swaps.cache_clear()
    keep = _tile_swaps.cache_info().maxsize
    rng = random.Random(34)
    for size in [*range(1, keep + 9), 1]:
        k = 8 * size - rng.randrange(8)
        rows = [rng.getrandbits(k) for _ in range(k)]
        assert _transposed_by_tiles(list(rows)) == _transposed_by_bits(rows), k
    info = _tile_swaps.cache_info()
    assert 0 < keep == info.currsize and info.misses == keep + 9 and info.hits == 0
    _transposed_by_tiles([0] * 8 * (keep + 8))  # the widest width is still kept
    assert _tile_swaps.cache_info().hits == 1


@pytest.mark.parametrize(
    "make, path",
    [
        # 1,008 vertices, a quarter of the matrix set
        pytest.param(lambda: cl2(380), "_transposed_by_tiles", id="cl2_380"),
        # 2,332 vertices, rows of at most one bit
        pytest.param(lambda: cl2(2333), "_transposed_by_bits", id="cl2_2333"),
        # 44 vertices, 399 edges: the shu benchmark's median shape
        pytest.param(lambda: build_shu(random_connected_graph(9, 10, 14)[0], 2, 4), "_transposed_by_tiles", id="shu_44"),
    ],
)
def test_transposed_picks_its_path_by_size_and_density(monkeypatch, make, path):
    # every path gives the same rows, so only a spy tells them apart; a
    # wrong rule costs tens of milliseconds on a prime's cl2 and shows in
    # no output
    g = make()
    used = []
    for transpose in TRANSPOSES[1:]:
        name = transpose.__name__

        def spy(rows, transpose=transpose, name=name):
            used.append(name)
            return transpose(rows)

        monkeypatch.setattr(graph_module, name, spy)
    text = export(g, "edgelist")  # the rows renumbered into label order
    assert parse_edgelist(text).adj == g.adj  # the forward half closed
    assert used == [path, path]


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


# the pieces of small_unions, as edges on their vertices 0..k-1: a path on
# three vertices, drawn with an end first, has a first vertex with one
# neighbour that has two, as has a star drawn with a leaf first
PIECES = {
    "K1": (1, []),
    "K2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    **{f"star{s}": (s + 1, [(0, j) for j in range(1, s + 1)]) for s in (2, 3, 4)},
}


@st.composite
def small_unions(draw):
    """A disjoint union of K1s, K2s, P3s, stars and triangles with its
    vertices shuffled, so that any vertex of a piece may come first."""
    names = draw(st.lists(st.sampled_from(sorted(PIECES)), max_size=10))
    edges: list[tuple[int, int]] = []
    size = 0
    for name in names:
        k, piece = PIECES[name]
        edges += [(size + a, size + b) for a, b in piece]
        size += k
    place = draw(st.permutations(range(size)))  # old vertex i is stored at place[i]
    labels = [f"v{i}" for i in range(size)]
    return Graph(labels, [(labels[place[a]], labels[place[b]]) for a, b in edges])


def walked_components(g: Graph) -> list[list[int]]:
    """Reference: each component's vertex indices, found by a frontier
    walk from its lowest vertex over the edge list, in the order of that
    vertex."""
    nbrs: list[set[int]] = [set() for _ in range(g.num_vertices)]
    for a, b in g.edges():
        nbrs[g.index[a]].add(g.index[b])
        nbrs[g.index[b]].add(g.index[a])
    seen: set[int] = set()
    parts = []
    for start in range(g.num_vertices):
        if start in seen:
            continue
        part = frontier = {start}
        while frontier:
            frontier = set().union(*(nbrs[v] for v in frontier)) - part
            part |= frontier
        seen |= part
        parts.append(sorted(part))
    return parts


@given(small_unions())
@example(Graph(["a", "b", "c"], [("a", "b"), ("b", "c")]))  # P3 from an end
@example(Graph(["a", "b", "c", "d"], [("a", "d"), ("d", "b"), ("d", "c")]))  # star from a leaf
@example(Graph(["a", "b", "c", "d"], [("a", "d"), ("b", "c")]))  # K2 whose partner comes last
def test_component_shapes_match_a_frontier_walk(g):
    parts = walked_components(g)
    # one part too many is read, so that a split that never ends fails
    found = islice(g._components(), len(parts) + 1)
    assert [_select(part, range(g.num_vertices)) for part in found] == parts
    want = [(len(part), sum(g.adj[i].bit_count() for i in part) // 2) for part in parts]
    assert g.component_shapes() == want


def test_components_end_when_parts_overlap():
    # asymmetric rows, which no builder makes: vertices 0 and 1 have no
    # neighbour and each later vertex points at the ones before it, so every
    # part after the first two holds vertices an earlier part took.  Each
    # part removes its vertices from the ones left, so the split ends;
    # putting them back instead would start over at vertex 0 for ever, and
    # reading one part more than the vertices makes that fail, not hang.
    g = Graph.from_rows(list("abcde"), [0, 0, 0b11, 0b100, 0b1000])
    assert list(islice(g._components(), 6)) == [0b1, 0b10, 0b111, 0b1111, 0b11111]


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32, 3, 9, 27, 25, 49, 121, 343])
def test_prime_power_cl2_passes_in_every_branch(q):
    # q = 2, q = 4, 2^m with m >= 3 and odd prime powers are the four
    # branches of the prediction; every component is K1 or K2
    r = verify_module.verify_prime_power(q)
    assert r.status == "pass", r.detail
    g = cl2(q)
    assert g.component_shapes() == [(len(p), len(p) - 1) for p in walked_components(g)]


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
    assert find_isomorphism(Graph(), Graph()) == IsoResult("isomorphic", (), 0)


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
    assert spelt(g, h, res.witness) == (
        ("v1", "v1"), ("v10", "v8"), ("v11", "v3"), ("v12", "v5"), ("v2", "v12"),
        ("v3", "v7"), ("v4", "v9"), ("v5", "v4"), ("v6", "v11"), ("v7", "v10"),
        ("v8", "v2"), ("v9", "v6"),
    )
    res = find_isomorphism(h, g)
    assert res.nodes_expanded == 48
    assert spelt(h, g, res.witness) == (
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
    g, h = _master_pair(22)
    res = find_isomorphism(g, h)
    assert res.nodes_expanded == 73
    copy = {1: 1, 3: 9, 5: 6, 7: 8, 9: 7, 13: 10, 15: 4, 17: 3, 19: 5, 21: 2}
    images = {1: "z", 11: "11", 12: "12"}
    assert spelt(g, h, res.witness) == tuple(
        sorted((f"({e},{u})", f"{images[e]}@{i}") for e in images for u, i in copy.items())
    )
    # the budget is checked when a depth places a vertex or is exhausted;
    # a search cut one node short still reports the first node past it
    assert find_isomorphism(g, h, budget=72) == IsoResult("inconclusive", None, 73)
    assert find_isomorphism(g, h, budget=73) == res


def test_searcher_work_is_pinned_on_the_ladder_shuriken_pair():
    # the heaviest searcher call of the benchmark's shu workload: cubic
    # inputs, so refinement leaves the whole search to the backtracking
    left = build_shu(ladder_graph(4, "a", False), 2, 4)
    right = build_shu(ladder_graph(4, "b", True), 2, 4)
    assert find_isomorphism(left, right) == IsoResult("not_isomorphic", None, 170132)
    # the last depth to be exhausted takes the count past a budget one short
    assert find_isomorphism(left, right, 170131) == IsoResult("inconclusive", None, 170132)
    assert find_isomorphism(left, right, 170132) == IsoResult("not_isomorphic", None, 170132)


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_insertion_order_does_not_reach_the_searcher(g, rng):
    shuffled = list(g.vertices)
    rng.shuffle(shuffled)
    same = Graph(shuffled, g.edges())
    names = [f"w{i}" for i in range(g.num_vertices)]
    rng.shuffle(names)
    h = relabel(g, dict(zip(g.vertices, names)))
    # the witnesses differ as indices, since the vertices of same are
    # stored in another order, but not in labels
    assert spelt_result(same, h, find_isomorphism(same, h)) == spelt_result(
        g, h, find_isomorphism(g, h)
    )


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
    # with no degree-sum check first, the row walk refuses a map onto a
    # graph with more edges: vertex 0's row already differs
    assert not verify_mapping(path_graph(3), complete_graph(3), [0, 1, 2])
    # every row matches, but one vertex of h is left out
    assert not verify_mapping(empty_graph(2), empty_graph(3), [0, 1])


# -- the searcher against its literal form --------------------------------------------
#
# find_isomorphism as it was before it filtered candidates by bitsets and
# counted nodes by bit counts, with the refinement and the search order as
# they were before they counted neighbours on bitsets, kept verbatim so
# that the fast versions can be held to them: same partition, same order,
# same verdict, same witness, same node count, also when the budget cuts
# the search.  The literal searcher holds its witness as sorted label
# pairs, and the fast one's is compared with it through ``spelt``.


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
    witness, as sorted (g label, h label) pairs, is returned only once
    verify_mapping accepts it; RuntimeError otherwise.
    """
    refined = literal_joint_refinement(g, h)
    if refined is None:
        return IsoResult("not_isomorphic", None, 0)
    if g.num_vertices == 0:
        return IsoResult("isomorphic", (), 0)
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
                witness = tuple(sorted((g.labels[v], h.labels[image[v]]) for v in range(k)))
                if not verify_mapping(g, h, as_permutation(g, h, dict(witness))):
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



def spelt_result(g: Graph, h: Graph, res: IsoResult) -> IsoResult:
    """res with its witness, if it has one, spelt as sorted label pairs."""
    if res.witness is None:
        return res
    return IsoResult(res.status, spelt(g, h, res.witness), res.nodes_expanded)


def assert_searcher_matches_literal(g: Graph, h: Graph) -> None:
    full = literal_find_isomorphism(g, h)
    assert spelt_result(g, h, find_isomorphism(g, h)) == full
    nodes = full.nodes_expanded
    # a negative budget cuts at the first node, as a zero one does
    for budget in (-1, 0, 1, nodes - 1, nodes):
        got = find_isomorphism(g, h, budget)
        assert spelt_result(g, h, got) == literal_find_isomorphism(g, h, budget)


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
    whose splitters' counts reach several bit planes."""
    g, h = draw(st.one_of(relabelled_pairs(), toggled_pairs()))
    return complement(g), complement(h)


searcher_pairs = st.one_of(relabelled_pairs(), toggled_pairs(), regular_pairs(), dense_pairs())


@given(searcher_pairs)
@settings(max_examples=200, deadline=None)
def test_searcher_matches_its_literal_form(pair):
    g, h = pair
    assert_searcher_matches_literal(g, h)
    # only an isomorphic result has a witness, an index permutation that
    # the check accepts; a budget of 0 makes most results inconclusive
    for budget in (0, DEFAULT_SEARCH_BUDGET):
        res = find_isomorphism(g, h, budget)
        if res.status == "isomorphic":
            assert type(res.witness) is tuple
            assert sorted(res.witness) == list(range(g.num_vertices))
            assert verify_mapping(g, h, res.witness)
        else:
            assert res.witness is None


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
        order, back = _search_order(g, refined[0])
        assert order == literal_search_order(g, literal[0])
        # back[d]: the depths of the neighbours of order[d] earlier in the order
        depth_of = {v: d for d, v in enumerate(order)}
        assert len(back) == len(order)
        for d, v in enumerate(order):
            want = [depth_of[w] for w in range(len(order)) if g.adj[v] >> w & 1 and depth_of[w] < d]
            assert sorted(back[d]) == sorted(want)


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
    # the pairs that CI pins through verify shu-inheritance: the shape of
    # the shu benchmark's median op, Shu(2, 4) of a random 10-vertex graph,
    # and a 366-vertex pair
    "shu_random10": lambda: _shu_pair(*random_connected_graph(9, 10, 14)),
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


def assert_refinement_matches_literal(g: Graph, h: Graph) -> None:
    for a, b in ((g, h), (h, g)):
        assert joint_classes(_joint_refinement(a, b)) == joint_classes(literal_joint_refinement(a, b))


@pytest.mark.parametrize("n", [n for n in range(6, 151) if len(factorize(n).factorization) == 2])
def test_refinement_matches_its_literal_form_on_two_prime_moduli(n):
    # cl2 against Sh, the pair of the two-prime statement
    part = factorize(n).unit_partition()
    assert_refinement_matches_literal(cl2(n), build_sh(part.t, part.k))


@pytest.mark.parametrize("seed", range(1, 11))
def test_refinement_matches_its_literal_form_on_random_shuriken_pairs(seed):
    assert_refinement_matches_literal(*_shu_pair(*random_connected_graph(seed, 10, 14)))


def largest_splits(g: Graph) -> list[int]:
    """For each refinement round on g, the most classes that one class
    of the coloring before it splits into."""
    colors = g.degrees()
    nbrs = [_select(row, range(len(colors))) for row in g.adj]
    out = []
    while True:
        signatures = [(c, tuple(sorted(colors[w] for w in row))) for c, row in zip(colors, nbrs)]
        out.append(max(Counter(c for c, _ in set(signatures)).values(), default=0))
        if len(set(signatures)) == len(set(colors)):
            return out
        palette = dict(zip(dict.fromkeys(signatures), range(len(signatures))))
        colors = list(map(palette.__getitem__, signatures))


def test_refinement_matches_its_literal_form_where_a_class_splits_three_ways():
    # a round of the literal form splits a class four ways and one of the
    # next splits a class three ways; the refinement reaches the same
    # classes by two-way cuts, a plane at a time, and leaves the larger
    # part of each cut out of the worklist unless the class was waiting
    g, h = PINNED_PAIRS["shu_random10"]()
    assert largest_splits(g) == [4, 3, 1]
    assert_refinement_matches_literal(g, h)


@st.composite
def equal_degree_pairs(draw):
    """A seeded random connected graph on 4-29 vertices against a
    relabelled copy after a few double-edge swaps: the degree histograms
    agree, so the refinement decides, often by a class whose h side does
    not follow its g side."""
    k = draw(st.integers(min_value=4, max_value=29))
    m = draw(st.integers(min_value=k - 1, max_value=min(k * (k - 1) // 2, 3 * k)))
    seeds = st.integers(min_value=0, max_value=2**16)
    g = random_connected_graph(draw(seeds), k, m)[0]
    h = double_edge_swaps(g, draw(st.integers(min_value=1, max_value=4)), draw(seeds))
    return g, shuffled(h, draw(st.randoms(use_true_random=False)))


@given(equal_degree_pairs())
@settings(max_examples=300, deadline=None)
def test_refinement_matches_its_literal_form_on_equal_degree_pairs(pair):
    assert_refinement_matches_literal(*pair)


def test_equal_degree_pairs_reach_both_outcomes():
    # the pairs that the oracle test above draws from split the refinement
    # in some cases and not in others, so both of its ends are checked
    outcomes = Counter()
    for seed in range(40):
        g = random_connected_graph(seed, 12, 16)[0]
        h = double_edge_swaps(g, 2, seed)
        assert sorted(g.degrees()) == sorted(h.degrees())
        assert_refinement_matches_literal(g, h)
        outcomes[_joint_refinement(g, h) is None] += 1
    assert outcomes[True] and outcomes[False]


# -- the witness check against its literal form --------------------------------------
#
# verify_mapping as it was before it mapped rows by their difference with
# the previous row, kept verbatim so that the fast version can be held to it.


def literal_verify_mapping(g: Graph, h: Graph, mapping: dict[str, str]) -> bool:
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


def as_permutation(g: Graph, h: Graph, mapping: dict[str, str]) -> list[int]:
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
        assert verify_mapping(g, target, as_permutation(g, target, m)) == want
    assert verify_mapping(g, h, as_permutation(g, h, mapping))
    assert not verify_mapping(g, toggled(h, one), as_permutation(g, h, mapping))
    assert not verify_mapping(g, h, as_permutation(g, h, clash))


def first_spoiled(g: Graph, a: int, b: int) -> int | None:
    """The first row whose check fails once the targets of a and b are
    swapped in a true witness, None when the swap is an automorphism.

    A row other than a's and b's is spoiled when it holds one of a and b
    only; a's and b's rows are spoiled when they differ outside a and b."""
    spoiled = g.adj[a] ^ g.adj[b] | 1 << a | 1 << b
    if spoiled == 1 << a | 1 << b:
        return None
    return (spoiled & -spoiled).bit_length() - 1


def swapped(perm: list[int], a: int, b: int) -> list[int]:
    out = list(perm)
    out[a], out[b] = perm[b], perm[a]
    return out


def blown_up_path(k: int, run: int, toggles: int, seed: int):
    """A graph on k vertices whose vertices run in blocks of ``run``, each
    block joined to the next in full, with ``toggles`` random pairs
    toggled: a row differs from the one before it in a few bits inside a
    block and in about four blocks across a boundary, so rows are mapped
    both a bit at a time and packed.  With it come a copy stored in
    another vertex order, the map onto it, run and toggles."""
    rng = random.Random(seed)
    rows = [0] * k
    for i, j in combinations(range(k), 2):
        if j // run - i // run == 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    for i, j in (rng.sample(range(k), 2) for _ in range(toggles)):
        rows[i] ^= 1 << j
        rows[j] ^= 1 << i
    perm = rng.sample(range(k), k)
    image = [0] * k
    for i, row in enumerate(rows):
        image[perm[i]] = sum(1 << perm[j] for j in range(k) if row >> j & 1)
    g = Graph.from_rows([f"v{i}" for i in range(k)], rows)
    h = Graph.from_rows([f"w{i}" for i in range(k)], image)
    return g, h, perm, run, toggles


@given(
    st.builds(
        blown_up_path,
        st.integers(min_value=2, max_value=90).filter(lambda k: k % 8),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=2**32),
    )
)
@example(blown_up_path(0, 1, 0, 0))
@example(blown_up_path(1, 1, 0, 0))
@example(blown_up_path(61, 16, 0, 1))
@example(blown_up_path(83, 17, 3, 2))
@settings(max_examples=150, deadline=None)
def test_verify_mapping_refuses_swaps_at_both_kinds_of_row(case):
    g, h, perm, run, toggles = case
    k = g.num_vertices
    assert verify_mapping(g, h, perm)
    assert literal_verify_mapping(g, h, dict(spelt(g, h, perm)))
    # a row is packed when its difference with the row before, or the row
    # itself when that has fewer set bits, has FEW or more
    prev = 0
    packed = []
    for row in g.adj:
        packed.append(min((row ^ prev).bit_count(), row.bit_count()) >= graph_module.FEW)
        prev = row
    # for each kind of row, the first pair whose swap spoils such a row first
    pairs = {}
    for a, b in combinations(range(k), 2):
        r = first_spoiled(g, a, b)
        if r is not None:
            pairs.setdefault(packed[r], (a, b))
    for a, b in pairs.values():
        assert not verify_mapping(g, h, swapped(perm, a, b))
        assert not literal_verify_mapping(g, h, dict(spelt(g, h, swapped(perm, a, b))))
    # untoggled, with blocks wide enough to pack and at least four of
    # them: a swap of 0 with block 2 spoils row 0 first, packed, and one
    # of 1 with block 2 spoils row 1 first, inside a block
    if not toggles and graph_module.FEW <= run < k // 3:
        assert set(pairs) == {False, True}


def general_witness(n: int, monkeypatch) -> tuple[Graph, Graph, list[int]]:
    """cl2(n), the Shu graph and the witness that verify_general checks."""
    seen = []
    monkeypatch.setattr(graph_module, "verify_mapping", lambda *args: seen.append(args))
    verify_general(n)
    monkeypatch.undo()
    ((g, h, perm),) = seen
    return g, h, perm


@pytest.mark.parametrize("n", [30, 60, 210, 380])
def test_verify_mapping_on_general_witnesses(n, monkeypatch):
    g, h, perm = general_witness(n, monkeypatch)
    assert verify_mapping(g, h, perm)
    assert literal_verify_mapping(g, h, dict(spelt(g, h, perm)))
    # among the first vertices of the idempotent blocks, take the pair
    # that spoils nothing before the latest row
    width = len(factorize(n).units())
    starts = range(0, g.num_vertices, width)
    a, b = max(combinations(starts, 2), key=lambda ab: first_spoiled(g, *ab) or 0)
    assert first_spoiled(g, a, b) >= g.num_vertices // 4
    assert not verify_mapping(g, h, swapped(perm, a, b))
    assert not literal_verify_mapping(g, h, dict(spelt(g, h, swapped(perm, a, b))))


def test_verify_mapping_refuses_a_swap_on_a_wide_prime_witness(monkeypatch):
    # cl2 of the prime 2999 has 2,998 vertices and rows of at most one
    # bit, so every row is mapped a bit at a time; take a pair whose swap
    # spoils no row before the second half
    g, h, perm = general_witness(2999, monkeypatch)
    k = g.num_vertices
    assert verify_mapping(g, h, perm)
    a, b = next(
        (a, b)
        for a, b in combinations(range(k // 2, k), 2)
        if (first_spoiled(g, a, b) or 0) >= k // 2
    )
    assert not verify_mapping(g, h, swapped(perm, a, b))


def test_verify_mapping_maps_row_differences(monkeypatch):
    # consecutive rows of cl2(380) mostly differ in one column, so the
    # check maps a small share of the bits it would map row by row; with
    # FEW at 0 no difference is split a bit at a time, and every one
    # passes through _select, where its bits are counted
    g, h, perm = general_witness(380, monkeypatch)
    mapped = []

    def counting(row, values):
        mapped.append(row.bit_count())
        return _select(row, values)

    monkeypatch.setattr(graph_module, "_select", counting)
    monkeypatch.setattr(graph_module, "FEW", 0)
    assert verify_mapping(g, h, perm)
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
    with pytest.raises(ValueError, match=r"^line 2: self-loop at 'a' not allowed$"):
        parse_edgelist("v a\ne a a\n")
    with pytest.raises(ValueError, match=r"^line 3: self-loop at 'a' not allowed$"):
        parse_edgelist("# e a a\ne a b\n  e  a\ta \ne a a\n")
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
                raise ValueError(f"line {ln}: self-loop at {a!r} not allowed")
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


@st.composite
def numbered_graphs(draw):
    """A graph on numbers and letters of both cases, added in numeric
    order, so that label order ("10" < "9", "B3" < "a0") is not insertion
    order; from empty to complete, with and without a partial byte of
    rows, so that both transposes renumber some of them into label
    order."""
    k = draw(st.sampled_from([0, 1, 2, 11, 79, 81, 150]))
    share = draw(st.sampled_from([0.0, 0.02, 0.3, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    labels = [f"{'aB'[i % 2]}{i}" if i % 3 == 0 else str(i) for i in range(k)]
    return Graph(labels, [(a, b) for a, b in combinations(labels, 2) if rng.random() < share])


@given(numbered_graphs())
@settings(max_examples=60, deadline=None)
def test_export_walk_matches_a_sorted_edge_walk(g):
    assert g.edges() == literal_edges(g)
    assert export(g, "edgelist") == literal_export(g, "edgelist")


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
@example("v a\n\x0ce\ta a\ne a a\n")  # the self-loop is on line 3
@settings(max_examples=500, deadline=None)
def test_parse_edgelist_matches_literal_parser(text):
    # from the text and from a stream of it, at blocks short enough for
    # the texts drawn to cross several; set here, as hypothesis refuses a
    # function-scoped fixture
    expected = parsed(literal_parse_edgelist, text)
    block = graph_module.BLOCK
    try:
        for size in (block, 0, 1, 2, 7):
            graph_module.BLOCK = size
            assert parsed(parse_edgelist, text) == expected
            assert parsed(parse_edgelist, io.StringIO(text)) == expected
    finally:
        graph_module.BLOCK = block


@st.composite
def plain_edge_texts(draw):
    """Vertices declared by ``v`` lines, then mostly ``e a b`` lines with
    one blank between fields and "\\n" after each: the blocks the token
    reader takes.  A line that ends in "\\r\\n" or "\\r" keeps its block
    plain.  Now and then a label is undeclared or repeated (a self-loop),
    a line has another shape, or a line ends in "\\x0c\\n" or "\\x85",
    and the reader must refuse the block."""
    labels = ["a", "b", "c", "e", "v", "#e", "\x00", "x\x00y", "é"]
    declared = draw(st.lists(st.sampled_from(labels), unique=True, min_size=1))
    used = st.sampled_from(declared) if draw(st.integers(min_value=0, max_value=3)) else st.sampled_from(labels)
    lines = []
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        a, b = draw(used), draw(used)
        if draw(st.integers(min_value=0, max_value=9)):
            line = f"e {a} {b}"
        else:
            line = draw(st.sampled_from([f"e {a}", f"e {a} {b} {b}", f"edge {a} {b}", f"v {a}", f"# {a}", "", f" e {a} {b}"]))
        lines.append(line + draw(st.sampled_from(["\n"] * 12 + ["\r\n", "\x0c\n", "\r", "\x85"])))
    return "".join(f"v {v}\n" for v in declared) + "".join(lines)


@given(plain_edge_texts())
@example("v a\nv b\nv c\ne a b\ne a c\ne b c\n")
@example("v a\nv b\ne a b\ne b b\n")  # a self-loop
@example("v a\nv b\ne a b\ne a c\ne b c\n")  # an undeclared second label
@example("v a\nv b\ne a b\ne c a\n")  # an undeclared first label
@example("v e\nv v\nv #e\ne e v\ne e #e\ne #e v\n")  # the line keywords and a comment mark
@example("v a\nv \x00\nv x\x00y\ne a \x00\ne \x00 x\x00y\n")  # labels holding "\\x00"
@example("v a\nv c\nv d\nv e\nv \x00\ne a\ne e c d\n")  # lines of 2 and 4 fields
@example("v a\nv b\nv c\nv d\ne a\ne b c d\n")  # 2L + 1 tokens from lines of 2 and 4 fields
@example("v a\nv b\ne a  b\ne  a b\n")  # doubled blanks, 2L + 1 tokens for L = 3
@example("v a\nv b\ne a\tb\ne b a\n")  # a tab between fields
@example("v a\nv b\ne a b \ne b a\n")  # a blank before "\\n"
@example("v a\nv b\nv ce\ne a b\ne c")  # no "\\n" after "e c", and "c" + "e" is a label
@example("v a\nv b\ne a b\x0c\ne a b\ne a a\n")  # a line boundary that is not "\\n"
@example("v a\nv b\ne a b\nv a b\n")  # 2L + 1 tokens, a line that is not an edge
@example("v a\nv b\ne a b c x a b\n")  # 2L + 1 tokens for L = 3, but one line
@example("v a\nv b\ne a b\ne a b")  # no "\\n" after the last line
@example("v a\nv b\ne a b\nx")  # a refused last line with no "\\n" after it
@example("v a\r\nv b\r\nv c\r\ne a b\r\ne a c\r\ne b c\r\n")  # "\\r\\n" line ends
@example("v a\rv b\rv c\re a b\re a c\re b c\r")  # lone "\\r" line ends
@example("v a\nv b\rv c\r\ne a b\re a c\ne b c\r\ne c a\r")  # "\\r", "\\n" and "\\r\\n" mixed
@settings(max_examples=300, deadline=None)
def test_plain_edge_blocks_match_literal_parser(text):
    # at every BLOCK size up to the text's, so that the lines fall into
    # blocks every way they can, from the text and from a stream
    expected = parsed(literal_parse_edgelist, text)
    block = graph_module.BLOCK
    try:
        for size in (block, *range(len(text) + 1)):
            graph_module.BLOCK = size
            assert parsed(parse_edgelist, text) == expected
            assert parsed(parse_edgelist, Trickle(text, [size or 1])) == expected
    finally:
        graph_module.BLOCK = block


def blocks_read(monkeypatch, text: str) -> tuple[Graph, list[tuple[str, bool]]]:
    """What parse_edgelist makes of text, and each block it read with
    whether _edge_runs returned it as runs (True) or refused it to the
    line reader."""
    read, edge_runs = [], graph_module._edge_runs

    def spy(block, index, ends):
        runs = edge_runs(block, index, ends)
        read.append((block, runs is not None))
        return runs

    monkeypatch.setattr(graph_module, "_edge_runs", spy)
    return parse_edgelist(text), read


def assert_read_as_tokens_from(read: list[tuple[str, bool]], start: int) -> None:
    """Every block that starts at or after ``start`` of the text was read
    as tokens."""
    at = 0
    for block, as_tokens in read:
        assert as_tokens or at < start, f"the block at {at} was read line by line"
        at += len(block)


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_exported_edge_lines_are_read_as_tokens(monkeypatch, end):
    # every block that the parser reads after the vertex lines of an
    # exported edge list, with any of the three common line ends, comes
    # back from _edge_runs as runs, not refused to the line reader
    text = export(cl2(380), "edgelist").replace("\n", end)
    edges_from = text.index(end, text.rindex(end + "v ") + len(end)) + len(end)
    _, read = blocks_read(monkeypatch, text)
    assert_read_as_tokens_from(read, edges_from)
    assert "".join(block for block, _ in read) == text and len(read) > 100


def test_edge_lines_on_labels_holding_nul_are_read_as_tokens(monkeypatch):
    # "\x00" is no blank to str.split, so it can stand in a label, and
    # the edge lines of such labels are plain
    labels = [f"\x00{i}" if i % 2 else f"x\x00{i}" for i in range(40)]
    g = Graph(labels, combinations(labels, 2))
    text = export(g, "edgelist")
    monkeypatch.setattr(graph_module, "BLOCK", 256)
    got, read = blocks_read(monkeypatch, text)
    assert got == g and (got.labels, got.index, got.adj) == parsed(literal_parse_edgelist, text)
    assert_read_as_tokens_from(read, text.index("\ne ") + 1)
    assert sum(as_tokens for _, as_tokens in read) > 20


def test_two_column_blocks_on_labels_seen_before_are_read_as_tokens(monkeypatch):
    # no v lines: the line reader adds every label from the first lines,
    # half as a first and half as a second label, and each later block
    # uses only those labels, in both places, so it must come back as
    # runs; that holds only if ends follows every label the line reader adds
    rng = random.Random(34)
    labels = [f"n{i}" for i in range(30)]
    intro = list(zip(labels[::2], labels[1::2]))
    later = [rng.sample(pair, 2) for pair in combinations(labels, 2) if pair not in intro]
    rng.shuffle(later)
    text = "".join(f"e {a} {b}\n" for a, b in intro + later)
    monkeypatch.setattr(graph_module, "BLOCK", 256)
    got, read = blocks_read(monkeypatch, text)
    assert (got.labels, got.index, got.adj) == parsed(literal_parse_edgelist, text)
    assert_read_as_tokens_from(read, sum(len(f"e {a} {b}\n") for a, b in intro))
    assert sum(as_tokens for _, as_tokens in read) > 10


# every sequence that str.splitlines takes for a line boundary
LINE_BOUNDARIES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@given(
    st.lists(st.sampled_from(["a", "b", " ", "\t", *LINE_BOUNDARIES])),
    st.integers(min_value=0, max_value=8),
    st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
)
@example(["a", "\r\n", "b"], 1, [1])  # the block's first "\n" ends a "\r\n"
@example(["\n", "\n"], 0, [1])  # an empty line at a cut
@example(["a", "\r", "\n", "b"], 8, [2])  # a read ends between "\r" and "\n"
@example(["a", "\r", "a", "\r", "\n"], 8, [3, 1])  # a read holds no "\n"
@settings(max_examples=500, deadline=None)
def test_block_reader_matches_splitlines(pieces, block, steps):
    # from the text, and from a stream that returns 1-3 characters a read
    text = "".join(pieces)
    saved = graph_module.BLOCK
    graph_module.BLOCK = block
    try:
        for source in (text, Trickle(text, steps)):
            blocks = graph_module._blocks(source)
            assert [line for block in blocks for line in block.splitlines()] == text.splitlines()
    finally:
        graph_module.BLOCK = saved


@pytest.mark.parametrize("stream", [False, True], ids=["str", "stream"])
def test_block_reader_cuts_at_a_carriage_return_that_ended_a_read(stream):
    # a "\r" that ends a read may start a "\r\n", so the reader carries
    # it until the next read shows what follows, and then cuts after it:
    # a text with "\r" line ends read one character at a time is cut a
    # line at a time, not carried whole
    text = "a\rb\rc\r\nd\r"
    saved = graph_module.BLOCK
    graph_module.BLOCK = 1
    try:
        blocks = list(graph_module._blocks(Trickle(text, [1]) if stream else text))
    finally:
        graph_module.BLOCK = saved
    assert blocks == ["a\r", "b\r", "c\r\n", "d\r"]


# -- memory of the edge-list round trip -----------------------------------------


def traced_peak(f, *args) -> int:
    """The peak of the memory traced while f runs, in bytes."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "stream, end",
    [
        pytest.param(False, "\n", id="str"),
        pytest.param(True, "\n", id="stream"),
        pytest.param(False, "\r\n", id="str-crlf"),
        pytest.param(True, "\r\n", id="stream-crlf"),
        pytest.param(False, "\r", id="str-cr"),
        pytest.param(True, "\r", id="stream-cr"),
    ],
)
def test_parse_edgelist_holds_under_half_its_text(stream, end):
    # 1.26 MB of text, about 80 blocks: the parser holds one block's tokens
    # or lines and the rows; a list of every line, or one per neighbour,
    # would hold more than the text, and so would a block that is not cut
    # at "\r" line ends
    text = export(cl2(210), "edgelist").replace("\n", end)
    source = io.StringIO(text) if stream else text
    assert traced_peak(parse_edgelist, source) < 0.5 * len(text)


@pytest.mark.parametrize("fmt", ["dot", "json", "edgelist"])
def test_export_holds_under_one_and_a_quarter_outputs(fmt):
    # the text grows in place a piece at a time, so there is no second copy
    g = cl2(210)
    size = len(export(g, fmt))
    assert traced_peak(export, g, fmt) < 1.25 * size
