"""The searcher, the graph reads and the component split against
networkx as an independent reference (VF2++: Juttner & Madarasi,
Discrete Applied Mathematics, 2018), and the paper's statements checked
by networkx on objects built from their definitions in networkx alone.
Test-only: skipped where networkx is missing."""

import functools
from collections import Counter
from itertools import combinations
from math import gcd, log

import pytest
from hypothesis import given, settings, strategies as st

from cleangraphs.cleangraph import closed_form_degrees
from cleangraphs.graph import Graph, _joint_refinement, find_isomorphism, verify_mapping
from cleangraphs.verify import verify_prime_power, verify_shu_connectivity

from graph_helpers import disjoint_union, relabel
from test_graph import PINNED_PAIRS, small_unions

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


def assert_vf2pp_respects_the_refinement(g: Graph, h: Graph) -> None:
    # colour refinement is invariant under isomorphism, so an isomorphism
    # that VF2++ finds on its own sends every vertex to one of its colour
    mapping = nx.vf2pp_isomorphism(to_nx(g), to_nx(h))
    assert mapping is not None
    cg, ch = _joint_refinement(g, h)
    assert all(cg[g.index[a]] == ch[h.index[b]] for a, b in mapping.items())


@given(
    st.integers(min_value=1, max_value=9).flatmap(lambda k: graphs(k, "v")),
    st.randoms(use_true_random=False),
)
@settings(max_examples=100, deadline=None)
def test_vf2pp_isomorphisms_respect_the_refinement(g, rng):
    names = [f"w{i}" for i in range(1, g.num_vertices + 1)]
    rng.shuffle(names)
    h = relabel(g, dict(zip(g.vertices, names)))
    assert_vf2pp_respects_the_refinement(g, Graph(sorted(h.vertices), h.edges()))


# the isomorphic pinned pairs but Shu of the random 60-vertex graph, on
# which VF2++ runs from a fraction of a second to past 20 s, as string
# hashing reorders its sets from one process to the next
@pytest.mark.parametrize("name", ["tetrahedra", "tetrahedra_reversed", "cl2_22", "shu_c8"])
def test_vf2pp_isomorphisms_respect_the_refinement_on_pinned_pairs(name):
    assert_vf2pp_respects_the_refinement(*PINNED_PAIRS[name]())


@given(graphs(8, "v"))
@settings(max_examples=100, deadline=None)
def test_components_match_networkx(g):
    ours = {frozenset(c.vertices) for c in g.connected_components()}
    assert ours == {frozenset(c) for c in nx.connected_components(to_nx(g))}
    assert g.is_connected() == (g.num_vertices == 0 or nx.is_connected(to_nx(g)))


@given(small_unions())
def test_components_of_small_unions_match_networkx(g):
    # K1s and K2s read off their first vertex's row, the rest walked
    ours = {frozenset(c.vertices): c.num_edges for c in g.connected_components()}
    ref = to_nx(g)
    assert ours == {frozenset(c): ref.subgraph(c).number_of_edges() for c in nx.connected_components(ref)}


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



# -- the paper's objects from their written definitions ------------------------------
#
# Each object is built in networkx alone, straight from its definition,
# with the ring found by brute force, and each statement is decided by
# networkx.  The package is read only for what it claims: the closed-form
# degrees and what its verifiers report.
#
# Isomorphism is decided by VF2 (nx.is_isomorphic), not VF2++: VF2++
# orders its search by breadth-first layers, so it maps the complete
# bipartite core of Sh (and of Shu) before the vertices that tie its two
# sides together, and it ran past 2 s on 34 of the 90 pairs below.  VF2
# takes its next target in the order the vertices are stored, so Sh is
# stored index by index: a_i, b_i and c_i together.

SMALL_MODULI = range(2, 61)


def distinct_primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


@functools.lru_cache(maxsize=None)
def ring_data(n):
    """The nonzero idempotents, the units and the self-inverse units of
    Z_n, ascending, by scanning every element."""
    idempotents = [e for e in range(1, n) if e * e % n == e]
    units = [u for u in range(1, n) if gcd(u, n) == 1]
    return idempotents, units, [u for u in units if u * u % n == 1]


@functools.lru_cache(maxsize=None)
def literal_cl2(n):
    """Vertices (e, u) with e a nonzero idempotent and u a unit; distinct
    vertices (e, u) and (f, v) are adjacent when ef = 0 or uv = 1."""
    idempotents, units, _ = ring_data(n)
    pairs = [(e, u) for e in idempotents for u in units]
    g = nx.Graph()
    g.add_nodes_from(pairs)
    g.add_edges_from(
        (x, y) for x, y in combinations(pairs, 2) if x[0] * y[0] % n == 0 or x[1] * y[1] % n == 1
    )
    return g


def literal_idempotent_graph(n):
    """I(Z_n): the idempotents other than 0 and 1, adjacent when ef = 0."""
    nontrivial = [e for e in ring_data(n)[0] if e != 1]
    g = nx.Graph()
    g.add_nodes_from(nontrivial)
    g.add_edges_from((e, f) for e, f in combinations(nontrivial, 2) if e * f % n == 0)
    return g


def mirror(i, t, n):
    """Index i mirrors to n + t + 1 - i above t and to itself up to t."""
    return i if i <= t else n + t + 1 - i


def literal_sh(t, n):
    """Sh(t, n) on a_i, b_i, c_i for 1 <= i <= n: every a_i b_j; a_i and
    b_i to c at the mirror of i; and a_i a_j, b_i b_j, c_i c_j for each
    mirrored pair i != j.  The vertices are stored index by index."""
    g = nx.Graph()
    g.add_nodes_from((r, i) for i in range(1, n + 1) for r in "abc")
    g.add_edges_from((("a", i), ("b", j)) for i in range(1, n + 1) for j in range(1, n + 1))
    for i in range(1, n + 1):
        m = mirror(i, t, n)
        g.add_edges_from([(("a", i), ("c", m)), (("b", i), ("c", m))])
        if m != i:
            g.add_edges_from(((r, i), (r, m)) for r in "abc")
    return g


def literal_shu(base, t, n):
    """Shu(base, t, n): n copies of base, each with its own hub z; an edge
    uv of base joins u in any copy to v in any copy, the same copy
    included; copies 1..t are cliques, hub included; copies i and
    n + t + 1 - i are joined completely for i > t."""
    full = [*base.nodes, "z"]
    copies = range(1, n + 1)
    g = nx.Graph()
    g.add_nodes_from((v, i) for i in copies for v in full)
    g.add_edges_from(((u, i), (v, j)) for u, v in base.edges for i in copies for j in copies)
    for i in copies:
        m = mirror(i, t, n)
        if m == i:
            g.add_edges_from(combinations([(v, i) for v in full], 2))
        elif i < m:
            g.add_edges_from(((x, i), (y, m)) for x in full for y in full)
    return g


@pytest.mark.parametrize("n", SMALL_MODULI)
def test_literal_cl2_degrees_match_the_closed_form(n):
    idempotents, units, _ = ring_data(n)
    g = literal_cl2(n)
    predicted, _ = closed_form_degrees(n)
    assert [g.degree((e, u)) for e in idempotents for u in units] == predicted


@pytest.mark.parametrize("n", SMALL_MODULI)
def test_literal_cl2_is_shu_of_the_idempotent_graph(n):
    _, units, self_inverse = ring_data(n)
    shu = literal_shu(literal_idempotent_graph(n), len(self_inverse), len(units))
    assert nx.is_isomorphic(literal_cl2(n), shu)


@pytest.mark.parametrize("n", [n for n in SMALL_MODULI if len(distinct_primes(n)) == 2])
def test_literal_cl2_of_two_primes_is_sh(n):
    _, units, self_inverse = ring_data(n)
    assert nx.is_isomorphic(literal_cl2(n), literal_sh(len(self_inverse), len(units)))


@pytest.mark.parametrize("n", [n for n in SMALL_MODULI if len(distinct_primes(n)) == 1])
def test_literal_cl2_of_a_prime_power_is_vertices_and_edges(n):
    # the statement: 1 isolated vertex for 2, 2 for 4; 4 isolated vertices
    # and 2^(m-1) - 2^(m-2) - 2 edges for 2^m with m >= 3; 2 isolated
    # vertices and (q - q/p)/2 - 1 edges for an odd prime power q
    ((p,),) = [distinct_primes(n)]
    m = round(log(n, p))
    if n in (2, 4):
        isolated, edges = n // 2, 0
    elif p == 2:
        isolated, edges = 4, 2 ** (m - 1) - 2 ** (m - 2) - 2
    else:
        isolated, edges = 2, (n - n // p) // 2 - 1
    g = literal_cl2(n)
    shapes = Counter((len(c), g.subgraph(c).number_of_edges()) for c in nx.connected_components(g))
    assert shapes == +Counter({(1, 0): isolated, (2, 1): edges})
    want = " + ".join(f"{k} x ({v}v,{e}e)" for (v, e), k in sorted(shapes.items()))
    assert verify_prime_power(n).evidence["components"] == want


@pytest.mark.parametrize("n", SMALL_MODULI[1:])  # Z_2 has t = 1, outside the statement
def test_literal_shu_is_disconnected_exactly_on_a_null_input(n):
    # the idempotent graph, and the same vertices without their edges
    _, units, self_inverse = ring_data(n)
    t, k = len(self_inverse), len(units)
    full = literal_idempotent_graph(n)
    null = nx.Graph()
    null.add_nodes_from(full.nodes)
    for base in (full, null):
        shu = literal_shu(base, t, k)
        assert nx.is_connected(shu) == (base.number_of_edges() > 0)
        ours = Graph(map(str, base.nodes), [(str(u), str(v)) for u, v in base.edges])
        report = verify_shu_connectivity(ours, t, k)
        assert report.ok
        assert report.evidence["components"] == nx.number_connected_components(shu)
