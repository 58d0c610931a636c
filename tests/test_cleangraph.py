"""Clean graph family tests.

Expected edge sets were frozen from independent pair scans over the
defining predicates (e*f % n == 0, u*v % n == 1) written directly in
the test helpers below, not from the module under test.
"""

import gc
import hashlib
import sys
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from cleangraphs.cleangraph import (
    _ring,
    cl1,
    cl2,
    cl2_pairs,
    clean_graph,
    closed_form_degrees,
    idempotent_graph,
    legacy_degree,
    pair_label,
    predicted_degree,
)
from cleangraphs.graph import Graph, export
from cleangraphs.modring import ModRing, factorize

from graph_helpers import induced_subgraph

moduli = st.integers(min_value=2, max_value=80)


def literal_pair_graph(ring: ModRing, idempotents: tuple[int, ...]) -> Graph:
    """Reference builder: the defining predicate tested on every pair."""
    n = ring.modulus
    units = ring.units()
    verts = [(e, u) for e in idempotents for u in units]
    g = Graph(pair_label(e, u) for e, u in verts)
    for i, (e, u) in enumerate(verts):
        for j, (f, v) in enumerate(verts[i + 1 :], start=i + 1):
            if e * f % n == 0 or u * v % n == 1:
                g.link(i, j)
    return g


def literal_idempotent_graph(r: ModRing | int) -> Graph:
    """Reference builder: e*f = 0 tested on every pair of nontrivial
    idempotents, linked one edge at a time."""
    ring = _ring(r)
    n = ring.modulus
    verts = ring.nontrivial_idempotents()
    g = Graph(str(e) for e in verts)
    for i, e in enumerate(verts):
        for j, f in enumerate(verts[i + 1 :], start=i + 1):
            if e * f % n == 0:
                g.link(i, j)
    return g


def assert_same_store(g: Graph, want: Graph) -> None:
    assert g.labels == want.labels
    assert g.index == want.index
    assert g.adj == want.adj


@pytest.mark.parametrize("n", range(2, 301))
def test_cl2_matches_literal_pair_scan(n):
    ring = factorize(n)
    assert_same_store(cl2(ring), literal_pair_graph(ring, ring.nonzero_idempotents()))


@pytest.mark.parametrize("n", range(2, 121))
def test_clean_graph_and_cl1_match_literal_pair_scan(n):
    ring = factorize(n)
    assert_same_store(clean_graph(ring), literal_pair_graph(ring, ring.idempotents()))
    assert_same_store(cl1(ring), literal_pair_graph(ring, (0,)))


def test_idempotent_graph_matches_literal_pair_scan():
    for n in range(2, 3001):
        ring = factorize(n)
        assert_same_store(idempotent_graph(ring), literal_idempotent_graph(ring))


@pytest.mark.parametrize(
    "n,digest",
    [
        (210, "631a1ba781d0998236a8198acd0ac2a3fe567107d447e9e18675d4c58231a7ca"),
        (420, "2c61f7e1a7f6b20941d22fdd6fe3ffe2476b79efea14164cbf0e307e7651a426"),
    ],
)
def test_cl2_edgelist_digest(n, digest):
    text = export(cl2(n), "edgelist")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_cl2_incidence_digest():
    # 112 vertices and 1,804 edges, renumbered into label order by tiles
    text = export(cl2(60), "incidence")
    assert len(text) == 438_914
    assert hashlib.sha256(text.encode()).hexdigest() == "a9fde0f5275df4d7362fcbe796d64c7e1ce9b152319de3c761059211b6322f01"


@pytest.mark.parametrize(
    "builder,digest",
    [
        # 768 vertices, 97,428 edges, past the literal scans' n <= 120; the
        # zero idempotent's block is the one whose every row holds its own bit
        (clean_graph, "b68ef0f14c3a34a2e82d796d9c1dc9d25b229f1429271f731619fdef3a6701f9"),
        (cl1, "bf25ad4667c6953b4121ccb8c9cd9165b483daaa9b1fae5a967d361d6ebab6bf"),
    ],
    ids=["clean_graph", "cl1"],
)
def test_pair_graph_edgelist_digest_at_210(builder, digest):
    text = export(builder(210), "edgelist")
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -- tables kept with the ring ---------------------------------------------------

BUILDERS = {"cl2": cl2, "clean_graph": clean_graph, "cl1": cl1}
# the idempotents each builder's blocks are taken from
BLOCKS = {
    "cl2": ModRing.nonzero_idempotents,
    "clean_graph": ModRing.idempotents,
    "cl1": lambda ring: (0,),
}
# interleaved, so that each builder's first and later builds of one ring
# come between the others'
INTERLEAVED = ["cl2", "clean_graph", "cl2", "cl1", "clean_graph", "cl1", "cl2", "cl1", "clean_graph"]


@pytest.mark.parametrize("n", [*range(2, 401), 330, 390, 420, 462])
def test_builds_of_one_ring_equal_builds_on_fresh_rings(n):
    warm = factorize(n)
    for name in INTERLEAVED:
        assert_same_store(BUILDERS[name](warm), BUILDERS[name](factorize(n)))


@pytest.mark.parametrize("n", [*range(2, 41), 210])
def test_builds_of_one_ring_equal_the_literal_pair_scan(n):
    warm = factorize(n)
    want = {name: literal_pair_graph(warm, BLOCKS[name](warm)) for name in BUILDERS}
    for name in INTERLEAVED:
        assert_same_store(BUILDERS[name](warm), want[name])


@pytest.mark.parametrize("n", [30, 210])
def test_a_mutated_graph_leaves_the_next_build_alone(n):
    ring = factorize(n)
    for builder in BUILDERS.values():
        first = builder(ring)
        want = builder(factorize(n)).adj
        first.adj[0] = 0  # a row overwritten
        first.link(0, first.num_vertices - 1)  # an edge added
        first.adj.append(1)
        assert builder(ring).adj == want


def containers(value) -> list:
    """value and every list, tuple or dict inside it (dataclass fields
    too), the empty tuple left out because it is one shared object."""
    if hasattr(value, "__dataclass_fields__"):
        return [value, *(c for name in value.__dataclass_fields__ for c in containers(getattr(value, name)))]
    if isinstance(value, dict):
        return [value, *(c for v in value.values() for c in containers(v))]
    if isinstance(value, (list, tuple)) and value:
        return [value, *(c for v in value for c in containers(v))]
    return []


def build_everything(ring: ModRing) -> None:
    for builder in BUILDERS.values():
        builder(ring)
    closed_form_degrees(ring)
    ring.unit_partition()
    idempotent_graph(ring)


@pytest.mark.parametrize("n", [2, 8, 30, 210])
def test_two_rings_of_one_modulus_share_no_table(n):
    first, second = factorize(n), factorize(n)
    build_everything(first)
    build_everything(second)
    assert first._enumerated.keys() == second._enumerated.keys()
    assert ("pair tables", first.nonzero_idempotents()) in first._enumerated
    assert "closed form" in first._enumerated
    ours = {id(c) for c in containers(first._enumerated)}
    assert ours.isdisjoint(id(c) for c in containers(second._enumerated))


def test_ring_tables_die_with_the_ring():
    ring = factorize(210)
    g = cl2(ring)
    columns = ring._enumerated[("pair tables", ring.nonzero_idempotents())][0]
    closed_form_degrees(ring)
    predicted = ring._enumerated["closed form"][0]
    gone = weakref.ref(ring)
    del ring
    gc.collect()
    # the graph holds no reference to the ring, and nothing but the
    # names here and getrefcount's argument hold the tables
    assert gone() is None
    assert sys.getrefcount(columns) == sys.getrefcount(predicted) == 2
    assert g.num_vertices == 720
    # a new ring of the same modulus starts with no tables
    assert factorize(210)._enumerated == {}


@pytest.mark.parametrize("n", [2, 30, 210])
def test_closed_form_hands_out_fresh_columns(n):
    ring = factorize(n)
    first, second = closed_form_degrees(ring), closed_form_degrees(ring)
    assert first == second == closed_form_degrees(factorize(n))
    assert all(a is not b for a, b in zip(first, second))
    first[0].append(-1)
    first[1][0] = -1
    assert closed_form_degrees(ring) == second


def test_idempotent_graph_of_30():
    g = idempotent_graph(30)
    assert g.num_vertices == 6
    assert g.num_edges == 6
    assert g.edges() == (
        ("10", "15"),
        ("10", "21"),
        ("10", "6"),
        ("15", "16"),
        ("15", "6"),
        ("25", "6"),
    )


def test_idempotent_graph_of_210():
    g = idempotent_graph(210)
    assert g.num_vertices == 14
    assert g.num_edges == 25


def test_idempotent_graph_of_prime_power_is_empty():
    assert idempotent_graph(8).num_vertices == 0


def test_cl2_of_6():
    g = cl2(6)
    assert g.vertices == ("(1,1)", "(1,5)", "(3,1)", "(3,5)", "(4,1)", "(4,5)")
    assert g.edges() == (
        ("(1,1)", "(3,1)"),
        ("(1,1)", "(4,1)"),
        ("(1,5)", "(3,5)"),
        ("(1,5)", "(4,5)"),
        ("(3,1)", "(4,1)"),
        ("(3,1)", "(4,5)"),
        ("(3,5)", "(4,1)"),
        ("(3,5)", "(4,5)"),
    )


def test_clean_graph_of_4():
    # the zero-idempotent block is a clique, so this is K4 minus the
    # one pair (1,1)-(1,3) that fails both predicates
    g = clean_graph(4)
    assert g.num_vertices == 4
    assert g.num_edges == 5
    assert "(1,3)" not in g.neighbors("(1,1)")


def test_cl1_is_a_clique():
    g = cl1(10)
    assert g.num_vertices == 4
    assert g.num_edges == 6


@given(moduli)
@settings(max_examples=40, deadline=None)
def test_pieces_are_induced_subgraphs_of_clean(n):
    ring = factorize(n)
    whole = clean_graph(ring)
    zero_block = [pair_label(0, u) for u in ring.units()]
    nonzero_block = [
        pair_label(e, u) for e in ring.nonzero_idempotents() for u in ring.units()
    ]
    assert induced_subgraph(whole, zero_block) == cl1(ring)
    assert induced_subgraph(whole, nonzero_block) == cl2(ring)
    assert whole.num_vertices == len(zero_block) + len(nonzero_block)


@given(moduli)
@settings(max_examples=40, deadline=None)
def test_adjacency_matches_defining_predicate(n):
    g = clean_graph(n)
    ring = factorize(n)
    pairs = [(e, u) for e in ring.idempotents() for u in ring.units()]
    for i, (e, u) in enumerate(pairs):
        nbrs = g.neighbors(pair_label(e, u))
        for f, v in pairs[i + 1 :]:
            want = e * f % n == 0 or u * v % n == 1
            assert (pair_label(f, v) in nbrs) == want


def test_predicted_degree_examples():
    assert predicted_degree(10, 6, 3) == 6
    assert legacy_degree(10, 6, 3) == 7
    assert predicted_degree(10, 6, 9) == 5
    assert predicted_degree(10, 1, 9) == 2
    assert predicted_degree(2, 1, 1) == 0


def test_predicted_degree_validates_arguments():
    with pytest.raises(ValueError):
        predicted_degree(10, 0, 3)
    with pytest.raises(ValueError):
        predicted_degree(10, 2, 3)
    with pytest.raises(ValueError):
        predicted_degree(10, 6, 4)
    with pytest.raises(ValueError):
        legacy_degree(10, 0, 3)


@given(moduli)
@settings(max_examples=30, deadline=None)
def test_degree_formula_against_built_graph(n):
    ring = factorize(n)
    g = cl2(ring)
    for e in ring.nonzero_idempotents():
        for u in ring.units():
            assert len(g.neighbors(pair_label(e, u))) == predicted_degree(ring, e, u)


@pytest.mark.parametrize("n", range(2, 301))
def test_closed_form_degrees_match_the_per_vertex_forms(n):
    # both per-block columns against the per-vertex statements they
    # replace in the verifiers, vertex for vertex
    ring = factorize(n)
    pairs = cl2_pairs(ring)
    want = (
        [predicted_degree(ring, e, u) for e, u in pairs],
        [legacy_degree(ring, e, u) for e, u in pairs],
    )
    assert closed_form_degrees(ring) == want
    assert closed_form_degrees(n) == want


@pytest.mark.parametrize("n", [*range(2, 61), 210])
def test_cl2_pairs_follow_the_stored_vertex_order(n):
    assert cl2(n).labels == [pair_label(e, u) for e, u in cl2_pairs(n)]


def test_accepts_ring_and_int_arguments():
    assert cl2(6) == cl2(factorize(6))
    assert idempotent_graph(30) == idempotent_graph(factorize(30))
