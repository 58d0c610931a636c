"""Clean graph family tests.

Expected edge sets were frozen from independent pair scans over the
defining predicates (e*f % n == 0, u*v % n == 1) written directly in
the test helpers below, not from the module under test.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cleangraphs.cleangraph import (
    cl1,
    cl2,
    cl2_pairs,
    clean_graph,
    idempotent_graph,
    legacy_degree,
    pair_label,
    predicted_degree,
)
from cleangraphs.modring import factorize

moduli = st.integers(min_value=2, max_value=80)


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
    assert not g.has_edge("(1,1)", "(1,3)")


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
    assert whole.induced_subgraph(zero_block) == cl1(ring)
    assert whole.induced_subgraph(nonzero_block) == cl2(ring)
    assert whole.num_vertices == len(zero_block) + len(nonzero_block)


@given(moduli)
@settings(max_examples=40, deadline=None)
def test_adjacency_matches_defining_predicate(n):
    g = clean_graph(n)
    ring = factorize(n)
    pairs = [(e, u) for e in ring.idempotents() for u in ring.units()]
    for i, (e, u) in enumerate(pairs):
        for f, v in pairs[i + 1 :]:
            want = e * f % n == 0 or u * v % n == 1
            assert g.has_edge(pair_label(e, u), pair_label(f, v)) == want


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
            assert g.degree(pair_label(e, u)) == predicted_degree(ring, e, u)


@pytest.mark.parametrize("n", [*range(2, 61), 210])
def test_cl2_pairs_follow_the_stored_vertex_order(n):
    assert cl2(n).labels == [pair_label(e, u) for e, u in cl2_pairs(n)]


def test_accepts_ring_and_int_arguments():
    assert cl2(6) == cl2(factorize(6))
    assert idempotent_graph(30) == idempotent_graph(factorize(30))
