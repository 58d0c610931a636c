"""Graphs the tests build but the package does not need: paths, empty
graphs, disjoint unions, relabellings, induced subgraphs and one graph
of each isomorphism type.

Every helper builds through ``Graph(labels, edges)`` and reads only
``vertices`` and ``edges()``, so it holds whatever the adjacency store.
"""

from itertools import combinations
from typing import Iterable, Mapping

from cleangraphs.graph import Graph, find_isomorphism


def labels(k: int) -> list[str]:
    return [f"v{i}" for i in range(1, k + 1)]


def empty_graph(k: int) -> Graph:
    return Graph(labels(k))


def path_graph(k: int) -> Graph:
    names = labels(k)
    return Graph(names, zip(names, names[1:]))


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    """Vertex v of the i-th input becomes ``p{i}_{v}``."""
    names: list[str] = []
    edges: list[tuple[str, str]] = []
    for i, g in enumerate(graphs):
        names += [f"p{i}_{v}" for v in g.vertices]
        edges += [(f"p{i}_{a}", f"p{i}_{b}") for a, b in g.edges()]
    return Graph(names, edges)


def relabel(g: Graph, mapping: Mapping[str, str]) -> Graph:
    """g with each vertex v renamed ``mapping[v]``, in the same order."""
    return Graph([mapping[v] for v in g.vertices], [(mapping[a], mapping[b]) for a, b in g.edges()])


def induced_subgraph(g: Graph, keep: Iterable[str]) -> Graph:
    kept = set(keep)
    return Graph(
        [v for v in g.vertices if v in kept],
        [(a, b) for a, b in g.edges() if a in kept and b in kept],
    )


def graph_types(k: int) -> list[Graph]:
    """One graph on v1..vk for each isomorphism type: every edge set in
    turn, kept when the searcher finds it isomorphic to none kept so far."""
    pairs = list(combinations(labels(k), 2))
    types: list[Graph] = []
    for mask in range(1 << len(pairs)):
        g = Graph(labels(k), [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
        if all(find_isomorphism(g, h).status == "not_isomorphic" for h in types):
            types.append(g)
    return types
