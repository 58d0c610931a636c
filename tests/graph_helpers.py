"""Graphs the tests build but the package does not need: paths, empty
graphs, circulants, ladders, seeded random connected graphs and their
double-edge swaps, disjoint unions, relabellings, induced subgraphs and
one graph of each isomorphism type; a witness spelt in labels; and a
text stream that hands out its text a few characters a read.

Every helper builds through ``Graph(labels, edges)`` and reads only
``vertices`` and ``edges()``, so it holds whatever the adjacency store.
"""

import random
from itertools import combinations, cycle
from typing import Iterable, Mapping

from cleangraphs.graph import Graph, find_isomorphism


def labels(k: int) -> list[str]:
    return [f"v{i}" for i in range(1, k + 1)]


def empty_graph(k: int) -> Graph:
    return Graph(labels(k))


def path_graph(k: int) -> Graph:
    names = labels(k)
    return Graph(names, zip(names, names[1:]))


def circulant_graph(m: int, steps: Iterable[int], prefix: str = "c") -> Graph:
    """Vertex i joined to i + s mod m for each step s; the cycle C_m is
    the circulant with the step 1.  Vertex i is ``{prefix}{i}``."""
    names = [f"{prefix}{i}" for i in range(m)]
    return Graph(names, [(names[i], names[(i + s) % m]) for s in steps for i in range(m) if s % m])


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


def spelt(g: Graph, h: Graph, perm) -> tuple[tuple[str, str], ...]:
    """The witness perm, vertex i of g onto vertex ``perm[i]`` of h, as
    sorted (g label, h label) pairs."""
    names = h.vertices
    return tuple(sorted(zip(g.vertices, [names[j] for j in perm])))


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


def ladder_graph(m: int, prefix: str, twisted: bool) -> Graph:
    """The prism over an m-cycle (two m-cycles with i joined to i + m),
    or with ``twisted`` the Moebius ladder (one 2m-cycle with i joined
    to i + m); vertex i is ``{prefix}{i}``.  Both are cubic on 2m
    vertices, and only the prism is bipartite for even m."""
    if twisted:
        rails = [(i, (i + 1) % (2 * m)) for i in range(2 * m)]
    else:
        ring = [(i, (i + 1) % m) for i in range(m)]
        rails = ring + [(a + m, b + m) for a, b in ring]
    edges = rails + [(i, i + m) for i in range(m)]
    names = [f"{prefix}{i}" for i in range(2 * m)]
    return Graph(names, [(names[a], names[b]) for a, b in edges])


def random_connected_graph(seed: int, k: int, m: int) -> tuple[Graph, Graph]:
    """A seeded random connected graph on k >= 1 vertices and m edges,
    k - 1 <= m <= k(k - 1)/2, and a copy relabelled at random and stored
    in label order.
    Each vertex after the first is joined to an earlier one, then random
    pairs are added until there are m edges; vertex i is ``a{i}`` and its
    copy ``b{j}`` for a shuffled j."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(k)]
    pairs = {(rng.randrange(i), i) for i in range(1, k)}
    while len(pairs) < m:
        a, b = sorted(rng.sample(range(k), 2))
        pairs.add((a, b))
    g = Graph(names, [(names[a], names[b]) for a, b in sorted(pairs)])
    copies = [f"b{j}" for j in range(k)]
    rng.shuffle(copies)
    copy = relabel(g, dict(zip(names, copies)))
    return g, Graph(sorted(copy.vertices), copy.edges())


def double_edge_swaps(g: Graph, tries: int, seed: int) -> Graph:
    """g after ``tries`` seeded tries at a double-edge swap: two edges ab
    and cd on four distinct vertices become ad and cb when neither is an
    edge yet, else the try changes nothing.  Every vertex keeps its
    degree, so the result has g's degree sequence; g needs two edges."""
    rng = random.Random(seed)
    edges = set(g.edges())
    for _ in range(tries):
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        ad, cb = tuple(sorted((a, d))), tuple(sorted((c, b)))
        if len({a, b, c, d}) == 4 and ad not in edges and cb not in edges:
            edges -= {(a, b), (c, d)}
            edges |= {ad, cb}
    return Graph(g.vertices, sorted(edges))


class Trickle:
    """A text stream over ``text`` whose reads return at most the next
    of ``steps`` characters (cycled), so a read can end anywhere, between
    "\\r" and "\\n" included.  A read with no size, or a negative one,
    raises: whoever reads this stream never reads it whole."""

    def __init__(self, text: str, steps: Iterable[int] = (1, 2, 3)) -> None:
        self.text, self.at, self.steps = text, 0, cycle(steps)

    def read(self, size: int | None = -1) -> str:
        if size is None or size < 0:
            raise RuntimeError("the stream was asked for all of its text")
        size = min(size, next(self.steps))
        self.at += size
        return self.text[self.at - size : self.at]
