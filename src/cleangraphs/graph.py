"""Small simple-graph toolkit: construction, components, isomorphism search,
deterministic export.

Vertices are the indices 0..V-1 in insertion order, and every algorithm
works on them.  String labels appear only at the boundary: the
label-taking methods, isomorphism witnesses, export and parsing.
Graphs are undirected, loop-free and unweighted; that is all the ring
constructions need.  The isomorphism searcher is independent of any
structure theorem so it can serve as a neutral cross-check for
constructive witnesses.
"""

from __future__ import annotations

import csv
import io
import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator, Literal, Mapping, Sequence, TypeVar

# exact canonicalization is factorial in component size; above this we
# fall back to invariant comparison
MAX_CANON_VERTICES = 8

DEFAULT_SEARCH_BUDGET = 10_000_000


class Graph:
    """Mutable simple graph: vertex i has label ``labels[i]`` and the
    neighbour indices ``adj[i]``; ``index`` maps each label back to i."""

    __slots__ = ("labels", "index", "adj")

    def __init__(
        self,
        vertices: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        # repeated labels keep their first position
        self.labels: list[str] = list(dict.fromkeys(vertices))
        for v in self.labels:
            if not isinstance(v, str):
                raise TypeError(f"vertex labels must be str, got {type(v).__name__}")
        self.index: dict[str, int] = dict(zip(self.labels, range(len(self.labels))))
        self.adj: list[set[int]] = [set() for _ in self.labels]
        for a, b in edges:
            self.add_edge(a, b)

    # -- mutation ------------------------------------------------------------

    def add_vertex(self, v: str) -> int:
        """Index of vertex v, added first if it is new."""
        i = self.index.get(v)
        if i is None:
            if not isinstance(v, str):
                raise TypeError(f"vertex labels must be str, got {type(v).__name__}")
            i = self.index[v] = len(self.labels)
            self.labels.append(v)
            self.adj.append(set())
        return i

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            raise ValueError(f"self-loop at {a!r} not allowed")
        self.link(self.add_vertex(a), self.add_vertex(b))

    def link(self, i: int, j: int) -> None:
        """Add the edge between the vertices with indices i and j."""
        if i == j:
            raise ValueError(f"self-loop at {self.labels[i]!r} not allowed")
        self.adj[i].add(j)
        self.adj[j].add(i)

    # -- inspection ------------------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(self.labels)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adj)) // 2

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges as label pairs, smaller label first, sorted."""
        return tuple((a, b) for a, later in _ranked_rows(self, self.labels) for b in later)

    def has_vertex(self, v: str) -> bool:
        return v in self.index

    def has_edge(self, a: str, b: str) -> bool:
        i = self.index.get(a)
        return i is not None and self.index.get(b) in self.adj[i]

    def neighbors(self, v: str) -> frozenset[str]:
        labels = self.labels
        return frozenset([labels[j] for j in self.adj[self.index[v]]])

    def degree(self, v: str) -> int:
        return len(self.adj[self.index[v]])

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees in non-increasing order."""
        return tuple(sorted(map(len, self.adj), reverse=True))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self.labels) == set(other.labels) and self.edges() == other.edges()

    def __repr__(self) -> str:
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges)"

    # -- derived graphs ------------------------------------------------------

    def _subgraph(self, keep: list[int]) -> "Graph":
        """Induced subgraph on the vertex indices ``keep``, in that order."""
        g = Graph(self.labels[i] for i in keep)
        new = dict(zip(keep, range(len(keep))))
        g.adj = [{new[j] for j in self.adj[i] if j in new} for i in keep]
        return g

    def induced_subgraph(self, keep: Iterable[str]) -> "Graph":
        keep_set = set(keep)
        missing = keep_set - self.index.keys()
        if missing:
            raise ValueError(f"not vertices of this graph: {sorted(missing)}")
        return self._subgraph(sorted(self.index[v] for v in keep_set))

    def relabel(self, mapping: Mapping[str, str]) -> "Graph":
        """Injectively rename every vertex."""
        if set(mapping) != self.index.keys():
            raise ValueError("mapping must cover exactly the vertex set")
        if len(set(mapping.values())) != len(mapping):
            raise ValueError("mapping must be injective")
        g = Graph(mapping[v] for v in self.labels)
        g.adj = [set(row) for row in self.adj]
        return g

    def _component(self, start: int) -> set[int]:
        """Indices of the vertices reachable from index ``start``."""
        part, stack = {start}, [start]
        while stack:
            new = self.adj[stack.pop()] - part
            part |= new
            stack += new
        return part

    def connected_components(self) -> list["Graph"]:
        """Induced component subgraphs, largest first, ties by vertex labels."""
        seen: set[int] = set()
        comps: list[Graph] = []
        for start in range(len(self.labels)):
            if start not in seen:
                part = self._component(start)
                seen |= part
                comps.append(self._subgraph(sorted(part)))
        comps.sort(key=lambda c: (-c.num_vertices, c.vertices))
        return comps

    def is_connected(self) -> bool:
        return not self.labels or len(self._component(0)) == len(self.labels)


# -- stock constructions -------------------------------------------------------


def _labels(k: int) -> list[str]:
    if k < 0:
        raise ValueError("vertex count must be >= 0")
    return [f"v{i}" for i in range(1, k + 1)]


def complete_graph(k: int) -> Graph:
    g = Graph(_labels(k))
    for i in range(k):
        for j in range(i + 1, k):
            g.link(i, j)
    return g


def empty_graph(k: int) -> Graph:
    return Graph(_labels(k))


def path_graph(k: int) -> Graph:
    g = Graph(_labels(k))
    for i in range(k - 1):
        g.link(i, i + 1)
    return g


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    """Disjoint union; vertex v of the i-th input becomes ``p{i}_{v}``."""
    out = Graph()
    for i, g in enumerate(graphs):
        at = [out.add_vertex(f"p{i}_{v}") for v in g.labels]
        for a, row in enumerate(g.adj):
            for b in row:
                if a < b:
                    out.link(at[a], at[b])
    return out


# -- canonical forms and component summaries -----------------------------------


def canonical_form(g: Graph) -> tuple[int, int] | None:
    """(k, code) minimal over all vertex orderings, or None above the cap.

    ``code`` packs the upper triangle of the permuted adjacency matrix
    into an int, so equal forms mean isomorphic graphs (exactly).
    """
    k = g.num_vertices
    if k > MAX_CANON_VERTICES:
        return None
    best: int | None = None
    for perm in permutations(range(k)):
        code = 0
        for i in range(k):
            row = g.adj[perm[i]]
            for j in range(i + 1, k):
                code = code << 1 | (perm[j] in row)
        if best is None or code < best:
            best = code
    return (k, best if best is not None else 0)


@dataclass(frozen=True)
class ComponentSummary:
    """Multiset of per-component keys, exact for small components.

    Each key is (vertices, edges, degree sequence, canonical form or
    None).  Two graphs with equal summaries have matching component
    structure; when every component fits under the canonicalization cap
    the match is exact isomorphism type by type.
    """

    counts: tuple[tuple[tuple, int], ...]

    @classmethod
    def of(cls, g: Graph) -> "ComponentSummary":
        keys = Counter(
            (c.num_vertices, c.num_edges, c.degree_sequence(), canonical_form(c))
            for c in g.connected_components()
        )
        return cls(tuple(sorted(keys.items())))

    def describe(self) -> str:
        parts = []
        for (nv, ne, _, _), mult in self.counts:
            parts.append(f"{mult} x ({nv}v,{ne}e)")
        return " + ".join(parts) if parts else "empty"


# -- isomorphism -----------------------------------------------------------


@dataclass(frozen=True)
class IsoWitness:
    """Vertex bijection presented as sorted (source, target) pairs."""

    pairs: tuple[tuple[str, str], ...]

    @classmethod
    def from_dict(cls, mapping: Mapping[str, str]) -> "IsoWitness":
        return cls(tuple(sorted(mapping.items())))

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)


@dataclass(frozen=True)
class IsoResult:
    status: Literal["isomorphic", "not_isomorphic", "inconclusive"]
    witness: IsoWitness | None
    nodes_expanded: int

    @property
    def decided(self) -> bool:
        return self.status != "inconclusive"


def verify_mapping(g: Graph, h: Graph, mapping: Mapping[str, str] | IsoWitness) -> bool:
    """Check that mapping is a graph isomorphism from g onto h.

    The label mapping becomes one permutation of vertex indices; a
    bijection is an isomorphism when it carries every vertex's
    neighbour set exactly onto the neighbour set of its image.  With
    equal edge counts it is enough that each image lands inside the
    image vertex's neighbour set: containment in every row then forces
    equality.
    """
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
        h.adj[perm[i]].issuperset(map(perm.__getitem__, row)) for i, row in enumerate(g.adj)
    )


def _joint_refinement(g: Graph, h: Graph) -> tuple[list[int], list[int]] | None:
    """Degree-seeded color refinement run over both graphs at once.

    Returns stable colorings (by vertex index) sharing one palette, or
    None as soon as the color histograms split (which certifies
    non-isomorphism).
    """
    cg = [len(row) for row in g.adj]
    ch = [len(row) for row in h.adj]
    while True:
        if Counter(cg) != Counter(ch):
            return None
        palette: dict[tuple, int] = {}

        def recolor(adj: list[set[int]], colors: list[int]) -> list[int]:
            return [
                palette.setdefault((c, tuple(sorted([colors[w] for w in row]))), len(palette))
                for c, row in zip(colors, adj)
            ]

        ng, nh = recolor(g.adj, cg), recolor(h.adj, ch)
        stable = len(set(ng)) == len(set(cg))
        cg, ch = ng, nh
        if stable:
            if Counter(cg) != Counter(ch):
                return None
            return cg, ch


def _search_order(g: Graph, colors: list[int]) -> list[int]:
    """Vertex indices in backtracking order: stay adjacent to the mapped
    prefix, prefer rare colors and high degree, then the smaller label."""
    class_size = Counter(colors)
    labels, adj = g.labels, g.adj
    placed_nbrs = [0] * len(labels)
    order: list[int] = []
    remaining = set(range(len(labels)))
    while remaining:
        v = min(
            remaining,
            key=lambda u: (-placed_nbrs[u], class_size[colors[u]], -len(adj[u]), labels[u]),
        )
        order.append(v)
        remaining.remove(v)
        for w in adj[v]:
            placed_nbrs[w] += 1
    return order


def find_isomorphism(
    g: Graph, h: Graph, budget: int = DEFAULT_SEARCH_BUDGET
) -> IsoResult:
    """Decide whether g and h are isomorphic, within a node budget.

    Pipeline: cheap invariants, then joint color refinement, then
    color-respecting backtracking.  Exhausting the search space proves
    non-isomorphism; exceeding ``budget`` node expansions yields
    ``inconclusive`` instead of a wrong verdict.  Ties in the search
    order and among candidates are broken by label, so the result does
    not depend on the order the vertices were added in.  A witness is
    returned only once verify_mapping accepts it; RuntimeError otherwise.
    """
    if g.num_vertices != h.num_vertices or g.num_edges != h.num_edges:
        return IsoResult("not_isomorphic", None, 0)
    if g.degree_sequence() != h.degree_sequence():
        return IsoResult("not_isomorphic", None, 0)
    if g.num_vertices == 0:
        return IsoResult("isomorphic", IsoWitness(()), 0)

    refined = _joint_refinement(g, h)
    if refined is None:
        return IsoResult("not_isomorphic", None, 0)
    cg, ch = refined

    order = _search_order(g, cg)
    k = len(order)
    # candidates of each color, in label order
    by_color: dict[int, list[int]] = {}
    for v in sorted(range(k), key=h.labels.__getitem__):
        by_color.setdefault(ch[v], []).append(v)
    # back[d]: the neighbours of order[d] that come before it in the order
    back: list[list[int]] = []
    placed: set[int] = set()
    for v in order:
        back.append([w for w in g.adj[v] if w in placed])
        placed.add(v)

    image = [0] * k  # image[v]: the h vertex that g vertex v is mapped to
    used: set[int] = set()
    cand_iters: list[Iterable[int]] = [iter(by_color.get(cg[order[0]], []))]
    depth = 0
    expanded = 0

    while depth >= 0:
        for cand in cand_iters[depth]:
            if cand in used:
                continue
            expanded += 1
            if expanded > budget:
                return IsoResult("inconclusive", None, expanded)
            # exact consistency with the mapped prefix: the mapped neighbours
            # of the current vertex must land on neighbours of cand, and no
            # other mapped vertex may, so non-edges match too
            want = back[depth]
            cn = h.adj[cand]
            if any(image[w] not in cn for w in want) or len(cn & used) != len(want):
                continue
            image[order[depth]] = cand
            used.add(cand)
            depth += 1
            if depth == k:
                witness = IsoWitness.from_dict({g.labels[v]: h.labels[image[v]] for v in range(k)})
                if not verify_mapping(g, h, witness):
                    raise RuntimeError("searcher built a witness that is not an isomorphism")
                return IsoResult("isomorphic", witness, expanded)
            cand_iters.append(iter(by_color.get(cg[order[depth]], [])))
            break
        else:
            cand_iters.pop()
            depth -= 1
            if depth >= 0:
                used.discard(image[order[depth]])
    return IsoResult("not_isomorphic", None, expanded)


# -- serialization -----------------------------------------------------------

EXPORT_FORMATS = ("dot", "json", "edgelist", "incidence")

T = TypeVar("T")


def _ranked_rows(g: Graph, names: Sequence[T]) -> Iterator[tuple[T, list[T]]]:
    """The sorted edge list a row at a time, as ``names`` write the vertices.

    For each vertex in label order that has neighbours later in label
    order: its name and the names of those neighbours, in label order.
    ``names[i]`` stands for vertex i, so one walk serves labels, encoded
    labels and indices alike.
    """
    labels = g.labels
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    rank = sorted(range(len(labels)), key=by_label.__getitem__)  # inverse of by_label
    ranked = [names[i] for i in by_label]
    for r, i in enumerate(by_label):
        row = sorted(map(rank.__getitem__, g.adj[i]))
        later = row[bisect_right(row, r) :]
        if later:
            yield ranked[r], list(map(ranked.__getitem__, later))


def _check_exportable(g: Graph) -> None:
    # an empty label cannot be parsed back, and a trailing backslash would
    # escape the closing quote in DOT
    for v in g.labels:
        if not v:
            raise ValueError("empty vertex label")
        if v.endswith("\\"):
            raise ValueError(f"label {v!r} ends in a backslash")
        if v.split() != [v] or '"' in v:
            raise ValueError(f"label {v!r} contains whitespace or quotes")


def export(g: Graph, fmt: str) -> str:
    """Render g in one of EXPORT_FORMATS.  Output is deterministic:
    vertices in stored order, edges sorted.

    Edges are written a row at a time: every edge of one row shares its
    first vertex, so a row becomes one ``str.join`` over its later
    neighbours.
    """
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {EXPORT_FORMATS}")
    _check_exportable(g)
    labels = g.labels
    if fmt == "dot":
        lines = ["graph {"]
        lines += [f'  "{v}";' for v in labels]
        for a, later in _ranked_rows(g, labels):
            head = f'  "{a}" -- "'
            lines.append(head + ('";\n' + head).join(later) + '";')
        lines.append("}")
        return "\n".join(lines) + "\n"
    if fmt == "json":
        # the layout of json.dumps({"vertices": ..., "edges": ...}, indent=2)
        # with each label encoded by json.dumps itself
        quoted = list(map(json.dumps, labels))
        rows = []
        for a, later in _ranked_rows(g, quoted):
            head, tail = f"    [\n      {a},\n      ", "\n    ]"
            rows.append(head + (tail + ",\n" + head).join(later) + tail)
        vertices = "[\n    " + ",\n    ".join(quoted) + "\n  ]" if quoted else "[]"
        edges = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        return f'{{\n  "vertices": {vertices},\n  "edges": {edges}\n}}\n'
    if fmt == "edgelist":
        lines = [f"# {g.num_vertices} vertices, {g.num_edges} edges"]
        lines += [f"v {v}" for v in labels]
        for a, later in _ranked_rows(g, labels):
            head = f"e {a} "
            lines.append(head + ("\n" + head).join(later))
        return "\n".join(lines) + "\n"
    # incidence: rows follow vertex storage order, columns the sorted edges;
    # each vertex row is filled from the columns of its own edges, with
    # cells as strings so that csv need not convert them
    header = ["vertex"]
    columns: list[list[int]] = [[] for _ in labels]
    for i, later in _ranked_rows(g, range(len(labels))):
        for j in later:
            columns[i].append(len(header))
            columns[j].append(len(header))
            header.append(f"{labels[i]}--{labels[j]}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for v, mine in zip(labels, columns):
        row = ["0"] * len(header)
        row[0] = v
        for c in mine:
            row[c] = "1"
        writer.writerow(row)
    return buf.getvalue()


def parse_edgelist(text: str) -> Graph:
    """Inverse of export(..., "edgelist"); comments and blanks ignored.

    Vertices referenced only by ``e`` lines are added implicitly, so
    plain two-column edge files load too.  The common ``e a b`` line is
    tested first, and a run of lines sharing their first label looks
    that label up once.
    """
    g = Graph()
    index, adj = g.index, g.adj
    last, i, row = None, 0, set()
    for fields in map(str.split, text.splitlines()):
        if len(fields) == 3 and fields[0] == "e":
            _, a, b = fields
            if a == b:
                raise ValueError(f"self-loop at {a!r} not allowed")
            if a != last:
                i = g.add_vertex(a)
                last, row = a, adj[i]
            j = index.get(b)
            if j is None:
                j = g.add_vertex(b)
            row.add(j)
            adj[j].add(i)
        elif not fields or fields[0].startswith("#"):
            continue
        elif fields[0] == "v" and len(fields) == 2:
            g.add_vertex(fields[1])
        else:
            # how a line is read depends on its fields alone, so the first
            # line with these fields is the one that failed
            for ln, raw in enumerate(text.splitlines(), start=1):
                if raw.split() == fields:
                    raise ValueError(f"line {ln}: cannot parse {raw!r}")
    return g
