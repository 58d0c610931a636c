"""Small simple-graph toolkit: construction, components, isomorphism search,
deterministic export.

Vertices are the indices 0..V-1 in insertion order, and every algorithm
works on them.  String labels appear only at the boundary: the
label-taking methods, the witnesses the searcher returns, export and
parsing.  A builder hands ``Graph.from_rows`` a label source, and the
labels and their index are built when first read, so a graph that is
only checked never makes them.  ``verify_mapping`` takes a witness as a
permutation of indices, and translates a label map to one.
Each vertex's neighbours are one int, a bitset with bit j set when
vertex j is a neighbour: degrees are bit counts, and a row is built or
compared whole instead of an entry at a time.
Graphs are undirected, loop-free and unweighted; that is all the ring
constructions need.  The isomorphism searcher is independent of any
structure theorem so it can serve as a neutral cross-check for
constructive witnesses.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Iterator, Literal, Mapping, Sequence, TypeVar

DEFAULT_SEARCH_BUDGET = 10_000_000

# a row with more than 1/DENSE of its width set is read in one pass over
# all its binary digits, a sparser one a non-zero byte at a time; a row
# with fewer than FEW set bits is split or built one bit at a time
DENSE = 16
FEW = 16

T = TypeVar("T")


# -- bitset rows -----------------------------------------------------------------

_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to bit values
_NONZERO = bytes([0] + [1] * 255)  # a byte to 1 when it has a set bit
# _OFFSETS[c]: the set bits of the byte c; those with bit b set are the
# ones below 1 << b with b added
_OFFSETS: list[tuple[int, ...]] = [()]
for _bit in range(8):
    _OFFSETS += [bits + (_bit,) for bits in _OFFSETS]


def _select(row: int, values: Sequence[T]) -> list[T]:
    """``values[j]`` for each set bit j of row, in increasing j; with
    ``range(V)`` as the values, the indices of the set bits.

    A few bits are split off the top one at a time.  A dense row is read
    in one pass over its binary digits.  A sparse one is written as
    little-endian bytes, and each non-zero byte is found by a byte search
    and gives up its set bits, so the cost is V/8 bytes plus the bits.
    """
    count = row.bit_count()
    if count < FEW:
        out = []
        while row:
            j = row.bit_length() - 1
            out.append(values[j])
            row ^= 1 << j
        out.reverse()
        return out
    width = row.bit_length()
    if count * DENSE > width:
        digits = bin(row)[:1:-1]  # bit j is digits[j]
        return list(compress(values, digits.encode().translate(_BITS)))
    data = row.to_bytes((width + 7) // 8, "little")
    find = data.translate(_NONZERO).find
    out = []
    at = find(1)
    while at >= 0:
        base = 8 * at
        for b in _OFFSETS[data[at]]:
            out.append(values[base + b])
        at = find(1, at + 1)
    return out


def _row_of(indices: list[int], width: int) -> int:
    """The row whose set bits are ``indices`` (repeats allowed), all
    below ``width``.

    A few bits are added one at a time; more are written as "1"s into a
    string of "0"s that is read as one binary number, so the cost is the
    width plus the indices rather than their product.
    """
    if len(indices) < FEW:
        return reduce(or_, map((1).__lshift__, indices), 0)
    digits = bytearray(b"0") * width
    for j in indices:
        digits[j] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


class Graph:
    """Mutable simple graph: vertex i has the neighbour row ``adj[i]``, an
    int with bit j set when j is a neighbour, and the label ``labels[i]``;
    ``index`` maps each label back to i.

    ``labels`` and ``index`` are built when first read, from the label
    source the graph was made with, so a graph that nothing asks for a
    label never makes one.  A builder's label source may only read data
    that never changes after the build.
    """

    __slots__ = ("adj", "_source", "_labels", "_index")

    def __init__(
        self,
        vertices: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        # repeated labels keep their first position; the labels are built,
        # and so checked, at once
        source = dict.fromkeys(vertices)
        self.adj: list[int] = [0] * len(source)
        self._source: Iterable[str] | None = source
        self._build_labels()
        for a, b in edges:
            self.add_edge(a, b)

    @classmethod
    def from_rows(cls, labels: Iterable[str], rows: list[int]) -> "Graph":
        """The graph whose vertex i has the neighbour row ``rows[i]`` and
        the i-th of the distinct ``labels``; the rows must be symmetric
        and have no vertex's own bit set.  The labels are read, and
        checked, when ``labels`` or ``index`` is first read."""
        g = cls.__new__(cls)
        g.adj, g._source, g._labels, g._index = rows, labels, None, None
        return g

    def _build_labels(self) -> None:
        # the source is read once, so that a failed check fails alike again
        labels = self._source = list(dict.fromkeys(self._source))
        for v in labels:
            if not isinstance(v, str):
                raise TypeError(f"vertex labels must be str, got {type(v).__name__}")
        if len(labels) != len(self.adj):
            raise ValueError(f"{len(self.adj)} rows for {len(labels)} distinct labels")
        self._index = dict(zip(labels, range(len(labels))))
        self._labels, self._source = labels, None

    @property
    def labels(self) -> list[str]:
        if self._labels is None:
            self._build_labels()
        return self._labels

    @property
    def index(self) -> dict[str, int]:
        if self._index is None:
            self._build_labels()
        return self._index

    # -- mutation ------------------------------------------------------------

    def add_vertex(self, v: str) -> int:
        """Index of vertex v, added first if it is new."""
        index = self.index
        i = index.get(v)
        if i is None:
            if not isinstance(v, str):
                raise TypeError(f"vertex labels must be str, got {type(v).__name__}")
            i = index[v] = len(self.adj)
            self._labels.append(v)
            self.adj.append(0)
        return i

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            raise ValueError(f"self-loop at {a!r} not allowed")
        self.link(self.add_vertex(a), self.add_vertex(b))

    def link(self, i: int, j: int) -> None:
        """Add the edge between the vertices with indices i and j."""
        if i == j:
            raise ValueError(f"self-loop at {self.labels[i]!r} not allowed")
        self.adj[i] |= 1 << j
        self.adj[j] |= 1 << i

    # -- inspection ------------------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(self.labels)

    @property
    def num_vertices(self) -> int:
        return len(self.adj)

    @property
    def num_edges(self) -> int:
        return sum(self.degrees()) // 2

    def edges(self) -> tuple[tuple[str, str], ...]:
        """All edges as label pairs, smaller label first, sorted."""
        return tuple((a, b) for a, later in _ranked_rows(self, self.labels) for b in later)

    def has_vertex(self, v: str) -> bool:
        return v in self.index

    def neighbors(self, v: str) -> frozenset[str]:
        return frozenset(_select(self.adj[self.index[v]], self.labels))

    def degrees(self) -> list[int]:
        """Every vertex's degree, in index order."""
        return list(map(int.bit_count, self.adj))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return set(self.labels) == set(other.labels) and self.edges() == other.edges()

    def __repr__(self) -> str:
        return f"Graph({self.num_vertices} vertices, {self.num_edges} edges)"

    # -- derived graphs ------------------------------------------------------

    def _subgraph(self, part: int) -> "Graph":
        """Induced subgraph on the vertices of the row ``part``, in index order."""
        everyone = range(len(self.adj))
        keep = _select(part, everyone)
        new = dict(zip(keep, range(len(keep))))  # old index -> new index
        nbrs = [[new[j] for j in _select(self.adj[i] & part, everyone)] for i in keep]
        rows = [_row_of(js, len(keep)) for js in nbrs]
        return Graph.from_rows([self.labels[i] for i in keep], rows)

    def _component(self, start: int) -> int:
        """The set of vertices reachable from index ``start``, as a row:
        each step adds the rows of the vertices the last step reached."""
        part = frontier = 1 << start
        while frontier:
            frontier = reduce(or_, _select(frontier, self.adj)) & ~part
            part |= frontier
        return part

    def _components(self) -> Iterator[int]:
        """Each connected component as a row, in the order of its lowest vertex."""
        unseen = (1 << len(self.adj)) - 1
        while unseen:
            # the component of the lowest vertex not yet in one
            part = self._component((unseen & -unseen).bit_length() - 1)
            unseen ^= part
            yield part

    def connected_components(self) -> list["Graph"]:
        """Induced component subgraphs, largest first, ties by vertex labels."""
        comps = list(map(self._subgraph, self._components()))
        comps.sort(key=lambda c: (-c.num_vertices, c.vertices))
        return comps

    def component_shapes(self) -> list[tuple[int, int]]:
        """(vertices, edges) of each connected component, in the order of
        its lowest vertex, without building the components: every
        neighbour of a vertex lies in its component, so a component's
        edges are half the sum of its vertices' degrees."""
        degrees = self.degrees()
        return [(part.bit_count(), sum(_select(part, degrees)) // 2) for part in self._components()]

    def is_connected(self) -> bool:
        return not self.adj or self._component(0) == (1 << len(self.adj)) - 1


# -- stock constructions -------------------------------------------------------


def complete_graph(k: int) -> Graph:
    if k < 0:
        raise ValueError("vertex count must be >= 0")
    labels = [f"v{i}" for i in range(1, k + 1)]
    everyone = (1 << k) - 1
    return Graph.from_rows(labels, [everyone ^ 1 << i for i in range(k)])


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


def verify_mapping(
    g: Graph, h: Graph, mapping: Sequence[int] | Mapping[str, str] | IsoWitness
) -> bool:
    """Check that mapping is a graph isomorphism from g onto h.

    The mapping is a permutation of vertex indices, vertex i of g going
    to vertex ``mapping[i]`` of h, or a label map (a dict or an
    IsoWitness), which is translated to one.  A bijection is an
    isomorphism when it carries every vertex's neighbour set exactly
    onto the neighbour set of its image.  The rows of g are walked in
    index order, each one's image kept as packed little-endian bytes and
    compared with the row of the image vertex.  A permutation of bits is
    linear over XOR, so each set bit j of a row's difference with the
    previous row flips the one byte of the image that holds bit
    ``mapping[j]``, in place; a row with no more set bits than that
    difference is walked from an empty image instead.
    """
    k = g.num_vertices
    degrees = g.degrees()
    if h.num_vertices != k or sum(degrees) != sum(h.degrees()):
        return False
    if isinstance(mapping, IsoWitness):
        mapping = mapping.as_dict()
    if isinstance(mapping, Mapping):
        if len(mapping) != k:
            return False
        perm = [0] * k
        for a, b in mapping.items():
            i, j = g.index.get(a), h.index.get(b)
            if i is None or j is None:
                return False
            perm[i] = j
    else:
        perm = list(mapping)
    # every index once, none negative (it would index h.adj from the end)
    if len(perm) != k or set(perm) != set(range(k)):
        return False
    size = (k + 7) // 8
    flips = [(p >> 3, 1 << (p & 7)) for p in perm]  # the byte and bit that bit j maps to
    image = bytearray(size)
    prev = 0  # the last row checked
    for row, degree, target in zip(g.adj, degrees, map(h.adj.__getitem__, perm)):
        diff = row ^ prev
        if diff.bit_count() >= degree:
            image, diff = bytearray(size), row
        for at, bit in _select(diff, flips):
            image[at] ^= bit
        if int.from_bytes(image, "little") != target:
            return False
        prev = row
    return True


def _renumbered(rows: list[int], perm: list[int]) -> list[int]:
    """The rows permuted by ``perm``: bit s of row r of the result is bit
    ``perm[s]`` of ``rows[perm[r]]``, so a vertex's new index is its
    position in ``perm``.

    The rows must be symmetric, as every ``Graph`` keeps them.  The rows
    ``rows[perm[i]]`` are written as one string of binary digits, row
    ``perm[k - 1]`` first and each row's highest bit first, so the string
    is the bit matrix with row i holding bit j at ``i * k + j``, reversed.
    By symmetry, bit s of new row r is bit ``perm[r]`` of ``rows[perm[s]]``,
    a column of that matrix, and one strided slice of the string reads
    it highest s first, ready to parse.  The cost is V² digits, however
    few bits are set.
    """
    k = len(rows)
    fmt = f"0{k}b"
    digits = "".join([format(rows[p], fmt) for p in reversed(perm)])
    return [int(digits[k - 1 - c :: k], 2) for c in perm]


def _joint_refinement(g: Graph, h: Graph) -> tuple[list[int], list[int]] | None:
    """Degree-seeded color refinement run over both graphs at once.

    Returns stable colorings (by vertex index) sharing one palette, or
    None as soon as the color histograms split (which certifies
    non-isomorphism).  The degree histograms are compared before any
    neighbour list is built.

    Each round gives a vertex its old color together with the multiset
    of its neighbours' colors, read in one of two exact forms.  With V
    vertices, C colors and a degree total of 2E, a round with V·C <= 2E
    keeps each color class as a row and counts the vertex's neighbours
    in each class by one AND and one bit count; a sparser round sorts
    the neighbours' colors, from neighbour lists built the first time
    such a round comes.  Once the histograms agree, V, C and E are the
    same in both graphs, so both take the same form and share one
    palette.
    """
    cg, ch = g.degrees(), h.degrees()
    if Counter(cg) != Counter(ch):
        return None
    k, total = len(cg), sum(cg)

    def counted(rows: list[int], old: list[int], colors: list[int]) -> list[tuple]:
        # each class as a row; a vertex meets it in the bits of their AND
        members = dict.fromkeys(colors, 0)
        for v, c in enumerate(old):
            members[c] |= 1 << v
        counts = [list(map(int.bit_count, map(m.__and__, rows))) for m in members.values()]
        return list(zip(old, *counts))

    def sorted_colors(nbrs: list[list[int]], old: list[int]) -> list[tuple]:
        get = old.__getitem__
        return list(zip(old, [tuple(sorted(map(get, row))) for row in nbrs]))

    lists: tuple[list[list[int]], ...] = ()  # g's and h's neighbour lists, once built
    while True:
        colors = list(dict.fromkeys(cg))
        if k * len(colors) <= total:
            sg, sh = counted(g.adj, cg, colors), counted(h.adj, ch, colors)
        else:
            if not lists:
                everyone = range(k)
                lists = tuple([_select(row, everyone) for row in x.adj] for x in (g, h))
            sg, sh = sorted_colors(lists[0], cg), sorted_colors(lists[1], ch)
        # new colors numbered by first appearance in g; a signature that g
        # lacks gets None, which splits the histograms
        palette = dict(zip(dict.fromkeys(sg), range(k)))
        cg, ch = list(map(palette.__getitem__, sg)), list(map(palette.get, sh))
        if Counter(cg) != Counter(ch):
            return None
        if len(palette) == len(colors):
            return cg, ch


def _search_order(g: Graph, colors: list[int]) -> list[int]:
    """Vertex indices in backtracking order: stay adjacent to the mapped
    prefix, prefer rare colors and high degree, then the smaller label.

    The last three keys never change, so they are ranked once.  The
    vertices not yet placed are kept, by rank, as rows bucketed by how
    many placed neighbours they have; the next vertex is the lowest bit
    of the highest non-empty bucket (labels are distinct, so ranks never
    tie).  Placing it moves its neighbours up one bucket, with one AND
    for each bucket passed, the highest first so that none moves twice.
    """
    class_size = Counter(colors)
    labels, k = g.labels, len(g.labels)
    degrees = g.degrees()
    ranked = sorted(range(k), key=lambda u: (class_size[colors[u]], -degrees[u], labels[u]))
    rows = _renumbered(g.adj, ranked)  # by rank
    unplaced = (1 << k) - 1
    # buckets[j]: the ranks of the unplaced vertices with j placed neighbours
    buckets = [unplaced]
    order: list[int] = []
    while unplaced:
        while not buckets[-1]:
            buckets.pop()
        top = buckets[-1]
        low = top & -top
        buckets[-1] = top ^ low
        unplaced ^= low
        r = low.bit_length() - 1
        order.append(ranked[r])
        lift = rows[r] & unplaced
        if lift:
            buckets.append(0)
            j = len(buckets) - 2
            while lift:
                moved = buckets[j] & lift
                if moved:
                    buckets[j] ^= moved
                    buckets[j + 1] |= moved
                    lift ^= moved
                j -= 1
    return order


def find_isomorphism(
    g: Graph, h: Graph, budget: int = DEFAULT_SEARCH_BUDGET
) -> IsoResult:
    """Decide whether g and h are isomorphic, within a node budget.

    Pipeline: joint color refinement, whose first step compares the
    degree histograms, then color-respecting backtracking.  Exhausting
    the search space proves non-isomorphism; exceeding ``budget`` node
    expansions yields ``inconclusive`` instead of a wrong verdict.  Ties
    in the search order and among candidates are broken by label, so the
    result does not depend on the order the vertices were added in.  A
    witness is returned only once verify_mapping accepts it as the index
    permutation the search found, and is then spelt in labels;
    RuntimeError otherwise.

    The search runs on h's rows renumbered in label order, so a color
    class is one row whose ascending bits are its candidates in label
    order.  At each depth the free members of the class are AND-ed with
    the rows of the images of the vertex's mapped neighbours: a member
    outside one of them cannot match the mapped prefix.  Each survivor
    still gets the exact prefix test.  Every free member counts as one
    node, tested or filtered out, so the free members passed over on the
    way to a candidate, and those left when a depth is exhausted, are
    counted by one bit count each.
    """
    refined = _joint_refinement(g, h)
    if refined is None:
        return IsoResult("not_isomorphic", None, 0)
    if g.num_vertices == 0:
        return IsoResult("isomorphic", IsoWitness(()), 0)
    cg, ch = refined

    order = _search_order(g, cg)
    k = len(order)
    # h in label order: bit s of rows[r] is set when the h vertices of
    # label ranks r and s are adjacent
    by_label = sorted(range(k), key=h.labels.__getitem__)
    rows = _renumbered(h.adj, by_label)
    members: dict[int, list[int]] = {}
    for r, v in enumerate(by_label):
        members.setdefault(ch[v], []).append(r)
    by_color = {c: _row_of(rs, k) for c, rs in members.items()}
    # classes[d]: the candidates for order[d]; back[d]: the depths of the
    # neighbours of order[d] that come before it in the order
    classes = [by_color[cg[v]] for v in order]
    depth_of = sorted(range(k), key=order.__getitem__)  # inverse of order
    back: list[list[int]] = []
    placed = 0
    for v in order:
        back.append(_select(g.adj[v] & placed, depth_of))
        placed |= 1 << v

    # a negative budget stops at the first node, as a zero one does
    budget = max(budget, 0)
    # per depth d: picked[d], the rank order[d] is mapped to as a one-bit
    # row, and picked_rows[d], its row; free[d], the members of classes[d]
    # neither used nor yet passed over, and cands[d], those of them in
    # the row of every target; targets[d], the images of back[d]
    picked, picked_rows = [0] * k, [0] * k
    free, cands, targets = [0] * k, [0] * k, [0] * k
    free[0] = cands[0] = classes[0]
    used = 0  # the ranks mapped onto so far, as a row
    depth = 0
    expanded = 0

    while depth >= 0:
        left, rest, target = cands[depth], free[depth], targets[depth]
        while left:
            low = left & -left
            left ^= low
            # every free member up to the candidate is one node
            passed = rest & (low << 1) - 1
            rest ^= passed
            expanded += passed.bit_count()
            if expanded > budget:
                return IsoResult("inconclusive", None, budget + 1)
            row = rows[low.bit_length() - 1]
            # exact consistency with the mapped prefix: the mapped vertices
            # adjacent to the candidate are exactly the images of the
            # current vertex's mapped neighbours, so edges and non-edges
            # both match
            if row & used == target:
                break
        else:
            # the free members after the last candidate are nodes too
            expanded += rest.bit_count()
            if expanded > budget:
                return IsoResult("inconclusive", None, budget + 1)
            depth -= 1
            if depth >= 0:
                used ^= picked[depth]
            continue
        cands[depth], free[depth] = left, rest
        picked[depth], picked_rows[depth] = low, row
        used |= low
        depth += 1
        if depth == k:
            # image[v]: the index in h that v is mapped to
            image = [0] * k
            for v, p in zip(order, picked):
                image[v] = by_label[p.bit_length() - 1]
            if not verify_mapping(g, h, image):
                raise RuntimeError("searcher built a witness that is not an isomorphism")
            witness = dict(zip(g.labels, map(h.labels.__getitem__, image)))
            return IsoResult("isomorphic", IsoWitness.from_dict(witness), expanded)
        target, fit = 0, classes[depth] & ~used
        free[depth] = fit
        for b in back[depth]:
            target |= picked[b]
            fit &= picked_rows[b]
        cands[depth], targets[depth] = fit, target
    return IsoResult("not_isomorphic", None, expanded)


# -- serialization -----------------------------------------------------------

EXPORT_FORMATS = ("dot", "json", "edgelist", "incidence")


def _ranked_rows(g: Graph, names: Sequence[T]) -> Iterator[tuple[T, list[T]]]:
    """The sorted edge list a row at a time, as ``names`` write the vertices.

    For each vertex in label order that has neighbours later in label
    order: its name and the names of those neighbours, in label order.
    ``names[i]`` stands for vertex i, so one walk serves labels, encoded
    labels and indices alike.  The vertices later in label order are
    kept as a row, so each row is cut to its later neighbours before
    their ranks are read and sorted.
    """
    labels = g.labels
    k = len(labels)
    by_label = sorted(range(k), key=labels.__getitem__)
    rank = sorted(range(k), key=by_label.__getitem__)  # inverse of by_label
    ranked = [names[i] for i in by_label]
    later = (1 << k) - 1  # the vertices after the current one in label order
    for r, i in enumerate(by_label):
        later ^= 1 << i
        ranks = sorted(_select(g.adj[i] & later, rank))
        if ranks:
            yield ranked[r], list(map(ranked.__getitem__, ranks))


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
    that label up once.  Each vertex's neighbour indices are collected
    in a list and its row is built from them once, at the end.
    """
    index: dict[str, int] = {}  # label -> index, in the order first seen
    nbrs: list[list[int]] = []  # nbrs[i]: the indices read as i's neighbours
    last, i, mine = None, 0, []
    for fields in map(str.split, text.splitlines()):
        if len(fields) == 3 and fields[0] == "e":
            _, a, b = fields
            if a == b:
                raise ValueError(f"self-loop at {a!r} not allowed")
            if a != last:
                i = index.get(a)
                if i is None:
                    i = index[a] = len(nbrs)
                    nbrs.append([])
                last, mine = a, nbrs[i]
            j = index.get(b)
            if j is None:
                j = index[b] = len(nbrs)
                nbrs.append([])
            mine.append(j)
            nbrs[j].append(i)
        elif not fields or fields[0].startswith("#"):
            continue
        elif fields[0] == "v" and len(fields) == 2:
            if fields[1] not in index:
                index[fields[1]] = len(nbrs)
                nbrs.append([])
        else:
            # how a line is read depends on its fields alone, so the first
            # line with these fields is the one that failed
            for ln, raw in enumerate(text.splitlines(), start=1):
                if raw.split() == fields:
                    raise ValueError(f"line {ln}: cannot parse {raw!r}")
    return Graph.from_rows(index, [_row_of(js, len(nbrs)) for js in nbrs])
