"""Small simple-graph toolkit: construction, components, isomorphism search,
deterministic export.

Vertices are the indices 0..V-1 in insertion order, and every algorithm
works on them.  String labels appear only at the boundary: the
label-taking methods, export and parsing.  A builder hands
``Graph.from_rows`` a label source, and the labels and their index are
built when first read, so a graph that is only checked never makes them.
A witness is a permutation of indices, in the one form that
``find_isomorphism`` returns and ``verify_mapping`` takes.
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
from functools import cached_property, lru_cache, reduce
from itertools import compress, groupby
from operator import or_
from typing import Iterable, Iterator, Literal, Sequence, TextIO, TypeVar

DEFAULT_SEARCH_BUDGET = 10_000_000

# a row with more than 1/DENSE of its width set is read in one pass over
# all its binary digits, a sparser one a non-zero byte at a time; a row
# with fewer than FEW set bits is split or built one bit at a time
DENSE = 16
FEW = 16

# a bit matrix whose rows hold fewer than SPARSE set bits on average is
# transposed a bit at a time, any other by 8x8 tiles in runs of STRIP rows
SPARSE = 4
STRIP = 256

# the parser reads its text BLOCK characters at a time
BLOCK = 1 << 14

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
        row = 0
        for j in indices:
            row |= 1 << j
        return row
    digits = bytearray(b"0") * width
    for j in indices:
        digits[j] = 49  # ord("1")
    digits.reverse()
    return int(digits, 2)


def _transposed(rows: list[int]) -> list[int]:
    """The transpose of the square bit matrix ``rows``: bit i of
    ``out[j]`` is bit j of ``rows[i]``.  Every row must be below
    ``1 << len(rows)``; the rows need not be symmetric.

    Rows holding fewer than SPARSE set bits on average are moved a bit at
    a time, since the tiles cost V² however few bits are set; any other
    matrix goes through 8x8 tiles.
    """
    if sum(map(int.bit_count, rows)) < SPARSE * len(rows):
        return _transposed_by_bits(rows)
    return _transposed_by_tiles(rows)


def _transposed_by_bits(rows: list[int]) -> list[int]:
    """``_transposed`` one set bit at a time: bit j of row i is ORed into
    row j of the result."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        if row:
            bit = 1 << i
            while row:
                j = row.bit_length() - 1
                out[j] |= bit
                row ^= 1 << j
    return out


@lru_cache(maxsize=32)
def _tile_swaps(size: int) -> tuple[tuple[int, int], ...]:
    """``_transposed_by_tiles``'s (shift, mask) pairs on rows of ``size``
    bytes: for j = 4, 2, 1 the mask holds the bits (u, v + j) of every
    tile in ``min(STRIP, 8 * size)`` rows, bit j set in the column and
    clear in the row.

    The 32 widths last used are kept.  Making a width's masks costs
    10-24% of one dense transpose at that width below 32 bytes a row and
    1-7% above, and one pass of a ``perfbench`` workload transposed at
    most 15 widths (``sweep``, seeds 1-5).  An entry is
    ``3 * min(STRIP, 8 * size) * size`` bytes, so the memo holds at most
    32 * 768 bytes per byte of the widest row kept: 21 MB at 7,200
    vertices, where keeping every width up to there would hold about
    311 MB."""
    rows = min(STRIP, 8 * size)
    zero = bytes(size)
    return tuple(
        (j * (8 * size - 1), int.from_bytes((pattern * size * j + zero * j) * (rows // (2 * j)), "little"))
        for j, pattern in ((4, b"\xf0"), (2, b"\xcc"), (1, b"\xaa"))
    )


def _transposed_by_tiles(rows: list[int]) -> list[int]:
    """``_transposed`` by 8x8 tiles: a tile is byte b of the rows 8p
    to 8p + 7.

    A run of STRIP rows, each written as little-endian bytes, is read as
    one int, row after row, so the bit at column c of its row r is bit
    ``r * W + c``, W the padded row width.  Three masked swaps transpose
    every tile of the run at once (Warren, *Hacker's Delight*, 2nd ed.,
    §7-3): for j = 4, 2, 1 a tile's bit (u, v + j) is swapped with bit
    (u + j, v) wherever bit j is clear in both u and v, a distance of
    ``j * (W - 1)`` (``_tile_swaps``).  The tile at rows 8p..8p+7 and
    byte b then holds at its row u the bits of byte p of column 8b + u,
    so column j is the strided slice of the tiled matrix's bytes that
    takes byte j // 8 of row j % 8 of each run of 8 rows.
    """
    k = len(rows)
    size = (k + 7) // 8  # bytes a row
    swaps = _tile_swaps(size)
    tiled = bytearray()
    for at in range(0, k, STRIP):
        strip = rows[at : at + STRIP]
        strip += [0] * (-len(strip) % 8)
        x = int.from_bytes(b"".join([row.to_bytes(size, "little") for row in strip]), "little")
        for shift, mask in swaps:
            t = (x >> shift ^ x) & mask
            x ^= t ^ t << shift
        tiled += x.to_bytes(len(strip) * size, "little")
    step = 8 * size  # the bytes of 8 rows
    return [int.from_bytes(tiled[(j & 7) * size + (j >> 3) :: step], "little") for j in range(k)]


class Graph:
    """Mutable simple graph: vertex i has the neighbour row ``adj[i]``, an
    int with bit j set when j is a neighbour, and the label ``labels[i]``;
    ``index`` maps each label back to i.

    ``labels`` and ``index`` are cached properties, built on first read
    from the label source the graph was made with, so a graph that
    nothing asks for a label never makes one.  A builder's label source
    may only read data that never changes after the build.
    """

    def __init__(
        self,
        vertices: Iterable[str] = (),
        edges: Iterable[tuple[str, str]] = (),
    ) -> None:
        # repeated labels keep their first position
        source = dict.fromkeys(vertices)
        self.adj: list[int] = [0] * len(source)
        self._source: Iterable[str] = source
        self.labels  # built, and so checked, at once
        for a, b in edges:
            self.add_edge(a, b)

    @classmethod
    def from_rows(cls, labels: Iterable[str], rows: list[int]) -> "Graph":
        """The graph whose vertex i has the neighbour row ``rows[i]`` and
        the i-th of the distinct ``labels``; the rows must be symmetric
        and have no vertex's own bit set.  The labels are read, and
        checked, when ``labels`` or ``index`` is first read."""
        g = cls.__new__(cls)
        g.adj, g._source = rows, labels
        return g

    @cached_property
    def labels(self) -> list[str]:
        # the source is read once, so that a failed check fails alike again
        labels = self._source = list(dict.fromkeys(self._source))
        for v in labels:
            if not isinstance(v, str):
                raise TypeError(f"vertex labels must be str, got {type(v).__name__}")
        if len(labels) != len(self.adj):
            raise ValueError(f"{len(self.adj)} rows for {len(labels)} distinct labels")
        return labels

    @cached_property
    def index(self) -> dict[str, int]:
        labels = self.labels
        return dict(zip(labels, range(len(labels))))

    # -- mutation ------------------------------------------------------------

    def add_vertex(self, v: str) -> int:
        """Index of vertex v, added first if it is new."""
        index = self.index
        i = index.get(v)
        if i is None:
            if not isinstance(v, str):
                raise TypeError(f"vertex labels must be str, got {type(v).__name__}")
            i = index[v] = len(self.adj)
            self.labels.append(v)
            self.adj.append(0)
        return i

    def add_edge(self, a: str, b: str) -> None:
        if a == b:
            raise ValueError(f"self-loop at {a!r} not allowed")
        self.link(self.add_vertex(a), self.add_vertex(b))

    def link(self, i: int, j: int) -> None:
        """Add the edge between the vertices with indices i and j."""
        for v in (i, j):
            if not 0 <= v < len(self.adj):
                raise IndexError(f"vertex index {v} out of range")
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
        """Each connected component as a row, in the order of its lowest vertex.

        A component is the lowest vertex not yet in one and what it
        reaches.  When that vertex has no neighbour, or one neighbour
        whose only neighbour it is, the component is read off its row
        (the neighbour cannot lie in an earlier component, or the vertex
        would too); otherwise it is walked a frontier at a time.  A part's
        vertices leave the unseen set whether it had them or not, so even
        rows that are not symmetric yield at most V parts."""
        adj = self.adj
        unseen = (1 << len(adj)) - 1
        while unseen:
            low = unseen & -unseen
            start = low.bit_length() - 1
            row = adj[start]
            if row & (row - 1) == 0 and (not row or adj[row.bit_length() - 1] == low):
                part = low | row
            else:
                part = self._component(start)
            unseen &= ~part
            yield part

    def connected_components(self) -> list["Graph"]:
        """Induced component subgraphs, largest first, ties by vertex labels."""
        comps = list(map(self._subgraph, self._components()))
        comps.sort(key=lambda c: (-c.num_vertices, c.vertices))
        return comps

    def component_shapes(self) -> list[tuple[int, int]]:
        """(vertices, edges) of each connected component, in the order of
        its lowest vertex, without building the components.  A connected
        graph on one vertex has no edge and one on two vertices has one,
        so such a component is (1, 0) or (2, 1).  Every neighbour of a
        vertex lies in its component, so a larger component's edges are
        half the sum of its vertices' degrees."""
        degrees = self.degrees()
        shapes = []
        for part in self._components():
            size = part.bit_count()
            shapes.append((size, size - 1 if size < 3 else sum(_select(part, degrees)) // 2))
        return shapes

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
class IsoResult:
    """A verdict, the node count, and for an isomorphic pair the witness:
    entry i is the index in h of g's vertex i (``()`` for two empty
    graphs); None for any other verdict."""

    status: Literal["isomorphic", "not_isomorphic", "inconclusive"]
    witness: tuple[int, ...] | None
    nodes_expanded: int


def verify_mapping(g: Graph, h: Graph, perm: Sequence[int]) -> bool:
    """Check that perm, vertex i of g going to vertex ``perm[i]`` of h,
    is a graph isomorphism from g onto h.

    A bijection is an isomorphism when it carries every vertex's
    neighbour set exactly onto the neighbour set of its image, which
    also makes the edge counts equal.  The rows of g are walked in index
    order, each one's image kept as an int and compared with the row of
    the image vertex.  A permutation of bits is linear over XOR, so the
    image of a row's difference with the previous row is XORed into the
    last image; a row with no more set bits than that difference is
    mapped whole instead.  Fewer than FEW bits are XORed in one at a
    time, bit j as bit ``perm[j]``; more are flipped into a fresh byte
    image, each at the byte and bit of ``perm[j]``, and read as one int.
    """
    k = g.num_vertices
    if h.num_vertices != k:
        return False
    perm = list(perm)
    # every index once, none negative (it would index h.adj from the end)
    if len(perm) != k or set(perm) != set(range(k)):
        return False
    flips = []  # the byte and bit that bit j maps to, made on first use
    image = prev = 0  # the image of the last row checked, and that row
    for row, count, target in zip(g.adj, map(int.bit_count, g.adj), map(h.adj.__getitem__, perm)):
        diff = row ^ prev
        bits = diff.bit_count()
        if bits >= count:
            image, diff, bits = 0, row, count
        if bits < FEW:
            while diff:
                j = diff.bit_length() - 1
                image ^= 1 << perm[j]
                diff ^= 1 << j
        else:
            flips = flips or [(p >> 3, 1 << (p & 7)) for p in perm]
            packed = bytearray((k + 7) // 8)
            for at, bit in _select(diff, flips):
                packed[at] ^= bit
            image ^= int.from_bytes(packed, "little")
        if image != target:
            return False
        prev = row
    return True


def _renumbered(rows: list[int], perm: list[int]) -> list[int]:
    """The rows permuted by ``perm``: bit s of row r of the result is bit
    ``perm[s]`` of ``rows[perm[r]]``, so a vertex's new index is its
    position in ``perm``.

    The rows must be symmetric, as every ``Graph`` keeps them.  The rows
    are moved into the new order, transposed (``_transposed``) and moved
    again: bit s of row ``perm[r]`` of the transpose is bit ``perm[r]``
    of ``rows[perm[s]]``, which by symmetry is bit ``perm[s]`` of
    ``rows[perm[r]]``.
    """
    moved = _transposed(list(map(rows.__getitem__, perm)))
    return list(map(moved.__getitem__, perm))


def _count(planes: list[int], row: int) -> None:
    """Add one to the count of every vertex in ``row``, the counts held
    as bit planes: plane b has bit v set when bit b of v's count is set.
    The carry ripples up the planes until it runs out, and a carry out of
    the top plane is a new plane."""
    for b, plane in enumerate(planes):
        if not row:
            return
        planes[b] = plane ^ row
        row &= plane
    if row:
        planes.append(row)


def _joint_refinement(g: Graph, h: Graph) -> tuple[list[int], list[int]] | None:
    """Degree-seeded color refinement run over both graphs at once.

    Returns stable colorings (by vertex index) sharing one palette, or
    None as soon as a class cannot be split alike in both graphs (which
    certifies non-isomorphism).  The degree histograms are compared
    first.

    A class is a pair of rows, its members in g and in h, and the
    refinement runs from a worklist of splitter classes by Hopcroft's
    rule (Paige & Tarjan, 1987; Berkholz, Bonsma & Grohe, 2017).  Each
    graph's neighbour counts in a splitter are summed into bit planes
    by adding its members' rows (see ``_count``).  Each plane in turn
    then cuts every class: the g side splits where the plane cuts it,
    and the h side must follow, whole where the g side is whole, empty
    where it is empty and cut to the same size where it is cut;
    otherwise, or when the two graphs' counts take different numbers of
    planes, the refinement returns None.  A class that meets no plane
    on either side passes unchanged.  Of the two parts of a split, the
    larger keeps the class's place, waiting or not, and the smaller
    waits; at the start every degree class but the largest waits.  That
    suffices: the degrees are the counts in all vertices, and a vertex's
    count in the larger part is its count in the class less its count in
    the smaller.  Whatever the order of the splitters, the stable
    partition is the coarsest equitable refinement of the degree
    partition, so the classes are those of the round-by-round
    refinement; a color is its class's place in the list.
    """
    cg, ch = g.degrees(), h.degrees()
    if sorted(cg) != sorted(ch):
        return None
    sides = {d: [0, 0] for d in cg}
    for v, d in enumerate(cg):
        sides[d][0] |= 1 << v
    for v, d in enumerate(ch):
        sides[d][1] |= 1 << v
    gs = [a for a, _ in sides.values()]  # the classes' g sides
    hs = [b for _, b in sides.values()]  # and their h sides
    waiting = sorted(range(len(gs)), key=lambda i: gs[i].bit_count())[:-1]
    while waiting:
        s = waiting.pop()
        pg, ph = [], []
        for row in _select(gs[s], g.adj):
            _count(pg, row)
        for row in _select(hs[s], h.adj):
            _count(ph, row)
        if len(pg) != len(ph):
            return None
        for plane_g, plane_h in zip(pg, ph):
            for i in range(len(gs)):
                a, b = gs[i], hs[i]
                cut_a, cut_b = a & plane_g, b & plane_h
                if cut_a == a:
                    if cut_b != b:
                        return None
                elif cut_a:
                    size = cut_a.bit_count()
                    if size != cut_b.bit_count():
                        return None
                    rest_a, rest_b = a ^ cut_a, b ^ cut_b
                    # the larger part keeps the slot, the smaller waits
                    if 2 * size < a.bit_count():
                        cut_a, cut_b, rest_a, rest_b = rest_a, rest_b, cut_a, cut_b
                    gs[i], hs[i] = cut_a, cut_b
                    waiting.append(len(gs))
                    gs.append(rest_a)
                    hs.append(rest_b)
                elif cut_b:
                    return None
    k = len(cg)
    everyone = range(k)
    cg, ch = [0] * k, [0] * k
    for c, (a, b) in enumerate(zip(gs, hs)):
        for v in _select(a, everyone):
            cg[v] = c
        for v in _select(b, everyone):
            ch[v] = c
    return cg, ch


def _search_order(g: Graph, colors: list[int]) -> tuple[list[int], list[list[int]]]:
    """Vertex indices in backtracking order: stay adjacent to the mapped
    prefix, prefer rare colors and high degree, then the smaller label.
    With the order come the back lists: ``back[d]``, the depths of the
    neighbours of ``order[d]`` that come before it in the order.

    The last three keys never change, so they are ranked once.  Each
    vertex's count of placed neighbours is kept in bit planes over the
    ranks (see ``_count``).  The next vertex is the lowest rank left
    after ANDing the unplaced set with each plane, from the top plane
    down, wherever that AND is not empty: the unplaced vertices with the
    most placed neighbours, the lowest rank first (labels are distinct,
    so ranks never tie).  Placing it adds its unplaced neighbours,
    ``lift``, to the counts; the rest of its row is its placed
    neighbours, whose depths are its back list.
    """
    class_size = Counter(colors)
    labels, k = g.labels, len(g.labels)
    degrees = g.degrees()
    ranked = sorted(range(k), key=lambda u: (class_size[colors[u]], -degrees[u], labels[u]))
    rows = _renumbered(g.adj, ranked)  # by rank
    unplaced = (1 << k) - 1
    planes: list[int] = []  # by rank: the placed neighbours of the unplaced vertices
    order: list[int] = []
    back: list[list[int]] = []
    depth_of = [0] * k  # by rank: the depth it was placed at
    while unplaced:
        top = unplaced
        for plane in reversed(planes):
            if top & plane:
                top &= plane
        low = top & -top
        unplaced ^= low
        r = low.bit_length() - 1
        depth_of[r] = len(order)
        order.append(ranked[r])
        lift = rows[r] & unplaced
        back.append(_select(rows[r] ^ lift, depth_of))
        _count(planes, lift)
    return order, back


def find_isomorphism(
    g: Graph, h: Graph, budget: int = DEFAULT_SEARCH_BUDGET
) -> IsoResult:
    """Decide whether g and h are isomorphic, within a node budget.

    Pipeline: joint color refinement, whose first step compares the
    degree histograms, then the search order, then color-respecting
    backtracking.  The refinement and the order count neighbours the one
    way, in bit planes (see ``_count``): the refinement a splitter's
    members' rows at a time, the order each placed vertex's.  Exhausting
    the search space proves non-isomorphism; exceeding ``budget`` node
    expansions yields ``inconclusive`` instead of a wrong verdict.  Ties
    in the search order and among candidates are broken by label, so the
    result does not depend on the order the vertices were added in.  A
    witness is returned only once verify_mapping accepts it;
    RuntimeError otherwise.

    The search runs on h's rows renumbered in label order, so a color
    class is one row whose ascending bits are its candidates in label
    order.  At each depth the free members of the class are AND-ed with
    the rows of the images of the vertex's mapped neighbours, whose
    depths the walk that orders the vertices also lists; each loop
    turn takes one survivor.  Its exact prefix test is a bit count: rows
    are symmetric, so its row holds each of those distinct images, and
    it meets the used ranks in them alone (edges and non-edges both
    match) when it meets exactly as many.  Every free member is a node,
    tested or filtered out, added by one bit count when its depth places
    a vertex or is exhausted, where the budget is checked.  The witness
    is the picks of a full depth read in vertex order.
    """
    refined = _joint_refinement(g, h)
    if refined is None:
        return IsoResult("not_isomorphic", None, 0)
    if g.num_vertices == 0:
        return IsoResult("isomorphic", (), 0)
    cg, ch = refined

    order, back = _search_order(g, cg)
    k = len(order)
    # h in label order: bit s of rows[r] is set when the h vertices of
    # label ranks r and s are adjacent
    by_label = sorted(range(k), key=h.labels.__getitem__)
    rows = _renumbered(h.adj, by_label)
    members: dict[int, list[int]] = {}
    for r, v in enumerate(by_label):
        members.setdefault(ch[v], []).append(r)
    by_color = {c: _row_of(rs, k) for c, rs in members.items()}
    # classes[d]: the candidates for order[d]
    classes = [by_color[cg[v]] for v in order]

    # a negative budget stops at the first node, as a zero one does
    budget = max(budget, 0)
    need = list(map(len, back))
    # per depth d: picked[d], the rank order[d] is mapped to as a one-bit
    # row, and picked_rows[d], its row; free[d], the members of classes[d]
    # neither used nor yet counted, and cands[d], those of them in
    # picked_rows[b] for every b in back[d]; the current depth's are held
    # in rest, left and count (need[d])
    picked, picked_rows = [0] * k, [0] * k
    free, cands = [0] * k, [0] * k
    rest = left = classes[0]
    count = 0
    used = 0  # the ranks mapped onto so far, as a row
    depth = 0
    expanded = 0

    while True:
        if left:
            low = left & -left
            left ^= low
            row = rows[low.bit_length() - 1]
            # the exact prefix test (see the docstring)
            if (row & used).bit_count() != count:
                continue
            # every free member up to the placed candidate is one node
            passed = rest & (low << 1) - 1
            rest ^= passed
            expanded += passed.bit_count()
            if expanded > budget:
                return IsoResult("inconclusive", None, budget + 1)
            cands[depth], free[depth] = left, rest
            picked[depth], picked_rows[depth] = low, row
            used |= low
            depth += 1
            if depth == k:
                # image[v]: the index in h that v is mapped to; order holds
                # each vertex once, so the sort never compares two picks
                image = [by_label[p.bit_length() - 1] for _, p in sorted(zip(order, picked))]
                if not verify_mapping(g, h, image):
                    raise RuntimeError("searcher built a witness that is not an isomorphism")
                return IsoResult("isomorphic", tuple(image), expanded)
            rest = left = classes[depth] & ~used
            for b in back[depth]:
                left &= picked_rows[b]
            count = need[depth]
        else:
            # the free members after the last candidate are nodes too
            expanded += rest.bit_count()
            if expanded > budget:
                return IsoResult("inconclusive", None, budget + 1)
            depth -= 1
            if depth < 0:
                return IsoResult("not_isomorphic", None, expanded)
            used ^= picked[depth]
            left, rest, count = cands[depth], free[depth], need[depth]


# -- serialization -----------------------------------------------------------

def _ranked_rows(g: Graph, names: Sequence[T]) -> Iterator[tuple[T, list[T]]]:
    """The sorted edge list a row at a time, as ``names`` write the vertices.

    For each vertex in label order that has neighbours later in label
    order: its name and the names of those neighbours, in label order.
    ``names[i]`` stands for vertex i, so one walk serves labels, encoded
    labels and indices alike.  The rows are renumbered into label order
    (``_renumbered``), so a vertex's later neighbours are the bits of its
    row above its own rank, already in label order.
    """
    labels = g.labels
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    ranked = [names[i] for i in by_label]
    rows = _renumbered(g.adj, by_label)
    rows.reverse()  # each row is popped, and let go, once it is walked
    for r in range(len(ranked)):
        row = rows.pop()
        if row >> r + 1:  # a neighbour later in label order
            yield ranked[r], _select(row >> r + 1 << r + 1, ranked)


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


def _dot(g: Graph) -> Iterator[str]:
    yield "graph {\n" + "".join([f'  "{v}";\n' for v in g.labels])
    for a, later in _ranked_rows(g, g.labels):
        head = f'  "{a}" -- "'
        between = '";\n' + head
        yield f'{head}{between.join(later)}";\n'
    yield "}\n"


def _json(g: Graph) -> Iterator[str]:
    # the layout of json.dumps({"vertices": ..., "edges": ...}, indent=2)
    # with each label encoded by json.dumps itself
    quoted = list(map(json.dumps, g.labels))
    vertices = "[\n    " + ",\n    ".join(quoted) + "\n  ]" if quoted else "[]"
    yield f'{{\n  "vertices": {vertices},\n  "edges": ['
    sep = "\n"  # before the first edge row, ",\n" before the others
    for a, later in _ranked_rows(g, quoted):
        head, tail = f"    [\n      {a},\n      ", "\n    ]"
        between = tail + ",\n" + head
        yield f"{sep}{head}{between.join(later)}{tail}"
        sep = ",\n"
    yield "]\n}\n" if sep == "\n" else "\n  ]\n}\n"


def _edgelist(g: Graph) -> Iterator[str]:
    labels = g.labels
    header = f"# {g.num_vertices} vertices, {g.num_edges} edges\n"
    yield header + "".join([f"v {v}\n" for v in labels])
    for a, later in _ranked_rows(g, labels):
        head = f"e {a} "
        between = "\n" + head
        yield f"{head}{between.join(later)}\n"


def _incidence(g: Graph) -> Iterator[str]:
    # rows follow vertex storage order, columns the sorted edges; each
    # vertex row is filled from the columns of its own edges, with cells
    # as strings so that csv need not convert them
    labels = g.labels
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
    yield buf.getvalue()


# format name -> the writer of its text, a piece at a time
_WRITERS = {"dot": _dot, "json": _json, "edgelist": _edgelist, "incidence": _incidence}
EXPORT_FORMATS = tuple(_WRITERS)


def _export_pieces(g: Graph, fmt: str) -> Iterator[str]:
    """The text of ``export(g, fmt)`` in pieces, each no longer than the
    vertex lines or one vertex's edge lines (incidence is one piece).
    The format and the labels are checked at the call, before the first
    piece is asked for, so a caller that writes the pieces as they come
    writes nothing for a graph that cannot be exported."""
    if fmt not in EXPORT_FORMATS:
        raise ValueError(f"unknown format {fmt!r}, expected one of {EXPORT_FORMATS}")
    _check_exportable(g)
    return _WRITERS[fmt](g)


def export(g: Graph, fmt: str) -> str:
    """Render g in one of EXPORT_FORMATS.  Output is deterministic:
    vertices in stored order, edges sorted.

    Edges are written a row at a time: every edge of one row shares its
    first vertex, so a row becomes one ``str.join`` over its later
    neighbours.  Each piece is appended to one string that only this
    function holds, which CPython resizes in place, so export holds the
    text and one piece, not every piece and a joined copy.

    On CPython 3.11 any profile or trace hook (cProfile, coverage, pdb)
    turns that in-place append off, and each piece then copies the whole
    text: cl2(380)'s edge list takes tens of times longer.  An
    ``io.StringIO`` would not care, but it holds about twice the output.
    So time export with no hook set, or profile ``_export_pieces``.
    """
    text = ""
    for piece in _export_pieces(g, fmt):
        text += piece
    return text


def _blocks(source: str | TextIO) -> Iterator[str]:
    """The text of ``source``, a ``str`` or a text stream (anything with
    ``read(n)``), in blocks that each end at a line boundary (the last
    may end with the text); in order, their ``splitlines()`` are the
    text's.

    Each read asks for BLOCK characters (at least one).  What was carried
    over and the read are cut just after their last "\\n", or after their
    last "\\r" but for a "\\r" at the very end, into a block, and the rest
    is carried into the next block.  Every line boundary but "\\r\\n" is
    one character, "\\r\\n" ends in "\\n", and a "\\r" with a character
    after it either is a boundary of its own or has a later "\\n", so no
    cut splits a boundary.  A stream is never read whole: the reader
    holds one read, the carried rest and the block.
    """
    if isinstance(source, str):
        text, at = source, 0

        def read(size: int) -> str:
            nonlocal at
            at += size
            return text[at - size : at]

    else:
        read = source.read
    size = max(BLOCK, 1)  # a read of no characters would look like the end
    rest = ""
    while piece := read(size):
        # the rest holds no "\n", and no "\r" but perhaps at its end, so
        # only that "\r" and the read are searched
        start = max(len(rest) - 1, 0)
        rest += piece
        cut = max(rest.rfind("\n", start), rest.rfind("\r", start, -1)) + 1
        if cut:
            yield rest[:cut]
            rest = rest[cut:]
    if rest:
        yield rest


def _edge_runs(block: str, index: dict[str, int], ends: dict[str, int]) -> list[tuple[int, list[int]]] | None:
    """The edges of a block of plain ``e a b`` lines as runs ``(i, js)``:
    each run is the lines that share the first vertex i, in order, and js
    their second vertices; None for any other block.

    A block is plain when it starts with "e ", its line boundaries are
    "\\n", "\\r\\n" or "\\r", every line is exactly the fields e, a and b
    with one blank between them, every label is in ``index`` and no line
    has a == b.  ``ends`` maps each label of ``index`` followed by "\\ne"
    to its index.  Each "\\r\\n" and then each "\\r" is made "\\n"
    (``_blocks`` never cuts inside a "\\r\\n"), the block is split at each
    blank, and one "e" is added to the last token, so a plain block of L
    lines is the 2L + 1 tokens "e", then each line's a and then its b with
    the "\\ne" that ends it and starts the next line.  The first labels are
    looked up in ``index`` and the second ones in ``ends``.  No label holds
    whitespace (both readers take labels from ``str.split``), so when the
    count is odd and every lookup succeeds, the block is those lines and
    nothing else.  Runs are cut where neighbouring first labels differ
    (``groupby``) and a run's first label is looked up once, so the loop
    here turns once a run, not once a line.  Nothing is changed and no row
    is built, so a refused block can be read line by line from the start,
    and the runs hold only indices.
    """
    if "\r" in block:
        block = block.replace("\r\n", "\n").replace("\r", "\n")
    if not block.startswith("e "):
        return None
    tokens = block.split(" ")
    # an even count is never plain, and on a last line with no "\n" after
    # it, "e x" with x + "e" a label would pass every lookup
    if not len(tokens) & 1:
        return None
    tokens[-1] += "e"
    firsts = tokens[1::2]
    try:
        seconds = list(map(ends.__getitem__, tokens[2::2]))
    except KeyError:  # not a known label and a line end: its place is the line reader's
        return None
    del tokens
    runs, s = [], 0
    for a, run in groupby(firsts):
        i, t = index.get(a), s + len(list(run))
        if i is None:
            return None
        js = seconds[s:t]
        if i in js:  # a self-loop
            return None
        runs.append((i, js))
        s = t
    return runs


def parse_edgelist(source: str | TextIO) -> Graph:
    """Inverse of export(..., "edgelist"); comments and blanks ignored.

    ``source`` is the text or a text stream, read a block at a time (see
    ``_blocks``): beyond its input the parser holds one block, its tokens
    or lines and the rows it builds, and a stream is never read whole.
    On an exported edge list that is under half the text.  Vertices
    referenced only by ``e`` lines are added implicitly, so plain
    two-column edge files load too.

    Both readers set each edge in its first vertex's row only, and the
    rows are ORed with their transpose once at the end (``_transposed``),
    which sets the other half.  A block of plain ``e a b`` lines on known
    labels is read as tokens (see ``_edge_runs``): each run of lines
    sharing their first vertex ORs the second vertices' bits into its row
    once.  Any other block is read line by line, the only reader of
    headers, ``v`` lines, comments, new labels and refused lines, so
    vertex order and every message are the line reader's.  There the
    common ``e a b`` line, a and b distinct, is tested first and sets
    bit b in a's row.  Each label the line reader adds goes into
    ``index`` and, followed by "\\ne", into ``ends``, the form in which
    the token reader meets a line's second label.  Lines are numbered as
    they are read, so a refused line is named by its number and its text
    without a second read or a search.
    """
    index: dict[str, int] = {}  # label -> index, in the order first seen
    ends: dict[str, int] = {}  # label + "\ne" -> index, for _edge_runs
    rows: list[int] = []
    before = 0  # the lines of the blocks before this one
    for block in _blocks(source):
        runs = _edge_runs(block, index, ends)
        if runs is not None:
            width = len(rows)
            for first, js in runs:
                rows[first] |= _row_of(js, width)
                before += len(js)
            continue
        lines = block.splitlines()
        for at, fields in enumerate(map(str.split, lines)):
            if len(fields) == 3 and fields[0] == "e" and fields[1] != fields[2]:
                _, a, b = fields
                i = index.get(a)
                if i is None:
                    i = index[a] = ends[a + "\ne"] = len(rows)
                    rows.append(0)
                j = index.get(b)
                if j is None:
                    j = index[b] = ends[b + "\ne"] = len(rows)
                    rows.append(0)
                rows[i] |= 1 << j
            elif not fields or fields[0].startswith("#"):
                continue
            elif fields[0] == "v" and len(fields) == 2:
                if fields[1] not in index:
                    index[fields[1]] = ends[fields[1] + "\ne"] = len(rows)
                    rows.append(0)
            else:
                ln = before + at + 1
                if fields[0] == "e" and len(fields) == 3:
                    raise ValueError(f"line {ln}: self-loop at {fields[1]!r} not allowed")
                raise ValueError(f"line {ln}: cannot parse {lines[at]!r}")
        before += len(lines)
        del lines  # let this block's lines go before the next block is split
    return Graph.from_rows(index, list(map(or_, rows, _transposed(rows))))
