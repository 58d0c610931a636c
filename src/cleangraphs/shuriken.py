"""Shuriken graphs and the shuriken operation on a graph.

Two constructions share the (t, n) parameter shape.  The standalone
family Sh(t, n) lives on 3n vertices a_i, b_i, c_i.  The operation
Shu(g, t, n) takes n copies of g plus a per-copy hub and wires the
copies together; the first t copies are completed and the remaining
n - t copies are joined in mirrored pairs.  Index i always mirrors to
n + t + 1 - i.
"""

from __future__ import annotations

from .graph import Graph


def is_null(g: Graph) -> bool:
    """True when g has no edges (vertices are allowed)."""
    return g.num_edges == 0


def copy_label(v: str, i: int) -> str:
    """Label of vertex v inside copy i of the shuriken operation."""
    return f"{v}@{i}"


def copy_index(i: int, x: int, width: int) -> int:
    """Index of vertex x (from 0) of block i (from 1) when every block is
    ``width`` vertices wide.  Both builders lay their vertices out in
    such blocks.  In Shu(g, t, n) block i is copy i: g's vertices in g's
    order, then the hub z, so ``copy_label(v, i)`` is vertex
    ``g.index[v]`` of block i and ``copy_label("z", i)`` its last.  In
    Sh(t, n) the blocks 1, 2 and 3 are the rows a, b and c, so a_i is
    vertex i - 1 of block 1."""
    return (i - 1) * width + x


def build_sh(t: int, n: int) -> Graph:
    """The standalone shuriken graph on vertices a1..an, b1..bn, c1..cn.

    Requires t a power of two dividing n with n - t even.  Edges: the
    complete bipartite a x b core, straight spokes a_i c_i and b_i c_i
    for i <= t, crossed spokes a_i and b_i to c at the mirror index for
    i > t, and mirror matchings within each of the a, b, c rows.  Each
    vertex's row is built whole from that list.
    """
    if t < 1 or t & (t - 1):
        raise ValueError(f"t must be a power of two, got {t}")
    if n < t or n % t:
        raise ValueError(f"n must be a multiple of t with n >= t, got t={t} n={n}")
    if (n - t) % 2:
        raise ValueError(f"n - t must be even, got t={t} n={n}")

    # a_i, b_i, c_i are vertex i - 1 of the blocks 1, 2, 3, which start at
    # a0, b0, c0, and the 0-based index x mirrors to mirror[x]
    a0, b0, c0 = (copy_index(r, 0, n) for r in (1, 2, 3))
    mirror = [x if x < t else n + t - 1 - x for x in range(n)]
    one_row = (1 << n) - 1
    rows: list[int] = []
    # an a (b) row: all of b (a), c at the mirror, and a (b) at the mirror above t
    for own, other in ((a0, b0), (b0, a0)):
        rows += [
            one_row << other | 1 << (c0 + m) | (1 << (own + m) if x >= t else 0)
            for x, m in enumerate(mirror)
        ]
    # a c row: a and b at the mirror, and c at the mirror above t
    rows += [
        1 << (a0 + m) | 1 << (b0 + m) | (1 << (c0 + m) if x >= t else 0)
        for x, m in enumerate(mirror)
    ]
    return Graph.from_rows((f"{row}{i}" for row in "abc" for i in range(1, n + 1)), rows)


def build_shu(g: Graph, t: int, n: int) -> Graph:
    """The (t, n)-shuriken graph of g.

    Takes n copies of g with a fresh hub vertex z per copy.  Edges: each
    g-edge uv lifts to u@i -- v@j for every pair of copies (same copy
    included); copies 1..t are completed into cliques (hub included);
    copies i and n + t + 1 - i are completely joined for
    t < i <= (n + t) / 2.  Hypotheses: n >= t >= 1 and n - t even.

    The rows of all copies are one comprehension: a vertex's lifted row
    OR the run of its own copy (i <= t) or its mirror copy.  A lifted row
    never holds its own vertex, and n + t + 1 is odd, so no copy is its
    own mirror: only the first t*w rows, those of the completed copies,
    hold their own bit, and only those are cleared.
    """
    if t < 1 or n < t:
        raise ValueError(f"need n >= t >= 1, got t={t} n={n}")
    if (n - t) % 2:
        raise ValueError(f"n - t must be even, got t={t} n={n}")
    if g.has_vertex("z"):
        raise ValueError('input graph must not use the reserved label "z"')

    full = g.labels + ["z"]
    w = len(full)
    one_copy = (1 << w) - 1
    # a row of g repeated in every copy: a w-bit row times a bit every w
    # places is its copies side by side, none overlapping
    every_copy = sum(1 << copy_index(i, 0, w) for i in range(1, n + 1))
    lifted = [row * every_copy for row in g.adj] + [0]
    # copy i is completed (i <= t) or joined to its mirror copy
    wholes = [one_copy << copy_index(i if i <= t else n + t + 1 - i, 0, w) for i in range(1, n + 1)]
    rows = [row | whole for whole in wholes for row in lifted]
    for v in range(t * w):
        rows[v] ^= 1 << v
    return Graph.from_rows((copy_label(v, i) for i in range(1, n + 1) for v in full), rows)
