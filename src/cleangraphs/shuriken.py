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

    # a_i, b_i, c_i have the indices i - 1, n + i - 1, 2n + i - 1, and the
    # 0-based index x mirrors to mirror[x]
    mirror = [x if x < t else n + t - 1 - x for x in range(n)]
    all_a = (1 << n) - 1
    all_b = all_a << n
    rows: list[int] = []
    # an a (b) row: all of b (a), c at the mirror, and a (b) at the mirror above t
    for own, other in ((0, all_b), (n, all_a)):
        rows += [
            other | 1 << (2 * n + m) | (1 << (own + m) if x >= t else 0)
            for x, m in enumerate(mirror)
        ]
    # a c row: a and b at the mirror, and c at the mirror above t
    rows += [
        1 << m | 1 << (n + m) | (1 << (2 * n + m) if x >= t else 0)
        for x, m in enumerate(mirror)
    ]
    return Graph.from_rows((f"{row}{i}" for row in "abc" for i in range(1, n + 1)), rows)


def copy_label(v: str, i: int) -> str:
    """Label of vertex v inside copy i of the shuriken operation."""
    return f"{v}@{i}"


def hub_label(i: int) -> str:
    return f"z@{i}"


def build_shu(g: Graph, t: int, n: int) -> Graph:
    """The (t, n)-shuriken graph of g.

    Takes n copies of g with a fresh hub vertex z per copy.  Edges: each
    g-edge uv lifts to u@i -- v@j for every pair of copies (same copy
    included); copies 1..t are completed into cliques (hub included);
    copies i and n + t + 1 - i are completely joined for
    t < i <= (n + t) / 2.  Hypotheses: n >= t >= 1 and n - t even.
    """
    if t < 1 or n < t:
        raise ValueError(f"need n >= t >= 1, got t={t} n={n}")
    if (n - t) % 2:
        raise ValueError(f"n - t must be even, got t={t} n={n}")
    if g.has_vertex("z"):
        raise ValueError('input graph must not use the reserved label "z"')

    full = g.labels + ["z"]
    w = len(full)
    # vertex x of copy i (x = w - 1 the hub) has index (i - 1) * w + x
    one_copy = (1 << w) - 1
    # a row of g repeated in every copy: a w-bit row times a bit every w
    # places is its copies side by side, none overlapping
    every_copy = sum(1 << (j * w) for j in range(n))
    lifted = [row * every_copy for row in g.adj] + [0]
    rows: list[int] = []
    for i in range(1, n + 1):
        # copy i is completed (i <= t) or joined to its mirror copy
        c = i if i <= t else n + t + 1 - i
        whole = one_copy << ((c - 1) * w)
        for x in range(w):
            rows.append((lifted[x] | whole) & ~(1 << len(rows)))
    return Graph.from_rows((copy_label(v, i) for i in range(1, n + 1) for v in full), rows)
