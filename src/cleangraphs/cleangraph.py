"""Graphs attached to the clean structure of Z_n.

Three related constructions: the idempotent graph on the nontrivial
idempotents, the clean graph on all (idempotent, unit) pairs, and its
two induced pieces cl1 (zero idempotent) and cl2 (nonzero idempotent).
cl2 carries essentially all the structure and is where the degree
formula lives: ``predicted_degree`` and ``legacy_degree`` state it per
vertex, ``closed_form_degrees`` tabulates it once per idempotent block.

The pair graphs are built row by row from the defining rule "e*f = 0
or u*v = 1", split at its OR: which idempotent blocks annihilate e, and
which unit is the inverse of u.  The literal scan over every vertex pair
is kept in the tests as the reference these builders must match.
"""

from __future__ import annotations

from .graph import Graph
from .modring import ModRing, factorize


def _ring(r: ModRing | int) -> ModRing:
    return factorize(r) if isinstance(r, int) else r


def pair_label(e: int, u: int) -> str:
    """Stable vertex label for the pair (e, u); no whitespace so every
    export format can carry it."""
    return f"({e},{u})"


def idempotent_graph(r: ModRing | int) -> Graph:
    """Graph on the idempotents other than 0 and 1; e ~ f iff e*f = 0.
    Vertex x is ``ring.nontrivial_idempotents()[x]``, labelled ``str(e)``."""
    ring = _ring(r)
    n = ring.modulus
    verts = ring.nontrivial_idempotents()
    # e*e = e is not 0, so no row holds its own vertex
    rows = [sum(1 << j for j, f in enumerate(verts) if e * f % n == 0) for e in verts]
    return Graph.from_rows(map(str, verts), rows)


def cl2_pairs(r: ModRing | int) -> list[tuple[int, int]]:
    """The (e, u) vertices of cl2 in the order cl2 stores them: the
    pair behind vertex index i is ``cl2_pairs(r)[i]``."""
    ring = _ring(r)
    units = ring.units()
    return [(e, u) for e in ring.nonzero_idempotents() for u in units]


def _pair_graph(ring: ModRing, idempotents: tuple[int, ...]) -> Graph:
    """Vertices (e, u), one block of units per idempotent; adjacency
    ef = 0 or uv = 1.

    The rule is an OR of an idempotent relation and a unit relation, so
    each row is built whole instead of testing every pair: the row of
    (e, u) is every block whose f has e*f = 0, plus the column of the
    inverse of u in every block, minus the vertex itself.  As bitsets a
    block is a run of m set bits and a column a bit every m places.
    """
    n = ring.modulus
    units = ring.units()
    m = len(units)
    column = {u: c for c, u in enumerate(units)}
    inverse_column = [column[pow(u, -1, n)] for u in units]
    one_block = (1 << m) - 1
    first_column = sum(1 << (b * m) for b in range(len(idempotents)))
    rows: list[int] = []
    for e in idempotents:
        block = 0
        for b, f in enumerate(idempotents):
            if e * f % n == 0:
                block |= one_block << (b * m)
        for c in inverse_column:
            rows.append((block | first_column << c) & ~(1 << len(rows)))
    return Graph.from_rows((pair_label(e, u) for e in idempotents for u in units), rows)


def clean_graph(r: ModRing | int) -> Graph:
    """Vertices are all pairs (e, u) with e idempotent and u a unit;
    distinct pairs are adjacent iff e*f = 0 or u*v = 1 (mod n).

    The adjacency rule is applied literally, so the zero idempotent
    block is a clique: e = f = 0 satisfies e*f = 0.
    """
    ring = _ring(r)
    return _pair_graph(ring, ring.idempotents())


def cl1(r: ModRing | int) -> Graph:
    """The part of the clean graph with e = 0 (always a clique)."""
    ring = _ring(r)
    return _pair_graph(ring, (0,))


def cl2(r: ModRing | int) -> Graph:
    """The part of the clean graph with e != 0, built directly."""
    ring = _ring(r)
    return _pair_graph(ring, ring.nonzero_idempotents())


def predicted_degree(r: ModRing | int, e: int, u: int) -> int:
    """Closed-form degree of (e, u) in cl2.

    deg = |Id| + O_e * (|U| - 1) - c, with O_e the number of nonzero
    idempotents annihilating e and c = 2 when u is its own inverse
    (the vertex itself satisfies u*u = 1 and must not count), else 1.
    """
    ring = _ring(r)
    n = ring.modulus
    if e == 0:
        raise ValueError("degree formula applies to nonzero idempotents only")
    if not ring.is_idempotent(e):
        raise ValueError(f"{e} is not idempotent mod {n}")
    if not ring.is_unit(u):
        raise ValueError(f"{u} is not a unit mod {n}")
    num_id = 1 << ring.num_primes
    num_units = ring.unit_count()
    o_e = ring.annihilating_idempotent_count(e)
    c = 2 if u * u % n == 1 else 1
    return num_id + o_e * (num_units - 1) - c


def legacy_degree(r: ModRing | int, e: int, u: int) -> int:
    """Earlier published form of the degree count, kept for comparison.

    It tallies O_e * |U| instead of O_e * (|U| - 1), double-counting the
    annihilating pairs that are also inverse pairs; it overshoots by O_e
    whenever O_e > 0.
    """
    return predicted_degree(r, e, u) + _ring(r).annihilating_idempotent_count(e)


def closed_form_degrees(r: ModRing | int) -> list[tuple[int, int]]:
    """(predicted_degree, legacy_degree) of every cl2 vertex, in the
    order of ``cl2_pairs(r)``.

    Both forms depend on e only through O_e and on u only through
    whether u*u = 1, so |Id|, |U| and O_e are computed once per
    idempotent block and c once per unit.  Like the per-vertex forms
    this reads the ring, never the graph.
    """
    ring = _ring(r)
    n = ring.modulus
    num_id = 1 << ring.num_primes
    num_units = ring.unit_count()
    cs = [2 if u * u % n == 1 else 1 for u in ring.units()]
    out: list[tuple[int, int]] = []
    for e in ring.nonzero_idempotents():
        o_e = ring.annihilating_idempotent_count(e)
        block = num_id + o_e * (num_units - 1)
        out += [(block - c, block - c + o_e) for c in cs]
    return out
