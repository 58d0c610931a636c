"""Graphs attached to the clean structure of Z_n.

Three related constructions: the idempotent graph on the nontrivial
idempotents, the clean graph on all (idempotent, unit) pairs, and its
two induced pieces cl1 (zero idempotent) and cl2 (nonzero idempotent).
cl2 carries essentially all the structure and is where the degree
formula lives.
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
    """Graph on the idempotents other than 0 and 1; e ~ f iff e*f = 0."""
    ring = _ring(r)
    n = ring.modulus
    verts = ring.nontrivial_idempotents()
    g = Graph(str(e) for e in verts)
    for i, e in enumerate(verts):
        for j, f in enumerate(verts[i + 1 :], start=i + 1):
            if e * f % n == 0:
                g.link(i, j)
    return g


def _pairs(ring: ModRing, idempotents: tuple[int, ...]) -> list[tuple[int, int]]:
    units = ring.units()
    return [(e, u) for e in idempotents for u in units]


def cl2_pairs(r: ModRing | int) -> list[tuple[int, int]]:
    """The (e, u) vertices of cl2 in the order cl2 stores them: the
    pair behind vertex index i is ``cl2_pairs(r)[i]``."""
    ring = _ring(r)
    return _pairs(ring, ring.nonzero_idempotents())


def _pair_graph(ring: ModRing, idempotents: tuple[int, ...]) -> Graph:
    """Common pair-scan: vertices (e, u), adjacency ef = 0 or uv = 1."""
    n = ring.modulus
    verts = _pairs(ring, idempotents)
    g = Graph(pair_label(e, u) for e, u in verts)
    for i, (e, u) in enumerate(verts):
        for j, (f, v) in enumerate(verts[i + 1 :], start=i + 1):
            if e * f % n == 0 or u * v % n == 1:
                g.link(i, j)
    return g


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
