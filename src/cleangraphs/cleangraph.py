"""Graphs attached to the clean structure of Z_n.

Three related constructions: the idempotent graph on the nontrivial
idempotents, the clean graph on all (idempotent, unit) pairs, and its
two induced pieces cl1 (zero idempotent) and cl2 (nonzero idempotent).
cl2 carries essentially all the structure and is where the degree
formula lives: ``predicted_degree`` and ``legacy_degree`` state it per
vertex, ``closed_form_degrees`` gives both as columns, a block at a time.

The pair graphs are built row by row from the defining rule "e*f = 0
or u*v = 1", split at its OR: which idempotent blocks annihilate e, and
which unit is the inverse of u.  The literal scan over every vertex pair
is kept in the tests as the reference these builders must match.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator

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


def _pair_tables(ring: ModRing, idempotents: tuple[int, ...]) -> tuple[list[int], ...]:
    """The parts of the pair graph's rows, which depend on the ring
    alone: each unit's inverse column (u^-1 read from
    ``ring.inverses()``) shifted across the blocks, the columns of the
    self-inverse units, and each idempotent's annihilator run, the
    blocks of the f with e*f = 0.  As bitsets a block is a run of m set
    bits and a column a bit every m places."""
    n = ring.modulus
    units = ring.units()
    m = len(units)
    column = {u: c for c, u in enumerate(units)}
    inverse_column = [column[v] for v in ring.inverses()]
    self_inverse = [c for c, v in enumerate(inverse_column) if v == c]
    one_block = (1 << m) - 1
    first_column = sum(1 << (b * m) for b in range(len(idempotents)))
    columns = [first_column << v for v in inverse_column]
    runs = [
        sum(one_block << (b * m) for b, f in enumerate(idempotents) if e * f % n == 0)
        for e in idempotents
    ]
    return columns, self_inverse, runs


def _pair_rows(ring: ModRing, idempotents: tuple[int, ...]) -> Iterator[list[int]]:
    """The rows of the pair graph on vertices (e, u), one block of units
    per idempotent; adjacency ef = 0 or uv = 1.  Each block of m rows is
    yielded as one list and then dropped, so only one is held here.

    The rule is an OR of an idempotent relation and a unit relation, so
    each row is built whole instead of testing every pair: the row of
    (e, u) is e's annihilator run plus the column of the inverse of u,
    minus the vertex itself.

    The runs and columns are kept with the ring for each idempotent
    tuple, so only a ring's first build pays for them; every call puts
    its rows together fresh, an idempotent block's m rows in one
    comprehension.  A row holds its own bit only where one of the two
    parts put it there, so only those rows are cleared: every row of a
    block whose e has e*e = 0, that is e = 0, and otherwise the rows of
    the units that are their own inverse.
    """
    key = ("pair tables", idempotents)
    columns, self_inverse, runs = ring.kept(key, _pair_tables, ring, idempotents)
    m = len(columns)
    for b, (e, run) in enumerate(zip(idempotents, runs)):
        block_rows = [run | col for col in columns]
        own = 1 << (b * m)
        for c in range(m) if e == 0 else self_inverse:
            block_rows[c] ^= own << c
        yield block_rows
        del block_rows


def _pair_graph(ring: ModRing, idempotents: tuple[int, ...]) -> Graph:
    """The pair graph whose rows ``_pair_rows`` yields, kept whole."""
    units = ring.units()
    labels = (pair_label(e, u) for e in idempotents for u in units)
    return Graph.from_rows(labels, list(chain.from_iterable(_pair_rows(ring, idempotents))))


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


def _closed_form_columns(ring: ModRing) -> tuple[list[int], list[int]]:
    n = ring.modulus
    num_id = 1 << ring.num_primes
    num_units = ring.unit_count()
    cs = [2 if u * u % n == 1 else 1 for u in ring.units()]
    predicted: list[int] = []
    legacy: list[int] = []
    for e in ring.nonzero_idempotents():
        o_e = ring.annihilating_idempotent_count(e)
        block = num_id + o_e * (num_units - 1)
        predicted += [block - c for c in cs]
        legacy += [block + o_e - c for c in cs]
    return predicted, legacy


def closed_form_degrees(r: ModRing | int) -> tuple[list[int], list[int]]:
    """The columns (predicted_degree, legacy_degree) over the cl2
    vertices, in the order of ``cl2_pairs(r)``.

    Both forms depend on e only through O_e and on u only through
    whether u*u = 1, so each idempotent block of a column is one
    comprehension over the units' c.  Like the per-vertex forms this
    reads the ring, never the graph, and none of the builders' tables.
    The columns are computed once per ring and kept with it; each call
    hands out fresh copies.
    """
    ring = _ring(r)
    predicted, legacy = ring.kept("closed form", _closed_form_columns, ring)
    return predicted[:], legacy[:]
