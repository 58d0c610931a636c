"""Seeded workload generators and output checks for the benchmark.

Each workload turns a seed into one *pass*: a list of ops that the
benchmark replays, whole passes at a time, until the run has lasted long
enough.  Every op calls the public functions of ``cleangraphs`` through
module attributes (``verify.sweep``, ``graph.export``, ...), so a traced
run can rebind those names to timing wrappers.

Cross-seed stability comes from stratification: a seed chooses *which*
instances fill each cost class, never how many instances a class gets,
so two seeds do nearly the same amount of work.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Any, Callable

from cleangraphs import _kernels, cleangraph, graph, modring, shuriken, verify

# -- the benchmark's own number theory (independent of the package) -------------


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 2 by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def phi(n: int) -> int:
    result = 1
    for p, e in factor(n):
        result *= p**e - p ** (e - 1)
    return result


def predicted_vertices(n: int) -> int:
    """|V(cl2(Z_n))| = (2^k - 1) * phi(n), k the number of distinct primes."""
    return ((1 << len(factor(n))) - 1) * phi(n)


def self_inverse_count(n: int) -> int:
    """Number of square roots of 1 mod n, as a product over prime powers."""
    count = 1
    for p, e in factor(n):
        if p != 2:
            count *= 2
        elif e >= 3:
            count *= 4
        elif e == 2:
            count *= 2
    return count


class CapacityError(ValueError):
    """An instance whose cl2 would exceed the benchmark's vertex cap."""


def guard(n: int, cap: int) -> int:
    """Predict V = (2^k - 1) * phi(n) before anything is built; refuse
    the modulus if V is above ``cap``.  Returns V."""
    v = predicted_vertices(n)
    if v > cap:
        raise CapacityError(f"n={n}: cl2 would have {v} vertices, above the cap of {cap}")
    return v


# -- ops --------------------------------------------------------------------------


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: ``run`` is timed, ``check`` is not.

    ``check`` returns None when the output is right, else a message.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _reports_pass(reports) -> str | None:
    bad = [f"{r.theorem_id} {r.instance}: {r.status}" for r in reports if r.status != "pass"]
    return "; ".join(bad) or None


def _roundtrip_error(g: graph.Graph, back: graph.Graph, fmt: str) -> str | None:
    # neighbourhood comparison is the same test as Graph.__eq__ without
    # sorting every edge, which costs more than the parse on big graphs
    same = set(back.vertices) == set(g.vertices) and all(
        back.neighbors(v) == g.neighbors(v) for v in g.vertices
    )
    return None if same else f"{fmt} round trip changed the graph"


# -- sweep: many small rings through every theorem ------------------------------

SWEEP_IDS = sorted(verify.NUMERIC_THEOREMS)


def _sweep_op(n: int, v: int) -> Op:
    k = len(factor(n))
    expected_ids = {"degree_formula", "legacy_degree_report", "master_isomorphism", "self_inverse_count"}
    expected_ids |= {1: {"prime_power_components"}, 2: {"two_prime_isomorphism"}}.get(k, set())

    def check(reports) -> str | None:
        ids = {r.theorem_id for r in reports}
        if ids != expected_ids or len(reports) != len(expected_ids):
            return f"n={n}: reports {sorted(ids)}, expected {sorted(expected_ids)}"
        master = next(r for r in reports if r.theorem_id == "master_isomorphism")
        if master.evidence.get("vertices") != v:
            return f"n={n}: cl2 has {master.evidence.get('vertices')} vertices, predicted {v}"
        return _reports_pass(reports)

    return Op(f"sweep n={n}", lambda: verify.sweep([n], SWEEP_IDS), check)


def sweep_pass(rng: random.Random, size: dict) -> list[Op]:
    """``size["moduli"]`` moduli below ``size["below"]`` whose cl2 fits
    under ``size["cap"]`` vertices, stratified by (k, V)."""
    candidates = sorted(
        (len(factor(n)), predicted_vertices(n), n)
        for n in range(2, size["below"])
        if predicted_vertices(n) <= size["cap"]
    )
    picked = _stratified(rng, candidates, size["moduli"])
    rng.shuffle(picked)
    return [_sweep_op(n, guard(n, size["cap"])) for _, _, n in picked]


def _stratified(rng: random.Random, items: list, count: int) -> list:
    """Keep ``count`` of the sorted ``items`` so that every run of similar
    neighbours keeps the same share: split them into as many blocks as
    items must go and drop one item per block at random."""
    blocks = len(items) - count
    if not 0 < blocks <= count:
        raise ValueError(f"cannot keep {count} of {len(items)} items by dropping one per block")
    out = []
    for b in range(blocks):
        block = items[b * len(items) // blocks : (b + 1) * len(items) // blocks]
        dropped = rng.randrange(len(block))
        out.extend(x for i, x in enumerate(block) if i != dropped)
    return out


# -- large: a few big rings, construction and witness check dominate ----------


def _large_op(n: int, v: int) -> Op:
    def run():
        general = verify.verify_general(n)
        degree = verify.verify_degree_formula(n)
        g = cleangraph.cl2(n)
        back = graph.parse_edgelist(graph.export(g, "edgelist"))
        return general, degree, g, back

    def check(out) -> str | None:
        general, degree, g, back = out
        if g.num_vertices != v or general.evidence.get("vertices") != v:
            return f"n={n}: cl2 has {g.num_vertices} vertices, predicted {v}"
        return _reports_pass([general, degree]) or _roundtrip_error(g, back, "edgelist")

    return Op(f"large n={n}", run, check)


def large_pass(rng: random.Random, size: dict) -> list[Op]:
    """One modulus from each (k, V-band) class in ``size["classes"]``."""
    ops = []
    for k, lo, hi in size["classes"]:
        members = [
            n
            for n in range(2, size["below"])
            if len(factor(n)) == k and lo <= predicted_vertices(n) <= hi
        ]
        n = rng.choice(members)
        ops.append(_large_op(n, guard(n, size["cap"])))
    rng.shuffle(ops)
    return ops


# -- scan: the arithmetic kernels alone ------------------------------------------


def _corollary_op(n: int) -> Op:
    def check(r) -> str | None:
        want = {"t": self_inverse_count(n), "units": phi(n)}
        if r.status != "pass" or {k: r.evidence.get(k) for k in want} != want:
            return f"n={n}: {r.status} {r.evidence}, closed forms {want}"
        return None

    return Op(f"corollary n={n}", lambda: verify.verify_corollary(n), check)


def _roots_op(q: int, p: int, m: int) -> Op:
    def check(roots) -> str | None:
        want = modring.self_inverse_closed_form(p, m)
        return None if tuple(roots) == want else f"q={q}: roots {roots}, closed form {want}"

    return Op(f"roots q={p}^{m}", lambda: _kernels.square_roots_of_one(q), check)


def scan_pass(rng: random.Random, size: dict) -> list[Op]:
    """A window of consecutive moduli (c09-style) and runs of consecutive
    prime powers (c10-style), each starting at a seeded point of a narrow
    band so that the scanned lengths barely change between seeds.  The
    run of prime powers near 10^5, the top of c10's range, is a heavy
    class of about 2% of the ops, so the p99 tail lands in the middle of
    those scans rather than on timer noise among the light ones."""
    lo, hi, length = size["window"]
    start = rng.randrange(lo, hi)
    ops = [_corollary_op(n) for n in range(start, start + length)]
    for lo, hi, count in size["prime_powers"]:
        q = rng.randrange(lo, hi)
        for _ in range(count):
            while len(factor(q)) != 1:
                q += 1
            ops.append(_roots_op(q, *factor(q)[0]))
            q += 1
    rng.shuffle(ops)
    return ops


# -- shu: the shuriken operation and the searcher on seeded input pairs ---------


def _graph(edges, prefix: str) -> graph.Graph:
    return graph.Graph((), ((f"{prefix}{a}", f"{prefix}{b}") for a, b in edges))


def _relabelled(edges, nv: int, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(nv))
    rng.shuffle(perm)
    return [(perm[a], perm[b]) for a, b in edges]


def _connected(edges, nv: int) -> bool:
    adj = {v: set() for v in range(nv)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return len(seen) == nv


def _random_connected(rng: random.Random, nv: int, ne: int) -> list[tuple[int, int]]:
    edges = {(rng.randrange(v), v) for v in range(1, nv)}
    while len(edges) < ne:
        a, b = sorted(rng.sample(range(nv), 2))
        edges.add((a, b))
    return sorted(edges)


def _non_isomorphic_pair(rng: random.Random, nv: int, ne: int):
    """A random connected graph and a copy with one edge end moved so
    that the degree multiset changes and the copy stays connected: the
    pair is certified non-isomorphic without a search."""
    while True:
        base = _random_connected(rng, nv, ne)
        moved = _degree_changed(rng, base, nv)
        if moved is not None:
            return base, moved


def _degree_changed(rng: random.Random, edges, nv: int, tries: int = 50):
    present = set(edges)
    deg = {v: sum(v in e for e in edges) for v in range(nv)}
    for _ in range(tries):
        a, b = rng.choice(edges)
        if rng.random() < 0.5:
            a, b = b, a
        options = [
            c
            for c in range(nv)
            if c not in (a, b)
            and (min(a, c), max(a, c)) not in present
            and deg[c] != deg[b] - 1
        ]
        if not options:
            continue
        c = rng.choice(options)
        moved = [e for e in edges if e != (min(a, b), max(a, b))] + [(min(a, c), max(a, c))]
        if _connected(moved, nv):
            return sorted(moved)
    return None


def _cycle(m: int, steps=(1,)) -> list[tuple[int, int]]:
    return sorted({tuple(sorted((i, (i + s) % m))) for i in range(m) for s in steps})


def _prism(m: int) -> list[tuple[int, int]]:
    ring = [(i, (i + 1) % m) for i in range(m)]
    return ring + [(a + m, b + m) for a, b in ring] + [(i, i + m) for i in range(m)]


def _mobius(m: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % (2 * m)) for i in range(2 * m)] + [(i, i + m) for i in range(m)]


def _shu_op(label: str, g1: graph.Graph, g2: graph.Graph, t: int, n: int, iso: bool) -> Op:
    truth = "isomorphic" if iso else "not_isomorphic"

    def run():
        s = shuriken.build_shu(g1, t, n)
        connectivity = verify.verify_shu_connectivity(g1, t, n)
        inheritance = verify.verify_shu_inheritance(g1, g2, t, n)
        texts = {fmt: graph.export(s, fmt) for fmt in ("edgelist", "dot", "json")}
        return s, connectivity, inheritance, texts, graph.parse_edgelist(texts["edgelist"])

    def check(out) -> str | None:
        s, connectivity, inheritance, texts, back = out
        if connectivity.evidence.get("components") != 1:
            return f"{label}: connectivity {connectivity.status} {connectivity.evidence}"
        ev = inheritance.evidence
        if ev.get("inputs") != truth or ev.get("results") != truth:
            return f"{label}: inheritance says {ev.get('inputs')}/{ev.get('results')}, built as {truth}"
        return (
            _reports_pass([connectivity, inheritance])
            or _roundtrip_error(s, back, "edgelist")
            or _roundtrip_error(s, _from_dot(texts["dot"]), "dot")
            or _roundtrip_error(s, _from_json(texts["json"]), "json")
        )

    return Op(label, run, check)


_DOT_VERTEX = re.compile(r'^\s*"([^"]+)";$')
_DOT_EDGE = re.compile(r'^\s*"([^"]+)" -- "([^"]+)";$')


def _from_dot(text: str) -> graph.Graph:
    g = graph.Graph()
    for line in text.splitlines():
        if m := _DOT_EDGE.match(line):
            g.add_edge(*m.groups())
        elif m := _DOT_VERTEX.match(line):
            g.add_vertex(m.group(1))
    return g


def _from_json(text: str) -> graph.Graph:
    doc = json.loads(text)
    return graph.Graph(doc["vertices"], (tuple(e) for e in doc["edges"]))


def shu_pass(rng: random.Random, size: dict) -> list[Op]:
    """Fixed slots per pass, seeded contents.

    Random sparse pairs are relabelled copies (isomorphic) or have one
    edge moved so the degree multiset differs (not isomorphic).  The
    regular pairs defeat colour refinement: relabelled cycles and
    circulants (isomorphic) and prism against Moebius ladder, one of
    them bipartite and the other not (not isomorphic).  A non-isomorphic
    pair costs the searcher the same number of nodes under every
    relabelling of its second graph, which keeps seeds comparable; the
    isomorphic regular pairs use (t, n) where that count barely moves.
    Most slots hold random isomorphic pairs of one size, so the median op
    falls inside one homogeneous group rather than between two; the two
    cube/Wagner-style ladder pairs make up a tenth of the ops, so the p95
    tail falls in the middle of that group.
    """
    nv, ne = size["random_graph"]
    ops = []
    for t, n in size["random_iso"]:
        base = _random_connected(rng, nv, ne)
        ops.append(
            _shu_op(f"random iso t={t} n={n}", _graph(base, "a"),
                    _graph(_relabelled(base, nv, rng), "b"), t, n, True)
        )
    for t, n in size["random_non_iso"]:
        base, other = _non_isomorphic_pair(rng, nv, ne)
        ops.append(
            _shu_op(f"random non-iso t={t} n={n}", _graph(base, "a"),
                    _graph(_relabelled(other, nv, rng), "b"), t, n, False)
        )
    for m, steps, (t, n) in size["circulants"]:
        edges = _cycle(m, steps)
        ops.append(
            _shu_op(f"C{m}{list(steps)} iso t={t} n={n}", _graph(edges, "a"),
                    _graph(_relabelled(edges, m, rng), "b"), t, n, True)
        )
    for m, (t, n) in size["ladders"]:
        ops.append(
            _shu_op(f"prism{m}/moebius{m} t={t} n={n}", _graph(_prism(m), "a"),
                    _graph(_relabelled(_mobius(m), 2 * m, rng), "b"), t, n, False)
        )
    rng.shuffle(ops)
    return ops


# -- registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    make_pass: Callable[[random.Random, dict], list[Op]]
    # a run repeats whole passes until it has lasted --seconds and done
    # at least this many ops; the tail percentile is fixed from it
    min_ops: int
    full: dict
    smoke: dict

    def generate(self, seed: int, smoke: bool = False) -> list[Op]:
        return self.make_pass(random.Random(f"{self.name}:{seed}"), self.smoke if smoke else self.full)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep", sweep_pass, 200,
            full={"moduli": 200, "below": 300, "cap": 400},
            smoke={"moduli": 24, "below": 40, "cap": 400},
        ),
        Workload(
            "large", large_pass, 20,
            full={"classes": [(1, 2300, 2500), (2, 1000, 1030), (3, 1000, 1010)],
                  "below": 3200, "cap": 2500},
            smoke={"classes": [(1, 40, 60), (2, 40, 60)], "below": 200, "cap": 2500},
        ),
        Workload(
            "scan", scan_pass, 1000,
            full={"window": (20000, 20200, 400),
                  "prime_powers": [(20000, 20200, 200), (99000, 99500, 13)]},
            smoke={"window": (200, 220, 8), "prime_powers": [(200, 220, 3), (900, 950, 1)]},
        ),
        Workload(
            "shu", shu_pass, 200,
            full={"random_graph": (10, 14), "random_iso": [(2, 4)] * 13,
                  "random_non_iso": [(2, 6), (4, 6)],
                  "circulants": [(8, (1,), (2, 4)), (9, (1, 2), (4, 6))],
                  "ladders": [(3, (2, 4)), (4, (2, 4)), (4, (2, 4))]},
            smoke={"random_graph": (5, 6), "random_iso": [(2, 4)], "random_non_iso": [(2, 4)],
                   "circulants": [(5, (1,), (2, 4))], "ladders": [(3, (2, 4))]},
        ),
    )
}
