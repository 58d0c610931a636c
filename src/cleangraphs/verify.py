"""Mechanical verification of the structure results.

Every verifier returns a TheoremReport.  The isomorphism statements are
checked witness-first: the verifier builds the explicit bijection that
the corresponding proof describes and validates it edge-exactly, which
stays linear in the graph size.  The generic isomorphism searcher runs
as an independent cross-check only under a size gate.  Instances that
violate a statement's hypotheses come back as "rejected", never "fail":
a verifier only judges instances the statement actually covers.

The per-modulus statements are listed once, in NUMERIC_THEOREMS; the
sweep and the command line both read them from there.  Each of their
verifiers takes the ring (or its modulus) and itself returns "rejected"
for a modulus its statement does not cover; there is no separate
applicability test.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterable, Literal

from . import _kernels, graph
from .cleangraph import _ring, cl2, cl2_pairs, closed_form_degrees, idempotent_graph
from .graph import Graph, complete_graph, find_isomorphism
from .modring import ModRing
from .shuriken import build_sh, build_shu, copy_index, is_null

# graphs at or under this size also get the generic searcher pass
SEARCH_GATE = 150

Status = Literal["pass", "fail", "inconclusive", "rejected"]

# what a verifier body returns: (instance, status, detail, evidence)
_Outcome = tuple[str, Status, str, dict]


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    instance: str
    status: Status
    detail: str
    evidence: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_dict(self, stable: bool = False) -> dict:
        d = {
            "theorem_id": self.theorem_id,
            "instance": self.instance,
            "status": self.status,
            "detail": self.detail,
            "evidence": self.evidence,
        }
        if not stable:
            d["elapsed"] = round(self.elapsed, 6)
        return d


def reports_to_json(reports: Iterable[TheoremReport], stable: bool = False) -> str:
    return json.dumps([r.to_dict(stable) for r in reports], indent=2) + "\n"


def format_report(r: TheoremReport, stable: bool = False) -> str:
    tag = r.status.upper()
    timing = "" if stable else f" ({r.elapsed:.3f}s)"
    return f"[{tag}] {r.theorem_id} {r.instance}{timing}: {r.detail}"


def _timed(theorem_id: str):
    """Turn a verifier body returning an _Outcome into a verifier
    returning a TheoremReport stamped with theorem_id and the time the
    whole call took."""

    def decorate(body: Callable[..., _Outcome]) -> Callable[..., TheoremReport]:
        @functools.wraps(body)
        def verifier(*args, **kwargs) -> TheoremReport:
            start = time.perf_counter()
            outcome = body(*args, **kwargs)
            return TheoremReport(theorem_id, *outcome, time.perf_counter() - start)

        return verifier

    return decorate


# -- degree formula -----------------------------------------------------------


def degree_table(n: ModRing | int) -> list[tuple[tuple[int, int], int, int, int]]:
    """((e, u), actual, corrected, legacy) for every vertex of cl2(Z_n),
    in stored order: its degree in the built graph, then the degrees the
    closed form and its superseded version predict."""
    ring = _ring(n)
    rows = zip(cl2_pairs(ring), cl2(ring).degrees(), closed_form_degrees(ring))
    return [(pair, actual, *forms) for pair, actual, forms in rows]


@_timed("degree_formula")
def verify_degree_formula(n: ModRing | int) -> _Outcome:
    """Compare every vertex degree of cl2(Z_n) against the closed form."""
    ring = _ring(n)
    instance = f"n={ring.modulus}"
    table = degree_table(ring)
    for (e, u), actual, predicted, _ in table:
        if actual != predicted:
            return (
                instance,
                "fail",
                f"vertex ({e},{u}) has degree {actual}, formula gives {predicted}",
                {"vertex": [e, u], "actual": actual, "predicted": predicted},
            )
    return (
        instance,
        "pass",
        f"all {len(table)} vertex degrees match the closed form",
        {"vertices_checked": len(table)},
    )


@_timed("legacy_degree_report")
def report_counterexample(n: ModRing | int) -> _Outcome:
    """Tabulate vertices where the superseded degree count disagrees
    with the actual degree; the corrected form must still match."""
    ring = _ring(n)
    instance = f"n={ring.modulus}"
    mismatches = []
    corrected_bad = None
    for (e, u), actual, corrected, legacy in degree_table(ring):
        if legacy != actual:
            mismatches.append(
                {"vertex": [e, u], "actual": actual, "corrected": corrected, "legacy": legacy}
            )
        if corrected != actual and corrected_bad is None:
            corrected_bad = {"vertex": [e, u], "actual": actual, "corrected": corrected}
    if corrected_bad is not None:
        return (
            instance,
            "fail",
            f"corrected formula itself disagrees at {tuple(corrected_bad['vertex'])}",
            corrected_bad,
        )
    return (
        instance,
        "pass",
        f"{len(mismatches)} vertices where the superseded count overshoots",
        {"legacy_mismatches": mismatches, "count": len(mismatches)},
    )


# -- prime powers ---------------------------------------------------------------


def _describe(shapes: Counter) -> str:
    """Each component shape (V, E) with its count m as "m x (Vv,Ee)",
    shapes in ascending order."""
    return " + ".join(f"{mult} x ({nv}v,{ne}e)" for (nv, ne), mult in sorted(shapes.items()))


@_timed("prime_power_components")
def verify_prime_power(n: ModRing | int) -> _Outcome:
    """cl2(Z_{p^m}) must decompose into the predicted isolated vertices
    and disjoint edges; rejected unless n is a prime power.

    Components are counted by (vertices, edges).  That is exact here: a
    component with one vertex is K1, one with two vertices and an edge is
    K2, and any other component has another count, so it fails.
    """
    ring = _ring(n)
    if ring.num_primes != 1:
        return f"n={ring.modulus}", "rejected", "modulus is not a prime power", {}
    ((p, m),) = ring.factorization
    instance = f"p={p} m={m}"
    q = p**m
    if q == 2:
        isolated, edges = 1, 0
    elif q == 4:
        isolated, edges = 2, 0
    elif p == 2:
        isolated, edges = 4, 2 ** (m - 1) - 2 ** (m - 2) - 2
    else:
        isolated, edges = 2, (q - q // p) // 2 - 1
    predicted = +Counter({(1, 0): isolated, (2, 1): edges})  # "+" drops a zero count
    actual = Counter(cl2(ring).component_shapes())
    got = _describe(actual)
    if actual == predicted:
        return instance, "pass", f"components are {got}", {"components": got}
    want = _describe(predicted)
    return instance, "fail", f"got {got}, predicted {want}", {"actual": got, "predicted": want}


# -- two prime factors ------------------------------------------------------------


def _witness_outcome(
    instance: str,
    left: Graph,
    right: Graph,
    witness: list[int],
    evidence: dict,
    onto: str,
    pass_evidence: dict | None = None,
) -> _Outcome:
    """Check the proof's witness from left onto right, vertex i of left
    going to vertex ``witness[i]`` of right, then, for graphs under the
    size gate, cross-check with the searcher.

    ``evidence`` goes with every outcome, ``pass_evidence`` only with one
    whose witness holds; ``onto`` names right in a passing detail.  A
    verified witness passes unless the searcher runs and fails to concur.
    """
    # looked up at call time, so that a rebound graph.verify_mapping runs
    if not graph.verify_mapping(left, right, witness):
        return instance, "fail", "constructed witness is not an isomorphism", evidence
    evidence = {**evidence, **(pass_evidence or {})}
    verified = f"witness onto {onto} verified"
    if left.num_vertices > SEARCH_GATE:
        evidence["searcher"] = "skipped"
        return instance, "pass", f"{verified}; searcher skipped (size gate)", evidence
    res = find_isomorphism(left, right)
    nodes = res.nodes_expanded
    evidence.update(searcher=res.status, searcher_nodes=nodes)
    if res.status == "isomorphic":
        return instance, "pass", f"{verified}; searcher concurs ({nodes} nodes)", evidence
    if res.status == "inconclusive":
        detail = f"witness verified but searcher budget exhausted ({nodes} nodes)"
        return instance, "inconclusive", detail, evidence
    detail = "witness verified but searcher contradicts the verified witness"
    return instance, "fail", detail, evidence


@_timed("two_prime_isomorphism")
def verify_pq(n: ModRing | int) -> _Outcome:
    """cl2(Z_{p^np * q^mq}) against the standalone shuriken graph;
    rejected unless n has exactly two distinct prime factors.

    Builds the proof's bijection: with units laid out u_1..u_k by the
    unit partition, the pair (e, u_i) goes to a_i, b_i or c_i according
    to whether e is the first CRT idempotent, the second, or 1.  It is
    built on vertex indices: cl2's vertices are ``cl2_pairs`` and Sh's
    are laid out by ``copy_index``.
    """
    ring = _ring(n)
    if ring.num_primes != 2:
        reason = "modulus must have exactly two distinct prime factors"
        return f"n={ring.modulus}", "rejected", reason, {}
    (p, np_), (q, mq) = ring.factorization
    instance = f"p={p}^{np_} q={q}^{mq}"
    part = ring.unit_partition()
    t, k = part.t, part.k

    branch_t = self_inverse_count_closed_form(ring)
    if branch_t != t:
        return (
            instance,
            "fail",
            f"branch predicts t={branch_t}, enumeration gives t={t}",
            {"t_branch": branch_t, "t_enumerated": t},
        )

    left = cl2(ring)
    right = build_sh(t, k)
    # CRT idempotents: e_a vanishes at the p-coordinate, e_b at the q-coordinate
    e_a = next(e for e in ring.idempotents() if e % p**np_ == 0 and e % q**mq == 1)
    e_b = next(e for e in ring.idempotents() if e % p**np_ == 1 and e % q**mq == 0)
    # a_i, b_i, c_i are vertex i - 1 of Sh's blocks 1, 2, 3
    block = {e_a: 1, e_b: 2, 1: 3}
    position = {u: x for x, u in enumerate(part.ordered_units())}
    witness = [copy_index(block[e], position[u], k) for e, u in cl2_pairs(ring)]

    evidence = {"t": t, "k": k, "vertices": left.num_vertices}
    return _witness_outcome(instance, left, right, witness, evidence, f"Sh(t={t}, n={k})")


def verify_pq_by_modulus(n: ModRing | int) -> TheoremReport:
    """The same as verify_pq; the name stays only because the benchmark's
    tracer (perfbench/tracing.py) lists it."""
    return verify_pq(n)


# -- the general modulus -------------------------------------------------------


@_timed("master_isomorphism")
def verify_general(n: ModRing | int) -> _Outcome:
    """cl2(Z_n) against the shuriken operation applied to the idempotent
    graph, via the proof witness f(e, u_i) = e@i (hub when e = 1).

    The witness is built on vertex indices: cl2's vertices are
    ``cl2_pairs``, the idempotent graph's are the nontrivial idempotents
    in order, and Shu's copy i, laid out by ``copy_index``, holds those
    and then the hub."""
    ring = _ring(n)
    instance = f"n={ring.modulus}"
    part = ring.unit_partition()
    t, k = part.t, part.k
    left = cl2(ring)
    base = idempotent_graph(ring)
    right = build_shu(base, t, k)

    base_order = ring.nontrivial_idempotents()
    width = len(base_order) + 1
    place = {e: x for x, e in enumerate(base_order)}
    place[1] = width - 1  # the hub
    copy = {u: i for i, u in enumerate(part.ordered_units(), start=1)}
    witness = [copy_index(copy[u], place[e], width) for e, u in cl2_pairs(ring)]

    evidence = {"t": t, "k": k, "vertices": left.num_vertices}
    onto = f"Shu(t={t}, n={k}) over the {base.num_vertices}-vertex idempotent graph"
    edges = {"edges": left.num_edges}
    return _witness_outcome(instance, left, right, witness, evidence, onto, edges)


# -- self-inverse unit count ----------------------------------------------------


def self_inverse_count_closed_form(n: ModRing | int) -> int:
    """Predicted |{u : u*u = 1 mod n}| from the 2-adic valuation of n
    and the number k of distinct prime factors."""
    ring = _ring(n)
    k = ring.num_primes
    two_exp = dict(ring.factorization).get(2, 0)
    if two_exp == 1:
        return 2 ** (k - 1)
    if two_exp >= 3:
        return 2 ** (k + 1)
    return 2**k


@_timed("self_inverse_count")
def verify_corollary(n: ModRing | int) -> _Outcome:
    """Check the closed forms for |U'| and |U| against direct scans."""
    ring = _ring(n)
    instance = f"n={ring.modulus}"
    t_scan = _kernels.count_square_roots_of_one(ring.modulus)
    t_formula = self_inverse_count_closed_form(ring)
    u_scan = _kernels.count_units(ring.modulus)
    u_formula = ring.unit_count()
    if t_scan != t_formula or u_scan != u_formula:
        return (
            instance,
            "fail",
            f"scan gives t={t_scan}, m={u_scan}; "
            f"formulas give t={t_formula}, m={u_formula}",
            {
                "t_scan": t_scan,
                "t_formula": t_formula,
                "units_scan": u_scan,
                "units_formula": u_formula,
            },
        )
    return (
        instance,
        "pass",
        f"t={t_scan} and m={u_scan} match their closed forms",
        {"t": t_scan, "units": u_scan},
    )


# -- shuriken operation properties ---------------------------------------------


@_timed("shu_connectivity")
def verify_shu_connectivity(g: Graph, t: int, n: int) -> _Outcome:
    """Shu(g, t, n) must be disconnected exactly when g has no edges."""
    instance = f"t={t} n={n} g=({g.num_vertices}v,{g.num_edges}e)"
    if not (n >= t >= 2) or (n - t) % 2:
        return instance, "rejected", "hypotheses need n >= t >= 2 with n - t even", {}
    shu = build_shu(g, t, n)
    null = is_null(g)
    components = len(shu.component_shapes())
    evidence = {"components": components, "input_null": null}
    if (components > 1) == null:
        detail = f"{components} component(s), input {'null' if null else 'has an edge'}"
        return instance, "pass", detail, evidence
    detail = f"input {'null' if null else 'non-null'} but result has {components} component(s)"
    return instance, "fail", detail, evidence


@_timed("shu_inheritance")
def verify_shu_inheritance(g1: Graph, g2: Graph, t: int, n: int) -> _Outcome:
    """Shu(g1) and Shu(g2) are isomorphic exactly when g1 and g2 are,
    for connected inputs; both sides evaluated by the searcher."""
    instance = (
        f"t={t} n={n} g1=({g1.num_vertices}v,{g1.num_edges}e) "
        f"g2=({g2.num_vertices}v,{g2.num_edges}e)"
    )
    if not (2 <= t < n) or (n - t) % 2 or not g1.is_connected() or not g2.is_connected():
        return (
            instance,
            "rejected",
            "hypotheses need connected inputs and 2 <= t < n with n - t even",
            {},
        )
    small = find_isomorphism(g1, g2)
    big = find_isomorphism(build_shu(g1, t, n), build_shu(g2, t, n))
    evidence = {
        "inputs": small.status,
        "results": big.status,
        "nodes": small.nodes_expanded + big.nodes_expanded,
    }
    if small.status == "inconclusive" or big.status == "inconclusive":
        return (
            instance,
            "inconclusive",
            "searcher budget exhausted before deciding both sides",
            evidence,
        )
    agree = (small.status == "isomorphic") == (big.status == "isomorphic")
    detail = f"inputs {small.status}, results {big.status}"
    return instance, "pass" if agree else "fail", detail, evidence


@_timed("sh_shu_bridge")
def verify_sh_shu_bridge(t: int, n: int) -> _Outcome:
    """The standalone shuriken graph must equal the shuriken operation
    applied to a single edge: a_i, b_i, c_i map to v1@i, v2@i, z@i."""
    instance = f"t={t} n={n}"
    try:
        sh = build_sh(t, n)
    except ValueError as exc:
        return instance, "rejected", str(exc), {}
    shu = build_shu(complete_graph(2), t, n)
    # a_i, b_i, c_i (vertex i - 1 of Sh's blocks 1, 2, 3) go to vertex
    # 0, 1, 2 of Shu's copy i: v1, v2 and the hub
    witness = [copy_index(i, r - 1, 3) for r in (1, 2, 3) for i in range(1, n + 1)]
    onto = f"Shu(t={t}, n={n}) of a single edge"
    return _witness_outcome(instance, sh, shu, witness, {"vertices": sh.num_vertices}, onto)


# -- the per-modulus registry and sweeps ----------------------------------------


@dataclass(frozen=True)
class NumericTheorem:
    """A statement checked one modulus at a time.

    ``cli_name`` is its ``verify`` choice on the command line (None when
    only ``all`` runs it).  ``run`` takes the already factored ring and
    looks its verifier up by name at call time, so a rebound module
    attribute (a tracer, a test double) is the one that runs; the
    verifier rejects a modulus its statement does not cover.
    """

    theorem_id: str
    cli_name: str | None
    run: Callable[[ModRing], TheoremReport]


# keyed by report id, in the order the command line lists the choices
NUMERIC_THEOREMS = {
    theorem.theorem_id: theorem
    for theorem in (
        NumericTheorem("degree_formula", "degree", lambda ring: verify_degree_formula(ring)),
        NumericTheorem(
            "prime_power_components", "prime-power", lambda ring: verify_prime_power(ring)
        ),
        NumericTheorem("two_prime_isomorphism", "pq", lambda ring: verify_pq(ring)),
        NumericTheorem("master_isomorphism", "general", lambda ring: verify_general(ring)),
        NumericTheorem("self_inverse_count", "corollary", lambda ring: verify_corollary(ring)),
        NumericTheorem("legacy_degree_report", None, lambda ring: report_counterexample(ring)),
    )
}


def sweep(ns: Iterable[int], theorem_ids: Iterable[str] | None = None) -> list[TheoremReport]:
    """Run the selected per-modulus verifiers over a range of moduli.

    A statement's rejection of a modulus it does not cover (a
    prime-power statement on a modulus with two factors, and so on) is
    dropped, not reported.  Results are ordered by (n, theorem_id).
    Each modulus is factored once.
    """
    ids = sorted(NUMERIC_THEOREMS) if theorem_ids is None else sorted(set(theorem_ids))
    unknown = [i for i in ids if i not in NUMERIC_THEOREMS]
    if unknown:
        raise ValueError(f"unknown theorem ids: {unknown}")
    theorems = [NUMERIC_THEOREMS[i] for i in ids]
    reports = []
    for n in sorted(set(ns)):
        ring = _ring(n)
        runs = [theorem.run(ring) for theorem in theorems]
        reports += [r for r in runs if r.status != "rejected"]
    return reports
