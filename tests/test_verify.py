"""Verifier behavior: statuses, evidence, rejection semantics, sweeps."""

import hashlib
import json
from pathlib import Path

import pytest

from cleangraphs import cleangraph as cleangraph_module, verify as verify_module
from cleangraphs.cleangraph import cl1, cl2, cl2_pairs, clean_graph, idempotent_graph, pair_label
from cleangraphs.graph import Graph, IsoResult, complete_graph
from cleangraphs.modring import ModRing, UnitPartition, factorize
from cleangraphs.shuriken import build_shu
from cleangraphs.verify import (
    TheoremReport,
    degree_table,
    format_report,
    report_counterexample,
    reports_to_json,
    self_inverse_count_closed_form,
    sweep,
    verify_corollary,
    verify_degree_formula,
    verify_general,
    verify_pq,
    verify_pq_by_modulus,
    verify_prime_power,
    verify_sh_shu_bridge,
    verify_shu_connectivity,
    verify_shu_inheritance,
)

from graph_helpers import empty_graph, ladder_graph, path_graph, relabel


def test_degree_formula_passes():
    r = verify_degree_formula(10)
    assert r.status == "pass"
    assert r.evidence["vertices_checked"] == 12
    assert r.ok


def test_counterexample_report_lists_the_known_vertex():
    r = report_counterexample(10)
    assert r.status == "pass"
    rows = r.evidence["legacy_mismatches"]
    assert {
        "vertex": [6, 3],
        "actual": 6,
        "corrected": 6,
        "legacy": 7,
    } in rows


def test_counterexample_report_empty_when_no_annihilators():
    r = report_counterexample(8)
    assert r.status == "pass"
    assert r.evidence["legacy_mismatches"] == []


def test_counterexample_report_nonempty_for_15():
    r = report_counterexample(15)
    assert r.evidence["count"] > 0


def test_prime_power_branches():
    assert verify_prime_power(2).ok
    assert verify_prime_power(4).ok
    assert verify_prime_power(8).ok
    assert verify_prime_power(9).ok
    r = verify_prime_power(25)
    assert r.ok
    assert "9 x (2v,1e)" in r.evidence["components"]


def test_prime_power_rejects_composite_base():
    r = verify_prime_power(6)
    assert (r.status, r.instance, r.detail) == ("rejected", "n=6", "modulus is not a prime power")
    with pytest.raises(ValueError, match="modulus"):
        verify_prime_power(1)


def test_pq_witness_and_branch():
    r = verify_pq(10)
    assert r.ok
    assert r.evidence["t"] == 2
    assert r.evidence["k"] == 4
    assert r.evidence["searcher"] == "isomorphic"


def test_pq_fails_when_the_closed_form_disagrees_with_the_enumeration(monkeypatch):
    closed_form = verify_module.self_inverse_count_closed_form
    monkeypatch.setattr(
        verify_module, "self_inverse_count_closed_form", lambda n: closed_form(n) + 1
    )
    r = verify_pq(10)
    assert (r.status, r.instance) == ("fail", "p=2^1 q=5^1")
    assert r.detail == "branch predicts t=3, enumeration gives t=2"
    assert r.evidence == {"t_branch": 3, "t_enumerated": 2}


def test_pq_argument_order_does_not_matter():
    # the primes come off the factorization, smaller first
    for n, instance in ((10, "p=2^1 q=5^1"), (12, "p=2^2 q=3^1")):
        r = verify_pq(n)
        assert r.ok
        assert r.instance == instance


def test_pq_rejects_bad_input():
    for n in (9, 30, 5):
        r = verify_pq(n)
        assert (r.status, r.instance) == ("rejected", f"n={n}")
        assert r.detail == "modulus must have exactly two distinct prime factors"


def test_pq_by_modulus():
    assert verify_pq_by_modulus(15).ok
    assert verify_pq_by_modulus(30).status == "rejected"
    assert verify_pq_by_modulus(8).status == "rejected"


def test_general_small_and_prime_power():
    assert verify_general(30).ok
    assert verify_general(9).ok
    assert verify_general(2).ok


def test_general_cross_check_gate():
    r = verify_general(105)
    assert r.ok
    assert r.evidence["searcher"] == "skipped"
    assert r.evidence["vertices"] == 336


def test_corollary_branches():
    for n, want in [(30, 4), (24, 8), (12, 4), (2, 1), (4, 2), (8, 4), (105, 8)]:
        assert self_inverse_count_closed_form(n) == want
        r = verify_corollary(n)
        assert r.ok
        assert r.evidence["t"] == want


def test_connectivity_cases():
    assert verify_shu_connectivity(empty_graph(3), 2, 4).ok
    assert verify_shu_connectivity(path_graph(3), 2, 4).ok
    r = verify_shu_connectivity(path_graph(3), 3, 4)
    assert r.status == "rejected"
    assert verify_shu_connectivity(path_graph(3), 1, 3).status == "rejected"


def test_inheritance_cases():
    assert verify_shu_inheritance(path_graph(3), path_graph(3), 2, 4).ok
    r = verify_shu_inheritance(path_graph(3), complete_graph(3), 2, 4)
    assert r.ok
    assert r.evidence["inputs"] == "not_isomorphic"
    assert r.evidence["results"] == "not_isomorphic"


def test_inheritance_searcher_work_is_pinned_on_a_regular_pair():
    # K3,3 and the triangular prism are both cubic on 6 vertices, so colour
    # refinement splits neither them nor their shuriken graphs; the node
    # count was captured before vertices were stored by index
    k33 = Graph([], [(f"a{i}", f"b{j}") for i in range(3) for j in range(3)])
    prism = Graph(
        [],
        [("x1", "x2"), ("x2", "x3"), ("x3", "x1"), ("y1", "y2"), ("y2", "y3"), ("y3", "y1")]
        + [("x1", "y1"), ("x2", "y2"), ("x3", "y3")],
    )
    r = verify_shu_inheritance(k33, prism, 2, 4)
    assert r.ok
    assert r.evidence == {"inputs": "not_isomorphic", "results": "not_isomorphic", "nodes": 31564}


@pytest.mark.parametrize("m,nodes", [(3, 8116), (4, 170836)])
def test_inheritance_searcher_work_is_pinned_on_ladders(m, nodes):
    # the heaviest ops of the benchmark's shu workload: the prism against
    # the Moebius ladder, cubic on 2m vertices and not isomorphic
    r = verify_shu_inheritance(ladder_graph(m, "a", False), ladder_graph(m, "b", True), 2, 4)
    assert r.ok
    assert r.evidence == {"inputs": "not_isomorphic", "results": "not_isomorphic", "nodes": nodes}


def test_inheritance_rejections():
    # disconnected input
    assert verify_shu_inheritance(empty_graph(2), path_graph(2), 2, 4).status == "rejected"
    # t = n not allowed here
    assert verify_shu_inheritance(path_graph(2), path_graph(2), 4, 4).status == "rejected"
    assert verify_shu_inheritance(path_graph(2), path_graph(2), 2, 5).status == "rejected"


def test_bridge():
    assert verify_sh_shu_bridge(2, 6).ok
    assert verify_sh_shu_bridge(1, 1).ok
    assert verify_sh_shu_bridge(3, 6).status == "rejected"


def test_sweep_ordering_and_selection():
    reports = sweep([10, 9], ["degree_formula", "prime_power_components"])
    keys = [(r.instance, r.theorem_id) for r in reports]
    assert keys == [
        ("n=9", "degree_formula"),
        ("p=3 m=2", "prime_power_components"),
        ("n=10", "degree_formula"),
    ]
    assert all(r.ok for r in reports)


def test_sweep_rejects_unknown_ids():
    with pytest.raises(ValueError):
        sweep([10], ["nonsense"])


def test_sweep_empty_range():
    assert sweep([], None) == []


def test_sweep_all_small_range():
    reports = sweep(range(2, 20), None)
    assert reports
    assert all(r.ok for r in reports)


def test_sweep_to_200_stable_json_digest():
    # every degree, legacy mismatch, witness and searcher node count of
    # sweep(2..200), about 3.5 MB of stable JSON
    text = reports_to_json(sweep(range(2, 201)), stable=True)
    digest = "964f64132486d0f4cda1dfa20e1459123153135b562c0a96b0ec8c0723b24b49"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_report_serialization():
    r = TheoremReport("x", "n=1", "pass", "fine", {"a": 1}, 0.5)
    d = r.to_dict()
    assert d["elapsed"] == 0.5
    assert "elapsed" not in r.to_dict(stable=True)
    doc = json.loads(reports_to_json([r], stable=True))
    assert doc[0]["theorem_id"] == "x"
    line = format_report(r, stable=True)
    assert line == "[PASS] x n=1: fine"
    assert "0.5" in format_report(r)


def test_each_modulus_is_factored_once(monkeypatch):
    # verify and cleangraph both turn a modulus into a ring through
    # cleangraph._ring, so its factorize sees every factorization
    calls = []
    real = cleangraph_module.factorize

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr("cleangraphs.cleangraph.factorize", counting)
    assert verify_corollary(360).ok
    assert calls == [360]
    calls.clear()
    ids = ["degree_formula", "legacy_degree_report", "master_isomorphism", "self_inverse_count"]
    reports = sweep([360], ids)
    assert [r.theorem_id for r in reports] == ids
    assert all(r.ok for r in reports)
    assert calls == [360]
    # every statement, on a two-prime and on a prime-power modulus
    for n, covered in ((72, "two_prime_isomorphism"), (49, "prime_power_components")):
        calls.clear()
        reports = sweep([n])
        assert covered in [r.theorem_id for r in reports]
        assert all(r.ok for r in reports)
        assert calls == [n]
    for n, verifier in ((72, verify_pq), (49, verify_prime_power)):
        calls.clear()
        ring = cleangraph_module.factorize(n)
        assert verifier(ring).ok
        assert calls == [n]


def test_benchmark_tracer_attributes_every_numeric_theorem(monkeypatch):
    # the benchmark's per-layer run rebinds these module attributes; a
    # registry that held verifier objects instead of names would escape it
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    for owner, attr, _, _ in tracing.FUNCTIONS:
        assert hasattr(owner, attr), (owner.__name__, attr)
    original = verify_module.sweep
    tracer = tracing.Tracer()
    with tracer.installed():
        reports = verify_module.sweep([15, 27, 30])
    assert verify_module.sweep is original
    assert reports and all(r.ok for r in reports)
    names = {span[0] for span in tracer.spans if span[0].startswith("verify.")}
    assert names == {
        "verify.sweep",
        "verify.degree_formula",
        "verify.legacy_degree_report",
        "verify.master_isomorphism",
        "verify.prime_power_components",
        "verify.self_inverse_count",
        "verify.two_prime_isomorphism",
    }


# -- planted defects: each verifier must report what it reads wrongly ----------
#
# The defect goes into what a verifier reads (a graph, a count, the unit
# layout or the searcher's verdict, through the attribute it calls),
# never into the verifier.  Graphs are rebuilt from their label and edge
# lists, so these tests hold whatever the store.


def without_edges(g: Graph, dropped) -> Graph:
    return Graph(g.vertices, [e for e in g.edges() if e not in dropped])


def with_edge(g: Graph, added) -> Graph:
    return Graph(g.vertices, g.edges() + (added,))


def plant(monkeypatch, name, defect, owner=verify_module):
    """Rebind owner.<name> (verify.<name> unless told otherwise) so that
    what it returns passes through defect."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: defect(real(*args)))


def test_degree_formula_fails_on_a_dropped_edge(monkeypatch):
    edge = verify_module.cl2(10).edges()[0]
    plant(monkeypatch, "cl2", lambda g: without_edges(g, {edge}))
    r = verify_degree_formula(10)
    assert r.status == "fail"
    assert set(r.evidence) == {"vertex", "actual", "predicted"}
    assert r.evidence["actual"] == r.evidence["predicted"] - 1
    e, u = r.evidence["vertex"]
    assert f"({e},{u})" in edge


def test_degree_formula_names_the_first_of_four_disagreeing_vertices(monkeypatch):
    # one dropped edge at the last vertex, one at the first, listed in that
    # order: four vertices lose a degree, and the first in stored order is
    # the one the report must name
    g = verify_module.cl2(30)
    first, last = g.vertices[0], g.vertices[-1]
    early = next(edge for edge in g.edges() if first in edge and last not in edge)
    late = next(edge for edge in g.edges() if last in edge and not set(edge) & set(early))
    plant(monkeypatch, "cl2", lambda g: without_edges(g, [late, early]))
    actuals, predictions, _ = degree_table(30)
    disagreeing = [
        (pair, actual, predicted)
        for pair, actual, predicted in zip(cl2_pairs(30), actuals, predictions)
        if actual != predicted
    ]
    assert {pair_label(*pair) for pair, *_ in disagreeing} == {*early, *late}
    (e, u), actual, predicted = disagreeing[0]
    assert pair_label(e, u) == first
    r = verify_degree_formula(30)
    assert r.status == "fail"
    assert r.detail == f"vertex ({e},{u}) has degree {actual}, formula gives {predicted}"
    assert r.evidence == {"vertex": [e, u], "actual": actual, "predicted": predicted}
    assert actual == predicted - 1


def test_a_swapped_inverse_fails_the_graph_checks_but_not_the_unit_layout(monkeypatch):
    # cl2 reads the inverses, the witnesses read the unit partition: a
    # fault in the first must show against the second
    layout = factorize(30).unit_partition().ordered_units()
    real = ModRing.inverses

    def swapped(ring):
        inverses = list(real(ring))
        inverses[0], inverses[1] = inverses[1], inverses[0]
        return tuple(inverses)

    monkeypatch.setattr(ModRing, "inverses", swapped)
    assert factorize(30).unit_partition().ordered_units() == layout
    assert verify_degree_formula(30).status == "fail"
    r = verify_general(30)
    assert r.status == "fail"
    assert r.detail == "constructed witness is not an isomorphism"


def test_the_builders_do_not_read_the_unit_layout(monkeypatch):
    built = [builder(30).adj for builder in (cl2, clean_graph, cl1)]
    shu = build_shu(idempotent_graph(30), 4, 8).adj

    def refuse(ring):
        raise AssertionError("a builder read the unit layout")

    monkeypatch.setattr(ModRing, "unit_partition", refuse)
    assert [builder(30).adj for builder in (cl2, clean_graph, cl1)] == built
    assert build_shu(idempotent_graph(30), 4, 8).adj == shu


def test_counterexample_report_fails_on_a_dropped_edge(monkeypatch):
    edge = verify_module.cl2(10).edges()[0]
    plant(monkeypatch, "cl2", lambda g: without_edges(g, {edge}))
    r = report_counterexample(10)
    assert r.status == "fail"
    assert set(r.evidence) == {"vertex", "actual", "corrected"}
    assert r.evidence["actual"] == r.evidence["corrected"] - 1
    assert r.detail.startswith("corrected formula itself disagrees at")


def without_last_vertex(g: Graph) -> Graph:
    last = g.vertices[-1]
    return Graph(g.vertices[:-1], [e for e in g.edges() if last not in e])


@pytest.mark.parametrize(
    "defect, vertices",
    [(without_last_vertex, 5), (lambda g: Graph([*g.vertices, "(0,0)"], g.edges()), 7)],
    ids=["vertex_dropped", "isolated_vertex_added"],
)
def test_both_degree_reports_fail_on_a_wrong_vertex_count(monkeypatch, defect, vertices):
    # cl2(Z_7) has 6 vertices and its last, (1,6), is isolated: dropping it,
    # or adding another isolated vertex, leaves every degree that lines up
    # with the closed form equal to it, so only the vertex count can fail
    plant(monkeypatch, "cl2", defect)
    degree, legacy = verify_degree_formula(7), report_counterexample(7)
    assert (degree.status, legacy.status) == ("fail", "fail")
    assert degree.detail == legacy.detail == f"cl2 has {vertices} vertices, the closed form 6"
    assert degree.evidence == {"vertices": vertices, "predicted_vertices": 6}
    assert legacy.evidence == {"vertices": vertices, "corrected_vertices": 6}


def test_sweep_reports_a_dropped_vertex_without_raising(monkeypatch):
    plant(monkeypatch, "cl2", without_last_vertex)
    statuses = {r.theorem_id: r.status for r in sweep([7])}
    assert statuses == {
        "degree_formula": "fail",
        "legacy_degree_report": "fail",
        "master_isomorphism": "fail",
        "prime_power_components": "fail",
        "self_inverse_count": "pass",
    }


def test_a_passing_degree_check_names_no_vertex(monkeypatch):
    # vertices are named only on a mismatch; the pass path compares columns
    def refuse(r):
        raise AssertionError("the pass path read cl2_pairs")

    monkeypatch.setattr(verify_module, "cl2_pairs", refuse)
    r = verify_degree_formula(210)
    assert r.status == "pass"
    assert r.evidence == {"vertices_checked": 720}


def mirror_joins(shu: Graph, base: Graph, t: int, n: int):
    """The edges of Shu(base, t, n) that join copy i to its mirror copy
    n + t + 1 - i (i > t) without lifting an edge of base."""
    lifted = set(base.edges()) | {(b, a) for a, b in base.edges()}
    joins = set()
    for a, b in shu.edges():
        (x, i), (y, j) = (v.rsplit("@", 1) for v in (a, b))
        i, j = int(i), int(j)
        if i != j and i + j == n + t + 1 and (x, y) not in lifted:
            joins.add((a, b))
    return joins


def test_general_fails_on_a_missing_mirror_join(monkeypatch):
    real = verify_module.build_shu

    def one_join_dropped(base, t, n):
        shu = real(base, t, n)
        return without_edges(shu, {min(mirror_joins(shu, base, t, n))})

    monkeypatch.setattr(verify_module, "build_shu", one_join_dropped)
    r = verify_general(30)
    assert r.status == "fail"
    assert r.detail == "constructed witness is not an isomorphism"
    assert r.evidence == {"t": 4, "k": 8, "vertices": 56}


def test_prime_power_fails_on_an_extra_edge(monkeypatch):
    # (1,1) and (1,24) are self-inverse, so both are isolated in cl2(Z_25)
    plant(monkeypatch, "cl2", lambda g: with_edge(g, ("(1,1)", "(1,24)")))
    r = verify_prime_power(25)
    assert r.status == "fail"
    assert set(r.evidence) == {"actual", "predicted"}
    assert r.evidence["predicted"] == "2 x (1v,0e) + 9 x (2v,1e)"
    assert r.evidence["actual"] == "10 x (2v,1e)"


def test_prime_power_fails_on_a_component_that_is_neither_k1_nor_k2(monkeypatch):
    # (1,1) is isolated and (1,2) sits in a K2 with (1,13), so the new edge
    # makes a path on three vertices: counting components by (vertices,
    # edges) is exact only because such a component fails
    plant(monkeypatch, "cl2", lambda g: with_edge(g, ("(1,1)", "(1,2)")))
    r = verify_prime_power(25)
    assert r.status == "fail"
    assert r.evidence == {
        "actual": "1 x (1v,0e) + 8 x (2v,1e) + 1 x (3v,2e)",
        "predicted": "2 x (1v,0e) + 9 x (2v,1e)",
    }


def test_corollary_fails_on_a_unit_count_one_too_many(monkeypatch):
    plant(monkeypatch, "count_units", lambda m: m + 1, owner=verify_module._kernels)
    r = verify_corollary(30)
    assert r.status == "fail"
    assert r.evidence == {"t_scan": 4, "t_formula": 4, "units_scan": 9, "units_formula": 8}
    assert r.detail == "scan gives t=4, m=9; formulas give t=4, m=8"


def test_pq_fails_on_two_swapped_units(monkeypatch):
    # the first self-inverse unit and the first paired unit trade places
    # in the layout that the witness indexes units through
    real = UnitPartition.ordered_units

    def swapped(part):
        units = list(real(part))
        units[0], units[part.t] = units[part.t], units[0]
        return tuple(units)

    monkeypatch.setattr(UnitPartition, "ordered_units", swapped)
    r = verify_pq(15)
    assert r.status == "fail"
    assert r.detail == "constructed witness is not an isomorphism"
    assert r.evidence == {"t": 4, "k": 8, "vertices": 24}


def test_shu_inheritance_fails_when_the_searcher_denies_the_shu_pair(monkeypatch):
    real = verify_module.find_isomorphism

    def wrong_on_shu(g, h):
        res = real(g, h)
        if g.has_vertex("z@1"):  # the hub of copy 1: a Shu graph
            return IsoResult("not_isomorphic", None, res.nodes_expanded)
        return res

    monkeypatch.setattr(verify_module, "find_isomorphism", wrong_on_shu)
    p3 = path_graph(3)
    r = verify_shu_inheritance(p3, relabel(p3, {"v1": "c", "v2": "a", "v3": "b"}), 2, 4)
    assert r.status == "fail"
    assert r.detail == "inputs isomorphic, results not_isomorphic"
    assert (r.evidence["inputs"], r.evidence["results"]) == ("isomorphic", "not_isomorphic")


def test_bridge_fails_on_a_dropped_shu_edge(monkeypatch):
    plant(monkeypatch, "build_shu", lambda shu: without_edges(shu, {shu.edges()[0]}))
    r = verify_sh_shu_bridge(2, 6)
    assert r.status == "fail"
    assert r.detail == "constructed witness is not an isomorphism"
    assert r.evidence == {"vertices": 18}


def test_shu_connectivity_fails_without_the_joins(monkeypatch):
    real = verify_module.build_shu

    def joins_dropped(base, t, n):
        shu = real(base, t, n)
        return without_edges(shu, mirror_joins(shu, base, t, n))

    monkeypatch.setattr(verify_module, "build_shu", joins_dropped)
    # the hubs of the two mirrored copies lose every edge
    r = verify_shu_connectivity(path_graph(3), 2, 4)
    assert r.status == "fail"
    assert r.evidence == {"components": 3, "input_null": False}
    assert r.detail == "input non-null but result has 3 component(s)"


# -- the witness tail: what each searcher verdict makes of a verified witness ----

WITNESS_CASES = {
    "general": (
        lambda: verify_general(30),
        "Shu(t=4, n=8) over the 6-vertex idempotent graph",
        [("t", 4), ("k", 8), ("vertices", 56), ("edges", 518)],
    ),
    "pq": (lambda: verify_pq(15), "Sh(t=4, n=8)", [("t", 4), ("k", 8), ("vertices", 24)]),
    "bridge": (
        lambda: verify_sh_shu_bridge(2, 6),
        "Shu(t=2, n=6) of a single edge",
        [("vertices", 18)],
    ),
}


@pytest.mark.parametrize("case", list(WITNESS_CASES))
@pytest.mark.parametrize(
    "verdict,status,note",
    [
        ("isomorphic", "pass", "searcher concurs (7 nodes)"),
        ("inconclusive", "inconclusive", "searcher budget exhausted (7 nodes)"),
        ("not_isomorphic", "fail", "searcher contradicts the verified witness"),
    ],
    ids=["isomorphic", "inconclusive", "not_isomorphic"],
)
def test_witness_tail_reports_the_searcher_verdict(monkeypatch, case, verdict, status, note):
    # the witness holds, so everything after it comes from the searcher
    run, onto, evidence = WITNESS_CASES[case]
    monkeypatch.setattr(
        verify_module, "find_isomorphism", lambda g, h: IsoResult(verdict, None, 7)
    )
    r = run()
    assert r.status == status
    if status == "pass":
        assert r.detail == f"witness onto {onto} verified; {note}"
    else:
        assert r.detail == f"witness verified but {note}"
    assert list(r.evidence.items()) == evidence + [("searcher", verdict), ("searcher_nodes", 7)]


@pytest.mark.parametrize("case", list(WITNESS_CASES))
def test_witness_tail_skips_the_searcher_above_the_gate(monkeypatch, case):
    run, onto, evidence = WITNESS_CASES[case]

    def never(g, h):
        raise AssertionError("the searcher ran above the size gate")

    monkeypatch.setattr(verify_module, "find_isomorphism", never)
    monkeypatch.setattr(verify_module, "SEARCH_GATE", 0)
    r = run()
    assert r.status == "pass"
    assert r.detail == f"witness onto {onto} verified; searcher skipped (size gate)"
    assert list(r.evidence.items()) == evidence + [("searcher", "skipped")]
