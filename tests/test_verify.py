"""Verifier behavior: statuses, evidence, rejection semantics, sweeps."""

import json
from pathlib import Path

import pytest

from cleangraphs import cleangraph as cleangraph_module, verify as verify_module
from cleangraphs.graph import Graph, complete_graph, empty_graph, path_graph
from cleangraphs.verify import (
    TheoremReport,
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
