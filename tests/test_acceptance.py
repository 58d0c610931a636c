"""Acceptance gate: eleven end-to-end criteria with runtime budgets.

Each test prints one summary line (visible under pytest -s) and asserts
both the mathematical content and, where stated, the wall-clock budget.
Budgets are generous on purpose; they guard against algorithmic
regressions, not machine noise.
"""

import time
from itertools import combinations

from cleangraphs.cleangraph import cl2, idempotent_graph
from cleangraphs.cli import main
from cleangraphs.graph import (
    ComponentSummary,
    Graph,
    canonical_form,
    complete_graph,
    disjoint_union,
    find_isomorphism,
)
from cleangraphs.modring import factorize, is_prime, self_inverse_closed_form
from cleangraphs._kernels import square_roots_of_one
from cleangraphs.verify import (
    verify_corollary,
    verify_degree_formula,
    verify_general,
    verify_pq_by_modulus,
    verify_prime_power,
    verify_sh_shu_bridge,
    verify_shu_connectivity,
)

from test_cli import GOLDEN, run


def test_c01_counterexample_reproduction(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "degrees", "10")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "(6,3): actual=6 corrected=6 legacy=7 MISMATCH" in out
    assert elapsed < 1.0
    print(f"c01 counterexample at (6,3) reproduced, {elapsed:.3f}s < 1s")


def test_c02_degree_sweep_3_to_200():
    start = time.perf_counter()
    failures = [n for n in range(3, 201) if not verify_degree_formula(n).ok]
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 120.0
    print(f"c02 degree formula exact on n in [3,200], no exclusions, {elapsed:.1f}s < 120s")


def test_c03_prime_power_components():
    checked = 0
    for p in range(2, 201):
        if not is_prime(p):
            continue
        m = 1
        while p**m <= 200:
            assert verify_prime_power(p**m).ok, (p, m)
            checked += 1
            m += 1
    # the three named shapes, pinned explicitly
    assert ComponentSummary.of(cl2(8)) == ComponentSummary.of(
        disjoint_union([complete_graph(1)] * 4)
    )
    assert ComponentSummary.of(cl2(9)) == ComponentSummary.of(
        disjoint_union([complete_graph(1)] * 2 + [complete_graph(2)] * 2)
    )
    assert ComponentSummary.of(cl2(25)) == ComponentSummary.of(
        disjoint_union([complete_graph(1)] * 2 + [complete_graph(2)] * 9)
    )
    print(f"c03 component structure exact for all {checked} prime powers <= 200")


def test_c04_two_prime_isomorphisms():
    start = time.perf_counter()
    searched = 0
    for n in (6, 10, 12, 14, 15, 20, 21, 24, 33, 35):
        r = verify_pq_by_modulus(n)
        assert r.ok, (n, r.detail)
        assert r.evidence["t"] in (2, 4, 8)
        if r.evidence["vertices"] <= 150:
            assert r.evidence["searcher"] == "isomorphic"
            searched += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"c04 two-prime witnesses verified for 10 moduli "
        f"({searched} searcher-confirmed), {elapsed:.1f}s < 60s"
    )


def test_c05_master_isomorphism():
    big_elapsed = None
    for n in (30, 60, 105, 210):
        r = verify_general(n)
        assert r.ok, (n, r.detail)
        if n == 210:
            assert r.evidence["vertices"] == 720
            big_elapsed = r.elapsed
    assert big_elapsed is not None and big_elapsed < 5.0
    print(f"c05 master witnesses verified; 720-vertex case in {big_elapsed:.2f}s < 5s")


def test_c06_figure_fidelity():
    g30 = idempotent_graph(30)
    assert g30.num_vertices == 6
    assert g30.num_edges == 6
    triangle_with_pendants = Graph(
        ["a", "b", "c", "d", "e", "f"],
        [("a", "b"), ("b", "c"), ("c", "a"), ("d", "a"), ("e", "b"), ("f", "c")],
    )
    res = find_isomorphism(g30, triangle_with_pendants)
    assert res.status == "isomorphic"
    g210 = idempotent_graph(210)
    assert g210.num_vertices == 14
    assert g210.num_edges == 25
    print("c06 idempotent graphs match the documented shapes (6v/6e and 14v/25e)")


def test_c07_sh_shu_bridge():
    params = [
        (t, n)
        for t in (1, 2, 4, 8)
        for n in range(t, 9)
        if n % t == 0 and (n - t) % 2 == 0
    ]
    for t, n in params:
        assert verify_sh_shu_bridge(t, n).ok, (t, n)
    print(f"c07 standalone shuriken = operation on a single edge, {len(params)} (t,n) pairs")


def test_c08_connectivity_suite():
    reps = []
    seen = set()
    for k in range(1, 6):
        labels = [f"v{i}" for i in range(1, k + 1)]
        pairs = list(combinations(labels, 2))
        for mask in range(1 << len(pairs)):
            g = Graph(labels, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])
            c = canonical_form(g)
            if c not in seen:
                seen.add(c)
                reps.append(g)
    assert len(reps) == 52  # graphs on 1..5 vertices up to isomorphism
    violations = 0
    instances = 0
    for g in reps:
        for t in (2, 4):
            for n in (t, t + 2, t + 4):
                instances += 1
                if not verify_shu_connectivity(g, t, n).ok:
                    violations += 1
    assert violations == 0
    print(f"c08 connectivity holds on all {instances} instances over 52 graph types")


def test_c09_corollary_to_ten_thousand():
    start = time.perf_counter()
    failures = [n for n in range(2, 10001) if not verify_corollary(n).ok]
    elapsed = time.perf_counter() - start
    assert failures == []
    assert elapsed < 30.0
    print(f"c09 self-inverse count matches closed form up to 10^4, {elapsed:.1f}s < 30s")


def test_c10_square_root_closed_form_to_hundred_thousand():
    limit = 100_000
    start = time.perf_counter()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(limit**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    checked = 0
    for p in range(2, limit + 1):
        if not sieve[p]:
            continue
        q, m = p, 1
        while q <= limit:
            assert tuple(square_roots_of_one(q)) == self_inverse_closed_form(p, m), q
            checked += 1
            q *= p
            m += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"c10 square roots of one: closed form = brute scan on {checked} "
        f"prime powers <= 10^5, {elapsed:.1f}s < 30s"
    )


def test_c11_export_golden_stability(capsys, monkeypatch):
    import io

    builds = {
        "cl2_z6": ["build", "cl2", "6"],
        "sh_2_6": ["build", "sh", "--t", "2", "--n", "6"],
        "shu_2_4_p3": [
            "build", "shu", "--t", "2", "--n", "4",
            "--input", str(GOLDEN / "input_p3.edgelist"),
        ],
    }
    files = 0
    for base, argv in builds.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.encode() == (GOLDEN / f"{base}.edgelist").read_bytes()
        files += 1
        for fmt, ext in (("dot", "dot"), ("json", "json"), ("incidence", "csv")):
            monkeypatch.setattr("sys.stdin", io.StringIO(out))
            code, conv, _ = run(capsys, "export", "--format", fmt)
            assert code == 0
            assert conv.encode() == (GOLDEN / f"{base}.{ext}").read_bytes()
            files += 1
    assert files == 12
    print("c11 all 12 golden exports byte-identical")
