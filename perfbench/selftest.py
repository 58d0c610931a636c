#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny sizes.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks that every workload runs with and without tracing, that every
metric named in BENCHMARK.json is printed, that a traced run's self
times reconcile with its wall time, that one deliberately wrong output
raises fail_ratio, that the capacity guard refuses an oversized modulus,
and that the benchmark refuses to run without the package sources.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys

import run

sys.path[:0] = [str(run.SRC)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from cleangraphs import graph  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def printed(record: dict) -> tuple[str, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.print_record(record)
    text = buf.getvalue()
    return text, json.loads(text.strip().splitlines()[-1])


def corrupt(name: str, out):
    """A wrong output of the right shape for each workload."""
    if name == "sweep":
        return [dataclasses.replace(out[0], status="fail")] + out[1:]
    if name == "large":
        general, degree, g, back = out
        return general, degree, g, graph.Graph(back.vertices, back.edges()[1:])
    if name == "scan":
        if isinstance(out, list):
            return out[1:]
        return dataclasses.replace(out, evidence={**out.evidence, "t": out.evidence["t"] + 1})
    s, connectivity, inheritance, texts, back = out
    flipped = {"isomorphic": "not_isomorphic", "not_isomorphic": "isomorphic"}
    ev = dict(inheritance.evidence, results=flipped[inheritance.evidence["results"]])
    return s, connectivity, dataclasses.replace(inheritance, evidence=ev), texts, back


def wrong_first_op(name: str):
    def mutate(ops):
        first = ops[0]
        return [dataclasses.replace(first, run=lambda: corrupt(name, first.run()))] + ops[1:]

    return mutate


def check_workload(name: str) -> None:
    kwargs = dict(seed=1, seconds=0, smoke=True, setup_samples=1)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        record = run.run_workload(name, trace=trace, **kwargs)
        text, result = printed(record)
        names = [m["name"] for m in SPEC[section]]
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{name}: result keys {sorted(result)}")
        expect(list(result["metrics"]) == names, f"{name} trace={trace}: metrics {list(result['metrics'])}")
        expect(all(f"{n} " in text for n in names), f"{name} trace={trace}: a metric name is not printed")
        expect("fail_ratio" in text, f"{name}: fail_ratio not printed")
        expect(result["correct"] and result["failed"] == 0, f"{name} trace={trace}: {record['failures']}")
        expect(result["attempted"] >= workloads.WORKLOADS[name].min_ops, f"{name}: too few ops")
        if trace:
            m = {k: v["value"] for k, v in result["metrics"].items()}
            selfs = sum(m[k] for k in tracing.SELF_TIME_METRIC.values())
            gap = abs(selfs + m["trace.unattributed_s"] - m["trace.wall_s"])
            expect(gap <= 1e-6 * m["trace.wall_s"], f"{name}: self times miss the wall time by {gap}")
            expect(m["trace.spans"] > 0, f"{name}: no spans recorded")

    record = run.run_workload(name, trace=False, mutate=wrong_first_op(name), **kwargs)
    expect(record["failed"] == record["passes"] and record["fail_ratio"] > 0,
           f"{name}: a wrong output gave {record['failed']} failures in {record['passes']} passes")
    print(f"selftest {name}: ok ({record['attempted']} ops, wrong output -> fail_ratio {record['fail_ratio']:.4f})")


def check_guard() -> None:
    expect(workloads.predicted_vertices(30030) == 362_880, "V(cl2(Z_30030)) is 362880")
    try:
        workloads.guard(30030, 2500)
    except workloads.CapacityError:
        pass
    else:
        expect(False, "the capacity guard admitted n=30030")
    print("selftest guard: ok")


def check_bare_directory() -> None:
    """Only BENCHMARK.json and the benchmark's files: must exit non-zero
    without printing a result."""
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and not done.stdout.strip(), f"bare directory: exit {done.returncode}")
    print("selftest bare directory: ok")


if __name__ == "__main__":
    for workload in run.WORKLOAD_NAMES:
        check_workload(workload)
    check_guard()
    check_bare_directory()
    print("selftest: all checks passed")
