#!/usr/bin/env python3
"""End-to-end benchmark of cleangraphs.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

One process, one thread, closed loop: one caller replays the workload's
seeded pass of ops, each op starting when the previous one has returned,
and checks every op's output outside the timed region.  It repeats whole
passes until the run has lasted ``--seconds`` and done the workload's
minimum op count.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` replays the same ops once more under the tracer and prints
the per-layer metrics.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  ``--workload all`` runs
every workload in its own process and prints a table instead.

End-to-end metrics: setup_s is the median set-up time of fresh
processes; ops_per_s is ops over the time spent inside ops (the
benchmark's own checks excluded); op_p50_ms and op_tail_ms are op
latencies, the tail at the highest percentile that leaves 10 of the
workload's minimum op count beyond it; peak_rss_mb is this process's
peak resident memory.  Times are normalised to the baseline machine's
speed (see speed.py); the raw wall times are printed and recorded too.
fail_ratio, failed ops over attempted ones, is printed and carried by
the result's ``failed`` and ``attempted``; it is not a metric because
it is 0 on a correct run.

Results, with the Python version, kernel backend, CPU count, numpy
version and git commit, go to ``perfbench/out/``; so do the spans of a
traced run.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("sweep", "large", "scan", "shu")
SETUP_SAMPLES = 5
TAIL_LEVELS = (99, 95, 90, 75, 50)
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# The set-up a fresh process pays before its first op: import the
# package (which selects the kernel backend) and generate the inputs.
# The reference loop runs first, untimed, to rescale the set-up time.
SETUP_PROBE = """
import statistics, sys, time
import speed
ref = statistics.median(speed.reference_duration() for _ in range(5))
start = time.perf_counter()
import cleangraphs
from cleangraphs import _kernels
_kernels.backend()
import workloads
workloads.WORKLOADS[sys.argv[1]].generate(int(sys.argv[2]), sys.argv[3] == "smoke")
print(time.perf_counter() - start, ref)
"""


def tail_level(min_ops: int) -> int:
    """Highest percentile with at least 10 of ``min_ops`` samples beyond it."""
    for level in TAIL_LEVELS:
        if min_ops * (100 - level) >= 1000:
            return level
    raise ValueError(f"a workload needs at least 20 ops for a tail, got {min_ops}")


def percentile(sorted_values: list[float], level: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * level // 100))
    return sorted_values[int(rank) - 1]


def stamp() -> dict:
    from cleangraphs import _kernels

    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "backend": _kernels.backend(),
        "cpus": os.cpu_count(),
        "numpy": numpy_version,
        "commit": commit,
    }


def measure_setup(name: str, seed: int, smoke: bool, samples: int) -> tuple[float, float]:
    """Median normalised and raw set-up time of ``samples`` fresh processes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    raw, normalised = [], []
    for _ in range(samples):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, name, str(seed), "smoke" if smoke else "full"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, ref = map(float, done.stdout.split())
        raw.append(elapsed)
        normalised.append(elapsed * speed.REF_SECONDS / ref)
    return statistics.median(normalised), statistics.median(raw)


@dataclass
class Run:
    latencies: list[float] = field(default_factory=list)
    intervals: list[tuple[float, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    passes: int = 0
    wall: float = 0.0


def run_passes(ops, seconds: float, min_ops: int, passes: int | None = None,
               on_op=None, probe: speed.SpeedProbe | None = None) -> Run:
    """Replay whole passes of ``ops``: ``passes`` of them if given, else
    until ``seconds`` have passed and ``min_ops`` ops are done.

    An op fails when it raises or its check rejects the output; both are
    kept, never dropped.  ``probe`` samples the reference loop between ops.
    """
    run = Run()
    start = perf_counter()
    while True:
        for op in ops:
            if probe is not None:
                probe.maybe_sample()
            if on_op is not None:
                on_op(len(run.latencies))
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception:
                t1 = perf_counter()
                run.failures.append(f"{op.label}: raised\n{traceback.format_exc()}")
            else:
                t1 = perf_counter()
                try:
                    problem = op.check(out)
                except Exception:
                    problem = f"check raised\n{traceback.format_exc()}"
                if problem:
                    run.failures.append(f"{op.label}: {problem}")
                # free the output here, not inside the next op's timing
                del out
            run.latencies.append(t1 - t0)
            run.intervals.append((t0, t1))
        run.passes += 1
        if passes is not None:
            if run.passes >= passes:
                break
        elif perf_counter() - start >= seconds and len(run.latencies) >= min_ops:
            break
    run.wall = perf_counter() - start
    return run


def latency_metrics(latencies: list[float], level: int) -> dict:
    lat = sorted(latencies)
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_tail_ms": 1000 * percentile(lat, level),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False, setup_samples: int = SETUP_SAMPLES, mutate=None) -> dict:
    """Run one workload and return the full result record.

    ``mutate`` lets the self-test corrupt the ops before they run.
    """
    # both import cleangraphs, so they load only once main() has checked
    # and put the package sources on the path
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    ops = workload.generate(seed, smoke)
    if mutate is not None:
        ops = mutate(ops)

    probe = speed.SpeedProbe()
    untraced = run_passes(ops, seconds, workload.min_ops, probe=probe)
    latencies, failures = untraced.latencies, untraced.failures
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "smoke": smoke, "stamp": stamp(), "passes": untraced.passes, "ops_per_pass": len(ops),
        "untraced_wall_s": untraced.wall, "machine_speed": probe.machine_speed(),
    }
    if trace:
        tracer = tracing.Tracer()
        traced_probe = speed.SpeedProbe()
        with tracer.installed():
            traced = run_passes(
                ops, seconds, workload.min_ops, passes=untraced.passes,
                on_op=lambda i: setattr(tracer, "op", i), probe=traced_probe,
            )
        latencies = latencies + traced.latencies
        failures = failures + traced.failures
        # both walls at the baseline speed, so drift between the two
        # phases does not show up as tracing overhead
        overhead = (traced.wall * traced_probe.machine_speed()) / (
            untraced.wall * probe.machine_speed()
        )
        metrics = tracer.layer_metrics(traced.wall, overhead)
        record["traced_machine_speed"] = traced_probe.machine_speed()
        units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write_spans(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        level = tail_level(workload.min_ops)
        normalised = [
            lat * probe.scale(t0, t1) for lat, (t0, t1) in zip(latencies, untraced.intervals)
        ]
        setup_s, raw_setup_s = measure_setup(name, seed, smoke, setup_samples)
        metrics = {"setup_s": setup_s, **latency_metrics(normalised, level)}
        # ru_maxrss is in KiB on Linux
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["raw"] = {"setup_s": raw_setup_s, **latency_metrics(latencies, level)}
        tail_value = percentile(sorted(normalised), level)
        record["tail"] = {"percentile": level, "samples": len(normalised),
                          "beyond": sum(x > tail_value for x in normalised)}
        units = END_TO_END_UNITS
    record.update(
        attempted=len(latencies),
        failed=len(failures),
        fail_ratio=len(failures) / len(latencies),
        failures=failures[:20],
        metrics={k: {"value": metrics[k], "unit": units[k]} for k in units},
    )
    return record


def print_record(record: dict) -> None:
    """Human-readable lines, then the result as the last line."""
    import tracing

    s = record["stamp"]
    print(f"# cleangraphs benchmark: workload={record['workload']} seed={record['seed']} "
          f"trace={record['trace']} passes={record['passes']} x {record['ops_per_pass']} ops")
    print(f"# python={s['python']} backend={s['backend']} cpus={s['cpus']} "
          f"numpy={s['numpy']} commit={s['commit']}")
    for failure in record["failures"]:
        print(f"# FAILED {failure.splitlines()[0]}")
    metrics = record["metrics"]
    if record["trace"]:
        print(f"{'layer metric':40s} {'value':>14s} unit   predicted to move")
        for key, m in metrics.items():
            print(f"{key:40s} {m['value']:14.6g} {m['unit']:6s} {tracing.LAYER_METRICS[key][2]}")
        selfs = {k: v["value"] for k, v in metrics.items() if k in tracing.SELF_TIME_METRIC.values()}
        total = sum(selfs.values()) + metrics["trace.unattributed_s"]["value"]
        print(f"# self times {sum(selfs.values()):.6f} s + unattributed "
              f"{metrics['trace.unattributed_s']['value']:.6f} s = {total:.6f} s; "
              f"traced wall {metrics['trace.wall_s']['value']:.6f} s")
    else:
        tail, raw = record["tail"], record["raw"]
        print(f"# machine speed {record['machine_speed']:.3f} of baseline; times are "
              f"normalised to the baseline speed, raw wall times in brackets")
        for key, m in metrics.items():
            note = f"  (raw {raw[key]:.6g})" if key in raw else ""
            if key == "op_tail_ms":
                note += f"  p{tail['percentile']} of {tail['samples']} ops, {tail['beyond']} beyond"
            print(f"{key:14s} {m['value']:14.6g} {m['unit']:5s}{note}")
    print(f"{'fail_ratio':14s} {record['fail_ratio']:14.6g} ratio  "
          f"{record['failed']} of {record['attempted']} ops failed")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))


def run_all(args) -> int:
    rows = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    keys = list(rows[WORKLOAD_NAMES[0]]["metrics"]) + ["fail_ratio"]
    print("\n" + f"{'metric':40s}" + "".join(f"{n:>14s}" for n in rows) + "  unit")
    for key in keys:
        cells, unit = "", "ratio"
        for r in rows.values():
            if key == "fail_ratio":
                cells += f"{r['failed'] / r['attempted']:14.6g}"
            else:
                cells += f"{r['metrics'][key]['value']:14.6g}"
                unit = r["metrics"][key]["unit"]
        print(f"{key:40s}{cells}  {unit}")
    print(json.dumps({
        "correct": all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "workloads": rows,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cleangraphs" / "__init__.py").is_file():
        print(f"error: no cleangraphs sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import cleangraphs

    if Path(cleangraphs.__file__).resolve().parent != SRC / "cleangraphs":
        print(f"error: imported cleangraphs from {cleangraphs.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=2) + "\n")
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
