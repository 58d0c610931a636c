"""Per-layer tracing by rebinding the package's public names.

``Tracer.installed()`` replaces each traced function of ``cleangraphs``
(wherever a module of the package holds a reference to it) and the
traced methods of ``ModRing`` and ``Graph`` by timing wrappers, and puts
the originals back on exit.  Nothing under ``src/`` is edited and the
untraced run never sees a wrapper.

A span is (name, start, end, parent span, op id).  A span's self time is
its duration minus its direct children's durations, so the self times
of all spans plus the time outside any span add up to the traced wall
time exactly.  Layers are named after the modules.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from cleangraphs import _kernels, cleangraph, graph, modring, shuriken, verify


def _modulus(r) -> int:
    return r if isinstance(r, int) else r.modulus


def _count_kernel(t: "Tracer", args, result) -> None:
    t.counts["kernels.elements"] += args[0]


def _count_cl2(t: "Tracer", args, result) -> None:
    v = result.num_vertices
    t.counts["cleangraph.cl2_vertices"] += v
    t.counts["cleangraph.cl2_edges"] += result.num_edges
    t.counts["cleangraph.pair_checks"] += v * (v - 1) // 2
    t.cl2_rings.add((t.op, _modulus(args[0])))


def _count_shu(t: "Tracer", args, result) -> None:
    t.counts["shuriken.edges_out"] += result.num_edges


def _count_mapping(t: "Tracer", args, result) -> None:
    t.counts["graph.verify_mapping.edges_checked"] += args[0].num_edges


def _count_search(t: "Tracer", args, result) -> None:
    t.counts["graph.find_isomorphism.nodes"] += result.nodes_expanded
    t.counts["graph.find_isomorphism.inconclusive"] += result.status == "inconclusive"


def _count_export(t: "Tracer", args, result) -> None:
    t.counts["graph.export.bytes"] += len(result.encode())


def _count_parse(t: "Tracer", args, result) -> None:
    t.counts["graph.parse_edgelist.bytes"] += len(args[0].encode())


# (owner, attribute, span name, counter)
FUNCTIONS = [
    (_kernels, "count_square_roots_of_one", "kernels", _count_kernel),
    (_kernels, "square_roots_of_one", "kernels", _count_kernel),
    (_kernels, "count_units", "kernels", _count_kernel),
    (modring, "factorize", "modring", None),
    (modring, "unit_partition", "modring", None),
    (cleangraph, "cl2", "cleangraph.cl2", _count_cl2),
    (cleangraph, "predicted_degree", "cleangraph.degree", None),
    (cleangraph, "legacy_degree", "cleangraph.degree", None),
    (cleangraph, "idempotent_graph", "cleangraph.idempotent_graph", None),
    (shuriken, "build_shu", "shuriken", _count_shu),
    (shuriken, "build_sh", "shuriken", _count_shu),
    (graph, "verify_mapping", "graph.verify_mapping", _count_mapping),
    (graph, "find_isomorphism", "graph.find_isomorphism", _count_search),
    (graph, "export", "graph.export", _count_export),
    (graph, "parse_edgelist", "graph.parse_edgelist", _count_parse),
    (verify, "verify_degree_formula", "verify.degree_formula", None),
    (verify, "report_counterexample", "verify.legacy_degree_report", None),
    (verify, "verify_general", "verify.master_isomorphism", None),
    (verify, "verify_prime_power", "verify.prime_power_components", None),
    (verify, "verify_pq", "verify.two_prime_isomorphism", None),
    (verify, "verify_pq_by_modulus", "verify.two_prime_isomorphism", None),
    (verify, "verify_corollary", "verify.self_inverse_count", None),
    (verify, "verify_shu_connectivity", "verify.shu_connectivity", None),
    (verify, "verify_shu_inheritance", "verify.shu_inheritance", None),
    (verify, "verify_sh_shu_bridge", "verify.sh_shu_bridge", None),
    (verify, "sweep", "verify.sweep", None),
]

METHODS = [
    (modring.ModRing, "units", "modring"),
    (modring.ModRing, "unit_partition", "modring"),
    (graph.Graph, "connected_components", "graph.components"),
]

THEOREM_IDS = sorted(
    {name.split(".", 1)[1] for _, _, name, _ in FUNCTIONS if name.startswith("verify.")} - {"sweep"}
)

# per-layer metric -> (unit, better, what it should move).  The last
# field is the prediction made before measuring: which end-to-end metric
# a change in this layer should move, and on which workload.
LAYER_METRICS: dict[str, tuple[str, str, str]] = {
    "kernels.calls": ("count", "lower", "ops_per_s on scan; nothing on sweep, large, shu"),
    "kernels.busy_s": ("s", "lower", "ops_per_s on scan; nothing on sweep, large, shu"),
    "kernels.elements": ("count", "lower", "ops_per_s on scan; nothing on sweep, large, shu"),
    "kernels.elements_per_s": ("1/s", "higher", "ops_per_s on scan; nothing on sweep, large, shu"),
    "modring.calls": ("count", "lower", "ops_per_s on sweep"),
    "modring.busy_s": ("s", "lower", "ops_per_s on sweep"),
    "cleangraph.cl2_calls": ("count", "lower", "ops_per_s on sweep, large; op_tail_ms on sweep; peak_rss_mb on large"),
    "cleangraph.cl2_busy_s": ("s", "lower", "ops_per_s on sweep, large; op_tail_ms on sweep; peak_rss_mb on large"),
    "cleangraph.cl2_vertices": ("count", "lower", "ops_per_s on sweep, large; op_tail_ms on sweep; peak_rss_mb on large"),
    "cleangraph.cl2_edges": ("count", "lower", "ops_per_s on sweep, large; op_tail_ms on sweep; peak_rss_mb on large"),
    "cleangraph.pair_checks": ("count", "lower", "ops_per_s on sweep, large (computed as V(V-1)/2 per build)"),
    "cleangraph.cl2_distinct_ratio": ("ratio", "higher", "ops_per_s on sweep"),
    "cleangraph.degree_busy_s": ("s", "lower", "ops_per_s on sweep, large"),
    "cleangraph.idempotent_graph_busy_s": ("s", "lower", "ops_per_s on sweep, large"),
    "shuriken.calls": ("count", "lower", "ops_per_s on large, shu"),
    "shuriken.busy_s": ("s", "lower", "ops_per_s on large, shu"),
    "shuriken.edges_out": ("count", "lower", "ops_per_s on large, shu"),
    "graph.verify_mapping.calls": ("count", "lower", "ops_per_s on large, sweep"),
    "graph.verify_mapping.busy_s": ("s", "lower", "ops_per_s on large, sweep"),
    "graph.verify_mapping.edges_checked": ("count", "lower", "ops_per_s on large, sweep (computed: edges of the source graph)"),
    "graph.find_isomorphism.calls": ("count", "lower", "ops_per_s, fail_ratio on shu; a little on sweep; nothing on large"),
    "graph.find_isomorphism.busy_s": ("s", "lower", "ops_per_s, fail_ratio on shu; a little on sweep; nothing on large"),
    "graph.find_isomorphism.nodes": ("count", "lower", "ops_per_s, fail_ratio on shu; a little on sweep; nothing on large"),
    "graph.find_isomorphism.inconclusive": ("count", "lower", "fail_ratio on shu"),
    "graph.components.busy_s": ("s", "lower", "ops_per_s on shu, sweep"),
    "graph.export.busy_s": ("s", "lower", "ops_per_s on large, shu"),
    "graph.export.bytes": ("B", "lower", "ops_per_s on large, shu"),
    "graph.parse_edgelist.busy_s": ("s", "lower", "ops_per_s on large, shu"),
    "graph.parse_edgelist.bytes": ("B", "lower", "ops_per_s on large, shu"),
    **{f"verify.{tid}.self_s": ("s", "lower", "ops_per_s where the theorem runs") for tid in THEOREM_IDS},
    "verify.sweep.self_s": ("s", "lower", "ops_per_s on sweep"),
    "trace.wall_s": ("s", "lower", "none: traced wall time of the replayed ops"),
    "trace.unattributed_s": ("s", "lower", "none: traced wall time outside every span (benchmark checks, loop)"),
    "trace.spans": ("count", "lower", "none: spans recorded"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced over untraced wall time of the same ops, both at baseline speed"),
}

# span name -> the per-layer metric that carries its self time
SELF_TIME_METRIC = {
    "kernels": "kernels.busy_s",
    "modring": "modring.busy_s",
    "cleangraph.cl2": "cleangraph.cl2_busy_s",
    "cleangraph.degree": "cleangraph.degree_busy_s",
    "cleangraph.idempotent_graph": "cleangraph.idempotent_graph_busy_s",
    "shuriken": "shuriken.busy_s",
    "graph.verify_mapping": "graph.verify_mapping.busy_s",
    "graph.find_isomorphism": "graph.find_isomorphism.busy_s",
    "graph.components": "graph.components.busy_s",
    "graph.export": "graph.export.busy_s",
    "graph.parse_edgelist": "graph.parse_edgelist.busy_s",
    **{f"verify.{tid}": f"verify.{tid}.self_s" for tid in THEOREM_IDS},
    "verify.sweep": "verify.sweep.self_s",
}

CALL_METRICS = {
    "kernels": "kernels.calls",
    "modring": "modring.calls",
    "cleangraph.cl2": "cleangraph.cl2_calls",
    "shuriken": "shuriken.calls",
    "graph.verify_mapping": "graph.verify_mapping.calls",
    "graph.find_isomorphism": "graph.find_isomorphism.calls",
}


class Tracer:
    """Collects spans and counts while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cl2_rings: set[tuple[int, int]] = set()
        self.op = -1

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(tracer, args, result)
                return result
            finally:
                end = perf_counter()
                tracer.stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.op)

        return traced

    @contextmanager
    def installed(self):
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "cleangraphs"]
        undo = []
        try:
            for owner, attr, name, count in FUNCTIONS:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, count)
                for mod in modules:
                    space = vars(mod)
                    for key, value in list(space.items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            for cls, attr, name in METHODS:
                original = vars(cls)[attr]
                undo.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, None))
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def layer_metrics(self, wall: float, overhead_ratio: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counts; ``wall``
        is the traced wall time, raw like every span."""
        spans = [s for s in self.spans if s is not None]
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for name, start, end, parent, _ in spans:
            if parent < 0:
                top_level += end - start
            else:
                child_time[parent] += end - start
        self_time: Counter = Counter()
        calls: Counter = Counter()
        for idx, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _, _ = span
            self_time[name] += end - start - child_time[idx]
            calls[name] += 1
        m = {key: 0.0 for key in LAYER_METRICS}
        m.update(self.counts)
        for name, metric in SELF_TIME_METRIC.items():
            m[metric] = self_time[name]
        for name, metric in CALL_METRICS.items():
            m[metric] = calls[name]
        busy = m["kernels.busy_s"]
        m["kernels.elements_per_s"] = m["kernels.elements"] / busy if busy else 0.0
        cl2_calls = m["cleangraph.cl2_calls"]
        m["cleangraph.cl2_distinct_ratio"] = len(self.cl2_rings) / cl2_calls if cl2_calls else 0.0
        m["trace.wall_s"] = wall
        m["trace.unattributed_s"] = wall - top_level
        m["trace.spans"] = len(spans)
        m["trace.overhead_ratio"] = overhead_ratio
        unknown = set(self_time) - set(SELF_TIME_METRIC)
        if unknown:
            raise RuntimeError(f"spans without a self-time metric: {sorted(unknown)}")
        return m

    def write_spans(self, path: Path) -> None:
        """One JSON list per line: name, start, end (seconds on the
        perf_counter clock), parent span index (-1 for none), op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
