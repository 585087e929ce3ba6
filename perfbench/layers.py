"""Per-layer figures of one traced pass, and their sum over a workload.

Times come from the span tree of the program's own trace file: the
spans the program records itself (``property``, ``ste.trajectory``,
``bmc.search`` ...) plus the ``perfbench.*`` spans the benchmark's
wrappers add around calls into each layer's public functions (see
``probes.py``).  Where spans of two layers nest, each figure is the
layer's *self* time: its spans' durations minus the union of the
intervals of the layer spans inside them.  Counts come from the
program's public counters, copied into the pass record by the worker.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: span name -> per-layer time metric.  Spans of other names (the
#: program's ``engine.solve``, ``session``, ``cache.lookup`` ...) are
#: not layers: their time stays in the self time of the layer around
#: them.
LAYER_SPANS: Dict[str, str] = {
    "perfbench.cpu.build": "cpu.build_s",
    "perfbench.lint.run": "lint.gate_s",
    "perfbench.retention.build_suite": "retention.build_suite_s",
    "perfbench.netlist.coi": "netlist.coi_s",
    "property": "core.session_self_s",
    "perfbench.core.fingerprint": "core.fingerprint_s",
    "perfbench.core.cache_lookup": "core.cache_lookup_s",
    "perfbench.core.cache_store": "core.cache_store_s",
    "perfbench.fsm.compile": "fsm.compile_s",
    "perfbench.fsm.step": "fsm.step_s",
    "perfbench.ste.defining_sequence": "ste.defining_sequence_s",
    "ste.trajectory": "ste.trajectory_s",
    "ste.compare": "ste.compare_s",
    "perfbench.ste.extract": "ste.cex_s",
    "perfbench.ste.format_trace": "ste.cex_s",
    "bmc.prepare": "sat.prepare_s",
    "bmc.unroll": "sat.unroll_s",
    "bmc.encode": "sat.encode_s",
    "bmc.search": "sat.search_s",
    "perfbench.sat.preprocess": "sat.preprocess_s",
}

#: span name -> call-count metric (one span per call).
CALL_COUNTS: Dict[str, str] = {
    "perfbench.netlist.coi": "netlist.coi_calls",
    "perfbench.core.fingerprint": "core.fingerprint_calls",
    "perfbench.fsm.step": "fsm.steps",
    "perfbench.ste.rerun": "ste.reruns",
    "perfbench.ste.format_trace": "ste.cex_rendered",
    "perfbench.sat.preprocess": "sat.preprocess_calls",
    "perfbench.sat.solve": "sat.solve_calls",
}

#: The nested full re-run ``check_compiled`` makes for a failing
#: check.  Reported inclusive (its trajectory and compare spans also
#: count in their own layers), so it is not part of the self-time tree.
RERUN_SPAN = "perfbench.ste.rerun"

#: SessionReport.engine_stats key -> metric.
SAT_STATS: Dict[str, str] = {
    "conflicts": "sat.conflicts",
    "decisions": "sat.decisions",
    "propagations": "sat.propagations",
    "learned": "sat.learned",
    "restarts": "sat.restarts",
    "variables": "sat.variables",
    "clauses": "sat.clauses",
    "frames_computed": "sat.frames_computed",
    "frames_reused": "sat.frames_reused",
}

#: Gauges: a workload's value is the largest pass's, not the sum.
GAUGES = ("bdd.peak_nodes", "sat.variables", "sat.clauses")

#: Every per-layer metric with its unit and better direction, in the
#: order BENCHMARK.json lists them.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("cpu.build_s", "s", "lower"),
    ("lint.gate_s", "s", "lower"),
    ("lint.findings", "count", "lower"),
    ("retention.build_suite_s", "s", "lower"),
    ("bdd.setup_nodes", "count", "lower"),
    ("netlist.coi_s", "s", "lower"),
    ("netlist.coi_calls", "count", "lower"),
    ("core.session_self_s", "s", "lower"),
    ("core.models_compiled", "count", "lower"),
    ("core.model_reuses", "count", "higher"),
    ("core.fingerprint_s", "s", "lower"),
    ("core.fingerprint_calls", "count", "lower"),
    ("core.cache_lookup_s", "s", "lower"),
    ("core.cache_store_s", "s", "lower"),
    ("core.cache_hits", "count", "higher"),
    ("core.cache_misses", "count", "lower"),
    ("core.cache_stored", "count", "lower"),
    ("fsm.compile_s", "s", "lower"),
    ("fsm.step_s", "s", "lower"),
    ("fsm.steps", "count", "lower"),
    ("ste.defining_sequence_s", "s", "lower"),
    ("ste.trajectory_s", "s", "lower"),
    ("ste.compare_s", "s", "lower"),
    ("ste.points", "count", "lower"),
    ("ste.reruns", "count", "lower"),
    ("ste.rerun_s", "s", "lower"),
    ("ste.cex_s", "s", "lower"),
    ("ste.cex_rendered", "count", "lower"),
    ("bdd.apply_calls", "count", "lower"),
    ("bdd.apply_misses", "count", "lower"),
    ("bdd.hit_rate", "ratio", "higher"),
    ("bdd.peak_nodes", "count", "lower"),
    ("bdd.gc_runs", "count", "lower"),
    ("bdd.gc_reclaimed", "count", "lower"),
    ("sat.prepare_s", "s", "lower"),
    ("sat.unroll_s", "s", "lower"),
    ("sat.encode_s", "s", "lower"),
    ("sat.search_s", "s", "lower"),
    ("sat.preprocess_s", "s", "lower"),
    ("sat.preprocess_calls", "count", "lower"),
    ("sat.preprocess_removed_ratio", "ratio", "higher"),
    ("sat.solve_calls", "count", "lower"),
    ("sat.conflicts", "count", "lower"),
    ("sat.decisions", "count", "lower"),
    ("sat.propagations", "count", "lower"),
    ("sat.learned", "count", "lower"),
    ("sat.restarts", "count", "lower"),
    ("sat.variables", "count", "lower"),
    ("sat.clauses", "count", "lower"),
    ("sat.frames_computed", "count", "lower"),
    ("sat.frames_reused", "count", "higher"),
    ("sat.frame_reuse_rate", "ratio", "higher"),
    ("sat.refinements", "count", "lower"),
    ("python.gc_s", "s", "lower"),
    ("python.gc_full", "count", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("core.unaccounted_s", "s", "lower"),
    ("obs.trace_overhead_s", "s", "lower"),
]


def self_times(events: Sequence[Mapping], layers: Iterable[str]
               ) -> Dict[str, float]:
    """Self time in seconds per span name in *layers*.

    *events* are Chrome trace "X" events (``name``, ``ts``, ``dur`` in
    microseconds) of one thread.  A layer span's self time is its
    duration minus the union of the intervals of the other layer spans
    it contains; overlapping children are counted once.  Two spans with
    the same interval nest by recording order: a span is recorded when
    it ends, so the one recorded later is the outer one.
    """
    wanted = set(layers)
    spans = [(int(e["ts"]), int(e["ts"]) + int(e["dur"]), i, e["name"])
             for i, e in enumerate(events) if e.get("name") in wanted]
    # Sorted by start, longest first, later-recorded first: every span
    # a span contains comes after it.
    spans.sort(key=lambda s: (s[0], -s[1], -s[2]))
    totals: Dict[str, float] = {name: 0.0 for name in wanted}
    for k, (start, end, _, name) in enumerate(spans):
        inner: List[Tuple[int, int]] = []
        for c_start, c_end, _, _ in spans[k + 1:]:
            if c_start > end:
                break
            if c_end <= end:
                inner.append((c_start, c_end))
        covered = 0
        reach = start
        for c_start, c_end in inner:
            if c_end > reach:
                covered += c_end - max(c_start, reach)
                reach = c_end
        totals[name] += (end - start - covered) / 1e6
    return totals


def pass_layers(record: Mapping, events: Sequence[Mapping]
                ) -> Dict[str, float]:
    """Raw per-layer values of one traced pass: times from *events*,
    counts from the *record* the worker wrote."""
    out: Dict[str, float] = {}
    for name, seconds in self_times(events, LAYER_SPANS).items():
        metric = LAYER_SPANS[name]
        out[metric] = out.get(metric, 0.0) + seconds
    for metric in CALL_COUNTS.values():
        out[metric] = 0
    out["ste.rerun_s"] = 0.0
    out["sat.refinements"] = 0
    for e in events:
        name = e.get("name")
        if name in CALL_COUNTS:
            out[CALL_COUNTS[name]] += 1
        if name == RERUN_SPAN:
            out["ste.rerun_s"] += int(e["dur"]) / 1e6
        if name == "perfbench.sat.solve_prepared":
            out["sat.refinements"] += int(e.get("args", {})
                                          .get("refinements", 0))

    suites = record["suites"]
    out["lint.findings"] = record["lint_findings"]
    out["bdd.setup_nodes"] = record["setup_nodes"]
    out["core.models_compiled"] = sum(s["models_compiled"] for s in suites)
    out["core.model_reuses"] = sum(s["model_reuses"] for s in suites)
    out["core.cache_hits"] = sum(s["cache_hits"] for s in suites)
    out["core.cache_misses"] = sum(s["cache_misses"] for s in suites)
    out["core.cache_stored"] = sum(s["cache_stored"] for s in suites)
    out["ste.points"] = sum(o["points"] for s in suites
                            for o in s["outcomes"]
                            if o["engine"] == "ste" and not o["cached"])
    hits = sum(op["hits"] for s in suites
               for op in s["cache_stats"].values())
    misses = sum(op["misses"] for s in suites
                 for op in s["cache_stats"].values())
    out["bdd.hits"] = hits
    out["bdd.apply_calls"] = hits + misses
    out["bdd.apply_misses"] = misses
    out["bdd.peak_nodes"] = max((s["bdd_stats"]["peak_nodes"]
                                 for s in suites), default=0)
    out["bdd.gc_runs"] = sum(s["bdd_stats"]["gc_runs"] for s in suites)
    out["bdd.gc_reclaimed"] = sum(s["bdd_stats"]["gc_reclaimed"]
                                  for s in suites)
    for key, metric in SAT_STATS.items():
        out[metric] = sum(s["engine_stats"].get(key, 0) for s in suites)
    out["sat.preprocess_in"] = sum(
        s["engine_stats"].get("preprocess.clauses_in", 0) for s in suites)
    out["sat.preprocess_removed"] = sum(
        s["engine_stats"].get("preprocess.tautologies", 0)
        + s["engine_stats"].get("preprocess.subsumed", 0) for s in suites)
    out["python.gc_s"] = record["gc_s"]
    out["python.gc_full"] = record["gc_full"]
    out["proc.cpu_s"] = record["cpu_s"]
    out["core.unaccounted_s"] = record["check_wall_s"] - record["reported_s"]
    return out


def workload_layers(passes: Sequence[Mapping[str, float]]
                    ) -> Dict[str, float]:
    """Sum the raw values of a workload's passes (gauges take the
    largest) and derive the ratios."""
    total: Dict[str, float] = {}
    for values in passes:
        for key, value in values.items():
            if key in GAUGES:
                total[key] = max(total.get(key, 0), value)
            else:
                total[key] = total.get(key, 0) + value
    total["bdd.hit_rate"] = _ratio(total.pop("bdd.hits"),
                                   total["bdd.apply_calls"])
    total["sat.preprocess_removed_ratio"] = _ratio(
        total.pop("sat.preprocess_removed"), total.pop("sat.preprocess_in"))
    total["sat.frame_reuse_rate"] = _ratio(
        total["sat.frames_reused"],
        total["sat.frames_reused"] + total["sat.frames_computed"])
    return total


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
