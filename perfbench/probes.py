"""Wrappers the worker installs around the program's public functions.

Every pass installs the check-window probe: it wraps
``CheckSession.check`` and ``CheckSession.report`` to time each
suite's checking window and to copy each report into plain data.  No
reference to a program object outlives the call it was read in, so
the benchmark keeps nothing alive that the CLI would have released.

A traced pass also wraps one public function per layer.  Each wrapper
records a ``perfbench.<layer>`` span into the program's active
``repro.obs`` tracer, so the benchmark's spans and the program's own
share one timeline in the trace file the CLI writes.
"""

from __future__ import annotations

import gc
import time
import weakref
from typing import Any, Callable, Dict, List


class CheckWindows:
    """Per-session checking windows, check counts and report copies."""

    def __init__(self) -> None:
        #: [first check start, report() start] per session, in order
        self.windows: List[List[float]] = []
        self._window_of: "weakref.WeakKeyDictionary" = \
            weakref.WeakKeyDictionary()
        self.suites: List[Dict[str, Any]] = []
        self.checks = 0
        self.raised = 0
        #: wall time around checks the cache did not serve, and the
        #: elapsed_seconds the program reported for them
        self.check_wall_s = 0.0
        self.reported_s = 0.0

    def install(self) -> None:
        from repro.core.session import CheckSession
        windows = self

        def check(orig, session, *args, **kwargs):
            t0 = time.perf_counter()
            if session not in windows._window_of:
                window = [t0, t0]
                windows._window_of[session] = window
                windows.windows.append(window)
            windows.checks += 1
            try:
                result = orig(session, *args, **kwargs)
            except BaseException:
                windows.raised += 1
                raise
            if not getattr(result, "cached", False):
                windows.check_wall_s += time.perf_counter() - t0
                windows.reported_s += result.elapsed_seconds
            return result

        def report(orig, session):
            window = windows._window_of.get(session)
            if window is not None and window[1] == window[0]:
                window[1] = time.perf_counter()
            result = orig(session)
            windows.suites.append(summarize(result))
            return result

        wrap(CheckSession, "check", check)
        wrap(CheckSession, "report", report)


def summarize(report) -> Dict[str, Any]:
    """The plain-data copy of a SessionReport the checks and the
    per-layer figures read."""
    return {
        "engine": report.engine,
        "outcomes": [{
            "name": o.name,
            "engine": o.engine,
            "passed": bool(o.passed),
            "vacuous": bool(getattr(o.result, "vacuous", False)),
            "cached": bool(o.cached),
            "depth": int(o.result.depth),
            "points": int(getattr(o.result, "checked_points", 0)),
            "failures": [[int(f.time), f.node] for f in o.result.failures],
        } for o in report.outcomes],
        "models_compiled": report.models_compiled,
        "model_reuses": report.model_reuses,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "cache_stored": report.cache_stored,
        "engine_stats": dict(report.engine_stats),
        "bdd_stats": dict(report.bdd_stats),
        "cache_stats": {op: dict(s) for op, s in report.cache_stats.items()},
    }


def wrap(owner: Any, attr: str, wrapper: Callable[..., Any]) -> None:
    """Replace ``owner.attr`` (a module function or a method) with a
    function calling ``wrapper(original, *args, **kwargs)``.  The
    worker process ends after its pass, so nothing is put back."""
    orig = getattr(owner, attr)

    def call(*args, **kwargs):
        return wrapper(orig, *args, **kwargs)

    call.__wrapped__ = orig
    setattr(owner, attr, call)


class LayerProbe:
    """The traced pass's per-layer wrappers, GC timing and the counts
    read at suite set-up."""

    def __init__(self) -> None:
        self.setup_nodes = 0
        self.lint_findings = 0
        self.gc_s = 0.0
        self.gc_full = 0
        self._gc_t0 = 0.0
        self._rerun_depth = 0

    def install(self) -> None:
        import repro.__main__ as cli
        import repro.core.fingerprint as fingerprint
        import repro.core.session as session
        import repro.fsm as fsm
        import repro.lint as lint
        import repro.ste.checker as checker
        import repro.ste.counterexample as counterexample
        from repro.core.cache import VerdictCache
        from repro.fsm.model import CompiledModel
        from repro.obs.trace import tracer
        from repro.sat.bmc import BMCEngine
        from repro.sat.preprocess import IncrementalPreprocessor
        from repro.sat.solver import Solver

        def timed(span: str, after: Callable[..., None] = None):
            def wrapper(orig, *args, **kwargs):
                t0 = time.perf_counter()
                result = orig(*args, **kwargs)
                tracer().add_span(span, t0, time.perf_counter(),
                                  cat="perfbench")
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return wrapper

        probe = self

        def suite_built(suite, core, mgr=None, **kwargs):
            probe.setup_nodes += mgr.num_nodes()

        def linted(report, *args, **kwargs):
            probe.lint_findings += len(report.diagnostics)

        def check_compiled(orig, *args, **kwargs):
            # check_compiled calls itself once to re-run a failing
            # check with the full trajectory kept.
            if not probe._rerun_depth:
                probe._rerun_depth += 1
                try:
                    return orig(*args, **kwargs)
                finally:
                    probe._rerun_depth -= 1
            return timed("perfbench.ste.rerun")(orig, *args, **kwargs)

        def solve_prepared(orig, engine, *args, **kwargs):
            before = engine.refinements
            t0 = time.perf_counter()
            result = orig(engine, *args, **kwargs)
            tracer().add_span("perfbench.sat.solve_prepared", t0,
                              time.perf_counter(), cat="perfbench",
                              refinements=engine.refinements - before)
            return result

        wrap(cli, "fixed_core", timed("perfbench.cpu.build"))
        wrap(cli, "buggy_core", timed("perfbench.cpu.build"))
        wrap(cli, "build_suite",
             timed("perfbench.retention.build_suite", suite_built))
        wrap(lint, "run_lint", timed("perfbench.lint.run", linted))
        wrap(session, "cone_of_influence", timed("perfbench.netlist.coi"))
        wrap(fingerprint, "check_fingerprint",
             timed("perfbench.core.fingerprint"))
        wrap(VerdictCache, "lookup", timed("perfbench.core.cache_lookup"))
        wrap(VerdictCache, "store", timed("perfbench.core.cache_store"))
        wrap(fsm, "compile_circuit", timed("perfbench.fsm.compile"))
        wrap(CompiledModel, "step", timed("perfbench.fsm.step"))
        wrap(checker, "defining_sequence",
             timed("perfbench.ste.defining_sequence"))
        wrap(checker, "check_compiled", check_compiled)
        wrap(counterexample, "extract", timed("perfbench.ste.extract"))
        wrap(counterexample, "format_trace",
             timed("perfbench.ste.format_trace"))
        wrap(IncrementalPreprocessor, "process",
             timed("perfbench.sat.preprocess"))
        wrap(Solver, "solve", timed("perfbench.sat.solve"))
        wrap(BMCEngine, "solve_prepared", solve_prepared)
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        # Collections run inside whatever allocated; this callback only
        # adds up floats, so it never re-enters the tracer's lock.
        if phase == "start":
            self._gc_t0 = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_t0
            if info["generation"] == 2:
                self.gc_full += 1
