"""One process of a workload: a CLI pass or the cross-check.

A CLI pass runs ``repro.__main__.main`` with the workload's flags, so it
is the sequence ``python -m repro`` runs, with the probes of
``probes.py`` around the program's public functions.  The CLI's own
output goes to this process's standard output, which ``run.py`` sends
to a file; the probes' findings go to the JSON record named by
``--out``::

    python3 -m perfbench.worker --out REC.json [--trace-file T.json] \\
        -- --design buggy --suite 2 --cex --cache-dir DIR

The cross-check builds the workload's suites on fresh BDD managers,
reads the retention hold out of each Property II consequent and
re-decides a seeded sample of the properties with the BMC engine::

    python3 -m perfbench.worker --out REC.json --cross-check SPEC.json
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
import traceback
from typing import Any, Dict, List


def cli_pass(argv: List[str], trace_file: str) -> Dict[str, Any]:
    import repro.__main__ as cli
    from perfbench.probes import CheckWindows, LayerProbe

    windows = CheckWindows()
    windows.install()
    probe = None
    if trace_file:
        probe = LayerProbe()
        probe.install()
        argv = argv + ["--trace", trace_file]
    error = None
    try:
        rc = cli.main(argv)
    except Exception:                         # a check that raises fails
        rc = None
        error = traceback.format_exc()
    done = time.perf_counter()
    sys.stdout.flush()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "rc": rc,
        "error": error,
        "windows": windows.windows,
        "done": done,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "checks": windows.checks,
        "raised": windows.raised,
        "check_wall_s": windows.check_wall_s,
        "reported_s": windows.reported_s,
        "suites": windows.suites,
    }
    if probe is not None:
        record.update(setup_nodes=probe.setup_nodes,
                      lint_findings=probe.lint_findings,
                      gc_s=probe.gc_s, gc_full=probe.gc_full)
    return record


def cross_check(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Retention-hold facts of the suites and BMC verdicts of a seeded
    sample of their properties; *spec* holds the design, the suites
    (sleep flags), the seed and the sample size."""
    from repro.bdd import BDDManager
    from repro.core import CheckSession
    from repro.cpu import buggy_core, fixed_core
    from repro.retention import build_suite
    from repro.ste import defining_sequence

    make_core = buggy_core if spec["design"] == "buggy" else fixed_core
    core = make_core(nregs=2, imem_depth=2, dmem_depth=2)
    suites = []
    for sleep in spec["sleeps"]:
        mgr = BDDManager()
        suite = build_suite(core, mgr, sleep=sleep)
        suites.append((sleep, mgr, suite))
    pool = [(i, p.name) for i, (_, _, suite) in enumerate(suites)
            for p in suite]
    sample = set(random.Random(spec["seed"]).sample(pool, spec["sample"]))

    out: Dict[str, Any] = {"pc_nodes": list(core.pc), "suites": [],
                           "checks": 0, "raised": 0}
    for i, (sleep, mgr, suite) in enumerate(suites):
        sched = suite[0].schedule
        entry: Dict[str, Any] = {
            "sleep": sleep,
            "names": [p.name for p in suite],
            "depth": sched.depth,
            "hold_window": list(sched.hold_window),
            "t_resume": sched.t_resume,
            "pc_hold": {},
            "sample": {},
        }
        if sleep:
            h0, h1 = sched.hold_window
            for prop in suite:
                present = defining_sequence(mgr, prop.antecedent)
                present = present.get(sched.t_present, {})
                wanted = defining_sequence(mgr, prop.consequent)
                entry["pc_hold"][prop.name] = all(
                    _same(wanted.get(t, {}).get(n), present.get(n))
                    for t in range(h0, h1) for n in core.pc)
        session = CheckSession(core.circuit, mgr, engine="bmc")
        for prop in suite:
            if (i, prop.name) not in sample:
                continue
            out["checks"] += 1
            try:
                result = session.check(prop.antecedent, prop.consequent,
                                       name=prop.name)
            except Exception as exc:          # a check that raises fails
                out["raised"] += 1
                entry["sample"][prop.name] = {"error": repr(exc)}
                continue
            entry["sample"][prop.name] = {
                "passed": bool(result.passed),
                "vacuous": bool(result.vacuous)}
        session.close()
        out["suites"].append(entry)
    return out


def _same(a, b) -> bool:
    return a is not None and b is not None and a.h == b.h and a.l == b.l


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m perfbench.worker")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace-file", default="")
    parser.add_argument("--cross-check", metavar="SPEC")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.cross_check:
        with open(args.cross_check) as fh:
            record = cross_check(json.load(fh))
    else:
        cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
        record = cli_pass(cli_args, args.trace_file)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
