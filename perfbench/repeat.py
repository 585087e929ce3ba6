"""Run one workload repeatedly and print each metric's median and
quartiles.

    python3 perfbench/repeat.py --workload NAME [--runs 10] [--first-seed 1]
                                [--trace 0|1] [--seconds S]

Each run is ``perfbench/run.py`` with the next seed and, by default,
BENCHMARK.json's ``run_seconds``.  Quartiles are Python's
``statistics.quantiles(values, n=4)``; the spread is the distance
between the first and third quartile as a share of the median, the
figure the end-to-end bounds in BENCHMARK.json are compared with.  The
runs' values are also written to ``.perfbench/repeat-NAME-traceT.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parent.parent


def summarize(results: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """metric -> unit, values, median, quartiles and spread."""
    out: Dict[str, Dict[str, Any]] = {}
    for metric in results[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4) \
            if len(values) > 1 else (values[0],) * 3
        median = statistics.median(values)
        out[metric] = {
            "unit": results[0]["metrics"][metric]["unit"],
            "values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "exact": len(set(values)) == 1,
        }
    return out


def main(argv: List[str] = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="python3 perfbench/repeat.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int,
                        default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["exit"] = proc.returncode
        results.append(result)
        print(f"seed {seed}: exit {proc.returncode} correct "
              f"{result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)

    summary = summarize(results)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"\n{args.workload}: {len(results)} runs, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}, "
          f"{failed}/{attempted} checks failed, all correct: "
          f"{all(r['correct'] for r in results)}")
    print(f"{'metric':<30} {'unit':<6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7}  bound")
    for metric, s in summary.items():
        bound = bounds.get(metric)
        note = "exact" if s["exact"] else ""
        if bound is not None:
            note = f"{bound:.2f}" + ("" if s["spread"] <= bound / 3
                                     else "  (spread above bound/3)")
        print(f"{metric:<30} {s['unit']:<6} {s['median']:>12.6g} "
              f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>7.3f}  "
              f"{note}")
    out = ROOT / ".perfbench" / f"repeat-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"runs": results, "summary": summary},
                              indent=1))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
