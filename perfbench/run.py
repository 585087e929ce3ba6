"""Run one workload of the checker and print its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each round of a workload is a series of fresh processes, each running
``repro.__main__.main`` with the workload's flags and one verdict cache
that starts empty:

* the cold pass decides every property and fills the cache;
* three warm passes, each a new process with the same flags, are
  served from it (one in a traced round).

Rounds repeat until ``--seconds`` have passed and the workload's
``min_rounds`` are done; a run
then builds the suites once more to re-decide a ``--seed``-chosen
sample of properties with another engine.  The last line of standard
output is the result: with ``--trace 0`` the end-to-end metrics
(medians over the rounds), with ``--trace 1`` the per-layer metrics of
traced rounds, each run after an untraced one.  The exit code is 0 when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, layers  # noqa: E402

#: Where runs keep their scratch files and the last traces.
WORK = ROOT / ".perfbench"

#: A run must end within this many seconds of its start.
DEADLINE_S = 170.0

#: Warm passes per untraced round; ``warm_s`` is their median.  A warm
#: pass is short enough that one sample is mostly scheduling noise.
WARM_PASSES = 3

END_TO_END = (("setup_s", "s"), ("check_s", "s"), ("peak_rss_mb", "MB"),
              ("warm_s", "s"))


@dataclass(frozen=True)
class Workload:
    #: ``python -m repro`` flags, before ``--cache-dir``
    flags: Sequence[str]
    design: str
    #: the suites' sleep flags, in the order the CLI checks them
    sleeps: Sequence[bool]
    #: how many properties the cross-check re-decides with BMC
    sample: int
    #: rounds a run makes at least, so that a short round's figures
    #: are a median of several
    min_rounds: int = 1


WORKLOADS: Dict[str, Workload] = {
    "ste_both": Workload(["--suite", "both"], "fixed", (False, True), 3),
    "bmc_sleep": Workload(["--suite", "2", "--engine", "bmc"], "fixed",
                          (True,), 0),
    "bug_hunt": Workload(["--design", "buggy", "--suite", "2", "--cex"],
                         "buggy", (True,), 4, min_rounds=3),
}


@dataclass
class Pass:
    """One worker process: its record, CLI output and wall time."""

    record: Optional[Dict[str, Any]]
    text: str
    launch: float
    wall_s: float
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def suites(self) -> List[Dict[str, Any]]:
        return self.record["suites"] if self.record else []


class Runner:
    def __init__(self, name: str, work: Path, deadline: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.work = work
        self.deadline = deadline
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        #: [cold pass, warm passes...] of every round, in order
        self.rounds: List[List[Pass]] = []
        self._n = 0

    def spawn(self, worker_args: List[str], trace_file: str = ""
              ) -> Pass:
        self._n += 1
        out = self.work / f"pass-{self._n}.json"
        stdout = self.work / f"pass-{self._n}.out"
        args = [sys.executable, "-m", "perfbench.worker", "--out", str(out)]
        if trace_file:
            args += ["--trace-file", trace_file]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env.pop("REPRO_CACHE_DIR", None)
        with open(stdout, "w") as so, \
                open(self.work / f"pass-{self._n}.err", "w") as se:
            launch = time.perf_counter()
            proc = subprocess.Popen(args + worker_args, cwd=ROOT, env=env,
                                    stdout=so, stderr=se)
            try:
                proc.wait(timeout=max(1.0, self.deadline - launch))
            except subprocess.TimeoutExpired:
                self.problems.append(f"pass {self._n} ran past the "
                                     f"deadline")
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - launch
        record = None
        if proc.returncode == 0 and out.exists():
            record = json.loads(out.read_text())
        else:
            self.problems.append(
                f"pass {self._n} exited {proc.returncode}: "
                f"{(self.work / f'pass-{self._n}.err').read_text()[-2000:]}")
            self.attempted += 1
            self.failed += 1
        if record is not None:
            self.attempted += record["checks"]
            self.failed += record["raised"]
            if record.get("error"):
                self.problems.append(record["error"])
        events = []
        if trace_file and Path(trace_file).exists():
            events = [e for e in json.loads(Path(trace_file).read_text())
                      ["traceEvents"] if e.get("ph") == "X"]
        return Pass(record, stdout.read_text(), launch, wall, events)

    def round(self, index: int, traced: bool) -> List[Pass]:
        """A cold pass on an empty cache, then the warm passes."""
        cache = self.work / f"cache-{index}"
        flags = ["--"] + list(self.workload.flags) + ["--cache-dir",
                                                      str(cache)]
        trace = str(WORK / f"{self.name}-{{}}.trace.json") if traced else ""
        passes = [self.spawn(flags, trace.format("cold"))]
        for _ in range(1 if traced else WARM_PASSES):
            passes.append(self.spawn(flags, trace.format("warm")))
        shutil.rmtree(cache, ignore_errors=True)
        self.check_round(passes[0], passes[1:])
        self.rounds.append(passes)
        return passes

    def check_round(self, cold: Pass, warms: List[Pass]) -> None:
        expect_rc = 1 if self.workload.design == "buggy" else 0
        for p in [cold] + warms:
            if p.record and p.record["rc"] != expect_rc:
                self.problems.append(f"pass exit status {p.record['rc']}, "
                                     f"expected {expect_rc}")
        for warm in warms:
            if cold.record and warm.record:
                self.problems += checks.warm_served(
                    cold.suites, warm.suites, checks.parse_cli(cold.text),
                    checks.parse_cli(warm.text))

    def cross_check(self, seed: int) -> Dict[str, Any]:
        spec = {"design": self.workload.design,
                "sleeps": list(self.workload.sleeps), "seed": seed,
                "sample": self.workload.sample}
        path = self.work / "cross-check.json"
        path.write_text(json.dumps(spec))
        result = self.spawn(["--cross-check", str(path)])
        return result.record or {}

    def verify(self, cross: Dict[str, Any]) -> None:
        """The paper's verdicts on every cold pass, plus the
        cross-check's facts."""
        if not cross:
            self.problems.append("the cross-check left no record")
            return
        xsuites = cross["suites"]
        names = [x["names"] for x in xsuites]
        for x in xsuites:
            self.problems += checks.pc_held(x["pc_hold"])
            self.problems += checks.sample_agrees(
                x["sample"], passed=self.workload.design == "fixed")
        for cold in (passes[0] for passes in self.rounds):
            if self.workload.design == "fixed":
                self.problems += checks.all_proved(cold.suites, names)
            else:
                x = xsuites[0]
                self.problems += checks.bug_exposed(
                    cold.suites[0] if cold.suites else {"outcomes": []},
                    x["names"], cross["pc_nodes"], x["hold_window"],
                    x["t_resume"], checks.parse_cli(cold.text))
            for suite, x in zip(cold.suites, xsuites):
                if suite["engine"] == "bmc":
                    self.problems += checks.frames_add_up(suite, x["depth"])


def end_to_end(cold: Pass, warms: List[Pass]) -> Dict[str, float]:
    """setup_s, check_s and peak_rss_mb of the cold pass; warm_s, the
    warm passes' median wall time."""
    windows = cold.record["windows"]
    check = sum(end - start for start, end in windows)
    setup = windows[0][0] - cold.launch + sum(
        nxt[0] - prev[1] for prev, nxt in zip(windows, windows[1:]))
    return {"setup_s": setup, "check_s": check,
            "peak_rss_mb": cold.record["peak_rss_mb"],
            "warm_s": statistics.median(w.wall_s for w in warms)}


def workload_wall(values: Dict[str, float]) -> float:
    return values["setup_s"] + values["check_s"] + values["warm_s"]


def result_metrics(plain: List[Dict[str, float]],
                   traced: List[Dict[str, float]],
                   traced_walls: List[float], trace: bool
                   ) -> Dict[str, Dict[str, Any]]:
    """The result line's ``metrics``: medians over the rounds of the
    end-to-end metrics, or with *trace* of the per-layer ones.  Empty
    when no round completed."""
    metrics: Dict[str, Dict[str, Any]] = {}
    if trace and traced and plain:
        untraced = statistics.median(workload_wall(v) for v in plain)
        for v, wall in zip(traced, traced_walls):
            v["obs.trace_overhead_s"] = wall - untraced
        for metric, unit, _ in layers.PER_LAYER:
            metrics[metric] = {"value": statistics.median(
                v[metric] for v in traced), "unit": unit}
    elif plain and not trace:
        for metric, unit in END_TO_END:
            metrics[metric] = {"value": statistics.median(
                v[metric] for v in plain), "unit": unit}
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool
        ) -> Dict[str, Any]:
    started = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = Runner(name, work, started + DEADLINE_S)
    plain: List[Dict[str, float]] = []
    traced: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    try:
        while True:
            for is_traced in ((False, True) if trace else (False,)):
                passes = runner.round(len(runner.rounds), is_traced)
                if not (all(p.record for p in passes)
                        and passes[0].record["windows"]):
                    continue
                values = end_to_end(passes[0], passes[1:])
                if is_traced:
                    traced_walls.append(workload_wall(values))
                    traced.append(layers.workload_layers(
                        [layers.pass_layers(p.record, p.events)
                         for p in passes]))
                else:
                    plain.append(values)
            if runner.problems or (
                    time.perf_counter() - started >= seconds
                    and len(plain) >= runner.workload.min_rounds):
                break
        runner.verify(runner.cross_check(seed))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result_metrics(plain, traced, traced_walls, trace)
    if not metrics:
        runner.problems.append("no round completed")
    for problem in runner.problems:
        print(f"problem: {problem}", file=sys.stderr)
    return {"correct": not runner.problems,
            "attempted": max(1, runner.attempted),
            "failed": runner.failed,
            "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Ending on SIGTERM unwinds through spawn(), which kills and reaps
    # the pass it waits for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
