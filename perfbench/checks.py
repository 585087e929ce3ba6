"""Output checks of a workload run.

Each check takes plain data — the report copies and CLI output of the
passes, the cross-check record — and returns a list of problems, empty
when the output is right.  The expectations come from the paper and
from the suites' own construction, never from a recorded run:

* the fixed core proves all 26 properties of each suite, none
  vacuously (the paper's result for the post-fix design);
* on the pre-fix core every Property II check fails, and it fails
  because the program counter, which each consequent holds over the
  sleep excursion, changes once the clock restarts at resume (the
  paper's diagnosis: the reset opcode fires PCWrite);
* a warm pass serves every check from the verdict cache and prints the
  cold pass's verdicts and traces;
* every unrolled BMC frame is either built or reused, once.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Mapping, Sequence

#: "In total for Property I, we developed 26 properties" — and the
#: Property II suite modifies the same 26.
PAPER_PROPERTIES = 26

_PROPERTY_LINE = re.compile(r"^  (\S+)\s+\[[^\]]*\] (.*?) depth=")
_CEX_HEADER = re.compile(
    r"^counterexample at t=(\d+) node='([^']*)': expected (\S+), got (\S+)$")


def parse_cli(text: str) -> List[Dict[str, str]]:
    """Per-property ``{name, status, cex}`` from ``python -m repro``
    output; ``cex`` is the counterexample text printed after the
    property's line ("" when none)."""
    out: List[Dict[str, Any]] = []
    current = None
    for line in text.splitlines():
        match = _PROPERTY_LINE.match(line)
        if match:
            current = {"name": match.group(1), "status": match.group(2),
                       "cex": []}
            out.append(current)
        elif line.startswith(("Session[", "cache[", "== ")) or not line:
            current = None
        elif current is not None:
            current["cex"].append(line)
    for entry in out:
        entry["cex"] = "\n".join(entry["cex"])
    return out


def all_proved(suites: Sequence[Mapping], names: Sequence[Sequence[str]]
               ) -> List[str]:
    """Every property of every suite passed, none vacuously, and each
    suite checked exactly its properties, in order."""
    problems = _checked_suites(suites, names)
    for suite in suites:
        for o in suite["outcomes"]:
            if not o["passed"]:
                problems.append(f"{o['name']}: FAIL on the fixed core")
            elif o["vacuous"]:
                problems.append(f"{o['name']}: passed vacuously")
    return problems


def bug_exposed(suite: Mapping, names: Sequence[str],
                pc_nodes: Sequence[str], hold_window: Sequence[int],
                t_resume: int, cli: Sequence[Mapping]) -> List[str]:
    """Every Property II check of the pre-fix core failed on a program
    counter point between resume and the end of the hold window, no
    program counter point failed before resume, and each printed
    counterexample shows binary expected and actual values that
    differ."""
    problems = _checked_suites([suite], [names])
    h0, h1 = hold_window
    pc = set(pc_nodes)
    for o in suite["outcomes"]:
        if o["passed"]:
            problems.append(f"{o['name']}: PASS on the pre-fix core")
            continue
        times = [t for t, node in o["failures"] if node in pc]
        if not any(max(h0, t_resume) <= t < h1 for t in times):
            problems.append(f"{o['name']}: no PC point fails between "
                            f"resume (t={t_resume}) and t={h1}")
        early = sorted({t for t in times if t < t_resume})
        if early:
            problems.append(f"{o['name']}: PC fails before resume at "
                            f"t={early}")
    printed = {entry["name"]: entry for entry in cli}
    for o in suite["outcomes"]:
        entry = printed.get(o["name"])
        header = _CEX_HEADER.match(entry["cex"].split("\n", 1)[0]) \
            if entry else None
        if header is None:
            problems.append(f"{o['name']}: no counterexample printed")
            continue
        expected, actual = header.group(3), header.group(4)
        if {expected, actual} != {"0", "1"}:
            problems.append(f"{o['name']}: counterexample expects "
                            f"{expected}, shows {actual}")
    return problems


def pc_held(hold: Mapping[str, bool]) -> List[str]:
    """Each Property II consequent requires the program counter to keep
    its present-state value over the whole hold window."""
    return [f"{name}: consequent does not hold PC over the sleep window"
            for name, held in hold.items() if not held]


def warm_served(cold: Sequence[Mapping], warm: Sequence[Mapping],
                cold_cli: Sequence[Mapping], warm_cli: Sequence[Mapping]
                ) -> List[str]:
    """The warm pass served every check from the cache and printed the
    cold pass's verdicts and counterexamples."""
    problems = []
    if len(warm) != len(cold):
        problems.append(f"warm pass ran {len(warm)} suites, cold "
                        f"{len(cold)}")
    for suite in warm:
        n = len(suite["outcomes"])
        if suite["cache_hits"] != n or suite["cache_misses"]:
            problems.append(f"warm pass: {suite['cache_hits']} cache hits"
                            f" and {suite['cache_misses']} misses for "
                            f"{n} checks")
    key = [(e["name"], e["status"], e["cex"]) for e in cold_cli]
    if [(e["name"], e["status"], e["cex"]) for e in warm_cli] != key:
        problems.append("warm pass printed other verdicts or traces "
                        "than the cold pass")
    return problems


def frames_add_up(suite: Mapping, depth: int) -> List[str]:
    """Each check unrolled the schedule's depth, and every frame was
    either built or reused exactly once."""
    problems = []
    depths = [o["depth"] for o in suite["outcomes"]]
    wrong = [o["name"] for o in suite["outcomes"] if o["depth"] != depth]
    if wrong:
        problems.append(f"depth differs from the schedule's {depth}: "
                        f"{wrong}")
    stats = suite["engine_stats"]
    frames = stats.get("frames_computed", 0) + stats.get("frames_reused", 0)
    if frames != sum(depths):
        problems.append(f"frames computed + reused = {frames}, the depths "
                        f"add up to {sum(depths)}")
    return problems


def sample_agrees(sample: Mapping[str, Mapping], passed: bool
                  ) -> List[str]:
    """The cross-check engine gave each sampled property the expected
    verdict, a pass never vacuous."""
    problems = []
    for name, verdict in sample.items():
        if "error" in verdict:
            problems.append(f"cross-check {name}: {verdict['error']}")
        elif verdict["passed"] != passed:
            problems.append(f"cross-check {name}: "
                            f"{'PASS' if verdict['passed'] else 'FAIL'}")
        elif passed and verdict["vacuous"]:
            problems.append(f"cross-check {name}: passed vacuously")
    return problems


def _checked_suites(suites: Sequence[Mapping],
                    names: Sequence[Sequence[str]]) -> List[str]:
    problems = []
    if len(suites) != len(names):
        return [f"{len(suites)} suites checked, {len(names)} expected"]
    for suite, expected in zip(suites, names):
        if len(expected) != PAPER_PROPERTIES:
            problems.append(f"the suite has {len(expected)} properties, "
                            f"the paper {PAPER_PROPERTIES}")
        got = [o["name"] for o in suite["outcomes"]]
        if got != list(expected):
            problems.append(f"checked {got}, the suite is {list(expected)}")
    return problems
