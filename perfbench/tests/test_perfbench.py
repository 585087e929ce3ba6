"""The benchmark's own tests: self-time arithmetic, the result line and
the output checks, on synthetic data (no program run; well under a
second).  ``python -m pytest perfbench/tests -q`` from the repo root."""

import json
from pathlib import Path

import pytest

from perfbench import checks, layers
from perfbench.run import END_TO_END, result_metrics

ROOT = Path(__file__).resolve().parents[2]


def span(name, ts, dur):
    return {"name": name, "ph": "X", "ts": ts, "dur": dur}


# ----------------------------------------------------------------------
# Self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_overlapping_children():
    events = [span("child", 10, 40), span("child", 30, 40),
              span("parent", 0, 100)]
    got = layers.self_times(events, ["parent", "child"])
    # [10, 50) and [30, 70) cover 60 us of the parent once, not 80.
    assert got["parent"] == pytest.approx(40e-6)
    assert got["child"] == pytest.approx(80e-6)


def test_self_time_nests_and_ignores_spans_of_other_names():
    events = [span("leaf", 20, 10), span("mid", 10, 40),
              span("engine.solve", 5, 60), span("top", 0, 100),
              span("other_top", 200, 5)]
    got = layers.self_times(events, ["top", "mid", "leaf", "other_top"])
    assert got["top"] == pytest.approx(60e-6)     # minus mid only
    assert got["mid"] == pytest.approx(30e-6)
    assert got["leaf"] == pytest.approx(10e-6)
    assert got["other_top"] == pytest.approx(5e-6)


def test_equal_intervals_nest_by_recording_order():
    # Spans are recorded as they end, so the later one is the outer.
    events = [span("inner", 0, 10), span("outer", 0, 10)]
    got = layers.self_times(events, ["inner", "outer"])
    assert got == {"inner": pytest.approx(10e-6), "outer": 0.0}


# ----------------------------------------------------------------------
# The result line
# ----------------------------------------------------------------------
def bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_result_line_carries_every_end_to_end_metric_with_its_unit():
    plain = [{"setup_s": 1.0 + i, "check_s": 10.0, "peak_rss_mb": 300.0,
              "warm_s": 0.5} for i in range(3)]
    metrics = result_metrics(plain, [], [], trace=False)
    declared = {m["name"]: m["unit"] for m in bench_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert dict(END_TO_END) == declared
    assert metrics["setup_s"]["value"] == 2.0          # the median


def test_traced_result_carries_every_per_layer_metric():
    plain = [{"setup_s": 1.0, "check_s": 10.0, "peak_rss_mb": 300.0,
              "warm_s": 0.5}]
    traced = [{m: 1.0 for m, _, _ in layers.PER_LAYER}]
    metrics = result_metrics(plain, traced, [12.0], trace=True)
    declared = {m["name"]: (m["unit"], m["better"])
                for m in bench_json()["per_layer"]}
    assert {m: (u, b) for m, u, b in layers.PER_LAYER} == declared
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {k: u for k, (u, _) in declared.items()}
    assert metrics["obs.trace_overhead_s"]["value"] == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
NAMES = [f"p{i}" for i in range(checks.PAPER_PROPERTIES)]
PC = ["PC[2]", "PC[3]"]


def outcome(name, passed, failures=(), depth=11, cached=False):
    return {"name": name, "engine": "ste", "passed": passed,
            "vacuous": False, "cached": cached, "depth": depth,
            "points": 10, "failures": [list(f) for f in failures]}


def suite(outcomes, **fields):
    base = {"engine": "ste", "outcomes": outcomes, "cache_hits": 0,
            "cache_misses": len(outcomes), "cache_stored": len(outcomes),
            "engine_stats": {}}
    base.update(fields)
    return base


def cli_text(cex):
    lines = ["== Property II (sleep/resume) on the buggy core =="]
    for name in NAMES:
        lines.append(f"  {name:<28} [fetch    ] STE FAIL(1 points) "
                     f"depth=11 points=10 time=0.1s")
        lines.append(cex)
    return "\n".join(lines + ["Session[ste] FAIL(26/26)", ""])


def test_all_proved_rejects_one_fail():
    good = suite([outcome(n, True) for n in NAMES])
    assert checks.all_proved([good], [NAMES]) == []
    bad = suite([outcome(n, n != "p3") for n in NAMES])
    assert checks.all_proved([bad], [NAMES]) == ["p3: FAIL on the fixed core"]


BUG = [(8, "PC[2]"), (9, "PC[3]")]
CEX = ("counterexample at t=8 node='PC[2]': expected 0, got 1\n"
       "        0  8\nPC[2]   0  1")


def test_bug_exposed_accepts_the_papers_failure():
    s = suite([outcome(n, False, BUG) for n in NAMES])
    assert checks.bug_exposed(s, NAMES, PC, (1, 10), 8,
                              checks.parse_cli(cli_text(CEX))) == []


def test_bug_exposed_rejects_a_buggy_core_result_that_passes():
    s = suite([outcome(n, n == "p0", BUG) for n in NAMES])
    problems = checks.bug_exposed(s, NAMES, PC, (1, 10), 8,
                                  checks.parse_cli(cli_text(CEX)))
    assert problems == ["p0: PASS on the pre-fix core"]


@pytest.mark.parametrize("failures, cex", [
    ([(3, "PC[2]"), (8, "PC[2]")], CEX),        # PC lost during sleep
    ([(8, "IFR[0]")], CEX),                     # no PC point
    (BUG, CEX.replace("got 1", "got X")),       # not a binary witness
    (BUG, CEX.replace("got 1", "got 0")),       # values do not differ
])
def test_bug_exposed_rejects_a_wrong_diagnosis(failures, cex):
    s = suite([outcome(n, False, failures) for n in NAMES])
    assert checks.bug_exposed(s, NAMES, PC, (1, 10), 8,
                              checks.parse_cli(cli_text(cex)))


def test_warm_served_rejects_a_cache_miss():
    cold = [suite([outcome(n, False, BUG) for n in NAMES])]
    cli = checks.parse_cli(cli_text(CEX))
    warm_ok = [suite([outcome(n, False, BUG, cached=True) for n in NAMES],
                     cache_hits=26, cache_misses=0, cache_stored=0)]
    assert checks.warm_served(cold, warm_ok, cli, cli) == []
    warm_miss = [suite(warm_ok[0]["outcomes"], cache_hits=25,
                       cache_misses=1, cache_stored=1)]
    assert checks.warm_served(cold, warm_miss, cli, cli) == [
        "warm pass: 25 cache hits and 1 misses for 26 checks"]
    other = checks.parse_cli(cli_text(CEX.replace("t=8", "t=9")))
    assert checks.warm_served(cold, warm_ok, cli, other)


def test_frames_add_up_rejects_a_lost_frame():
    stats = {"frames_computed": 121, "frames_reused": 165}
    s = suite([outcome(n, True) for n in NAMES], engine="bmc",
              engine_stats=stats)
    assert checks.frames_add_up(s, 11) == []
    s["engine_stats"] = dict(stats, frames_reused=164)
    assert checks.frames_add_up(s, 11) == [
        "frames computed + reused = 285, the depths add up to 286"]


def test_sample_agrees_rejects_a_disagreeing_engine():
    sample = {"p1": {"passed": True, "vacuous": False}}
    assert checks.sample_agrees(sample, passed=True) == []
    assert checks.sample_agrees(sample, passed=False) == [
        "cross-check p1: PASS"]
    assert checks.pc_held({"p1": True, "p2": False}) == [
        "p2: consequent does not hold PC over the sleep window"]
