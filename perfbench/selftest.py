#!/usr/bin/env python3
"""Self-tests of the specrt benchmark: its output checks must bite.

    python3 perfbench/selftest.py

Runs perfbench/run.py on the repeat-sweep workload (one pass each)
and asserts that
  - a clean run is correct, with every run's output accepted;
  - one corrupted word in one run's final shared array is caught;
  - one flipped expected verdict is caught;
  - sim.cycles, sim.events and every run's verdict, cycles and final
    arrays are identical with 1 and with 2 campaign workers;
  - the traced run's span file is Chrome trace-event JSON.
Exits 0 when every assertion holds.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".bench_build" / "perfbench" / "results"
WORKLOAD = "repeat-sweep"


def bench(trace, *extra):
    """One run of the benchmark: (result line, result file)."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", WORKLOAD,
           "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    with open(RESULTS / f"{WORKLOAD}-seed0-trace{trace}.json") as f:
        saved = json.load(f)
    assert (out.returncode == 0) == result["correct"], out.stderr[-2000:]
    return result, saved


def value(result, name):
    return result["metrics"][name]["value"]


def main():
    clean, _ = bench(0)
    assert clean["correct"] and clean["failed"] == 0, clean
    assert value(clean, "ok_frac") == 1.0
    print("clean run accepted:", clean["attempted"], "runs")

    for inject in ("corrupt-word", "flip-verdict"):
        bad, _ = bench(0, "--inject", inject)
        assert not bad["correct"], (inject, bad)
        assert bad["failed"] >= 1 and value(bad, "ok_frac") < 1.0, bad
        print(f"{inject}: caught ({bad['failed']} of {bad['attempted']} "
              "runs failed)")

    one, one_saved = bench(1, "--jobs", "1")
    two, two_saved = bench(1, "--jobs", "2")
    assert one["correct"] and two["correct"]
    assert one_saved["stamp"]["workers"] == 1
    assert two_saved["stamp"]["workers"] == 2
    for name in ("sim.cycles", "sim.events"):
        assert value(one, name) == value(two, name), name
    assert one_saved["run_digest"] == two_saved["run_digest"]
    assert value(two, "bench.failed_frac") == 0
    print("1 and 2 workers: identical cycles, events and verdicts")

    with open(RESULTS / f"{WORKLOAD}-seed0-trace1.spans.json") as f:
        spans = json.load(f)["traceEvents"]
    assert spans and all(e["ph"] == "X" and e["dur"] >= 0 for e in spans)
    assert {e["cat"] for e in spans} >= {"core", "mem", "campaign", "bench"}
    print("span file:", len(spans), "complete events")
    return 0


if __name__ == "__main__":
    sys.exit(main())
