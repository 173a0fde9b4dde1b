#!/usr/bin/env python3
"""Perf gate: compare a fresh BENCH_results.json against the committed
baseline (bench/baseline.json) and fail on throughput regressions.

For every bench present in both files, the current simulation rate
(the record's host.ticks_per_sec) must stay within a tolerance band
of the baseline's. Benches without a baseline entry, or with a
zero/absent rate (e.g. table-printing benches that simulate nothing),
are skipped with a note. Benches may also declare their own gates via a metric named
``*_speedup`` with a ``min_<metric>`` entry in the baseline.

Exit status: 0 when everything is in band, 1 on any violation, 2 on
bad input.

Refreshing the baseline
-----------------------
Machine speed drifts with the CI runner generation, so the committed
baseline is only compared in *ratio* terms with a wide band (default
+/-75% in CI, because shared runners are noisy; tighten locally with
--tolerance 0.25). To refresh after an intentional engine change:

    cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
    cmake --build build -j
    for b in build/bench/bench_*; do
        "$b" --quick --out /tmp/quick.json || true
    done
    python3 scripts/check_bench_regression.py \
        --results /tmp/quick.json --rebase
    git add bench/baseline.json

--rebase rewrites bench/baseline.json from the current results
instead of comparing.
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# A record is the run report (obs/report.hh) plus a "host" object. The
# gate reads "name", "metrics" and host.{exit_code, ticks_per_sec,
# events_per_sec}; the other report sections are known but not gated.
# A top-level key outside this set is noted, never a failure, and never
# carried into the baseline by --rebase. host.mem_* (host memory
# figures) are printed with their values, never gated.
KNOWN_RECORD_KEYS = {
    "schema", "name", "git_sha", "config_fingerprint", "base_seed",
    "sim_ticks", "events_fired", "runs", "infra_failed_runs",
    "metrics", "stats", "cost", "critpath", "timeline", "events",
    "host",
}


def unknown_keys(rec):
    return sorted(k for k in rec if k not in KNOWN_RECORD_KEYS)


def host(rec):
    """The record's host-side figures (wall time, rates, memory)."""
    h = rec.get("host", {})
    return h if isinstance(h, dict) else {}


def mem_keys(rec):
    """Informational host-memory figures (never gated)."""
    h = host(rec)
    return {k: h[k] for k in sorted(h) if k.startswith("mem_")}


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, list):
        print(f"error: {path} is not a JSON array", file=sys.stderr)
        sys.exit(2)
    return data


def latest_by_bench(records):
    """Keep the last record per bench name (results files append)."""
    out = {}
    for rec in records:
        if isinstance(rec, dict) and "name" in rec:
            out[rec["name"]] = rec
    return out


def rebase(results, baseline_path):
    base = []
    for name in sorted(results):
        rec = results[name]
        h = host(rec)
        entry = {
            "bench": name,
            "ticks_per_sec": h.get("ticks_per_sec", 0),
            "events_per_sec": h.get("events_per_sec", 0),
        }
        # Carry headline speedup metrics as explicit minimum gates.
        # Timeline-derived metrics are observability output, not
        # performance claims; they never become gates.
        metrics = rec.get("metrics", {})
        if not isinstance(metrics, dict):
            metrics = {}
        for key, val in sorted(metrics.items()):
            if key.endswith("_speedup") and \
                    not key.startswith("timeline_"):
                entry[f"min_{key}"] = round(val * 0.8, 3)
        base.append(entry)
    baseline_path.write_text(json.dumps(base, indent=2) + "\n")
    print(f"baseline rewritten: {baseline_path} ({len(base)} benches)")


def compare(results, baseline, tolerance, rows=None):
    """Gate ``results`` against ``baseline``; returns (checked,
    failures). When ``rows`` is a list, one entry per comparison is
    appended for the markdown summary: (status, bench, quantity,
    current, baseline, floor)."""
    failures = 0
    checked = 0
    if rows is None:
        rows = []
    for name in sorted(results):
        rec = results[name]
        extra = unknown_keys(rec)
        if extra:
            print(f"note {name}: ignoring unknown record keys: "
                  + ", ".join(extra))
        mem = mem_keys(rec)
        if mem:
            print(f"info {name}: "
                  + ", ".join(f"{k}={v}" for k, v in mem.items()))
        h = host(rec)
        exit_code = h.get("exit_code", 0)
        if exit_code != 0:
            print(f"FAIL {name}: bench exited nonzero ({exit_code})")
            rows.append(("FAIL", name, "exit_code", exit_code, 0, 0))
            failures += 1
            continue
        base = baseline.get(name)
        if base is None:
            print(f"skip {name}: no baseline entry "
                  "(run --rebase to add it)")
            rows.append(("skip", name, "ticks_per_sec",
                         h.get("ticks_per_sec", 0), None, None))
            continue

        cur = h.get("ticks_per_sec", 0)
        ref = base.get("ticks_per_sec", 0)
        if cur and ref:
            floor = ref * (1.0 - tolerance)
            status = "ok  " if cur >= floor else "FAIL"
            print(f"{status} {name}: {cur:.3g} ticks/s "
                  f"(baseline {ref:.3g}, floor {floor:.3g})")
            rows.append((status.strip(), name, "ticks_per_sec",
                         cur, ref, floor))
            if cur < floor:
                failures += 1
            checked += 1
        else:
            print(f"skip {name}: no simulation rate to compare")

        # Explicit minimum gates (e.g. min_sched_fire_speedup).
        metrics = rec.get("metrics", {})
        if not isinstance(metrics, dict):
            metrics = {}
        for key, floor in base.items():
            if not key.startswith("min_"):
                continue
            metric = key[len("min_"):]
            val = metrics.get(metric)
            if val is None:
                print(f"FAIL {name}: metric {metric} missing")
                rows.append(("FAIL", name, metric, None, None,
                             floor))
                failures += 1
                continue
            status = "ok  " if val >= floor else "FAIL"
            print(f"{status} {name}: {metric} = {val:.3f} "
                  f"(floor {floor})")
            rows.append((status.strip(), name, metric, val, None,
                         floor))
            if val < floor:
                failures += 1
            checked += 1

    print(f"\n{checked} comparisons, {failures} failures")
    return checked, failures


def write_summary(rows, failures, path):
    """Render the comparison rows as a GitHub-flavored markdown table
    (meant for $GITHUB_STEP_SUMMARY)."""

    def num(v):
        if v is None:
            return "-"
        if isinstance(v, float):
            return f"{v:.4g}"
        return str(v)

    def delta(cur, ref):
        if not isinstance(cur, (int, float)) or not ref:
            return "-"
        return f"{(cur / ref - 1) * 100:+.1f}%"

    lines = [
        "### Perf gate: baseline vs current",
        "",
        "| status | bench | quantity | current | baseline | floor "
        "| vs baseline |",
        "|---|---|---|---|---|---|---|",
    ]
    icon = {"ok": "✅", "FAIL": "❌", "skip": "➖"}
    for status, bench, quantity, cur, ref, floor in rows:
        lines.append(
            f"| {icon.get(status, status)} {status} | {bench} "
            f"| {quantity} | {num(cur)} | {num(ref)} | {num(floor)} "
            f"| {delta(cur, ref)} |")
    lines.append("")
    lines.append(f"**{len(rows)} comparisons, {failures} "
                 f"failure(s).**")
    lines.append("")
    with open(path, "a") as f:
        f.write("\n".join(lines) + "\n")
    print(f"summary table appended to {path}")


def selftest():
    """Verify the gate's record-shape tolerance (run by CI).

    1. Records carrying keys the gate does not know must pass
       untouched (the keys are noted, never failures).
    2. A genuine min_ gate violation must still fail in their
       presence.
    3. --rebase must not turn timeline-derived metrics into gates.
    4. --summary renders every comparison row.
    5. A bench that exited nonzero fails the gate.
    """
    timeline_rec = {
        "schema": 1,
        "name": "smoke",
        "metrics": {"foo_speedup": 1.0},
        "timeline": {"samples": 5, "series": 3, "hot": ""},
        "timeline_out": "timeline.csv",
        "host": {
            "exit_code": 0,
            "ticks_per_sec": 100.0,
            "mem_peak_rss_kb": 51200,
            "mem_arena_hwm_blocks": 77,
        },
    }
    assert unknown_keys(timeline_rec) == ["timeline_out"], \
        "report sections and host are known keys"
    assert mem_keys(timeline_rec) == \
        {"mem_arena_hwm_blocks": 77, "mem_peak_rss_kb": 51200}

    baseline = {"smoke": {"bench": "smoke", "ticks_per_sec": 100.0,
                          "min_foo_speedup": 0.8}}
    _, failures = compare({"smoke": timeline_rec}, baseline, 0.75)
    assert failures == 0, "unknown keys must not fail the gate"

    slow = dict(timeline_rec, metrics={"foo_speedup": 0.5})
    _, failures = compare({"smoke": slow}, baseline, 0.75)
    assert failures == 1, "a real metric floor violation must still fail"

    rec = dict(timeline_rec,
               metrics={"foo_speedup": 1.0,
                        "timeline_sample_speedup": 9.0})
    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "baseline.json"
        rebase({"smoke": rec}, out)
        rebased = {b["bench"]: b for b in json.loads(out.read_text())}
    assert "min_foo_speedup" in rebased["smoke"]
    assert "min_timeline_sample_speedup" not in rebased["smoke"], \
        "rebase must not gate timeline-derived metrics"
    assert rebased["smoke"]["ticks_per_sec"] == 100.0, \
        "rebase must read the rate from host"

    # 4. --summary must render every comparison row, pass and fail
    #    alike, as a markdown table.
    rows = []
    _, failures = compare({"smoke": slow}, baseline, 0.75, rows)
    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "summary.md"
        write_summary(rows, failures, out)
        text = out.read_text()
    assert "| status | bench |" in text, "summary lost its header"
    assert "ticks_per_sec" in text and "foo_speedup" in text, \
        "summary must carry one row per comparison"
    assert "1 failure(s)" in text, "summary must report the verdict"

    crashed = dict(timeline_rec,
                   host=dict(timeline_rec["host"], exit_code=3))
    _, failures = compare({"smoke": crashed}, baseline, 0.75)
    assert failures == 1, "a nonzero host.exit_code must fail"

    print("selftest: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--results", default=str(REPO / "BENCH_results.json"))
    ap.add_argument("--baseline", default=str(REPO / "bench" / "baseline.json"))
    ap.add_argument("--tolerance", type=float, default=0.75,
                    help="allowed fractional drop in ticks/sec "
                         "(default 0.75: CI runners are noisy)")
    ap.add_argument("--rebase", action="store_true",
                    help="rewrite the baseline from current results")
    ap.add_argument("--selftest", action="store_true",
                    help="check the gate's own record-shape tolerance")
    ap.add_argument("--summary", metavar="PATH",
                    help="append a markdown baseline-vs-current diff "
                         "table to PATH (use $GITHUB_STEP_SUMMARY "
                         "in CI)")
    args = ap.parse_args()

    if args.selftest:
        return selftest()

    results = latest_by_bench(load(args.results))
    if not results:
        print("error: no bench records in results file", file=sys.stderr)
        return 2

    if args.rebase:
        rebase(results, Path(args.baseline))
        return 0

    baseline = {b["bench"]: b for b in load(args.baseline)}
    rows = []
    _, failures = compare(results, baseline, args.tolerance, rows)
    if args.summary:
        write_summary(rows, failures, args.summary)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
