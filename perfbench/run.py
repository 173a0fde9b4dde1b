#!/usr/bin/env python3
"""Run one workload of the specrt benchmark and print its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/driver.cc (with the specrt libraries from src/) in
Release under .bench_build/perfbench, runs the driver in its own
process, checks that every run's output was right, and prints, as the
last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones, and the traced pass's spans
are written as Chrome trace-event JSON next to the result file.
perfbench/README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RESULTS = BUILD / "results"
DRIVER = BUILD / "specrt_perfbench"
TMP = BUILD / "tmp"

WORKLOADS = ("paper-long", "repeat-sweep", "fail-observed")
MODES = ("Serial", "Ideal", "SW", "HW")
STALL_CAUSES = ("busy", "load_miss", "dir_queue", "net_transit",
                "retry_backoff", "barrier", "sched_wait", "commit_serial",
                "abort_redo", "other")
LAYERS = ("core", "mem", "campaign", "workloads", "obs", "bench")
# Setup is measured in this many extra processes besides the measured
# one, and the median is reported.
SETUP_PROBES = 5
# Wall-clock cap on one driver process beyond its measuring budget.
DRIVER_SLACK_S = 120


def clean_env():
    """The environment without SPECRT_* knobs (LoopExecutor::run()
    honours them, and a stray one would turn observability on), with
    temporary files kept inside the build directory."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SPECRT_")}
    env["TMPDIR"] = str(TMP)
    return env


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    TMP.mkdir(parents=True, exist_ok=True)
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"], env=clean_env(),
                   check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs,
                    "--target", "specrt_perfbench"], env=clean_env(),
                   check=True, stdout=sys.stderr, timeout=840)


def run_driver(args, extra, seconds, name="raw", trace=None):
    """Run the driver once; returns its raw JSON document."""
    out = RESULTS / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     f".{name}.json")
    cmd = [str(DRIVER), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(seconds), "--trace",
           str(args.trace if trace is None else trace), "--out",
           str(out)] + extra
    t0 = time.monotonic_ns()
    subprocess.run(cmd + ["--t0", str(t0)], check=True, env=clean_env(),
                   stdout=sys.stderr, timeout=seconds + DRIVER_SLACK_S,
                   cwd=str(ROOT))
    with open(out) as f:
        raw = json.load(f)
    return raw


def median(xs):
    return statistics.median(xs) if xs else 0.0


def geomean(xs):
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def groups(runs):
    """Runs keyed by (loop, variant), each a {mode: run} dict."""
    out = {}
    for r in runs:
        out.setdefault((r["loop"], r["variant"]), {})[r["mode"]] = r
    return out


def rel_cycles(runs, mode):
    """Geometric mean over loop inputs of mode cycles / Serial cycles."""
    return geomean([g[mode]["ticks"] / g["Serial"]["ticks"]
                    for g in groups(runs).values()
                    if mode in g and "Serial" in g])


def paper_err_pct(workload, runs, ref):
    """Mean |simulated / paper - 1| x 100 against the reference data."""
    fig11 = ref["fig11_speedup"]
    errs = []
    if workload == "fail-observed":
        # Figure 13's paper accounting: failure overhead + Serial time.
        acct = {"SW": [], "HW": []}
        for (loop, _), g in groups(runs).items():
            if loop not in fig11 or "Serial" not in g:
                continue
            st = g["Serial"]["ticks"]
            for m in acct:
                acct[m].append(100 * (g[m]["ticks"] - g[m]["serial_ticks"])
                               / st + 100)
        want = ref["fig13_paper_accounting_mean"]
        errs = [abs(statistics.mean(acct[m]) / want[m] - 1) for m in acct]
    else:
        # Figure 11: each loop's speedup over all of its executions.
        tot = {}
        for (loop, _), g in groups(runs).items():
            if loop not in fig11:
                continue
            for m, r in g.items():
                tot.setdefault(loop, {}).setdefault(m, 0)
                tot[loop][m] += r["ticks"]
        for loop, t in tot.items():
            for m in ("Ideal", "SW", "HW"):
                if m in t:
                    errs.append(abs(t["Serial"] / t[m] / fig11[loop][m] - 1))
    return 100 * statistics.mean(errs)


def self_times(spans_path):
    """Per-layer self time of the traced pass, from the span file.

    At each instant the wall time goes to the innermost open spans
    (those with no open child, on any thread), split evenly when
    several workers run at once; time covered by the pass span alone
    is the remainder. The shares therefore sum to the pass's wall.
    """
    with open(spans_path) as f:
        spans = [e["args"] | {"layer": e["cat"], "name": e["name"]}
                 for e in json.load(f)["traceEvents"]]
    by_id = {s["id"]: s for s in spans}
    root = next(s for s in spans if s["name"] == "pass")
    edges = sorted([(s["t0_ns"], 1, s["id"]) for s in spans] +
                   [(s["t1_ns"], 0, s["id"]) for s in spans])
    open_kids = {s["id"]: 0 for s in spans}
    active = set()
    acc = {layer: 0.0 for layer in LAYERS}
    acc["remainder"] = 0.0
    last = edges[0][0]
    for t, is_start, sid in edges:
        if t > last and active:
            leaves = [i for i in active if open_kids[i] == 0]
            for i in leaves:
                key = "remainder" if i == root["id"] else by_id[i]["layer"]
                acc[key] += (t - last) / len(leaves)
        last = t
        parent = by_id[sid]["parent"]
        if is_start:
            active.add(sid)
            if parent in open_kids:
                open_kids[parent] += 1
        else:
            active.discard(sid)
            if parent in open_kids:
                open_kids[parent] -= 1
    wall = root["t1_ns"] - root["t0_ns"]
    assert abs(sum(acc.values()) - wall) <= 1e-6 * wall + 1, \
        "self times do not add up to the traced wall"
    return wall, acc


def end_to_end(args, raw, setups, ok_frac, ref):
    plain = [p for p in raw["passes"] if p["kind"] == "plain"]
    runs = plain[0]["runs"]
    return {
        "wall_s": (median([p["wall_s"] for p in plain]), "s"),
        "setup_s": (median(setups), "s"),
        "sim_mcycles_per_s": (median([p["counters"]["sim.cycles"] / 1e6 /
                                      p["wall_s"] for p in plain]),
                              "Mcycles/s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
        "ok_frac": (ok_frac, "frac"),
        "hw_rel_cycles": (rel_cycles(runs, "HW"), "ratio"),
        "sw_rel_cycles": (rel_cycles(runs, "SW"), "ratio"),
        "paper_err_pct": (paper_err_pct(args.workload, runs, ref), "%"),
    }


def per_layer(raw, failed_frac, spans_path):
    passes = raw["passes"]
    plain = [p for p in passes if p["kind"] == "plain"]
    traced = next(p for p in passes if p["kind"] == "traced")
    obs_off = [p for p in passes if p["kind"] == "obs_off"]
    c = plain[0]["counters"]
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    for k in ("sim.events", "sim.cycles", "sim.arena.allocs",
              "sim.arena.high_water"):
        put(k, c.get(k, 0), "count")
    for mode in MODES:
        per_pass = []
        for p in plain:
            rs = [r for r in p["runs"] if r["mode"] == mode]
            ev = sum(r["events"] for r in rs)
            if ev:
                per_pass.append(1e6 * sum(r["host_ms"] for r in rs) / ev)
        put(f"sim.ns_per_event.{mode.lower()}", median(per_pass), "ns")

    put("mem.build_ms", statistics.mean(r["build_ms"]
                                        for r in traced["runs"]), "ms")
    for k in ("mem.network.msgs", "mem.network.hops",
              "mem.network.retried", "mem.dir.txns",
              "mem.dir.queued_cycles", "mem.cache.l1_hits",
              "mem.cache.misses", "mem.cache.store_misses",
              "mem.cache.writebacks", "mem.cache.wb_full_stalls"):
        put(k, c.get(k, 0), "cycles" if k.endswith("cycles") else "count")

    for k in ("first_updates", "ronly_updates", "read_first_sigs",
              "first_write_sigs", "read_ins", "copy_outs", "failures"):
        put(f"spec.{k}", c.get(f"spec.{k}", 0), "count")
    executed = c.get("spec.iters_executed", 0)
    put("spec.useful_iter_frac",
        c.get("spec.iters_committed", 0) / executed if executed else 0,
        "frac")

    for k in ("runtime.backup_cycles", "runtime.restore_cycles",
              "runtime.serial_cycles", "runtime.busy_cycles",
              "runtime.sync_cycles", "runtime.mem_cycles",
              "lrpd.zero_out_cycles", "lrpd.merge_cycles",
              "lrpd.analysis_cycles", "core.loop_cycles",
              "core.copy_out_cycles", "core.reduction_cycles"):
        put(k, c.get(k, 0), "cycles")

    for mode in MODES:
        put(f"core.run_ms.{mode.lower()}",
            median([statistics.mean(r["host_ms"] for r in p["runs"]
                                    if r["mode"] == mode)
                    for p in plain
                    if any(r["mode"] == mode for r in p["runs"])]), "ms")
    put("core.run_ms.max",
        median([max(r["host_ms"] for r in p["runs"]) for p in plain]), "ms")
    put("core.ladder_steps", c.get("core.ladder_steps", 0), "count")

    put("workloads.make_ms", median([p["make_ms"] for p in plain]), "ms")
    put("campaign.busy_frac",
        median([p["job_ms_sum"] / (1e3 * p["runs_s"] * p["workers"])
                for p in plain]), "frac")
    put("campaign.job_ms_sum", median([p["job_ms_sum"] for p in plain]),
        "ms")

    tc = traced["counters"]
    for cause in STALL_CAUSES:
        put(f"stall.{cause}", tc[f"stall.{cause}"] / tc["stall.total"],
            "frac")

    for k in ("obs.trace_records", "obs.timeline_samples",
              "obs.event_log_lines", "obs.bytes"):
        put(k, c.get(k, 0), "bytes" if k == "obs.bytes" else "count")
    put("obs.export_ms", median([p["export_ms"] for p in plain]), "ms")
    plain_wall = median([p["wall_s"] for p in plain])
    put("obs.overhead_frac",
        plain_wall / median([p["wall_s"] for p in obs_off]) - 1
        if obs_off else 0, "frac")

    put("bench.check_ms", median([p["check_ms"] for p in plain]), "ms")
    traced_walls = [p["wall_s"] for p in passes if p["kind"] == "traced"]
    put("bench.trace_overhead_frac", median(traced_walls) / plain_wall - 1,
        "frac")
    put("bench.failed_frac", failed_frac, "frac")

    wall, acc = self_times(spans_path)
    put("bench.traced_wall_ms", wall / 1e6, "ms")
    for layer, ns in acc.items():
        put(f"self_ms.{layer}", ns / 1e6, "ms")
    table = [f"# per-layer self time of the traced pass "
             f"(wall {wall / 1e6:.1f} ms, spans in {spans_path.name})",
             f"#   {'layer':<10} {'self_ms':>10} {'share':>7}"]
    for layer, ns in sorted(acc.items(), key=lambda kv: -kv[1]):
        table.append(f"#   {layer:<10} {ns / 1e6:10.1f} "
                     f"{100 * ns / wall:6.1f}%")
    table.append(f"#   {'total':<10} {sum(acc.values()) / 1e6:10.1f} "
                 f"{100 * sum(acc.values()) / wall:6.1f}%")
    return m, table


def source_digest():
    """Hash of the simulator and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for d in (ROOT / "src", HERE):
        for p in sorted(d.rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def stamp(args, raw, workers):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        sha = r.stdout.strip() or None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "compiler": raw["compiler"],
            "compiler_version": raw["compiler_version"],
            "build_type": raw["build_type"], "git_sha": sha,
            "source_digest": source_digest(), "workload": args.workload,
            "seed": args.seed, "workers": workers,
            "seconds": args.seconds, "trace": args.trace}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=0,
                    help="override the workload's campaign workers")
    ap.add_argument("--inject", choices=("corrupt-word", "flip-verdict"),
                    help="plant a wrong output (self-tests only)")
    args = ap.parse_args()

    build()
    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir(exist_ok=True)
    extra = ["--tmp", str(tmp)]
    if args.jobs:
        extra += ["--jobs", str(args.jobs)]
    if args.inject:
        extra += ["--inject", args.inject]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = RESULTS / f"{tag}.spans.json"
    try:
        setups = [run_driver(args, extra + ["--setup-only"], 0,
                             "setup")["setup_s"]
                  for _ in range(SETUP_PROBES)]
        seconds = args.seconds
        obs_off = []
        if args.trace and args.workload == "fail-observed":
            # The library reads the observability switches once per
            # process, so the obs-off passes need a process of their own.
            seconds = args.seconds * 2 / 3
            obs_off = run_driver(args, extra + ["--no-obs"],
                                 args.seconds - seconds, "obs-off",
                                 trace=0)["passes"]
        raw = run_driver(args, extra + ["--spans", str(spans_path)],
                         seconds)
        raw["passes"] += obs_off
    finally:
        for p in tmp.iterdir():
            p.unlink()
        tmp.rmdir()
    setups.append(raw["setup_s"])

    attempted = sum(len(p["runs"]) for p in raw["passes"])
    failed = sum(not r["ok"] for p in raw["passes"] for r in p["runs"])
    with open(HERE / "reference.json") as f:
        ref = json.load(f)
    table = []
    if args.trace:
        metrics, table = per_layer(raw, failed / attempted, spans_path)
    else:
        metrics = end_to_end(args, raw, setups,
                             (attempted - failed) / attempted, ref)

    workers = raw["passes"][0]["workers"]
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    st = stamp(args, raw, workers)
    # Everything the simulator decided in the first pass, for
    # comparisons across processes (worker counts, commits).
    digest = hashlib.sha256(json.dumps(
        [[r[k] for k in ("loop", "variant", "mode", "procs", "passed",
                         "ticks", "events", "hash")]
         for r in raw["passes"][0]["runs"]]).encode()).hexdigest()
    with open(RESULTS / f"{tag}.json", "w") as f:
        json.dump({"stamp": st,
                   "passes": [{"kind": p["kind"], "wall_s": p["wall_s"]}
                              for p in raw["passes"]],
                   "setup_samples_s": setups, "run_digest": digest,
                   **result}, f, indent=1)
    print("# stamp: " + json.dumps(st))
    for line in table:
        print(line)
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        sys.exit(1)
