/**
 * @file
 * Driver of the specrt benchmark (perfbench/README.md).
 *
 * A workload is a fixed list of loop executions ("runs"): one paper
 * loop, one input, one execution mode, one processor count each. The
 * driver runs the list as repeated passes, closed loop, for a given
 * number of host seconds; checks every run's verdict and final shared
 * arrays against the Serial run of the same input; and writes the raw
 * measurements as one JSON document. perfbench/run.py builds this
 * binary, turns the raw document into the benchmark's metrics, and
 * prints them.
 *
 * The driver reaches the library only through its public headers
 * (workloads, core/loop_exec, mem/dsm, sim/campaign, sim/config,
 * sim/stats) and does not link bench/harness.
 *
 * Usage (normally through run.py):
 *   specrt_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    --out RAW.json [--spans SPANS.json] [--tmp DIR]
 *                    [--t0 NS] [--jobs W] [--setup-only] [--no-obs]
 *                    [--inject corrupt-word|flip-verdict]
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/loop_exec.hh"
#include "mem/dsm.hh"
#include "sim/campaign.hh"
#include "sim/config.hh"
#include "sim/stats.hh"
#include "workloads/adm.hh"
#include "workloads/ocean.hh"
#include "workloads/p3m.hh"
#include "workloads/track.hh"

using namespace specrt;

namespace
{

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
toMs(int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Input seed of one loop: benchmark seed 0 is the paper
 * configuration (the loop's own default seed); any other seed
 * derives a new input.
 */
uint64_t
inputSeed(uint64_t paper_seed, uint64_t bench_seed)
{
    return bench_seed == 0 ? paper_seed
                           : mix64(paper_seed ^ mix64(bench_seed));
}

// --- workloads ---------------------------------------------------------

using MakeFn = std::function<std::unique_ptr<Workload>()>;

/** One loop execution of a workload. */
struct Job
{
    std::string loop;
    /** Track instance, Ocean stride, or ladder index. */
    int variant = 0;
    ExecMode mode = ExecMode::Serial;
    MachineConfig cfg;
    ExecConfig xc;
    MakeFn make;
    /** Run through runWithDegradation (fault-injected HW). */
    bool ladder = false;
    bool expectPass = true;
    /** The Serial job whose final shared arrays this one must match. */
    size_t ref = 0;
};

struct WorkloadDef
{
    std::vector<Job> jobs;
    unsigned workers = 1;
    /**
     * Every run is its own campaign with the protocol trace, the
     * timeline, the critical path and the event log on (unless
     * --no-obs).
     */
    bool observed = false;
};

ExecConfig
xcOf(SchedPolicy sched, IterNum block = 4, bool procwise = false)
{
    ExecConfig xc;
    xc.sched = sched;
    xc.blockIters = block;
    xc.swProcWise = procwise;
    return xc;
}

/**
 * Append one input's runs: Serial first (the reference of the
 * others), then each listed mode. With @p fails, the SW and HW runs
 * are expected to fail the speculation test.
 */
void
addLoop(WorkloadDef &d, const std::string &loop, int variant, int procs,
        const MakeFn &make,
        const std::vector<std::pair<ExecMode, ExecConfig>> &modes,
        bool fails = false)
{
    size_t ref = d.jobs.size();
    for (const auto &[mode, xc] : modes) {
        Job j;
        j.loop = loop;
        j.variant = variant;
        j.mode = mode;
        j.cfg.numProcs = procs;
        j.xc = xc;
        j.xc.mode = mode;
        j.make = make;
        j.expectPass = !fails || mode == ExecMode::Serial ||
                       mode == ExecMode::Ideal;
        j.ref = ref;
        d.jobs.push_back(std::move(j));
    }
}

/** P3m's simulated iterations (the paper simulates 15,000). */
constexpr IterNum p3mIters = 15000;

MakeFn
oceanMaker(uint64_t stride, bool inject = false)
{
    return [=]() {
        OceanParams p;
        p.stride = stride;
        p.injectDep = inject;
        return std::make_unique<OceanLoop>(p);
    };
}

MakeFn
p3mMaker(uint64_t seed, uint64_t ws_elems = P3mParams{}.wsElems)
{
    return [=]() {
        P3mParams p;
        p.seed = inputSeed(p.seed, seed);
        p.wsElems = ws_elems;
        return std::make_unique<P3mLoop>(p);
    };
}

MakeFn
admMaker(uint64_t seed)
{
    return [=]() {
        AdmParams p;
        p.seed = inputSeed(p.seed, seed);
        return std::make_unique<AdmLoop>(p);
    };
}

MakeFn
trackMaker(uint64_t seed, int instance)
{
    return [=]() {
        TrackParams p;
        p.instance = instance;
        p.seed = inputSeed(p.seed, seed);
        return std::make_unique<TrackLoop>(p);
    };
}

/** The Figure 11 configurations of the four loops. */
ExecConfig
oceanXc()
{
    return xcOf(SchedPolicy::StaticChunk, 4, true);
}

ExecConfig
p3mXc()
{
    ExecConfig xc = xcOf(SchedPolicy::Dynamic, 4);
    xc.maxIters = p3mIters;
    return xc;
}

ExecConfig
admXc()
{
    return xcOf(SchedPolicy::Dynamic, 2, true);
}

ExecConfig
trackXc()
{
    return xcOf(SchedPolicy::Dynamic, 16, true);
}

std::vector<std::pair<ExecMode, ExecConfig>>
modes(std::initializer_list<ExecMode> ms, const ExecConfig &xc)
{
    std::vector<std::pair<ExecMode, ExecConfig>> out;
    for (ExecMode m : ms)
        out.emplace_back(m, xc);
    return out;
}

constexpr auto S = ExecMode::Serial;
constexpr auto I = ExecMode::Ideal;
constexpr auto SW = ExecMode::SW;
constexpr auto HW = ExecMode::HW;

WorkloadDef
paperLong(uint64_t seed)
{
    WorkloadDef d;
    addLoop(d, "Ocean", 1, 8, oceanMaker(1), modes({S, I, SW, HW}, oceanXc()));
    addLoop(d, "P3m", 0, 16, p3mMaker(seed), modes({S, I, SW, HW}, p3mXc()));
    addLoop(d, "Adm", 0, 16, admMaker(seed), modes({S, I, SW, HW}, admXc()));
    addLoop(d, "Track", 7, 16, trackMaker(seed, 7),
            modes({S, I, SW, HW}, trackXc()));
    // Figure 14's SW-collapse point: P3m with its 8192-element
    // workspaces at 16 processors.
    addLoop(d, "P3m-large", 0, 16, p3mMaker(seed, 8192),
            modes({S, SW, HW}, p3mXc()));
    return d;
}

WorkloadDef
repeatSweep(uint64_t seed)
{
    WorkloadDef d;
    d.workers = 2;
    for (int inst = 0; inst < 56; ++inst)
        addLoop(d, "Track", inst, 16, trackMaker(seed, inst),
                modes({S, SW, HW}, trackXc()));
    for (int stride : {1, 32})
        addLoop(d, "Ocean", stride, 8, oceanMaker(stride),
                modes({S, SW, HW}, oceanXc()));
    return d;
}

WorkloadDef
failObserved(uint64_t seed)
{
    WorkloadDef d;
    d.observed = true;
    // The four Figure 13 forced failures (bench_fig13_failure).
    ExecConfig ocean_hw = xcOf(SchedPolicy::StaticChunk);
    addLoop(d, "Ocean", 1, 8, oceanMaker(1, true),
            {{S, oceanXc()}, {SW, oceanXc()}, {HW, ocean_hw}}, true);

    ExecConfig p3m = p3mXc();
    p3m.downgradePrivToNonPriv = true;
    addLoop(d, "P3m", 0, 16, p3mMaker(seed), modes({S, SW, HW}, p3m),
            true);

    ExecConfig adm_sw = xcOf(SchedPolicy::StaticChunk, 4, true);
    adm_sw.downgradePrivToNonPriv = true;
    ExecConfig adm_hw = xcOf(SchedPolicy::Dynamic, 2);
    adm_hw.downgradePrivToNonPriv = true;
    size_t adm_serial = d.jobs.size();
    addLoop(d, "Adm", 0, 16, admMaker(seed),
            {{S, adm_sw}, {SW, adm_sw}, {HW, adm_hw}}, true);

    addLoop(d, "Track", 3, 16, trackMaker(seed, 3),
            {{S, xcOf(SchedPolicy::StaticChunk)},
             {SW, xcOf(SchedPolicy::StaticChunk)},
             {HW, xcOf(SchedPolicy::BlockCyclic, 1)}},
            true);

    // Adm HW in its paper configuration under 1% drop/dup/jitter with
    // the transaction watchdog on, through the degradation ladder.
    for (int k = 0; k < 8; ++k) {
        Job j;
        j.loop = "Adm-faults";
        j.variant = k;
        j.mode = HW;
        j.cfg.numProcs = 16;
        j.cfg.fault.seed = mix64(seed * 8 + static_cast<uint64_t>(k));
        j.cfg.fault.dropProb = 0.01;
        j.cfg.fault.dupProb = 0.01;
        j.cfg.fault.jitterProb = 0.01;
        j.cfg.fault.watchdogTimeout = 2000;
        j.xc = admXc();
        j.xc.mode = HW;
        j.make = admMaker(seed);
        j.ladder = true;
        j.ref = adm_serial;
        d.jobs.push_back(std::move(j));
    }
    return d;
}

// --- spans -------------------------------------------------------------

/** One timed interval of the traced pass, recorded in memory. */
struct Span
{
    const char *name;
    const char *layer;
    int64_t t0;
    int64_t t1;
    int id;
    int parent;
    /** Job index, or -1 for pass-level spans. */
    int run;
    unsigned tid;
};

/** Small per-thread index (the main thread is 0). */
unsigned
threadIndex()
{
    static std::atomic<unsigned> next{0};
    thread_local unsigned idx = next++;
    return idx;
}

class SpanLog
{
  public:
    bool on = false;

    int newId() { return ++last; }

    void
    add(const char *name, const char *layer, int64_t t0, int64_t t1,
        int id, int parent, int run)
    {
        if (!on)
            return;
        std::lock_guard<std::mutex> g(mu);
        spans.push_back({name, layer, t0, t1, id, parent, run,
                         threadIndex()});
    }

    std::vector<Span> spans;

  private:
    std::atomic<int> last{0};
    std::mutex mu;
};

SpanLog spanLog;

// --- one run -----------------------------------------------------------

using Counters = std::map<std::string, double>;

/** What one run produced. */
struct RunRec
{
    bool done = false;
    /** Passed every output check. */
    bool ok = false;
    bool passed = false;
    bool infra = false;
    Tick ticks = 0;
    Tick serialTicks = 0;
    uint64_t events = 0;
    int64_t start = 0;
    int64_t end = 0;
    int64_t hostNs = 0;
    int64_t captureNs = 0;
    int64_t buildNs = 0;
    /** One hash per compared shared array, in declaration order. */
    std::vector<uint64_t> hashes;
    Counters counters;
};

/** What a pass does besides running its jobs. */
struct PassCfg
{
    /** Record spans, probe machine construction, attribute stalls. */
    bool traced = false;
    /** Observability artifacts on (observed workloads only). */
    bool obs = false;
    /** Index of the job whose captured array gets one word flipped. */
    long corruptJob = -1;
};

/**
 * Hash every shared array the Serial run must agree on: all of them
 * but privatized workspaces without copy-out, whose shared copy a
 * parallel run legitimately leaves untouched.
 */
std::vector<uint64_t>
captureArrays(LoopExecutor &ex, const Workload &w, bool corrupt)
{
    std::vector<uint64_t> out;
    std::vector<ArrayDecl> decls = w.arrays();
    const AddrMap &mem = ex.machine().memory();
    for (size_t d = 0; d < decls.size(); ++d) {
        if (decls[d].test == TestType::Priv && !decls[d].liveOut)
            continue;
        const Region *r = ex.sharedRegion(static_cast<int>(d));
        uint64_t h = mix64(r->numElems());
        for (uint64_t e = 0; e < r->numElems(); ++e) {
            uint64_t v = mem.read(r->elemAddr(e), r->elemBytes);
            if (corrupt && out.empty() && e == 0)
                v ^= 1;
            h = mix64(h ^ v);
        }
        out.push_back(h);
    }
    return out;
}

void
collectCounters(LoopExecutor &ex, const RunResult &r, IterNum iters,
                Counters &c)
{
    StatSnapshot snap;
    ex.machine().snapshot(snap);
    for (const auto &[key, v] : snap) {
        std::string leaf = key.substr(key.rfind('.') + 1);
        if (key.rfind("system.cache", 0) == 0) {
            if (leaf == "l1_hits" || leaf == "misses" ||
                leaf == "store_misses" || leaf == "writebacks" ||
                leaf == "wb_full_stalls")
                c["mem.cache." + leaf] += v;
            else if (leaf == "msgs_retried")
                c["mem.network.retried"] += v;
        } else if (key.rfind("system.dir", 0) == 0) {
            if (leaf == "txns" || leaf == "queued_cycles")
                c["mem.dir." + leaf] += v;
        } else if (key == "system.network.msgs" ||
                   key == "system.network.hops") {
            c["mem.network." + leaf] += v;
        } else if (key == "system.network.msgs_retried") {
            c["mem.network.retried"] += v;
        } else if (key == "system.arena.allocs") {
            c["sim.arena.allocs"] += v;
        } else if (key == "system.arena.high_water") {
            c["sim.arena.high_water"] =
                std::max(c["sim.arena.high_water"], v);
        }
    }
    if (SpecSystem *spec = ex.specSystem()) {
        StatSnapshot ss;
        spec->snapshot(ss);
        for (const auto &[key, v] : ss)
            c["spec." + key.substr(key.rfind('.') + 1)] += v;
    }
    if (r.mode == ExecMode::HW) {
        c["spec.iters_executed"] += static_cast<double>(r.itersExecuted);
        c["spec.iters_committed"] +=
            r.passed && !r.infraFailed ? static_cast<double>(iters) : 0;
    }
    const PhaseTimes &p = r.phases;
    c["runtime.backup_cycles"] += static_cast<double>(p.backup);
    c["runtime.restore_cycles"] += static_cast<double>(p.restore);
    c["runtime.serial_cycles"] += static_cast<double>(p.serial);
    c["runtime.busy_cycles"] += r.agg.busy;
    c["runtime.sync_cycles"] += r.agg.sync;
    c["runtime.mem_cycles"] += r.agg.mem;
    c["lrpd.zero_out_cycles"] += static_cast<double>(p.zeroOut);
    c["lrpd.merge_cycles"] += static_cast<double>(p.merge);
    c["lrpd.analysis_cycles"] += static_cast<double>(p.analysis);
    c["core.loop_cycles"] += static_cast<double>(p.loop);
    c["core.copy_out_cycles"] += static_cast<double>(p.copyOut);
    c["core.reduction_cycles"] += static_cast<double>(p.reduction);
    c["sim.events"] += static_cast<double>(r.eventsFired);
    c["sim.cycles"] += static_cast<double>(r.totalTicks);
    if (r.cost.valid) {
        c["stall.total"] += r.cost.perNodeTicks * r.cost.numProcs;
        c["stall.busy"] += r.cost.busy;
        for (size_t k = 0; k < stall::numCauses; ++k)
            c[std::string("stall.") +
              stall::causeName(static_cast<stall::Cause>(k))] +=
                r.cost.stalls[k];
    }
}

/** First LoopExecutor::run of the process (setup_s ends here). */
std::atomic<int64_t> firstRunNs{0};
bool setupOnly = false;

void
executeJob(const Job &job, size_t idx, Workload &w, const PassCfg &pc,
           int parent, RunRec &rec)
{
    int64_t expected = 0;
    int64_t job0 = nowNs();
    firstRunNs.compare_exchange_strong(expected, job0);
    if (setupOnly)
        return;
    int run = static_cast<int>(idx);
    int jobSpan = spanLog.newId();

    MachineConfig cfg = job.cfg;
    if (pc.traced) {
        cfg.critpath.enabled = true;
        int64_t b0 = nowNs();
        {
            DsmSystem probe(cfg);
        }
        rec.buildNs = nowNs() - b0;
        spanLog.add("mem.build_probe", "mem", b0, b0 + rec.buildNs,
                    spanLog.newId(), jobSpan, run);
    }

    IterNum iters = w.numIters();
    if (job.xc.maxIters > 0 && job.xc.maxIters < iters)
        iters = job.xc.maxIters;
    bool corrupt = pc.corruptJob == static_cast<long>(idx);

    auto finish = [&](LoopExecutor &ex, const RunResult &r) {
        rec.passed = r.passed;
        rec.infra = r.infraFailed;
        rec.ticks = r.totalTicks;
        rec.serialTicks = r.phases.serial;
        rec.events = r.eventsFired;
        int64_t c0 = nowNs();
        rec.hashes = captureArrays(ex, w, corrupt);
        collectCounters(ex, r, iters, rec.counters);
        rec.captureNs = nowNs() - c0;
        spanLog.add("bench.capture", "bench", c0, c0 + rec.captureNs,
                    spanLog.newId(), jobSpan, run);
    };

    rec.start = nowNs();
    if (job.ladder) {
        LadderOutcome out = runWithDegradation(cfg, w, job.xc);
        rec.hostNs = nowNs() - rec.start;
        spanLog.add("core.runWithDegradation", "core", rec.start,
                    rec.start + rec.hostNs, spanLog.newId(), jobSpan, run);
        rec.counters["core.ladder_steps"] +=
            static_cast<double>(out.steps.size());
        finish(*out.exec, out.result);
    } else {
        LoopExecutor ex(cfg, w, job.xc);
        RunResult r = ex.run();
        rec.hostNs = nowNs() - rec.start;
        spanLog.add("core.LoopExecutor::run", "core", rec.start,
                    rec.start + rec.hostNs, spanLog.newId(), jobSpan, run);
        finish(ex, r);
    }
    rec.end = nowNs();
    rec.done = true;
    spanLog.add("campaign.job", "campaign", job0, rec.end, jobSpan, parent,
                run);
}

// --- observability artifacts -------------------------------------------

const char *const obsVars[] = {
    "SPECRT_TRACE",    "SPECRT_TRACE_OUT",     "SPECRT_TRACE_CAPACITY",
    "SPECRT_TIMELINE", "SPECRT_TIMELINE_OUT",  "SPECRT_TIMELINE_INTERVAL",
    "SPECRT_CRITPATH", "SPECRT_CRITPATH_OUT",  "SPECRT_EVENTS",
    "SPECRT_EVENTS_OUT", "SPECRT_JOBS",
};

void
clearObsEnv()
{
    for (const char *v : obsVars)
        unsetenv(v);
}

/**
 * Turn every observability layer on: each campaign job's context
 * applies these when its first run starts and exports its artifacts
 * into @p dir when it dies. The library parses SPECRT_TRACE,
 * SPECRT_TIMELINE and SPECRT_CRITPATH once per process, so they are
 * set before the first run and hold for the whole process; passes
 * with observability off run in a process of their own (--no-obs).
 */
void
setObsEnv(const std::string &dir)
{
    setenv("SPECRT_TRACE", (dir + "/trace.json").c_str(), 1);
    setenv("SPECRT_TIMELINE", (dir + "/timeline.csv").c_str(), 1);
    setenv("SPECRT_CRITPATH", (dir + "/critpath.json").c_str(), 1);
    setenv("SPECRT_EVENTS", (dir + "/events.jsonl").c_str(), 1);
    // Bounded so that one pass writes tens of megabytes, not
    // gigabytes: the P3m runs fire millions of protocol events.
    setenv("SPECRT_TRACE_CAPACITY", "16384", 1);
    setenv("SPECRT_TIMELINE_INTERVAL", "200000", 1);
}

uint64_t
countLines(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    uint64_t n = 0;
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
        n += std::count(buf, buf + in.gcount(), '\n');
        if (!in)
            break;
    }
    return n;
}

/** The trace's own "recorded" count, from the file's tail. */
uint64_t
traceRecords(const std::string &path)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in)
        return 0;
    std::streamoff size = in.tellg();
    std::streamoff from = std::max<std::streamoff>(0, size - 256);
    in.seekg(from);
    std::string tail(static_cast<size_t>(size - from), '\0');
    in.read(tail.data(), static_cast<std::streamsize>(tail.size()));
    size_t at = tail.find("\"recorded\": ");
    return at == std::string::npos
               ? 0
               : std::strtoull(tail.c_str() + at + 12, nullptr, 10);
}

/** Count one run's artifacts into @p c, then delete them. */
void
scanArtifacts(const std::string &dir, Counters &c)
{
    namespace fs = std::filesystem;
    c["obs.trace_records"] += static_cast<double>(
        traceRecords(dir + "/trace.json"));
    uint64_t tl = countLines(dir + "/timeline.csv");
    c["obs.timeline_samples"] += tl > 0 ? static_cast<double>(tl - 1) : 0;
    c["obs.event_log_lines"] +=
        static_cast<double>(countLines(dir + "/events.jsonl"));
    for (const char *f : {"trace.json", "timeline.csv", "critpath.json",
                          "events.jsonl"}) {
        std::error_code ec;
        fs::path p = fs::path(dir) / f;
        if (fs::exists(p, ec)) {
            c["obs.bytes"] += static_cast<double>(fs::file_size(p, ec));
            fs::remove(p, ec);
        }
    }
}

// --- one pass ----------------------------------------------------------

struct PassOut
{
    std::string kind;
    double wallS = 0;
    /** First run's start to last run's end, bench work included. */
    double runsS = 0;
    double makeMs = 0;
    double checkMs = 0;
    double exportMs = 0;
    double jobMsSum = 0;
    unsigned workers = 1;
    std::vector<RunRec> runs;
    Counters counters;
};

struct Options
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    unsigned jobs = 0;
    int64_t t0 = 0;
    std::string out;
    std::string spans;
    std::string tmp = ".";
    std::string inject;
    /** Observed workload with observability off. */
    bool noObs = false;
};

PassOut
runPass(const WorkloadDef &def, const Options &o, const std::string &kind,
        const PassCfg &pc, const std::vector<RunRec> *baseline)
{
    PassOut po;
    po.kind = kind;
    po.workers = def.observed ? 1 : (o.jobs ? o.jobs : def.workers);
    const size_t n = def.jobs.size();
    int passSpan = spanLog.newId();
    int64_t p0 = nowNs();

    std::vector<std::unique_ptr<Workload>> inputs;
    inputs.reserve(n);
    for (const Job &j : def.jobs)
        inputs.push_back(j.make());
    int64_t m1 = nowNs();
    po.makeMs = toMs(m1 - p0);
    spanLog.add("workloads.make", "workloads", p0, m1, spanLog.newId(),
                passSpan, -1);

    po.runs.assign(n, RunRec{});
    std::vector<campaign::JobOutcome> outcomes;
    int64_t scanNs = 0;
    int64_t exportNs = 0;
    if (def.observed) {
        // One campaign per run: the job's context exports the
        // artifacts when it dies, before campaign::run returns.
        for (size_t i = 0; i < n && !(setupOnly && i > 0); ++i) {
            int cspan = spanLog.newId();
            campaign::Options copts;
            copts.jobs = 1;
            copts.baseSeed = o.seed;
            int64_t c0 = nowNs();
            auto one = campaign::run(
                1,
                [&](size_t, SimContext &) {
                    executeJob(def.jobs[i], i, *inputs[i], pc, cspan,
                               po.runs[i]);
                },
                copts);
            int64_t c1 = nowNs();
            one[0].id = i;
            outcomes.push_back(one[0]);
            spanLog.add("campaign.run", "campaign", c0, c1, cspan, passSpan,
                        static_cast<int>(i));
            if (po.runs[i].done) {
                exportNs += c1 - po.runs[i].end;
                spanLog.add("obs.export", "obs", po.runs[i].end, c1,
                            spanLog.newId(), cspan, static_cast<int>(i));
            }
            if (pc.obs && !setupOnly) {
                int64_t s0 = nowNs();
                scanArtifacts(o.tmp, po.runs[i].counters);
                int64_t s1 = nowNs();
                scanNs += s1 - s0;
                spanLog.add("bench.obs_scan", "bench", s0, s1,
                            spanLog.newId(), passSpan, static_cast<int>(i));
            }
        }
    } else {
        int cspan = spanLog.newId();
        campaign::Options copts;
        copts.jobs = po.workers;
        copts.baseSeed = o.seed;
        int64_t c0 = nowNs();
        outcomes = campaign::run(
            n,
            [&](size_t i, SimContext &) {
                executeJob(def.jobs[i], i, *inputs[i], pc, cspan,
                           po.runs[i]);
            },
            copts);
        spanLog.add("campaign.run", "campaign", c0, nowNs(), cspan,
                    passSpan, -1);
    }
    int64_t runsEnd = nowNs();
    if (setupOnly)
        return po;

    // Wall time from the first run's start to the last run's end (or
    // its artifact export), without the bench's own output work.
    int64_t first = runsEnd;
    int64_t capture = 0;
    for (const RunRec &r : po.runs) {
        if (r.done)
            first = std::min(first, r.start);
        capture += r.captureNs;
        po.jobMsSum += toMs(r.end - r.start);
    }
    po.exportMs = toMs(exportNs);
    po.runsS = static_cast<double>(runsEnd - first) / 1e9;
    po.wallS = (static_cast<double>(runsEnd - first - scanNs) -
                static_cast<double>(capture) / po.workers) /
               1e9;

    // Output checks: verdict, final arrays against the Serial run of
    // the same input, and bit-identity with the first pass.
    int64_t k0 = nowNs();
    for (size_t i = 0; i < n; ++i) {
        const Job &j = def.jobs[i];
        RunRec &r = po.runs[i];
        bool expect = j.expectPass;
        if (o.inject == "flip-verdict" && i == n - 1)
            expect = !expect;
        bool ok = outcomes[i].ok && r.done && !r.infra &&
                  r.passed == expect &&
                  r.hashes == po.runs[j.ref].hashes &&
                  !r.hashes.empty();
        if (ok && baseline) {
            const RunRec &b = (*baseline)[i];
            ok = b.ticks == r.ticks && b.events == r.events &&
                 b.passed == r.passed && b.hashes == r.hashes;
        }
        if (!ok)
            std::fprintf(stderr,
                         "check failed: run %zu (%s variant %d %s %dp): "
                         "%s\n",
                         i, j.loop.c_str(), j.variant,
                         execModeName(j.mode), j.cfg.numProcs,
                         outcomes[i].ok ? "wrong output or verdict"
                                        : outcomes[i].error.c_str());
        r.ok = ok;
        for (const auto &[k, v] : r.counters) {
            if (k == "sim.arena.high_water")
                po.counters[k] = std::max(po.counters[k], v);
            else
                po.counters[k] += v;
        }
    }
    int64_t k1 = nowNs();
    po.checkMs = toMs(k1 - k0 + capture + scanNs);
    spanLog.add("bench.check", "bench", k0, k1, spanLog.newId(), passSpan,
                -1);
    spanLog.add("pass", "bench", p0, k1, passSpan, 0, -1);
    return po;
}

// --- output ------------------------------------------------------------

void
writeRaw(const Options &o, const WorkloadDef &def,
         const std::vector<PassOut> &passes)
{
    FILE *f = std::fopen(o.out.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
        std::exit(2);
    }
    int64_t first = firstRunNs.load();
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                    ", \"compiler\": \"%s\", \"compiler_version\": \"%s\", "
                    "\"build_type\": \"%s\", \"setup_s\": %.9f",
                 o.workload.c_str(), o.seed, PERFBENCH_COMPILER, __VERSION__,
                 PERFBENCH_BUILD_TYPE,
                 o.t0 && first ? static_cast<double>(first - o.t0) / 1e9
                               : -1.0);
    if (setupOnly) {
        std::fprintf(f, "}\n");
        std::fclose(f);
        return;
    }
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    std::fprintf(f, ", \"peak_rss_kb\": %ld, \"passes\": [", ru.ru_maxrss);
    for (size_t p = 0; p < passes.size(); ++p) {
        const PassOut &po = passes[p];
        std::fprintf(f,
                     "%s\n{\"kind\": \"%s\", \"workers\": %u, "
                     "\"wall_s\": %.9f, \"runs_s\": %.9f, "
                     "\"make_ms\": %.6f, \"check_ms\": %.6f, "
                     "\"export_ms\": %.6f, \"job_ms_sum\": %.6f, "
                     "\"counters\": {",
                     p ? "," : "", po.kind.c_str(), po.workers, po.wallS,
                     po.runsS, po.makeMs, po.checkMs, po.exportMs,
                     po.jobMsSum);
        bool firstKey = true;
        for (const auto &[k, v] : po.counters) {
            std::fprintf(f, "%s\"%s\": %.17g", firstKey ? "" : ", ",
                         k.c_str(), v);
            firstKey = false;
        }
        std::fprintf(f, "}, \"runs\": [");
        for (size_t i = 0; i < po.runs.size(); ++i) {
            const Job &j = def.jobs[i];
            const RunRec &r = po.runs[i];
            std::string hash;
            for (uint64_t h : r.hashes) {
                char b[20];
                std::snprintf(b, sizeof(b), "%016" PRIx64, h);
                hash += b;
            }
            std::fprintf(
                f,
                "%s\n {\"loop\": \"%s\", \"variant\": %d, \"mode\": \"%s\", "
                "\"procs\": %d, \"ok\": %s, \"passed\": %s, "
                "\"expect\": %s, \"ticks\": %" PRIu64
                ", \"serial_ticks\": %" PRIu64 ", \"events\": %" PRIu64
                ", \"host_ms\": %.6f, \"build_ms\": %.6f, "
                "\"hash\": \"%s\"}",
                i ? "," : "", j.loop.c_str(), j.variant,
                execModeName(j.mode), j.cfg.numProcs,
                r.ok ? "true" : "false", r.passed ? "true" : "false",
                j.expectPass ? "true" : "false",
                static_cast<uint64_t>(r.ticks),
                static_cast<uint64_t>(r.serialTicks), r.events,
                toMs(r.hostNs), toMs(r.buildNs), hash.c_str());
        }
        std::fprintf(f, "]}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
}

/** The traced pass's spans as Chrome trace-event JSON. */
void
writeSpans(const Options &o, const WorkloadDef &def)
{
    FILE *f = std::fopen(o.spans.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", o.spans.c_str());
        std::exit(2);
    }
    int64_t base = spanLog.spans.empty() ? 0 : spanLog.spans[0].t0;
    for (const Span &s : spanLog.spans)
        base = std::min(base, s.t0);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (size_t i = 0; i < spanLog.spans.size(); ++i) {
        const Span &s = spanLog.spans[i];
        std::fprintf(f,
                     "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                     "\"pid\": 1, \"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %d, \"parent\": %d, "
                     "\"t0_ns\": %" PRId64 ", \"t1_ns\": %" PRId64
                     ", \"run\": %d, \"seed\": %" PRIu64,
                     i ? "," : "", s.name, s.layer, s.tid,
                     static_cast<double>(s.t0 - base) / 1e3,
                     static_cast<double>(s.t1 - s.t0) / 1e3, s.id,
                     s.parent, s.t0 - base, s.t1 - base, s.run, o.seed);
        if (s.run >= 0) {
            const Job &j = def.jobs[static_cast<size_t>(s.run)];
            std::fprintf(f,
                         ", \"loop\": \"%s\", \"variant\": %d, "
                         "\"mode\": \"%s\", \"procs\": %d",
                         j.loop.c_str(), j.variant, execModeName(j.mode),
                         j.cfg.numProcs);
        }
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "specrt_perfbench: %s\n"
                 "usage: specrt_perfbench --workload "
                 "paper-long|repeat-sweep|fail-observed --seed N "
                 "--seconds S --trace 0|1 --out RAW.json [--spans F] "
                 "[--tmp DIR] [--t0 NS] [--jobs W] [--setup-only] "
                 "[--no-obs] "
                 "[--inject corrupt-word|flip-verdict]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = val();
        else if (a == "--seed")
            o.seed = std::strtoull(val().c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::strtod(val().c_str(), nullptr);
        else if (a == "--trace")
            o.trace = val() != "0";
        else if (a == "--jobs")
            o.jobs = static_cast<unsigned>(std::stoul(val()));
        else if (a == "--t0")
            o.t0 = std::strtoll(val().c_str(), nullptr, 10);
        else if (a == "--out")
            o.out = val();
        else if (a == "--spans")
            o.spans = val();
        else if (a == "--tmp")
            o.tmp = val();
        else if (a == "--inject")
            o.inject = val();
        else if (a == "--setup-only")
            setupOnly = true;
        else if (a == "--no-obs")
            o.noObs = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (o.out.empty())
        usage("--out is required");
    if (!o.inject.empty() && o.inject != "corrupt-word" &&
        o.inject != "flip-verdict")
        usage("unknown --inject");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    threadIndex();
    // LoopExecutor::run() honours these; a stray shell variable must
    // not turn observability on behind the benchmark's back.
    clearObsEnv();
    Options o = parseArgs(argc, argv);

    WorkloadDef def;
    if (o.workload == "paper-long")
        def = paperLong(o.seed);
    else if (o.workload == "repeat-sweep")
        def = repeatSweep(o.seed);
    else if (o.workload == "fail-observed")
        def = failObserved(o.seed);
    else
        usage("unknown workload");

    PassCfg plain;
    plain.obs = def.observed && !o.noObs;
    if (plain.obs)
        setObsEnv(o.tmp);
    if (o.inject == "corrupt-word")
        plain.corruptJob = 1; // the first run after a Serial reference
    PassCfg traced = plain;
    traced.traced = true;
    const std::string plainKind =
        def.observed && !plain.obs ? "obs_off" : "plain";

    std::vector<PassOut> passes;
    if (setupOnly) {
        runPass(def, o, plainKind, plain, nullptr);
        writeRaw(o, def, passes);
        return 0;
    }

    // Closed loop: cycles of passes back to back for as long as one
    // more cycle still fits in the budget (at least one cycle). The
    // traced run alternates untraced and traced passes so that the
    // tracing overhead is measured within one process; spans are
    // kept from the first traced pass only.
    std::vector<std::pair<std::string, PassCfg>> cycle = {
        {plainKind, plain}};
    if (o.trace)
        cycle.emplace_back("traced", traced);
    int64_t begin = nowNs();
    for (int done = 1;; ++done) {
        for (const auto &[kind, pc] : cycle) {
            spanLog.on = pc.traced && done == 1;
            passes.push_back(runPass(def, o, kind, pc,
                                     passes.empty() ? nullptr
                                                    : &passes[0].runs));
            spanLog.on = false;
        }
        double elapsed = static_cast<double>(nowNs() - begin) / 1e9;
        if (elapsed * (done + 1) / done > o.seconds)
            break;
    }

    writeRaw(o, def, passes);
    if (o.trace && !o.spans.empty())
        writeSpans(o, def);
    return 0;
}
