#include "telemetry.hh"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <utility>

#include "core/loop_exec.hh"
#include "obs/event_log.hh"
#include "obs/report.hh"
#include "sim/arena.hh"
#include "sim/config.hh"
#include "sim/critpath.hh"
#include "sim/profile.hh"
#include "sim/sim_context.hh"
#include "sim/timeline.hh"

#ifndef SPECRT_GIT_SHA
#define SPECRT_GIT_SHA "unknown"
#endif

namespace specrt::bench
{

namespace
{

bool quickMode = false;

/** Resolved --jobs value (0 until benchMain parses flags). */
unsigned jobsCount = 1;

/** Resolved --status-out path; runJobs streams progress there. */
std::string statusPath;

/**
 * The path-valued flags, each "--flag <path>" or "--flag=<path>". The
 * first obs::numArtifacts are indexed by obs::Consumer.
 */
struct PathFlag
{
    const char *flag;
    const char *help;
};

const PathFlag pathFlags[] = {
    {"--trace-out", "record the protocol trace and write Chrome/Perfetto "
                    "JSON to <path>"},
    {"--timeline-out", "sample the metric timeline and write its CSV to "
                       "<path> (with --trace-out, counter tracks land in "
                       "the trace JSON too)"},
    {"--critpath-out", "profile stall attribution and write the "
                       "critical-path Perfetto JSON to <path>"},
    {"--events-out", "record the structured event log and write the "
                     "merged JSONL to <path>"},
    {"--report-out", "write the unified run report JSON to <path> "
                     "(implies the event log)"},
    {"--status-out", "stream live campaign progress snapshots to <path> "
                     "(scripts/specrt_top.py tails it)"},
};

constexpr size_t numPathFlags = std::size(pathFlags);

enum : size_t
{
    critpathFlag = static_cast<size_t>(obs::Consumer::Critpath),
    reportFlag = obs::numArtifacts,
    statusFlag,
};

/**
 * The value of @p flag at argv[@p i] ("--flag=<v>", or "--flag <v>",
 * which advances @p i), or null when argv[@p i] is another argument.
 */
const char *
flagValue(const char *flag, int &i, int argc, char **argv)
{
    size_t len = std::strlen(flag);
    const char *arg = argv[i];
    if (std::strncmp(arg, flag, len) != 0)
        return nullptr;
    if (arg[len] == '=')
        return arg + len + 1;
    if (arg[len] == '\0' && i + 1 < argc)
        return argv[++i];
    return nullptr;
}

/** Peak resident set size of this process, in KiB (0 if unknown). */
uint64_t
peakRssKb()
{
    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<uint64_t>(ru.ru_maxrss);
}

/** This thread's shard inside a ScopedTelemetry scope. */
thread_local Telemetry *tlsTelemetry = nullptr;

Telemetry &
processTelemetry()
{
    static Telemetry t;
    return t;
}

/** Sum @p c into @p sum when @p c is valid (procs: the max). */
void
addCost(stall::CostBreakdown &sum, const stall::CostBreakdown &c)
{
    if (!c.valid)
        return;
    sum.valid = true;
    sum.numProcs = std::max(sum.numProcs, c.numProcs);
    sum.perNodeTicks += c.perNodeTicks;
    sum.busy += c.busy;
    for (size_t i = 0; i < stall::numCauses; ++i)
        sum.stalls[i] += c.stalls[i];
}

/**
 * Append @p record (newline-terminated) to the JSON array in @p path,
 * creating the file (as a one-element array) when missing or
 * unparsable.
 */
bool
appendRecord(const std::string &path, const std::string &record)
{
    std::string existing;
    {
        std::ifstream is(path);
        if (is) {
            std::ostringstream buf;
            buf << is.rdbuf();
            existing = buf.str();
        }
    }

    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;

    size_t end = existing.find_last_of(']');
    if (end == std::string::npos ||
        existing.find('[') == std::string::npos) {
        os << "[\n" << record << "]\n";
        return static_cast<bool>(os);
    }
    std::string head = existing.substr(0, end);
    while (!head.empty() &&
           (head.back() == '\n' || head.back() == ' ' ||
            head.back() == '\t' || head.back() == '\r'))
        head.pop_back();
    bool emptyArray = !head.empty() && head.back() == '[';
    os << head << (emptyArray ? "\n" : ",\n") << record << "]\n";
    return static_cast<bool>(os);
}

} // namespace

bool
quick()
{
    return quickMode;
}

Telemetry &
telemetry()
{
    return tlsTelemetry ? *tlsTelemetry : processTelemetry();
}

ScopedTelemetry::ScopedTelemetry(Telemetry &shard) : prev(tlsTelemetry)
{
    tlsTelemetry = &shard;
}

ScopedTelemetry::~ScopedTelemetry()
{
    tlsTelemetry = prev;
}

unsigned
jobs()
{
    return jobsCount ? jobsCount : campaign::defaultJobs();
}

void
setJobs(unsigned n)
{
    jobsCount = n;
}

std::vector<campaign::JobOutcome>
runJobs(size_t n, const campaign::JobFn &fn, uint64_t base_seed)
{
    std::vector<Telemetry> shards(n);
    // Every observability consumer on in the process context (bench
    // flags) is switched on, with the same geometry, in each job's
    // context; the job's recorders are captured when it ends and
    // merged below in job-id order, so no merged artifact depends on
    // --jobs.
    obs::Recorders &proc = SimContext::current().recorders();
    std::vector<obs::Recorders> obsShards(n);

    // Live figures for the --status-out snapshot (publisher thread).
    std::mutex liveMtx;
    uint64_t liveTicks = 0;
    std::string liveHot;

    campaign::Options opts;
    opts.jobs = jobs();
    opts.baseSeed = base_seed;
    if (!statusPath.empty()) {
        opts.progressPath = statusPath;
        opts.progressLive = [&] {
            std::lock_guard<std::mutex> lock(liveMtx);
            return campaign::ProgressLive{liveTicks, liveHot};
        };
    }
    std::vector<campaign::JobOutcome> outcomes = campaign::run(
        n,
        [&](size_t id, SimContext &ctx) {
            ScopedTelemetry scoped(shards[id]);
            ctx.recorders().enableLike(proc);
            // Capture even when fn throws: a failed job's record is
            // the forensic one.
            struct Capture
            {
                obs::Recorders &from, &to;
                ~Capture()
                {
                    to = std::exchange(from, obs::Recorders{});
                    obs::refresh();
                }
            } capture{ctx.recorders(), obsShards[id]};
            obs::jobBegin(id, ctx.baseSeed);
            fn(id, ctx);
            std::lock_guard<std::mutex> lock(liveMtx);
            liveTicks += shards[id].simTicks;
            if (timeline::enabled())
                liveHot = timeline::current().hotSummary(1);
        },
        opts);
    Telemetry &t = processTelemetry();
    for (size_t id = 0; id < n; ++id) { // job-id order: deterministic
        t.merge(shards[id]);
        proc.merge(obsShards[id]);
        obs::jobEnd(outcomes[id].id, outcomes[id].ok,
                    outcomes[id].error);
    }
    return outcomes;
}

void
Telemetry::recordRun(const RunResult &r)
{
    simTicks += r.totalTicks;
    eventsFired += r.eventsFired;
    ++runs;
    if (r.infraFailed)
        ++infraFailedRuns;
    addCost(cost, r.cost);
}

void
Telemetry::metric(const std::string &key, double value)
{
    for (auto &kv : metrics) {
        if (kv.first == key) {
            kv.second = value;
            return;
        }
    }
    metrics.emplace_back(key, value);
}

void
Telemetry::snapshotStats(const StatGroup &g)
{
    stats.clear();
    g.snapshot(stats);
}

void
Telemetry::merge(const Telemetry &shard)
{
    simTicks += shard.simTicks;
    eventsFired += shard.eventsFired;
    runs += shard.runs;
    infraFailedRuns += shard.infraFailedRuns;
    for (const auto &kv : shard.metrics)
        metric(kv.first, kv.second);
    if (!shard.stats.empty())
        stats = shard.stats;
    addCost(cost, shard.cost);
}

int
benchMain(int argc, char **argv, const char *name, int (*body)())
{
    const char *envOut = std::getenv("SPECRT_BENCH_OUT");
    std::string outPath = envOut ? envOut : "BENCH_results.json";
    std::string paths[numPathFlags];
    bool writeJson = true;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        size_t flag = 0;
        const char *val = nullptr;
        for (; flag < numPathFlags && !val; ++flag)
            val = flagValue(pathFlags[flag].flag, i, argc, argv);
        if (val) {
            paths[flag - 1] = val;
        } else if (arg == "--quick") {
            quickMode = true;
        } else if (arg == "--no-json") {
            writeJson = false;
        } else if (arg == "--out" && i + 1 < argc) {
            outPath = argv[++i];
        } else if ((val = flagValue("--jobs", i, argc, argv))) {
            char *end = nullptr;
            long v = std::strtol(val, &end, 10);
            if (!end || *end != '\0' || v < 0) {
                std::fprintf(stderr, "%s: bad --jobs value '%s'\n",
                             argv[0], val);
                return 2;
            }
            jobsCount = static_cast<unsigned>(v);
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--quick] [--no-json] [--out <path>]",
                        argv[0]);
            for (const PathFlag &f : pathFlags)
                std::printf(" [%s <path>]", f.flag);
            std::printf(" [--jobs <n>]\n");
            for (const PathFlag &f : pathFlags)
                std::printf("  %s  %s\n", f.flag, f.help);
            std::printf("  --jobs  campaign worker threads (0 = all "
                        "host cores; default 1)\n");
            return 0;
        } else {
            std::fprintf(stderr, "%s: unknown argument '%s'\n",
                         argv[0], arg.c_str());
            return 2;
        }
    }
    statusPath = paths[statusFlag];
    const std::string &reportPath = paths[reportFlag];

    obs::Recorders &obsRec = SimContext::current().recorders();
    for (size_t c = 0; c < obs::numArtifacts; ++c)
        if (!paths[c].empty())
            obsRec.enable(static_cast<obs::Consumer>(c));
    if (!reportPath.empty())
        obsRec.enable(obs::Consumer::Events);

    auto t0 = std::chrono::steady_clock::now();
    int rc = body();
    auto t1 = std::chrono::steady_clock::now();

    std::array<obs::Written, obs::numArtifacts> written{};
    for (size_t c = 0; c < obs::numArtifacts; ++c) {
        if (paths[c].empty())
            continue;
        written[c] =
            obsRec.write(static_cast<obs::Consumer>(c), paths[c], stdout);
        if (!written[c])
            rc = rc ? rc : 1;
    }
    const critpath::Recorder &cp = obsRec.critpath;
    if (!paths[critpathFlag].empty() && !cp.summaryLine().empty())
        std::printf("[critpath] %s\n", cp.summaryLine().c_str());

    double wallMs =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    double wallS = wallMs / 1e3;

    Telemetry &t = telemetry();
    double tps = wallS > 0 ? static_cast<double>(t.simTicks) / wallS
                           : 0.0;
    double eps = wallS > 0
                     ? static_cast<double>(t.eventsFired) / wallS
                     : 0.0;

    // The fingerprint of the machine the bench actually ran, when a
    // LoopExecutor published one (benches with custom configs), else
    // that of the default machine.
    std::string fp = SimContext::current().configFingerprint;
    if (fp.empty()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016" PRIx64,
                      MachineConfig{}.fingerprint());
        fp = buf;
    }

    obs::ReportInputs ri;
    ri.name = name;
    ri.gitSha = SPECRT_GIT_SHA;
    ri.configFingerprint = fp;
    ri.baseSeed = SimContext::current().baseSeed;
    ri.simTicks = t.simTicks;
    ri.eventsFired = t.eventsFired;
    ri.runs = t.runs;
    ri.infraFailedRuns = t.infraFailedRuns;
    ri.metrics = t.metrics;
    ri.stats = t.stats;
    ri.cost = t.cost;
    ri.critpath = &cp;
    ri.timeline = &obsRec.timeline;
    ri.events = &obsRec.events;

    if (!reportPath.empty()) {
        if (obs::writeReport(ri, reportPath)) {
            std::printf("[report] wrote unified run report to %s\n",
                        reportPath.c_str());
        } else {
            std::fprintf(stderr,
                         "%s: failed to write report to %s\n",
                         name, reportPath.c_str());
            if (rc == 0)
                rc = 1;
        }
    }

    if (!writeJson)
        return rc;

    // The record is the report plus what only the host knows.
    std::ostringstream host;
    host << "{\n"
         << "    \"quick\": " << (quickMode ? "true" : "false") << ",\n"
         << "    \"exit_code\": " << rc << ",\n"
         << "    \"wall_ms\": " << obs::jsonNumber(wallMs) << ",\n"
         << "    \"ticks_per_sec\": " << obs::jsonNumber(tps) << ",\n"
         << "    \"events_per_sec\": " << obs::jsonNumber(eps) << ",\n"
         << "    \"mem_peak_rss_kb\": " << peakRssKb() << ",\n"
         << "    \"mem_arena_hwm_blocks\": "
         << std::max(Arena::maxHighWater(),
                     SimContext::current().arenaHighWater());
    // What each written artifact cost to render and to write, and
    // its size.
    bool anyWritten = false;
    for (size_t c = 0; c < obs::numArtifacts; ++c) {
        if (!written[c])
            continue;
        host << (anyWritten ? ", " : ",\n    \"obs\": {") << "\""
             << obs::artifactName(static_cast<obs::Consumer>(c))
             << "\": {\"render_ms\": "
             << obs::jsonNumber(written[c].renderMs)
             << ", \"write_ms\": " << obs::jsonNumber(written[c].writeMs)
             << ", \"bytes\": " << written[c].bytes << "}";
        anyWritten = true;
    }
    if (anyWritten)
        host << "}";
    if constexpr (profileEnabled) {
        // SPECRT_PROFILE builds: fired events and sampled host ns per
        // EventKind (this context's, with every runJobs job merged).
        const prof::Profile &p = obsRec.profile;
        auto perKind = [&](const char *key,
                           const std::array<uint64_t, numEventKinds> &v) {
            host << "\"" << key << "\": {";
            bool firstKey = true;
            for (size_t k = 0; k < numEventKinds; ++k) {
                if (!p.events[k])
                    continue;
                host << (firstKey ? "" : ", ") << "\""
                     << eventKindName(static_cast<EventKind>(k))
                     << "\": " << v[k];
                firstKey = false;
            }
            host << "}";
        };
        host << ",\n    \"profile\": {";
        perKind("events", p.events);
        host << ", ";
        perKind("host_ns", p.hostNs);
        host << "}";
    }
    host << "\n  }";
    ri.host = host.str();

    if (!appendRecord(outPath, obs::renderReport(ri))) {
        std::fprintf(stderr, "%s: failed to write telemetry to %s\n",
                     name, outPath.c_str());
        return rc ? rc : 1;
    }
    std::printf("\n[telemetry] %s%s: %.0f ms wall, %" PRIu64
                " sim ticks, %.3g ticks/s, %" PRIu64
                " events -> %s\n",
                name, quickMode ? " (quick)" : "", wallMs, t.simTicks,
                tps, t.eventsFired, outPath.c_str());
    return rc;
}

} // namespace specrt::bench
