/**
 * @file
 * Tests for the bench telemetry aggregation layer (bench/telemetry.hh):
 * Telemetry fold semantics (counters sum, metrics overwrite by key,
 * stats last-nonempty-wins, cost breakdowns sum), the ScopedTelemetry
 * thread redirect, and the headline determinism contract -- runJobs()
 * aggregation (telemetry AND every merged observability artifact) is
 * byte-identical whatever the worker count -- the record benchMain()
 * writes (the run report plus a "host" object carrying, among others,
 * each artifact's render/write cost), and (in SPECRT_PROFILE builds)
 * the per-context event profile.
 *
 * Links bench_harness, not just specrt; registered with its own rule
 * in tests/CMakeLists.txt.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/loop_exec.hh"
#include "obs/event_log.hh"
#include "obs/report.hh"
#include "sim/sim_context.hh"
#include "telemetry.hh"
#include "workloads/microloops.hh"

using namespace specrt;

namespace
{

/** Render every observable Telemetry field (full precision). */
std::string
renderTelemetry(const bench::Telemetry &t)
{
    std::ostringstream os;
    os << "ticks=" << t.simTicks << " events=" << t.eventsFired
       << " runs=" << t.runs << " infra=" << t.infraFailedRuns
       << "\n";
    for (const auto &kv : t.metrics)
        os << "metric " << kv.first << " = " << std::setprecision(17)
           << kv.second << "\n";
    for (const auto &kv : t.stats)
        os << "stat " << kv.first << " = " << std::setprecision(17)
           << kv.second << "\n";
    os << "cost valid=" << t.cost.valid << " procs=" << t.cost.numProcs
       << " perNode=" << t.cost.perNodeTicks << " busy=" << t.cost.busy;
    for (size_t i = 0; i < stall::numCauses; ++i)
        os << " s" << i << "=" << t.cost.stalls[i];
    os << "\n";
    return os.str();
}

} // namespace

// --- fold semantics ---------------------------------------------------

TEST(TelemetryMerge, CountersSumMetricsOverwriteStatsReplace)
{
    bench::Telemetry a;
    a.simTicks = 100;
    a.eventsFired = 10;
    a.runs = 1;
    a.metric("shared", 1.0);
    a.metric("only_a", 7.0);
    a.stats.emplace_back("old.counter", 1.0);

    bench::Telemetry b;
    b.simTicks = 50;
    b.eventsFired = 5;
    b.runs = 2;
    b.infraFailedRuns = 1;
    b.metric("shared", 2.0);
    b.stats.emplace_back("new.counter", 9.0);

    a.merge(b);
    EXPECT_EQ(a.simTicks, 150u);
    EXPECT_EQ(a.eventsFired, 15u);
    EXPECT_EQ(a.runs, 3u);
    EXPECT_EQ(a.infraFailedRuns, 1u);
    // Same-keyed metric overwritten, disjoint one kept.
    ASSERT_EQ(a.metrics.size(), 2u);
    EXPECT_EQ(a.metrics[0].first, "shared");
    EXPECT_EQ(a.metrics[0].second, 2.0);
    EXPECT_EQ(a.metrics[1].first, "only_a");
    // Non-empty shard stats replace ("last machine wins").
    ASSERT_EQ(a.stats.size(), 1u);
    EXPECT_EQ(a.stats[0].first, "new.counter");

    // An empty shard snapshot leaves the current one alone.
    bench::Telemetry empty;
    a.merge(empty);
    ASSERT_EQ(a.stats.size(), 1u);
    EXPECT_EQ(a.stats[0].first, "new.counter");
}

TEST(TelemetryMerge, CostBreakdownsSum)
{
    bench::Telemetry a, b;
    b.cost.valid = true;
    b.cost.numProcs = 4;
    b.cost.perNodeTicks = 1000;
    b.cost.busy = 600;
    b.cost.stalls[0] = 400;
    a.merge(b);
    EXPECT_TRUE(a.cost.valid);
    EXPECT_EQ(a.cost.numProcs, 4);
    EXPECT_EQ(a.cost.busy, 600u);

    bench::Telemetry c;
    c.cost.valid = true;
    c.cost.numProcs = 8;
    c.cost.perNodeTicks = 500;
    c.cost.busy = 300;
    c.cost.stalls[0] = 200;
    a.merge(c);
    EXPECT_EQ(a.cost.numProcs, 8) << "procs is a max, not a sum";
    EXPECT_EQ(a.cost.perNodeTicks, 1500u);
    EXPECT_EQ(a.cost.busy, 900u);
    EXPECT_EQ(a.cost.stalls[0], 600u);

    // A shard with no profile never flips valid.
    bench::Telemetry d, e;
    d.merge(e);
    EXPECT_FALSE(d.cost.valid);
}

TEST(TelemetryMerge, RecordRunFoldsResultAndCost)
{
    RunResult r;
    r.totalTicks = 42;
    r.eventsFired = 7;
    r.infraFailed = true;
    r.cost.valid = true;
    r.cost.numProcs = 2;
    r.cost.busy = 30;
    bench::Telemetry t;
    t.recordRun(r);
    t.recordRun(r);
    EXPECT_EQ(t.simTicks, 84u);
    EXPECT_EQ(t.eventsFired, 14u);
    EXPECT_EQ(t.runs, 2u);
    EXPECT_EQ(t.infraFailedRuns, 2u);
    EXPECT_TRUE(t.cost.valid);
    EXPECT_EQ(t.cost.busy, 60u);
}

// --- thread redirect --------------------------------------------------

TEST(TelemetryScope, ScopedTelemetryRedirectsThisThread)
{
    bench::Telemetry &process = bench::telemetry();
    uint64_t before = process.runs;
    bench::Telemetry shard;
    {
        bench::ScopedTelemetry redirect(shard);
        EXPECT_EQ(&bench::telemetry(), &shard);
        bench::telemetry().runs += 3;
    }
    EXPECT_EQ(&bench::telemetry(), &process);
    EXPECT_EQ(shard.runs, 3u);
    EXPECT_EQ(process.runs, before);
}

// --- runJobs determinism ----------------------------------------------

namespace
{

/**
 * The whole aggregate a bench run would publish -- telemetry record
 * fields plus the merged event log -- after fanning 5 executor jobs
 * (one of which fails) across @p workers threads. Byte differences
 * between worker counts are aggregation-order bugs.
 */
std::string
aggregateAtFanout(unsigned workers)
{
    bench::telemetry() = bench::Telemetry{};
    obs::log().clear();
    obs::log().enable();

    bench::setJobs(workers);
    auto outcomes = bench::runJobs(
        5,
        [](size_t id, SimContext &) {
            if (id == 3)
                throw std::runtime_error("job 3 deliberate failure");
            Fig1BLoop loop(8 + 2 * id);
            MachineConfig cfg;
            cfg.numProcs = 4;
            ExecConfig xc;
            xc.mode = ExecMode::HW;
            LoopExecutor exec(cfg, loop, xc);
            RunResult r = exec.run();
            bench::telemetry().recordRun(r);
            bench::telemetry().metric("last_iters",
                                      double(r.itersExecuted));
            StatSnapshot snap;
            exec.machine().snapshot(snap);
            bench::telemetry().stats = snap;
        },
        /*base_seed=*/11);
    EXPECT_EQ(outcomes.size(), 5u);
    EXPECT_FALSE(outcomes[3].ok);

    std::string out = renderTelemetry(bench::telemetry());
    out += obs::log().jsonl();

    bench::setJobs(1);
    bench::telemetry() = bench::Telemetry{};
    obs::log().clear();
    obs::log().disable();
    return out;
}

} // namespace

TEST(TelemetryRunJobs, AggregationIsByteIdenticalAcrossFanouts)
{
    std::string serial = aggregateAtFanout(1);
    std::string parallel = aggregateAtFanout(4);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
    // The aggregate really carries both layers.
    EXPECT_NE(serial.find("metric last_iters"), std::string::npos);
    EXPECT_NE(serial.find("\"ev\":\"run_begin\""), std::string::npos);
    EXPECT_NE(serial.find("\"ev\":\"job_end\""), std::string::npos);
    EXPECT_NE(serial.find("job 3 deliberate failure"),
              std::string::npos);
    EXPECT_EQ(serial.find("ticks=0 "), std::string::npos)
        << "jobs recorded no simulated work:\n"
        << serial;
}

namespace
{

/**
 * Every consumer's merged artifact after fanning 4 executor jobs
 * (job 1 aborts its HW speculation) across @p workers threads, with
 * all four artifact consumers on in a fresh process-level context.
 */
std::array<std::string, obs::numArtifacts>
artifactsAtFanout(unsigned workers)
{
    SimContext proc;
    ScopedSimContext active(proc);
    for (size_t c = 0; c < obs::numArtifacts; ++c)
        proc.recorders().enable(static_cast<obs::Consumer>(c));
    bench::setJobs(workers);
    bench::runJobs(4, [](size_t id, SimContext &) {
        Fig1ALoop serialDep(16);
        Fig1BLoop parallel(8 + 2 * id);
        MachineConfig cfg;
        cfg.numProcs = 4;
        ExecConfig xc;
        xc.mode = ExecMode::HW;
        Workload &w = id == 1 ? static_cast<Workload &>(serialDep)
                              : static_cast<Workload &>(parallel);
        LoopExecutor(cfg, w, xc).run();
    });
    bench::setJobs(1);
    bench::telemetry() = bench::Telemetry{};
    std::array<std::string, obs::numArtifacts> out;
    for (size_t c = 0; c < obs::numArtifacts; ++c)
        out[c] = proc.recorders().render(static_cast<obs::Consumer>(c));
    return out;
}

} // namespace

TEST(TelemetryRunJobs, EveryMergedArtifactIsFanoutInvariant)
{
    auto serial = artifactsAtFanout(1);
    auto parallel = artifactsAtFanout(2);
    const char *names[] = {"trace", "timeline", "critpath", "events"};
    for (size_t c = 0; c < obs::numArtifacts; ++c)
        EXPECT_EQ(serial[c], parallel[c]) << names[c];

    // Each artifact carries the jobs' records, not just its envelope.
    const std::string &trace = serial[0];
    EXPECT_EQ(trace.find("\"recorded\": 0,"), std::string::npos);
    EXPECT_NE(trace.find("ABORT: "), std::string::npos);
    EXPECT_NE(trace.find("\"name\": \"loop 4 (HW)\""),
              std::string::npos)
        << "the four jobs' loops keep distinct ids";
    EXPECT_GT(std::count(serial[1].begin(), serial[1].end(), '\n'), 4);
    EXPECT_NE(serial[2].find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(serial[3].find("\"ev\":\"abort\""), std::string::npos);
    EXPECT_NE(serial[3].find("\"ev\":\"job_end\""), std::string::npos);
}

TEST(TelemetryRunJobs, DisabledEventLogStaysEmpty)
{
    bench::telemetry() = bench::Telemetry{};
    obs::log().clear();
    obs::log().disable();
    bench::setJobs(2);
    bench::runJobs(3, [](size_t, SimContext &) {
        Fig1BLoop loop(8);
        MachineConfig cfg;
        cfg.numProcs = 2;
        ExecConfig xc;
        xc.mode = ExecMode::HW;
        LoopExecutor(cfg, loop, xc).run();
    });
    EXPECT_EQ(obs::log().recorded(), 0u);
    bench::setJobs(1);
    bench::telemetry() = bench::Telemetry{};
}

namespace
{

/** The merged per-kind event profile after fanning 4 HW runs. */
prof::Profile
profileAtFanout(unsigned workers)
{
    SimContext proc;
    ScopedSimContext active(proc);
    bench::setJobs(workers);
    auto outcomes = bench::runJobs(4, [](size_t id, SimContext &) {
        Fig1BLoop loop(8 + 2 * id);
        MachineConfig cfg;
        cfg.numProcs = 4;
        ExecConfig xc;
        xc.mode = ExecMode::HW;
        bench::telemetry().recordRun(LoopExecutor(cfg, loop, xc).run());
    });
    for (const auto &o : outcomes)
        EXPECT_TRUE(o.ok) << o.error;
    bench::setJobs(1);
    bench::telemetry() = bench::Telemetry{};
    return proc.recorders().profile;
}

} // namespace

TEST(TelemetryRunJobs, EventProfileIsPerContextAndFanoutInvariant)
{
    if constexpr (!profileEnabled)
        GTEST_SKIP() << "needs a -DSPECRT_PROFILE=ON build";
    // Each job's queues count into the job's own context, merged in
    // job-id order: no shared counter for concurrent workers to race
    // on, so the histogram cannot depend on the worker count.
    prof::Profile serial = profileAtFanout(1);
    prof::Profile parallel = profileAtFanout(2);
    EXPECT_EQ(serial.events, parallel.events);
    uint64_t total = 0;
    for (uint64_t n : serial.events)
        total += n;
    EXPECT_GT(total, 0u);
    // Every scheduling site names its layer; only daemons (none
    // here: the timeline is off) would count as generic.
    EXPECT_EQ(serial.events[static_cast<size_t>(EventKind::Generic)],
              0u);
    EXPECT_GT(serial.events[static_cast<size_t>(EventKind::Network)],
              0u);
    EXPECT_GT(serial.events[static_cast<size_t>(EventKind::Processor)],
              0u);
}

// --- the bench record -------------------------------------------------

namespace
{

/** A bench body: one aborting HW run with every consumer on. */
int
abortingHwRun()
{
    Fig1ALoop loop(16);
    MachineConfig cfg;
    cfg.numProcs = 4;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    bench::telemetry().recordRun(LoopExecutor(cfg, loop, xc).run());
    return 0;
}

/** benchMain() on abortingHwRun with @p flags, in a fresh context. */
int
runBench(const char *name, std::vector<std::string> flags)
{
    SimContext proc;
    ScopedSimContext active(proc);
    flags.insert(flags.begin(), std::string("bench_") + name);
    std::vector<char *> argv;
    for (std::string &a : flags)
        argv.push_back(a.data());
    int rc = bench::benchMain(static_cast<int>(argv.size()), argv.data(),
                              name, abortingHwRun);
    bench::telemetry() = bench::Telemetry{};
    return rc;
}

} // namespace

TEST(TelemetryRecord, RecordIsTheReportPlusHost)
{
    const std::string dir = ::testing::TempDir();
    const std::string out = dir + "/specrt_record.json";
    const std::string report = dir + "/specrt_record_report.json";
    std::remove(out.c_str());
    ASSERT_EQ(runBench("record", {"--out", out, "--report-out", report}),
              0);

    obs::RunReport rec, rep;
    std::string err;
    ASSERT_TRUE(obs::loadReport(out, rec, err)) << err;
    ASSERT_TRUE(obs::loadReport(report, rep, err)) << err;
    // Outside "host", the record is the report, key for key.
    size_t hostKeys = 0;
    for (const auto &[key, v] : rec.numbers) {
        if (key.rfind("host.", 0) == 0) {
            ++hostKeys;
            continue;
        }
        ASSERT_TRUE(rep.numbers.count(key)) << key;
        EXPECT_EQ(rep.numbers.at(key), v) << key;
    }
    for (const auto &[key, v] : rec.strings) {
        ASSERT_TRUE(rep.strings.count(key)) << key;
        EXPECT_EQ(rep.strings.at(key), v) << key;
    }
    EXPECT_EQ(rec.numbers.size() - hostKeys, rep.numbers.size());
    EXPECT_EQ(rec.strings.size(), rep.strings.size());
    // The run is really in both, and the host figures are there.
    EXPECT_GT(rep.numbers.at("sim_ticks"), 0.0);
    EXPECT_GT(rep.numbers.at("events.counts.abort"), 0.0);
    EXPECT_EQ(rec.numbers.at("host.exit_code"), 0.0);
    EXPECT_EQ(rec.numbers.at("host.quick"), 0.0);
    EXPECT_TRUE(rec.numbers.count("host.wall_ms"));
    EXPECT_TRUE(rec.numbers.count("host.mem_peak_rss_kb"));
    std::remove(out.c_str());
    std::remove(report.c_str());
}

TEST(TelemetryRecord, ObsObjectCarriesEachWrittenArtifactsCost)
{
    const std::string dir = ::testing::TempDir();
    const std::string out = dir + "/specrt_obs_cost.json";
    const char *names[] = {"trace", "timeline", "critpath", "events"};
    const char *files[] = {"/specrt_obs_cost_trace.json",
                           "/specrt_obs_cost_timeline.csv",
                           "/specrt_obs_cost_critpath.json",
                           "/specrt_obs_cost_events.jsonl"};
    std::vector<std::string> flags = {"--out", out};
    const char *artifactFlags[] = {"--trace-out", "--timeline-out",
                                   "--critpath-out", "--events-out"};
    for (size_t c = 0; c < obs::numArtifacts; ++c) {
        flags.push_back(artifactFlags[c]);
        flags.push_back(dir + files[c]);
    }
    std::remove(out.c_str());
    ASSERT_EQ(runBench("obs_cost", flags), 0);

    obs::RunReport rec;
    std::string err;
    ASSERT_TRUE(obs::loadReport(out, rec, err)) << err;
    for (size_t c = 0; c < obs::numArtifacts; ++c) {
        // host.obs.<name>: {"render_ms": R, "write_ms": W, "bytes": B}
        std::string key = std::string("host.obs.") + names[c] + ".";
        ASSERT_TRUE(rec.numbers.count(key + "render_ms")) << names[c];
        ASSERT_TRUE(rec.numbers.count(key + "write_ms")) << names[c];
        ASSERT_TRUE(rec.numbers.count(key + "bytes")) << names[c];
        EXPECT_GE(rec.numbers.at(key + "render_ms"), 0.0) << names[c];
        EXPECT_GE(rec.numbers.at(key + "write_ms"), 0.0) << names[c];
        double bytes = rec.numbers.at(key + "bytes");
        std::ifstream f(dir + files[c], std::ios::binary | std::ios::ate);
        EXPECT_EQ(bytes, static_cast<double>(f.tellg())) << names[c];
        EXPECT_GT(bytes, 0.0) << names[c];
        std::remove((dir + files[c]).c_str());
    }
    std::remove(out.c_str());
}
