/**
 * @file
 * Golden fingerprints of the simulated machine.
 *
 * A fixed, small set of paper runs (Track instances 0 and 3 at 16
 * processors, Ocean stride 1 at 8 processors, each under Serial/SW/HW;
 * Track instance 3's forced HW failure; one fault-injected Adm HW run
 * through the degradation ladder)
 * is pinned to its exact simulated ticks, fired events, verdict and
 * a hash of the final shared arrays. Host-side refactors and
 * optimisations must leave every pin unchanged; changing one needs a
 * CHANGES.md justification.
 *
 * The list also runs twice on one thread and once on two campaign
 * workers: all three must agree, so no state leaks from one machine
 * into the next one built on the same thread or context.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/loop_exec.hh"
#include "sim/campaign.hh"
#include "workloads/adm.hh"
#include "workloads/ocean.hh"
#include "workloads/track.hh"

using namespace specrt;

namespace
{

/** One pinned run. */
struct Case
{
    const char *name;
    int procs;
    ExecMode mode;
    ExecConfig xc;
    std::function<std::unique_ptr<Workload>()> make;
    /** Fault-injected, through runWithDegradation. */
    bool ladder = false;
};

/** What a run is pinned to. */
struct Pin
{
    Tick ticks;
    uint64_t events;
    bool passed;
    uint64_t arrays;

    bool
    operator==(const Pin &o) const
    {
        return ticks == o.ticks && events == o.events &&
               passed == o.passed && arrays == o.arrays;
    }
};

uint64_t
mix(uint64_t h, uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h * 0xff51afd7ed558ccdULL;
}

/** Hash of every declared array's final shared contents. */
uint64_t
hashArrays(LoopExecutor &ex, const Workload &w)
{
    const AddrMap &mem = ex.machine().memory();
    uint64_t h = 0;
    size_t n = w.arrays().size();
    for (size_t d = 0; d < n; ++d) {
        const Region *r = ex.sharedRegion(static_cast<int>(d));
        h = mix(h, r->numElems());
        for (uint64_t e = 0; e < r->numElems(); ++e)
            h = mix(h, mem.read(r->elemAddr(e), r->elemBytes));
    }
    return h;
}

ExecConfig
xcOf(SchedPolicy sched, IterNum block, bool procwise)
{
    ExecConfig xc;
    xc.sched = sched;
    xc.blockIters = block;
    xc.swProcWise = procwise;
    return xc;
}

std::vector<Case>
cases()
{
    auto track = [](int instance) {
        return [instance]() {
            TrackParams p;
            p.instance = instance;
            return std::make_unique<TrackLoop>(p);
        };
    };
    auto ocean = []() {
        OceanParams p;
        p.stride = 1;
        return std::make_unique<OceanLoop>(p);
    };
    const ExecConfig trackXc = xcOf(SchedPolicy::Dynamic, 16, true);
    const ExecConfig oceanXc = xcOf(SchedPolicy::StaticChunk, 4, true);

    std::vector<Case> out;
    for (ExecMode m : {ExecMode::Serial, ExecMode::SW, ExecMode::HW})
        out.push_back({"track0", 16, m, trackXc, track(0)});
    for (ExecMode m : {ExecMode::Serial, ExecMode::SW, ExecMode::HW})
        out.push_back({"track3", 16, m, trackXc, track(3)});
    for (ExecMode m : {ExecMode::Serial, ExecMode::SW, ExecMode::HW})
        out.push_back({"ocean1", 8, m, oceanXc, ocean});
    // Figure 13's iteration-wise failure: the HW run fails, discards
    // its speculative state, restores and re-executes serially.
    out.push_back({"track3-fail", 16, ExecMode::HW,
                   xcOf(SchedPolicy::BlockCyclic, 1, false), track(3)});
    out.push_back({"adm-faults", 16, ExecMode::HW,
                   xcOf(SchedPolicy::Dynamic, 2, true),
                   []() { return std::make_unique<AdmLoop>(); }, true});
    return out;
}

Pin
runCase(const Case &c)
{
    MachineConfig cfg;
    cfg.numProcs = c.procs;
    ExecConfig xc = c.xc;
    xc.mode = c.mode;
    std::unique_ptr<Workload> w = c.make();
    if (c.ladder) {
        cfg.fault.seed = 11;
        cfg.fault.dropProb = 0.01;
        cfg.fault.dupProb = 0.01;
        cfg.fault.jitterProb = 0.01;
        cfg.fault.watchdogTimeout = 2000;
        LadderOutcome out = runWithDegradation(cfg, *w, xc);
        const RunResult &r = out.result;
        return {r.totalTicks, r.eventsFired, r.passed,
                hashArrays(*out.exec, *w)};
    }
    LoopExecutor ex(cfg, *w, xc);
    RunResult r = ex.run();
    return {r.totalTicks, r.eventsFired, r.passed, hashArrays(ex, *w)};
}

std::vector<Pin>
runAll(const std::vector<Case> &cs)
{
    std::vector<Pin> out;
    for (const Case &c : cs)
        out.push_back(runCase(c));
    return out;
}

std::string
describe(const Case &c, const Pin &p)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s/%s: {%" PRIu64 ", %" PRIu64 ", %s, 0x%016" PRIx64
                  "}",
                  c.name, execModeName(c.mode), p.ticks, p.events,
                  p.passed ? "true" : "false", p.arrays);
    return buf;
}

/** The pins, in cases() order. Changing one needs a CHANGES.md note. */
const Pin pins[] = {
    {447005, 39382, true, 0xd0c1382b663111f2},  // track0/Serial
    {155233, 407670, true, 0xd0c1382b663111f2}, // track0/SW
    {60368, 100031, true, 0xd0c1382b663111f2},  // track0/HW
    {471720, 44562, true, 0x637c571e2a3c6b7f},  // track3/Serial
    {158650, 430617, true, 0x637c571e2a3c6b7f}, // track3/SW
    {65014, 105213, true, 0x637c571e2a3c6b7f},  // track3/HW
    {519363, 97203, true, 0xec5a8cc66156a74d},  // ocean1/Serial
    {311541, 445915, true, 0xec5a8cc66156a74d}, // ocean1/SW
    {213276, 162553, true, 0xec5a8cc66156a74d}, // ocean1/HW
    {565043, 166229, false, 0x637c571e2a3c6b7f}, // track3-fail/HW
    {28230, 47725, true, 0x381a603e82001b81},   // adm-faults/HW
};

} // namespace

TEST(Fingerprint, PinnedRunsAreExactAndLeakFree)
{
    const std::vector<Case> cs = cases();
    ASSERT_EQ(cs.size(), std::size(pins));

    const std::vector<Pin> first = runAll(cs);
    for (size_t i = 0; i < cs.size(); ++i)
        EXPECT_TRUE(first[i] == pins[i])
            << "pin moved: " << describe(cs[i], first[i]);

    // A second pass on the same thread reuses whatever the first pass
    // left behind (allocator, arenas, thread-local context).
    const std::vector<Pin> second = runAll(cs);
    for (size_t i = 0; i < cs.size(); ++i)
        EXPECT_TRUE(second[i] == first[i])
            << "second pass differs: " << describe(cs[i], second[i]);

    // Two campaign workers, one fresh context per run.
    std::vector<Pin> pooled(cs.size());
    campaign::Options opts;
    opts.jobs = 2;
    auto outcomes = campaign::run(
        cs.size(),
        [&](size_t id, SimContext &) { pooled[id] = runCase(cs[id]); },
        opts);
    ASSERT_TRUE(campaign::allOk(outcomes))
        << campaign::describeFailures(outcomes);
    for (size_t i = 0; i < cs.size(); ++i)
        EXPECT_TRUE(pooled[i] == first[i])
            << "campaign run differs: " << describe(cs[i], pooled[i]);
}
