/**
 * @file
 * Golden bytes of the four observability artifacts.
 *
 * One small fault-injected HW run (a 16-iteration Adm on 4
 * processors, 3 % message drop, duplication and jitter, through the
 * degradation ladder) runs with every artifact consumer on: a
 * 512-record trace ring, a 4000-tick timeline interval, the
 * critical-path recorder and the event log. Each rendered artifact
 * must equal, byte for byte, the file of the same name under
 * tests/data/obs_golden/, recorded before the renderers moved from
 * iostreams to sim/artifact_writer.hh. The renderers may change how
 * they build their output, never what they output.
 *
 * On a mismatch the test writes what it rendered to
 * <build>/tests/obs_golden/<name> and names the first differing
 * byte, so `diff` against the golden file shows the change.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/loop_exec.hh"
#include "sim/sim_context.hh"
#include "workloads/adm.hh"

using namespace specrt;

namespace
{

struct Golden
{
    obs::Consumer consumer;
    const char *file;
};

const Golden goldens[] = {
    {obs::Consumer::Trace, "trace.json"},
    {obs::Consumer::Timeline, "timeline.csv"},
    {obs::Consumer::Critpath, "critpath.json"},
    {obs::Consumer::Events, "events.jsonl"},
};

std::string
slurp(const std::filesystem::path &p)
{
    std::ifstream is(p, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

size_t
firstDiff(const std::string &a, const std::string &b)
{
    size_t n = std::min(a.size(), b.size());
    for (size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return i;
    return n;
}

} // namespace

TEST(ObsGolden, FaultInjectedHwRunRendersTheRecordedBytes)
{
    SimContext ctx;
    ScopedSimContext scope(ctx);
    obs::Recorders &rec = ctx.recorders();
    rec.enable(obs::Consumer::Trace, 512);
    rec.enable(obs::Consumer::Timeline, 4000);
    rec.enable(obs::Consumer::Critpath);
    rec.enable(obs::Consumer::Events);

    MachineConfig cfg;
    cfg.numProcs = 4;
    cfg.fault.seed = 11;
    cfg.fault.dropProb = 0.03;
    cfg.fault.dupProb = 0.03;
    cfg.fault.jitterProb = 0.03;
    cfg.fault.watchdogTimeout = 2000;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    xc.sched = SchedPolicy::Dynamic;
    xc.blockIters = 2;
    AdmParams ap;
    ap.iters = 16;
    ap.elemsPerIter = 16;
    ap.wsElems = 8;
    AdmLoop w(ap);
    LadderOutcome out = runWithDegradation(cfg, w, xc);
    ASSERT_TRUE(out.result.passed);

    const std::filesystem::path dir = SPECRT_OBS_GOLDEN_DIR;
    const std::filesystem::path actualDir = SPECRT_OBS_ACTUAL_DIR;
    for (const Golden &g : goldens) {
        ASSERT_TRUE(rec.hasData(g.consumer)) << g.file;
        const std::string got = rec.render(g.consumer);
        const std::string want = slurp(dir / g.file);
        if (got == want)
            continue;
        std::filesystem::create_directories(actualDir);
        std::ofstream(actualDir / g.file, std::ios::binary) << got;
        ADD_FAILURE() << g.file << ": " << got.size()
                      << " bytes rendered, " << want.size()
                      << " golden; first difference at byte "
                      << firstDiff(got, want) << " (rendered copy in "
                      << (actualDir / g.file).string() << ")";
    }
}
