/**
 * @file
 * Model-check the coherence + speculation protocol: enumerate
 * message interleavings of small configurations with the bounded
 * explorer (verify/explorer.hh), assert the protocol invariants
 * after every network delivery and the paper's verdict semantics at
 * the end of every schedule, and shrink + serialize any violation as
 * a replayable schedule file.
 *
 *   model_check                      # the full grid (CI verify job)
 *   model_check --scenario micro-3node-2elem-dpor
 *   model_check --demo-bug[=NAME]    # seeded bug(s): find, shrink, save
 *   model_check --replay-schedule f  # re-execute a saved schedule
 *   model_check --out DIR            # where schedule files land
 *   model_check --jobs N             # parallel subtree workers
 *   model_check --assert-max-runs N  # fail if any scenario used > N runs
 *   model_check --compare            # DPOR-vs-naive run-count table
 *
 * Scenarios:
 *   micro-2node[-dpor]    2 nodes, 1 element, conflicting stores;
 *                         EXHAUSTIVE in both modes (the DPOR variant
 *                         must find the same violations in fewer runs).
 *   micro-3node           3 nodes, 1 element; budgeted naive sweep
 *                         fanned across the campaign worker pool.
 *   micro-3node-dpor      the same state space, exhausted by DPOR.
 *   micro-3node-2elem-dpor  3 nodes x 2 elements: tractable only
 *                         under partial-order reduction.
 *   micro-2node-faults    fault exploration: the DFS decides which
 *                         tolerated message is dropped or duplicated
 *                         (watchdog recovery enabled).
 *   fig3-*                the real HW machine (2 procs) on the
 *                         paper's Fig. 3 archetypes; verdict must be
 *                         schedule-independent (budgeted).
 *
 * Seeded bugs (--demo-bug; the witness regression corpus in
 * tests/schedules/ is generated from these):
 *   seeded-bug            home directory forgets who caches the line
 *   seeded-specbit        NoShr access bit cleared behind the checker
 *   seeded-maxr1st        stale MaxR1st/MinW stamps, no latched failure
 *   seeded-dropped-grant  corruption reachable only when a fault
 *                         schedule drops a write request (fault-choice
 *                         witness)
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/loop_exec.hh"
#include "mem/directory.hh"
#include "mem/dsm.hh"
#include "sim/sim_context.hh"
#include "spec/invariants.hh"
#include "spec/spec_unit.hh"
#include "verify/explorer.hh"
#include "workloads/microloops.hh"

using namespace specrt;
using verify::explore;
using verify::exploreParallel;
using verify::ExploreMode;
using verify::ExploreOptions;
using verify::ExploreResult;
using verify::RunVerdict;
using verify::ScheduleFile;

namespace
{

/**
 * N nodes contending on E elements, element e homed at node e mod N
 * (so distinct elements live at distinct homes and their protocol
 * traffic is independent -- the axis partial-order reduction
 * factors): for every element, every node stores a distinct value
 * and then every node loads it. Properties: the drain terminates
 * quiescent,
 * per-delivery and final invariant sweeps are clean, and each
 * element's final value is one of its stores (serializability).
 * With @p watchdog nonzero the requester watchdog is armed, which
 * enables the recovery legs fault exploration needs.
 */
RunVerdict
runMicroN(int nodes, int elems, Cycles watchdog = 0)
{
    MachineConfig cfg;
    cfg.numProcs = nodes;
    cfg.fault.watchdogTimeout = watchdog;
    DsmSystem dsm(cfg);
    std::vector<Addr> addr(elems);
    for (int e = 0; e < elems; ++e) {
        int id = dsm.memory().alloc("A" + std::to_string(e), 4, 4,
                                    Placement::Fixed, e % nodes);
        addr[e] = dsm.memory().region(id).elemAddr(0);
        dsm.memory().write(addr[e], 4, 7);
    }

    InvariantChecker chk(dsm);
    size_t viols = 0;
    std::string first;
    chk.setHandler([&](const ProtocolViolation &v) {
        if (!viols++)
            first = v.str();
    });
    dsm.eventQueue().setPostFireHook([&](Tick, EventKind k) {
        if (k == EventKind::Network)
            chk.checkAll(InvariantChecker::Granularity::Delivery);
    });

    size_t loaded = 0;
    size_t expect_loads = static_cast<size_t>(elems) * nodes;
    std::vector<uint64_t> lv(elems, 0);
    for (int e = 0; e < elems; ++e)
        for (NodeId n = 0; n < nodes; ++n)
            dsm.cacheCtrl(n).store(addr[e], 4,
                                   100 * (e + 1) +
                                       static_cast<uint64_t>(n),
                                   n + 1);
    for (int e = 0; e < elems; ++e)
        for (NodeId n = 0; n < nodes; ++n)
            dsm.cacheCtrl(n).load(addr[e], 4, 1, [&, e](uint64_t v) {
                lv[e] = v;
                ++loaded;
            });
    dsm.eventQueue().run();

    bool quiesced = dsm.quiescent();
    chk.checkAll(InvariantChecker::Granularity::Quiesce);
    dsm.resetMachine(true);

    RunVerdict v;
    std::string err;
    if (loaded != expect_loads)
        err += "load(s) never completed; ";
    if (!quiesced)
        err += "not quiescent after drain; ";
    for (int e = 0; e < elems; ++e) {
        uint64_t fin = dsm.memory().read(addr[e], 4);
        bool fin_ok = false;
        for (NodeId n = 0; n < nodes; ++n)
            fin_ok |= fin == 100 * (e + 1) + static_cast<uint64_t>(n);
        if (!fin_ok)
            err += "elem " + std::to_string(e) + " final value " +
                   std::to_string(fin) +
                   " is no serialization of the stores; ";
    }
    if (viols)
        err += std::to_string(viols) +
               " invariant violation(s), first: " + first;
    v.report = err;
    v.ok = err.empty();
    return v;
}

RunVerdict
runMicro(int nodes)
{
    return runMicroN(nodes, 1);
}

/** One HW-machine run of a Fig. 3 archetype (2 procs, 4 iters). */
RunVerdict
runFig3(Fig3Kind kind, bool expect_pass)
{
    Fig3Loop loop(kind, 4);
    MachineConfig cfg;
    cfg.numProcs = 2;
    ExecConfig xc;
    xc.mode = ExecMode::HW;
    xc.sched = SchedPolicy::StaticChunk;
    xc.checkInvariants = true;
    xc.invariantGranularity = InvariantChecker::Granularity::Delivery;
    LoopExecutor exec(cfg, loop, xc);
    RunResult res = exec.run();

    RunVerdict v;
    std::string err;
    if (res.passed != expect_pass)
        err += "verdict flipped under reordering (got " +
               std::to_string(res.passed) + ", expected " +
               std::to_string(expect_pass) + "); ";
    if (res.invariantViolations)
        err += std::to_string(res.invariantViolations) +
               " invariant violation(s); ";
    if (res.infraFailed)
        err += "infra failure: " + res.infraReason;
    v.report = err;
    v.ok = err.empty();
    return v;
}

/** The current run's ReplayController, or null (uncontrolled run). */
verify::ReplayController *
controller()
{
    return dynamic_cast<verify::ReplayController *>(
        SimContext::current().scheduleController);
}

/**
 * Seeded bug #1: a deliberate test-only corruption reachable only
 * off the default schedule, so the explorer has something to find,
 * shrink, and serialize. The "bug": after a reordered drain the home
 * directory forgets who caches the line.
 */
RunVerdict
runSeededBug()
{
    auto *rc = controller();
    bool reordered = false;
    if (rc) {
        rc->onDecision = [&reordered](const EventChoice *, size_t,
                                      size_t take) {
            if (take != 0)
                reordered = true;
        };
    }

    MachineConfig cfg;
    cfg.numProcs = 2;
    DsmSystem dsm(cfg);
    int id = dsm.memory().alloc("A", 4, 4, Placement::Fixed, 0);
    Addr a = dsm.memory().region(id).elemAddr(0);
    dsm.memory().write(a, 4, 7);
    InvariantChecker chk(dsm);
    size_t viols = 0;
    std::string first;
    chk.setHandler([&](const ProtocolViolation &v) {
        if (!viols++)
            first = v.str();
    });
    dsm.cacheCtrl(0).store(a, 4, 11, 1);
    dsm.cacheCtrl(1).store(a, 4, 22, 2);
    dsm.eventQueue().run();
    if (reordered) {
        // The "bug": home forgets who caches the line.
        Addr line = dsm.cacheCtrl(0).cacheArray().lineAlign(a);
        DirEntry &e = dsm.dirCtrl(0).directory().entry(line);
        e.state = DirState::Uncached;
        e.sharers = 0;
        e.owner = invalidNode;
    }
    chk.checkAll(InvariantChecker::Granularity::Quiesce);

    RunVerdict v;
    if (viols) {
        v.ok = false;
        v.report = first;
    }
    return v;
}

/**
 * Seeded bug #2: the spec-bit clear race. Two processors store to
 * distinct elements of an armed non-priv region; each store stamps
 * First and sets NoShr at the home speculation unit. Off the default
 * schedule the bug clears one element's NoShr after a baseline sweep
 * already observed it set -- the checker's monotonicity invariant
 * (access bits only accumulate while armed) must attribute it.
 */
RunVerdict
runSeededSpecBit()
{
    auto *rc = controller();
    bool reordered = false;
    if (rc) {
        rc->onDecision = [&reordered](const EventChoice *, size_t,
                                      size_t take) {
            if (take != 0)
                reordered = true;
        };
    }

    MachineConfig cfg;
    cfg.numProcs = 2;
    DsmSystem dsm(cfg);
    SpecSystem spec(dsm);
    AddrMap &mem = dsm.memory();
    int id = mem.alloc("A", 8, 4, Placement::Fixed, 0);
    const Region &reg = mem.region(id);
    Addr a0 = reg.elemAddr(0), a1 = reg.elemAddr(1);
    mem.write(a0, 4, 7);
    mem.write(a1, 4, 7);
    spec.table().addNonPriv(reg);
    spec.arm();

    InvariantChecker chk(dsm);
    chk.setSpecSystem(&spec);
    size_t viols = 0;
    std::string first;
    chk.setHandler([&](const ProtocolViolation &v) {
        if (!viols++)
            first = v.str();
    });

    dsm.cacheCtrl(1).store(a0, 4, 41, 1);
    dsm.cacheCtrl(0).store(a1, 4, 42, 1);
    dsm.eventQueue().run();

    // Baseline sweep: records NoShr set for both elements.
    chk.checkAll(InvariantChecker::Granularity::Quiesce);
    if (reordered)
        spec.dirUnit(0).npBitsForTest(a0).noShr = false;
    chk.checkAll(InvariantChecker::Granularity::Quiesce);

    RunVerdict v;
    if (viols) {
        v.ok = false;
        v.report = first;
    }
    return v;
}

/**
 * Seeded bug #3: stale iteration stamps on a priv-test shared
 * element. Two processors read their private copies (read-in +
 * ReadFirstSig traffic to the shared home); off the default schedule
 * the bug plants MaxR1st > MinW at the shared home with no latched
 * speculation failure -- the checker must flag the missed
 * cross-iteration dependence.
 */
RunVerdict
runSeededMaxR1st()
{
    auto *rc = controller();
    bool reordered = false;
    if (rc) {
        rc->onDecision = [&reordered](const EventChoice *, size_t,
                                      size_t take) {
            if (take != 0)
                reordered = true;
        };
    }

    MachineConfig cfg;
    cfg.numProcs = 2;
    DsmSystem dsm(cfg);
    SpecSystem spec(dsm);
    AddrMap &mem = dsm.memory();
    int sid = mem.alloc("A", 4, 4, Placement::Fixed, 0);
    const Region &shared = mem.region(sid);
    mem.write(shared.elemAddr(0), 4, 7);
    std::vector<const Region *> priv;
    for (int p = 0; p < 2; ++p) {
        int pid = mem.alloc("A_priv" + std::to_string(p), 4, 4,
                            Placement::Fixed, p);
        priv.push_back(&mem.region(pid));
        mem.copyBytes(shared.base, priv.back()->base, 4);
    }
    spec.table().addPriv(shared, priv);
    spec.arm();

    InvariantChecker chk(dsm);
    chk.setSpecSystem(&spec);
    size_t viols = 0;
    std::string first;
    chk.setHandler([&](const ProtocolViolation &v) {
        if (!viols++)
            first = v.str();
    });

    for (NodeId p = 0; p < 2; ++p)
        dsm.cacheCtrl(p).load(priv[p]->elemAddr(0), 4, p + 1,
                              [](uint64_t) {});
    dsm.eventQueue().run();

    chk.checkAll(InvariantChecker::Granularity::Quiesce);
    if (reordered) {
        PrivSharedDirBits &e =
            spec.dirUnit(0).sharedBitsForTest(shared.elemAddr(0));
        e.maxR1st = 9; // a read-first stamped after...
        e.minW = 3;    // ...a write the unit never flagged
    }
    chk.checkAll(InvariantChecker::Granularity::Quiesce);

    RunVerdict v;
    if (viols) {
        v.ok = false;
        v.report = first;
    }
    return v;
}

/**
 * Seeded bug #4 -- reachable ONLY through a fault-choice schedule.
 * Two processors store to one line with the requester watchdog
 * enabled; the corruption triggers only on runs where the explorer
 * chose to DROP a request (the write grant path), i.e.\ after a
 * watchdog retry leg. No pure delivery-order schedule can reach it,
 * so finding it proves fault decisions are genuine choice points.
 */
RunVerdict
runSeededDroppedGrant()
{
    auto *rc = controller();
    bool dropped = false;
    if (rc) {
        rc->onFaultDecision = [&dropped](const FaultChoicePoint &p,
                                         size_t, size_t take) {
            if (take == 1 && p.canDrop)
                dropped = true;
        };
    }

    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.fault.watchdogTimeout = 2000;
    DsmSystem dsm(cfg);
    int id = dsm.memory().alloc("A", 4, 4, Placement::Fixed, 0);
    Addr a = dsm.memory().region(id).elemAddr(0);
    dsm.memory().write(a, 4, 7);
    InvariantChecker chk(dsm);
    size_t viols = 0;
    std::string first;
    chk.setHandler([&](const ProtocolViolation &v) {
        if (!viols++)
            first = v.str();
    });
    dsm.cacheCtrl(0).store(a, 4, 11, 1);
    dsm.cacheCtrl(1).store(a, 4, 22, 2);
    dsm.eventQueue().run();
    if (dropped) {
        // The "bug": the retry leg leaves the home amnesiac.
        Addr line = dsm.cacheCtrl(0).cacheArray().lineAlign(a);
        DirEntry &e = dsm.dirCtrl(0).directory().entry(line);
        e.state = DirState::Uncached;
        e.sharers = 0;
        e.owner = invalidNode;
    }
    chk.checkAll(InvariantChecker::Granularity::Quiesce);

    RunVerdict v;
    if (viols) {
        v.ok = false;
        v.report = first;
    }
    return v;
}

struct Scenario
{
    const char *name;
    verify::RunFn run;
    ExploreOptions opts;
    bool exhaustive; ///< budgetExhausted counts as a failure
};

std::vector<Scenario>
grid()
{
    std::vector<Scenario> s;
    ExploreOptions backstop; // runaway backstop, not a budget
    backstop.maxRuns = 200000;
    s.push_back({"micro-2node", [] { return runMicro(2); }, backstop,
                 true});
    {
        ExploreOptions o = backstop;
        o.mode = ExploreMode::Dpor;
        s.push_back({"micro-2node-dpor", [] { return runMicro(2); }, o,
                     true});
    }
    {
        ExploreOptions o;
        o.maxDepth = 6;
        o.maxBranch = 3;
        o.maxRuns = 2000;
        s.push_back({"micro-3node", [] { return runMicro(3); }, o,
                     false});
    }
    {
        ExploreOptions o = backstop;
        o.mode = ExploreMode::Dpor;
        s.push_back({"micro-3node-dpor", [] { return runMicro(3); }, o,
                     true});
    }
    {
        // The headline pair: 3 nodes x 2 elements under ONE budget.
        // Naive enumeration needs 5376 schedules and exhausts the
        // budget (expected, not a failure); DPOR must finish inside
        // it -- which also acts as a committed run-count ceiling
        // against reduction regressions (see --assert-max-runs for
        // the CI belt-and-braces check).
        ExploreOptions o;
        o.maxRuns = 2500;
        s.push_back({"micro-3node-2elem-naive",
                     [] { return runMicroN(3, 2); }, o, false});
        o.mode = ExploreMode::Dpor;
        s.push_back({"micro-3node-2elem-dpor",
                     [] { return runMicroN(3, 2); }, o, true});
    }
    {
        // Fault exploration: every tolerated message's fate is a
        // choice point; d-bounded to one fault per schedule. No
        // commutativity theory under faults, so naive mode.
        ExploreOptions o = backstop;
        o.exploreFaults = true;
        o.maxFaults = 1;
        s.push_back({"micro-2node-faults",
                     [] { return runMicroN(2, 1, 2000); }, o, true});
    }
    auto fig3 = [](Fig3Kind k, bool pass) {
        return [k, pass] { return runFig3(k, pass); };
    };
    ExploreOptions fo;
    fo.maxDepth = 3;
    fo.maxRuns = 24;
    s.push_back({"fig3-readin", fig3(Fig3Kind::ReadInNeeded, true),
                 fo, false});
    s.push_back({"fig3-writefirst", fig3(Fig3Kind::WriteFirst, true),
                 fo, false});
    s.push_back({"fig3-flowdep", fig3(Fig3Kind::FlowDep, false), fo,
                 false});
    return s;
}

struct SeededBug
{
    const char *name;
    verify::RunFn run;
    ExploreOptions opts; ///< exploration that can reach it
    const char *about;
};

std::vector<SeededBug>
seededBugs()
{
    ExploreOptions o;
    o.maxRuns = 200000;
    ExploreOptions fo = o;
    fo.exploreFaults = true;
    fo.maxFaults = 1;
    return {
        {"seeded-bug", runSeededBug, o,
         "home directory forgets who caches the line"},
        {"seeded-specbit", runSeededSpecBit, o,
         "NoShr access bit cleared behind the checker's back"},
        {"seeded-maxr1st", runSeededMaxR1st, o,
         "stale MaxR1st/MinW stamps with no latched failure"},
        {"seeded-dropped-grant", runSeededDroppedGrant, fo,
         "corruption on the watchdog retry leg of a dropped request"},
    };
}

/** Scenario or seeded-bug run by name; fills exploration options. */
const verify::RunFn *
findRun(const std::vector<Scenario> &s, const std::string &name,
        verify::RunFn &bug_storage, ExploreOptions &opts_out)
{
    for (const SeededBug &b : seededBugs())
        if (name == b.name) {
            bug_storage = b.run;
            opts_out = b.opts;
            return &bug_storage;
        }
    for (const Scenario &sc : s)
        if (name == sc.name) {
            opts_out = sc.opts;
            return &sc.run;
        }
    return nullptr;
}

/** Save a found violation's shrunk witness as a schedule file. */
void
saveWitness(const ExploreResult &res, const std::string &scenario,
            bool faults, const std::string &path)
{
    ScheduleFile f;
    f.meta["scenario"] = scenario;
    f.meta["report"] = res.report.substr(0, 200);
    if (faults)
        f.meta["faults"] = "1";
    f.choices = res.witness;
    f.kinds = res.witnessKinds;
    f.save(path);
}

/** Explore one scenario; write a schedule file on violation. */
bool
runScenario(const Scenario &sc, const std::string &out_dir, size_t jobs,
            size_t &runs_out)
{
    std::printf("%-22s ", sc.name);
    std::fflush(stdout);
    ExploreResult res;
    if (jobs > 1) {
        campaign::Options copts;
        copts.jobs = jobs;
        res = exploreParallel(sc.run, sc.opts, 1, copts);
    } else {
        res = explore(sc.run, sc.opts);
    }
    runs_out = res.runs;
    bool ok = !res.violated && !(sc.exhaustive && res.budgetExhausted);
    std::printf("%s  %s\n", ok ? "OK  " : "FAIL",
                res.summary().c_str());
    if (res.violated) {
        std::string path = out_dir + "/" + sc.name + ".schedule";
        saveWitness(res, sc.name, sc.opts.exploreFaults, path);
        std::printf("  witness (%zu choices) -> %s\n",
                    res.witness.size(), path.c_str());
    }
    return ok;
}

int
replaySchedule(const std::string &path)
{
    ScheduleFile f;
    verify::ParseError perr;
    if (!ScheduleFile::tryLoad(path, f, perr)) {
        std::fprintf(stderr, "%s: line %zu: %s\n", path.c_str(),
                     perr.line, perr.message.c_str());
        return 1;
    }
    auto it = f.meta.find("scenario");
    if (it == f.meta.end()) {
        std::fprintf(stderr, "%s: no scenario in metadata\n",
                     path.c_str());
        return 1;
    }
    std::vector<Scenario> s = grid();
    verify::RunFn bug;
    ExploreOptions opts;
    const verify::RunFn *run = findRun(s, it->second, bug, opts);
    if (!run) {
        std::fprintf(stderr, "unknown scenario '%s'\n",
                     it->second.c_str());
        return 1;
    }
    bool faults = opts.exploreFaults || f.hasFaults() ||
                  f.meta.count("faults");
    std::printf("replaying %s (%zu choices%s) ...\n",
                it->second.c_str(), f.choices.size(),
                faults ? ", fault decisions live" : "");
    verify::ReplayController rc(f.choices);
    rc.exploreFaults = faults;
    rc.expectKinds = f.kinds;
    RunVerdict v;
    {
        verify::ScopedScheduleController scope(&rc);
        v = (*run)();
    }
    if (rc.kindMismatch) {
        std::fprintf(stderr,
                     "schedule does not describe this scenario: "
                     "decision kinds diverged during replay\n");
        return 1;
    }
    std::printf("%s%s%s\n", v.ok ? "OK: schedule is clean" : "FAIL: ",
                v.report.c_str(), v.ok ? "" : " (reproduced)");
    return v.ok ? 0 : 2;
}

/** Hunt one seeded bug; shrink, save, and confirm the replay. */
int
demoOneBug(const SeededBug &b, const std::string &out_dir)
{
    std::printf("hunting %s (%s) ...\n", b.name, b.about);
    ExploreResult res = explore(b.run, b.opts);
    if (!res.violated) {
        std::printf("  NOT FOUND (%s) -- seeded bugs must always be "
                    "reachable\n",
                    res.summary().c_str());
        return 1;
    }
    size_t fault_positions = 0;
    for (verify::ChoiceKind k : res.witnessKinds)
        fault_positions += k == verify::ChoiceKind::Fault;
    std::printf("  found after %zu runs: %s\n", res.runs,
                res.report.c_str());
    std::printf("  raw witness: %zu choices, shrunk: %zu "
                "(%zu fault decision(s))\n",
                res.rawWitness.size(), res.witness.size(),
                fault_positions);
    std::string path = out_dir + "/" + b.name + ".schedule";
    saveWitness(res, b.name, b.opts.exploreFaults, path);
    RunVerdict v =
        verify::replay(b.run, res.witness, b.opts.exploreFaults);
    if (v.ok) {
        std::printf("  witness does NOT replay -- shrinking bug?\n");
        return 1;
    }
    std::printf("  schedule -> %s (replay with --replay-schedule)\n",
                path.c_str());
    return 0;
}

int
demoBug(const std::string &which, const std::string &out_dir)
{
    int rc = 0;
    bool matched = false;
    for (const SeededBug &b : seededBugs()) {
        if (which != "all" && which != b.name)
            continue;
        matched = true;
        rc |= demoOneBug(b, out_dir);
    }
    if (!matched) {
        std::fprintf(stderr, "unknown seeded bug '%s'\n",
                     which.c_str());
        return 1;
    }
    return rc;
}

/** DPOR-vs-naive run-count table (EXPERIMENTS.md). */
int
compareModes()
{
    struct Row
    {
        const char *name;
        int nodes, elems;
    };
    const Row rows[] = {
        {"micro-2node", 2, 1},
        {"micro-3node", 3, 1},
        {"micro-3node-2elem", 3, 2},
    };
    std::printf("%-20s %12s %12s %8s %8s\n", "scenario", "naive runs",
                "dpor runs", "races", "pruned");
    for (const Row &r : rows) {
        auto run = [&r] { return runMicroN(r.nodes, r.elems); };
        ExploreOptions no;
        no.maxRuns = 50000; // cap the naive side; DPOR must exhaust
        ExploreResult nres = explore(run, no);
        ExploreOptions dopts;
        dopts.mode = ExploreMode::Dpor;
        dopts.maxRuns = 200000;
        ExploreResult dres = explore(run, dopts);
        char naive[32];
        std::snprintf(naive, sizeof(naive), "%zu%s", nres.runs,
                      nres.budgetExhausted ? "+" : "");
        std::printf("%-20s %12s %12zu %8zu %8zu\n", r.name, naive,
                    dres.runs, dres.races, dres.pruned);
        if (nres.violated || dres.violated) {
            std::printf("violation during comparison: %s\n",
                        (nres.violated ? nres : dres).report.c_str());
            return 2;
        }
        if (dres.budgetExhausted) {
            std::printf("DPOR failed to exhaust %s\n", r.name);
            return 2;
        }
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_dir = ".";
    std::string replay_path;
    std::string only;
    std::string demo_which;
    size_t jobs = 1;
    size_t assert_max_runs = 0;
    bool demo = false;
    bool compare = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "--replay-schedule")
            replay_path = value();
        else if (arg == "--out")
            out_dir = value();
        else if (arg == "--scenario")
            only = value();
        else if (arg == "--jobs")
            jobs = static_cast<size_t>(std::stoul(value()));
        else if (arg == "--assert-max-runs")
            assert_max_runs = static_cast<size_t>(std::stoul(value()));
        else if (arg == "--compare")
            compare = true;
        else if (arg == "--demo-bug") {
            demo = true;
            demo_which = "all";
        } else if (arg.rfind("--demo-bug=", 0) == 0) {
            demo = true;
            demo_which = arg.substr(std::strlen("--demo-bug="));
        } else {
            std::fprintf(stderr,
                         "usage: model_check [--scenario NAME] "
                         "[--jobs N] [--out DIR] [--demo-bug[=NAME]] "
                         "[--replay-schedule FILE] "
                         "[--assert-max-runs N] [--compare]\n");
            return arg == "--help" || arg == "-h" ? 0 : 1;
        }
    }

    if (!replay_path.empty())
        return replaySchedule(replay_path);
    if (demo)
        return demoBug(demo_which, out_dir);
    if (compare)
        return compareModes();

    std::vector<Scenario> s = grid();
    bool all_ok = true;
    size_t worst_runs = 0;
    const char *worst = "";
    for (const Scenario &sc : s) {
        if (!only.empty() && only != sc.name)
            continue;
        // Only the budgeted 3-node sweep is big enough to be worth
        // fanning out.
        size_t j = std::strcmp(sc.name, "micro-3node") == 0 ? jobs : 1;
        size_t runs = 0;
        all_ok &= runScenario(sc, out_dir, j, runs);
        if (runs > worst_runs) {
            worst_runs = runs;
            worst = sc.name;
        }
    }
    if (all_ok && assert_max_runs && worst_runs > assert_max_runs) {
        std::printf("run-count ceiling exceeded: %s used %zu runs "
                    "(ceiling %zu) -- partial-order reduction "
                    "regressed\n",
                    worst, worst_runs, assert_max_runs);
        return 3;
    }
    std::printf("%s\n", all_ok ? "model check: all scenarios clean"
                               : "model check: VIOLATIONS FOUND");
    return all_ok ? 0 : 2;
}
