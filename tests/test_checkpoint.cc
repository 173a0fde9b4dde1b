/** @file Tests of checkpointing (dense programs + sparse hash). */

#include <gtest/gtest.h>

#include "mem/dsm.hh"
#include "runtime/checkpoint.hh"

using namespace specrt;

TEST(CopyProgram, EmitsLoadStorePairs)
{
    IterProgram prog;
    genCopyProgram(0, 1, 10, 14, prog);
    ASSERT_EQ(prog.size(), 8u);
    EXPECT_EQ(prog[0].kind, OpKind::Load);
    EXPECT_EQ(prog[0].arrayId, 0);
    EXPECT_EQ(prog[0].index().imm, 10);
    EXPECT_EQ(prog[1].kind, OpKind::Store);
    EXPECT_EQ(prog[1].arrayId, 1);
    EXPECT_EQ(prog[7].index().imm, 13);
}

TEST(SparseCheckpoint, SavesOnlyFirstValue)
{
    SparseCheckpoint cp(4);
    EXPECT_TRUE(cp.saveIfFirst(0x1000, 7));
    EXPECT_FALSE(cp.saveIfFirst(0x1000, 99));
    EXPECT_TRUE(cp.saveIfFirst(0x1004, 8));
    EXPECT_EQ(cp.numSaved(), 2u);
    EXPECT_TRUE(cp.has(0x1000));
    EXPECT_FALSE(cp.has(0x2000));
}

TEST(SparseCheckpoint, RestoreWritesSavedValues)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    AddrMap mem(cfg);
    const Region &r =
        mem.region(mem.alloc("A", 4096, 4, Placement::Fixed, 0));
    mem.write(r.elemAddr(3), 4, 111);
    mem.write(r.elemAddr(4), 4, 222);

    SparseCheckpoint cp(4);
    cp.saveIfFirst(r.elemAddr(3), mem.read(r.elemAddr(3), 4));
    mem.write(r.elemAddr(3), 4, 999); // speculative pollution
    mem.write(r.elemAddr(4), 4, 888); // never saved: stays polluted

    cp.restore(mem);
    EXPECT_EQ(mem.read(r.elemAddr(3), 4), 111u);
    EXPECT_EQ(mem.read(r.elemAddr(4), 4), 888u);

    cp.clear();
    EXPECT_EQ(cp.numSaved(), 0u);
}

TEST(DenseSnapshot, CaptureRestoreDiff)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    AddrMap mem(cfg);
    const Region &r =
        mem.region(mem.alloc("A", 256, 4, Placement::Fixed, 0));
    for (uint64_t e = 0; e < 64; ++e)
        mem.write(r.elemAddr(e), 4, e);

    DenseSnapshot snap(mem, r);
    EXPECT_EQ(snap.diffBytes(mem), 0u);

    mem.write(r.elemAddr(10), 4, 0xffffffff);
    EXPECT_GT(snap.diffBytes(mem), 0u);

    snap.restore(mem);
    EXPECT_EQ(snap.diffBytes(mem), 0u);
    EXPECT_EQ(mem.read(r.elemAddr(10), 4), 10u);
}

TEST(SparseCheckpoint, RestoreWithZeroDirtyElementsIsANoOp)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    AddrMap mem(cfg);
    const Region &r =
        mem.region(mem.alloc("A", 64, 4, Placement::Fixed, 0));
    for (uint64_t e = 0; e < 16; ++e)
        mem.write(r.elemAddr(e), 4, e + 1);

    // A run that never wrote anything leaves an empty checkpoint;
    // restoring it must touch nothing.
    SparseCheckpoint cp(4);
    ASSERT_EQ(cp.numSaved(), 0u);
    cp.restore(mem);
    for (uint64_t e = 0; e < 16; ++e)
        EXPECT_EQ(mem.read(r.elemAddr(e), 4), e + 1);

    DenseSnapshot snap(mem, r);
    snap.restore(mem); // equally untouched
    EXPECT_EQ(snap.diffBytes(mem), 0u);
}

TEST(SparseCheckpoint, DoubleRestoreIsIdempotentAndNotConsuming)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    AddrMap mem(cfg);
    const Region &r =
        mem.region(mem.alloc("A", 64, 4, Placement::Fixed, 0));
    mem.write(r.elemAddr(0), 4, 10);
    mem.write(r.elemAddr(1), 4, 20);

    SparseCheckpoint cp(4);
    cp.saveIfFirst(r.elemAddr(0), 10);
    cp.saveIfFirst(r.elemAddr(1), 20);
    mem.write(r.elemAddr(0), 4, 77);
    mem.write(r.elemAddr(1), 4, 88);

    cp.restore(mem);
    cp.restore(mem); // back-to-back: same result, no crash
    EXPECT_EQ(mem.read(r.elemAddr(0), 4), 10u);
    EXPECT_EQ(mem.read(r.elemAddr(1), 4), 20u);

    // The checkpoint is not consumed by restore: a second abort (new
    // pollution after the first restore) is recoverable too.
    mem.write(r.elemAddr(1), 4, 99);
    cp.restore(mem);
    EXPECT_EQ(mem.read(r.elemAddr(1), 4), 20u);
    EXPECT_EQ(cp.numSaved(), 2u);
}

TEST(DenseSnapshot, RestoreAfterPartialCommitUndoesTheCommit)
{
    // An aborted speculative run may already have copied some
    // privatized results out into the shared array (the abort can
    // arrive mid copy-out). The backup restore must undo those
    // partial commits along with ordinary speculative pollution.
    MachineConfig cfg;
    cfg.numProcs = 2;
    AddrMap mem(cfg);
    const Region &shared =
        mem.region(mem.alloc("A", 64, 4, Placement::Fixed, 0));
    const Region &priv =
        mem.region(mem.alloc("A_priv", 64, 4, Placement::Fixed, 1));
    for (uint64_t e = 0; e < 16; ++e)
        mem.write(shared.elemAddr(e), 4, e + 1);

    DenseSnapshot backup(mem, shared);

    // Speculative run computes into the private copy...
    for (uint64_t e = 0; e < 16; ++e)
        mem.write(priv.elemAddr(e), 4, 1000 + e);
    // ...and a partial copy-out commits only elements [0, 8) before
    // the failure is detected.
    for (uint64_t e = 0; e < 8; ++e)
        mem.write(shared.elemAddr(e), 4,
                  mem.read(priv.elemAddr(e), 4));
    ASSERT_GT(backup.diffBytes(mem), 0u);

    backup.restore(mem);
    EXPECT_EQ(backup.diffBytes(mem), 0u);
    for (uint64_t e = 0; e < 16; ++e)
        EXPECT_EQ(mem.read(shared.elemAddr(e), 4), e + 1)
            << "element " << e;
}

#include "sim/sim_context.hh"
#include "verify/explorer.hh"

namespace
{

/**
 * One run for the explorer: two nodes store into a checkpointed
 * region with the requester watchdog enabled, then the checkpoint is
 * restored TWICE. The verdict asserts quiescence and that both
 * restores land the same pre-store values -- i.e.\ restore is
 * idempotent and not consuming on every explored schedule, including
 * the ones where the explorer chose to drop (watchdog retry) or
 * duplicate a message.
 */
verify::RunVerdict
checkpointedFaultRun()
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    cfg.fault.watchdogTimeout = 2000;
    DsmSystem dsm(cfg);
    AddrMap &mem = dsm.memory();
    const Region &r =
        mem.region(mem.alloc("A", 8, 4, Placement::Fixed, 0));
    mem.write(r.elemAddr(0), 4, 7);
    mem.write(r.elemAddr(1), 4, 9);

    SparseCheckpoint cp(4);
    cp.saveIfFirst(r.elemAddr(0), mem.read(r.elemAddr(0), 4));
    cp.saveIfFirst(r.elemAddr(1), mem.read(r.elemAddr(1), 4));

    dsm.cacheCtrl(0).store(r.elemAddr(0), 4, 100, 1);
    dsm.cacheCtrl(1).store(r.elemAddr(1), 4, 200, 1);
    dsm.eventQueue().run();
    bool quiesced = dsm.quiescent();
    dsm.resetMachine(true); // flush dirty lines into memory

    verify::RunVerdict v;
    std::string err;
    if (!quiesced)
        err += "not quiescent after drain; ";
    uint64_t s0 = mem.read(r.elemAddr(0), 4);
    uint64_t s1 = mem.read(r.elemAddr(1), 4);
    if (s0 != 100 || s1 != 200)
        err += "stores lost (" + std::to_string(s0) + ", " +
               std::to_string(s1) + "); ";
    for (int pass = 1; pass <= 2; ++pass) {
        cp.restore(mem);
        if (mem.read(r.elemAddr(0), 4) != 7 ||
            mem.read(r.elemAddr(1), 4) != 9)
            err += "restore pass " + std::to_string(pass) +
                   " did not reproduce the checkpoint; ";
    }
    v.report = err;
    v.ok = err.empty();
    return v;
}

} // namespace

TEST(SparseCheckpoint, RestoreIdempotentUnderExploredFaultSchedules)
{
    // Every single-fault placement (drop-then-retry or duplicate
    // delivery) interleaved with delivery-order choices: the
    // checkpoint contract must hold on all of them.
    verify::ExploreOptions o;
    o.exploreFaults = true;
    o.maxFaults = 1;
    o.maxRuns = 20000;
    verify::ExploreResult res = verify::explore(checkpointedFaultRun, o);
    EXPECT_FALSE(res.violated) << res.report;
    EXPECT_FALSE(res.budgetExhausted) << res.summary();
    EXPECT_GT(res.runs, 1u);
}
