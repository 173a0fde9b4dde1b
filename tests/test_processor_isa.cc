/** @file Tests of the micro-ISA and the processor model's timing. */

#include <gtest/gtest.h>

#include "mem/dsm.hh"
#include "runtime/processor.hh"
#include "runtime/scheduler.hh"

using namespace specrt;

TEST(Isa, AluSemantics)
{
    EXPECT_EQ(evalAlu(AluOp::Add, 3, 4), 7);
    EXPECT_EQ(evalAlu(AluOp::Sub, 3, 4), -1);
    EXPECT_EQ(evalAlu(AluOp::Mul, 3, 4), 12);
    EXPECT_EQ(evalAlu(AluOp::And, 6, 3), 2);
    EXPECT_EQ(evalAlu(AluOp::Or, 6, 3), 7);
    EXPECT_EQ(evalAlu(AluOp::Xor, 6, 3), 5);
    EXPECT_EQ(evalAlu(AluOp::Min, 6, 3), 3);
    EXPECT_EQ(evalAlu(AluOp::Max, 6, 3), 6);
    EXPECT_EQ(evalAlu(AluOp::Mod, -1, 5), 4);
    EXPECT_EQ(evalAlu(AluOp::Shr, 256, 3), 32);
}

TEST(Isa, BuildersFillFields)
{
    Op l = opLoad(3, 1, IndexOperand::fromReg(2));
    EXPECT_EQ(l.kind, OpKind::Load);
    EXPECT_EQ(l.dst, 3);
    EXPECT_EQ(l.arrayId, 1);
    EXPECT_TRUE(l.index().isReg);

    Op s = opStore(0, 17, 4);
    EXPECT_EQ(s.kind, OpKind::Store);
    EXPECT_EQ(s.index().imm, 17);
    EXPECT_EQ(s.srcA, 4);

    EXPECT_FALSE(opToString(opBusy(3)).empty());
    EXPECT_NE(opToString(l).find("load"), std::string::npos);
}

TEST(Isa, BuildersRoundTripThroughPackedOp)
{
    for (int64_t v : {int64_t(0), int64_t(-1), int64_t(-4096),
                      INT64_MIN, INT64_MAX, int64_t(0xffff)}) {
        Op op = opImm(31, v);
        EXPECT_EQ(op.kind, OpKind::Imm);
        EXPECT_EQ(op.dst, 31);
        EXPECT_EQ(op.imm(), v);
        EXPECT_FALSE(op.isReduction());
    }

    Op alu = opAlu(7, AluOp::Shr, 29, 27);
    EXPECT_EQ(alu.kind, OpKind::Alu);
    EXPECT_EQ(alu.dst, 7);
    EXPECT_EQ(alu.alu, AluOp::Shr);
    EXPECT_EQ(alu.srcA, 29);
    EXPECT_EQ(alu.srcB, 27);

    // Track's flop cost (22 cycles) is the largest Busy any shipped
    // workload emits; the validator's plausibility ceiling and a
    // 64-bit duration round-trip too.
    for (Cycles c : {Cycles(0), Cycles(1), Cycles(22), Cycles(1000000),
                     Cycles(1) << 40}) {
        Op busy = opBusy(c);
        EXPECT_EQ(busy.kind, OpKind::Busy);
        EXPECT_EQ(busy.cycles(), c);
    }

    for (bool red : {false, true}) {
        for (int array : {0, 1, 300, INT16_MAX}) {
            Op l = red ? opLoadRed(5, array, IndexOperand::fromReg(28))
                       : opLoad(5, array, IndexOperand::fromReg(28));
            EXPECT_EQ(l.kind, OpKind::Load);
            EXPECT_EQ(l.dst, 5);
            EXPECT_EQ(l.arrayId, array);
            EXPECT_TRUE(l.index().isReg);
            EXPECT_EQ(l.index().reg, 28);
            EXPECT_EQ(l.isReduction(), red);

            for (int64_t idx : {int64_t(0), int64_t(4095), int64_t(-3),
                                int64_t(1) << 40}) {
                Op s = red ? opStoreRed(array,
                                        IndexOperand::immediate(idx), 9)
                           : opStore(array, idx, 9);
                EXPECT_EQ(s.kind, OpKind::Store);
                EXPECT_EQ(s.srcA, 9);
                EXPECT_EQ(s.arrayId, array);
                EXPECT_FALSE(s.index().isReg);
                EXPECT_EQ(s.index().imm, idx);
                EXPECT_EQ(s.isReduction(), red);

                Op li = opLoad(2, array, idx);
                EXPECT_FALSE(li.index().isReg);
                EXPECT_EQ(li.index().imm, idx);
                EXPECT_FALSE(li.isReduction());
            }

            Op sr = red ? opStoreRed(array, IndexOperand::fromReg(1), 4)
                        : opStore(array, IndexOperand::fromReg(1), 4);
            EXPECT_TRUE(sr.index().isReg);
            EXPECT_EQ(sr.index().reg, 1);
            EXPECT_EQ(sr.srcA, 4);
        }
    }
}

namespace
{

/** One-processor harness running a single program. */
struct Harness
{
    MachineConfig cfg;
    std::unique_ptr<DsmSystem> dsm;
    std::unique_ptr<Processor> proc;
    const Region *r;
    std::vector<ArrayBinding> bindings;

    Harness()
    {
        cfg.numProcs = 2;
        dsm = std::make_unique<DsmSystem>(cfg);
        int id = dsm->memory().alloc("A", 64 * 1024, 4,
                                     Placement::Fixed, 0);
        r = &dsm->memory().region(id);
        for (uint64_t e = 0; e < 64; ++e)
            dsm->memory().write(r->elemAddr(e), 4, e * 10);
        proc = std::make_unique<Processor>(0, dsm->eventQueue(),
                                           dsm->cacheCtrl(0), cfg);
        bindings.push_back({r, false, -1});
        proc->setBindings(&bindings);
    }

    /** Run one program as the sole iteration; return elapsed ticks. */
    Tick
    run(const IterProgram &prog)
    {
        StaticChunkSource src(1, 1);
        bool done = false;
        Tick t0 = dsm->eventQueue().curTick();
        proc->startPhase(
            &src,
            [&prog](IterNum, IterProgram &out) { out = prog; }, false,
            [&done](NodeId) { done = true; });
        dsm->eventQueue().run();
        EXPECT_TRUE(done);
        return dsm->eventQueue().curTick() - t0;
    }
};

} // namespace

TEST(Processor, BusyOpsTakeTheirCycles)
{
    Harness h;
    IterProgram prog = {opBusy(10), opBusy(5)};
    Tick t = h.run(prog);
    EXPECT_EQ(t, 15u);
    EXPECT_EQ(h.proc->busyCycles(), 15.0);
    EXPECT_EQ(h.proc->memCycles(), 0.0);
}

TEST(Processor, AluChainComputesAndCosts)
{
    Harness h;
    IterProgram prog = {
        opImm(1, 6), opImm(2, 7), opAlu(3, AluOp::Mul, 1, 2),
        opStore(0, 0, 3),
    };
    h.run(prog);
    h.dsm->resetMachine(true);
    EXPECT_EQ(h.dsm->memory().read(h.r->elemAddr(0), 4), 42u);
    EXPECT_EQ(h.proc->busyCycles(), 4.0);
}

TEST(Processor, LoadLatencyGoesToMemTime)
{
    Harness h;
    IterProgram prog = {opLoad(1, 0, 5)};
    h.run(prog);
    // Local memory miss: 60 cycles total = 1 busy + 59 stall.
    EXPECT_EQ(h.proc->busyCycles(), 1.0);
    EXPECT_EQ(h.proc->memCycles(), 59.0);
}

TEST(Processor, CachedLoadHasNoMemTime)
{
    Harness h;
    IterProgram prog = {opLoad(1, 0, 5), opLoad(2, 0, 5)};
    h.run(prog);
    EXPECT_EQ(h.proc->memCycles(), 59.0); // only the first one
    EXPECT_EQ(h.proc->busyCycles(), 2.0);
}

TEST(Processor, IndirectIndexingUsesRegisterValue)
{
    Harness h;
    // A[3] holds 30; use it (scaled) as an index: A[30/10]=A[3]...
    // Simpler: load A[4]=40, shift to 5, load A[5]=50.
    IterProgram prog = {
        opImm(1, 4),
        opLoad(2, 0, IndexOperand::fromReg(1)), // r2 = 40
        opImm(3, 3),
        opAlu(4, AluOp::Shr, 2, 3),             // r4 = 5
        opLoad(5, 0, IndexOperand::fromReg(4)), // r5 = A[5] = 50
        opStore(0, 60, 5),
    };
    h.run(prog);
    h.dsm->resetMachine(true);
    EXPECT_EQ(h.dsm->memory().read(h.r->elemAddr(60), 4), 50u);
}

TEST(Processor, StoresDontStallUntilBufferFull)
{
    Harness h;
    IterProgram prog;
    // More distinct-line stores than write-buffer entries.
    for (int i = 0; i < h.cfg.writeBufferEntries + 4; ++i)
        prog.push_back(opStore(0, i * 16, 1)); // 16 elems = 1 line
    h.run(prog);
    EXPECT_GT(h.proc->memCycles(), 0.0); // eventually stalled
    EXPECT_EQ(h.proc->busyCycles(),
              static_cast<double>(h.cfg.writeBufferEntries + 4));
}

TEST(Processor, RegistersClearBetweenIterations)
{
    Harness h;
    StaticChunkSource src(2, 1);
    std::vector<int64_t> seen;
    bool done = false;
    h.proc->startPhase(
        &src,
        [&](IterNum i, IterProgram &out) {
            if (i == 1) {
                out = {opImm(7, 99), opStore(0, 1, 7)};
            } else {
                // r7 must be 0 again in iteration 2.
                out = {opStore(0, 2, 7)};
            }
        },
        false, [&done](NodeId) { done = true; });
    h.dsm->eventQueue().run();
    EXPECT_TRUE(done);
    h.dsm->resetMachine(true);
    EXPECT_EQ(h.dsm->memory().read(h.r->elemAddr(1), 4), 99u);
    EXPECT_EQ(h.dsm->memory().read(h.r->elemAddr(2), 4), 0u);
}

TEST(Processor, SchedulingDelayCountsAsSync)
{
    Harness h;
    DynamicSource src(1, 1, 100);
    bool done = false;
    h.proc->startPhase(
        &src, [](IterNum, IterProgram &out) { out = {opBusy(1)}; },
        false, [&done](NodeId) { done = true; });
    h.dsm->eventQueue().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(h.proc->syncCycles(), 100.0);
}

TEST(Processor, IterationCountsAreTracked)
{
    Harness h;
    StaticChunkSource src(5, 1);
    bool done = false;
    h.proc->startPhase(
        &src, [](IterNum, IterProgram &out) { out = {opBusy(2)}; },
        false, [&done](NodeId) { done = true; });
    h.dsm->eventQueue().run();
    EXPECT_EQ(h.proc->itersExecuted(), 5u);
}
