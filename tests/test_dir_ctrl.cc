/**
 * @file
 * Directory-controller behavior: per-line serialization, controller
 * occupancy, superseded writebacks (forward served from the
 * writeback buffer), and transaction bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "mem/directory.hh"
#include "mem/dsm.hh"

using namespace specrt;

namespace
{

struct Rig
{
    MachineConfig cfg;
    std::unique_ptr<DsmSystem> dsm;
    const Region *r;

    explicit Rig(int procs = 4)
    {
        cfg.numProcs = procs;
        dsm = std::make_unique<DsmSystem>(cfg);
        int id = dsm->memory().alloc("A", 1024 * 1024 + 4096, 4,
                                     Placement::Fixed, 0);
        r = &dsm->memory().region(id);
        for (uint64_t e = 0; e < 256; ++e)
            dsm->memory().write(r->elemAddr(e), 4, e + 1);
    }

    Tick
    loadLatency(NodeId n, Addr a)
    {
        Tick t0 = dsm->eventQueue().curTick();
        Tick t1 = t0;
        dsm->cacheCtrl(n).load(a, 4, 1, [&](uint64_t) {
            t1 = dsm->eventQueue().curTick();
        });
        dsm->eventQueue().run();
        return t1 - t0;
    }
};

} // namespace

TEST(DirCtrl, SameLineRequestsSerialize)
{
    Rig rig;
    // Two reads of the same (cold) line issued in the same cycle
    // from different nodes: the second waits for the first
    // transaction to complete at the home.
    Tick t1 = 0, t2 = 0;
    rig.dsm->cacheCtrl(1).load(rig.r->base, 4, 1, [&](uint64_t) {
        t1 = rig.dsm->eventQueue().curTick();
    });
    rig.dsm->cacheCtrl(2).load(rig.r->base, 4, 1, [&](uint64_t) {
        t2 = rig.dsm->eventQueue().curTick();
    });
    rig.dsm->eventQueue().run();
    EXPECT_EQ(std::min(t1, t2), 208u);
    EXPECT_GT(std::max(t1, t2), 208u); // strictly serialized
    EXPECT_EQ(rig.dsm->dirCtrl(0).numTxns(), 2u);
}

TEST(DirCtrl, DifferentLinesOnlyPayOccupancy)
{
    Rig rig;
    Tick t1 = 0, t2 = 0;
    rig.dsm->cacheCtrl(1).load(rig.r->base, 4, 1, [&](uint64_t) {
        t1 = rig.dsm->eventQueue().curTick();
    });
    rig.dsm->cacheCtrl(2).load(rig.r->base + 64, 4, 1, [&](uint64_t) {
        t2 = rig.dsm->eventQueue().curTick();
    });
    rig.dsm->eventQueue().run();
    // The controller pipeline separates them by at most the
    // occupancy, not by a full transaction.
    EXPECT_EQ(std::min(t1, t2), 208u);
    EXPECT_LE(std::max(t1, t2), 208u + rig.cfg.lat.dirOccupancy);
}

TEST(DirCtrl, SupersededWritebackIsDropped)
{
    Rig rig;
    // Node 1 dirties a line, then evicts it (writeback in flight via
    // a conflicting fill), while node 2 writes the same line. The
    // forward may catch node 1 with the line only in its writeback
    // buffer; the home must then drop node 1's writeback as
    // superseded and node 2 must end up the owner with fresh data.
    rig.dsm->cacheCtrl(1).store(rig.r->base, 4, 4141, 1);
    rig.dsm->eventQueue().run();

    // Evict: fill the same L2 set (8192 lines away) with a load.
    rig.dsm->cacheCtrl(1).load(rig.r->base + 8192 * 64, 4, 1,
                               [](uint64_t) {});
    // Same cycle: node 2 writes the line.
    rig.dsm->cacheCtrl(2).store(rig.r->base, 4, 4242, 1);
    rig.dsm->eventQueue().run();

    EXPECT_TRUE(rig.dsm->cacheCtrl(1).quiescent());
    EXPECT_TRUE(rig.dsm->cacheCtrl(2).quiescent());

    const DirEntry *e =
        rig.dsm->dirCtrl(0).directory().find(rig.r->base);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Dirty);
    EXPECT_EQ(e->owner, 2);

    // Node 2's value survives.
    uint64_t v = 0;
    rig.dsm->cacheCtrl(3).load(rig.r->base, 4, 1,
                               [&](uint64_t val) { v = val; });
    rig.dsm->eventQueue().run();
    EXPECT_EQ(v, 4242u);
}

TEST(DirCtrl, BackToBackSharersThenUpgrade)
{
    Rig rig(8);
    for (NodeId n = 1; n < 8; ++n)
        rig.loadLatency(n, rig.r->base);
    const DirEntry *e =
        rig.dsm->dirCtrl(0).directory().find(rig.r->base);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->numSharers(), 7);

    rig.dsm->cacheCtrl(4).store(rig.r->base, 4, 99, 1);
    rig.dsm->eventQueue().run();
    e = rig.dsm->dirCtrl(0).directory().find(rig.r->base);
    EXPECT_EQ(e->state, DirState::Dirty);
    EXPECT_EQ(e->owner, 4);
}

TEST(DirCtrl, ResetForgetsDirectoryState)
{
    Rig rig;
    rig.loadLatency(1, rig.r->base);
    EXPECT_NE(rig.dsm->dirCtrl(0).directory().find(rig.r->base),
              nullptr);
    rig.dsm->resetMachine(true);
    EXPECT_EQ(rig.dsm->dirCtrl(0).directory().find(rig.r->base),
              nullptr);
    EXPECT_EQ(rig.dsm->dirCtrl(0).directory().numEntries(), 0u);
}

TEST(DirCtrl, WritebackMakesLineUncached)
{
    Rig rig;
    rig.dsm->cacheCtrl(1).store(rig.r->base, 4, 7, 1);
    rig.dsm->eventQueue().run();
    rig.dsm->cacheCtrl(1).load(rig.r->base + 8192 * 64, 4, 1,
                               [](uint64_t) {});
    rig.dsm->eventQueue().run();
    const DirEntry *e =
        rig.dsm->dirCtrl(0).directory().find(rig.r->base);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->state, DirState::Uncached);
    EXPECT_EQ(rig.dsm->memory().read(rig.r->base, 4), 7u);
}

TEST(Directory, ClearForgetsDenseAndOverflowEntries)
{
    Directory dir(64);
    // Dense window: line ids below 2^24; overflow past 1 GiB.
    const Addr overflowBase = Addr(1) << 40;
    std::set<Addr> lines;
    for (Addr a : {Addr(0x1000), Addr(0x1040), Addr(0x200000),
                   overflowBase, overflowBase + 0x40}) {
        DirEntry &e = dir.entry(a);
        e.state = DirState::Shared;
        e.addSharer(3);
        dir.entry(a); // a second touch materializes nothing new
        lines.insert(a);
    }
    EXPECT_EQ(dir.numEntries(), lines.size());
    std::set<Addr> seen;
    dir.forEach([&](Addr a, const DirEntry &) { seen.insert(a); });
    EXPECT_EQ(seen, lines);

    for (int round = 0; round < 2; ++round) {
        dir.clear();
        EXPECT_EQ(dir.numEntries(), 0u);
        size_t visited = 0;
        dir.forEach([&](Addr, const DirEntry &) { ++visited; });
        EXPECT_EQ(visited, 0u);
        for (Addr a : lines)
            EXPECT_EQ(dir.find(a), nullptr);
        // Re-touched entries start over as Uncached.
        const DirEntry &e = dir.entry(0x1040);
        EXPECT_EQ(e.state, DirState::Uncached);
        EXPECT_EQ(e.sharers, 0u);
        EXPECT_EQ(dir.numEntries(), 1u);
    }
}

TEST(Directory, PagedTableVisitsLinesInAddressOrder)
{
    Directory dir(64);
    // Line ids on both sides of page boundaries, one far page, and
    // first touches out of address order.
    const std::vector<Addr> order = {Addr(128) << 6, Addr(63) << 6,
                                     Addr(5000) << 6, Addr(64) << 6,
                                     Addr(127) << 6, Addr(0)};
    for (Addr a : order)
        dir.entry(a).addSharer(1);
    std::vector<Addr> seen;
    dir.forEach([&](Addr a, const DirEntry &e) {
        EXPECT_TRUE(e.isSharer(1));
        seen.push_back(a);
    });
    std::vector<Addr> sorted = order;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(seen, sorted);
    // Untouched lines: in an allocated page, in a page between
    // allocated ones, and past the last page.
    EXPECT_EQ(dir.find(Addr(62) << 6), nullptr);
    EXPECT_EQ(dir.find(Addr(1000) << 6), nullptr);
    EXPECT_EQ(dir.find(Addr(9000) << 6), nullptr);
    EXPECT_NE(dir.find(Addr(5000) << 6), nullptr);
}
