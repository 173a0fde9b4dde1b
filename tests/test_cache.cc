/** @file Unit tests for the two-level cache arrays. */

#include <gtest/gtest.h>

#include <random>

#include "mem/cache.hh"

using namespace specrt;

namespace
{

MachineConfig
tinyCfg()
{
    MachineConfig cfg;
    cfg.l1 = {1024, 64};   // 16 lines
    cfg.l2 = {4096, 64};   // 64 lines
    return cfg;
}

std::vector<uint8_t>
pattern(uint8_t seed)
{
    std::vector<uint8_t> data(64);
    for (int i = 0; i < 64; ++i)
        data[i] = static_cast<uint8_t>(seed + i);
    return data;
}

} // namespace

TEST(NodeCache, IndexingWrapsBySetCount)
{
    NodeCache cache(tinyCfg());
    EXPECT_EQ(cache.numL2Lines(), 64u);
    EXPECT_EQ(cache.l2Index(0), cache.l2Index(64 * 64));
    EXPECT_NE(cache.l2Index(0), cache.l2Index(64));
    EXPECT_EQ(cache.lineAlign(0x12345), 0x12340u);
}

TEST(NodeCache, FillThenFind)
{
    NodeCache cache(tinyCfg());
    auto data = pattern(1);
    EvictedLine victim;
    EXPECT_FALSE(cache.fill(0x1000, LineState::Shared, data.data(),
                            &victim));
    const LineTag *line = cache.findLine(0x1010);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, LineState::Shared);
    EXPECT_TRUE(cache.l1Hit(0x1010));
}

TEST(NodeCache, ConflictEvictsVictim)
{
    NodeCache cache(tinyCfg());
    auto d1 = pattern(1);
    auto d2 = pattern(2);
    EvictedLine victim;
    cache.fill(0x0, LineState::Dirty, d1.data(), &victim);
    // Same L2 set: stride = 64 lines * 64 bytes.
    EXPECT_TRUE(cache.fill(64 * 64, LineState::Shared, d2.data(),
                           &victim));
    EXPECT_EQ(victim.addr, 0u);
    EXPECT_EQ(victim.state, LineState::Dirty);
    EXPECT_EQ(victim.data[0], d1[0]);
    EXPECT_EQ(cache.findLine(0x0), nullptr);
    EXPECT_FALSE(cache.l1Hit(0x0)); // inclusion: L1 dropped too
}

TEST(NodeCache, WordReadWrite)
{
    NodeCache cache(tinyCfg());
    auto data = pattern(0);
    EvictedLine victim;
    cache.fill(0x2000, LineState::Dirty, data.data(), &victim);
    cache.writeWord(0x2008, 4, 0xaabbccdd);
    EXPECT_EQ(cache.readWord(0x2008, 4), 0xaabbccddu);
    // Neighbouring words untouched.
    EXPECT_EQ(cache.readWord(0x200c, 1), data[12]);
}

TEST(NodeCache, InvalidateDropsBothLevels)
{
    NodeCache cache(tinyCfg());
    auto data = pattern(3);
    EvictedLine victim;
    cache.fill(0x3000, LineState::Shared, data.data(), &victim);
    cache.invalidate(0x3000);
    EXPECT_EQ(cache.findLine(0x3000), nullptr);
    EXPECT_FALSE(cache.l1Hit(0x3000));
}

TEST(NodeCache, L1IsAFilterOverL2)
{
    NodeCache cache(tinyCfg());
    auto d1 = pattern(1);
    auto d2 = pattern(2);
    EvictedLine victim;
    cache.fill(0x0000, LineState::Shared, d1.data(), &victim);
    // L1 has 16 sets; 16 lines later maps to the same L1 set but a
    // different L2 set.
    cache.fill(16 * 64, LineState::Shared, d2.data(), &victim);
    EXPECT_FALSE(cache.l1Hit(0x0000));      // displaced from L1...
    EXPECT_NE(cache.findLine(0x0000), nullptr); // ...but still in L2
    cache.l1Fill(0x0000);
    EXPECT_TRUE(cache.l1Hit(0x0000));
}

TEST(NodeCache, FlushCollectsDirtyVictims)
{
    NodeCache cache(tinyCfg());
    auto d = pattern(9);
    EvictedLine victim;
    // Adjacent lines: different L2 sets, both resident.
    cache.fill(0x1000, LineState::Dirty, d.data(), &victim);
    cache.fill(0x1040, LineState::Shared, d.data(), &victim);
    std::vector<EvictedLine> victims;
    cache.flushAll(&victims);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0].addr, 0x1000u);
    EXPECT_EQ(cache.findLine(0x1000), nullptr);
    EXPECT_EQ(cache.findLine(0x1040), nullptr);

    // Filled in descending address order, returned in slot order; an
    // invalidated slot refilled with another line of its set counts
    // once, with its new line.
    cache.fill(0x1c0, LineState::Dirty, d.data(), &victim);  // slot 7
    cache.fill(0x080, LineState::Shared, d.data(), &victim); // slot 2
    cache.fill(0x040, LineState::Dirty, d.data(), &victim);  // slot 1
    cache.fill(0x100, LineState::Dirty, d.data(), &victim);  // slot 4
    cache.invalidate(0x100);
    cache.fill(0x100 + 64 * 64, LineState::Dirty, d.data(), &victim);
    victims.clear();
    cache.flushAll(&victims);
    ASSERT_EQ(victims.size(), 3u);
    EXPECT_EQ(victims[0].addr, 0x040u);
    EXPECT_EQ(victims[1].addr, 0x100u + 64 * 64);
    EXPECT_EQ(victims[2].addr, 0x1c0u);
}

TEST(NodeCache, RefillSameLineKeepsVictimOut)
{
    NodeCache cache(tinyCfg());
    auto d1 = pattern(1);
    auto d2 = pattern(2);
    EvictedLine victim;
    cache.fill(0x1000, LineState::Shared, d1.data(), &victim);
    // Refill of the very same line must not report a victim.
    EXPECT_FALSE(cache.fill(0x1000, LineState::Dirty, d2.data(),
                            &victim));
    EXPECT_EQ(cache.findLine(0x1000)->state, LineState::Dirty);
    EXPECT_EQ(cache.readWord(0x1000, 1), d2[0]);
}

namespace
{

/** A dirty line as a full scan of the tag array reports it. */
struct DirtyLine
{
    Addr addr;
    std::vector<uint8_t> data;

    bool
    operator==(const DirtyLine &o) const
    {
        return addr == o.addr && data == o.data;
    }
};

std::vector<DirtyLine>
scanDirty(const NodeCache &cache)
{
    std::vector<DirtyLine> out;
    cache.forEachLine([&](const LineTag &t, const uint8_t *data) {
        if (t.state == LineState::Dirty)
            out.push_back(
                {t.addr, std::vector<uint8_t>(data,
                                              data + cache.lineBytes())});
    });
    return out;
}

/**
 * Drive @p cache through seeded fill / conflict-evict / invalidate /
 * refill / write sequences, flushing between rounds, and check that
 * every flushAll() returns exactly the dirty lines of a full scan, in
 * slot order, and leaves the cache empty.
 */
void
checkFlushMatchesScan(uint32_t line_bytes)
{
    MachineConfig cfg;
    cfg.l1 = {8 * line_bytes, line_bytes};   // 8 L1 sets
    cfg.l2 = {32 * line_bytes, line_bytes};  // 32 L2 sets
    NodeCache cache(cfg);
    ASSERT_EQ(cache.numL2Lines(), 32u);

    std::mt19937_64 rng(line_bytes);
    std::vector<uint8_t> bytes(line_bytes);
    // Three times the L2 span: every set sees conflicting lines.
    const uint64_t window = 3 * 32;
    for (int round = 0; round < 20; ++round) {
        int ops = 1 + static_cast<int>(rng() % 120);
        for (int k = 0; k < ops; ++k) {
            Addr line = (1 + rng() % window) * line_bytes;
            switch (rng() % 4) {
              case 0:
              case 1: {
                for (uint8_t &b : bytes)
                    b = static_cast<uint8_t>(rng());
                LineState st = rng() % 2 ? LineState::Dirty
                                         : LineState::Shared;
                EvictedLine victim;
                const LineTag *before = cache.findLine(line);
                Addr occupant = invalidAddr;
                cache.forEachLine([&](const LineTag &t, const uint8_t *) {
                    if (cache.l2Index(t.addr) == cache.l2Index(line))
                        occupant = t.addr;
                });
                bool displaced =
                    cache.fill(line, st, bytes.data(), &victim);
                EXPECT_EQ(displaced,
                          !before && occupant != invalidAddr);
                if (displaced) {
                    EXPECT_EQ(victim.addr, occupant);
                }
                EXPECT_EQ(cache.readWord(line, 1), bytes[0]);
                break;
              }
              case 2:
                cache.invalidate(line);
                EXPECT_EQ(cache.findLine(line), nullptr);
                break;
              default:
                if (LineTag *t = cache.findLine(line)) {
                    if (t->state == LineState::Dirty)
                        cache.writeWord(line + line_bytes - 4, 4,
                                        rng());
                }
                break;
            }
        }
        std::vector<DirtyLine> expect = scanDirty(cache);
        std::vector<EvictedLine> victims;
        cache.flushAll(&victims);
        ASSERT_EQ(victims.size(), expect.size()) << "round " << round;
        for (size_t i = 0; i < victims.size(); ++i) {
            EXPECT_EQ(victims[i].state, LineState::Dirty);
            DirtyLine got{victims[i].addr,
                          std::vector<uint8_t>(victims[i].data.data(),
                                               victims[i].data.data() +
                                                   victims[i].data.size())};
            EXPECT_EQ(got, expect[i]) << "round " << round << " #" << i;
        }
        size_t left = 0;
        cache.forEachLine([&](const LineTag &, const uint8_t *) {
            ++left;
        });
        EXPECT_EQ(left, 0u);
        for (uint64_t l = 1; l <= window; ++l) {
            EXPECT_EQ(cache.findLine(l * line_bytes), nullptr);
            EXPECT_FALSE(cache.l1TagHit(l * line_bytes));
        }
    }
}

} // namespace

TEST(NodeCache, FlushMatchesFullScan)
{
    for (uint32_t line_bytes : {32u, 64u, 128u}) {
        SCOPED_TRACE(line_bytes);
        checkFlushMatchesScan(line_bytes);
    }
}
