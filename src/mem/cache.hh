/**
 * @file
 * Direct-mapped cache arrays for one node.
 *
 * The node-visible coherence state and the line data live in the L2
 * array (the node's copy exists once). The L1 array is a tag-only
 * presence filter used for latency: an address "hits in L1" when the
 * L1 set holds its tag AND the L2 holds the line (inclusion). L2
 * evictions invalidate any matching L1 entry.
 */

#ifndef SPECRT_MEM_CACHE_HH
#define SPECRT_MEM_CACHE_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/config.hh"
#include "sim/small_vec.hh"
#include "sim/types.hh"

namespace specrt
{

/** Node-level coherence state of a line. */
enum class LineState : uint8_t
{
    Invalid,
    Shared,  ///< clean, possibly multiple nodes
    Dirty,   ///< exclusive modified, memory stale
};

const char *lineStateName(LineState s);

/** Tag of one L2 slot: the line it holds and the line's state. */
struct LineTag
{
    Addr addr = invalidAddr;      ///< line-aligned address
    LineState state = LineState::Invalid;

    bool valid() const { return state != LineState::Invalid; }
};

/**
 * A line copied out of the cache with its data: a conflict victim of
 * fill() or a dirty line collected by flushAll().
 */
struct EvictedLine
{
    Addr addr = invalidAddr;
    LineState state = LineState::Invalid;
    SmallVec<uint8_t, 64> data;
};

/**
 * The two-level cache structure of one node.
 *
 * L2 storage is split: a compact tag array (16 bytes per slot, the
 * only part lookups touch) and one contiguous data block holding slot
 * s's bytes at s * lineBytes. The data block is allocated without
 * zero-fill -- an invalid slot's data is never read -- and the slots
 * filled since the last flush are listed, so flushAll() works in the
 * number of lines a run touched, not in the cache size.
 */
class NodeCache
{
  public:
    NodeCache(const MachineConfig &config);

    uint32_t lineBytes() const { return _lineBytes; }
    uint64_t numL2Lines() const { return tags.size(); }

    Addr lineAlign(Addr a) const { return a & ~Addr(_lineBytes - 1); }

    /**
     * L2 set index for an address. Geometry is power-of-two
     * (config.validate() enforces it), so indexing is shift+mask --
     * these sit on the per-access hot path, where the division the
     * obvious formula implies is measurable.
     */
    uint64_t l2Index(Addr a) const { return (a >> _lineShift) & _l2Mask; }

    /** L1 set index for an address. */
    uint64_t l1Index(Addr a) const { return (a >> _lineShift) & _l1Mask; }

    /** Tag of the L2 line holding @p a, or nullptr if not present.
     *  Header-inline: this is the single hottest memory-system call
     *  (once per load/store/invalidate/fill). */
    LineTag *
    findLine(Addr a)
    {
        LineTag &slot = tags[l2Index(a)];
        return (slot.valid() && slot.addr == lineAlign(a)) ? &slot
                                                           : nullptr;
    }
    const LineTag *
    findLine(Addr a) const
    {
        const LineTag &slot = tags[l2Index(a)];
        return (slot.valid() && slot.addr == lineAlign(a)) ? &slot
                                                           : nullptr;
    }

    /** Data bytes of the slot whose tag is @p t (lineBytes() long). */
    uint8_t *
    lineData(const LineTag &t)
    {
        return data.get() + ((&t - tags.data()) << _lineShift);
    }
    const uint8_t *
    lineData(const LineTag &t) const
    {
        return data.get() + ((&t - tags.data()) << _lineShift);
    }

    /** True if @p a hits in the L1 filter (implies L2 presence). */
    bool l1Hit(Addr a) const;

    /**
     * True if the L1 filter holds @p a's tag (no L2 presence check).
     * For callers that already resolved the L2 line and want to
     * avoid a second lookup: l1Hit(a) == l1TagHit(a) && findLine(a).
     */
    bool
    l1TagHit(Addr a) const
    {
        return l1Tags[l1Index(a)] == lineAlign(a);
    }

    /** Install @p a in the L1 filter (possibly displacing a tag). */
    void l1Fill(Addr a);

    /** Remove @p a from the L1 filter if present. */
    void l1Evict(Addr a);

    /**
     * Install a line in L2 (and L1). The previous occupant of the
     * set, if valid and of a different tag, is copied out to
     * @p victim before being overwritten.
     *
     * @return true if a valid victim (different line) was displaced.
     */
    bool fill(Addr line_addr, LineState state, const uint8_t *bytes,
              EvictedLine *victim);

    /** Drop @p a from both levels (invalidation). No writeback. */
    void invalidate(Addr a);

    /**
     * Invalidate everything (the paper flushes caches between runs).
     * Dirty lines are appended to @p victims, in ascending slot
     * order, for writeback. Touches only the slots filled since the
     * last flush.
     */
    void flushAll(std::vector<EvictedLine> *victims);

    /** Visit every valid L2 line as (tag, data), in slot order
     *  (invariant checking). */
    template <typename F>
    void
    forEachLine(F &&f) const
    {
        for (const LineTag &t : tags) {
            if (t.valid())
                f(t, lineData(t));
        }
    }

    /** Read a word out of a present line. */
    uint64_t readWord(Addr a, uint32_t size) const;

    /** Write a word into a present line (caller manages state). */
    void writeWord(Addr a, uint32_t size, uint64_t value);

    /** Read a word out of an already-resolved line. */
    uint64_t
    readWordIn(const LineTag &line, Addr a, uint32_t size) const
    {
        uint64_t value = 0;
        copyWord(&value, lineData(line) + (a - line.addr), size);
        return value;
    }

    /** Write a word into an already-resolved line. */
    void
    writeWordIn(const LineTag &line, Addr a, uint32_t size,
                uint64_t value)
    {
        copyWord(lineData(line) + (a - line.addr), &value, size);
    }

  private:
    uint32_t _lineBytes;
    uint32_t _lineShift;
    uint64_t _l2Mask;
    uint64_t _l1Mask;
    std::vector<LineTag> tags;
    /** Slot s's bytes live at data[s << _lineShift]. */
    std::unique_ptr<uint8_t[]> data;
    /** Slots filled since the last flushAll() (each listed once: a
     *  slot is listed when its tag address leaves invalidAddr). */
    std::vector<uint32_t> filled;
    /** L1 filter: line-aligned address or invalidAddr, per set. */
    std::vector<Addr> l1Tags;
};

} // namespace specrt

#endif // SPECRT_MEM_CACHE_HH
