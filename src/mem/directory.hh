/**
 * @file
 * Full-map directory state for the lines homed at one node.
 *
 * Entries are materialized lazily: a line never referenced behaves as
 * Uncached. Up to maxProcs (64) nodes are supported (one presence bit
 * each), which comfortably covers the paper's 16-processor machine.
 *
 * Storage is a dense array indexed by line id (addr >> log2(line)),
 * mirroring the flat SRAM tables of the modeled hardware: entries
 * for consecutive lines share cache lines and every protocol action
 * is an index, not a hash probe. The simulated address space starts
 * at the first page and grows contiguously (mem/addr_map.hh), so the
 * array stays proportional to the footprint under test; anything
 * past the dense window (absurdly sparse addresses in synthetic
 * tests) falls back to a hash map.
 */

#ifndef SPECRT_MEM_DIRECTORY_HH
#define SPECRT_MEM_DIRECTORY_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace specrt
{

/** Directory-visible state of a line. */
enum class DirState : uint8_t
{
    Uncached,
    Shared,
    Dirty,
};

const char *dirStateName(DirState s);

static_assert(maxProcs <= 64, "presence bits are one uint64_t");

/** Directory entry for one line. */
struct DirEntry
{
    DirState state = DirState::Uncached;
    /**
     * Entry has been referenced since the last clear(). Bookkeeping
     * for Directory (numEntries / forEach / clear), kept inside the
     * entry so the hot entry() lookup touches a single cache line
     * instead of a separate presence array.
     */
    uint8_t touched = 0;
    /** Presence bits (valid when Shared). */
    uint64_t sharers = 0;
    /** Owner (valid when Dirty). */
    NodeId owner = invalidNode;

    bool isSharer(NodeId n) const { return sharers & (uint64_t(1) << n); }
    void addSharer(NodeId n) { sharers |= uint64_t(1) << n; }
    void removeSharer(NodeId n) { sharers &= ~(uint64_t(1) << n); }
    int numSharers() const { return __builtin_popcountll(sharers); }
};

/** The directory array of one home node. */
class Directory
{
  public:
    explicit Directory(uint32_t line_bytes = 64)
    {
        lineShift = 0;
        while ((uint64_t(1) << lineShift) < line_bytes)
            ++lineShift;
    }

    /** Entry for @p line_addr, creating an Uncached one on demand. */
    DirEntry &
    entry(Addr line_addr)
    {
        uint64_t id = line_addr >> lineShift;
        if (id >= denseLimit)
            return overflowEntry(line_addr);
        if (id >= dense.size())
            growTo(id);
        DirEntry &e = dense[id];
        if (!e.touched) {
            e.touched = 1;
            touchedIds.push_back(static_cast<uint32_t>(id));
        }
        return e;
    }

    /** Entry if it exists, else nullptr (const inspection). */
    const DirEntry *
    find(Addr line_addr) const
    {
        uint64_t id = line_addr >> lineShift;
        if (id < dense.size())
            return dense[id].touched ? &dense[id] : nullptr;
        auto it = overflow.find(line_addr);
        return it == overflow.end() ? nullptr : &it->second;
    }

    /** Drop all entries (machine reset between runs). Costs the
     *  number of entries touched since the last clear, not the size
     *  of the dense window. */
    void
    clear()
    {
        for (uint32_t id : touchedIds)
            dense[id] = DirEntry{};
        touchedIds.clear();
        overflow.clear();
    }

    size_t numEntries() const { return touchedIds.size() + overflow.size(); }

    /** Visit every materialized (line, entry) pair. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (size_t id = 0; id < dense.size(); ++id) {
            if (dense[id].touched)
                f(static_cast<Addr>(id) << lineShift, dense[id]);
        }
        for (const auto &[addr, e] : overflow)
            f(addr, e);
    }

  private:
    /** Lines past this id live in the overflow map (1 GiB of 64-byte
     *  lines: far beyond any modeled footprint). */
    static constexpr uint64_t denseLimit = uint64_t(1) << 24;

    void
    growTo(uint64_t id)
    {
        size_t want = static_cast<size_t>(id) + 1;
        size_t cap = dense.empty() ? 1024 : dense.size();
        while (cap < want)
            cap *= 2;
        dense.resize(cap);
    }

    DirEntry &
    overflowEntry(Addr line_addr)
    {
        DirEntry &e = overflow[line_addr];
        e.touched = 1;
        return e;
    }

    uint32_t lineShift;
    /** Dense ids whose entry is touched, in first-touch order. */
    std::vector<uint32_t> touchedIds;
    std::vector<DirEntry> dense;
    std::unordered_map<Addr, DirEntry> overflow;
};

} // namespace specrt

#endif // SPECRT_MEM_DIRECTORY_HH
