/**
 * @file
 * Full-map directory state for the lines homed at one node.
 *
 * Entries are materialized lazily: a line never referenced behaves as
 * Uncached. Up to maxProcs (64) nodes are supported (one presence bit
 * each), which comfortably covers the paper's 16-processor machine.
 *
 * Storage is a dense table indexed by line id (addr >> log2(line)),
 * mirroring the flat SRAM tables of the modeled hardware: entries
 * for consecutive lines share cache lines and every protocol action
 * is an index, not a hash probe. The table is paged: a page of
 * pageLen entries is allocated zeroed on first touch and never
 * moves, so a growing footprint costs no relocation, and a home
 * allocates only the pages holding lines it homes (regions are
 * homed by page, mem/addr_map.hh). The simulated address space
 * starts at the first page and grows contiguously, so the page table
 * stays proportional to the footprint under test; anything past the
 * dense window (absurdly sparse addresses in synthetic tests) falls
 * back to a hash map.
 */

#ifndef SPECRT_MEM_DIRECTORY_HH
#define SPECRT_MEM_DIRECTORY_HH

#include <cstddef>
#include <cstdint>
#include <memory>
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
        uint64_t pg = id >> pageShift;
        if (pg >= pages.size() || !pages[pg])
            addPage(pg);
        DirEntry &e = pages[pg][id & pageMask];
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
        if (id < denseLimit) {
            uint64_t pg = id >> pageShift;
            if (pg >= pages.size() || !pages[pg])
                return nullptr;
            const DirEntry &e = pages[pg][id & pageMask];
            return e.touched ? &e : nullptr;
        }
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
            pages[id >> pageShift][id & pageMask] = DirEntry{};
        touchedIds.clear();
        overflow.clear();
    }

    size_t numEntries() const { return touchedIds.size() + overflow.size(); }

    /** Visit every materialized (line, entry) pair. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (size_t pg = 0; pg < pages.size(); ++pg) {
            if (!pages[pg])
                continue;
            for (uint32_t i = 0; i < pageLen; ++i) {
                const DirEntry &e = pages[pg][i];
                if (e.touched)
                    f(static_cast<Addr>((pg << pageShift) | i)
                          << lineShift,
                      e);
            }
        }
        for (const auto &[addr, e] : overflow)
            f(addr, e);
    }

  private:
    /** Lines past this id live in the overflow map (1 GiB of 64-byte
     *  lines: far beyond any modeled footprint). */
    static constexpr uint64_t denseLimit = uint64_t(1) << 24;

    /** Entries per page: one 4 KiB homing page of 64-byte lines. */
    static constexpr uint32_t pageShift = 6;
    static constexpr uint32_t pageLen = 1u << pageShift;
    static constexpr uint32_t pageMask = pageLen - 1;

    void
    addPage(uint64_t pg)
    {
        if (pg >= pages.size())
            pages.resize(static_cast<size_t>(pg) + 1);
        pages[pg] = std::make_unique<DirEntry[]>(pageLen);
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
    /** Dense pages by page id (null = no line of it touched yet). */
    std::vector<std::unique_ptr<DirEntry[]>> pages;
    std::unordered_map<Addr, DirEntry> overflow;
};

} // namespace specrt

#endif // SPECRT_MEM_DIRECTORY_HH
