#include "mem/addr_map.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"
#include "sim/small_vec.hh"

namespace specrt
{

AddrMap::AddrMap(const MachineConfig &config)
    : _pageBytes(config.pageBytes),
      _numProcs(config.numProcs),
      nextBase(config.pageBytes) // leave page 0 unmapped
{
}

int
AddrMap::alloc(const std::string &name, uint64_t bytes,
               uint32_t elem_bytes, Placement placement, NodeId node)
{
    SPECRT_ASSERT(bytes > 0, "empty region '%s'", name.c_str());
    SPECRT_ASSERT(elem_bytes > 0 && elem_bytes <= 8,
                  "bad element width %u", elem_bytes);
    SPECRT_ASSERT(node >= 0 && node < _numProcs,
                  "bad node %d for region '%s'", node, name.c_str());

    uint64_t rounded = (bytes + _pageBytes - 1) & ~uint64_t(_pageBytes - 1);

    Region r;
    r.name = name;
    r.base = nextBase;
    r.bytes = bytes;
    r.elemBytes = elem_bytes;
    r.elems = bytes / elem_bytes;
    r.placement = placement;
    r.node = node;
    nextBase += rounded;

    regions.push_back(r);
    backing.emplace_back(rounded, 0);
    bases.push_back(r.base);
    return static_cast<int>(regions.size()) - 1;
}

void
AddrMap::clear()
{
    regions.clear();
    backing.clear();
    bases.clear();
    mru = 0;
    nextBase = _pageBytes;
}

int
AddrMap::lookup(Addr addr) const
{
    if (mru < regions.size() && regions[mru].contains(addr))
        return static_cast<int>(mru);
    // Regions are allocated in ascending address order.
    auto it = std::upper_bound(bases.begin(), bases.end(), addr);
    if (it == bases.begin())
        return -1;
    size_t idx = static_cast<size_t>(it - bases.begin()) - 1;
    if (!regions[idx].contains(addr))
        return -1;
    mru = static_cast<uint32_t>(idx);
    return static_cast<int>(idx);
}

const Region *
AddrMap::find(Addr addr) const
{
    int idx = lookup(addr);
    return idx < 0 ? nullptr : &regions[idx];
}

NodeId
AddrMap::homeOf(Addr addr) const
{
    const Region *r = find(addr);
    SPECRT_ASSERT(r, "homeOf(unmapped addr %#llx)",
                  (unsigned long long)addr);
    if (r->placement == Placement::Fixed)
        return r->node;
    uint64_t page = (addr - r->base) / _pageBytes;
    return static_cast<NodeId>((r->node + page) % _numProcs);
}

uint8_t *
AddrMap::backingPtr(Addr addr, uint32_t span)
{
    return const_cast<uint8_t *>(
        static_cast<const AddrMap *>(this)->backingPtr(addr, span));
}

const uint8_t *
AddrMap::backingPtr(Addr addr, uint32_t span) const
{
    int idx = lookup(addr);
    SPECRT_ASSERT(idx >= 0, "access to unmapped addr %#llx",
                  (unsigned long long)addr);
    const Region &r = regions[idx];
    uint64_t off = addr - r.base;
    SPECRT_ASSERT(off + span <= backing[idx].size(),
                  "access past end of region '%s'", r.name.c_str());
    return backing[idx].data() + off;
}

uint64_t
AddrMap::read(Addr addr, uint32_t size) const
{
    SPECRT_ASSERT(size >= 1 && size <= 8, "bad access size %u", size);
    uint64_t value = 0;
    copyWord(&value, backingPtr(addr, size), size);
    return value;
}

void
AddrMap::write(Addr addr, uint32_t size, uint64_t value)
{
    SPECRT_ASSERT(size >= 1 && size <= 8, "bad access size %u", size);
    copyWord(backingPtr(addr, size), &value, size);
}

void
AddrMap::readLine(Addr line_addr, uint8_t *out, uint32_t bytes) const
{
    copyBlock(out, backingPtr(line_addr, bytes), bytes);
}

void
AddrMap::writeLine(Addr line_addr, const uint8_t *data, uint32_t bytes)
{
    copyBlock(backingPtr(line_addr, bytes), data, bytes);
}

void
AddrMap::copyBytes(Addr src, Addr dst, uint64_t bytes)
{
    if (bytes == 0)
        return;
    const uint8_t *s = backingPtr(src, static_cast<uint32_t>(
        std::min<uint64_t>(bytes, 1)));
    uint8_t *d = backingPtr(dst, static_cast<uint32_t>(
        std::min<uint64_t>(bytes, 1)));
    // Validate the far ends too, then copy in one shot.
    backingPtr(src + bytes - 1, 1);
    backingPtr(dst + bytes - 1, 1);
    std::memcpy(d, s, bytes);
}

} // namespace specrt
