#include "mem/cache.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace specrt
{

const char *
lineStateName(LineState s)
{
    switch (s) {
      case LineState::Invalid: return "Invalid";
      case LineState::Shared:  return "Shared";
      case LineState::Dirty:   return "Dirty";
    }
    return "Unknown";
}

NodeCache::NodeCache(const MachineConfig &config)
    : _lineBytes(config.l2.lineBytes)
{
    // Geometry is power-of-two (config.validate()); indexing relies
    // on it.
    SPECRT_ASSERT((_lineBytes & (_lineBytes - 1)) == 0,
                  "line size %u not a power of two", _lineBytes);
    _lineShift = 0;
    while ((1u << _lineShift) < _lineBytes)
        ++_lineShift;
    uint64_t l2Lines = config.l2.numLines();
    uint64_t l1Lines = config.l1.numLines();
    SPECRT_ASSERT((l2Lines & (l2Lines - 1)) == 0 &&
                  (l1Lines & (l1Lines - 1)) == 0,
                  "cache line counts not powers of two");
    _l2Mask = l2Lines - 1;
    _l1Mask = l1Lines - 1;
    // Only the tags are initialised: a slot's data is written by
    // fill() before anything can read it, so the data block skips the
    // zero-fill (most of a run's slots are never touched).
    tags.resize(l2Lines);
    data = std::make_unique_for_overwrite<uint8_t[]>(l2Lines *
                                                     _lineBytes);
    l1Tags.assign(l1Lines, invalidAddr);
}

bool
NodeCache::l1Hit(Addr a) const
{
    return l1TagHit(a) && findLine(a) != nullptr;
}

void
NodeCache::l1Fill(Addr a)
{
    l1Tags[l1Index(a)] = lineAlign(a);
}

void
NodeCache::l1Evict(Addr a)
{
    if (l1Tags[l1Index(a)] == lineAlign(a))
        l1Tags[l1Index(a)] = invalidAddr;
}

bool
NodeCache::fill(Addr line_addr, LineState state, const uint8_t *bytes,
                EvictedLine *victim)
{
    SPECRT_ASSERT(line_addr == lineAlign(line_addr),
                  "fill with unaligned addr");
    uint64_t idx = l2Index(line_addr);
    LineTag &slot = tags[idx];
    uint8_t *line = lineData(slot);

    bool displaced = false;
    if (slot.valid() && slot.addr != line_addr) {
        if (victim) {
            victim->addr = slot.addr;
            victim->state = slot.state;
            victim->data.assign(line, _lineBytes);
        }
        l1Evict(slot.addr);   // inclusion
        displaced = true;
    }

    if (slot.addr == invalidAddr)
        filled.push_back(static_cast<uint32_t>(idx));
    slot.addr = line_addr;
    slot.state = state;
    copyBlock(line, bytes, _lineBytes);
    l1Fill(line_addr);
    return displaced;
}

void
NodeCache::invalidate(Addr a)
{
    LineTag *line = findLine(a);
    if (line)
        line->state = LineState::Invalid;
    l1Evict(a);
}

void
NodeCache::flushAll(std::vector<EvictedLine> *victims)
{
    // Only listed slots can hold a line; visiting them in slot order
    // returns the victims a full scan would, in the same order.
    std::sort(filled.begin(), filled.end());
    for (uint32_t idx : filled) {
        LineTag &slot = tags[idx];
        if (slot.state == LineState::Dirty && victims) {
            EvictedLine &v = victims->emplace_back();
            v.addr = slot.addr;
            v.state = slot.state;
            v.data.assign(lineData(slot), _lineBytes);
        }
        slot = LineTag{};
    }
    filled.clear();
    for (Addr &tag : l1Tags)
        tag = invalidAddr;
}

uint64_t
NodeCache::readWord(Addr a, uint32_t size) const
{
    const LineTag *line = findLine(a);
    SPECRT_ASSERT(line, "readWord on absent line %#llx",
                  (unsigned long long)a);
    return readWordIn(*line, a, size);
}

void
NodeCache::writeWord(Addr a, uint32_t size, uint64_t value)
{
    LineTag *line = findLine(a);
    SPECRT_ASSERT(line, "writeWord on absent line %#llx",
                  (unsigned long long)a);
    writeWordIn(*line, a, size, value);
}

} // namespace specrt
