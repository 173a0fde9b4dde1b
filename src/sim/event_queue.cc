#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"
#include "sim/sim_context.hh"

namespace specrt
{

EventQueue::EventQueue()
{
    if constexpr (profileEnabled)
        profile = &SimContext::current().recorders().profile;
}

EventQueue::~EventQueue()
{
    // Exact-cancel invariant: every constructed slot in use is a
    // pending event or a cancelled one still linked in its bucket.
    SPECRT_ASSERT(slotsInUse == pendingCount + deadCount,
                  "event queue leaked slots: %zu in use vs %zu "
                  "pending + %zu cancelled",
                  slotsInUse, pendingCount, deadCount);
    destroySlots();
}

void
EventQueue::destroySlots()
{
    for (uint32_t i = 0; i < slotCount; ++i)
        std::destroy_at(&slotAt(i));
    slotCount = 0;
}

uint32_t
EventQueue::growSlots()
{
    if ((slotCount >> slotChunkShift) == slotChunks.size())
        slotChunks.emplace_back(new SlotStorage[slotChunkLen]);
    uint32_t idx = slotCount++;
    // A fresh slot's next link is badIndex, which the caller copies
    // into freeHead: the free list stays empty.
    std::construct_at(&slotAt(idx));
    return idx;
}

uint32_t
EventQueue::liveSlotOf(EventId id) const
{
    if (id == invalidEventId)
        return badIndex;
    uint64_t hi = id >> 32;
    if (hi == 0 || hi > slotCount)
        return badIndex;
    auto idx = static_cast<uint32_t>(hi - 1);
    const Slot &s = slotAt(idx);
    if (s.loc == LocFree || s.gen != static_cast<uint32_t>(id))
        return badIndex;
    return idx;
}

void
EventQueue::wheelUnlink(uint32_t b, uint32_t idx)
{
    Bucket &bk = buckets[b];
    if (bk.head == idx) {
        wheelPop(b);
        return;
    }
    uint32_t p = bk.head;
    while (slotAt(p).next != idx)
        p = slotAt(p).next;
    slotAt(p).next = slotAt(idx).next;
    if (bk.tail == idx)
        bk.tail = p;
    --wheelCount;
}

bool
EventQueue::reapDead(uint32_t b)
{
    while (buckets[b].head != badIndex) {
        uint32_t h = buckets[b].head;
        if (slotAt(h).loc != LocDead)
            return true;
        freeSlot(wheelPop(b));
    }
    return false;
}

void
EventQueue::heapInsert(Tick when, uint32_t idx, Slot &s)
{
    s.loc = LocHeap;
    size_t i = heap.size();
    heap.push_back(Entry{when, s.seq, idx});
    heapSiftUp(i);
}

Tick
EventQueue::nextWheelTick() const
{
    if (wheelCount == 0)
        return noTick;
    // Every wheel event is due within wheelSpan ticks of curTick, so
    // the first set bit at or after curTick's bucket, wrapping once,
    // is the earliest one, and its distance is the tick gap.
    auto start = static_cast<uint32_t>(_curTick & wheelMask);
    uint32_t w = start >> 6;
    uint64_t bits = occ[w] & (~uint64_t(0) << (start & 63));
    while (bits == 0) {
        w = (w + 1) & (occWords - 1);
        bits = occ[w];
    }
    uint32_t b = w * 64 + static_cast<uint32_t>(std::countr_zero(bits));
    return _curTick + ((b - start) & wheelMask);
}

void
EventQueue::deschedule(EventId id)
{
    uint32_t idx = liveSlotOf(id);
    if (idx == badIndex)
        return; // unknown or already fired: harmless no-op

    Slot &s = slotAt(idx);
    if (s.daemon)
        --daemonCount;
    --pendingCount;
    if (s.loc == LocHeap) {
        heapRemove(s.heapPos);
        freeSlot(idx); // destroys the callback
        return;
    }
    // A wheel slot dies in place (O(1)): its callback goes now and
    // its id stops matching, but it stays linked in its bucket until
    // the fire loop reaches and recycles it.
    s.cb.clear();
    s.loc = LocDead;
    ++s.gen;
    ++deadCount;
}

void
EventQueue::heapSiftUp(size_t i)
{
    Entry e = heap[i];
    while (i > 0) {
        size_t parent = (i - 1) / 2;
        if (!before(e, heap[parent]))
            break;
        heap[i] = heap[parent];
        slotAt(heap[i].slot).heapPos = static_cast<uint32_t>(i);
        i = parent;
    }
    heap[i] = e;
    slotAt(e.slot).heapPos = static_cast<uint32_t>(i);
}

void
EventQueue::heapSiftDown(size_t i)
{
    size_t n = heap.size();
    Entry e = heap[i];
    while (true) {
        size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap[child + 1], heap[child]))
            ++child;
        if (!before(heap[child], e))
            break;
        heap[i] = heap[child];
        slotAt(heap[i].slot).heapPos = static_cast<uint32_t>(i);
        i = child;
    }
    heap[i] = e;
    slotAt(e.slot).heapPos = static_cast<uint32_t>(i);
}

EventQueue::Entry
EventQueue::heapRemove(size_t i)
{
    Entry e = heap[i];
    size_t last = heap.size() - 1;
    if (i != last) {
        heap[i] = heap[last];
        slotAt(heap[i].slot).heapPos = static_cast<uint32_t>(i);
        heap.pop_back();
        if (i > 0 && before(heap[i], heap[(i - 1) / 2]))
            heapSiftUp(i);
        else
            heapSiftDown(i);
    } else {
        heap.pop_back();
    }
    return e;
}

void
EventQueue::fire(uint32_t idx)
{
    // The callback runs in place: slots live in stable chunks, so
    // events the callback schedules may add chunks but never move
    // this slot, and the slot is only recycled (freeSlot) after the
    // callback returns. Marking the slot LocFree up front makes
    // descheduling the firing event's own id from inside its
    // callback a harmless no-op.
    Slot &s = slotAt(idx);
    EventKind kind = s.kind;
    if (controller)
        controller->onFire(
            {_curTick, kind, s.actor, s.daemon, s.seq, s.parent});
    if (s.daemon)
        --daemonCount;
    s.loc = LocFree;
    --pendingCount;
    ++_numFired;
    ++fireDepth;
    uint64_t saved_parent = curParentSeq;
    curParentSeq = s.seq;
    if constexpr (profileEnabled)
        profile->fire(kind, _numFired, s.cb);
    else
        s.cb();
    curParentSeq = saved_parent;
    --fireDepth;
    freeSlot(idx); // destroys the callback
    if (postFireHook)
        postFireHook(_curTick, kind);
}

void
EventQueue::drain(Tick limit)
{
    // Only daemon events left: the queue is drained. They stay
    // pending (and unfired) so time never advances past the last
    // piece of real work.
    while (!stopped && pendingCount != daemonCount) {
        Tick t = nextLiveWheelTick();

        // At equal ticks the heap's events are older (see the file
        // comment), so the heap goes first.
        if (!heap.empty() && heap[0].when <= t) {
            if (heap[0].when > limit)
                return;
            Entry e = heapRemove(0);
            _curTick = e.when;
            fire(e.slot);
            continue;
        }
        if (t > limit)
            return;

        // Drain tick t's chain in one pass. Events its callbacks
        // schedule for tick t join the tail; later ticks go to other
        // buckets or the heap. The daemon check runs per event:
        // daemons must never fire alone.
        _curTick = t;
        auto b = static_cast<uint32_t>(t & wheelMask);
        do {
            uint32_t idx = wheelPop(b);
            if (slotAt(idx).loc == LocDead)
                freeSlot(idx);
            else
                fire(idx);
        } while (buckets[b].head != badIndex && !stopped &&
                 pendingCount != daemonCount);
    }
}

bool
EventQueue::fireNextControlled(Tick limit)
{
    if (pendingCount == daemonCount)
        return false;

    Tick t = nextLiveWheelTick();
    Tick min_when = t;
    if (!heap.empty() && heap[0].when < min_when)
        min_when = heap[0].when;
    if (min_when == noTick || min_when > limit)
        return false;

    // Gather every ready event at min_when from both lanes, then
    // order by seq: candidate 0 is exactly what the uncontrolled
    // loop would fire.
    candScratch.clear();
    for (const Entry &e : heap) {
        if (e.when == min_when)
            candScratch.push_back({e.seq, e.slot, true});
    }
    auto b = static_cast<uint32_t>(min_when & wheelMask);
    if (t == min_when) {
        for (uint32_t i = buckets[b].head; i != badIndex;
             i = slotAt(i).next) {
            if (slotAt(i).loc == LocWheel)
                candScratch.push_back({slotAt(i).seq, i, false});
        }
    }
    std::sort(candScratch.begin(), candScratch.end(),
              [](const Cand &x, const Cand &y) { return x.seq < y.seq; });

    size_t choice = 0;
    if (candScratch.size() > 1) {
        choiceScratch.clear();
        for (const Cand &c : candScratch) {
            const Slot &s = slotAt(c.slot);
            choiceScratch.push_back(
                {min_when, s.kind, s.actor, s.daemon, s.seq, s.parent});
        }
        choice = controller->pick(choiceScratch.data(),
                                  choiceScratch.size());
        if (choice >= candScratch.size())
            choice = candScratch.size() - 1;
    }

    const Cand &c = candScratch[choice];
    if (c.onHeap)
        heapRemove(slotAt(c.slot).heapPos);
    else
        wheelUnlink(b, c.slot);
    _curTick = min_when;
    fire(c.slot);
    return true;
}

Tick
EventQueue::run()
{
    return runUntil(noTick);
}

Tick
EventQueue::runUntil(Tick limit)
{
    stopped = false;
    if (controller) {
        while (!stopped && fireNextControlled(limit))
            ;
    } else {
        drain(limit);
    }
    return _curTick;
}

void
EventQueue::reset()
{
    // Destroying the slot chunks while a callback executes out of one
    // would pull the stack out from under it; reset() is a between-
    // phases operation, never a callback's.
    SPECRT_ASSERT(fireDepth == 0,
                  "EventQueue::reset() called from inside a callback");
    heap.clear();
    for (uint32_t w = 0; w < occWords; ++w) {
        for (uint64_t bits = occ[w]; bits; bits &= bits - 1)
            buckets[w * 64 + std::countr_zero(bits)] = Bucket{};
        occ[w] = 0;
    }
    wheelCount = 0;
    deadCount = 0;
    destroySlots();
    freeHead = badIndex;
    slotsInUse = 0;
    pendingCount = 0;
    daemonCount = 0;
    _curTick = 0;
    // nextSeq deliberately survives: like the schedule controller, a
    // controlled run may span several reset legs, and EventChoice::seq
    // must stay unique per run for step identity (verify/explorer).
    // Ordering invariants only need monotonicity, which holds.
    firedBeforeReset += _numFired;
    _numFired = 0;
    stopped = false;
    curParentSeq = noEventSeq;
}

} // namespace specrt
