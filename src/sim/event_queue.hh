/**
 * @file
 * Discrete-event engine driving the whole simulator.
 *
 * Everything in specrt (processor ops, coherence messages, directory
 * occupancy, barrier releases) is an event scheduled at an absolute
 * Tick. Events scheduled for the same tick fire in schedule order,
 * which keeps the simulation deterministic.
 *
 * The engine is built for the schedule/fire/cancel cycle that every
 * protocol hop takes. It has two lanes:
 *
 *  - a timing wheel for every event less than wheelSpan ticks ahead
 *    (which covers every modeled latency, and zero-delay hand-offs):
 *    each tick's bucket is a singly linked chain threaded through the
 *    event slots themselves, so a schedule is an O(1) append with no
 *    node pool and no key copy; a cancelled slot dies in place and
 *    is recycled when the fire loop reaches it; and a 4096-bit
 *    occupancy bitmap finds the next non-empty bucket;
 *  - an index-tracked binary heap keyed by (tick, sequence) for the
 *    rare far-future events (watchdogs, campaign timeouts), with the
 *    slot recording its heap position, so deschedule() is a true
 *    O(log n) removal.
 *
 * Callbacks are SmallFunctions (small_function.hh) built in place in
 * their slot, so the steady-state schedule/fire/cancel path performs
 * zero heap allocations once the slot chunks have grown to the
 * working-set size.
 *
 * Fire order is (tick, sequence) globally. Sequence numbers are
 * monotonic in scheduling order, so a bucket chain, appended to in
 * scheduling order, is already in fire order -- including events a
 * callback schedules for the current tick, which join the tail of
 * the chain being drained. A heap event due at tick T was scheduled
 * at least wheelSpan ticks before T, and so before every wheel event
 * due at T: at equal ticks the heap lane fires first. The fire loop
 * therefore drains one tick's chain in a single pass.
 *
 * EventIds carry a per-slot generation, so cancelling an id whose
 * event already fired is a harmless no-op even after the slot has
 * been reused.
 *
 * Daemon events (scheduleDaemon) are for observers such as the
 * metric-timeline sampler: they fire in order alongside real events
 * but never keep the queue alive -- a drain stops, leaving them
 * pending, once only daemons remain.
 */

#ifndef SPECRT_SIM_EVENT_QUEUE_HH
#define SPECRT_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/profile.hh"
#include "sim/small_function.hh"
#include "sim/types.hh"

namespace specrt
{

/** Handle used to cancel a pending event. */
using EventId = uint64_t;

/** Sentinel for "no event". */
constexpr EventId invalidEventId = 0;

/** Scheduling-site actor tag value meaning "site did not say". */
constexpr uint16_t unknownActor = 0xFFFF;

/** Sentinel event sequence number: "no such event". */
constexpr uint64_t noEventSeq = ~uint64_t(0);

/**
 * One ready event offered to a ScheduleController: everything the
 * engine knows about it without touching the callback.
 */
struct EventChoice
{
    Tick when;
    EventKind kind;
    /**
     * Actor tag given at the scheduling site (e.g.\ the destination
     * node of a network delivery); unknownActor when the site did
     * not tag the event.
     */
    uint16_t actor;
    bool daemon;
    /**
     * Global scheduling sequence number: monotonic in scheduling
     * order, unique within a run, and stable across replays of the
     * same choice prefix. Identifies "the same event" across runs.
     */
    uint64_t seq = 0;
    /**
     * Sequence number of the event whose callback scheduled this one
     * (the creation edge of the happens-before relation), or
     * noEventSeq when scheduled from outside any callback.
     */
    uint64_t parent = noEventSeq;
};

/**
 * One network fault decision point offered to a ScheduleController:
 * a message about to be transmitted whose loss or duplication the
 * protocol is expected to tolerate. Field values mirror the Msg
 * being sent; msgType is the mem-layer MsgType widened to an int so
 * sim/ stays independent of mem/.
 */
struct FaultChoicePoint
{
    Tick when;
    uint16_t msgType;
    uint16_t src;
    uint16_t dst;
    /** Alternative 1 drops the message (a recovery path exists). */
    bool canDrop;
    /** The last alternative delivers the message twice. */
    bool canDup;
};

/**
 * Hook controlling which of several same-tick ready events fires
 * next (verify/explorer.hh drives this to enumerate interleavings).
 *
 * When installed, every point at which two or more events are ready
 * at the minimum pending tick becomes a decision point: the engine
 * gathers the candidates in default (when, seq) order and asks the
 * controller. Returning 0 always reproduces the uncontrolled
 * schedule exactly, so a controller that constantly answers 0 is a
 * no-op (modulo its own observation). pick() is not called for
 * forced moves (a single ready event).
 */
class ScheduleController
{
  public:
    virtual ~ScheduleController() = default;

    /**
     * @param choices the @p n >= 2 ready events, default order.
     * @return index of the event to fire; clamped to [0, n).
     */
    virtual size_t pick(const EventChoice *choices, size_t n) = 0;

    /**
     * Fault decision point: the network is about to transmit a
     * message whose loss/duplication the protocol tolerates. Called
     * only when exploresFaults() is true. Alternative 0 always means
     * "deliver normally"; alternative 1 drops if p.canDrop (else
     * duplicates); alternative 2 (present when both are eligible)
     * duplicates. @p n counts the alternatives (>= 2).
     */
    virtual size_t pickFault(const FaultChoicePoint &p, size_t n)
    {
        (void)p;
        (void)n;
        return 0;
    }

    /**
     * Opt-in for fault decision points. When false (the default) the
     * network never consults pickFault and faults follow the seeded
     * FaultPlan as usual.
     */
    virtual bool exploresFaults() const { return false; }

    /**
     * Observation hook: called once per fired event, in fire order,
     * with the event's full identity (including seq and creation
     * parent). Fires for forced moves too, not just decision points
     * -- this is the per-run step trace DPOR computes races over.
     */
    virtual void onFire(const EventChoice &fired) { (void)fired; }
};

/**
 * A single-threaded discrete-event queue.
 *
 * The queue owns the current simulated time. Callbacks may schedule
 * further events (including at the current tick, which fire later in
 * the same tick).
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in cycles. */
    Tick curTick() const { return _curTick; }

    /**
     * Schedule @p callback to fire at absolute time @p when. The
     * optional @p actor tag names the model entity the event acts on
     * (e.g.\ the destination node of a message delivery); it is only
     * observed by ScheduleControllers.
     *
     * Templated over the callable so the callback is constructed
     * directly inside its event slot -- the hot path performs zero
     * SmallFunction relocations between the call site and fire().
     *
     * @return a handle usable with deschedule().
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&callback,
             EventKind kind = EventKind::Generic,
             uint16_t actor = unknownActor)
    {
        return scheduleImpl(when, std::forward<F>(callback), kind,
                            actor, false);
    }

    /** Schedule @p callback @p delay cycles from now. */
    template <typename F>
    EventId
    scheduleIn(Cycles delay, F &&callback,
               EventKind kind = EventKind::Generic,
               uint16_t actor = unknownActor)
    {
        return scheduleImpl(_curTick + delay,
                            std::forward<F>(callback), kind, actor,
                            false);
    }

    /**
     * Schedule a daemon event: it fires in (when, seq) order like
     * any other event while non-daemon work is pending, but it never
     * keeps the queue alive -- run()/runUntil() return, without
     * firing it, once only daemon events remain, and it stays
     * pending for the next run() leg (or until reset() drops it).
     *
     * This is for observers like the timeline sampler: a periodic
     * event that must not extend a drain past the real work, which
     * would advance curTick beyond the last modeled event and
     * perturb measured phase durations.
     */
    template <typename F>
    EventId
    scheduleDaemon(Tick when, F &&callback,
                   EventKind kind = EventKind::Generic)
    {
        return scheduleImpl(when, std::forward<F>(callback), kind,
                            unknownActor, true);
    }

    /** Schedule a daemon event @p delay cycles from now. */
    template <typename F>
    EventId
    scheduleDaemonIn(Cycles delay, F &&callback,
                     EventKind kind = EventKind::Generic)
    {
        return scheduleImpl(_curTick + delay,
                            std::forward<F>(callback), kind,
                            unknownActor, true);
    }

    /**
     * Cancel a pending event. Cancelling an already-fired or unknown
     * event is a harmless no-op.
     */
    void deschedule(EventId id);

    /** Number of events still pending (cancelled events excluded). */
    size_t numPending() const { return pendingCount; }

    /** Pending daemon events (a subset of numPending()). */
    size_t numDaemon() const { return daemonCount; }

    /** True if no events are pending. */
    bool empty() const { return pendingCount == 0; }

    /** True if only daemon events (if any) remain: run() returns. */
    bool drained() const { return pendingCount == daemonCount; }

    /**
     * Run until the queue drains or stop() is called.
     * @return the tick of the last event fired.
     */
    Tick run();

    /**
     * Run events up to and including tick @p limit.
     * @return the tick of the last event fired.
     */
    Tick runUntil(Tick limit);

    /** Make run()/runUntil() return before firing the next event. */
    void stop() { stopped = true; }

    /** Events fired since construction or the last reset(). */
    uint64_t numFired() const { return _numFired; }

    /** Lifetime events fired; survives reset() (telemetry). */
    uint64_t
    numFiredTotal() const
    {
        return firedBeforeReset + _numFired;
    }

    /**
     * Reset to an empty queue at tick 0. Pending events are dropped.
     * The schedule controller and post-fire hook survive: they
     * observe a whole run, which may span several reset legs
     * (machine resets between phases).
     */
    void reset();

    /**
     * Install (or with nullptr remove) the controller consulted at
     * same-tick decision points. Exploration-only: when absent (the
     * default) the fire path is the plain deterministic one.
     */
    void setScheduleController(ScheduleController *c)
    {
        controller = c;
    }
    ScheduleController *scheduleController() const { return controller; }

    /**
     * Install a hook called after every fired event's callback
     * returns (per-delivery invariant checking). Empty function
     * removes it. The hook must not mutate the queue's schedule
     * beyond what ordinary callbacks may do (scheduling is fine;
     * it runs at a point where the fired event is fully retired).
     */
    void setPostFireHook(std::function<void(Tick, EventKind)> h)
    {
        postFireHook = std::move(h);
    }

  private:
    /** Where a slot's event currently lives. */
    enum SlotLoc
    {
        LocFree,
        LocHeap,
        LocWheel,
        /** Cancelled while in a bucket chain: the slot stays linked,
         *  its callback destroyed and its id dead, until the fire
         *  loop reaches and recycles it. */
        LocDead,
    };

    static constexpr uint32_t badIndex = UINT32_MAX;

    /**
     * Timing-wheel geometry. Any delay below wheelSpan ticks takes
     * the O(1) wheel path; the modeled latencies (cache, network,
     * memory, busy ops) are all far below it. Power of two so the
     * bucket of an absolute tick is a mask.
     */
    static constexpr uint32_t wheelSpan = 4096;
    static constexpr uint32_t wheelMask = wheelSpan - 1;
    static constexpr uint32_t occWords = wheelSpan / 64;
    /** "No such tick" sentinel. */
    static constexpr Tick noTick = ~Tick(0);

    /**
     * One event: its callback, its ordering key and its lane link,
     * in two cache lines. A wheel event's tick is implied by its
     * bucket; a heap event's lives in its heap entry.
     */
    struct Slot
    {
        /** Stable home of the event's callback until fire/cancel. */
        SmallFunction cb;
        /** Global scheduling sequence number (fire-order key). */
        uint64_t seq = 0;
        /** Seq of the event whose callback scheduled this one. */
        uint64_t parent = noEventSeq;
        /** Next slot in the bucket chain, or in the free list. */
        uint32_t next = badIndex;
        /** Index into heap[] (LocHeap only). */
        uint32_t heapPos = 0;
        /** Generation checked against the id on deschedule(). */
        uint32_t gen = 1;
        EventKind kind = EventKind::Generic;
        SlotLoc loc : 2 = LocFree;
        /** Daemon events never keep the queue alive. */
        bool daemon : 1 = false;
        /** Scheduling-site actor tag (ScheduleController only). */
        uint16_t actor = unknownActor;
    };
    static_assert(sizeof(Slot) == 2 * 64, "an event slot is two lines");

    /** Heap entry: the (when, seq) key of a far-future event. */
    struct Entry
    {
        Tick when;
        uint64_t seq;
        uint32_t slot;
    };

    /** One tick's chain of wheel slots (badIndex = empty). */
    struct Bucket
    {
        uint32_t head = badIndex;
        uint32_t tail = badIndex;
    };

    static bool
    before(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /**
     * Shared schedule body: take a slot, construct the callback in
     * place (zero relocations) and link the slot into its lane. The
     * wheel append is inline; the heap path is out of line.
     */
    template <typename F>
    EventId
    scheduleImpl(Tick when, F &&callback, EventKind kind,
                 uint16_t actor, bool daemon)
    {
        SPECRT_ASSERT(when >= _curTick,
                      "scheduling in the past: when=%llu cur=%llu",
                      (unsigned long long)when,
                      (unsigned long long)_curTick);
        uint32_t idx = freeHead != badIndex ? freeHead : growSlots();
        Slot &s = slotAt(idx);
        freeHead = s.next;
        ++slotsInUse;
        s.cb.emplace(std::forward<F>(callback));
        s.seq = nextSeq++;
        s.parent = curParentSeq;
        s.kind = kind;
        s.daemon = daemon;
        s.actor = actor;
        if (daemon)
            ++daemonCount;
        ++pendingCount;
        if (when - _curTick < wheelSpan)
            wheelAppend(static_cast<uint32_t>(when & wheelMask), idx,
                        s);
        else
            heapInsert(when, idx, s);
        return (static_cast<uint64_t>(idx) + 1) << 32 | s.gen;
    }

    /**
     * Append slot @p idx to bucket @p b. Live wheel events' ticks
     * span less than wheelSpan from curTick, so bucket and tick are
     * in bijection, and appends arrive in ascending seq.
     */
    void
    wheelAppend(uint32_t b, uint32_t idx, Slot &s)
    {
        Bucket &bk = buckets[b];
        s.loc = LocWheel;
        s.next = badIndex;
        if (bk.tail == badIndex) {
            bk.head = idx;
            occ[b >> 6] |= uint64_t(1) << (b & 63);
        } else {
            slotAt(bk.tail).next = idx;
        }
        bk.tail = idx;
        ++wheelCount;
    }

    /** Unlink and return the head slot of non-empty bucket @p b. */
    uint32_t
    wheelPop(uint32_t b)
    {
        Bucket &bk = buckets[b];
        uint32_t idx = bk.head;
        bk.head = slotAt(idx).next;
        if (bk.head == badIndex) {
            bk.tail = badIndex;
            occ[b >> 6] &= ~(uint64_t(1) << (b & 63));
        }
        --wheelCount;
        return idx;
    }

    /**
     * Unlink wheel slot @p idx from anywhere in bucket @p b (the
     * controller's out-of-order picks; walks the chain).
     */
    void wheelUnlink(uint32_t b, uint32_t idx);

    /**
     * True if bucket @p b holds a live event, after recycling the
     * cancelled slots at its head (reapDead()).
     */
    bool
    wheelLive(uint32_t b)
    {
        uint32_t h = buckets[b].head;
        return h != badIndex && (slotAt(h).loc != LocDead || reapDead(b));
    }
    bool reapDead(uint32_t b);

    /** The earliest tick whose bucket holds a live event, or noTick. */
    Tick
    nextLiveWheelTick()
    {
        Tick t = nextWheelTick();
        while (t != noTick &&
               !wheelLive(static_cast<uint32_t>(t & wheelMask)))
            t = nextWheelTick();
        return t;
    }

    /** Push a far-future slot onto the heap lane. */
    void heapInsert(Tick when, uint32_t idx, Slot &s);

    /** Construct one more slot (growing a chunk); returns its index. */
    uint32_t growSlots();

    /**
     * Recycle a fired or cancelled slot: destroy its callback and
     * bump its generation (a cancelled slot's moved on at cancel).
     */
    void
    freeSlot(uint32_t idx)
    {
        Slot &s = slotAt(idx);
        s.cb.clear();
        if (s.loc == LocDead)
            --deadCount;
        else
            ++s.gen; // stale ids naming this slot stop matching
        s.loc = LocFree;
        s.next = freeHead;
        freeHead = idx;
        --slotsInUse;
    }

    /**
     * Slot lookup. Slots live in fixed-size chunks, so growth never
     * moves an existing slot -- fire() exploits this to run callbacks
     * in place instead of moving them out first.
     */
    Slot &
    slotAt(uint32_t i)
    {
        return *std::launder(reinterpret_cast<Slot *>(
            &slotChunks[i >> slotChunkShift][i & slotChunkMask]));
    }
    const Slot &
    slotAt(uint32_t i) const
    {
        return *std::launder(reinterpret_cast<const Slot *>(
            &slotChunks[i >> slotChunkShift][i & slotChunkMask]));
    }

    /** Destroy the slotCount constructed slots (chunks stay). */
    void destroySlots();

    /** Decode an id; returns badIndex unless it names a live slot. */
    uint32_t liveSlotOf(EventId id) const;

    void heapSiftUp(size_t i);
    void heapSiftDown(size_t i);
    /** Remove heap[i], returning its key. */
    Entry heapRemove(size_t i);

    /**
     * Tick of the earliest non-empty bucket, found by scanning the
     * occupancy bitmap forward from curTick's bucket (noTick if the
     * wheel is empty).
     */
    Tick nextWheelTick() const;

    /** Fire the event in slot @p idx (already unlinked). */
    void fire(uint32_t idx);

    /** The fire loop of run()/runUntil() without a controller. */
    void drain(Tick limit);

    /**
     * The controlled fire step: gather every ready event at the
     * minimum pending tick from both lanes and let the controller
     * pick which fires; false if nothing fires. Out of line and
     * cold -- the plain loop pays one branch for its existence.
     */
    bool fireNextControlled(Tick limit);

    /** Per-tick bucket chains and their occupancy bitmap. */
    std::array<Bucket, wheelSpan> buckets;
    std::array<uint64_t, occWords> occ = {};
    /** Slots linked into buckets (live and LocDead). */
    size_t wheelCount = 0;
    /** LocDead slots still linked (not yet recycled). */
    size_t deadCount = 0;

    std::vector<Entry> heap;

    /**
     * Chunked slot storage (stable addresses; see slotAt()). A chunk
     * is raw memory: slots are constructed as slotCount grows and
     * destroyed by reset() and the destructor, so both cost the
     * slots a run used, not the chunk size.
     */
    static constexpr uint32_t slotChunkShift = 9;
    static constexpr uint32_t slotChunkLen = 1u << slotChunkShift;
    static constexpr uint32_t slotChunkMask = slotChunkLen - 1;
    struct alignas(Slot) SlotStorage
    {
        std::byte bytes[sizeof(Slot)];
    };
    std::vector<std::unique_ptr<SlotStorage[]>> slotChunks;
    /** Slots constructed so far (chunks * slotChunkLen covers it). */
    uint32_t slotCount = 0;
    uint32_t freeHead = badIndex;
    size_t slotsInUse = 0;

    size_t pendingCount = 0;
    size_t daemonCount = 0;
    Tick _curTick = 0;
    uint64_t nextSeq = 0;
    uint64_t _numFired = 0;
    /** Events fired before the last reset() (numFiredTotal()). */
    uint64_t firedBeforeReset = 0;
    bool stopped = false;
    /** Depth of fire() frames on the stack (reset() guard). */
    uint32_t fireDepth = 0;
    /** Seq of the event whose callback is on the stack (creation
     *  edges for EventChoice::parent); noEventSeq outside fire(). */
    uint64_t curParentSeq = noEventSeq;

    /** The constructing context's fired-event profile (profile.hh);
     *  only written in SPECRT_PROFILE builds. */
    prof::Profile *profile = nullptr;

    ScheduleController *controller = nullptr;
    std::function<void(Tick, EventKind)> postFireHook;

    /** Candidate-gathering scratch of the controlled path. */
    struct Cand
    {
        uint64_t seq;
        uint32_t slot;
        bool onHeap;
    };
    std::vector<Cand> candScratch;
    std::vector<EventChoice> choiceScratch;
};

} // namespace specrt

#endif // SPECRT_SIM_EVENT_QUEUE_HH
