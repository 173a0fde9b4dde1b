/** @file Unit tests for the discrete-event engine. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <new>
#include <random>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/small_function.hh"

using namespace specrt;

namespace
{

// Global allocation counters for the steady-state test. Overriding
// operator new/delete in the test binary counts every heap
// allocation the engine (or anything else on this thread) makes.
std::atomic<uint64_t> gAllocs{0};

} // namespace

void *
operator new(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

TEST(EventQueue, StartsAtTickZeroEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.run(), 0u);
}

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CallbackMaySchedule)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        ++fired;
        eq.scheduleIn(4, [&]() { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.curTick(), 5u);
}

TEST(EventQueue, SameTickReentrantScheduling)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(7, [&]() {
        order.push_back(1);
        // Zero-delay event fires later within the same tick.
        eq.scheduleIn(0, [&]() { order.push_back(2); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(eq.curTick(), 7u);
}

TEST(EventQueue, Deschedule)
{
    EventQueue eq;
    int fired = 0;
    EventId a = eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.deschedule(a);
    eq.run();
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, DescheduleUnknownIsNoop)
{
    EventQueue eq;
    eq.deschedule(invalidEventId);
    eq.deschedule(123456);
    eq.schedule(1, []() {});
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.schedule(30, [&]() { ++fired; });
    eq.runUntil(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, StopHaltsImmediately)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() {
        ++fired;
        eq.stop();
    });
    eq.schedule(20, [&]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.numPending(), 1u);
    // A subsequent run() resumes.
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, ResetDropsEverything)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.reset();
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.curTick(), 0u);
    eq.run();
    EXPECT_EQ(fired, 0);

    // Reset with the timing wheel in use: fired, pending and cancelled
    // nodes in several buckets. The wheel must come back empty, so
    // events landing in the same buckets afterwards fire at their own
    // ticks, in order.
    std::vector<Tick> at;
    auto note = [&]() { at.push_back(eq.curTick()); };
    eq.schedule(3, note);
    eq.schedule(9, [&]() {
        note();
        eq.stop();
    });
    eq.schedule(12, note);
    eq.deschedule(eq.schedule(15, note));
    eq.run();
    EXPECT_EQ(at, (std::vector<Tick>{3, 9}));
    eq.reset();
    EXPECT_TRUE(eq.empty());
    at.clear();
    for (Tick t : {15, 5, 12, 3})
        eq.schedule(t, note);
    eq.run();
    EXPECT_EQ(at, (std::vector<Tick>{3, 5, 12, 15}));
    EXPECT_EQ(eq.numFired(), 4u);
}

// --- daemon events ----------------------------------------------------

TEST(EventQueue, DaemonAloneDoesNotRunAndDoesNotAdvanceTime)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleDaemon(50, [&]() { ++fired; });
    EXPECT_EQ(eq.numPending(), 1u);
    EXPECT_EQ(eq.numDaemon(), 1u);
    EXPECT_TRUE(eq.drained());
    // run() must return immediately: only daemons remain. The event
    // stays pending for a later leg.
    EXPECT_EQ(eq.run(), 0u);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.numPending(), 1u);
}

TEST(EventQueue, DaemonFiresInOrderWhileRealWorkIsPending)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&]() { order.push_back(10); });
    eq.scheduleDaemon(5, [&]() { order.push_back(5); });
    eq.run();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 5);
    EXPECT_EQ(order[1], 10);
    EXPECT_EQ(eq.curTick(), 10u);
    EXPECT_EQ(eq.numDaemon(), 0u);
}

TEST(EventQueue, DaemonBeyondLastRealEventStaysPendingAcrossLegs)
{
    EventQueue eq;
    int samples = 0;
    eq.schedule(10, []() {});
    eq.scheduleDaemon(50, [&]() { ++samples; });
    // First leg: real work ends at 10; the daemon at 50 must not
    // drag the drain (and curTick) out to 50.
    EXPECT_EQ(eq.run(), 10u);
    EXPECT_EQ(samples, 0);
    EXPECT_EQ(eq.numDaemon(), 1u);
    // Second leg reaches past the daemon's tick: now it fires.
    eq.schedule(100, []() {});
    EXPECT_EQ(eq.run(), 100u);
    EXPECT_EQ(samples, 1);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, DaemonRearmingItselfCannotWedgeTheDrain)
{
    EventQueue eq;
    int samples = 0;
    // A periodic daemon that always re-arms -- the timeline
    // sampler's shape. Without daemon semantics this loop would
    // never drain.
    std::function<void()> rearm = [&]() {
        ++samples;
        eq.scheduleDaemonIn(10, [&]() { rearm(); });
    };
    eq.scheduleDaemonIn(10, [&]() { rearm(); });
    for (Tick t = 1; t <= 100; ++t)
        eq.schedule(t, []() {});
    eq.run();
    // Fired at 10, 20, ..., 90 while real events were pending. The
    // tick-100 re-arm was scheduled after the tick-100 real event
    // (higher seq), so once that real event fires only the daemon
    // remains and the drain stops without firing it.
    EXPECT_EQ(samples, 9);
    EXPECT_EQ(eq.curTick(), 100u);
    EXPECT_EQ(eq.numPending(), 1u);
    EXPECT_EQ(eq.numDaemon(), 1u);
}

TEST(EventQueue, DescheduleAndResetKeepDaemonCountsExact)
{
    EventQueue eq;
    EventId id = eq.scheduleDaemon(50, []() {});
    eq.schedule(10, []() {});
    eq.deschedule(id);
    EXPECT_EQ(eq.numDaemon(), 0u);
    EXPECT_EQ(eq.numPending(), 1u);
    eq.scheduleDaemon(60, []() {});
    eq.reset();
    EXPECT_EQ(eq.numDaemon(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunUntilLeavesLoneDaemonsPendingToo)
{
    EventQueue eq;
    int fired = 0;
    eq.scheduleDaemon(5, [&]() { ++fired; });
    eq.runUntil(100);
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_EQ(eq.numDaemon(), 1u);
}

TEST(EventQueue, CountsFiredEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i + 1, []() {});
    eq.run();
    EXPECT_EQ(eq.numFired(), 5u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i) {
        Tick when = static_cast<Tick>((i * 2654435761u) % 5000 + 1);
        eq.schedule(when, [&, when]() {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    eq.run();
    EXPECT_TRUE(monotonic);
    EXPECT_EQ(eq.numFired(), 10000u);
}

TEST(EventQueue, CancelThenRescheduleReusesSlotSafely)
{
    EventQueue eq;
    int a = 0, b = 0;
    EventId ida = eq.schedule(10, [&]() { ++a; });
    eq.deschedule(ida);
    // The freed slot is reused; the stale id must not name it.
    EventId idb = eq.schedule(10, [&]() { ++b; });
    eq.deschedule(ida); // stale: generation mismatch, no-op
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
    EXPECT_EQ(a, 0);
    EXPECT_EQ(b, 1);
    // Descheduling after the event fired is also a no-op.
    eq.deschedule(idb);
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, StaleIdAfterFireCannotCancelReusedSlot)
{
    EventQueue eq;
    int fired = 0;
    EventId first = eq.schedule(1, [&]() { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 1);
    // The slot is recycled for a new event; the old id must not
    // cancel it.
    eq.schedule(2, [&]() { ++fired; });
    eq.deschedule(first);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, SameTickFifoOrderingSurvivesInterleavedCancel)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids;
    // curTick == 0, so these all append to the current tick's bucket.
    for (int i = 0; i < 12; ++i)
        ids.push_back(eq.schedule(0, [&order, i]() {
            order.push_back(i);
        }));
    // Cancel every third, interleaved with more scheduling.
    for (int i = 0; i < 12; i += 3)
        eq.deschedule(ids[i]);
    eq.schedule(0, [&order]() { order.push_back(100); });
    eq.run();
    std::vector<int> expect;
    for (int i = 0; i < 12; ++i)
        if (i % 3 != 0)
            expect.push_back(i);
    expect.push_back(100);
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, RandomizedScriptMatchesReferenceModel)
{
    // 10k randomized schedules with interleaved cancellations,
    // checked against a sorted reference model: fire order must be
    // exactly (when, schedule-sequence) over the surviving events.
    std::mt19937 rng(0xC0FFEE);
    EventQueue eq;
    std::vector<int> fired;

    struct Ref
    {
        Tick when;
        uint64_t seq;
        int token;
    };
    std::vector<Ref> model;
    std::vector<std::pair<EventId, size_t>> cancellable;

    uint64_t seq = 0;
    for (int i = 0; i < 10000; ++i) {
        if (!cancellable.empty() && rng() % 4 == 0) {
            size_t pick = rng() % cancellable.size();
            auto [id, ref] = cancellable[pick];
            eq.deschedule(id);
            model[ref].token = -1; // cancelled
            cancellable.erase(cancellable.begin() + pick);
        }
        Tick when = rng() % 512; // tick 0: same-tick appends
        int token = i;
        EventId id = eq.schedule(
            when, [&fired, token]() { fired.push_back(token); });
        model.push_back(Ref{when, seq++, token});
        cancellable.push_back({id, model.size() - 1});
    }

    eq.run();

    std::vector<Ref> alive;
    for (const Ref &r : model)
        if (r.token >= 0)
            alive.push_back(r);
    std::sort(alive.begin(), alive.end(),
              [](const Ref &a, const Ref &b) {
                  return a.when != b.when ? a.when < b.when
                                          : a.seq < b.seq;
              });
    ASSERT_EQ(fired.size(), alive.size());
    for (size_t i = 0; i < alive.size(); ++i)
        ASSERT_EQ(fired[i], alive[i].token) << "position " << i;
}

namespace
{

/**
 * The naive reference engine: a flat list of events, each fire a
 * linear search for the least live (when, seq). It implements the
 * contract the real engine must match -- (tick, seq) order, the
 * daemon rule, stop(), runUntil() limits, reset() keeping seq.
 */
class NaiveQueue
{
  public:
    Tick curTick() const { return cur; }

    uint64_t
    schedule(Tick when, std::function<void()> fn, bool daemon)
    {
        evs.push_back({when, seq++, daemon, true, std::move(fn)});
        ++pending;
        daemons += daemon;
        return evs.size(); // id = index + 1
    }

    void
    deschedule(uint64_t id)
    {
        if (id >= 1 && id <= evs.size() && evs[id - 1].live)
            retire(evs[id - 1]);
    }

    size_t numPending() const { return pending; }
    size_t numDaemon() const { return daemons; }

    Tick
    runUntil(Tick limit)
    {
        stopped = false;
        while (!stopped && numPending() != numDaemon()) {
            size_t best = evs.size();
            for (size_t i = 0; i < evs.size(); ++i) {
                if (evs[i].live &&
                    (best == evs.size() ||
                     evs[i].when < evs[best].when ||
                     (evs[i].when == evs[best].when &&
                      evs[i].seq < evs[best].seq)))
                    best = i;
            }
            if (evs[best].when > limit)
                break;
            cur = evs[best].when;
            retire(evs[best]);
            std::function<void()> fn = evs[best].fn; // evs may grow
            fn();
        }
        return cur;
    }

    Tick run() { return runUntil(~Tick(0)); }
    void stop() { stopped = true; }

    void
    reset()
    {
        evs.clear();
        pending = daemons = 0;
        cur = 0;
        stopped = false;
    }

  private:
    struct Ev
    {
        Tick when;
        uint64_t seq;
        bool daemon;
        bool live;
        std::function<void()> fn;
    };

    void
    retire(Ev &e)
    {
        e.live = false;
        --pending;
        daemons -= e.daemon;
    }

    std::vector<Ev> evs;
    size_t pending = 0;
    size_t daemons = 0;
    Tick cur = 0;
    uint64_t seq = 0;
    bool stopped = false;
};

/** The real engine behind NaiveQueue's interface. */
struct RealQueue
{
    EventQueue q;

    Tick curTick() const { return q.curTick(); }

    template <typename F>
    uint64_t
    schedule(Tick when, F &&fn, bool daemon)
    {
        return daemon ? q.scheduleDaemon(when, std::forward<F>(fn))
                      : q.schedule(when, std::forward<F>(fn));
    }

    void deschedule(uint64_t id) { q.deschedule(id); }
    size_t numPending() const { return q.numPending(); }
    size_t numDaemon() const { return q.numDaemon(); }
    Tick runUntil(Tick limit) { return q.runUntil(limit); }
    Tick run() { return q.run(); }
    void stop() { q.stop(); }
    void reset() { q.reset(); }
};

/** Pick-0 controller that checks what it is offered. */
struct DefaultOrderController : ScheduleController
{
    size_t decisions = 0;

    size_t
    pick(const EventChoice *c, size_t n) override
    {
        ++decisions;
        for (size_t i = 1; i < n; ++i) {
            EXPECT_EQ(c[i].when, c[0].when) << "candidates span ticks";
            EXPECT_LT(c[i - 1].seq, c[i].seq) << "candidates out of order";
        }
        return 0;
    }
};

/**
 * A seeded schedule/cancel/stop script, played identically against
 * any engine with NaiveQueue's interface. Every fired event draws its
 * actions from an RNG seeded by its token, so two engines that fire
 * the same events in the same order run the same script: children
 * at delays that straddle the wheel/heap boundary (0, 1, 4095, 4096,
 * 4097, far future), daemon children, cancels of a random token
 * (often one already fired) and of the event's own id, and stop().
 * Between legs, events are scheduled from outside any callback, and
 * a leg is a run(), a runUntil() to a limit, or a reset().
 */
template <typename Q>
struct ScriptDriver
{
    Q q;
    uint64_t seed;
    /** (token, tick) per fired event, then a per-leg summary line. */
    std::vector<std::string> log;
    /** Engine id by token; tokens of earlier reset epochs are
     *  dropped (ids do not survive reset()). */
    std::vector<uint64_t> idOf;
    std::vector<int> epoch;
    int tokens = 0;
    static constexpr int maxTokens = 8000;
    /** Fired events run their script (else they only log). */
    bool scripted = true;

    explicit ScriptDriver(uint64_t s) : seed(s) {}

    static Cycles
    delay(std::mt19937_64 &r)
    {
        static const Cycles edge[] = {0,    1,    2,    4095,
                                      4096, 4097, 8191, 8192};
        switch (r() % 4) {
          case 0:
            return edge[r() % 8];
          case 1:
            return r() % 64;
          case 2:
            return r() % 5000;
          default:
            return r() % 16 == 0 ? (Cycles(1) << 40) + r() % 7
                                 : 100000 + r() % 3;
        }
    }

    void
    add(Tick when, bool daemon)
    {
        int tok = tokens++;
        uint64_t id =
            q.schedule(when, [this, tok]() { fired(tok); }, daemon);
        idOf.push_back(id);
        epoch.push_back(tok);
    }

    void
    fired(int tok)
    {
        log.push_back(std::to_string(tok) + "@" +
                      std::to_string(q.curTick()));
        if (!scripted)
            return;
        std::mt19937_64 r(seed * 0x9E3779B97F4A7C15ull +
                          static_cast<uint64_t>(tok));
        int kids = static_cast<int>(r() % 20);
        kids = kids < 8 ? 0 : kids < 15 ? 1 : 2; // mean 0.85
        for (int k = 0; k < kids && tokens < maxTokens; ++k) {
            Cycles d = delay(r);
            add(q.curTick() + d, r() % 12 == 0);
        }
        if (r() % 4 == 0 && !epoch.empty())
            q.deschedule(idOf[epoch[r() % epoch.size()]]);
        if (r() % 8 == 0)
            q.deschedule(idOf[tok]); // the firing event's own id
        if (r() % 97 == 0)
            q.stop();
    }

    void
    play(int legs)
    {
        std::mt19937_64 r(seed);
        for (int leg = 0; leg < legs; ++leg) {
            int outside = static_cast<int>(r() % 40);
            for (int i = 0; i < outside && tokens < maxTokens; ++i) {
                Cycles d = delay(r);
                add(q.curTick() + d, r() % 10 == 0);
            }
            unsigned kind = r() % 10;
            Tick ret = 0;
            if (kind < 4) {
                ret = q.run();
            } else if (kind < 9) {
                static const Cycles span[] = {0, 1, 4095, 4096, 5000,
                                              100000};
                ret = q.runUntil(q.curTick() + span[r() % 6]);
            } else {
                reset();
            }
            log.push_back("leg " + std::to_string(leg) + ": ret " +
                          std::to_string(ret) + " cur " +
                          std::to_string(q.curTick()) + " pending " +
                          std::to_string(q.numPending()) + " daemons " +
                          std::to_string(q.numDaemon()));
        }
        q.run();
        log.push_back("final cur " + std::to_string(q.curTick()) +
                      " pending " + std::to_string(q.numPending()));
        // The last real event's tick also holds a daemon behind it:
        // the drain must stop between the two.
        reset();
        scripted = false;
        add(5, false);
        add(5, true);
        q.run();
        log.push_back("daemon tail cur " + std::to_string(q.curTick()) +
                      " pending " + std::to_string(q.numPending()));
    }

    void
    reset()
    {
        q.reset();
        epoch.clear();
        std::fill(idOf.begin(), idOf.end(), invalidEventId);
    }
};

} // namespace

TEST(EventQueue, CallbackScriptMatchesReferenceModelAcrossLanes)
{
    // The script above, against the naive model: schedules and
    // cancels from inside callbacks on every lane (same-tick, wheel,
    // the wheel/heap boundary and its wrap-around, far-future heap),
    // daemons, stop() and runUntil() legs that end mid-tick, reset()
    // between legs -- and a pick-0 controller, whose run must be the
    // uncontrolled one.
    for (uint64_t seed : {1u, 2u, 0xC0FFEEu}) {
        ScriptDriver<NaiveQueue> model(seed);
        model.play(60);
        ScriptDriver<RealQueue> real(seed);
        real.play(60);
        ScriptDriver<RealQueue> controlled(seed);
        DefaultOrderController ctl;
        controlled.q.q.setScheduleController(&ctl);
        controlled.play(60);

        ASSERT_GT(model.log.size(), 1000u) << "seed " << seed;
        ASSERT_EQ(real.log.size(), model.log.size()) << "seed " << seed;
        for (size_t i = 0; i < model.log.size(); ++i)
            ASSERT_EQ(real.log[i], model.log[i])
                << "seed " << seed << " line " << i;
        EXPECT_EQ(controlled.log, real.log) << "seed " << seed;
        EXPECT_GT(ctl.decisions, 0u);
    }
}

TEST(EventQueue, NumFiredTotalSurvivesReset)
{
    EventQueue eq;
    for (int i = 0; i < 3; ++i)
        eq.schedule(i + 1, []() {});
    eq.run();
    eq.reset();
    eq.schedule(1, []() {});
    eq.run();
    EXPECT_EQ(eq.numFired(), 1u);
    EXPECT_EQ(eq.numFiredTotal(), 4u);
}

TEST(EventQueue, SteadyStateMakesNoHeapAllocations)
{
    EventQueue eq;
    uint64_t counter = 0;
    std::vector<EventId> ids;
    ids.reserve(64);
    auto round = [&]() {
        ids.clear();
        for (int i = 0; i < 64; ++i)
            ids.push_back(eq.scheduleIn(
                static_cast<Cycles>(i % 7 + 1),
                [&counter]() { ++counter; }));
        for (int i = 0; i < 64; i += 2)
            eq.deschedule(ids[i]);
        for (int i = 0; i < 8; ++i)
            eq.scheduleIn(0, [&counter]() { ++counter; });
        eq.run();
    };
    // Warm up: vectors grow to the working-set size.
    for (int i = 0; i < 4; ++i)
        round();

    uint64_t before = gAllocs.load(std::memory_order_relaxed);
    for (int i = 0; i < 16; ++i)
        round();
    uint64_t delta =
        gAllocs.load(std::memory_order_relaxed) - before;
    // The engine itself must be allocation-free in steady state; the
    // test's own ids vector is reserved, so any delta is the engine's.
    EXPECT_EQ(delta, 0u);
    EXPECT_GT(counter, 0u);
}

TEST(SmallFunction, InlineAndHeapStorage)
{
    uint64_t x = 0;
    auto small = [&x]() { ++x; };
    static_assert(SmallFunction::storedInline<decltype(small)>(),
                  "small capture must use the inline buffer");

    struct Big
    {
        char pad[96];
    };
    Big big{};
    auto large = [&x, big]() { x += static_cast<uint64_t>(big.pad[0]) + 1; };
    static_assert(!SmallFunction::storedInline<decltype(large)>(),
                  "oversized capture must spill to the heap");

    SmallFunction f(std::move(small));
    SmallFunction g(std::move(large));
    f();
    g();
    EXPECT_EQ(x, 2u);

    // Move transfers the callable and empties the source.
    SmallFunction h(std::move(f));
    h();
    EXPECT_EQ(x, 3u);
    EXPECT_FALSE(static_cast<bool>(f));
    EXPECT_TRUE(static_cast<bool>(h));
}

namespace
{

/** Controller scripting fixed picks; records what it was offered. */
struct ScriptedController : ScheduleController
{
    std::vector<size_t> script;
    size_t next = 0;
    std::vector<std::vector<EventChoice>> offered;

    size_t
    pick(const EventChoice *choices, size_t n) override
    {
        offered.emplace_back(choices, choices + n);
        return next < script.size() ? script[next++] : 0;
    }
};

} // namespace

TEST(ScheduleControllerHook, NotConsultedForForcedMoves)
{
    // Distinct ticks: always exactly one ready event, never a
    // decision point.
    EventQueue q;
    ScriptedController c;
    q.setScheduleController(&c);
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_TRUE(c.offered.empty());
}

TEST(ScheduleControllerHook, PickReordersSameTickEvents)
{
    EventQueue q;
    ScriptedController c;
    c.script = {2};
    q.setScheduleController(&c);
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(0); }, EventKind::Cache, 4);
    q.schedule(10, [&] { order.push_back(1); }, EventKind::Network, 5);
    q.schedule(10, [&] { order.push_back(2); }, EventKind::Sched);
    q.run();
    // Pick 2 first; the rest follow in default order.
    EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
    ASSERT_EQ(c.offered.size(), 2u);
    // Candidates carry the scheduling-site tags, default order.
    ASSERT_EQ(c.offered[0].size(), 3u);
    EXPECT_EQ(c.offered[0][0].kind, EventKind::Cache);
    EXPECT_EQ(c.offered[0][0].actor, 4u);
    EXPECT_EQ(c.offered[0][1].kind, EventKind::Network);
    EXPECT_EQ(c.offered[0][1].actor, 5u);
    EXPECT_EQ(c.offered[0][2].kind, EventKind::Sched);
    EXPECT_EQ(c.offered[0][2].actor, unknownActor);
}

TEST(ScheduleControllerHook, OutOfRangePickIsClamped)
{
    EventQueue q;
    ScriptedController c;
    c.script = {99};
    q.setScheduleController(&c);
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(0); });
    q.schedule(10, [&] { order.push_back(1); });
    q.run();
    // Clamped to the last candidate.
    EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

TEST(ScheduleControllerHook, ControllerSurvivesReset)
{
    EventQueue q;
    ScriptedController c;
    q.setScheduleController(&c);
    q.schedule(10, [] {});
    q.reset();
    EXPECT_EQ(q.scheduleController(), &c);
    q.schedule(5, [] {});
    q.schedule(5, [] {});
    q.run();
    EXPECT_EQ(c.offered.size(), 1u);
}

TEST(PostFireHook, FiresPerEventWithTickAndKind)
{
    EventQueue q;
    std::vector<std::pair<Tick, EventKind>> fired;
    q.setPostFireHook(
        [&](Tick t, EventKind k) { fired.emplace_back(t, k); });
    q.schedule(10, [] {}, EventKind::Network, 1);
    q.schedule(20, [] {}, EventKind::Cache, 0);
    q.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], (std::pair<Tick, EventKind>{10,
                                                    EventKind::Network}));
    EXPECT_EQ(fired[1],
              (std::pair<Tick, EventKind>{20, EventKind::Cache}));
}

TEST(PostFireHook, RunsAfterTheCallbackAndOnControlledPath)
{
    EventQueue q;
    ScriptedController c;
    q.setScheduleController(&c);
    std::vector<int> seq;
    q.setPostFireHook([&](Tick, EventKind) { seq.push_back(-1); });
    q.schedule(10, [&] { seq.push_back(0); });
    q.schedule(10, [&] { seq.push_back(1); });
    q.run();
    // callback, hook, callback, hook -- on the controlled path too.
    EXPECT_EQ(seq, (std::vector<int>{0, -1, 1, -1}));
}
