/**
 * @file
 * Host-side profiling hook for the simulator itself: the event engine
 * counts fired events per EventKind and times a sample of their
 * callbacks, so "where do the ticks and the host time go" is
 * answerable per layer (bench telemetry records both).
 *
 * Enable with -DSPECRT_PROFILE=ON at configure time (defines the
 * SPECRT_PROFILE macro for the whole build). With the flag off the
 * hook compiles to nothing; `profileEnabled` lets hot paths guard
 * with `if constexpr`.
 */

#ifndef SPECRT_SIM_PROFILE_HH
#define SPECRT_SIM_PROFILE_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace specrt
{

/** Coarse category of a scheduled event (profiling histogram). */
enum class EventKind : uint8_t
{
    Generic,
    Network,
    Cache,
    Directory,
    Processor,
    Sched,
    Spec,
    NumKinds,
};

constexpr size_t numEventKinds =
    static_cast<size_t>(EventKind::NumKinds);

/** Name of an event kind, e.g.\ "network". */
const char *eventKindName(EventKind k);

#ifdef SPECRT_PROFILE
constexpr bool profileEnabled = true;
#else
constexpr bool profileEnabled = false;
#endif

namespace prof
{

/** Every sampleStride-th fired event has its callback timed. */
constexpr uint64_t sampleStride = 64;

/**
 * Fired events and sampled host time per EventKind. One lives in
 * each SimContext's recorders (sim_context.hh), written by the event
 * queues built under that context, so concurrent campaign jobs never
 * share one; bench::runJobs merges the jobs' profiles in job-id
 * order.
 */
struct Profile
{
    /** Fired events per kind (exact). */
    std::array<uint64_t, numEventKinds> events = {};
    /**
     * Host ns spent in callbacks per kind, estimated: each timed
     * callback's clock reading, less the clock's own read cost, times
     * sampleStride. Events a callback schedules are charged to its
     * kind; the fire loop's own cost is the run's host time minus
     * the sum.
     */
    std::array<uint64_t, numEventKinds> hostNs = {};

    /**
     * Run @p cb, the callback of the @p n-th fired event (1-based),
     * of kind @p k: count it, and time it when @p n is a multiple of
     * sampleStride.
     */
    template <typename F>
    void
    fire(EventKind k, uint64_t n, F &cb)
    {
        auto i = static_cast<size_t>(k);
        ++events[i];
        if (n % sampleStride != 0) {
            cb();
            return;
        }
        uint64_t t0 = clockNow();
        cb();
        hostNs[i] += sampleNs(clockNow() - t0);
    }

    void merge(const Profile &o);

    /** steady_clock now, in ns. */
    static uint64_t clockNow();

    /** One timed interval of @p ns, less the clock's own read cost,
     *  as the estimated ns of its sampleStride events. */
    static uint64_t sampleNs(uint64_t ns);
};

} // namespace prof

} // namespace specrt

#endif // SPECRT_SIM_PROFILE_HH
