/**
 * @file
 * Host-side profiling hook for the simulator itself: the event engine
 * counts fired events per EventKind, so "where do the ticks go" is
 * answerable per run (bench telemetry records the histogram).
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

/** Process-wide fired-event histogram. */
class Registry
{
  public:
    static Registry &instance();

    /** Count one fired event of kind @p k. */
    void
    recordEvent(EventKind k)
    {
        ++eventHist_[static_cast<size_t>(k)];
    }

    const std::array<uint64_t, numEventKinds> &
    eventHist() const
    {
        return eventHist_;
    }

  private:
    Registry() = default;

    std::array<uint64_t, numEventKinds> eventHist_ = {};
};

} // namespace prof

} // namespace specrt

#endif // SPECRT_SIM_PROFILE_HH
