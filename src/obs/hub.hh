/**
 * @file
 * The observability hub's hot-path face: the consumer ids and the one
 * enable latch.
 *
 * Five consumers observe a simulation: the protocol trace
 * (sim/trace.hh), the metric timeline (sim/timeline.hh), the
 * critical-path recorder (sim/critpath.hh), the structured event log
 * (obs/event_log.hh) and the stall-attribution engine
 * (sim/stall.hh). Their recorders live in the current SimContext;
 * the hub's state -- which of them collect, the environment knobs,
 * the export paths, the campaign shard merge -- lives there too
 * (sim/sim_context.hh).
 *
 * Instrumentation sites guard with a consumer's enabled() (e.g.
 * trace::enabled()), which tests one bit of a thread-local mask: the
 * disabled path is one load and one branch. refresh() recomputes the
 * mask from the current context; recorders call it when they are
 * switched on or off, and ScopedSimContext calls it when the current
 * context changes.
 */

#ifndef SPECRT_OBS_HUB_HH
#define SPECRT_OBS_HUB_HH

#include <cstddef>
#include <cstdint>

namespace specrt::obs
{

/**
 * The observability consumers. The first numArtifacts write a file
 * (and have an environment knob); the stall engine feeds the
 * critical-path recorder and RunResult::cost.
 */
enum class Consumer : uint8_t
{
    Trace,
    Timeline,
    Critpath,
    Events,
    Stall,
};

constexpr size_t numArtifacts = 4;

/**
 * One bit per Consumer for the current context (do not write).
 * constinit: callers then read it directly, without the call to a
 * thread-local init wrapper an extern thread_local otherwise costs.
 */
extern thread_local constinit uint8_t tlsOn;

/** True when the current context's @p c collects. */
inline bool
on(Consumer c)
{
    return (tlsOn >> static_cast<unsigned>(c)) & 1u;
}

/** Recompute tlsOn from the current context's recorders. */
void refresh();

} // namespace specrt::obs

#endif // SPECRT_OBS_HUB_HH
