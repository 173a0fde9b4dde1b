/**
 * @file
 * Instance-scoped simulator state.
 *
 * Historically the sim layer kept its cross-cutting mutable state in
 * process globals: the log sink registry, the SPECRT_TRACE latch and
 * its ring buffer, the trace loop-id counter, and ad-hoc RNG streams.
 * That was fine while one process modeled one machine, but it made
 * concurrent simulator instances impossible -- every experiment the
 * paper's evaluation needs (seeded torture grids, figure sweeps,
 * ablation benches) is a fleet of *independent* single-threaded
 * simulations that should fan out across host cores.
 *
 * A SimContext owns all of that state for one simulator instance:
 *
 *  - the log sink and throw-on-fatal flag (sim/logging.hh);
 *  - the observability hub: the recorders of the protocol trace
 *    (sim/trace.hh), the metric timeline (sim/timeline.hh), the
 *    critical-path recorder (sim/critpath.hh) and the event log
 *    (obs/event_log.hh), the installed stall engine (sim/stall.hh),
 *    and the artifact paths the environment asked for (obs/hub.hh
 *    holds the consumer ids and the enable latch);
 *  - named deterministic RNG streams derived from a base seed
 *    (sim/random.hh).
 *
 * Stats were already instance-scoped (every StatBase registers with
 * a StatGroup owned by its machine), so they need no home here;
 * campaign aggregation merges per-machine StatGroup::snapshot()s.
 *
 * Threading model: each simulator instance stays SINGLE-THREADED
 * (see logging.hh), but different instances may run on different
 * host threads concurrently. The *current* context is a thread-local
 * pointer; every thread starts with its own default context, and
 * ScopedSimContext activates a specific instance for a scope (the
 * campaign runner does this around each job). Sim-layer code reaches
 * its state through SimContext::current(), which therefore never
 * observes another thread's context.
 */

#ifndef SPECRT_SIM_SIM_CONTEXT_HH
#define SPECRT_SIM_SIM_CONTEXT_HH

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "obs/event_log.hh"
#include "obs/hub.hh"
#include "sim/arena.hh"
#include "sim/critpath.hh"
#include "sim/logging.hh"
#include "sim/profile.hh"
#include "sim/random.hh"
#include "sim/timeline.hh"
#include "sim/trace.hh"

namespace specrt
{

class ScheduleController;

namespace stall
{
class Engine;
}

namespace obs
{

/** What Recorders::write() did, and what the artifact cost. */
struct Written
{
    bool ok = false;
    /** Host ms building the artifact's bytes. */
    double renderMs = 0;
    /** Host ms handing them to the file (open, write, close). */
    double writeMs = 0;
    uint64_t bytes = 0;

    explicit operator bool() const { return ok; }
};

/** The artifact's name ("trace", "timeline", "critpath", "events"). */
const char *artifactName(Consumer c);

/**
 * The recorders behind the hub's artifact consumers, plus the event
 * engine's per-kind profile. A SimContext
 * owns one set; bench::runJobs captures each campaign job's set and
 * merges it into the process context's in job-id order, so every
 * merged artifact is independent of --jobs.
 */
struct Recorders
{
    trace::TraceBuffer trace;
    timeline::Timeline timeline;
    critpath::Recorder critpath;
    EventLog events;
    /** Fired events and sampled host ns per EventKind; written only
     *  in SPECRT_PROFILE builds (sim/profile.hh). No artifact. */
    prof::Profile profile;

    /**
     * Switch artifact consumer @p c on. @p size is its geometry --
     * trace ring records, timeline interval in ticks, event-log
     * lines -- and 0 picks the recorder's default.
     */
    void enable(Consumer c, uint64_t size = 0);

    /** Switch on every consumer @p like has on, with its geometry. */
    void enableLike(const Recorders &like);

    /** Fold @p shard into each recorder by that recorder's merge(). */
    void merge(const Recorders &shard);

    /** @p c recorded anything. */
    bool hasData(Consumer c) const;

    /** The bytes of @p c's artifact file. */
    std::string render(Consumer c) const;

    /**
     * Write @p c's artifact to @p path in one write and report it on
     * @p log ("[trace] wrote 16384 records to <path>", or the
     * failure).
     */
    Written write(Consumer c, const std::string &path,
                  std::FILE *log) const;
};

} // namespace obs

class SimContext
{
  public:
    /** @param seed base seed of the context's named RNG streams. */
    explicit SimContext(uint64_t seed = 0) : baseSeed(seed) {}

    /**
     * Writes every artifact the environment named a file for
     * (obsOutPath) that recorded anything. This happens in the
     * destructor -- not an atexit handler -- because the main
     * thread's default context is itself thread-local, and C++
     * destroys thread-locals before atexit handlers run.
     */
    ~SimContext();

    SimContext(const SimContext &) = delete;
    SimContext &operator=(const SimContext &) = delete;

    /**
     * The context active on this host thread. Never null: a thread
     * that has not activated one explicitly gets its own default
     * context (created on first use, destroyed at thread exit).
     */
    static SimContext &current();

    // --- logging (accessed by sim/logging.cc) -------------------------

    /** Captures log output instead of stderr when set. */
    LogSink logSink;
    /** fatal()/panic() throw FatalError instead of terminating. */
    bool logThrowOnFatal = false;

    // --- observability hub (obs/hub.hh) --------------------------------

    obs::Recorders &recorders() { return obsRec; }
    const obs::Recorders &recorders() const { return obsRec; }

    /** Ambient (tick, node, elem, iter) for abort attribution. */
    trace::Ctx traceCtx;

    /**
     * Apply the environment to this context, once: SPECRT_TRACE,
     * SPECRT_TIMELINE, SPECRT_CRITPATH and SPECRT_EVENTS each leave
     * their consumer alone when unset, "" or "0", switch it on when
     * "1", and otherwise switch it on and name the file its artifact
     * is written to when this context dies (obsOutPath).
     * SPECRT_TRACE_CAPACITY and SPECRT_TIMELINE_INTERVAL set the
     * geometry; a bad value warns and keeps the default.
     * LoopExecutor::run() calls this, so every driver -- tests
     * included -- honours the environment without knowing about it.
     * Concurrent contexts export one at a time; the last one to die
     * wins the file, matching CI's serial rerun semantics.
     */
    void applyObsEnv();

    /** Export path per artifact consumer ("" = none), by Consumer. */
    std::array<std::string, obs::numArtifacts> obsOutPath;

    /**
     * Fingerprint (hex MachineConfig::fingerprint()) of the last
     * machine a LoopExecutor ran under this context; "" until a run
     * happens. Campaign outcomes carry it so a failure line names
     * the exact config to replay (campaign::describeFailures).
     */
    std::string configFingerprint;

    /**
     * Stall-attribution engine of the run in progress (sim/stall.hh).
     * Owned by the profiled run's LoopExecutor, published here so
     * protocol engines deep inside the machine reach it without
     * plumbing (the scheduleController pattern). Null when no
     * profiled run is active. Not owned.
     */
    stall::Engine *stallEngine = nullptr;

    // --- schedule exploration (read by mem/dsm.cc) --------------------

    /**
     * Controller every DsmSystem constructed under this context
     * installs into its event queue (sim/event_queue.hh). The
     * explorer (verify/explorer.hh) sets this around a run so the
     * machine built deep inside LoopExecutor::run() comes up
     * controlled; null (the default) means the plain deterministic
     * schedule. Not owned.
     */
    ScheduleController *scheduleController = nullptr;

    // --- message arena (accessed by mem/network.cc) --------------------

    /**
     * The context's pooled-message arena, acquired lazily from the
     * process-wide recycle pool (sim/arena.hh) and returned to it
     * when the context dies with nothing outstanding. Every machine
     * built under this context allocates its in-flight message
     * copies here; its published counters are deterministic per job,
     * so campaign telemetry stays byte-identical across --jobs N.
     */
    Arena &msgArena();

    /**
     * High-water mark of this context's arena, without creating one
     * (0 when the context never allocated a message).
     */
    uint64_t arenaHighWater() const
    {
        return arena ? arena->highWater() : 0;
    }

    // --- deterministic randomness -------------------------------------

    /** Base seed the named streams derive from. */
    uint64_t baseSeed = 0;

    /**
     * The named RNG stream @p name, created (seeded from baseSeed and
     * the stream name) on first use. Distinct names give independent,
     * reproducible streams; the same (baseSeed, name) always yields
     * the same sequence.
     */
    Rng &rng(const std::string &name);

    /** Reset every named stream to its initial seeded state. */
    void reseed(uint64_t seed);

  private:
    obs::Recorders obsRec;
    bool obsEnvApplied = false;
    std::map<std::string, Rng> rngs;
    std::unique_ptr<Arena> arena;
};

/**
 * RAII activation of a SimContext on the calling thread. The
 * previous context (possibly the thread default) is restored on
 * destruction. Not copyable; scopes nest.
 */
class ScopedSimContext
{
  public:
    explicit ScopedSimContext(SimContext &ctx);
    ~ScopedSimContext();

    ScopedSimContext(const ScopedSimContext &) = delete;
    ScopedSimContext &operator=(const ScopedSimContext &) = delete;

  private:
    SimContext *prev;
};

} // namespace specrt

#endif // SPECRT_SIM_SIM_CONTEXT_HH
