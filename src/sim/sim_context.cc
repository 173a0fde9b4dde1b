#include "sim/sim_context.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "sim/trace_export.hh"

namespace specrt
{

namespace
{

/**
 * The active context of this host thread. Null until current() is
 * first called or a ScopedSimContext activates an instance; lazily
 * points at the thread's own default context otherwise.
 */
thread_local SimContext *tlsCurrent = nullptr;

SimContext &
threadDefault()
{
    static thread_local SimContext ctx;
    return ctx;
}

} // namespace

// --- observability hub ------------------------------------------------

namespace obs
{

thread_local constinit uint8_t tlsOn = 0;

namespace
{

std::string
counted(uint64_t n, const char *what)
{
    return std::to_string(n) + " " + what;
}

/** One artifact consumer: its environment knobs and its file. */
struct Artifact
{
    const char *name;
    /** "1" = on; another value = on, exporting to that path. */
    const char *env;
    /** Geometry knob (Recorders::enable's size), or null. */
    const char *sizeEnv;
    bool (*isOn)(const Recorders &);
    /** The geometry enableLike() copies (0 = none). */
    uint64_t (*size)(const Recorders &);
    bool (*hasData)(const Recorders &);
    std::string (*render)(const Recorders &);
    /** What write() reports it wrote, e.g.\ "73 samples". */
    std::string (*describe)(const Recorders &);
};

/** Indexed by Consumer. */
const Artifact artifacts[numArtifacts] = {
    {"trace", "SPECRT_TRACE", "SPECRT_TRACE_CAPACITY",
     [](const Recorders &r) { return r.trace.isOn(); },
     [](const Recorders &r) { return uint64_t(r.trace.capacity()); },
     [](const Recorders &r) { return r.trace.recorded() != 0; },
     [](const Recorders &r) {
         // The timeline's series ride along as counter tracks, and
         // the current context's critical path as an async track.
         return trace::chromeTraceJson(
             r.trace, r.timeline.numSamples() ? &r.timeline : nullptr);
     },
     [](const Recorders &r) { return counted(r.trace.size(), "records"); }},
    {"timeline", "SPECRT_TIMELINE", "SPECRT_TIMELINE_INTERVAL",
     [](const Recorders &r) { return r.timeline.isOn(); },
     [](const Recorders &r) { return uint64_t(r.timeline.interval()); },
     [](const Recorders &r) { return r.timeline.numSamples() != 0; },
     [](const Recorders &r) { return r.timeline.csv(); },
     [](const Recorders &r) {
         return counted(r.timeline.numSamples(), "samples x ") +
                counted(r.timeline.numSeries(), "series");
     }},
    {"critpath", "SPECRT_CRITPATH", nullptr,
     [](const Recorders &r) { return r.critpath.isOn(); },
     [](const Recorders &) { return uint64_t(0); },
     [](const Recorders &r) { return r.critpath.hasData(); },
     [](const Recorders &r) { return r.critpath.perfettoJson(); },
     [](const Recorders &r) {
         return counted(r.critpath.numTxns(), "txn records over ") +
                counted(r.critpath.numRuns(), "runs");
     }},
    {"events", "SPECRT_EVENTS", nullptr,
     [](const Recorders &r) { return r.events.isOn(); },
     [](const Recorders &r) { return uint64_t(r.events.capacity()); },
     [](const Recorders &r) { return r.events.recorded() != 0; },
     [](const Recorders &r) { return r.events.jsonl(); },
     [](const Recorders &r) {
         return counted(r.events.size(), "event lines");
     }},
};

const Artifact &
artifact(Consumer c)
{
    SPECRT_ASSERT(static_cast<size_t>(c) < numArtifacts,
                  "consumer %d writes no artifact", static_cast<int>(c));
    return artifacts[static_cast<size_t>(c)];
}

} // namespace

void
refresh()
{
    const SimContext &ctx = SimContext::current();
    unsigned mask = ctx.stallEngine
                        ? 1u << static_cast<unsigned>(Consumer::Stall)
                        : 0u;
    for (size_t i = 0; i < numArtifacts; ++i)
        if (artifacts[i].isOn(ctx.recorders()))
            mask |= 1u << i;
    tlsOn = static_cast<uint8_t>(mask);
}

void
Recorders::enable(Consumer c, uint64_t size)
{
    switch (c) {
      case Consumer::Trace:
        trace.enable(size ? size : trace::TraceBuffer::defaultCapacity);
        break;
      case Consumer::Timeline:
        timeline.enable(size); // 0 = defaultIntervalTicks
        break;
      case Consumer::Critpath:
        critpath.enable();
        break;
      case Consumer::Events:
        events.enable(size ? size : EventLog::defaultCapacity);
        break;
      case Consumer::Stall:
        panic("the stall engine is installed per run, not enabled");
    }
}

void
Recorders::enableLike(const Recorders &like)
{
    for (size_t i = 0; i < numArtifacts; ++i)
        if (artifacts[i].isOn(like))
            enable(static_cast<Consumer>(i), artifacts[i].size(like));
}

void
Recorders::merge(const Recorders &shard)
{
    trace.merge(shard.trace);
    timeline.merge(shard.timeline);
    critpath.merge(shard.critpath);
    events.merge(shard.events);
    profile.merge(shard.profile);
}

bool
Recorders::hasData(Consumer c) const
{
    return artifact(c).hasData(*this);
}

std::string
Recorders::render(Consumer c) const
{
    return artifact(c).render(*this);
}

Written
Recorders::write(Consumer c, const std::string &path,
                 std::FILE *log) const
{
    using Clock = std::chrono::steady_clock;
    auto ms = [](Clock::duration d) {
        return std::chrono::duration<double, std::milli>(d).count();
    };
    const Artifact &a = artifact(c);
    Written w;
    Clock::time_point t0 = Clock::now();
    const std::string bytes = a.render(*this);
    Clock::time_point t1 = Clock::now();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    bool ok = f && std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                       bytes.size();
    if (f && std::fclose(f) != 0)
        ok = false;
    w.renderMs = ms(t1 - t0);
    w.writeMs = ms(Clock::now() - t1);
    if (!ok) {
        std::fprintf(stderr, "[%s] failed to write %s\n", a.name,
                     path.c_str());
        return w;
    }
    w.ok = true;
    w.bytes = bytes.size();
    std::fprintf(log, "[%s] wrote %s to %s\n", a.name,
                 a.describe(*this).c_str(), path.c_str());
    return w;
}

const char *
artifactName(Consumer c)
{
    return artifact(c).name;
}

} // namespace obs

void
SimContext::applyObsEnv()
{
    if (obsEnvApplied)
        return;
    obsEnvApplied = true;
    for (size_t i = 0; i < obs::numArtifacts; ++i) {
        const obs::Artifact &a = obs::artifacts[i];
        const char *v = std::getenv(a.env);
        if (!v || !*v || std::strcmp(v, "0") == 0)
            continue;
        uint64_t size = 0;
        if (const char *sz = a.sizeEnv ? std::getenv(a.sizeEnv) : nullptr) {
            char *end = nullptr;
            unsigned long long n = std::strtoull(sz, &end, 10);
            if (*end == '\0' && n > 0)
                size = n;
            else
                warn("ignoring bad %s '%s'", a.sizeEnv, sz);
        }
        obsRec.enable(static_cast<obs::Consumer>(i), size);
        if (std::strcmp(v, "1") != 0)
            obsOutPath[i] = v;
    }
}

SimContext::~SimContext()
{
    // Hand the arena back to the recycle pool first: slabs and
    // freelists stay warm for the next campaign job on any worker.
    Arena::recycle(std::move(arena));

    // One exporter at a time: several env-observed contexts may die
    // concurrently (campaign jobs), and a file must never hold an
    // interleaving of two exports. The mutex has static storage, so
    // it outlives every thread-local context, including the main
    // thread's default one.
    static std::mutex exportMutex;
    std::unique_lock<std::mutex> lock(exportMutex, std::defer_lock);
    for (size_t i = 0; i < obs::numArtifacts; ++i) {
        auto c = static_cast<obs::Consumer>(i);
        if (obsOutPath[i].empty() || !obsRec.hasData(c))
            continue;
        if (!lock.owns_lock())
            lock.lock();
        obsRec.write(c, obsOutPath[i], stderr);
    }
}

SimContext &
SimContext::current()
{
    if (!tlsCurrent)
        tlsCurrent = &threadDefault();
    return *tlsCurrent;
}

Arena &
SimContext::msgArena()
{
    if (!arena)
        arena = Arena::acquire();
    return *arena;
}

Rng &
SimContext::rng(const std::string &name)
{
    auto it = rngs.find(name);
    if (it == rngs.end()) {
        it = rngs.emplace(name, Rng(deriveSeed(baseSeed, name)))
                 .first;
    }
    return it->second;
}

void
SimContext::reseed(uint64_t seed)
{
    baseSeed = seed;
    for (auto &[name, stream] : rngs)
        stream.reseed(deriveSeed(baseSeed, name));
}

ScopedSimContext::ScopedSimContext(SimContext &ctx) : prev(tlsCurrent)
{
    tlsCurrent = &ctx;
    obs::refresh();
}

ScopedSimContext::~ScopedSimContext()
{
    tlsCurrent = prev;
    obs::refresh();
}

} // namespace specrt
