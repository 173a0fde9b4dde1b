#include "sim/profile.hh"

#include <algorithm>
#include <chrono>

namespace specrt
{

const char *
eventKindName(EventKind k)
{
    switch (k) {
      case EventKind::Generic: return "generic";
      case EventKind::Network: return "network";
      case EventKind::Cache: return "cache";
      case EventKind::Directory: return "directory";
      case EventKind::Processor: return "processor";
      case EventKind::Sched: return "sched";
      case EventKind::Spec: return "spec";
      default: return "?";
    }
}

namespace prof
{

void
Profile::merge(const Profile &o)
{
    for (size_t k = 0; k < numEventKinds; ++k) {
        events[k] += o.events[k];
        hostNs[k] += o.hostNs[k];
    }
}

uint64_t
Profile::clockNow()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

uint64_t
Profile::sampleNs(uint64_t ns)
{
    // What an empty interval reads: the least of back-to-back pairs,
    // measured once per process.
    static const uint64_t overhead = [] {
        uint64_t least = ~uint64_t(0);
        for (int i = 0; i < 64; ++i) {
            uint64_t t0 = clockNow();
            least = std::min(least, clockNow() - t0);
        }
        return least;
    }();
    return (ns > overhead ? ns - overhead : 0) * sampleStride;
}

} // namespace prof

} // namespace specrt
