#include "sim/profile.hh"

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

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

} // namespace prof

} // namespace specrt
