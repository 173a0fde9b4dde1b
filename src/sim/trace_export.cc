#include "sim/trace_export.hh"

#include <set>
#include <vector>

#include "sim/artifact_writer.hh"
#include "sim/critpath.hh"
#include "sim/timeline.hh"
#include "sim/trace.hh"

namespace specrt
{
namespace trace
{

namespace
{

/**
 * Synthetic pid for records with no node (loop begin/end,
 * checkpoints, executor-level aborts). Keeps machine-scope events on
 * their own track instead of polluting node 0.
 */
constexpr int machinePid = 9999;

/** Synthetic pid for the timeline's counter tracks. */
constexpr int counterPid = 9998;

/** Lanes (tids) within each node's track. */
constexpr int tidIter = 0;
constexpr int tidMsg = 1;
constexpr int tidProto = 2;

int
pidOf(const TraceRecord &r)
{
    return r.node == invalidNode ? machinePid
                                 : static_cast<int>(r.node);
}

/** Open one trace event up to its name, which the caller writes. */
void
open(ArtifactWriter &w, bool &first)
{
    w << (first ? "\n" : ",\n") << "  {\"name\": \"";
    first = false;
}

/**
 * Close the name and write the fields every event has; the caller
 * adds its own fields (", ...") and the closing brace.
 */
void
head(ArtifactWriter &w, const char *ph, uint64_t ts, int pid, int tid)
{
    w << "\", \"ph\": \"" << ph << "\", \"ts\": " << ts
      << ", \"pid\": " << pid << ", \"tid\": " << tid;
}

/** A metadata event naming process @p pid or its lane @p tid. */
void
meta(ArtifactWriter &w, bool &first, const char *what, int pid, int tid,
     std::string_view name)
{
    open(w, first);
    w << what;
    head(w, "M", 0, pid, tid);
    w << ", \"args\": {\"name\": \"" << name << "\"}}";
}

/** The args every record carries; the caller closes the object. */
void
argsCommon(ArtifactWriter &w, const TraceRecord &r)
{
    w << "\"args\": {\"loop\": " << r.loop << ", \"iter\": " << r.iter;
    if (r.addr != invalidAddr) {
        w << ", \"elem\": \"0x";
        w.hex(r.addr) << '"';
    }
}

/**
 * The timeline's sampled series as Perfetto counter tracks: one "C"
 * event per (series, sample row), all on a synthetic "metrics"
 * process. Same tick timebase as the trace events, so counters and
 * protocol activity line up in the viewer.
 */
void
counterTracks(ArtifactWriter &w, bool &first, const timeline::Timeline &tl)
{
    if (tl.numSamples() == 0)
        return;
    meta(w, first, "process_name", counterPid, 0, "metrics");
    const std::vector<Tick> &ticks = tl.sampleTicks();
    const std::vector<uint32_t> &runs = tl.sampleRuns();
    for (const timeline::Timeline::Series &s : tl.allSeries()) {
        ArtifactWriter name;
        name.escaped(s.name.c_str());
        for (size_t row = 0; row < ticks.size(); ++row) {
            open(w, first);
            w << name.view();
            head(w, "C", ticks[row], counterPid, 0);
            w << ", \"args\": {\"value\": ";
            w.g(s.values[row]) << ", \"run\": " << runs[row] << "}}";
        }
    }
}

} // namespace

std::string
chromeTraceJson(const TraceBuffer &buf, const timeline::Timeline *tl)
{
    // One reservation: ~170 bytes per event, two events for a message
    // record; ~100 per counter row.
    size_t counters = tl ? tl->numSamples() * tl->numSeries() : 0;
    ArtifactWriter w(buf.size() * 256 + counters * 112 + 4096);
    w << "{\"traceEvents\": [";
    bool first = true;

    // Metadata: name the per-node processes and their lanes, plus
    // the machine-scope track (last: its pid is above every node's).
    std::vector<bool> nodeSeen;
    bool machineSeen = false;
    for (size_t i = 0; i < buf.size(); ++i) {
        int pid = pidOf(buf.at(i));
        if (pid == machinePid) {
            machineSeen = true;
            continue;
        }
        if (static_cast<size_t>(pid) >= nodeSeen.size())
            nodeSeen.resize(pid + 1, false);
        nodeSeen[pid] = true;
    }
    for (size_t n = 0; n < nodeSeen.size(); ++n) {
        if (!nodeSeen[n])
            continue;
        int pid = static_cast<int>(n);
        ArtifactWriter name;
        name << "node " << pid;
        meta(w, first, "process_name", pid, 0, name.view());
        meta(w, first, "thread_name", pid, tidIter, "iterations");
        meta(w, first, "thread_name", pid, tidMsg, "messages");
        meta(w, first, "thread_name", pid, tidProto, "protocol");
    }
    if (machineSeen) {
        meta(w, first, "process_name", machinePid, 0, "machine");
        meta(w, first, "thread_name", machinePid, tidIter, "iterations");
    }

    for (size_t i = 0; i < buf.size(); ++i) {
        const TraceRecord &r = buf.at(i);
        int pid = pidOf(r);
        const char *cat = eventKindName(opCategory(r.op));
        open(w, first);

        switch (r.op) {
          case TraceOp::IterBegin:
          case TraceOp::IterEnd:
            w << "iter " << r.iter;
            head(w, r.op == TraceOp::IterBegin ? "B" : "E", r.tick, pid,
                 tidIter);
            w << ", ";
            argsCommon(w, r);
            w << "}}";
            break;

          case TraceOp::LoopBegin:
          case TraceOp::LoopEnd:
            w << "loop " << r.loop << " (";
            w.escaped(r.label ? r.label : "?") << ')';
            head(w, r.op == TraceOp::LoopBegin ? "B" : "E", r.tick, pid,
                 tidIter);
            w << ", ";
            argsCommon(w, r);
            w << "}}";
            break;

          case TraceOp::MsgSend:
          case TraceOp::MsgRecv: {
            const char *name = r.label ? r.label : "msg";
            w.escaped(name);
            // A dur-1 slice on the endpoint's message lane...
            head(w, "X", r.tick, pid, tidMsg);
            w << ", \"dur\": 1, \"cat\": \"" << cat << "\", ";
            argsCommon(w, r);
            w << ", \"peer\": " << r.peer << ", \"flow\": " << r.b
              << "}}";
            // ...plus a flow arrow endpoint keyed by the flow id.
            open(w, first);
            w.escaped(name);
            head(w, r.op == TraceOp::MsgSend ? "s" : "f", r.tick, pid,
                 tidMsg);
            w << ", \"cat\": \"" << cat << "\", \"id\": " << r.b;
            if (r.op == TraceOp::MsgRecv)
                w << ", \"bp\": \"e\"";
            w << '}';
            break;
          }

          case TraceOp::Abort:
            w << "ABORT: ";
            w.escaped(r.label ? r.label : "?");
            head(w, "i", r.tick, pid, tidProto);
            w << ", \"s\": \"g\", \"cat\": \"" << cat << "\", ";
            argsCommon(w, r);
            w << ", \"node\": " << r.node << "}}";
            break;

          default:
            // Protocol-state instants: cache/dir transitions,
            // spec-bit and time-stamp updates, grants, checkpoints,
            // commits.
            w << traceOpName(r.op);
            if (r.label)
                w << ' ';
            w.escaped(r.label);
            head(w, "i", r.tick, pid,
                 pid == machinePid ? tidIter : tidProto);
            w << ", \"s\": \"t\", \"cat\": \"" << cat << "\", ";
            argsCommon(w, r);
            w << ", \"old\": " << r.a << ", \"new\": " << r.b << "}}";
            break;
        }
    }

    if (tl)
        counterTracks(w, first, *tl);

    // The critical-path recorder's async track (slow load misses as
    // nested per-component slices) shares the tick timebase.
    const critpath::Recorder &cp = critpath::current();
    if (cp.hasData())
        cp.appendTraceEvents(w, first);

    w << "\n],\n\"displayTimeUnit\": \"ns\",\n"
      << "\"otherData\": {\"recorded\": " << buf.recorded()
      << ", \"dropped\": " << buf.dropped() << "}}\n";
    return w.take();
}

std::string
textSummary(const TraceBuffer &buf, const timeline::Timeline *tl)
{
    uint64_t perOp[numTraceOps] = {};
    std::set<NodeId> nodes;
    Tick lo = maxTick, hi = 0;
    ArtifactWriter aborts;

    for (size_t i = 0; i < buf.size(); ++i) {
        const TraceRecord &r = buf.at(i);
        ++perOp[static_cast<size_t>(r.op)];
        if (r.node != invalidNode)
            nodes.insert(r.node);
        if (r.tick < lo)
            lo = r.tick;
        if (r.tick > hi)
            hi = r.tick;
        if (r.op == TraceOp::Abort) {
            aborts << "  tick " << r.tick << " node " << r.node
                   << " loop " << r.loop << " iter " << r.iter << ": "
                   << (r.label ? r.label : "?") << '\n';
        }
    }

    ArtifactWriter w;
    w << "trace summary: " << buf.size() << " records retained, "
      << buf.recorded() << " recorded, " << buf.dropped() << " dropped";
    if (buf.size())
        w << ", ticks [" << lo << ", " << hi << "], " << nodes.size()
          << " nodes";
    w << '\n';
    for (size_t i = 0; i < numTraceOps; ++i) {
        if (!perOp[i])
            continue;
        TraceOp op = static_cast<TraceOp>(i);
        w << "  " << traceOpName(op) << " ("
          << eventKindName(opCategory(op)) << "): " << perOp[i] << '\n';
    }
    if (aborts.size())
        w << "aborts:\n" << aborts.view();
    if (tl)
        w << tl->hotSummary();
    const critpath::Recorder &cp = critpath::current();
    if (cp.hasData()) {
        std::string line = cp.summaryLine();
        if (!line.empty())
            w << "critical path: " << line << '\n';
    }
    return w.take();
}

} // namespace trace
} // namespace specrt
