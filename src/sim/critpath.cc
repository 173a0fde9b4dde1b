#include "sim/critpath.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/artifact_writer.hh"
#include "sim/sim_context.hh"

namespace specrt
{
namespace critpath
{

Recorder &
current()
{
    return SimContext::current().recorders().critpath;
}

void
Recorder::enable()
{
    on = true;
    obs::refresh();
}

void
Recorder::disable()
{
    on = false;
    obs::refresh();
}

// --- collection -------------------------------------------------------

namespace
{

/** Slowest first; every tiebreak deterministic (campaign merges). */
bool
slowerThan(const TxnRecord &a, const TxnRecord &b)
{
    if (a.latency() != b.latency())
        return a.latency() > b.latency();
    if (a.start != b.start)
        return a.start < b.start;
    if (a.node != b.node)
        return a.node < b.node;
    return a.seq < b.seq;
}

} // namespace

void
Recorder::addTxn(const TxnRecord &r)
{
    ++txnsSeen;
    HomeAgg &h = homeAgg[r.home];
    h.dirWait += r.dirWait;
    ++h.txns;
    h.minElem = std::min(h.minElem, r.elem);
    h.maxElem = std::max(h.maxElem, r.elem);

    // Most misses are not among the slowest: one compare rejects
    // them; the rest binary-insert into the sorted list.
    if (top.size() == topK && !slowerThan(r, top.back()))
        return;
    top.insert(std::upper_bound(top.begin(), top.end(), r, slowerThan), r);
    if (top.size() > topK)
        top.pop_back();
}

void
Recorder::addRunTotals(double busy,
                       const std::array<double, stall::numCauses>
                           &stalls,
                       double run_ticks, int nprocs)
{
    ++runsSeen;
    busyTotal += busy;
    for (size_t c = 0; c < stall::numCauses; ++c)
        stallTotals[c] += stalls[c];
    runTicksTotal += run_ticks;
    procsMax = std::max(procsMax, nprocs);
}

void
Recorder::merge(const Recorder &shard)
{
    runsSeen += shard.runsSeen;
    txnsSeen += shard.txnsSeen;
    busyTotal += shard.busyTotal;
    runTicksTotal += shard.runTicksTotal;
    procsMax = std::max(procsMax, shard.procsMax);
    for (size_t c = 0; c < stall::numCauses; ++c)
        stallTotals[c] += shard.stallTotals[c];
    for (const auto &kv : shard.homeAgg) {
        HomeAgg &h = homeAgg[kv.first];
        h.dirWait += kv.second.dirWait;
        h.txns += kv.second.txns;
        h.minElem = std::min(h.minElem, kv.second.minElem);
        h.maxElem = std::max(h.maxElem, kv.second.maxElem);
    }
    top.insert(top.end(), shard.top.begin(), shard.top.end());
    std::sort(top.begin(), top.end(), slowerThan);
    if (top.size() > topK)
        top.resize(topK);
}

// --- reports ----------------------------------------------------------

std::string
Recorder::summaryLine() const
{
    double stall_sum = 0;
    for (double v : stallTotals)
        stall_sum += v;
    if (stall_sum <= 0)
        return "";

    size_t dom = 0;
    for (size_t c = 1; c < stall::numCauses; ++c)
        if (stallTotals[c] > stallTotals[dom])
            dom = c;
    stall::Cause cause = static_cast<stall::Cause>(dom);
    long pct = std::lround(100.0 * stallTotals[dom] / stall_sum);

    char buf[256];
    std::snprintf(buf, sizeof(buf), "run bounded %ld%% by %s", pct,
                  stall::causePrettyName(cause));
    std::string line = buf;

    if (cause == stall::Cause::DirQueue && !homeAgg.empty()) {
        NodeId hot = homeAgg.begin()->first;
        double hot_wait = -1;
        for (const auto &kv : homeAgg) {
            if (kv.second.dirWait > hot_wait) {
                hot_wait = kv.second.dirWait;
                hot = kv.first;
            }
        }
        const HomeAgg &h = homeAgg.at(hot);
        if (h.txns > 0 && h.minElem <= h.maxElem) {
            std::snprintf(buf, sizeof(buf),
                          " at home node %d, elements 0x%llx-0x%llx",
                          static_cast<int>(hot),
                          static_cast<unsigned long long>(h.minElem),
                          static_cast<unsigned long long>(h.maxElem));
            line += buf;
        }
    }
    return line;
}

namespace
{

/** Separate the next event from the previous one. */
ArtifactWriter &
event(ArtifactWriter &w, bool &first)
{
    if (!first)
        w << ',';
    first = false;
    return w << '\n';
}

/**
 * One async begin/end pair on the critpath track; @p args is raw JSON
 * for the begin event ("" for none).
 */
void
asyncSlice(ArtifactWriter &w, bool &first, std::string_view id,
           std::string_view name, NodeId tid, double ts_b, double ts_e,
           std::string_view args)
{
    for (bool begin : {true, false}) {
        event(w, first) << "{\"cat\":\"critpath\",\"name\":";
        w.quoted(name) << ",\"ph\":\"" << (begin ? 'b' : 'e')
                       << "\",\"id\":";
        w.quoted(id) << ",\"ts\":";
        w.num(begin ? ts_b : ts_e) << ",\"pid\":" << Recorder::perfettoPid
                                   << ",\"tid\":" << tid;
        if (begin && !args.empty())
            w << ",\"args\":" << args;
        w << '}';
    }
}

} // namespace

void
Recorder::appendTraceEvents(ArtifactWriter &w, bool &first) const
{
    if (top.empty() && !hasData())
        return;

    event(w, first) << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
                    << perfettoPid
                    << ",\"args\":{\"name\":\"critical path\"}}";

    std::vector<NodeId> nodes;
    for (const TxnRecord &t : top)
        if (std::find(nodes.begin(), nodes.end(), t.node) ==
            nodes.end())
            nodes.push_back(t.node);
    std::sort(nodes.begin(), nodes.end());
    for (NodeId n : nodes)
        event(w, first) << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
                        << perfettoPid << ",\"tid\":" << n
                        << ",\"args\":{\"name\":\"node " << n
                        << " slow loads\"}}";

    for (const TxnRecord &t : top) {
        ArtifactWriter id;
        id << t.node << ':' << t.seq;
        ArtifactWriter name;
        name << "load 0x";
        name.hex(t.elem);
        ArtifactWriter args;
        args << "{\"home\":" << t.home << ",\"iter\":" << t.iter
             << ",\"seq\":" << t.seq << ",\"dir_wait\":";
        args.num(t.dirWait) << ",\"net\":";
        args.num(t.net) << ",\"retry\":";
        args.num(t.retry) << ",\"service\":";
        args.num(t.service) << '}';
        asyncSlice(w, first, id.view(), name.view(), t.node,
                   static_cast<double>(t.start),
                   static_cast<double>(t.end), args.view());

        // Child slices: canonical component order request-net,
        // dir-queue, retry, service (+reply-net). The remainder of
        // the measured latency folds into the service slice.
        double ts = static_cast<double>(t.start);
        double net_req = std::floor(t.net / 2);
        double net_rep = t.net - net_req;
        double service = static_cast<double>(t.end) -
                         static_cast<double>(t.start) - t.net -
                         t.dirWait - t.retry;
        if (service < 0)
            service = 0;
        struct Seg
        {
            const char *name;
            double len;
        } segs[] = {
            {"net request", net_req}, {"dir-queue", t.dirWait},
            {"retry-backoff", t.retry}, {"service", service},
            {"net reply", net_rep},
        };
        int si = 0;
        for (const Seg &s : segs) {
            ++si;
            if (s.len <= 0)
                continue;
            ArtifactWriter child;
            child << id.view() << ':' << si;
            asyncSlice(w, first, child.view(), s.name, t.node, ts,
                       ts + s.len, "");
            ts += s.len;
        }
    }

    std::string line = summaryLine();
    if (!line.empty()) {
        event(w, first)
            << "{\"name\":\"critpath summary\",\"ph\":\"i\",\"ts\":0,"
               "\"pid\":"
            << perfettoPid << ",\"tid\":0,\"s\":\"p\",\"args\":{\"summary\":";
        w.quoted(line) << "}}";
    }
}

std::string
Recorder::perfettoJson() const
{
    ArtifactWriter w(top.size() * 1536 + 4096);
    w << "{\"traceEvents\":[";
    bool first = true;
    appendTraceEvents(w, first);
    w << "\n],\n\"displayTimeUnit\":\"ms\",\n\"critpath\":{\"summary\":";
    w.quoted(summaryLine()) << ",\"runs\":" << runsSeen
                            << ",\"txns\":" << txnsSeen
                            << ",\"procs\":" << procsMax
                            << ",\"run_ticks\":";
    w.num(runTicksTotal) << ",\"busy\":";
    w.num(busyTotal) << ",\"stall\":{";
    for (size_t c = 0; c < stall::numCauses; ++c) {
        if (c)
            w << ',';
        w << '"' << stall::causeName(static_cast<stall::Cause>(c))
          << "\":";
        w.num(stallTotals[c]);
    }
    w << "}}}\n";
    return w.take();
}

std::string
summaryLine()
{
    if (!enabled())
        return "";
    return current().summaryLine();
}

} // namespace critpath
} // namespace specrt
