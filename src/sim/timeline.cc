#include "sim/timeline.hh"

#include <algorithm>
#include <bit>

#include "sim/artifact_writer.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/sim_context.hh"

namespace specrt
{
namespace timeline
{

Timeline &
current()
{
    return SimContext::current().recorders().timeline;
}

// --- Timeline ---------------------------------------------------------

void
Timeline::enable(Tick interval)
{
    if (interval == 0)
        interval = defaultIntervalTicks;
    intervalTicks = interval;
    on = true;
    obs::refresh();
}

void
Timeline::disable()
{
    on = false;
    obs::refresh();
}

size_t
Timeline::seriesIndexOf(const std::string &name)
{
    auto it = seriesIndex.find(name);
    if (it != seriesIndex.end())
        return it->second;
    size_t idx = series_.size();
    series_.push_back(Series{name, {}});
    // Zero-backfill so the matrix stays rectangular: a series first
    // seen at row k reads 0 for rows 0..k-1.
    series_[idx].values.assign(ticks_.size(), 0.0);
    seriesIndex.emplace(name, idx);
    return idx;
}

void
Timeline::sample(Tick tick, uint32_t run,
                 const std::vector<std::pair<std::string, double>>
                     &values)
{
    ticks_.push_back(tick);
    runs_.push_back(run);
    // Default every known series to 0 for this row; the provided
    // values then overwrite their columns.
    for (Series &s : series_)
        s.values.push_back(0.0);
    size_t row = ticks_.size() - 1;
    for (const auto &[name, v] : values) {
        size_t idx = seriesIndexOf(name);
        if (series_[idx].values.size() <= row)
            series_[idx].values.resize(row + 1, 0.0);
        series_[idx].values[row] = v;
    }
    // Built-in series: §3.2/§3.3 spec-state transitions since the
    // previous sample. Always emitted, so even a run with no
    // registered groups or gauges produces a non-degenerate matrix.
    size_t sidx = seriesIndexOf("spec.transitions");
    if (series_[sidx].values.size() <= row)
        series_[sidx].values.resize(row + 1, 0.0);
    series_[sidx].values[row] =
        static_cast<double>(pendingSpecTransitions);
    pendingSpecTransitions = 0;
}

// --- heatmap ----------------------------------------------------------

static_assert(maxProcs <= 64, "HeatTable packs a home into 6 bits");

const HeatCell *
HeatTable::find(HeatKey k) const
{
    if (slots.empty())
        return nullptr;
    const Slot &s = slots[probe(pack(k))];
    return s.key == vacant ? nullptr : &s.cell;
}

void
HeatTable::grow()
{
    std::vector<Slot> old = std::exchange(
        slots, std::vector<Slot>(slots.empty() ? 64 : 2 * slots.size()));
    shift = 64 - static_cast<unsigned>(std::countr_zero(slots.size()));
    for (const Slot &s : old)
        if (s.key != vacant)
            slots[probe(s.key)] = s;
}

std::vector<std::pair<HeatKey, HeatCell>>
HeatTable::sorted() const
{
    std::vector<std::pair<HeatKey, HeatCell>> out;
    out.reserve(used);
    forEach([&](HeatKey k, const HeatCell &c) { out.emplace_back(k, c); });
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return out;
}

namespace
{

inline HeatKey
heatKey(NodeId home, Addr elem)
{
    return {home, elem >> Timeline::bucketShift};
}

} // namespace

void
Timeline::noteDirAccess(NodeId home, Addr elem)
{
    ++heat[heatKey(home, elem)].accesses;
}

void
Timeline::noteDirQueued(NodeId home, Addr elem)
{
    ++heat[heatKey(home, elem)].queued;
}

void
Timeline::noteDirConflict(NodeId home, Addr elem)
{
    ++heat[heatKey(home, elem)].conflicts;
}

void
Timeline::merge(const Timeline &shard)
{
    size_t oldRows = ticks_.size();
    uint32_t runOffset = nextRun;
    ticks_.insert(ticks_.end(), shard.ticks_.begin(),
                  shard.ticks_.end());
    for (uint32_t r : shard.runs_)
        runs_.push_back(r + runOffset);
    nextRun += shard.nextRun;
    // Extend our series over the shard's rows, then fill the shard's
    // columns (creating any we have not seen; both directions are
    // zero-backfilled).
    for (Series &s : series_)
        s.values.resize(ticks_.size(), 0.0);
    for (const Series &ss : shard.series_) {
        size_t idx = seriesIndexOf(ss.name);
        series_[idx].values.resize(ticks_.size(), 0.0);
        std::copy(ss.values.begin(), ss.values.end(),
                  series_[idx].values.begin() + oldRows);
    }
    // Sums commute: table order is fine here.
    shard.heat.forEach(
        [&](HeatKey key, const HeatCell &cell) { heat[key].add(cell); });
    pendingSpecTransitions += shard.pendingSpecTransitions;
}

std::string
Timeline::csv() const
{
    size_t cells = ticks_.size() * (series_.size() + 2);
    ArtifactWriter w(cells * 8 + heat.size() * 72 + 4096);
    w << "tick,run";
    for (const Series &s : series_)
        w << ',' << s.name;
    w << '\n';
    for (size_t row = 0; row < ticks_.size(); ++row) {
        w << ticks_[row] << ',' << runs_[row];
        for (const Series &s : series_)
            (w << ',').num(s.values[row]);
        w << '\n';
    }
    // Heatmap footer: comment lines so a plain CSV reader sees only
    // the matrix, in deterministic (home, bucket) order.
    for (const auto &[key, cell] : heat.sorted()) {
        w << "# heat home=" << key.home << " bucket=0x";
        w.hex(key.bucket) << " accesses=" << cell.accesses
                          << " queued=" << cell.queued
                          << " conflicts=" << cell.conflicts << '\n';
    }
    return w.take();
}

namespace
{

/** Contention order: conflicts, then queueing, then raw traffic. */
bool
hotter(const HeatCell &a, const HeatCell &b)
{
    if (a.conflicts != b.conflicts)
        return a.conflicts > b.conflicts;
    if (a.queued != b.queued)
        return a.queued > b.queued;
    return a.accesses > b.accesses;
}

void
putCell(ArtifactWriter &w, const HeatCell &c)
{
    w << "conflicts=" << c.conflicts << " queued=" << c.queued
      << " accesses=" << c.accesses << '\n';
}

} // namespace

std::string
Timeline::hotSummary(size_t topK) const
{
    if (heat.empty())
        return std::string();

    // Stable hot order: contention desc, key asc as the tie-break
    // (both lists start key-ascending, stable_sort keeps it).
    std::vector<std::pair<HeatKey, HeatCell>> cells = heat.sorted();
    std::vector<std::pair<NodeId, HeatCell>> nodes;
    for (const auto &[key, cell] : cells) {
        if (nodes.empty() || nodes.back().first != key.home)
            nodes.emplace_back(key.home, HeatCell{});
        nodes.back().second.add(cell);
    }
    auto byHeat = [](const auto &a, const auto &b) {
        return hotter(a.second, b.second);
    };
    std::stable_sort(nodes.begin(), nodes.end(), byHeat);
    std::stable_sort(cells.begin(), cells.end(), byHeat);

    ArtifactWriter w;
    w << "directory contention summary:\n  hot home nodes:\n";
    for (size_t i = 0; i < nodes.size() && i < topK; ++i) {
        w << "    node " << nodes[i].first << ": ";
        putCell(w, nodes[i].second);
    }
    w << "  hot elements (" << (1u << bucketShift) << "-word buckets):\n";
    for (size_t i = 0; i < cells.size() && i < topK; ++i) {
        Addr lo = cells[i].first.bucket << bucketShift;
        Addr hi = lo + (Addr(1) << bucketShift) - 1;
        w << "    node " << cells[i].first.home << " elems 0x";
        w.hex(lo) << "-0x";
        w.hex(hi) << ": ";
        putCell(w, cells[i].second);
    }
    return w.take();
}

// --- RunSampler -------------------------------------------------------

RunSampler::RunSampler(EventQueue &eq)
{
    if (!enabled())
        return;
    st = std::make_shared<State>();
    st->eq = &eq;
    st->tl = &current();
    st->runId = st->tl->beginRun();
    st->interval = st->tl->interval();
}

void
RunSampler::addGauge(std::string name, std::function<double()> fn)
{
    if (st)
        st->gauges.emplace_back(std::move(name), std::move(fn));
}

void
RunSampler::addStatDelta(const StatGroup &group)
{
    if (!st)
        return;
    State::DeltaGroup dg;
    dg.group = &group;
    StatSnapshot snap;
    group.snapshot(snap);
    for (const auto &[name, v] : snap)
        dg.prev[name] = v;
    st->deltas.push_back(std::move(dg));
}

void
RunSampler::takeSample(State &s)
{
    std::vector<std::pair<std::string, double>> vals;
    vals.reserve(s.gauges.size());
    for (const auto &[name, fn] : s.gauges)
        vals.emplace_back(name, fn());
    for (State::DeltaGroup &dg : s.deltas) {
        StatSnapshot snap;
        dg.group->snapshot(snap);
        // Match by name: Distribution snapshots grow per-bucket keys
        // as buckets fill, so positions are not stable across
        // samples. A value that shrank means the stat was reset
        // mid-run; restart the delta from the new absolute value
        // (the counter-reset rule) instead of going negative.
        for (const auto &[name, v] : snap) {
            auto it = dg.prev.find(name);
            double old = it != dg.prev.end() ? it->second : 0.0;
            vals.emplace_back("delta." + name,
                              v >= old ? v - old : v);
        }
        dg.prev.clear();
        for (const auto &[name, v] : snap)
            dg.prev[name] = v;
    }
    s.tl->sample(s.eq->curTick(), s.runId, vals);
}

void
RunSampler::armLocked(const std::shared_ptr<State> &s)
{
    // use_count() > 1 means a scheduled callback still holds the
    // token: already armed. (The count is exact here -- samplers and
    // their queues live on one thread.)
    if (s->pending && s->pending.use_count() > 1)
        return;
    s->pending = std::make_shared<char>();
    std::weak_ptr<State> w(s);
    std::shared_ptr<char> tok = s->pending;
    // Daemon events fire on the sampling grid while real work is
    // pending, but never extend a drain past it: the queue returns
    // from run() with the event still pending, and curTick stays at
    // the last modeled event, so sampling cannot perturb measured
    // phase durations.
    s->eq->scheduleDaemonIn(
        s->interval,
        [w, tok]() {
            std::shared_ptr<State> sp = w.lock();
            // The sampler finished, or the token was replaced
            // (machine reset re-armed through a fresh event): stale
            // callback, do nothing.
            if (!sp || sp->pending != tok)
                return;
            sp->pending.reset();
            takeSample(*sp);
            armLocked(sp);
        },
        EventKind::Generic);
}

void
RunSampler::arm()
{
    if (st)
        armLocked(st);
}

void
RunSampler::finish()
{
    if (!st)
        return;
    // Final row: runs shorter than one interval still record their
    // end state. In-flight events keep only the (now stale) token
    // and a dead weak_ptr, so they no-op if the queue outlives us.
    takeSample(*st);
    st.reset();
}

} // namespace timeline
} // namespace specrt
