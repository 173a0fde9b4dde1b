#include "workloads/p3m.hh"

#include "sim/logging.hh"

namespace specrt
{

namespace
{

uint64_t
mix(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

} // namespace

P3mLoop::P3mLoop(const P3mParams &params) : p(params)
{
    SPECRT_ASSERT(p.wsElems >= 64 && p.posElems >= 1024,
                  "bad p3m params");
}

int
P3mLoop::neighborsOf(IterNum i) const
{
    uint64_t h = mix(static_cast<uint64_t>(i) * 2654435761ULL ^ p.seed);
    int n = p.minNeighbors + static_cast<int>(h % p.spreadNeighbors);
    if (p.tailEvery > 0 && i % p.tailEvery == 0)
        n *= p.tailFactor;
    return n;
}

std::vector<ArrayDecl>
P3mLoop::arrays() const
{
    return {
        // Privatized workspace: written before read each iteration.
        {"force_ws", p.wsElems, 4, TestType::Priv, true, false},
        {"phi_ws", p.wsElems, 4, TestType::Priv, true, false},
        // Large read-only particle positions (analyzable).
        {"pos", p.posElems, 4, TestType::None, false, false},
        // Per-iteration result (analyzable, write-only; regenerated
        // by a serial re-execution, so no backup is required).
        {"accel", static_cast<uint64_t>(p.iters) + 1, 4,
         TestType::None, false, false},
    };
}

void
P3mLoop::initData(AddrMap &mem,
                  const std::vector<const Region *> &r)
{
    // Workspaces start at zero (they are written before read).
    mem.fillElems(*r[2], p.posElems, [](uint64_t e) {
        return (e * 2654435761ULL) & 0xffff;
    });
}

void
P3mLoop::genIteration(IterNum i, IterProgram &out)
{
    int n = neighborsOf(i);
    uint64_t h = mix(static_cast<uint64_t>(i) ^ (p.seed << 1));

    // Gather phase: reads of the big position array (neighbors
    // cluster spatially, as real particle neighborhoods do) plus
    // write-before-read accumulation in the privatized workspaces.
    uint64_t hood = h % (p.posElems - 256);
    uint64_t ws_base = h % p.wsElems;
    for (int k = 0; k < n; ++k) {
        uint64_t hk = mix(h + static_cast<uint64_t>(k));
        int64_t pos_idx = static_cast<int64_t>(hood + hk % 256);
        int64_t ws_idx = static_cast<int64_t>(
            (ws_base + static_cast<uint64_t>(k)) % p.wsElems);

        out.push_back(opLoad(1, 2, pos_idx));      // neighbor position
        out.push_back(opBusy(p.flopCycles));       // distance + force
        out.push_back(opImm(2, static_cast<int64_t>(hk & 0xff)));
        out.push_back(opAlu(3, AluOp::Add, 1, 2));
        out.push_back(opStore(0, ws_idx, 3));      // force_ws(k) = f
        out.push_back(opStore(1, ws_idx, 2));      // phi_ws(k) = phi
    }

    // Reduce phase: read the workspaces back (covered by the writes
    // above, so no read-first is generated).
    out.push_back(opImm(4, 0));
    for (int k = 0; k < n; ++k) {
        int64_t ws_idx = static_cast<int64_t>(
            (ws_base + static_cast<uint64_t>(k)) % p.wsElems);
        out.push_back(opLoad(5, 0, ws_idx));
        out.push_back(opLoad(6, 1, ws_idx));
        out.push_back(opAlu(5, AluOp::Add, 5, 6));
        out.push_back(opAlu(4, AluOp::Add, 4, 5));
        out.push_back(opBusy(2));
    }
    out.push_back(opStore(3, i, 4)); // accel(i) = total
}

} // namespace specrt
