#include "workloads/track.hh"

#include "sim/logging.hh"

namespace specrt
{

namespace
{

uint64_t
mix(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace

TrackLoop::TrackLoop(const TrackParams &params) : p(params)
{
    SPECRT_ASSERT(p.instance >= 0 && p.instance < 56,
                  "track instance must be 0..55");
    SPECRT_ASSERT(p.elems >= static_cast<uint64_t>(p.iters),
                  "track needs elems >= iters");
}

double
TrackLoop::testedFraction() const
{
    double f = (p.instance % 12) * 0.04;
    // The five dependent instances communicate through the tested
    // arrays, so they necessarily access them.
    if (hasAdjacentDeps() && f < 0.08)
        f = 0.08;
    return f;
}

std::vector<ArrayDecl>
TrackLoop::arrays() const
{
    return {
        {"t_extr", p.elems, 4, TestType::NonPriv, true, false},
        {"t_meas", p.elems, 4, TestType::NonPriv, true, false},
        {"t_stat", p.elems, 8, TestType::NonPriv, true, false},
        {"t_conf", p.elems, 8, TestType::NonPriv, true, false},
        // Read-only measurements (analyzable).
        {"obs", 8 * p.elems, 4, TestType::None, false, false},
        // Per-iteration output (regenerated on re-execution).
        {"out", static_cast<uint64_t>(p.iters) + 1, 4, TestType::None,
         false, false},
    };
}

void
TrackLoop::initData(AddrMap &mem,
                    const std::vector<const Region *> &r)
{
    for (int a = 0; a < 4; ++a)
        mem.fillElems(*r[a], p.elems,
                      [a](uint64_t e) { return e + 17 * (a + 1); });
    mem.fillElems(*r[4], r[4]->numElems(),
                  [](uint64_t e) { return mix(e) & 0xffff; });
}

void
TrackLoop::genIteration(IterNum i, IterProgram &out)
{
    uint64_t h = mix(static_cast<uint64_t>(i) * 1099511628211ULL ^
                     p.seed ^ (static_cast<uint64_t>(p.instance) << 32));
    int total = 12 + static_cast<int>(h % p.imbalanceSpread) * 6;
    int tested = static_cast<int>(testedFraction() * total + 0.5);
    int64_t slot = static_cast<int64_t>(i - 1);

    int vreg = 1;
    for (int k = 0; k < total; ++k) {
        uint64_t hk = mix(h + static_cast<uint64_t>(k) * 31);
        if (k < tested) {
            int arr = k % 4;
            // Update this iteration's own slot: read-modify-write.
            out.push_back(opLoad(vreg, arr, slot));
            out.push_back(opBusy(p.flopCycles));
            out.push_back(opImm(vreg + 1,
                                static_cast<int64_t>(hk & 0xfff)));
            out.push_back(
                opAlu(vreg, AluOp::Add, vreg, vreg + 1));
            out.push_back(opStore(arr, slot, vreg));
        } else {
            // Observations cluster around this track's window.
            int64_t oi = static_cast<int64_t>(
                (static_cast<uint64_t>(slot) * 8 + hk % 96) %
                (8 * p.elems));
            out.push_back(opLoad(vreg, 4, oi));
            out.push_back(opBusy(p.flopCycles));
        }
        vreg = vreg % 12 + 1;
    }

    // In the five dependent instances, some adjacent iteration pairs
    // communicate: iteration 4k+2 reads what 4k+1 wrote. Block
    // scheduling keeps the pair on one processor, so the
    // processor-wise tests pass while the iteration-wise software
    // test fails (paper section 5.2).
    if (hasAdjacentDeps() && tested > 0 && i % 4 == 2 &&
        (i / 4) % 8 == 0) {
        out.push_back(opLoad(20, 0, slot - 1));
        out.push_back(opBusy(2));
    }

    out.push_back(opStore(5, i, 1)); // out(i)
}

} // namespace specrt
