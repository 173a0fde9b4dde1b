#include "workloads/ocean.hh"

#include "sim/logging.hh"

namespace specrt
{

OceanLoop::OceanLoop(const OceanParams &params) : p(params)
{
    SPECRT_ASSERT(p.iters > 0 && p.elems >= (uint64_t)p.iters,
                  "bad ocean params");
    elemsPerIter = p.elems / p.iters;
}

std::vector<ArrayDecl>
OceanLoop::arrays() const
{
    return {
        // The complex data array under test.
        {"cdata", p.elems, 8, TestType::NonPriv, true, false},
        // Read-only twiddle factors (analyzable).
        {"twiddle", elemsPerIter + 1, 8, TestType::None, false, false},
    };
}

void
OceanLoop::initData(AddrMap &mem,
                    const std::vector<const Region *> &r)
{
    mem.fillElems(*r[0], p.elems, [](uint64_t e) { return e * 5 + 1; });
    mem.fillElems(*r[1], r[1]->numElems(),
                  [](uint64_t e) { return e + 2; });
}

void
OceanLoop::genIteration(IterNum i, IterProgram &out)
{
    if (p.injectDep && i == p.iters) {
        // Element 0 belongs to iteration 1's partition under both
        // stride families; reading it from the last iteration makes
        // the dependence cross processors under static chunking too.
        out.push_back(opLoad(9, 0, 0));
        out.push_back(opBusy(2));
    }
    // Iteration i updates its own set of elements; the stride family
    // decides whether they are contiguous (stride 1) or interleaved
    // at distance `iters` (column-major style).
    for (uint64_t k = 0; k < elemsPerIter; ++k) {
        uint64_t e;
        if (p.stride <= 1)
            e = (static_cast<uint64_t>(i) - 1) * elemsPerIter + k;
        else
            e = k * static_cast<uint64_t>(p.iters) +
                (static_cast<uint64_t>(i) - 1);
        if (e >= p.elems)
            continue;
        int64_t ei = static_cast<int64_t>(e);
        int64_t wi = static_cast<int64_t>(k);
        out.push_back(opLoad(1, 0, ei));        // x = cdata(e)
        out.push_back(opLoad(2, 1, wi));        // w = twiddle(k)
        out.push_back(opBusy(p.flopCycles));    // complex multiply/add
        out.push_back(opAlu(3, AluOp::Add, 1, 2));
        out.push_back(opStore(0, ei, 3));       // cdata(e) = x op w
    }
}

} // namespace specrt
