#include "workloads/adm.hh"

#include "sim/random.hh"
#include "sim/logging.hh"

namespace specrt
{

AdmLoop::AdmLoop(const AdmParams &params) : p(params)
{
    fieldElems = static_cast<uint64_t>(p.iters) * p.elemsPerIter;
    // A block-local permutation of the field: the compiler cannot
    // prove the iteration slices disjoint, but they are, and the
    // scatter stays within each iteration's neighbourhood (the
    // paper's loop has a small working set with locality).
    Rng rng(p.seed);
    perm.resize(fieldElems);
    for (uint64_t e = 0; e < fieldElems; ++e)
        perm[e] = static_cast<int64_t>(e);
    uint64_t block = p.elemsPerIter;
    for (uint64_t base = 0; base + block <= fieldElems; base += block) {
        for (uint64_t k = block - 1; k > 0; --k) {
            std::swap(perm[base + k],
                      perm[base + rng.nextBounded(k + 1)]);
        }
    }
}

std::vector<ArrayDecl>
AdmLoop::arrays() const
{
    return {
        // Field updated through the permutation: non-priv test.
        {"field", fieldElems, 8, TestType::NonPriv, true, false},
        // Small privatized workspace, written before read.
        {"wrk", p.wsElems, 8, TestType::Priv, true, false},
        // The index permutation (input data, read-only).
        {"idx", fieldElems, 4, TestType::None, false, false},
    };
}

void
AdmLoop::initData(AddrMap &mem,
                  const std::vector<const Region *> &r)
{
    mem.fillElems(*r[0], fieldElems,
                  [](uint64_t e) { return e + 1000; });
    mem.fillElems(*r[2], fieldElems, [this](uint64_t e) {
        return static_cast<uint64_t>(perm[e]);
    });
}

void
AdmLoop::genIteration(IterNum i, IterProgram &out)
{
    uint64_t base = (static_cast<uint64_t>(i) - 1) * p.elemsPerIter;
    for (uint64_t k = 0; k < p.elemsPerIter; ++k) {
        int64_t ii = static_cast<int64_t>(base + k);
        int64_t ws = static_cast<int64_t>(k % p.wsElems);
        out.push_back(opLoad(1, 2, ii));                      // j=idx(..)
        out.push_back(opLoad(2, 0, IndexOperand::fromReg(1))); // field(j)
        out.push_back(opBusy(p.flopCycles));
        out.push_back(opImm(3, i));
        out.push_back(opAlu(2, AluOp::Add, 2, 3));
        out.push_back(opStore(1, ws, 2));                      // wrk=..
        out.push_back(opLoad(4, 1, ws));                       // ..wrk
        out.push_back(opStore(0, IndexOperand::fromReg(1), 4)); // field
    }
}

} // namespace specrt
