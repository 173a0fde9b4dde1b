#include "lrpd/lrpd_codegen.hh"

#include "sim/logging.hh"

namespace specrt
{

namespace
{

// Reserved instrumentation registers.
constexpr int regIter = 29;    ///< current iteration number
constexpr int regTmp = 30;     ///< shadow load shuttle
constexpr int regIdx = 28;     ///< bitmap index
constexpr int regThree = 27;   ///< shift amount 3

/** Index operand for a shadow access mirroring data index @p idx. */
IndexOperand
shadowIndex(const IndexOperand &idx, bool proc_wise, IterProgram &out)
{
    if (!proc_wise)
        return idx;
    if (!idx.isReg)
        return IndexOperand::immediate(idx.imm >> 3);
    out.push_back(opAlu(regIdx, AluOp::Shr, idx.reg, regThree));
    return IndexOperand::fromReg(regIdx);
}

void
markWriteOps(IterProgram &out, const InstrumentInfo &info,
             const IndexOperand &idx)
{
    IndexOperand s = shadowIndex(idx, info.procWise, out);
    out.push_back(opLoad(regTmp, info.shadows.aw, s));
    // Shadow index arithmetic, written-this-iteration compare,
    // branch, and Atw bookkeeping.
    out.push_back(opBusy(3));
    out.push_back(opStore(info.shadows.aw, s, regIter));
    if (info.shadows.awmin >= 0) {
        // Read-in variant: maintain the lowest writing iteration.
        out.push_back(opLoad(regTmp, info.shadows.awmin, s));
        out.push_back(opBusy(1));
        out.push_back(opStore(info.shadows.awmin, s, regIter));
    }
}

void
markReadOps(IterProgram &out, const InstrumentInfo &info,
            const IndexOperand &idx)
{
    IndexOperand s = shadowIndex(idx, info.procWise, out);
    out.push_back(opLoad(regTmp, info.shadows.aw, s));
    // Shadow index arithmetic + written-this-iteration check +
    // branches for the Ar/Anp marking decisions.
    out.push_back(opBusy(3));
    out.push_back(opStore(info.shadows.ar, s, regIter));
    if (info.privatized && info.shadows.anp >= 0)
        out.push_back(opStore(info.shadows.anp, s, regIter));
    if (info.shadows.awmin >= 0) {
        // Read-in variant: record the highest read-first iteration
        // (shares the Awmin shadow line budget: one more store).
        out.push_back(opStore(info.shadows.awmin, s, regIter));
    }
}

} // namespace

void
lrpdInstrument(const IterProgram &in, IterProgram &out, IterNum iter,
               const std::map<int, InstrumentInfo> &per_array)
{
    out.push_back(opImm(regIter, iter));
    out.push_back(opImm(regThree, 3));
    for (const Op &op : in) {
        out.push_back(op);
        if (op.arrayId < 0)
            continue;
        auto it = per_array.find(op.arrayId);
        if (it == per_array.end())
            continue;
        if (op.kind == OpKind::Store)
            markWriteOps(out, it->second, op.index());
        else if (op.kind == OpKind::Load)
            markReadOps(out, it->second, op.index());
    }
    // End-of-iteration Atw accumulation (register arithmetic).
    out.push_back(opBusy(2));
}

void
lrpdGenMerge(IterProgram &out, const std::vector<MergeKind> &kinds,
             uint64_t lo, uint64_t hi)
{
    size_t per_elem = 0;
    for (const MergeKind &kind : kinds)
        per_elem += 2 * kind.perProcIds.size() + 1;
    out.reserve(out.size() + (hi - lo) * per_elem);
    for (uint64_t e = lo; e < hi; ++e) {
        auto idx = IndexOperand::immediate(static_cast<int64_t>(e));
        for (const MergeKind &kind : kinds) {
            SPECRT_ASSERT(kind.globalId >= 0, "merge without target");
            for (int id : kind.perProcIds) {
                out.push_back(opLoad(regTmp, id, idx));
                out.push_back(opBusy(1)); // OR / max into accumulator
            }
            out.push_back(opStore(kind.globalId, idx, regTmp));
        }
    }
}

void
lrpdGenAnalysis(IterProgram &out, const std::vector<int> &global_ids,
                uint64_t lo, uint64_t hi)
{
    out.reserve(out.size() + (hi - lo) * (global_ids.size() + 1) + 1);
    for (uint64_t e = lo; e < hi; ++e) {
        auto idx = IndexOperand::immediate(static_cast<int64_t>(e));
        for (int id : global_ids)
            out.push_back(opLoad(regTmp, id, idx));
        out.push_back(opBusy(2)); // Aw&Ar, Aw&Anp, Atm accumulation
    }
    out.push_back(opBusy(20)); // final reduction bookkeeping
}

void
lrpdGenZeroOut(IterProgram &out, const std::vector<int> &shadow_ids,
               uint64_t lo, uint64_t hi)
{
    out.reserve(out.size() + (hi - lo) * shadow_ids.size() + 1);
    out.push_back(opImm(regTmp, 0));
    for (uint64_t e = lo; e < hi; ++e) {
        auto idx = IndexOperand::immediate(static_cast<int64_t>(e));
        for (int id : shadow_ids)
            out.push_back(opStore(id, idx, regTmp));
    }
}

} // namespace specrt
