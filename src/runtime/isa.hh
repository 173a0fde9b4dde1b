/**
 * @file
 * The micro-ISA in which loop iterations are expressed.
 *
 * Workloads generate one small register program per iteration.
 * Indices may come from registers, so subscripted-subscript loops
 * (A(K(i))) are expressed naturally: load K(i) into a register, then
 * use that register as the index of the next access. Data values
 * really flow through the simulated memory system, so a passing
 * speculative run can be checked against serial execution.
 */

#ifndef SPECRT_RUNTIME_ISA_HH
#define SPECRT_RUNTIME_ISA_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace specrt
{

/** Number of general-purpose registers per processor. */
constexpr int numRegs = 32;

/** Operation kinds. */
enum class OpKind : uint8_t
{
    Imm,    ///< dst = imm
    Alu,    ///< dst = srcA <op> srcB
    Load,   ///< dst = array[index]
    Store,  ///< array[index] = src
    Busy,   ///< spin for `cycles` cycles (models non-memory work)
};

/** ALU operations. */
enum class AluOp : uint8_t
{
    Add, Sub, Mul, And, Or, Xor, Min, Max, Mod, Shr,
};

/** An index operand: an immediate element index or a register. */
struct IndexOperand
{
    bool isReg = false;
    int reg = 0;
    int64_t imm = 0;

    static IndexOperand immediate(int64_t v) { return {false, 0, v}; }
    static IndexOperand fromReg(int r) { return {true, r, 0}; }
};

/**
 * One micro-op, packed into 16 bytes: programs are generated and
 * interpreted by the hundred thousand per run (one set of SW-LRPD
 * merge programs is over 100K ops), so op size is host time.
 *
 * Registers are bytes (numRegs is 32). A Load/Store index held in a
 * register lives in srcB; every other operand value -- the Imm value,
 * an immediate element index, the Busy duration -- shares the 64-bit
 * payload. Build ops with the op* builders and read the shared
 * fields through the accessors.
 */
struct Op
{
    /** flags: the Load/Store index is register srcB. */
    static constexpr uint8_t indexInReg = 1;
    /** flags: the access belongs to a reduction statement. */
    static constexpr uint8_t reduction = 2;

    OpKind kind = OpKind::Busy;
    uint8_t dst = 0;        ///< Imm/Alu/Load destination register
    uint8_t srcA = 0;       ///< Alu operand / Store value register
    uint8_t srcB = 0;       ///< Alu operand / Load/Store index register
    AluOp alu = AluOp::Add;
    uint8_t flags = 0;      ///< indexInReg | reduction
    int16_t arrayId = -1;   ///< Load/Store target array
    /** Imm value, immediate Load/Store index, or Busy cycles. */
    int64_t payload = 0;

    /** Imm value. */
    int64_t imm() const { return payload; }

    /** Busy duration. */
    Cycles cycles() const { return static_cast<Cycles>(payload); }

    /** Load/Store element index operand. */
    IndexOperand
    index() const
    {
        return flags & indexInReg ? IndexOperand::fromReg(srcB)
                                  : IndexOperand::immediate(payload);
    }

    /**
     * The access belongs to a compiler-identified reduction
     * statement (A(x) op= expr). Arrays under the reduction test
     * may only be touched by such accesses; the hardware checks the
     * tag with its address-range comparator on every access.
     */
    bool isReduction() const { return flags & reduction; }
};

static_assert(sizeof(Op) == 16, "Op must stay packed");

/** A single iteration's body. */
using IterProgram = std::vector<Op>;

// --- builders ---------------------------------------------------------

namespace detail
{

/** A register operand as stored in an Op. Any byte is encodable:
 *  registers past numRegs are the validator's to report. */
inline uint8_t
reg8(int r)
{
    SPECRT_ASSERT(r >= 0 && r < 256, "register %d not encodable", r);
    return static_cast<uint8_t>(r);
}

/** A Load/Store of @p array_id at @p index. */
inline Op
memOp(OpKind kind, int array_id, IndexOperand index)
{
    SPECRT_ASSERT(array_id >= -1 && array_id <= INT16_MAX,
                  "arrayId %d not encodable", array_id);
    Op op;
    op.kind = kind;
    op.arrayId = static_cast<int16_t>(array_id);
    if (index.isReg) {
        op.flags = Op::indexInReg;
        op.srcB = reg8(index.reg);
    } else {
        op.payload = index.imm;
    }
    return op;
}

} // namespace detail

inline Op
opImm(int dst, int64_t value)
{
    Op op;
    op.kind = OpKind::Imm;
    op.dst = detail::reg8(dst);
    op.payload = value;
    return op;
}

inline Op
opAlu(int dst, AluOp alu, int src_a, int src_b)
{
    Op op;
    op.kind = OpKind::Alu;
    op.dst = detail::reg8(dst);
    op.alu = alu;
    op.srcA = detail::reg8(src_a);
    op.srcB = detail::reg8(src_b);
    return op;
}

inline Op
opLoad(int dst, int array_id, IndexOperand index)
{
    Op op = detail::memOp(OpKind::Load, array_id, index);
    op.dst = detail::reg8(dst);
    return op;
}

inline Op
opLoad(int dst, int array_id, int64_t index)
{
    return opLoad(dst, array_id, IndexOperand::immediate(index));
}

inline Op
opStore(int array_id, IndexOperand index, int src)
{
    Op op = detail::memOp(OpKind::Store, array_id, index);
    op.srcA = detail::reg8(src);
    return op;
}

inline Op
opStore(int array_id, int64_t index, int src)
{
    return opStore(array_id, IndexOperand::immediate(index), src);
}

inline Op
opBusy(Cycles cycles)
{
    Op op;
    op.kind = OpKind::Busy;
    op.payload = static_cast<int64_t>(cycles);
    return op;
}

/** A load that is part of a reduction statement. */
inline Op
opLoadRed(int dst, int array_id, IndexOperand index)
{
    Op op = opLoad(dst, array_id, index);
    op.flags |= Op::reduction;
    return op;
}

/** A store that is part of a reduction statement. */
inline Op
opStoreRed(int array_id, IndexOperand index, int src)
{
    Op op = opStore(array_id, index, src);
    op.flags |= Op::reduction;
    return op;
}

/** Evaluate an ALU operation (shared by the processor and tests).
 *  Header-inline: the interpreter runs this once per ALU op. */
inline int64_t
evalAlu(AluOp op, int64_t a, int64_t b)
{
    switch (op) {
      case AluOp::Add: return a + b;
      case AluOp::Sub: return a - b;
      case AluOp::Mul: return a * b;
      case AluOp::And: return a & b;
      case AluOp::Or:  return a | b;
      case AluOp::Xor: return a ^ b;
      case AluOp::Min: return a < b ? a : b;
      case AluOp::Max: return a > b ? a : b;
      case AluOp::Mod:
        SPECRT_ASSERT(b != 0, "Mod by zero");
        return ((a % b) + b) % b;
      case AluOp::Shr:
        SPECRT_ASSERT(b >= 0 && b < 64, "bad shift %lld",
                      (long long)b);
        return static_cast<int64_t>(static_cast<uint64_t>(a) >> b);
    }
    return 0;
}

/** Disassemble one op (diagnostics). */
std::string opToString(const Op &op);

} // namespace specrt

#endif // SPECRT_RUNTIME_ISA_HH
