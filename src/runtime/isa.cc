#include "runtime/isa.hh"

#include <sstream>

#include "sim/logging.hh"

namespace specrt
{

std::string
opToString(const Op &op)
{
    std::ostringstream os;
    auto idx = [&]() -> std::string {
        IndexOperand i = op.index();
        if (i.isReg)
            return "r" + std::to_string(i.reg);
        return std::to_string(i.imm);
    };
    switch (op.kind) {
      case OpKind::Imm:
        os << "imm r" << int(op.dst) << " = " << op.imm();
        break;
      case OpKind::Alu:
        os << "alu r" << int(op.dst) << " = r" << int(op.srcA) << " op"
           << " r" << int(op.srcB);
        break;
      case OpKind::Load:
        os << "load r" << int(op.dst) << " = a" << op.arrayId << "["
           << idx() << "]";
        break;
      case OpKind::Store:
        os << "store a" << op.arrayId << "[" << idx() << "] = r"
           << int(op.srcA);
        break;
      case OpKind::Busy:
        os << "busy " << op.cycles();
        break;
    }
    return os.str();
}

} // namespace specrt
