#include "runtime/validate.hh"

#include <sstream>

// Registers r27-r31 are reserved by the LRPD instrumentation
// (see lrpd/lrpd_codegen.cc).

namespace specrt
{

namespace
{

/** First register reserved for instrumentation (r27..r31). */
constexpr int firstReservedReg = 27;

void
issue(ValidationReport &rep, IterNum iter, size_t op,
      const std::string &msg)
{
    rep.issues.push_back({iter, op, msg});
}

void
checkReg(ValidationReport &rep, IterNum iter, size_t op, int reg,
         const char *what)
{
    if (reg < 0 || reg >= numRegs) {
        std::ostringstream os;
        os << what << " register r" << reg << " out of range";
        issue(rep, iter, op, os.str());
    } else if (reg >= firstReservedReg) {
        std::ostringstream os;
        os << what << " register r" << reg
           << " is reserved for LRPD instrumentation (r"
           << firstReservedReg << "-r" << numRegs - 1 << ")";
        issue(rep, iter, op, os.str());
    }
}

} // namespace

std::string
ValidationReport::summary() const
{
    std::ostringstream os;
    if (ok()) {
        os << "OK: " << opsChecked << " ops checked";
        if (dynamicIndexAccesses)
            os << " (" << dynamicIndexAccesses
               << " register-indexed accesses not statically "
                  "checkable)";
        return os.str();
    }
    os << issues.size() << " issue(s):\n";
    for (const ValidationIssue &i : issues) {
        os << "  iter " << i.iter << ", op " << i.opIndex << ": "
           << i.message << "\n";
    }
    return os.str();
}

ValidationReport
validateWorkload(Workload &w, IterNum max_iters)
{
    ValidationReport rep;
    std::vector<ArrayDecl> decls = w.arrays();

    for (size_t d = 0; d < decls.size(); ++d) {
        if (decls[d].elems == 0)
            issue(rep, 0, d, "array '" + decls[d].name +
                                 "' has zero elements");
        if (decls[d].elemBytes != 1 && decls[d].elemBytes != 2 &&
            decls[d].elemBytes != 4 && decls[d].elemBytes != 8)
            issue(rep, 0, d, "array '" + decls[d].name +
                                 "' has unsupported element width");
        if (decls[d].test == TestType::Reduction && !decls[d].modified)
            issue(rep, 0, d, "reduction array '" + decls[d].name +
                                 "' must be declared modified");
    }

    IterNum n = w.numIters();
    if (n < 1)
        issue(rep, 0, 0, "loop has no iterations");
    if (max_iters > 0 && max_iters < n)
        n = max_iters;

    IterProgram prog;
    for (IterNum i = 1; i <= n; ++i) {
        prog.clear();
        w.genIteration(i, prog);
        if (prog.empty())
            issue(rep, i, 0, "iteration generated no ops");
        for (size_t k = 0; k < prog.size(); ++k) {
            const Op &op = prog[k];
            ++rep.opsChecked;
            switch (op.kind) {
              case OpKind::Imm:
                checkReg(rep, i, k, op.dst, "destination");
                break;
              case OpKind::Alu:
                checkReg(rep, i, k, op.dst, "destination");
                checkReg(rep, i, k, op.srcA, "source");
                checkReg(rep, i, k, op.srcB, "source");
                break;
              case OpKind::Busy:
                if (op.cycles() > 1000000)
                    issue(rep, i, k, "implausible Busy duration");
                break;
              case OpKind::Load:
              case OpKind::Store: {
                bool is_store = op.kind == OpKind::Store;
                checkReg(rep, i, k,
                         is_store ? op.srcA : op.dst,
                         is_store ? "store value" : "destination");
                if (op.arrayId < 0 ||
                    op.arrayId >= static_cast<int>(decls.size())) {
                    issue(rep, i, k, "arrayId out of range");
                    break;
                }
                const ArrayDecl &decl = decls[op.arrayId];
                bool reduction_array =
                    decl.test == TestType::Reduction;
                if (op.isReduction() && !reduction_array)
                    issue(rep, i, k,
                          "reduction-tagged access to non-reduction "
                          "array '" + decl.name + "'");
                if (!op.isReduction() && reduction_array)
                    issue(rep, i, k,
                          "untagged access to reduction array '" +
                              decl.name +
                              "' (would fail the reduction test)");
                IndexOperand idx = op.index();
                if (idx.isReg) {
                    checkReg(rep, i, k, idx.reg, "index");
                    ++rep.dynamicIndexAccesses;
                } else if (idx.imm < 0 ||
                           static_cast<uint64_t>(idx.imm) >=
                               decl.elems) {
                    std::ostringstream os;
                    os << "index " << idx.imm
                       << " out of bounds for '" << decl.name << "' ("
                       << decl.elems << " elems)";
                    issue(rep, i, k, os.str());
                }
                break;
              }
            }
        }
    }
    return rep;
}

} // namespace specrt
