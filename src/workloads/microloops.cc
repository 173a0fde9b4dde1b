#include "workloads/microloops.hh"

#include "sim/logging.hh"

namespace specrt
{

// --------------------------------------------------------------------
// Fig1A
// --------------------------------------------------------------------

std::vector<ArrayDecl>
Fig1ALoop::arrays() const
{
    return {{"A", static_cast<uint64_t>(n) + 1, 4, TestType::NonPriv,
             true, false}};
}

void
Fig1ALoop::initData(AddrMap &mem,
                    const std::vector<const Region *> &r)
{
    mem.fillElems(*r[0], r[0]->numElems(),
                  [](uint64_t e) { return e + 1; });
}

void
Fig1ALoop::genIteration(IterNum i, IterProgram &out)
{
    // A(i) = A(i) + A(i-1)   (elements are 0-based: A[i] += A[i-1])
    out.push_back(opLoad(1, 0, i));
    out.push_back(opLoad(2, 0, i - 1));
    out.push_back(opAlu(3, AluOp::Add, 1, 2));
    out.push_back(opStore(0, i, 3));
}

// --------------------------------------------------------------------
// Fig1B
// --------------------------------------------------------------------

std::vector<ArrayDecl>
Fig1BLoop::arrays() const
{
    return {
        {"A", 2 * static_cast<uint64_t>(n) + 2, 4, TestType::NonPriv,
         true, false},
        {"tmp", 1, 4, TestType::Priv, true, false},
    };
}

void
Fig1BLoop::initData(AddrMap &mem,
                    const std::vector<const Region *> &r)
{
    mem.fillElems(*r[0], r[0]->numElems(),
                  [](uint64_t e) { return 100 + e; });
}

void
Fig1BLoop::genIteration(IterNum i, IterProgram &out)
{
    // tmp = A(2i); A(2i) = A(2i-1); A(2i-1) = tmp
    out.push_back(opLoad(1, 0, 2 * i));
    out.push_back(opStore(1, 0, 1));        // tmp = r1
    out.push_back(opLoad(2, 0, 2 * i - 1));
    out.push_back(opStore(0, 2 * i, 2));
    out.push_back(opLoad(3, 1, 0));         // r3 = tmp
    out.push_back(opStore(0, 2 * i - 1, 3));
}

// --------------------------------------------------------------------
// Fig1C
// --------------------------------------------------------------------

Fig1CLoop::Fig1CLoop(IterNum iters, uint64_t elems_, bool disjoint,
                     uint64_t seed)
    : n(iters), elems(elems_)
{
    SPECRT_ASSERT(elems >= static_cast<uint64_t>(n),
                  "fig1c needs elems >= iters");
    Rng rng(seed);
    f.resize(n + 1);
    g.resize(n + 1);
    if (disjoint) {
        // f is a permutation slice; g(i) == f(i) so each iteration
        // touches only its own element (read and write).
        std::vector<int64_t> perm(elems);
        for (uint64_t e = 0; e < elems; ++e)
            perm[e] = static_cast<int64_t>(e);
        for (uint64_t e = elems - 1; e > 0; --e)
            std::swap(perm[e], perm[rng.nextBounded(e + 1)]);
        for (IterNum i = 1; i <= n; ++i) {
            f[i] = perm[i - 1];
            g[i] = perm[i - 1];
        }
    } else {
        for (IterNum i = 1; i <= n; ++i) {
            f[i] = static_cast<int64_t>(rng.nextBounded(elems));
            g[i] = static_cast<int64_t>(rng.nextBounded(elems));
        }
    }
}

std::vector<ArrayDecl>
Fig1CLoop::arrays() const
{
    return {
        {"A", elems, 4, TestType::NonPriv, true, false},
        {"F", static_cast<uint64_t>(n) + 1, 4, TestType::None, false,
         false},
        {"G", static_cast<uint64_t>(n) + 1, 4, TestType::None, false,
         false},
    };
}

void
Fig1CLoop::initData(AddrMap &mem,
                    const std::vector<const Region *> &r)
{
    mem.fillElems(*r[0], elems, [](uint64_t e) { return 7 * e + 3; });
    for (IterNum i = 1; i <= n; ++i) {
        mem.write(r[1]->elemAddr(i), 4, static_cast<uint64_t>(f[i]));
        mem.write(r[2]->elemAddr(i), 4, static_cast<uint64_t>(g[i]));
    }
}

void
Fig1CLoop::genIteration(IterNum i, IterProgram &out)
{
    // r1 = F(i); r2 = G(i); r3 = A(g(i)) + i; A(f(i)) = r3
    out.push_back(opLoad(1, 1, i));
    out.push_back(opLoad(2, 2, i));
    out.push_back(opLoad(3, 0, IndexOperand::fromReg(2)));
    out.push_back(opImm(4, i));
    out.push_back(opAlu(3, AluOp::Add, 3, 4));
    out.push_back(opBusy(2));
    out.push_back(opStore(0, IndexOperand::fromReg(1), 3));
}

// --------------------------------------------------------------------
// Fig2
// --------------------------------------------------------------------

Fig2Loop::Fig2Loop()
{
    // 1-based iteration data from the paper's Figure 2 (elements are
    // 1-based there; we keep them 1-based in a 5-element array).
    k = {0, 1, 2, 3, 4, 1};
    l = {0, 2, 2, 4, 4, 2};
    b1 = {0, 1, 0, 1, 0, 1};
}

std::vector<ArrayDecl>
Fig2Loop::arrays() const
{
    return {
        {"A", 5, 4, TestType::NonPriv, true, false},
        {"K", 6, 4, TestType::None, false, false},
        {"L", 6, 4, TestType::None, false, false},
        {"C", 6, 4, TestType::None, false, false},
    };
}

void
Fig2Loop::initData(AddrMap &mem,
                   const std::vector<const Region *> &r)
{
    for (uint64_t e = 0; e < 5; ++e)
        mem.write(r[0]->elemAddr(e), 4, 10 * (e + 1));
    for (IterNum i = 1; i <= 5; ++i) {
        mem.write(r[1]->elemAddr(i), 4, static_cast<uint64_t>(k[i]));
        mem.write(r[2]->elemAddr(i), 4, static_cast<uint64_t>(l[i]));
        mem.write(r[3]->elemAddr(i), 4, static_cast<uint64_t>(i));
    }
}

void
Fig2Loop::genIteration(IterNum i, IterProgram &out)
{
    // z = A(K(i)); if (B1(i)) A(L(i)) = z + C(i)
    out.push_back(opLoad(1, 1, i));                       // r1 = K(i)
    out.push_back(opImm(5, 1));
    out.push_back(opAlu(1, AluOp::Sub, 1, 5));            // 0-based
    out.push_back(opLoad(2, 0, IndexOperand::fromReg(1))); // z
    if (b1[i]) {
        out.push_back(opLoad(3, 2, i));                   // r3 = L(i)
        out.push_back(opAlu(3, AluOp::Sub, 3, 5));
        out.push_back(opLoad(4, 3, i));                   // C(i)
        out.push_back(opAlu(4, AluOp::Add, 2, 4));
        out.push_back(opStore(0, IndexOperand::fromReg(3), 4));
    }
}

// --------------------------------------------------------------------
// Fig3
// --------------------------------------------------------------------

Fig3Loop::Fig3Loop(Fig3Kind kind_, IterNum iters)
    : kind(kind_), n(iters)
{
    SPECRT_ASSERT(n >= 4, "fig3 needs a few iterations");
}

std::vector<ArrayDecl>
Fig3Loop::arrays() const
{
    return {
        {"A", 1, 4, TestType::Priv, true, true},
        {"R", static_cast<uint64_t>(n) + 1, 4, TestType::None, true,
         false},
    };
}

void
Fig3Loop::initData(AddrMap &mem,
                   const std::vector<const Region *> &r)
{
    mem.write(r[0]->elemAddr(0), 4, 999); // the pre-loop value of A(1)
}

void
Fig3Loop::genIteration(IterNum i, IterProgram &out)
{
    switch (kind) {
      case Fig3Kind::ReadInNeeded: {
        // First half only reads A(1) (the pre-loop value must be
        // read in); second half writes it before reading.
        if (i <= n / 2) {
            out.push_back(opLoad(1, 0, 0));
            out.push_back(opStore(1, i, 1));
        } else {
            out.push_back(opImm(1, 1000 + i));
            out.push_back(opStore(0, 0, 1));
            out.push_back(opLoad(2, 0, 0));
            out.push_back(opStore(1, i, 2));
        }
        return;
      }
      case Fig3Kind::WriteFirst: {
        out.push_back(opImm(1, 2000 + i));
        out.push_back(opStore(0, 0, 1));
        out.push_back(opLoad(2, 0, 0));
        out.push_back(opStore(1, i, 2));
        return;
      }
      case Fig3Kind::FlowDep: {
        // Read then write: iteration i reads the value iteration
        // i-1 produced.
        out.push_back(opLoad(1, 0, 0));
        out.push_back(opStore(1, i, 1));
        out.push_back(opImm(2, 3000 + i));
        out.push_back(opStore(0, 0, 2));
        return;
      }
    }
}

// --------------------------------------------------------------------
// HistogramLoop
// --------------------------------------------------------------------

HistogramLoop::HistogramLoop(const HistogramParams &params) : p(params)
{
    SPECRT_ASSERT(p.bins >= 2 && p.updates >= 1, "bad histogram");
}

std::vector<ArrayDecl>
HistogramLoop::arrays() const
{
    return {
        {"bins", p.bins, 4, TestType::Reduction, true, true},
        {"key", static_cast<uint64_t>(p.iters) * p.updates + 1, 4,
         TestType::None, false, false},
        {"wgt", static_cast<uint64_t>(p.iters) + 1, 4, TestType::None,
         false, false},
    };
}

void
HistogramLoop::initData(AddrMap &mem,
                        const std::vector<const Region *> &r)
{
    // Bins start non-zero so the merge's "shared + sum of partials"
    // semantics are visible.
    mem.fillElems(*r[0], p.bins, [](uint64_t b) { return 10 * b; });
    Rng rng(p.seed);
    mem.fillElems(*r[1], r[1]->numElems(),
                  [&](uint64_t) { return rng.nextBounded(p.bins); });
    mem.fillElems(*r[2], static_cast<uint64_t>(p.iters) + 1,
                  [](uint64_t i) { return i % 7 + 1; });
}

void
HistogramLoop::genIteration(IterNum i, IterProgram &out)
{
    out.push_back(opLoad(2, 2, i)); // w = wgt(i)
    for (int u = 0; u < p.updates; ++u) {
        int64_t kidx = (i - 1) * p.updates + u + 1;
        out.push_back(opLoad(1, 1, kidx)); // b = key(...)
        out.push_back(opBusy(6));
        // bins(b) += w  -- the tagged reduction statement.
        out.push_back(opLoadRed(3, 0, IndexOperand::fromReg(1)));
        out.push_back(opAlu(3, AluOp::Add, 3, 2));
        out.push_back(opStoreRed(0, IndexOperand::fromReg(1), 3));
    }
    if (p.rogueIter != 0 && i == p.rogueIter) {
        // An untagged read of a bin: uses a partial value, so the
        // test must reject the run.
        out.push_back(opLoad(4, 0, 1));
        out.push_back(opBusy(1));
    }
}

// --------------------------------------------------------------------
// RandomLoop
// --------------------------------------------------------------------

RandomLoop::RandomLoop(const RandomLoopParams &params) : p(params)
{
    SPECRT_ASSERT(p.window >= 1 && p.window <= p.elems,
                  "bad random-loop window");
    Rng rng(p.seed);
    perIter.resize(p.iters + 1);
    for (IterNum i = 1; i <= p.iters; ++i) {
        uint64_t base =
            p.elems == p.window
                ? 0
                : (static_cast<uint64_t>(i) * 37) %
                      (p.elems - p.window + 1);
        for (int a = 0; a < p.accesses; ++a) {
            uint64_t e = base + rng.nextBounded(p.window);
            bool w = rng.nextBool(p.writeProb);
            perIter[i].emplace_back(e, w);
            trace.push_back({invalidNode, i, e, w, 0});
        }
    }
}

std::vector<ArrayDecl>
RandomLoop::arrays() const
{
    // Privatized runs declare the array live-out so copy-out makes
    // the shared array comparable with serial execution.
    return {{"A", p.elems, 4, p.test, true,
             p.test == TestType::Priv}};
}

void
RandomLoop::initData(AddrMap &mem,
                     const std::vector<const Region *> &r)
{
    mem.fillElems(*r[0], p.elems, [](uint64_t e) { return e * 3 + 11; });
}

void
RandomLoop::genIteration(IterNum i, IterProgram &out)
{
    SPECRT_ASSERT(i >= 1 && i <= p.iters, "random iter out of range");
    int vreg = 1;
    for (const auto &[e, w] : perIter[i]) {
        if (w) {
            out.push_back(opImm(vreg, 100000 + i * 1000 + vreg));
            out.push_back(opStore(0, static_cast<int64_t>(e), vreg));
        } else {
            out.push_back(opLoad(vreg, 0, static_cast<int64_t>(e)));
        }
        vreg = vreg % 20 + 1;
        out.push_back(opBusy(1));
    }
}

} // namespace specrt
