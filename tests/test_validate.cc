/** @file Tests of the workload validator. */

#include <gtest/gtest.h>

#include "runtime/validate.hh"
#include "workloads/adm.hh"
#include "workloads/microloops.hh"
#include "workloads/ocean.hh"
#include "workloads/p3m.hh"
#include "workloads/track.hh"

using namespace specrt;

namespace
{

/** A deliberately broken workload. */
class BrokenLoop : public Workload
{
  public:
    std::string name() const override { return "broken"; }

    std::vector<ArrayDecl>
    arrays() const override
    {
        return {
            {"A", 8, 4, TestType::None, true, false},
            {"R", 8, 4, TestType::Reduction, true, false},
        };
    }

    IterNum numIters() const override { return 2; }
    void initData(AddrMap &,
                  const std::vector<const Region *> &) override
    {}

    void
    genIteration(IterNum i, IterProgram &out) override
    {
        if (i == 1) {
            out.push_back(opLoad(1, 0, 100));    // out of bounds
            out.push_back(opImm(30, 5));         // reserved register
            out.push_back(opStore(0, 2, 1));
            out.push_back(                       // tag on non-red array
                opLoadRed(2, 0, IndexOperand::immediate(3)));
        } else {
            out.push_back(opLoad(1, 1, 0));      // untagged on R
            out.push_back(opLoadRed(2, 1, IndexOperand::immediate(1)));
            out.push_back(opAlu(2, AluOp::Add, 2, 1));
            out.push_back(opStoreRed(1, IndexOperand::immediate(1), 2));
        }
    }
};

} // namespace

TEST(Validate, ShippedWorkloadsAreClean)
{
    {
        OceanLoop w{};
        ValidationReport r = validateWorkload(w, 8);
        EXPECT_TRUE(r.ok()) << r.summary();
    }
    {
        P3mLoop w{};
        ValidationReport r = validateWorkload(w, 64);
        EXPECT_TRUE(r.ok()) << r.summary();
    }
    {
        AdmLoop w{};
        ValidationReport r = validateWorkload(w);
        EXPECT_TRUE(r.ok()) << r.summary();
        EXPECT_GT(r.dynamicIndexAccesses, 0u); // subscripted subscripts
    }
    {
        TrackLoop w{TrackParams{3}};
        ValidationReport r = validateWorkload(w, 64);
        EXPECT_TRUE(r.ok()) << r.summary();
    }
    {
        HistogramLoop w{};
        ValidationReport r = validateWorkload(w, 32);
        EXPECT_TRUE(r.ok()) << r.summary();
    }
    {
        Fig2Loop w;
        ValidationReport r = validateWorkload(w);
        EXPECT_TRUE(r.ok()) << r.summary();
    }
}

TEST(Validate, CatchesEveryPlantedBug)
{
    BrokenLoop w;
    ValidationReport r = validateWorkload(w);
    EXPECT_FALSE(r.ok());
    std::string s = r.summary();
    EXPECT_NE(s.find("out of bounds"), std::string::npos);
    EXPECT_NE(s.find("reserved"), std::string::npos);
    EXPECT_NE(s.find("reduction-tagged access to non-reduction"),
              std::string::npos);
    EXPECT_NE(s.find("untagged access to reduction array"),
              std::string::npos);
    EXPECT_EQ(r.issues.size(), 4u) << s;
}

TEST(Validate, RogueHistogramIsFlagged)
{
    HistogramParams p;
    p.iters = 16;
    p.rogueIter = 3;
    HistogramLoop w(p);
    ValidationReport r = validateWorkload(w);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.summary().find("untagged access"), std::string::npos);
}

TEST(Validate, MaxItersLimitsTheSweep)
{
    OceanLoop w{};
    ValidationReport two = validateWorkload(w, 2);
    ValidationReport four = validateWorkload(w, 4);
    EXPECT_LT(two.opsChecked, four.opsChecked);
}
