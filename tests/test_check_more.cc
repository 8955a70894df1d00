/**
 * @file
 * Check-engine edge cases: execution-candidate enumeration counts,
 * final-memory conditions, write-only and single-thread tests,
 * four-thread tests, microop construction, and verdict bookkeeping.
 * Uses a hand-written SC model so the tests are independent of the
 * synthesis pipeline.
 */

#include <gtest/gtest.h>

#include "check/campaign.hh"
#include "litmus/litmus.hh"
#include "uspec/uspec.hh"

using namespace r2u;
using LTest = litmus::Test;

namespace
{

const uspec::Model &
scModel()
{
    static uspec::Model m = uspec::Model::parse(R"(
StageName 0 "IF_".
StageName 1 "acc".
StageName 2 "mem".
StageName 3 "regfile".
MemoryAccessStage "acc".
MemoryStage "mem".
Axiom "R_path":
forall microop "i0",
IsAnyRead i0 =>
AddEdges [((i0, IF_), (i0, acc));
          ((i0, acc), (i0, regfile))].
Axiom "W_path":
forall microop "i0",
IsAnyWrite i0 =>
AddEdges [((i0, IF_), (i0, acc));
          ((i0, acc), (i0, mem))].
Axiom "PO_fetch":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, IF_), (i1, IF_)).
Axiom "PO_acc":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, acc), (i1, acc)).
)");
    return m;
}

} // namespace

TEST(CheckMore, MicroopConstruction)
{
    LTest t = LTest::parse(R"(name x
thread 0
w x 1
r y 2
thread 1
w y 3
interesting 0:x2=3)");
    auto ops = check::microopsOf(t);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_TRUE(ops[0].isWrite);
    EXPECT_EQ(ops[0].addr, 0);
    EXPECT_EQ(ops[0].value, 1);
    EXPECT_TRUE(ops[1].isRead);
    EXPECT_EQ(ops[1].addr, 4);
    EXPECT_EQ(ops[1].core, 0);
    EXPECT_EQ(ops[1].index, 1);
    EXPECT_EQ(ops[2].core, 1);
    EXPECT_EQ(ops[2].index, 0);
}

TEST(CheckMore, ExecutionEnumerationCounts)
{
    // One read, two same-address writes: rf in {init, w1, w2} and
    // ws permutations 2 -> 6 candidate executions.
    LTest t = LTest::parse(R"(name x
thread 0
w x 1
thread 1
w x 2
thread 2
r x 2
interesting 2:x2=0)");
    int count = 0;
    check::forEachExecution(t, [&](const uhb::Execution &) {
        count++;
    });
    EXPECT_EQ(count, 6);
}

TEST(CheckMore, WriteOnlyTestUsesFinalMemory)
{
    // 2+2W-style: only writes; the condition constrains final memory.
    LTest t = LTest::parse(R"(name w2
thread 0
w x 1
w y 2
thread 1
w y 1
w x 2
interesting x=1 & y=1)");
    auto res = check::checkTest(scModel(), t);
    EXPECT_TRUE(res.pass) << res.summary();
    EXPECT_FALSE(res.interestingObservable);
    EXPECT_FALSE(res.interestingScAllowed);
    EXPECT_GT(res.executionsExplored, 1);
}

TEST(CheckMore, SingleThreadCoherence)
{
    LTest t = LTest::parse(R"(name corw1
thread 0
r x 2
w x 1
interesting 0:x2=1)");
    auto res = check::checkTest(scModel(), t);
    EXPECT_TRUE(res.pass) << res.summary();
    EXPECT_FALSE(res.interestingObservable)
        << "a read must not observe its own program-order successor";
}

TEST(CheckMore, FourThreadIriw)
{
    auto suite = litmus::standardSuite();
    const LTest *iriw = nullptr;
    for (const auto &t : suite)
        if (t.name == "iriw")
            iriw = &t;
    ASSERT_NE(iriw, nullptr);
    auto res = check::checkTest(scModel(), *iriw);
    EXPECT_TRUE(res.pass) << res.summary();
    EXPECT_FALSE(res.interestingObservable);
    // 4 reads x 2 candidates = 16 rf combinations.
    EXPECT_EQ(res.executionsExplored, 16);
}

TEST(CheckMore, ViolationsReportedForWeakModel)
{
    // A model with paths only (no ordering axioms at the access row
    // beyond per-op paths): SB's non-SC outcome becomes observable.
    uspec::Model weak = uspec::Model::parse(R"(
StageName 0 "IF_".
StageName 1 "acc".
StageName 2 "mem".
StageName 3 "regfile".
MemoryAccessStage "acc".
MemoryStage "mem".
Axiom "R_path":
forall microop "i0",
IsAnyRead i0 =>
AddEdge ((i0, acc), (i0, regfile)).
Axiom "W_path":
forall microop "i0",
IsAnyWrite i0 =>
AddEdge ((i0, acc), (i0, mem)).
)");
    LTest sb = litmus::standardSuite()[1];
    auto res = check::checkTest(weak, sb);
    EXPECT_FALSE(res.pass);
    EXPECT_TRUE(res.interestingObservable);
    ASSERT_FALSE(res.violations.empty());
    // The violation string names concrete register values.
    EXPECT_NE(res.violations[0].find("x2=0"), std::string::npos);
}

TEST(CheckMore, TightnessReporting)
{
    LTest mp = litmus::standardSuite()[0];
    auto res = check::checkTest(scModel(), mp);
    EXPECT_TRUE(res.pass);
    EXPECT_TRUE(res.tight);
    EXPECT_EQ(res.observableOutcomes, res.scAllowedOutcomes);
}

TEST(CheckMore, DotOnlyWhenRequested)
{
    LTest mp = litmus::standardSuite()[0];
    auto res = check::checkTest(scModel(), mp);
    EXPECT_TRUE(res.interestingDot.empty());
    check::CampaignOptions opts;
    opts.collectDot = true;
    res = check::checkTest(scModel(), mp, opts);
    EXPECT_FALSE(res.interestingDot.empty());
    EXPECT_NE(res.interestingDot.find("digraph"), std::string::npos);
}
