/**
 * @file
 * Tests for the µspec DSL (print/parse round-trip) and the µhb solver,
 * validated end-to-end with a hand-written SC model of the
 * multi-V-scale: the full 56-test suite must pass on the correct
 * model, and a deliberately weakened model (missing the program-order
 * memory-interface serialization) must fail SB-style tests.
 */

#include <gtest/gtest.h>

#include "check/campaign.hh"
#include "common/logging.hh"
#include "litmus/litmus.hh"
#include "uhb/uhb.hh"
#include "uspec/uspec.hh"

using namespace r2u;
using namespace r2u::uspec;

namespace
{

/**
 * Hand-written µspec model of the multi-V-scale (what rtl2uspec
 * synthesizes automatically): rows IF_, WB group, memory-interface
 * access point, shared memory, regfile; fetch and memory-interface
 * order both track program order.
 */
const char *kVscaleHandModel = R"(
StageName 0 "IF_".
StageName 1 "WB_grp".
StageName 2 "mem_if".
StageName 3 "mem".
StageName 4 "regfile".
MemoryAccessStage "mem_if".
MemoryStage "mem".

Axiom "R_path":
forall microop "i0",
IsAnyRead i0 =>
AddEdges [((i0, IF_), (i0, WB_grp), "path");
          ((i0, IF_), (i0, mem_if), "path");
          ((i0, mem_if), (i0, regfile), "path");
          ((i0, WB_grp), (i0, regfile), "path")].

Axiom "W_path":
forall microop "i0",
IsAnyWrite i0 =>
AddEdges [((i0, IF_), (i0, WB_grp), "path");
          ((i0, IF_), (i0, mem_if), "path");
          ((i0, mem_if), (i0, mem), "path")].

Axiom "PO_fetch":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, IF_), (i1, IF_), "PO", "orange").

Axiom "PO_wb":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, WB_grp), (i1, WB_grp), "spatial", "green").

Axiom "PO_mem_if":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, mem_if), (i1, mem_if), "temporal", "blue").

Axiom "Dataflow_mem":
forall microops "i0", "i1",
IsAnyWrite i0 => IsAnyRead i1 => SamePA i0 i1 => SameData i0 i1 =>
NoWritesInBetween i0 i1 =>
AddEdge ((i0, mem), (i1, regfile), "data", "deeppink").
)";

/** The same model without PO_mem_if: too weak to forbid SB. */
std::string
weakModelText()
{
    std::string text = kVscaleHandModel;
    size_t pos = text.find("Axiom \"PO_mem_if\"");
    size_t end = text.find("Axiom \"Dataflow_mem\"");
    return text.substr(0, pos) + text.substr(end);
}

} // namespace

TEST(Uspec, PrintParseRoundTrip)
{
    Model m = Model::parse(kVscaleHandModel);
    EXPECT_EQ(m.stageNames.size(), 5u);
    EXPECT_EQ(m.axioms.size(), 6u);
    EXPECT_EQ(m.memAccessStage, "mem_if");
    EXPECT_EQ(m.memStage, "mem");

    std::string printed = m.print();
    Model m2 = Model::parse(printed);
    EXPECT_EQ(m2.print(), printed);
    EXPECT_EQ(m2.axioms.size(), m.axioms.size());
    EXPECT_EQ(m2.axioms[0].edgeAlternatives[0].size(), 4u);
}

TEST(Uspec, EitherOrderingRoundTrip)
{
    Model m = Model::parse(R"(
StageName 0 "mem".
Axiom "unordered":
forall microops "i0", "i1",
IsAnyWrite i0 => IsAnyWrite i1 => NotSame i0 i1 => SamePA i0 i1 =>
EitherOrdering ((i0, mem), (i1, mem), "ws").
)");
    ASSERT_EQ(m.axioms.size(), 1u);
    EXPECT_TRUE(m.axioms[0].isEitherOrdering());
    Model m2 = Model::parse(m.print());
    EXPECT_TRUE(m2.axioms[0].isEitherOrdering());
}

TEST(Uspec, ParseErrors)
{
    EXPECT_THROW(Model::parse("Bogus 1 \"x\"."), FatalError);
    EXPECT_THROW(Model::parse(R"(
StageName 0 "a".
Axiom "x":
forall microop "i0",
NotAPredicate i0 =>
AddEdge ((i0, a), (i0, a)).
)"), FatalError);
    EXPECT_THROW(Model::parse(R"(
Axiom "x":
forall microop "i0",
AddEdge ((i0, missing), (i0, missing)).
)"), FatalError);
}

TEST(Uhb, GraphCycleDetection)
{
    uhb::Graph g(2, 2);
    EXPECT_FALSE(g.cyclic());
    g.addEdge(0, 0, 1, 0);
    g.addEdge(1, 0, 1, 1);
    EXPECT_FALSE(g.cyclic());
    g.addEdge(1, 1, 0, 0);
    EXPECT_TRUE(g.cyclic());
    // Duplicate edges are not re-added.
    EXPECT_FALSE(g.addEdge(0, 0, 1, 0));
}

TEST(Uhb, SolveOrientsRfWsFr)
{
    Model m = Model::parse(kVscaleHandModel);
    litmus::Test mp = litmus::standardSuite()[0];
    auto ops = check::microopsOf(mp);
    ASSERT_EQ(ops.size(), 4u);

    // Forbidden MP execution: r1 reads the flag write, r2 reads init.
    uhb::Execution exec;
    exec.ops = ops;
    exec.rf = {-2, -2, 1, -1};
    exec.ws[ops[0].addr] = {0};
    exec.ws[ops[1].addr] = {1};
    exec.ops[2].value = 1;
    exec.ops[3].value = 0;
    auto res = uhb::solve(m, exec);
    EXPECT_FALSE(res.observable) << "forbidden MP outcome must be cyclic";

    // Allowed execution: both reads observe the writes.
    exec.rf = {-2, -2, 1, 0};
    exec.ops[3].value = 1;
    res = uhb::solve(m, exec);
    EXPECT_TRUE(res.observable);
    EXPECT_GT(res.edges, 8u);
}

TEST(Check, HandModelPassesMp)
{
    Model m = Model::parse(kVscaleHandModel);
    litmus::Test mp = litmus::standardSuite()[0];
    check::CampaignOptions opts;
    opts.collectDot = true;
    auto res = check::checkTest(m, mp, opts);
    EXPECT_TRUE(res.pass) << res.summary();
    EXPECT_FALSE(res.interestingObservable);
    EXPECT_FALSE(res.interestingScAllowed);
    EXPECT_TRUE(res.tight) << "all SC outcomes should be observable";
    EXPECT_NE(res.interestingDot.find("digraph"), std::string::npos);
}

TEST(Check, WeakModelFailsSb)
{
    Model weak = Model::parse(weakModelText());
    litmus::Test sb = litmus::standardSuite()[1];
    auto res = check::checkTest(weak, sb);
    EXPECT_FALSE(res.pass)
        << "a model without memory-order-tracks-PO must admit the "
           "non-SC SB outcome";
    EXPECT_TRUE(res.interestingObservable);
    EXPECT_FALSE(res.violations.empty());
}

/** The hand model must pass the entire 56-test suite. */
class HandModelSuiteTest : public ::testing::TestWithParam<int>
{
};

TEST_P(HandModelSuiteTest, Passes)
{
    static Model m = Model::parse(kVscaleHandModel);
    auto suite = litmus::standardSuite();
    const litmus::Test &t = suite[static_cast<size_t>(GetParam())];
    auto res = check::checkTest(m, t);
    EXPECT_TRUE(res.pass) << res.summary();
    EXPECT_FALSE(res.interestingObservable) << res.summary();
}

INSTANTIATE_TEST_SUITE_P(All56, HandModelSuiteTest,
                         ::testing::Range(0, 56));
