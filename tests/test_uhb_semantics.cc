/**
 * @file
 * Focused µhb-engine semantics tests: EdgeExists fixpoint chaining,
 * EitherOrdering branch search, rf/ws/fr orientation edges,
 * quantifier instantiation corner cases (unary axioms, self-pairs),
 * the instance table's resolved node and op ids, and the check that a
 * table matches the execution it solves.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "uhb/uhb.hh"
#include "uspec/uspec.hh"

using namespace r2u;
using namespace r2u::uhb;

namespace
{

/** Two same-core ops: a write then a read of the same address. */
Execution
writeThenRead(int rf_src)
{
    Execution e;
    Microop w;
    w.id = 0;
    w.core = 0;
    w.index = 0;
    w.isWrite = true;
    w.addr = 0;
    w.value = 1;
    w.label = "sw";
    Microop r;
    r.id = 1;
    r.core = 0;
    r.index = 1;
    r.isRead = true;
    r.addr = 0;
    r.value = rf_src == 0 ? 1 : 0;
    r.label = "lw";
    e.ops = {w, r};
    e.rf = {-2, rf_src};
    e.ws[0] = {0};
    return e;
}

} // namespace

TEST(UhbSemantics, EdgeExistsFixpointChains)
{
    // Axiom 2 fires only once axiom 1's edge exists; axiom 3 only
    // once axiom 2's does. All three must land via the fixpoint.
    uspec::Model m = uspec::Model::parse(R"(
StageName 0 "a".
StageName 1 "b".
StageName 2 "c".
StageName 3 "d".
Axiom "base":
forall microop "i0",
IsAnyWrite i0 =>
AddEdge ((i0, a), (i0, b)).
Axiom "chain1":
forall microop "i0",
EdgeExists ((i0, a), (i0, b)) =>
AddEdge ((i0, b), (i0, c)).
Axiom "chain2":
forall microop "i0",
EdgeExists ((i0, b), (i0, c)) =>
AddEdge ((i0, c), (i0, d)).
)");
    Execution e = writeThenRead(0);
    auto res = solve(m, e);
    EXPECT_TRUE(res.observable);
    EXPECT_TRUE(res.graph.hasEdge(0, 0, 0, 1));
    EXPECT_TRUE(res.graph.hasEdge(0, 1, 0, 2));
    EXPECT_TRUE(res.graph.hasEdge(0, 2, 0, 3));
    // The read (not a write) triggers none of the chain.
    EXPECT_FALSE(res.graph.hasEdge(1, 0, 1, 1));
}

TEST(UhbSemantics, EitherOrderingExploresBothBranches)
{
    // Two ops contend on one location with no forced direction; a
    // second axiom forbids one direction, so the solver must find the
    // other branch.
    uspec::Model m = uspec::Model::parse(R"(
StageName 0 "s".
StageName 1 "t".
Axiom "contend":
forall microops "i0", "i1",
NotSame i0 i1 =>
EitherOrdering ((i0, s), (i1, s), "ser").
Axiom "pin":
forall microops "i0", "i1",
IsAnyWrite i0 => IsAnyRead i1 =>
AddEdge ((i1, s), (i0, s), "force").
)");
    Execution e = writeThenRead(-1);
    auto res = solve(m, e);
    ASSERT_TRUE(res.observable);
    // The forced direction must be the one chosen: read before write.
    EXPECT_TRUE(res.graph.hasEdge(1, 0, 0, 0));
    EXPECT_FALSE(res.graph.hasEdge(0, 0, 1, 0));
    EXPECT_GE(res.branchesExplored, 1);
}

TEST(UhbSemantics, ContradictoryEitherOrderingIsCyclic)
{
    // Pin BOTH directions via unconditional axioms: no branch works.
    uspec::Model m = uspec::Model::parse(R"(
StageName 0 "s".
Axiom "fwd":
forall microops "i0", "i1",
IsAnyWrite i0 => IsAnyRead i1 =>
AddEdge ((i0, s), (i1, s)).
Axiom "bwd":
forall microops "i0", "i1",
IsAnyWrite i0 => IsAnyRead i1 =>
AddEdge ((i1, s), (i0, s)).
)");
    Execution e = writeThenRead(-1);
    auto res = solve(m, e);
    EXPECT_FALSE(res.observable);
    EXPECT_TRUE(res.graph.cyclic());
}

TEST(UhbSemantics, RfWsFrOrientation)
{
    uspec::Model m = uspec::Model::parse(R"(
StageName 0 "acc".
StageName 1 "mem".
MemoryAccessStage "acc".
MemoryStage "mem".
)");
    // Three ops at one address: w1, w2 (ws: w1 < w2), and a read
    // observing w1 => fr edge read -> w2.
    Execution e;
    for (int i = 0; i < 3; i++) {
        Microop op;
        op.id = i;
        op.core = i;
        op.index = 0;
        op.addr = 0;
        e.ops.push_back(op);
    }
    e.ops[0].isWrite = true;
    e.ops[0].value = 1;
    e.ops[1].isWrite = true;
    e.ops[1].value = 2;
    e.ops[2].isRead = true;
    e.ops[2].value = 1;
    e.rf = {-2, -2, 0};
    e.ws[0] = {0, 1};
    auto res = solve(m, e);
    ASSERT_TRUE(res.observable);
    EXPECT_TRUE(res.graph.hasEdge(0, 0, 1, 0)); // ws at access row
    EXPECT_TRUE(res.graph.hasEdge(0, 1, 1, 1)); // ws at memory row
    EXPECT_TRUE(res.graph.hasEdge(0, 0, 2, 0)); // rf
    EXPECT_TRUE(res.graph.hasEdge(2, 0, 1, 0)); // fr to ws-successor
}

TEST(UhbSemantics, ReadFromInitFrToAllWrites)
{
    uspec::Model m = uspec::Model::parse(R"(
StageName 0 "acc".
MemoryAccessStage "acc".
)");
    Execution e = writeThenRead(-1); // read observes the initial value
    auto res = solve(m, e);
    ASSERT_TRUE(res.observable);
    EXPECT_TRUE(res.graph.hasEdge(1, 0, 0, 0)); // fr: read before write
    EXPECT_FALSE(res.graph.hasEdge(0, 0, 1, 0));
}

TEST(UhbSemantics, SelfPairsExcludedByNotSame)
{
    uspec::Model m = uspec::Model::parse(R"(
StageName 0 "s".
Axiom "self":
forall microops "i0", "i1",
NotSame i0 i1 => SameCore i0 i1 =>
AddEdge ((i0, s), (i1, s)).
)");
    // A single op: the (i0 == i1) binding must not add a self-edge —
    // with it, the graph would be trivially cyclic.
    Execution e;
    Microop w;
    w.id = 0;
    w.core = 0;
    w.index = 0;
    w.isWrite = true;
    w.addr = 0;
    w.value = 1;
    e.ops = {w};
    e.rf = {-2};
    e.ws[0] = {0};
    auto res = solve(m, e);
    EXPECT_TRUE(res.observable);
    // But with two distinct ops the axiom applies both ways -> cycle.
    Execution e2 = writeThenRead(-1);
    e2.ws.clear(); // remove orientation; only the axiom acts
    auto res2 = solve(m, e2);
    EXPECT_FALSE(res2.observable);
}

TEST(UhbSemantics, DotContainsGridStructure)
{
    uspec::Model m = uspec::Model::parse(R"(
StageName 0 "row_a".
StageName 1 "row_b".
Axiom "p":
forall microop "i0",
IsAnyWrite i0 =>
AddEdge ((i0, row_a), (i0, row_b)).
)");
    Execution e = writeThenRead(0);
    auto res = solve(m, e);
    std::string dot = res.graph.toDot(m, e.ops, "g");
    EXPECT_NE(dot.find("rank=same"), std::string::npos);
    EXPECT_NE(dot.find("row_a"), std::string::npos);
    EXPECT_NE(dot.find("sw"), std::string::npos); // column header
}

TEST(UhbSemantics, InstanceTableResolvesNodeAndOpIds)
{
    uspec::Model m = uspec::Model::parse(R"(
StageName 0 "a".
StageName 1 "b".
StageName 2 "c".
Axiom "base":
forall microop "i0",
IsAnyWrite i0 =>
AddEdge ((i0, a), (i0, c)).
Axiom "flow":
forall microops "i0", "i1",
SameData i0 i1 =>
EdgeExists ((i0, a), (i0, c)) =>
AddEdge ((i0, c), (i1, b), "df").
)");
    Execution e = writeThenRead(0);
    InstanceTable table(m, e.ops);
    EXPECT_EQ(table.numOps(), 2u);
    EXPECT_EQ(table.numLocs(), 3u);
    // "base" binds the write only; "flow" keeps the two bindings whose
    // second microop is a read: (w, r) and (r, r).
    ASSERT_EQ(table.instances().size(), 3u);
    const AxiomInstance &base = table.instances()[0];
    ASSERT_EQ(base.alternatives.size(), 1u);
    ASSERT_EQ(base.alternatives[0].size(), 1u);
    EXPECT_EQ(base.alternatives[0][0].src, 0 * 3 + 0);
    EXPECT_EQ(base.alternatives[0][0].dst, 0 * 3 + 2);
    EXPECT_EQ(*base.alternatives[0][0].label, "base");
    const AxiomInstance &flow = table.instances()[1];
    EXPECT_EQ(flow.rfConds, (std::vector<std::pair<int, int>>{{0, 1}}));
    ASSERT_EQ(flow.edgeConds.size(), 1u);
    EXPECT_EQ(flow.edgeConds[0].src, 0);
    EXPECT_EQ(flow.edgeConds[0].dst, 2);
    EXPECT_EQ(flow.alternatives[0][0].src, 0 * 3 + 2);
    EXPECT_EQ(flow.alternatives[0][0].dst, 1 * 3 + 1);
    EXPECT_EQ(*flow.alternatives[0][0].label, "df");

    // rf = w -> r: the edge lands; rf = init: it does not.
    EXPECT_TRUE(solve(m, e, table).graph.hasEdge(0, 2, 1, 1));
    Execution init = writeThenRead(-1);
    EXPECT_FALSE(solve(m, init, table).graph.hasEdge(0, 2, 1, 1));
}

TEST(UhbSemanticsDeathTest, MismatchedInstanceTablePanics)
{
    uspec::Model m = uspec::Model::parse(R"(
StageName 0 "a".
StageName 1 "b".
Axiom "p":
forall microop "i0",
IsAnyWrite i0 =>
AddEdge ((i0, a), (i0, b)).
)");
    Execution e = writeThenRead(0);
    InstanceTable one_op(m, {e.ops[0]});
    EXPECT_DEATH(solve(m, e, one_op),
                 "instance table built for 1 ops x 2 stages");
    uspec::Model wider = m;
    wider.addStage("c");
    InstanceTable narrow(m, e.ops);
    EXPECT_DEATH(solve(wider, e, narrow),
                 "instance table built for 2 ops x 2 stages");
}
