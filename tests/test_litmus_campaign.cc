/**
 * @file
 * Campaign-engine tests: sequential-vs-parallel and pruned-vs-
 * exhaustive verdict identity over the full standard suite and two
 * coherence stress tests (against a from-scratch seed-style
 * enumerator), determinism of repeated parallel runs, outcome-level
 * pruning accounting, fail-fast, the µhb search and its verdict-only
 * entry against an independent reference (ReferenceSolver: the
 * copy-and-DFS recursion over labeled graphs that the bit-matrix
 * search replaced), and the regression fixes: an SC-allowed
 * interesting outcome is not a failure, per-test DOT
 * collection/filenames, an empty execution solving cleanly (no
 * out-of-bounds binding; runs under the ASan CI job), a candidate
 * space past 2^64 being an error instead of an unchecked pass, and a
 * stop ending the candidate-bucketing sweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <set>

#include "check/campaign.hh"
#include "check/check.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "litmus/litmus.hh"
#include "litmus_shapes.hh"
#include "mcm/sc_ref.hh"
#include "uhb/uhb.hh"
#include "uspec/uspec.hh"

using namespace r2u;
using LTest = litmus::Test;

namespace
{

/** Hand-written SC model of the multi-V-scale (as in
 *  designs/vscale_sc.uarch). */
const char *kScModel = R"(
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
AddEdges [((i0, IF_), (i0, WB_grp));
          ((i0, IF_), (i0, mem_if));
          ((i0, mem_if), (i0, regfile));
          ((i0, WB_grp), (i0, regfile))].
Axiom "W_path":
forall microop "i0",
IsAnyWrite i0 =>
AddEdges [((i0, IF_), (i0, WB_grp));
          ((i0, IF_), (i0, mem_if));
          ((i0, mem_if), (i0, mem))].
Axiom "PO_fetch":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, IF_), (i1, IF_)).
Axiom "PO_wb":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, WB_grp), (i1, WB_grp)).
Axiom "PO_mem_if":
forall microops "i0", "i1",
SameCore i0 i1 => ProgramOrder i0 i1 =>
AddEdge ((i0, mem_if), (i1, mem_if)).
Axiom "Dataflow_mem":
forall microops "i0", "i1",
IsAnyWrite i0 => IsAnyRead i1 => SamePA i0 i1 => SameData i0 i1 =>
NoWritesInBetween i0 i1 =>
AddEdge ((i0, mem), (i1, regfile)).
)";

const uspec::Model &
scModel()
{
    static uspec::Model m = uspec::Model::parse(kScModel);
    return m;
}

/** The SC model without PO_mem_if: too weak to forbid SB. */
const uspec::Model &
weakModel()
{
    static uspec::Model m = [] {
        std::string text = kScModel;
        size_t pos = text.find("Axiom \"PO_mem_if\"");
        size_t end = text.find("Axiom \"Dataflow_mem\"");
        return uspec::Model::parse(text.substr(0, pos) +
                                   text.substr(end));
    }();
    return m;
}

/**
 * The SC model with cross-core access serialization (an EitherOrdering
 * instance per cross-core microop pair, as in the synthesized V-scale
 * model) and with PO_mem_if conditional on the PO_fetch edge. That
 * EdgeExists antecedent always holds, so the model stays SC, but the
 * fixpoint has to find it.
 */
const uspec::Model &
serialModel()
{
    static uspec::Model m = [] {
        std::string text = kScModel;
        std::string po = "AddEdge ((i0, mem_if), (i1, mem_if)).";
        text.replace(text.find(po), 0,
                     "EdgeExists ((i0, IF_), (i1, IF_)) =>\n");
        return uspec::Model::parse(text + R"(
Axiom "Access_serialized":
forall microops "i0", "i1",
NotSame i0 i1 => NotSameCore i0 i1 =>
EitherOrdering ((i0, mem_if), (i1, mem_if), "serial").
)");
    }();
    return m;
}

/**
 * The µhb search before the bit-matrix engine, kept as an independent
 * reference. It shares nothing with uhb::solve but the Graph class's
 * public API: it enumerates axiom bindings itself, evaluates every
 * predicate through the axioms' variable names, copies the labeled
 * graph at every EitherOrdering branch and runs a full DFS cycle check
 * after every fixpoint.
 */
class ReferenceSolver
{
  public:
    ReferenceSolver(const uspec::Model &model, const uhb::Execution &exec)
        : model_(model), exec_(exec)
    {
    }

    uhb::SolveResult
    solve()
    {
        uhb::Graph base(exec_.ops.size(), model_.stageNames.size());
        addMemorySemantics(base);
        for (const uspec::Axiom &ax : model_.axioms)
            instantiate(ax, base);
        uhb::SolveResult result;
        result.observable = branch(base, 0, result.graph);
        result.branchesExplored = branches_;
        result.edges = result.graph.numEdges();
        return result;
    }

    /** Search nodes whose EitherOrdering antecedents did not hold. */
    int skips() const { return skips_; }

  private:
    struct Instance
    {
        const uspec::Axiom *axiom;
        std::vector<int> binding;
    };

    int
    boundOp(const Instance &inst, const std::string &var) const
    {
        for (size_t i = 0; i < inst.axiom->microops.size(); i++)
            if (inst.axiom->microops[i] == var)
                return inst.binding[i];
        r2u::panic("unbound microop '%s'", var.c_str());
    }

    bool
    predHolds(const uspec::Pred &p, const Instance &inst) const
    {
        using uspec::PredKind;
        auto op = [&](const std::string &v) -> const uhb::Microop & {
            return exec_.ops[boundOp(inst, v)];
        };
        switch (p.kind) {
          case PredKind::True_:
          case PredKind::EdgeExists: // checked against the graph
            return true;
          case PredKind::IsAnyRead:
            return op(p.i0).isRead;
          case PredKind::IsAnyWrite:
            return op(p.i0).isWrite;
          case PredKind::ProgramOrder:
            return op(p.i0).core == op(p.i1).core &&
                   op(p.i0).index < op(p.i1).index;
          case PredKind::SameCore:
            return op(p.i0).core == op(p.i1).core;
          case PredKind::NotSameCore:
            return op(p.i0).core != op(p.i1).core;
          case PredKind::NotSame:
            return op(p.i0).id != op(p.i1).id;
          case PredKind::SamePA:
            return (op(p.i0).isRead || op(p.i0).isWrite) &&
                   (op(p.i1).isRead || op(p.i1).isWrite) &&
                   op(p.i0).addr == op(p.i1).addr;
          case PredKind::SameData:
          case PredKind::NoWritesInBetween:
            return op(p.i1).isRead &&
                   exec_.rf[op(p.i1).id] == op(p.i0).id;
        }
        return false;
    }

    /** Every binding of @p ax whose plain predicates hold. */
    void
    instantiate(const uspec::Axiom &ax, uhb::Graph &base)
    {
        size_t arity = ax.microops.size();
        size_t n = exec_.ops.size();
        if (arity > 0 && n == 0)
            return;
        Instance inst{&ax, std::vector<int>(arity, 0)};
        while (true) {
            bool holds = true, conditional = false;
            for (const uspec::Pred &p : ax.antecedents) {
                conditional |= p.kind == uspec::PredKind::EdgeExists;
                holds &= predHolds(p, inst);
            }
            if (holds) {
                if (ax.isEitherOrdering())
                    eithers_.push_back(inst);
                else if (conditional)
                    conditional_.push_back(inst);
                else
                    applyEdges(inst, ax.edgeAlternatives[0], base);
            }
            size_t d = 0;
            while (d < arity) {
                if (++inst.binding[d] < static_cast<int>(n))
                    break;
                inst.binding[d] = 0;
                d++;
            }
            if (d == arity || arity == 0)
                return;
        }
    }

    void
    addMemorySemantics(uhb::Graph &g) const
    {
        int acc = model_.memAccessStage.empty()
                      ? -1
                      : model_.locOf(model_.memAccessStage);
        int mem = model_.memStage.empty() ? -1
                                          : model_.locOf(model_.memStage);
        if (acc < 0)
            return;
        for (const auto &[addr, writes] : exec_.ws) {
            for (size_t i = 0; i + 1 < writes.size(); i++) {
                g.addEdge(writes[i], acc, writes[i + 1], acc, "ws");
                if (mem >= 0)
                    g.addEdge(writes[i], mem, writes[i + 1], mem, "ws");
            }
        }
        for (const uhb::Microop &r : exec_.ops) {
            if (!r.isRead)
                continue;
            int w = exec_.rf[r.id];
            if (w >= 0)
                g.addEdge(w, acc, r.id, acc, "rf");
            auto it = exec_.ws.find(r.addr);
            if (it == exec_.ws.end())
                continue;
            bool after_src = (w < 0);
            for (int w2 : it->second) {
                if (after_src && w2 != w)
                    g.addEdge(r.id, acc, w2, acc, "fr");
                if (w2 == w)
                    after_src = true;
            }
        }
    }

    bool
    edgesHold(const Instance &inst, const uhb::Graph &g) const
    {
        for (const uspec::Pred &p : inst.axiom->antecedents) {
            if (p.kind == uspec::PredKind::EdgeExists &&
                !g.hasEdge(boundOp(inst, p.edge.src.microop),
                           p.edge.src.loc,
                           boundOp(inst, p.edge.dst.microop),
                           p.edge.dst.loc))
                return false;
        }
        return true;
    }

    void
    applyEdges(const Instance &inst,
               const std::vector<uspec::EdgeSpec> &edges,
               uhb::Graph &g) const
    {
        for (const uspec::EdgeSpec &e : edges) {
            g.addEdge(boundOp(inst, e.src.microop), e.src.loc,
                      boundOp(inst, e.dst.microop), e.dst.loc,
                      e.label.empty() ? inst.axiom->name : e.label);
        }
    }

    void
    fixpoint(uhb::Graph &g) const
    {
        bool changed = true;
        while (changed) {
            changed = false;
            for (const Instance &inst : conditional_) {
                if (!edgesHold(inst, g))
                    continue;
                size_t before = g.numEdges();
                applyEdges(inst, inst.axiom->edgeAlternatives[0], g);
                changed |= g.numEdges() != before;
            }
        }
    }

    bool
    branch(uhb::Graph g, size_t next, uhb::Graph &out)
    {
        branches_++;
        fixpoint(g);
        if (g.cyclic()) {
            out = g;
            return false;
        }
        if (next >= eithers_.size()) {
            out = g;
            return true;
        }
        const Instance &inst = eithers_[next];
        if (!edgesHold(inst, g)) {
            skips_++;
            return branch(std::move(g), next + 1, out);
        }
        uhb::Graph cyc = g;
        for (const auto &alt : inst.axiom->edgeAlternatives) {
            uhb::Graph trial = g;
            applyEdges(inst, alt, trial);
            uhb::Graph sub(0, 0);
            if (branch(std::move(trial), next + 1, sub)) {
                out = sub;
                return true;
            }
            cyc = sub;
        }
        out = cyc;
        return false;
    }

    const uspec::Model &model_;
    const uhb::Execution &exec_;
    std::vector<Instance> conditional_, eithers_;
    int branches_ = 0;
    int skips_ = 0;
};

/** What one comparison sweep saw. */
struct SweepStats
{
    int candidates = 0, observable = 0, branched = 0, skips = 0;
};

/** How @p got differs from the reference @p ref; empty when it does
 *  not. */
std::string
solveDiff(const uhb::SolveResult &ref, const uhb::SolveResult &got,
          const uspec::Model &model, const uhb::Execution &exec)
{
    if (ref.observable != got.observable)
        return "observable";
    if (ref.branchesExplored != got.branchesExplored)
        return r2u::strfmt("branches %d vs %d", ref.branchesExplored,
                           got.branchesExplored);
    if (ref.edges != got.edges)
        return r2u::strfmt("edges %zu vs %zu", ref.edges, got.edges);
    if (ref.graph.toDot(model, exec.ops, "w") !=
        got.graph.toDot(model, exec.ops, "w"))
        return "witness DOT";
    // The witness is acyclic exactly when the execution is possible.
    if (got.graph.cyclic() == got.observable)
        return "witness shape";
    return "";
}

/**
 * Solve every candidate of @p test with the shared instance table,
 * with a per-execution table and with the reference, and expect all
 * three to agree on the verdict, the branch count, the edge count and
 * the witness bytes; decide() must give the reference's verdict and
 * branch count.
 */
void
expectMatchesReference(const uspec::Model &model, const LTest &test,
                       SweepStats &stats)
{
    check::ExecutionSpace space(test);
    uhb::InstanceTable table(model, space.ops());
    uhb::Execution exec = space.makeScratch();
    for (uint64_t k = 0; k < space.size(); k++) {
        space.materialize(k, exec);
        ReferenceSolver reference(model, exec);
        uhb::SolveResult ref = reference.solve();
        EXPECT_EQ(solveDiff(ref, uhb::solve(model, exec, table), model,
                            exec),
                  "")
            << test.name << " candidate " << k << " (shared table)";
        EXPECT_EQ(solveDiff(ref, uhb::solve(model, exec), model, exec),
                  "")
            << test.name << " candidate " << k << " (per execution)";
        uhb::Verdict verdict = uhb::decide(model, exec, table);
        EXPECT_EQ(verdict.observable, ref.observable)
            << test.name << " candidate " << k << " (decide)";
        EXPECT_EQ(verdict.branchesExplored, ref.branchesExplored)
            << test.name << " candidate " << k << " (decide)";
        stats.candidates++;
        stats.observable += ref.observable;
        stats.branched += ref.branchesExplored > 1;
        stats.skips += reference.skips();
    }
}

/**
 * A seeded random model over 3-5 stages: per-kind paths, program
 * order at a random stage, rf dataflow, two EdgeExists-conditional
 * axioms (the second may chain off the first), a plain EitherOrdering
 * over same-address pairs, and an EitherOrdering guarded by an
 * EdgeExists antecedent that only writes satisfy, so reads take the
 * search's skip path.
 */
uspec::Model
randomModel(unsigned seed)
{
    std::mt19937 rng(seed);
    int stages = 3 + static_cast<int>(rng() % 3);
    // One draw per statement, so the model does not depend on the
    // compiler's operand evaluation order.
    auto stage = [&] {
        return "s" + std::to_string(rng() % static_cast<unsigned>(stages));
    };
    auto node = [&](const char *var) {
        return "(" + std::string(var) + ", " + stage() + ")";
    };
    auto edge = [&](const char *a, const char *b) {
        std::string src = node(a);
        std::string dst = node(b);
        return "(" + src + ", " + dst + ")";
    };
    auto axiom = [&](const char *name, const std::string &body) {
        return r2u::strfmt("Axiom \"%s\":\nforall microops \"i0\", "
                           "\"i1\",\n%s.\n",
                           name, body.c_str());
    };
    std::string text;
    for (int s = 0; s < stages; s++)
        text += r2u::strfmt("StageName %d \"s%d\".\n", s, s);
    text += "MemoryAccessStage \"s1\".\n";
    if (rng() % 2)
        text += r2u::strfmt("MemoryStage \"s%d\".\n", stages - 1);
    text += R"(
Axiom "w_path":
forall microop "i0",
IsAnyWrite i0 =>
AddEdges [((i0, s0), (i0, s1)); ((i0, s0), (i0, s2))].
Axiom "r_path":
forall microop "i0",
IsAnyRead i0 =>
AddEdges [((i0, s0), (i0, s1)); ((i0, s1), (i0, s2))].
)";
    std::string po = stage();
    text += axiom("po", "SameCore i0 i1 => ProgramOrder i0 i1 =>\n"
                        "AddEdge ((i0, " + po + "), (i1, " + po + "))");
    text += axiom("dataflow", "IsAnyWrite i0 => IsAnyRead i1 => "
                              "SamePA i0 i1 => SameData i0 i1 =>\n"
                              "AddEdge " + edge("i0", "i1"));
    for (const char *name : {"cond0", "cond1"}) {
        std::string cond = edge("i0", "i1");
        std::string add = edge("i0", "i1");
        text += axiom(name, "NotSame i0 i1 => EdgeExists " + cond +
                                " =>\nAddEdge " + add);
    }
    std::string ser = stage();
    text += axiom("serial", "NotSame i0 i1 => SamePA i0 i1 =>\n"
                            "EitherOrdering ((i0, " + ser + "), (i1, " +
                                ser + "))");
    std::string guarded = stage();
    text += axiom("guarded", "NotSameCore i0 i1 =>\n"
                             "EdgeExists ((i0, s0), (i0, s2)) =>\n"
                             "EitherOrdering ((i0, " + guarded +
                                 "), (i1, " + guarded + "))");
    return uspec::Model::parse(text);
}

/** Store buffering around a ring of @p threads threads: thread t
 *  writes x_t, then reads x_(t+1). */
LTest
sbRing(int threads)
{
    LTest t;
    t.name = r2u::strfmt("sb_ring%d", threads);
    for (int i = 0; i < threads; i++) {
        litmus::Thread th;
        th.ops.push_back({true, r2u::strfmt("x%d", i), 1, 0});
        th.ops.push_back(
            {false, r2u::strfmt("x%d", (i + 1) % threads), 0, 2});
        t.threads.push_back(th);
    }
    for (int i = 0; i < threads; i++)
        t.interesting.regs.push_back({i, 2, 0});
    return t;
}

/**
 * Seed-style reference: enumerate every candidate and solve it with the
 * table-free uhb::solve, no campaign; the verdict flags follow from the
 * observable outcomes and the SC ones.
 */
check::TestResult
referenceVerdict(const uspec::Model &model, const LTest &test)
{
    std::set<mcm::Outcome> observable;
    check::forEachExecution(test, [&](const uhb::Execution &exec) {
        if (uhb::solve(model, exec).observable)
            observable.insert(check::outcomeOf(test, exec));
    });
    std::set<mcm::Outcome> sc = mcm::enumerateSC(test);
    check::TestResult r;
    r.name = test.name;
    r.pass = true;
    for (const mcm::Outcome &o : observable) {
        r.outcomes.push_back(o.toString());
        r.interestingObservable |= o.satisfies(test.interesting);
        if (!sc.count(o)) {
            r.pass = false;
            r.violations.push_back(o.toString());
        }
    }
    for (const mcm::Outcome &o : sc)
        r.interestingScAllowed |= o.satisfies(test.interesting);
    r.tight = r.pass && observable.size() == sc.size();
    return r;
}

void
expectSameVerdicts(const check::TestResult &a, const check::TestResult &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.outcomes, b.outcomes) << a.name;
    EXPECT_EQ(a.pass, b.pass) << a.name;
    EXPECT_EQ(a.tight, b.tight) << a.name;
    EXPECT_EQ(a.interestingObservable, b.interestingObservable)
        << a.name;
    EXPECT_EQ(a.interestingScAllowed, b.interestingScAllowed) << a.name;
    EXPECT_EQ(a.violations, b.violations) << a.name;
}

} // namespace

TEST(Campaign, VerdictIdentityAcrossJobsAndPruningFullSuite)
{
    // The suite plus two coherence stress tests: 600 and 576
    // candidates over a handful of outcomes, so pruning skips most of
    // them.
    auto suite = litmus::standardSuite();
    suite.push_back(test::cohStress(4, 2));
    suite.push_back(test::mixedStress(3));
    check::CampaignOptions seq_ex, par_ex, seq_pr, par_pr;
    seq_ex.jobs = 1, seq_ex.prune = false;
    par_ex.jobs = 4, par_ex.prune = false;
    seq_pr.jobs = 1, seq_pr.prune = true;
    par_pr.jobs = 4, par_pr.prune = true;
    auto a = check::runCampaign(scModel(), suite, seq_ex);
    auto b = check::runCampaign(scModel(), suite, par_ex);
    auto c = check::runCampaign(scModel(), suite, seq_pr);
    auto d = check::runCampaign(scModel(), suite, par_pr);
    ASSERT_EQ(a.tests.size(), suite.size());
    for (size_t i = 0; i < suite.size(); i++) {
        // The sequential exhaustive campaign matches a from-scratch
        // seed-style enumerate-and-solve sweep: outcomes, pass, tight
        // and both interesting flags...
        expectSameVerdicts(referenceVerdict(scModel(), suite[i]),
                           a.tests[i]);
        // ...and every other configuration matches it.
        expectSameVerdicts(a.tests[i], b.tests[i]);
        expectSameVerdicts(a.tests[i], c.tests[i]);
        expectSameVerdicts(a.tests[i], d.tests[i]);
        // Exhaustive runs solve the whole space, in parallel too.
        EXPECT_EQ(a.tests[i].executionsExplored,
                  a.tests[i].executionsTotal);
        EXPECT_EQ(b.tests[i].executionsExplored,
                  b.tests[i].executionsTotal);
    }
    // On the stress tests, pruning skips most candidates.
    for (size_t i = suite.size() - 2; i < suite.size(); i++)
        EXPECT_GT(c.tests[i].executionsPruned,
                  c.tests[i].executionsExplored)
            << suite[i].name;
    EXPECT_EQ(a.failures, 0);
    EXPECT_EQ(d.failures, 0);
}

TEST(Campaign, RepeatedParallelRunsAreDeterministic)
{
    auto suite = litmus::standardSuite();
    check::CampaignOptions opts;
    opts.jobs = 4, opts.prune = true;
    auto a = check::runCampaign(scModel(), suite, opts);
    auto b = check::runCampaign(scModel(), suite, opts);
    ASSERT_EQ(a.tests.size(), b.tests.size());
    for (size_t i = 0; i < a.tests.size(); i++) {
        expectSameVerdicts(a.tests[i], b.tests[i]);
        // With pruning (no fail-fast), even the exploration counts
        // and branch totals are schedule-independent: pruning is
        // per-outcome-bucket, not cross-worker.
        EXPECT_EQ(a.tests[i].executionsExplored,
                  b.tests[i].executionsExplored) << a.tests[i].name;
        EXPECT_EQ(a.tests[i].executionsPruned,
                  b.tests[i].executionsPruned) << a.tests[i].name;
        EXPECT_EQ(a.tests[i].branches, b.tests[i].branches)
            << a.tests[i].name;
    }
    EXPECT_EQ(a.executionsExplored, b.executionsExplored);
    EXPECT_EQ(a.executionsPruned, b.executionsPruned);
}

TEST(Campaign, PruningSkipsProvenObservableOutcomes)
{
    // Two same-value writes to one location: both coherence orders
    // produce the same outcome, so the pruned campaign solves one
    // candidate and skips the rest of the bucket.
    LTest t = LTest::parse(R"(name dupw
thread 0
w x 1
thread 1
w x 1
interesting x=2)");
    check::CampaignOptions exhaustive, pruned;
    exhaustive.jobs = 1, exhaustive.prune = false;
    pruned.jobs = 1, pruned.prune = true;
    auto ex = check::checkTest(scModel(), t, exhaustive);
    auto pr = check::checkTest(scModel(), t, pruned);
    EXPECT_EQ(ex.executionsExplored, 2);
    EXPECT_EQ(ex.executionsPruned, 0);
    EXPECT_EQ(pr.executionsExplored, 1);
    EXPECT_EQ(pr.executionsPruned, 1);
    EXPECT_EQ(pr.executionsExplored + pr.executionsPruned,
              pr.executionsTotal);
    EXPECT_EQ(ex.outcomes, pr.outcomes);
    EXPECT_EQ(ex.pass, pr.pass);
    EXPECT_EQ(ex.tight, pr.tight);
}

// A stop ends the outcome-bucketing sweep, not only the solves: on the
// 6-writer mixed stress test (25,401,600 candidates) the sweep alone
// used to run ~25 s before the first stop check. With the flag already
// set, nothing is decoded or solved and every candidate counts as
// pruned.
TEST(Campaign, StopEndsTheBucketingSweep)
{
    std::atomic<bool> stop{true};
    check::CampaignOptions opts;
    opts.jobs = 1;
    opts.stop = &stop;
    auto start = std::chrono::steady_clock::now();
    auto res = check::runCampaign(scModel(), {test::mixedStress(6)}, opts);
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    EXPECT_TRUE(res.interrupted);
    EXPECT_EQ(res.executionsTotal, 25401600);
    EXPECT_EQ(res.executionsExplored, 0);
    EXPECT_EQ(res.executionsPruned, res.executionsTotal);
    EXPECT_LT(seconds, 5.0);
}

TEST(Campaign, FailFastStillReportsViolation)
{
    LTest sb = litmus::standardSuite()[1];
    check::CampaignOptions opts;
    opts.jobs = 4, opts.failFast = true;
    auto res = check::runCampaign(weakModel(), {sb}, opts);
    ASSERT_EQ(res.tests.size(), 1u);
    EXPECT_FALSE(res.tests[0].pass);
    EXPECT_FALSE(res.tests[0].ok());
    EXPECT_FALSE(res.tests[0].violations.empty());
    EXPECT_EQ(res.failures, 1);
}

TEST(Campaign, JsonReportParsesAndCounts)
{
    // Test names and locations come from user files: a control byte in
    // either must leave the report valid JSON (it used to be written
    // raw, and `json.load` refused the file).
    auto suite = litmus::standardSuite();
    suite.resize(4);
    suite.insert(suite.begin(), LTest::parse("name a\x01" "b\n"
                                             "thread 0\n"
                                             "w x\x01 1\n"));
    check::CampaignOptions opts;
    opts.jobs = 2;
    auto res = check::runCampaign(scModel(), suite, opts);
    json::Value report;
    std::string err;
    ASSERT_TRUE(json::Value::parse(res.jsonReport(), report, &err))
        << err;
    EXPECT_EQ(report.getInt("jobs"), 2);
    EXPECT_EQ(report.getInt("tests"), 5);
    EXPECT_EQ(report.getInt("failures"), 0);
    const json::Value *results = report.find("results");
    ASSERT_NE(results, nullptr);
    ASSERT_EQ(results->arr.size(), 5u);
    EXPECT_EQ(results->arr[0].getStr("name"), "a\x01" "b");
    const json::Value *outcomes = results->arr[0].find("outcomes");
    ASSERT_NE(outcomes, nullptr);
    ASSERT_EQ(outcomes->arr.size(), 1u);
    EXPECT_EQ(outcomes->arr[0].asStr(), "x\x01=1");
    EXPECT_EQ(results->arr[1].getStr("name"), suite[1].name);
}

// Regression (uspec_check verdict): a litmus test whose interesting
// outcome is SC-*allowed* must not fail just because that outcome is
// observable — observing it is correct behavior.
TEST(Campaign, ScAllowedInterestingOutcomeIsNotAFailure)
{
    LTest t = LTest::parse(R"(name sc_ok
thread 0
w x 1
thread 1
r x 2
interesting 1:x2=1)");
    auto res = check::checkTest(scModel(), t);
    EXPECT_TRUE(res.pass) << res.summary();
    EXPECT_TRUE(res.interestingObservable);
    EXPECT_TRUE(res.interestingScAllowed);
    EXPECT_TRUE(res.ok())
        << "an observable SC-allowed interesting outcome is not a "
           "failure";

    auto camp = check::runCampaign(scModel(), {t}, {});
    EXPECT_EQ(camp.failures, 0);
}

// Regression (uhb::solve): an execution with zero microops used to
// evaluate one all-zero binding anyway, indexing ops[0] out of
// bounds. Must solve cleanly (trivially observable) under ASan.
TEST(Campaign, EmptyExecutionSolvesCleanly)
{
    uhb::Execution empty;
    auto direct = uhb::solve(scModel(), empty);
    EXPECT_TRUE(direct.observable);
    EXPECT_EQ(direct.edges, 0u);

    uhb::InstanceTable table(scModel(), empty.ops);
    EXPECT_TRUE(table.instances().empty());
    auto via_table = uhb::solve(scModel(), empty, table);
    EXPECT_TRUE(via_table.observable);
}

// Regression (uspec_check --suite --dot): every witness used to be
// written to the same file; now paths are derived per test.
TEST(Campaign, DotPathPerTest)
{
    EXPECT_EQ(check::dotPathFor("out.dot", "mp"), "out_mp.dot");
    EXPECT_EQ(check::dotPathFor("dir/wit.dot", "sb"), "dir/wit_sb.dot");
    EXPECT_EQ(check::dotPathFor("wit", "lb"), "wit_lb");
    EXPECT_EQ(check::dotPathFor("a.b/wit", "mp"), "a.b/wit_mp");
}

TEST(Campaign, DotCollectionRestrictedToTargetTests)
{
    auto suite = litmus::standardSuite();
    std::vector<LTest> tests{suite[0], suite[1]}; // mp, sb
    check::CampaignOptions opts;
    opts.jobs = 2, opts.collectDot = true;
    opts.dotTests = {"sb"};
    auto res = check::runCampaign(scModel(), tests, opts);
    ASSERT_EQ(res.tests.size(), 2u);
    EXPECT_TRUE(res.tests[0].interestingDot.empty());
    ASSERT_FALSE(res.tests[1].interestingDot.empty());
    EXPECT_NE(res.tests[1].interestingDot.find("digraph"),
              std::string::npos);

    // Unrestricted: both collect, and each names its own test.
    opts.dotTests.clear();
    res = check::runCampaign(scModel(), tests, opts);
    ASSERT_FALSE(res.tests[0].interestingDot.empty());
    EXPECT_NE(res.tests[0].interestingDot.find("uhb_mp"),
              std::string::npos);
    EXPECT_NE(res.tests[1].interestingDot.find("uhb_sb"),
              std::string::npos);
}

TEST(Campaign, InstanceTableMatchesPerExecutionSolve)
{
    auto suite = litmus::standardSuite();
    SweepStats stats;
    for (const uspec::Model *model :
         {&scModel(), &weakModel(), &serialModel()})
        for (const LTest &t : suite)
            expectMatchesReference(*model, t, stats);
    EXPECT_EQ(stats.candidates, 3 * 380);
    EXPECT_GT(stats.observable, 0);
    EXPECT_LT(stats.observable, stats.candidates);
    EXPECT_GT(stats.branched, 0);
}

TEST(Campaign, SolveMatchesReferenceOnRandomModels)
{
    auto suite = litmus::standardSuite();
    SweepStats stats;
    for (unsigned seed = 1; seed <= 8; seed++) {
        uspec::Model model = randomModel(seed);
        for (size_t i = 0; i < suite.size(); i += 4)
            expectMatchesReference(model, suite[i], stats);
    }
    // The sweep reaches both verdicts, real branching and the skip
    // path of an EitherOrdering instance whose EdgeExists fails.
    EXPECT_GT(stats.observable, 0);
    EXPECT_LT(stats.observable, stats.candidates);
    EXPECT_GT(stats.branched, 0);
    EXPECT_GT(stats.skips, 0);
}

TEST(Campaign, SolveMatchesReferenceOnSevenThreadRing)
{
    // 14 microops x 5 stages = 70 nodes: two words per bit row.
    LTest ring = sbRing(7);
    for (const uspec::Model *model : {&scModel(), &serialModel()}) {
        SweepStats stats;
        expectMatchesReference(*model, ring, stats);
        EXPECT_EQ(stats.candidates, 128);
    }
    auto res = check::checkTest(serialModel(), ring);
    EXPECT_TRUE(res.ok()) << res.summary();
    EXPECT_FALSE(res.interestingObservable);
}

// Regression (ExecutionSpace): the candidate count was an unchecked
// uint64_t product. 34 writes to each of two locations give 34!^2,
// which is 0 mod 2^64, and the test "passed" with nothing checked.
TEST(Campaign, CandidateSpacePast64BitsIsAnError)
{
    LTest t;
    t.name = "wide";
    for (const char *loc : {"x", "y"}) {
        litmus::Thread th;
        for (int v = 1; v <= 34; v++)
            th.ops.push_back({true, loc, v, 0});
        t.threads.push_back(th);
    }
    t.interesting.mem = {{"x", 1}};
    try {
        check::ExecutionSpace space(t);
        FAIL() << "constructed a space of " << space.size();
    } catch (const r2u::FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("'wide'"), std::string::npos) << msg;
        EXPECT_NE(msg.find("location 'x'"), std::string::npos) << msg;
    }
    for (unsigned jobs : {1u, 2u}) {
        check::CampaignOptions opts;
        opts.jobs = jobs;
        EXPECT_THROW(check::runCampaign(scModel(), {t}, opts),
                     r2u::FatalError)
            << "jobs " << jobs;
    }

    // 20! still fits: the same shape at 20 writes per location is a
    // 20!-candidate space for x alone.
    LTest fits;
    fits.name = "fits";
    litmus::Thread th;
    for (int v = 1; v <= 20; v++)
        th.ops.push_back({true, "x", v, 0});
    fits.threads.push_back(th);
    EXPECT_EQ(check::ExecutionSpace(fits).size(), 2432902008176640000u);
}

TEST(Campaign, ExecutionSpaceMatchesEnumerationCount)
{
    // One read, two same-address writes: rf in {init, w1, w2} x
    // 2 coherence permutations = 6 candidates, every one distinct.
    LTest t = LTest::parse(R"(name x
thread 0
w x 1
thread 1
w x 2
thread 2
r x 2
interesting 2:x2=0)");
    check::ExecutionSpace space(t);
    EXPECT_EQ(space.size(), 6u);
    std::set<std::string> seen;
    uhb::Execution exec = space.makeScratch();
    for (uint64_t k = 0; k < space.size(); k++) {
        space.materialize(k, exec);
        std::string key;
        for (int s : exec.rf)
            key += std::to_string(s) + ",";
        for (const auto &[addr, ws] : exec.ws) {
            key += "|";
            for (int w : ws)
                key += std::to_string(w) + ",";
        }
        seen.insert(key);
    }
    EXPECT_EQ(seen.size(), 6u) << "decoded candidates must be distinct";
}
