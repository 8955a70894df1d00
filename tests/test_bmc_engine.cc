/**
 * @file
 * Tests for the parallel + incremental BMC query engine: on random
 * netlists, the incremental-under-assumptions path (shared per-worker
 * solver contexts, at jobs = 1 and jobs > 1) must agree query-for-query
 * with a fresh checkProperty() solve per query; on the multi-V-scale,
 * a jobs-1 synthesis under full validation must reproduce the parallel
 * run's SVA records and µspec model exactly and repeat its solver
 * counts run to run; a throwing property callback must surface from
 * drain() without taking the engine down; and a retired query must
 * leave nothing in its context.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <random>
#include <thread>

#include "bmc/engine.hh"
#include "random_netlist.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "sat_test_peer.hh"
#include "sim/simulator.hh"
#include "verilog/elaborate.hh"
#include "verilog/parser.hh"
#include "vscale/vscale.hh"

using namespace r2u;
using r2u::test::RandomDesign;
using r2u::test::makeRandom;

TEST(BmcEngine, ResolveJobs)
{
    EXPECT_GE(bmc::resolveJobs(0), 1u);
    EXPECT_EQ(bmc::resolveJobs(1), 1u);
    EXPECT_EQ(bmc::resolveJobs(7), 7u);
}

namespace
{

/**
 * Build a batch of properties for a simulated random design: one
 * "probes cannot deviate from the interpreter" query per frame prefix
 * (all Proven) and one corrupted-expectation query per probe (all
 * Refuted). Returns the queries with their expected verdicts.
 */
std::vector<std::pair<bmc::Query, bmc::Verdict>>
makeQueries(const RandomDesign &d, const std::vector<std::vector<Bits>> &stim,
            const std::vector<std::vector<Bits>> &expect, unsigned frames)
{
    std::vector<std::pair<bmc::Query, bmc::Verdict>> out;
    auto pin_inputs = [&d, &stim](bmc::PropCtx &ctx, unsigned upto) {
        auto &cnf = ctx.cnf();
        for (unsigned f = 0; f < upto; f++)
            for (size_t i = 0; i < d.inputs.size(); i++)
                ctx.assume(cnf.mkEqW(
                    ctx.unroller().wire(f, d.inputs[i]),
                    cnf.constWord(stim[f][i])));
    };

    for (unsigned upto = 1; upto <= frames; upto++) {
        bmc::Query q;
        q.name = "agree_upto_" + std::to_string(upto);
        q.prop = [&d, &expect, pin_inputs, upto](bmc::PropCtx &ctx) {
            auto &cnf = ctx.cnf();
            pin_inputs(ctx, upto);
            sat::Lit bad = cnf.falseLit();
            for (unsigned f = 0; f < upto; f++)
                for (size_t i = 0; i < d.probes.size(); i++)
                    bad = cnf.mkOr(
                        bad, ~cnf.mkEqW(
                                 ctx.unroller().wire(f, d.probes[i]),
                                 cnf.constWord(expect[f][i])));
            return bad;
        };
        out.emplace_back(std::move(q), bmc::Verdict::Proven);
    }

    for (size_t p = 0; p < d.probes.size(); p++) {
        bmc::Query q;
        q.name = "corrupt_probe_" + std::to_string(p);
        q.prop = [&d, &expect, pin_inputs, frames, p](bmc::PropCtx &ctx) {
            auto &cnf = ctx.cnf();
            pin_inputs(ctx, frames);
            Bits wrong = ~expect[frames - 1][p];
            return ~cnf.mkEqW(
                ctx.unroller().wire(frames - 1, d.probes[p]),
                cnf.constWord(wrong));
        };
        out.emplace_back(std::move(q), bmc::Verdict::Refuted);
    }
    return out;
}

} // namespace

class EngineRandomTest : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineRandomTest, IncrementalMatchesFresh)
{
    std::mt19937 rng(4242 + GetParam());
    RandomDesign d = makeRandom(rng);
    const unsigned kFrames = 6;

    sim::Simulator sim(d.netlist);
    std::vector<std::vector<Bits>> stim(kFrames), expect(kFrames);
    for (unsigned f = 0; f < kFrames; f++) {
        for (nl::CellId in : d.inputs) {
            Bits v(d.netlist.cell(in).width,
                       static_cast<uint64_t>(rng()));
            sim.setInput(in, v);
            stim[f].push_back(v);
        }
        for (nl::CellId p : d.probes)
            expect[f].push_back(sim.value(p));
        sim.step();
    }

    std::unordered_map<std::string, nl::CellId> empty_map;
    auto queries = makeQueries(d, stim, expect, kFrames);

    // The independent reference: one fresh solver per query.
    for (size_t i = 0; i < queries.size(); i++) {
        bmc::CheckResult ref =
            bmc::checkProperty(d.netlist, empty_map, {}, kFrames,
                               queries[i].first.prop);
        ASSERT_EQ(ref.verdict, queries[i].second) << "query " << i;
    }

    for (unsigned jobs : {1u, 3u}) {
        bmc::EngineOptions opts;
        opts.jobs = jobs;
        bmc::Engine engine(d.netlist, empty_map, {}, kFrames, opts);
        EXPECT_EQ(engine.jobs(), jobs);
        // Two batches: the second runs on contexts warm-started from
        // the seed the first one published.
        for (int batch = 0; batch < 2; batch++) {
            for (const auto &entry : queries)
                engine.enqueue(entry.first);
            auto results = engine.drain();
            ASSERT_EQ(results.size(), queries.size());
            for (size_t i = 0; i < queries.size(); i++) {
                EXPECT_EQ(results[i].verdict, queries[i].second)
                    << "jobs " << jobs << " batch " << batch
                    << " query " << i;
                if (queries[i].second == bmc::Verdict::Refuted) {
                    EXPECT_FALSE(results[i].trace.toString().empty());
                }
            }
        }
        EXPECT_EQ(engine.stats().queries, 2 * queries.size());
        // Contexts are shared across a batch's queries and live for
        // one batch: at most one per worker per batch here (single
        // bound), never one per query — exactly one per batch at
        // jobs 1, where no seed is published.
        EXPECT_GE(engine.stats().unrollContexts, 2u);
        EXPECT_LE(engine.stats().unrollContexts, 2u * jobs);
        if (jobs == 1) {
            EXPECT_EQ(engine.stats().unrollContexts, 2u);
            EXPECT_EQ(engine.stats().contextsSeeded, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomTest,
                         ::testing::Range(0, 6));

namespace
{

vscale::Config
formalConfig()
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16; // keeps per-SVA CNFs small
    return cfg;
}

rtl2uspec::SynthesisResult
synthesizeAt(unsigned jobs, bool full_unroll = false)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());
    rtl2uspec::SynthesisOptions opts;
    opts.jobs = jobs;
    opts.fullUnroll = full_unroll;
    return rtl2uspec::synthesize(design, md, opts);
}

void
expectSameSynthesis(const rtl2uspec::SynthesisResult &a,
                    const rtl2uspec::SynthesisResult &b)
{
    // Same SVA records: names, categories, verdicts, hypothesis
    // counts, and locality — in the same order.
    ASSERT_EQ(a.svas.size(), b.svas.size());
    for (size_t i = 0; i < a.svas.size(); i++) {
        EXPECT_EQ(a.svas[i].name, b.svas[i].name) << "SVA " << i;
        EXPECT_EQ(a.svas[i].category, b.svas[i].category)
            << a.svas[i].name;
        EXPECT_EQ(a.svas[i].verdict, b.svas[i].verdict)
            << a.svas[i].name;
        EXPECT_EQ(a.svas[i].hypotheses, b.svas[i].hypotheses)
            << a.svas[i].name;
        EXPECT_EQ(a.svas[i].global, b.svas[i].global) << a.svas[i].name;
        EXPECT_EQ(a.svas[i].text, b.svas[i].text) << a.svas[i].name;
    }

    // Same hypothesis/HBI tallies per category.
    ASSERT_EQ(a.stats.size(), b.stats.size());
    for (const auto &[cat, sa] : a.stats) {
        ASSERT_TRUE(b.stats.count(cat)) << cat;
        const auto &sb = b.stats.at(cat);
        EXPECT_EQ(sa.svas, sb.svas) << cat;
        EXPECT_EQ(sa.hypLocal, sb.hypLocal) << cat;
        EXPECT_EQ(sa.hypGlobal, sb.hypGlobal) << cat;
        EXPECT_EQ(sa.hbiLocal, sb.hbiLocal) << cat;
        EXPECT_EQ(sa.hbiGlobal, sb.hbiGlobal) << cat;
    }

    // Same per-instruction membership and identical emitted model.
    EXPECT_EQ(a.instrNodes, b.instrNodes);
    EXPECT_EQ(a.model.print(), b.model.print());
    EXPECT_EQ(a.bugs.size(), b.bugs.size());
}

} // namespace

/** Synthesis drains its SVAs in five batches: membership, progress,
 *  attribution, and two inter-instruction rounds. */
constexpr uint64_t kSynthesisBatches = 5;

TEST(BmcEngine, VscaleParallelSynthesisMatchesSequential)
{
    // jobs 1 no longer solves each query in a fresh context, so it is
    // not an independent reference by itself: full validation re-solves
    // every Proven verdict in a fresh context and replays every
    // counterexample through the simulator, and none may disagree.
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());
    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 1;
    opts.validate = bmc::ValidateMode::Full;
    rtl2uspec::SynthesisResult seq = rtl2uspec::synthesize(design, md, opts);
    rtl2uspec::SynthesisResult par = synthesizeAt(4);

    EXPECT_EQ(seq.jobs, 1u);
    EXPECT_EQ(par.jobs, 4u);
    EXPECT_EQ(seq.unknownSvas, 0u);
    EXPECT_EQ(seq.validationMismatches, 0u);
    EXPECT_EQ(seq.validationFailures, 0u);
    EXPECT_GT(seq.proofRechecks, 0u);
    for (const auto &sva : seq.svas) {
        if (sva.verdict == bmc::Verdict::Refuted) {
            EXPECT_TRUE(sva.validated) << sva.name;
        }
    }

    // One context per bound per batch, shared by the batch's queries:
    // at jobs 1 (one bound) at most one per batch, each encoded from
    // the netlist; at jobs 4 at most one per worker per batch.
    EXPECT_GE(seq.unrollContexts, 1u);
    EXPECT_LE(seq.unrollContexts, kSynthesisBatches);
    EXPECT_EQ(seq.contextsSeeded, 0u);
    EXPECT_GE(par.unrollContexts, 1u);
    EXPECT_LE(par.unrollContexts, 4 * kSynthesisBatches);

    expectSameSynthesis(seq, par);
}

/**
 * jobs 1 runs its queries in enqueue order on the calling thread, one
 * context per batch: the per-SVA solver work must repeat exactly.
 */
TEST(BmcEngine, VscaleJobs1SolverCountsRepeat)
{
    rtl2uspec::SynthesisResult a = synthesizeAt(1);
    rtl2uspec::SynthesisResult b = synthesizeAt(1);
    ASSERT_EQ(a.svas.size(), b.svas.size());
    uint64_t conflicts = 0;
    for (size_t i = 0; i < a.svas.size(); i++) {
        EXPECT_EQ(a.svas[i].conflicts, b.svas[i].conflicts)
            << a.svas[i].name;
        EXPECT_EQ(a.svas[i].propagations, b.svas[i].propagations)
            << a.svas[i].name;
        conflicts += a.svas[i].conflicts;
    }
    EXPECT_GT(conflicts, 0u);
    EXPECT_EQ(a.unrollContexts, b.unrollContexts);
    EXPECT_EQ(a.model.print(), b.model.print());
}

namespace
{

/**
 * A query whose CNF is a pigeonhole instance over rigid bits —
 * independent of the design, UNSAT (Proven), and deterministically
 * hard, so budgets/deadlines/interrupts fire without timing luck.
 */
bmc::Query
pigeonholeQuery(const std::string &name, int pigeons, int holes)
{
    bmc::Query q;
    q.name = name;
    q.prop = [pigeons, holes](bmc::PropCtx &ctx) {
        auto &cnf = ctx.cnf();
        std::vector<std::vector<sat::Lit>> p(pigeons);
        for (int i = 0; i < pigeons; i++)
            for (int j = 0; j < holes; j++)
                p[i].push_back(ctx.rigid("p_" + std::to_string(i) +
                                             "_" + std::to_string(j),
                                         1)[0]);
        for (int i = 0; i < pigeons; i++) {
            sat::Lit any = cnf.falseLit();
            for (int j = 0; j < holes; j++)
                any = cnf.mkOr(any, p[i][j]);
            ctx.assume(any);
        }
        for (int j = 0; j < holes; j++)
            for (int i1 = 0; i1 < pigeons; i1++)
                for (int i2 = i1 + 1; i2 < pigeons; i2++)
                    ctx.assume(cnf.mkOr(~p[i1][j], ~p[i2][j]));
        return cnf.trueLit();
    };
    return q;
}

} // namespace

namespace
{

const char *kCounter = R"(
    module top (input clk, input en, output wire [3:0] out);
        reg [3:0] q;
        always @(posedge clk) begin
            if (en)
                q <= q + 4'd1;
        end
        assign out = q;
    endmodule
)";

/** bad: the counter holds @p value at some frame of the bound. It gets
 *  there at frame @p value at the earliest (en free). */
bmc::Query
counterReaches(uint64_t value)
{
    bmc::Query q;
    q.name = "reach_" + std::to_string(value);
    q.prop = [value](bmc::PropCtx &ctx) {
        sat::Lit bad = ctx.cnf().falseLit();
        for (unsigned f = 0; f < ctx.bound(); f++)
            bad = ctx.cnf().mkOr(bad, ctx.eqConst(f, "q", value));
        return bad;
    };
    return q;
}

} // namespace

/**
 * A property callback that throws (here PropCtx::cellOf's fatal() on a
 * signal the design lacks) leaves its worker's context mid-query. The
 * engine must drop that context, finish the rest of the batch, rethrow
 * from drain() — and stay usable: the next drain() on the same engine
 * answers every query right.
 */
TEST(BmcEngine, ThrowingPropertySurfacesFromDrain)
{
    vlog::Design src = vlog::parseString(kCounter, "counter.v");
    vlog::ElabOptions eo;
    eo.top = "top";
    vlog::ElabResult r = vlog::elaborate(src, eo);
    const unsigned kBound = 6; // values 0..5 reachable, 6 not yet

    for (unsigned jobs : {1u, 2u}) {
        bmc::EngineOptions opts;
        opts.jobs = jobs;
        bmc::Engine engine(*r.netlist, r.signalMap, {}, kBound, opts);
        for (uint64_t v = 0; v <= 6; v++) {
            engine.enqueue(counterReaches(v));
            if (v == 0) {
                bmc::Query bad;
                bad.name = "unknown_signal";
                bad.prop = [](bmc::PropCtx &ctx) {
                    return ctx.eqConst(0, "no_such_signal", 1);
                };
                engine.enqueue(std::move(bad));
            }
        }
        EXPECT_THROW(engine.drain(), FatalError) << "jobs " << jobs;

        for (uint64_t v = 0; v <= 6; v++)
            engine.enqueue(counterReaches(v));
        auto results = engine.drain();
        ASSERT_EQ(results.size(), 7u);
        for (uint64_t v = 0; v <= 6; v++)
            EXPECT_EQ(results[v].verdict, v < kBound
                                              ? bmc::Verdict::Refuted
                                              : bmc::Verdict::Proven)
                << "jobs " << jobs << " value " << v;
    }
}

namespace
{

/** bad: the counter equals, at some frame, a rigid word pinned to
 *  @p value. Every run builds its monitor over fresh rigid bits. */
bmc::PropertyFn
counterMeetsRigid(uint64_t value)
{
    return [value](bmc::PropCtx &ctx) {
        auto &cnf = ctx.cnf();
        const sat::Word &v = ctx.rigid("v", 4);
        ctx.assume(cnf.mkEqW(v, cnf.constWord(4, value)));
        sat::Lit bad = cnf.falseLit();
        for (unsigned f = 0; f < ctx.bound(); f++)
            bad = cnf.mkOr(bad, ctx.eqRigid(f, "q", v));
        return bad;
    };
}

} // namespace

/**
 * Query retirement: the same query five times on one context returns
 * the same verdict each time, and every endQuery() leaves the context
 * as the first one left it — none of a retired query's clauses, learnt
 * or problem, and none of its variables stay in the search. Without
 * retirement both counts grow, since each run's monitor is built over
 * new rigid variables. A context seeded from a donor in mid-query
 * holds none of that query either.
 */
TEST(BmcEngine, RetiredQueriesLeaveNothingBehind)
{
    using sat::SolverTestPeer;
    vlog::Design src = vlog::parseString(kCounter, "counter.v");
    vlog::ElabOptions eo;
    eo.top = "top";
    vlog::ElabResult r = vlog::elaborate(src, eo);
    const unsigned kBound = 6; // values 0..5 reachable

    for (uint64_t value : {3u, 9u}) {
        sat::Result expect =
            value < kBound ? sat::Result::Sat : sat::Result::Unsat;
        bmc::PropCtx ctx(*r.netlist, r.signalMap, {}, kBound);
        size_t clauses = 0, vars = 0;
        for (int run = 0; run < 5; run++) {
            ctx.beginQuery();
            ctx.assume(counterMeetsRigid(value)(ctx));
            EXPECT_EQ(ctx.solver().solve({ctx.activation()}), expect)
                << "value " << value << " run " << run;
            ctx.endQuery();
            EXPECT_EQ(SolverTestPeer::liveClausesOnRetired(ctx.solver()),
                      0u)
                << "value " << value << " run " << run;
            size_t c = SolverTestPeer::liveClauses(ctx.solver());
            size_t v = SolverTestPeer::decisionVars(ctx.solver());
            if (run == 0) {
                clauses = c;
                vars = v;
            }
            EXPECT_EQ(c, clauses) << "value " << value << " run " << run;
            EXPECT_EQ(v, vars) << "value " << value << " run " << run;
        }
    }

    bmc::PropCtx donor(*r.netlist, r.signalMap, {}, kBound);
    donor.beginQuery();
    sat::Var act = sat::var(donor.activation());
    donor.assume(counterMeetsRigid(3)(donor));
    ASSERT_GT(SolverTestPeer::liveClausesOn(donor.solver(), act), 0u);
    bmc::PropCtx copy(*r.netlist, r.signalMap, {}, kBound);
    copy.seedFrom(donor);
    EXPECT_EQ(SolverTestPeer::liveClausesOn(copy.solver(), act), 0u);
    EXPECT_EQ(SolverTestPeer::liveClausesOnRetired(copy.solver()), 0u);
    donor.endQuery();
    EXPECT_EQ(SolverTestPeer::liveClauses(copy.solver()),
              SolverTestPeer::liveClauses(donor.solver()));
    EXPECT_EQ(SolverTestPeer::decisionVars(copy.solver()),
              SolverTestPeer::decisionVars(donor.solver()));
    copy.beginQuery();
    copy.assume(counterMeetsRigid(3)(copy));
    EXPECT_EQ(copy.solver().solve({copy.activation()}), sat::Result::Sat);
    copy.endQuery();
}

TEST(BmcEngine, TightBudgetYieldsUnknownNotWrongVerdict)
{
    std::mt19937 rng(91);
    RandomDesign d = makeRandom(rng);
    std::unordered_map<std::string, nl::CellId> empty_map;

    bmc::EngineOptions tight;
    tight.jobs = 1;
    tight.conflictBudget = 5;
    bmc::Engine engine(d.netlist, empty_map, {}, 2, tight);
    engine.enqueue(pigeonholeQuery("php", 7, 6));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].verdict, bmc::Verdict::Unknown);
    EXPECT_EQ(res[0].source, bmc::VerdictSource::ConflictBudget);
    EXPECT_EQ(engine.stats().unknowns, 1u);
}

TEST(BmcEngine, InterruptMidFlightYieldsUnknown)
{
    std::mt19937 rng(93);
    RandomDesign d = makeRandom(rng);
    std::unordered_map<std::string, nl::CellId> empty_map;

    std::atomic<bool> stop{false};
    bmc::EngineOptions opts;
    opts.jobs = 2;
    // Backstop so a broken stop flag cannot hang CI; the flag is set
    // orders of magnitude earlier.
    opts.querySeconds = 20.0;
    opts.stop = &stop;
    bmc::Engine engine(d.netlist, empty_map, {}, 2, opts);
    for (int i = 0; i < 4; i++)
        engine.enqueue(
            pigeonholeQuery("php_" + std::to_string(i), 11, 10));

    std::thread stopper([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(60));
        stop.store(true);
    });
    auto results = engine.drain();
    stopper.join();
    ASSERT_EQ(results.size(), 4u);
    for (const auto &r : results) {
        // Never a wrong definite verdict: an interrupted solve must
        // come back Unknown, tagged with why.
        EXPECT_EQ(r.verdict, bmc::Verdict::Unknown);
        EXPECT_TRUE(r.source == bmc::VerdictSource::Interrupted ||
                    r.source == bmc::VerdictSource::Cancelled)
            << bmc::verdictSourceName(r.source);
    }
    EXPECT_EQ(engine.stats().unknowns, 4u);

    // The engine survives the stop: the caller clears its flag and
    // runs more work.
    stop.store(false);
    bmc::Query easy;
    easy.name = "easy";
    easy.prop = [](bmc::PropCtx &ctx) { return ctx.cnf().falseLit(); };
    engine.enqueue(std::move(easy));
    auto after = engine.drain();
    ASSERT_EQ(after.size(), 1u);
    EXPECT_EQ(after[0].verdict, bmc::Verdict::Proven);
    EXPECT_EQ(after[0].source, bmc::VerdictSource::Solve);
}

// A stop flag that is already set when synthesis starts (the CLI's
// SIGINT during elaboration or the cache load) must stop every query:
// each SVA comes back Cancelled, the model is the conservatively
// degraded one, and nothing reaches the cache.
TEST(BmcEngine, StopFlagSetBeforeSynthesisCancelsEverySva)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::path(::testing::TempDir()) / "vscale_cache_stopped").string();
    fs::remove_all(dir);

    auto design = vscale::elaborateVscale(formalConfig());
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());
    std::atomic<bool> stop{true};
    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir;
    opts.stop = &stop;
    auto res = rtl2uspec::synthesize(design, md, opts);

    ASSERT_FALSE(res.svas.empty());
    for (const auto &sva : res.svas) {
        EXPECT_EQ(sva.verdict, bmc::Verdict::Unknown) << sva.name;
        EXPECT_EQ(sva.source, bmc::VerdictSource::Cancelled) << sva.name;
    }
    EXPECT_EQ(res.unknownSvas, res.svas.size());
    EXPECT_NE(res.model.print().find("% degraded"), std::string::npos);
    EXPECT_EQ(res.cacheAppends, 0u);
}

TEST(BmcEngine, TotalTimeoutCancelsQueuedQueries)
{
    std::mt19937 rng(94);
    RandomDesign d = makeRandom(rng);
    std::unordered_map<std::string, nl::CellId> empty_map;

    bmc::EngineOptions opts;
    opts.jobs = 1;
    opts.totalSeconds = 0.1;
    bmc::Engine engine(d.netlist, empty_map, {}, 2, opts);
    for (int i = 0; i < 3; i++)
        engine.enqueue(
            pigeonholeQuery("php_" + std::to_string(i), 11, 10));
    auto results = engine.drain();
    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results) {
        EXPECT_EQ(r.verdict, bmc::Verdict::Unknown);
        EXPECT_TRUE(r.source == bmc::VerdictSource::TotalDeadline ||
                    r.source == bmc::VerdictSource::Cancelled)
            << bmc::verdictSourceName(r.source);
    }
    // Once the total deadline has passed mid-batch, the tail of the
    // queue is never solved at all.
    EXPECT_EQ(results.back().source, bmc::VerdictSource::Cancelled);
    EXPECT_EQ(engine.stats().unknowns, 3u);
}

TEST(BmcEngine, VscaleSlicedMatchesFullUnroll)
{
    rtl2uspec::SynthesisResult sliced = synthesizeAt(4, false);
    rtl2uspec::SynthesisResult eager = synthesizeAt(4, true);

    EXPECT_FALSE(sliced.fullUnroll);
    EXPECT_TRUE(eager.fullUnroll);
    expectSameSynthesis(sliced, eager);

    // On the multi-V-scale every Fig. 4 template reads the PCRs, whose
    // cone reaches most of the design through branch resolution and
    // the shared-bus arbiter — so slicing trims but cannot collapse
    // these queries. It must never lose: sliced CNFs stay no larger
    // than the eager ones, and every query carries COI stats.
    EXPECT_GT(sliced.meanCnfVars, 0.0);
    EXPECT_LE(sliced.meanCnfVars, eager.meanCnfVars);
    for (const auto &rec : sliced.svas)
        EXPECT_GT(rec.coiCells, 0u) << rec.name;
}

TEST(BmcEngine, VscaleJournalResumeIdentity)
{
    namespace fs = std::filesystem;
    std::string journal =
        (fs::path(::testing::TempDir()) / "vscale_journal.bin")
            .string();
    fs::remove(journal);

    auto design = vscale::elaborateVscale(formalConfig());
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());

    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.validate = bmc::ValidateMode::Replay;
    opts.journalPath = journal;
    auto first = rtl2uspec::synthesize(design, md, opts);
    ASSERT_EQ(first.unknownSvas, 0u);
    EXPECT_GT(first.journalAppends, 0u);
    EXPECT_EQ(first.journalHits, 0u);
    EXPECT_EQ(first.validationMismatches, 0u);
    EXPECT_EQ(first.validationFailures, 0u);

    // Acceptance: every Refuted verdict in the run replay-validated,
    // with zero mismatches.
    size_t refuted = 0;
    for (const auto &sva : first.svas) {
        if (sva.verdict != bmc::Verdict::Refuted)
            continue;
        refuted++;
        EXPECT_TRUE(sva.validated) << sva.name;
    }
    EXPECT_GT(refuted, 0u);
    EXPECT_GE(first.replays, refuted);

    // Resume at a different --jobs: every definite verdict is answered
    // from the journal (no solving, no replaying) and the synthesized
    // model is bit-identical.
    opts.jobs = 3;
    opts.resumeJournal = true;
    auto resumed = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(resumed.journalHits, first.journalAppends);
    EXPECT_EQ(resumed.replays, 0u);
    for (const auto &sva : resumed.svas)
        EXPECT_TRUE(sva.fromJournal) << sva.name;
    expectSameSynthesis(first, resumed);

    // Simulated kill mid-append: chop a few bytes off the journal's
    // tail. The torn record is dropped, its query re-solved (and
    // re-journaled), and the model still comes out bit-for-bit the
    // same.
    fs::resize_file(journal, fs::file_size(journal) - 3);
    opts.jobs = 1;
    auto repaired = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(repaired.journalHits, first.journalAppends - 1);
    EXPECT_EQ(repaired.journalAppends, 1u);
    expectSameSynthesis(first, repaired);
}

TEST(BmcEngine, VscaleCacheWarmRunIdentity)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::path(::testing::TempDir()) / "vscale_cache").string();
    fs::remove_all(dir);

    auto design = vscale::elaborateVscale(formalConfig());
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());

    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.validate = bmc::ValidateMode::Replay;
    opts.cacheDir = dir;
    auto cold = rtl2uspec::synthesize(design, md, opts);
    ASSERT_TRUE(cold.cacheEnabled);
    ASSERT_EQ(cold.unknownSvas, 0u);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_GT(cold.cacheAppends, 0u);
    // Every query is hashed, every verdict definite: misses == appends.
    EXPECT_EQ(cold.cacheMisses, cold.cacheAppends);
    EXPECT_EQ(cold.cacheInvalidations, 0u);

    // Warm run at a different --jobs: every query replays from the
    // cache (no solving, no appends, no counterexample replays) and
    // the synthesized model is bit-identical.
    opts.jobs = 3;
    auto warm = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(warm.cacheHits, cold.cacheAppends);
    EXPECT_EQ(warm.cacheMisses, 0u);
    EXPECT_EQ(warm.cacheAppends, 0u);
    EXPECT_EQ(warm.replays, 0u);
    for (const auto &sva : warm.svas)
        EXPECT_TRUE(sva.fromCache) << sva.name;
    expectSameSynthesis(cold, warm);

    // --validate replay still works end-to-end on a warm run: the
    // cached verdicts carry their validated stamp from the cold run.
    for (const auto &sva : warm.svas) {
        if (sva.verdict == bmc::Verdict::Refuted) {
            EXPECT_TRUE(sva.validated) << sva.name;
        }
    }

    // The cache composes with the journal: a journaled warm run
    // prefers this-run restart state but still lands on the same
    // model.
    std::string journal =
        (fs::path(::testing::TempDir()) / "vscale_cache_journal.bin")
            .string();
    fs::remove(journal);
    opts.journalPath = journal;
    opts.jobs = 1;
    auto warm2 = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(warm2.cacheHits, cold.cacheAppends);
    expectSameSynthesis(cold, warm2);
}

// The satellite regression at system level: an edited property
// environment (metadata that feeds the SVA templates' assumptions)
// keeps every query's name and bound but changes its content hash —
// the whole cache must read as invalidated, not silently replayed.
TEST(BmcEngine, VscaleCacheMetadataEditInvalidates)
{
    namespace fs = std::filesystem;
    std::string dir =
        (fs::path(::testing::TempDir()) / "vscale_cache_md").string();
    fs::remove_all(dir);

    auto design = vscale::elaborateVscale(formalConfig());
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());

    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir;
    auto first = rtl2uspec::synthesize(design, md, opts);
    EXPECT_GT(first.cacheAppends, 0u);

    // issueByFrame is read by the property closures (issue-window
    // assumptions), not rendered into the SVA text — exactly the kind
    // of edit name+bound keying used to miss.
    auto md2 = md;
    md2.issueByFrame += 1;
    auto second = rtl2uspec::synthesize(design, md2, opts);
    EXPECT_EQ(second.cacheHits, 0u);
    EXPECT_GT(second.cacheMisses, 0u);
    // Every miss is an invalidation: same query names at the same
    // bound sit in the cache under the old content hashes.
    EXPECT_EQ(second.cacheInvalidations, second.cacheMisses);
}

TEST(BmcEngine, ValidationModesDoNotChangeTheModel)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());

    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.validate = bmc::ValidateMode::Off;
    auto off = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(off.validateMode, "off");
    EXPECT_EQ(off.replays, 0u);
    EXPECT_EQ(off.proofRechecks, 0u);

    // Full validation replays every counterexample and re-solves every
    // proof fresh: everything must agree (no mismatches, no failures)
    // and the emitted model must be exactly the unvalidated one.
    opts.validate = bmc::ValidateMode::Full;
    auto full = rtl2uspec::synthesize(design, md, opts);
    EXPECT_EQ(full.validateMode, "full");
    EXPECT_GT(full.replays, 0u);
    EXPECT_GT(full.proofRechecks, 0u);
    EXPECT_EQ(full.validationMismatches, 0u);
    EXPECT_EQ(full.validationFailures, 0u);
    // Every counterexample must have replayed; a proof re-check may in
    // principle come back inconclusive (budget), which keeps the
    // primary verdict without the validated stamp.
    for (const auto &sva : full.svas) {
        if (sva.verdict == bmc::Verdict::Refuted) {
            EXPECT_TRUE(sva.validated) << sva.name;
        }
    }

    expectSameSynthesis(off, full);
}

TEST(BmcEngine, TightBudgetSynthesisDegradesConservatively)
{
    // With a conflict budget of 0 every SVA gives up immediately: the
    // run must still complete, count its Unknowns, tag the degraded
    // axioms, and never let an Unknown masquerade as Proven/Refuted.
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());
    rtl2uspec::SynthesisOptions opts;
    opts.jobs = 2;
    opts.conflictBudget = 0;
    auto res = rtl2uspec::synthesize(design, md, opts);

    EXPECT_GT(res.unknownSvas, 0u);
    EXPECT_FALSE(res.degraded.empty());
    for (const auto &sva : res.svas) {
        if (sva.verdict == bmc::Verdict::Unknown) {
            // An Unknown always records which limit produced it.
            EXPECT_NE(sva.source, bmc::VerdictSource::Solve)
                << sva.name;
        }
    }

    // Conservative direction: undetermined attribution checks must
    // not be reported as design bugs.
    EXPECT_TRUE(res.bugs.empty());

    // The emitted model carries the degradation tags as `%` notes and
    // still round-trips through the parser (notes are comments).
    std::string printed = res.model.print();
    EXPECT_NE(printed.find("% degraded"), std::string::npos);
    EXPECT_NO_THROW({
        uspec::Model reparsed = uspec::Model::parse(printed);
        (void)reparsed;
    });

    // The structured run report accounts for the degradation.
    std::string json = res.jsonReport();
    EXPECT_NE(json.find("\"unknown_svas\""), std::string::npos);
    EXPECT_NE(json.find("\"degraded\""), std::string::npos);
    EXPECT_NE(json.find("\"degrade_note\""), std::string::npos);
    EXPECT_NE(json.find("\"conflict-budget\""), std::string::npos);
}
