/**
 * @file
 * Verdict-identity tests for the solver's clause-database maintenance:
 *
 *  - inprocessing (periodic simplifyDB + arena garbage collection)
 *    must not change verdicts, incrementally or not, on random CNFs
 *    and on a sliced multi-V-scale query corpus, nor under the BMC
 *    engine with full verdict validation;
 *  - a reduceDB() regression: a crafted conflict schedule (learnt cap
 *    pinned to almost nothing, so reduction fires while learnt
 *    clauses are reasons on the trail) must never evict locked
 *    clauses — evicting a reason corrupts conflict analysis, which
 *    shows up as a wrong verdict, a bogus model, or a crash.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "bmc/checker.hh"
#include "bmc/engine.hh"
#include "sat/solver.hh"
#include "vscale/metadata.hh"
#include "vscale/vscale.hh"

using namespace r2u::sat;

namespace
{

using Cnf = std::vector<std::vector<Lit>>;

/** Random k-CNF near the 3-SAT phase transition so that fixed seeds
 *  yield a mix of SAT and UNSAT instances. */
Cnf
randomCnf(std::mt19937 &rng, int num_vars, int num_clauses)
{
    Cnf cnf;
    std::uniform_int_distribution<int> pick_var(0, num_vars - 1);
    std::uniform_int_distribution<int> coin(0, 1);
    std::uniform_int_distribution<int> width_die(0, 9);
    for (int i = 0; i < num_clauses; i++) {
        int width = width_die(rng) == 0 ? 2 : 3;
        std::vector<Lit> clause;
        while (static_cast<int>(clause.size()) < width) {
            Lit l = mkLit(pick_var(rng), coin(rng) != 0);
            bool dup = false;
            for (Lit o : clause)
                dup = dup || var(o) == var(l);
            if (!dup)
                clause.push_back(l);
        }
        cnf.push_back(std::move(clause));
    }
    return cnf;
}

/** Pigeonhole: pigeons > holes is UNSAT with a deterministically
 *  conflict-rich proof (var = p * holes + h). */
Cnf
pigeonhole(int pigeons, int holes)
{
    Cnf cnf;
    for (int p = 0; p < pigeons; p++) {
        std::vector<Lit> some;
        for (int h = 0; h < holes; h++)
            some.push_back(mkLit(p * holes + h));
        cnf.push_back(some);
    }
    for (int h = 0; h < holes; h++)
        for (int p1 = 0; p1 < pigeons; p1++)
            for (int p2 = p1 + 1; p2 < pigeons; p2++)
                cnf.push_back({~mkLit(p1 * holes + h),
                               ~mkLit(p2 * holes + h)});
    return cnf;
}

void
load(Solver &s, const Cnf &cnf, int num_vars)
{
    while (s.numVars() < num_vars)
        s.newVar();
    for (const auto &clause : cnf)
        s.addClause(clause);
}

bool
satisfies(const std::vector<LBool> &model, const Cnf &cnf)
{
    for (const auto &clause : cnf) {
        bool sat = false;
        for (Lit l : clause) {
            if (var(l) >= static_cast<Var>(model.size()))
                return false;
            sat = sat || ((model[var(l)] ^ sign(l)) == LBool::True);
        }
        if (!sat)
            return false;
    }
    return true;
}

Result
solvePlain(const Cnf &cnf, int num_vars)
{
    Solver s;
    load(s, cnf, num_vars);
    return s.solve();
}

} // namespace

// ---------------------------------------------------------------------
// reduceDB regression: locked (reason) clauses must survive reduction
// ---------------------------------------------------------------------

namespace
{

/**
 * Crafted conflict schedule: the learnt cap is pinned so low that
 * reduceDB() fires after virtually every conflict, while learnt
 * clauses are still reasons of trail literals. If reduction evicted a
 * locked clause, conflict analysis would walk a tombstoned reason —
 * wrong verdicts, bogus models, or a crash.
 */
SolverConfig
evictionStormConfig()
{
    SolverConfig cfg;
    cfg.maxLearntsOverride = 2.0;
    return cfg;
}

} // namespace

TEST(ReduceDb, LockedReasonsSurviveActivityRanked)
{
    Cnf cnf = pigeonhole(7, 6);
    Solver s;
    s.setConfig(evictionStormConfig());
    load(s, cnf, 7 * 6);
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().removedClauses, 0u)
        << "reduction never fired; the regression is not exercised";
}

TEST(ReduceDb, SatisfiableUnderEvictionStorm)
{
    for (int seed = 0; seed < 6; seed++) {
        std::mt19937 rng(500 + seed);
        const int kVars = 30;
        Cnf cnf = randomCnf(rng, kVars, 110);
        Result plain = solvePlain(cnf, kVars);
        Solver s;
        s.setConfig(evictionStormConfig());
        load(s, cnf, kVars);
        Result r = s.solve();
        EXPECT_EQ(r, plain) << "seed " << seed;
        if (r == Result::Sat) {
            EXPECT_TRUE(satisfies(s.model(), cnf)) << "seed " << seed;
        }
    }
}

// ---------------------------------------------------------------------
// Inprocessing (simplifyDB + arena compaction) keeps verdicts
// ---------------------------------------------------------------------

TEST(Inprocess, AggressiveSimplifyKeepsVerdicts)
{
    for (int seed = 0; seed < 8; seed++) {
        std::mt19937 rng(9100 + seed);
        const int kVars = 24;
        Cnf cnf = randomCnf(rng, kVars, 100);
        Result plain = solvePlain(cnf, kVars);

        SolverConfig cfg;
        cfg.inprocessPeriod = 1; // simplify at every restart
        cfg.lubyUnit = 1;        // restart almost every conflict
        Solver s;
        s.setConfig(cfg);
        load(s, cnf, kVars);
        Result r = s.solve();
        EXPECT_EQ(r, plain) << "seed " << seed;
        if (r == Result::Sat) {
            EXPECT_TRUE(satisfies(s.model(), cnf)) << "seed " << seed;
        }
    }
}

TEST(Inprocess, RunsAndCompactsOnConflictRichInstance)
{
    SolverConfig cfg;
    cfg.inprocessPeriod = 1;
    cfg.lubyUnit = 1;
    Solver s;
    s.setConfig(cfg);
    Cnf cnf = pigeonhole(7, 6);
    load(s, cnf, 7 * 6);
    EXPECT_EQ(s.solve(), Result::Unsat);
    // The restart storm must actually have driven simplifyDB (which
    // also garbage-collects the clause arena).
    EXPECT_GT(s.stats().simplifyRuns, 0u);
}

TEST(Inprocess, IncrementalSolvesStaySound)
{
    // Root facts learned by solve N must let simplifyDB drop clauses
    // before solve N+1 without changing any later verdict.
    SolverConfig cfg;
    cfg.inprocessPeriod = 1;
    cfg.lubyUnit = 1;
    Solver simp_solver, plain_solver;
    simp_solver.setConfig(cfg);

    std::mt19937 rng(424242);
    const int kVars = 20;
    Cnf batch1 = randomCnf(rng, kVars, 60);
    load(simp_solver, batch1, kVars);
    load(plain_solver, batch1, kVars);
    EXPECT_EQ(simp_solver.solve(), plain_solver.solve());

    Cnf batch2 = randomCnf(rng, kVars, 35);
    for (const auto &clause : batch2) {
        simp_solver.addClause(clause);
        plain_solver.addClause(clause);
    }
    Result r2 = plain_solver.solve();
    EXPECT_EQ(simp_solver.solve(), r2);
    if (r2 == Result::Sat) {
        Cnf all = batch1;
        all.insert(all.end(), batch2.begin(), batch2.end());
        EXPECT_TRUE(satisfies(simp_solver.model(), all));
    }

    // And under assumptions, both polarities.
    for (bool neg : {false, true}) {
        std::vector<Lit> as{mkLit(3, neg), mkLit(11, !neg)};
        EXPECT_EQ(simp_solver.solve(as), plain_solver.solve(as));
    }
}

// ---------------------------------------------------------------------
// Sliced V-scale query corpus: inprocessing on vs. off
// ---------------------------------------------------------------------

namespace
{

namespace bmc = r2u::bmc;
namespace vscale = r2u::vscale;

struct QueryCnf
{
    Cnf clauses;
    Lit act;
    int numVars = 0;
};

constexpr unsigned kBound = 5;

vscale::Config
formalConfig()
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16;
    return cfg;
}

/** CNF snapshots of COI-sliced V-scale queries, each guarded by its
 *  activation literal as the BMC engine guards them. */
const std::vector<QueryCnf> &
vscaleCorpus()
{
    static const std::vector<QueryCnf> corpus = [] {
        auto design = vscale::elaborateVscale(formalConfig());
        auto md = vscale::vscaleMetadata(formalConfig());
        std::vector<QueryCnf> out;
        for (const auto &core : md.cores) {
            for (int kind = 0; kind < 2; kind++) {
                bmc::PropCtx ctx(*design.netlist, design.signalMap, {},
                                 kBound);
                ctx.beginQuery();
                Lit bad;
                if (kind == 0) {
                    bad = ctx.cnf().falseLit();
                    for (unsigned f = 1; f < kBound; f++)
                        bad = ctx.cnf().mkOr(
                            bad, ctx.changedAt(f, core.ifr));
                } else {
                    bad = ctx.eqConst(kBound - 1, core.imPc, 2);
                }
                ctx.assume(bad);
                QueryCnf q;
                ctx.solver().exportCnf(q.clauses, false);
                q.act = ctx.activation();
                q.numVars = ctx.solver().numVars();
                out.push_back(std::move(q));
            }
            if (out.size() >= 4) // two cores are representative
                break;
        }
        return out;
    }();
    return corpus;
}

void
loadQuery(Solver &s, const QueryCnf &q, const SolverConfig &cfg)
{
    s.setConfig(cfg);
    load(s, q.clauses, q.numVars);
}

} // namespace

TEST(VscaleCorpus, InprocessingOnOffVerdictIdentity)
{
    for (size_t i = 0; i < vscaleCorpus().size(); i++) {
        const QueryCnf &q = vscaleCorpus()[i];
        SolverConfig on;
        on.inprocessPeriod = 1;
        on.lubyUnit = 8;
        SolverConfig off;
        off.inprocessPeriod = 0;

        Solver s_on, s_off;
        loadQuery(s_on, q, on);
        loadQuery(s_off, q, off);
        Result r_on = s_on.solve({q.act});
        Result r_off = s_off.solve({q.act});
        EXPECT_EQ(r_on, r_off) << "query " << i;
        if (r_on == Result::Sat) {
            Cnf all = q.clauses;
            all.push_back({q.act});
            EXPECT_TRUE(satisfies(s_on.model(), all)) << "query " << i;
        }
    }
}

// ---------------------------------------------------------------------
// Engine --no-inprocess path under full trust-but-verify validation
// ---------------------------------------------------------------------

TEST(EngineNoInprocess, FullValidationMatchesReference)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = vscale::vscaleMetadata(formalConfig());

    // Per core: the fetch register moves within the bound (cex) and
    // the imem PC stays word-aligned (proof).
    auto enqueue = [&](bmc::Engine &engine) {
        std::vector<bmc::Verdict> want;
        for (const auto &core : md.cores) {
            bmc::Query moves;
            moves.name = core.prefix + "ifr_moves";
            std::string ifr = core.ifr;
            moves.prop = [ifr](bmc::PropCtx &ctx) {
                Lit bad = ctx.cnf().falseLit();
                for (unsigned f = 1; f < kBound; f++)
                    bad = ctx.cnf().mkOr(bad, ctx.changedAt(f, ifr));
                return bad;
            };
            engine.enqueue(std::move(moves));
            want.push_back(bmc::Verdict::Refuted);

            bmc::Query aligned;
            aligned.name = core.prefix + "pc_aligned";
            std::string pc = core.imPc;
            aligned.prop = [pc](bmc::PropCtx &ctx) {
                return ctx.eqConst(kBound - 1, pc, 2);
            };
            engine.enqueue(std::move(aligned));
            want.push_back(bmc::Verdict::Proven);
        }
        return want;
    };

    bmc::EngineOptions ref_opts;
    ref_opts.jobs = 1;
    ref_opts.validate = bmc::ValidateMode::Full;
    bmc::Engine reference(*design.netlist, design.signalMap, {}, kBound,
                          ref_opts);
    bmc::EngineOptions noinp_opts;
    noinp_opts.jobs = 2;
    noinp_opts.inprocess = false;
    noinp_opts.validate = bmc::ValidateMode::Full;
    bmc::Engine no_inprocess(*design.netlist, design.signalMap, {},
                             kBound, noinp_opts);

    auto want = enqueue(reference);
    ASSERT_EQ(enqueue(no_inprocess), want);
    auto ref_res = reference.drain();
    auto noinp_res = no_inprocess.drain();
    ASSERT_EQ(ref_res.size(), want.size());
    ASSERT_EQ(noinp_res.size(), want.size());
    for (size_t i = 0; i < want.size(); i++) {
        EXPECT_EQ(ref_res[i].verdict, want[i]) << "query " << i;
        EXPECT_EQ(noinp_res[i].verdict, want[i]) << "query " << i;
        // Full validation replayed every counterexample and
        // re-checked every proof.
        EXPECT_TRUE(noinp_res[i].validated) << "query " << i;
        EXPECT_EQ(noinp_res[i].inprocessRuns, 0u) << "query " << i;
    }
    EXPECT_EQ(no_inprocess.stats().validationFailures, 0u);
    EXPECT_EQ(no_inprocess.stats().inprocessRuns, 0u);
    EXPECT_GT(no_inprocess.stats().replays, 0u);
    EXPECT_GT(no_inprocess.stats().proofRechecks, 0u);
}
