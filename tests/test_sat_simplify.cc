/**
 * @file
 * A reduceDB() regression: a crafted conflict schedule (learnt cap
 * pinned to almost nothing, so reduction fires while learnt clauses
 * are reasons on the trail) must never evict locked clauses —
 * evicting a reason corrupts conflict analysis, which shows up as a
 * wrong verdict, a bogus model, or a crash. The storm's tombstones
 * also pass the garbage fraction, so the solver compacts its arena in
 * place between restarts of the same solve.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sat/solver.hh"
#include "sat_test_peer.hh"

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
constexpr double kEvictionStormCap = 2.0;

} // namespace

TEST(ReduceDb, LockedReasonsSurviveActivityRanked)
{
    Cnf cnf = pigeonhole(7, 6);
    Solver s;
    SolverTestPeer::setMaxLearnts(s, kEvictionStormCap);
    load(s, cnf, 7 * 6);
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().removedClauses, 0u)
        << "reduction never fired; the regression is not exercised";
    EXPECT_GT(SolverTestPeer::compactions(s), 0u);
}

TEST(ReduceDb, SatisfiableUnderEvictionStorm)
{
    for (int seed = 0; seed < 6; seed++) {
        std::mt19937 rng(500 + seed);
        const int kVars = 30;
        Cnf cnf = randomCnf(rng, kVars, 110);
        Result plain = solvePlain(cnf, kVars);
        Solver s;
        SolverTestPeer::setMaxLearnts(s, kEvictionStormCap);
        load(s, cnf, kVars);
        Result r = s.solve();
        EXPECT_EQ(r, plain) << "seed " << seed;
        if (r == Result::Sat) {
            EXPECT_TRUE(satisfies(s.model(), cnf)) << "seed " << seed;
        }
    }
}
