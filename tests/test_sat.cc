/**
 * @file
 * Tests for the CDCL SAT solver, including a randomized property test
 * that cross-checks solver verdicts against brute-force enumeration on
 * small formulas, structured instances (pigeonhole, chains) that
 * exercise conflict analysis, restarts, and assumption handling,
 * context cloning, and white-box checks of the in-place clause-arena
 * compaction.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "sat/solver.hh"
#include "sat_test_peer.hh"

using namespace r2u::sat;

TEST(Sat, TrivialSat)
{
    Solver s;
    Var a = s.newVar();
    Var b = s.newVar();
    s.addClause(mkLit(a), mkLit(b));
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_TRUE(s.modelValue(a) || s.modelValue(b));
}

TEST(Sat, TrivialUnsat)
{
    Solver s;
    Var a = s.newVar();
    s.addClause(mkLit(a));
    EXPECT_FALSE(s.addClause(mkLit(a, true)));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, EmptyFormulaIsSat)
{
    Solver s;
    s.newVar();
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, TautologyClausesIgnored)
{
    Solver s;
    Var a = s.newVar();
    EXPECT_TRUE(s.addClause(mkLit(a), mkLit(a, true)));
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, UnitPropagationChain)
{
    Solver s;
    const int n = 50;
    std::vector<Var> v;
    for (int i = 0; i < n; i++)
        v.push_back(s.newVar());
    // v0 and (vi -> vi+1) forces all true.
    s.addClause(mkLit(v[0]));
    for (int i = 0; i + 1 < n; i++)
        s.addClause(mkLit(v[i], true), mkLit(v[i + 1]));
    EXPECT_EQ(s.solve(), Result::Sat);
    for (int i = 0; i < n; i++)
        EXPECT_TRUE(s.modelValue(v[i]));
}

TEST(Sat, XorChainUnsat)
{
    // x1 ^ x2, x2 ^ x3, ..., xn-1 ^ xn, and x1 == xn with odd chain.
    Solver s;
    const int n = 9;
    std::vector<Var> v;
    for (int i = 0; i < n; i++)
        v.push_back(s.newVar());
    for (int i = 0; i + 1 < n; i++) {
        // vi != vi+1
        s.addClause(mkLit(v[i]), mkLit(v[i + 1]));
        s.addClause(mkLit(v[i], true), mkLit(v[i + 1], true));
    }
    // n-1 inequalities over a chain: v0 != v8 has even distance, so
    // v0 == v8 holds; force v0 != v8 to get UNSAT.
    s.addClause(mkLit(v[0]), mkLit(v[n - 1]));
    s.addClause(mkLit(v[0], true), mkLit(v[n - 1], true));
    EXPECT_EQ(s.solve(), Result::Unsat);
}

TEST(Sat, PigeonholeUnsat)
{
    // 4 pigeons, 3 holes: classic hard-ish UNSAT instance.
    const int pigeons = 4, holes = 3;
    Solver s;
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (int i = 0; i < pigeons; i++)
        for (int j = 0; j < holes; j++)
            p[i][j] = s.newVar();
    for (int i = 0; i < pigeons; i++) {
        std::vector<Lit> c;
        for (int j = 0; j < holes; j++)
            c.push_back(mkLit(p[i][j]));
        s.addClause(c);
    }
    for (int j = 0; j < holes; j++)
        for (int i1 = 0; i1 < pigeons; i1++)
            for (int i2 = i1 + 1; i2 < pigeons; i2++)
                s.addClause(mkLit(p[i1][j], true), mkLit(p[i2][j], true));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, AssumptionsSatAndUnsat)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar();
    s.addClause(mkLit(a, true), mkLit(b)); // a -> b
    EXPECT_EQ(s.solve({mkLit(a)}), Result::Sat);
    EXPECT_TRUE(s.modelValue(b));
    // Under assumptions a & ~b it must be UNSAT.
    EXPECT_EQ(s.solve({mkLit(a), mkLit(b, true)}), Result::Unsat);
    EXPECT_FALSE(s.conflictCore().empty());
    // Solver is still usable afterwards.
    EXPECT_EQ(s.solve(), Result::Sat);
}

TEST(Sat, IncrementalAlternatingSatUnsat)
{
    // One long-lived solver, many solve() calls alternating SAT and
    // UNSAT outcomes under assumptions, with the clause DB growing
    // between calls — the usage pattern of the BMC query engine. Each
    // call must fully restore solver state for the next one.
    Solver s;
    Var x = s.newVar(), y = s.newVar();
    s.addClause(mkLit(x, true), mkLit(y)); // x -> y
    for (int round = 0; round < 40; round++) {
        // Fresh activation literal guarding a per-round constraint,
        // alternately consistent and inconsistent with x -> y.
        Var act = s.newVar();
        bool want_unsat = round & 1;
        if (want_unsat) {
            // act -> (x & ~y): contradicts x -> y.
            s.addClause(mkLit(act, true), mkLit(x));
            s.addClause(mkLit(act, true), mkLit(y, true));
            EXPECT_EQ(s.solve({mkLit(act)}), Result::Unsat)
                << "round " << round;
            EXPECT_FALSE(s.conflictCore().empty());
        } else {
            // act -> (x & y): satisfiable.
            s.addClause(mkLit(act, true), mkLit(x));
            s.addClause(mkLit(act, true), mkLit(y));
            ASSERT_EQ(s.solve({mkLit(act)}), Result::Sat)
                << "round " << round;
            EXPECT_TRUE(s.modelValue(x));
            EXPECT_TRUE(s.modelValue(y));
        }
        // Retire the round's constraint.
        s.addClause(mkLit(act, true));
        // The base formula stays satisfiable in between.
        ASSERT_EQ(s.solve(), Result::Sat) << "round " << round;
    }
}

TEST(Sat, ConflictBudgetAlternatesWithUnbudgeted)
{
    // A budget-exhausted Unknown must not poison later calls on the
    // same solver (the engine reuses one solver across queries with
    // differing budgets).
    // Per round: a fresh pigeonhole instance on fresh variables,
    // guarded by a fresh assumption literal. Without the guard the
    // clauses are trivially SAT, so UNSAT is only ever derived *from
    // the assumption* and the solver survives to the next round.
    const int pigeons = 7, holes = 6;
    Solver s;
    for (int round = 0; round < 3; round++) {
        Var g = s.newVar();
        std::vector<std::vector<Var>> p(
            pigeons, std::vector<Var>(holes));
        for (int i = 0; i < pigeons; i++)
            for (int j = 0; j < holes; j++)
                p[i][j] = s.newVar();
        for (int i = 0; i < pigeons; i++) {
            std::vector<Lit> c{mkLit(g, true)};
            for (int j = 0; j < holes; j++)
                c.push_back(mkLit(p[i][j]));
            s.addClause(c);
        }
        for (int j = 0; j < holes; j++)
            for (int i1 = 0; i1 < pigeons; i1++)
                for (int i2 = i1 + 1; i2 < pigeons; i2++)
                    s.addClause(mkLit(p[i1][j], true),
                                mkLit(p[i2][j], true));
        s.setConflictBudget(5);
        EXPECT_EQ(s.solve({mkLit(g)}), Result::Unknown)
            << "round " << round;
        s.setConflictBudget(-1);
        EXPECT_EQ(s.solve({mkLit(g)}), Result::Unsat)
            << "round " << round;
        EXPECT_EQ(s.solve(), Result::Sat) << "round " << round;
    }
}

TEST(Sat, ConflictBudgetReturnsUnknown)
{
    // A hard pigeonhole with a tiny budget must return Unknown.
    const int pigeons = 8, holes = 7;
    Solver s;
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (int i = 0; i < pigeons; i++)
        for (int j = 0; j < holes; j++)
            p[i][j] = s.newVar();
    for (int i = 0; i < pigeons; i++) {
        std::vector<Lit> c;
        for (int j = 0; j < holes; j++)
            c.push_back(mkLit(p[i][j]));
        s.addClause(c);
    }
    for (int j = 0; j < holes; j++)
        for (int i1 = 0; i1 < pigeons; i1++)
            for (int i2 = i1 + 1; i2 < pigeons; i2++)
                s.addClause(mkLit(p[i1][j], true), mkLit(p[i2][j], true));
    s.setConflictBudget(10);
    EXPECT_EQ(s.solve(), Result::Unknown);
    s.setConflictBudget(-1);
    EXPECT_EQ(s.solve(), Result::Unsat);
}

namespace
{

/**
 * Add an (optionally guard-literal-protected) pigeonhole instance:
 * UNSAT, and deterministically hard — PHP(n+1, n) needs exponentially
 * many resolution steps, so small sizes already burn through budgets
 * and deadlines without any timing assumptions.
 */
std::vector<Lit>
addPigeonhole(Solver &s, int pigeons, int holes,
              Lit guard = kLitUndef)
{
    std::vector<std::vector<Var>> p(pigeons, std::vector<Var>(holes));
    for (int i = 0; i < pigeons; i++)
        for (int j = 0; j < holes; j++)
            p[i][j] = s.newVar();
    for (int i = 0; i < pigeons; i++) {
        std::vector<Lit> c;
        if (guard != kLitUndef)
            c.push_back(~guard);
        for (int j = 0; j < holes; j++)
            c.push_back(mkLit(p[i][j]));
        s.addClause(c);
    }
    for (int j = 0; j < holes; j++)
        for (int i1 = 0; i1 < pigeons; i1++)
            for (int i2 = i1 + 1; i2 < pigeons; i2++) {
                if (guard != kLitUndef)
                    s.addClause({~guard, mkLit(p[i1][j], true),
                                 mkLit(p[i2][j], true)});
                else
                    s.addClause(mkLit(p[i1][j], true),
                                mkLit(p[i2][j], true));
            }
    std::vector<Lit> assumps;
    if (guard != kLitUndef)
        assumps.push_back(guard);
    return assumps;
}

} // namespace

TEST(Sat, StopReasonNoneOnCompletedSolves)
{
    Solver s;
    Var a = s.newVar();
    s.addClause(mkLit(a));
    EXPECT_EQ(s.solve(), Result::Sat);
    EXPECT_EQ(s.stopReason(), StopReason::None);
    s.addClause(mkLit(a, true));
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_EQ(s.stopReason(), StopReason::None);
}

TEST(Sat, ConflictBudgetSetsStopReason)
{
    Solver s;
    addPigeonhole(s, 8, 7);
    s.setConflictBudget(10);
    EXPECT_EQ(s.solve(), Result::Unknown);
    EXPECT_EQ(s.stopReason(), StopReason::ConflictBudget);
    // Lifting the budget resolves the instance and resets the reason.
    s.setConflictBudget(-1);
    EXPECT_EQ(s.solve(), Result::Unsat);
    EXPECT_EQ(s.stopReason(), StopReason::None);
}

TEST(Sat, DeadlineReturnsUnknown)
{
    // Hard enough that a 1 ms deadline always fires well before the
    // refutation completes; the deadline is polled every 256 stop
    // checks, so the solve returns promptly rather than exactly.
    Solver s;
    addPigeonhole(s, 10, 9);
    s.setDeadline(0.001);
    auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(s.solve(), Result::Unknown);
    EXPECT_EQ(s.stopReason(), StopReason::Deadline);
    double waited = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    EXPECT_LT(waited, 30.0); // generous; typical is milliseconds
}

TEST(Sat, ExternalInterruptFlag)
{
    // Guarded hard instance: the flag stops the assumption solve, and
    // dropping the guard afterwards shows the solver survived.
    Solver s;
    Lit guard = mkLit(s.newVar());
    auto assumps = addPigeonhole(s, 11, 10, guard);

    std::atomic<bool> stop{false};
    s.setExternalInterrupt(&stop);
    std::thread stopper([&stop] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        stop.store(true);
    });
    EXPECT_EQ(s.solve(assumps), Result::Unknown);
    EXPECT_EQ(s.stopReason(), StopReason::Interrupt);
    stopper.join();

    // Sticky while set: the next solve stops immediately too.
    EXPECT_EQ(s.solve(assumps), Result::Unknown);
    EXPECT_EQ(s.stopReason(), StopReason::Interrupt);

    // The shared flag is owned by the caller; clearing it (not the
    // solver) re-arms the solver.
    stop.store(false);
    EXPECT_EQ(s.solve(), Result::Sat); // guard free -> trivially SAT
    EXPECT_EQ(s.stopReason(), StopReason::None);
    EXPECT_FALSE(s.modelValue(guard));
    s.setExternalInterrupt(nullptr);
}

TEST(Sat, StopReasonNames)
{
    EXPECT_STREQ(stopReasonName(StopReason::None), "none");
    EXPECT_STREQ(stopReasonName(StopReason::ConflictBudget),
                 "conflict-budget");
    EXPECT_STREQ(stopReasonName(StopReason::Deadline), "deadline");
    EXPECT_STREQ(stopReasonName(StopReason::Interrupt), "interrupt");
}

namespace
{

/** Brute-force SAT check over up to 16 variables. */
bool
bruteForceSat(int nvars, const std::vector<std::vector<Lit>> &clauses)
{
    for (uint32_t m = 0; m < (1u << nvars); m++) {
        bool ok = true;
        for (const auto &c : clauses) {
            bool sat = false;
            for (Lit l : c) {
                bool v = (m >> var(l)) & 1;
                if (v != sign(l)) {
                    sat = true;
                    break;
                }
            }
            if (!sat) {
                ok = false;
                break;
            }
        }
        if (ok)
            return true;
    }
    return false;
}

} // namespace

/** Randomized cross-check against brute force (3-SAT near threshold). */
class SatRandomTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SatRandomTest, AgreesWithBruteForce)
{
    std::mt19937 rng(777 + GetParam());
    for (int round = 0; round < 60; round++) {
        int nvars = 4 + static_cast<int>(rng() % 9); // 4..12
        int nclauses = static_cast<int>(nvars * 4.3);
        std::vector<std::vector<Lit>> clauses;
        Solver s;
        for (int i = 0; i < nvars; i++)
            s.newVar();
        for (int i = 0; i < nclauses; i++) {
            std::vector<Lit> c;
            for (int k = 0; k < 3; k++) {
                Var v = static_cast<Var>(rng() % nvars);
                c.push_back(mkLit(v, rng() & 1));
            }
            clauses.push_back(c);
            s.addClause(c);
        }
        bool expect = bruteForceSat(nvars, clauses);
        Result got = s.solve();
        ASSERT_EQ(got, expect ? Result::Sat : Result::Unsat)
            << "round " << round << " nvars " << nvars;
        if (got == Result::Sat) {
            // The model must actually satisfy every clause.
            for (const auto &c : clauses) {
                bool sat = false;
                for (Lit l : c)
                    sat |= s.modelValue(l);
                ASSERT_TRUE(sat);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomTest, ::testing::Range(0, 5));

/**
 * cloneFrom() warm-seeds sibling incremental contexts at --jobs > 1:
 * the copy must carry the whole clause database, learnts included,
 * and answer every later query as the original does.
 */
TEST(Sat, CloneFromReplicatesDatabaseAndVerdicts)
{
    std::mt19937 rng(31337);
    const int kVars = 20;
    std::vector<std::vector<Lit>> cnf;
    std::uniform_int_distribution<int> pick(0, kVars - 1);
    for (int i = 0; i < 80; i++) {
        std::vector<Lit> clause;
        while (clause.size() < 3) {
            Lit l = mkLit(pick(rng), (rng() & 1) != 0);
            bool dup = false;
            for (Lit o : clause)
                dup = dup || var(o) == var(l);
            if (!dup)
                clause.push_back(l);
        }
        cnf.push_back(clause);
    }

    Solver a;
    for (int i = 0; i < kVars; i++)
        a.newVar();
    for (const auto &clause : cnf)
        a.addClause(clause);
    (void)a.solve(); // accumulate learnts / phases / activities

    Solver b;
    b.cloneFrom(a);
    EXPECT_EQ(b.numVars(), a.numVars());

    std::vector<std::vector<Lit>> a_db, b_db;
    a.exportCnf(a_db, true);
    b.exportCnf(b_db, true);
    EXPECT_EQ(a_db, b_db) << "clone must carry learnts too";

    for (int s = 0; s < 4; s++) {
        std::vector<Lit> as{mkLit(s, false), mkLit(kVars - 1 - s, true)};
        EXPECT_EQ(a.solve(as), b.solve(as)) << "assumption set " << s;
    }
}

/**
 * The BMC engine's usage pattern on one long-lived solver: every round
 * adds clauses guarded by a fresh activation literal, solves under it
 * and retires it with a unit, and a tiny learnt cap makes reduceDB()
 * evict clauses all the time. Every verdict must match a fresh solver
 * on the same formula, and every compaction — forced after each round,
 * or run by solve() itself once the tombstones pass the garbage
 * fraction — must leave a tightly packed arena, slid in place without
 * reallocating, with learnts_ rebuilt from the learnt flag and no
 * stale reason. The random rounds are too easy to restart, and retired
 * rounds dominate the arena, so two guarded pigeonhole rounds follow:
 * one evicts enough for solve() to compact on its own, the other
 * leaves tombstones below a root fact's reason clause.
 */
TEST(Sat, InPlaceCompactionAcrossGuardedRounds)
{
    const int nvars = 40;
    const int kRounds = 120;
    std::mt19937 rng(2024);
    auto randomClause = [&rng]() {
        std::vector<Lit> c;
        for (int k = 0; k < 3; k++)
            c.push_back(mkLit(static_cast<Var>(rng() % nvars), rng() & 1));
        return c;
    };

    Solver s;
    SolverTestPeer::setMaxLearnts(s, 20);
    for (int i = 0; i < nvars; i++)
        s.newVar();
    std::vector<std::vector<Lit>> base;
    for (int i = 0; i < 2 * nvars; i++) {
        base.push_back(randomClause());
        s.addClause(base.back());
    }

    // Retire a round and force a compaction: in place, tightly packed.
    auto retireAndCompact = [&s](Var act) -> std::string {
        s.addClause(mkLit(act, true));
        const uint32_t *before = SolverTestPeer::arenaData(s);
        SolverTestPeer::compact(s);
        if (SolverTestPeer::arenaData(s) != before)
            return "arena reallocated";
        return SolverTestPeer::compactionProblem(s);
    };

    int sat = 0, unsat = 0;
    for (int round = 0; round < kRounds; round++) {
        Var act = s.newVar();
        std::vector<std::vector<Lit>> extra;
        for (int i = 0; i < 2 * nvars + round % 60; i++) {
            extra.push_back(randomClause());
            std::vector<Lit> guarded = extra.back();
            guarded.push_back(mkLit(act, true));
            s.addClause(guarded);
        }
        Result got = s.solve({mkLit(act)});
        ASSERT_TRUE(SolverTestPeer::crefsAscending(s)) << round;

        Solver fresh;
        for (int i = 0; i < nvars; i++)
            fresh.newVar();
        for (const auto &c : base)
            fresh.addClause(c);
        for (const auto &c : extra)
            fresh.addClause(c);
        ASSERT_EQ(got, fresh.solve()) << "round " << round;
        if (got == Result::Sat) {
            sat++;
            for (const auto *set : {&base, &extra})
                for (const auto &c : *set) {
                    bool ok = false;
                    for (Lit l : c)
                        ok |= s.modelValue(l);
                    ASSERT_TRUE(ok) << "round " << round;
                }
        } else {
            unsat++;
        }

        ASSERT_EQ(retireAndCompact(act), "") << "round " << round;
    }
    // The fixture must exercise both verdicts and evictions.
    EXPECT_GT(sat, 0);
    EXPECT_GT(unsat, 0);
    EXPECT_GT(s.stats().removedClauses, 0u);

    // Pigeonhole n into n-1 over fresh variables, guarded like a
    // round: UNSAT after many conflicts, with evictions all the way.
    auto guardedPigeonhole = [&s](int pigeons) {
        const int holes = pigeons - 1;
        Var act = s.newVar();
        Var first = s.numVars();
        for (int i = 0; i < pigeons * holes; i++)
            s.newVar();
        auto in = [&](int p, int h) {
            return mkLit(first + p * holes + h);
        };
        for (int p = 0; p < pigeons; p++) {
            std::vector<Lit> some{mkLit(act, true)};
            for (int h = 0; h < holes; h++)
                some.push_back(in(p, h));
            s.addClause(some);
        }
        for (int h = 0; h < holes; h++)
            for (int p1 = 0; p1 < pigeons; p1++)
                for (int p2 = p1 + 1; p2 < pigeons; p2++)
                    s.addClause(~in(p1, h), ~in(p2, h), mkLit(act, true));
        return act;
    };

    // 8 into 7 takes thousands of conflicts: at its restart boundaries
    // the eviction tombstones pass the garbage fraction.
    Var act = guardedPigeonhole(8);
    uint64_t forced = SolverTestPeer::compactions(s);
    EXPECT_EQ(s.solve({mkLit(act)}), Result::Unsat);
    EXPECT_GT(SolverTestPeer::compactions(s), forced)
        << "solve() never compacted on its own";
    ASSERT_TRUE(SolverTestPeer::crefsAscending(s));
    EXPECT_EQ(retireAndCompact(act), "");

    // 6 into 5 leaves tombstones under the garbage fraction. A root
    // fact implied through a clause added after them must not keep its
    // old reason cref once the forced compaction moves that clause.
    act = guardedPigeonhole(6);
    EXPECT_EQ(s.solve({mkLit(act)}), Result::Unsat);
    Var x = s.newVar(), y = s.newVar();
    s.addClause(mkLit(x, true), mkLit(y));
    s.addClause(mkLit(x));
    EXPECT_EQ(retireAndCompact(act), "");
    EXPECT_EQ(s.solve({mkLit(y, true)}), Result::Unsat);
}
