/**
 * @file
 * White-box access to sat::Solver for the solver tests: the clause
 * arena, the in-place compaction and the learnt-clause cap that
 * production code sizes from the problem.
 */

#ifndef R2U_TESTS_SAT_TEST_PEER_HH
#define R2U_TESTS_SAT_TEST_PEER_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sat/solver.hh"

namespace r2u::sat
{

/** A friend of Solver. */
struct SolverTestPeer
{
    /** Pin the learnt-clause cap (0 restores automatic sizing). */
    static void setMaxLearnts(Solver &s, double cap)
    {
        s.max_learnts_override_ = cap;
    }

    /** Force the level-0 compaction solve() runs on its own trigger. */
    static void compact(Solver &s) { s.garbageCollect(); }

    /** Compactions so far, forced or from inside solve(). */
    static uint64_t compactions(const Solver &s) { return s.compactions_; }

    static const uint32_t *arenaData(const Solver &s)
    {
        return s.arena_.data();
    }

    static bool
    crefsAscending(const Solver &s)
    {
        for (size_t i = 1; i < s.crefs_.size(); i++)
            if (s.crefs_[i] <= s.crefs_[i - 1])
                return false;
        return true;
    }

    /**
     * Right after a compaction: the arena is exactly the live clauses,
     * back to back in crefs_ order, learnts_ lists precisely the
     * clauses whose header carries the learnt flag, and every reason
     * still recorded for a trail literal is a live clause holding it.
     * Returns what is wrong, or "" when all of that holds.
     */
    static std::string
    compactionProblem(const Solver &s)
    {
        for (Lit l : s.trail_) {
            int r = s.reason_[var(l)];
            if (r < 0)
                continue;
            if (!std::binary_search(s.crefs_.begin(), s.crefs_.end(), r))
                return "stale reason cref " + std::to_string(r);
            const Solver::Clause c = s.clause(r);
            if (std::find(c.begin(), c.end(), l) == c.end())
                return "reason at cref " + std::to_string(r) +
                       " lacks its literal";
        }
        size_t at = 0;
        std::vector<int> learnts;
        for (int cref : s.crefs_) {
            if (static_cast<size_t>(cref) != at)
                return "gap or overlap at cref " + std::to_string(cref);
            const Solver::Clause c = s.clause(cref);
            if (c.deleted())
                return "tombstone at cref " + std::to_string(cref);
            if (c.learnt())
                learnts.push_back(cref);
            at += Solver::kClauseHeader + c.size();
        }
        if (at != s.arena_.size())
            return "arena holds " + std::to_string(s.arena_.size()) +
                   " words, live clauses " + std::to_string(at);
        if (learnts != s.learnts_)
            return "learnts_ differs from the learnt-flagged clauses";
        return "";
    }
};

} // namespace r2u::sat

#endif // R2U_TESTS_SAT_TEST_PEER_HH
