/**
 * @file
 * Operational Sequential Consistency reference model.
 *
 * Enumerates every SC execution of a litmus test (all interleavings of
 * the threads' accesses against a single atomic memory) and collects
 * the set of reachable outcomes. Used to classify each litmus outcome
 * as SC-allowed or SC-forbidden, giving the ground truth the check
 * engine's verdicts are validated against (the multi-V-scale's MCM is
 * SC, paper §5.1).
 *
 * The search runs on flat states: locations and (thread, reg) slots
 * are interned once per test, and a state is one packed key of
 * per-thread pcs, per-location values and per-slot loaded values.
 * Visited keys live in one hash set, the frontier on an explicit
 * stack, and Outcome maps are built only for final states.
 */

#ifndef R2U_MCM_SC_REF_HH
#define R2U_MCM_SC_REF_HH

#include <map>
#include <set>
#include <string>

#include "litmus/litmus.hh"

namespace r2u::mcm
{

/** A final architectural outcome of a litmus test. */
struct Outcome
{
    /** (thread, reg) -> value loaded. */
    std::map<std::pair<int, int>, int> regs;
    /**
     * Final memory value per location: every location of
     * litmus::Test::locations(), 0 when no write reached it (the same
     * shape check::outcomeOf gives a candidate execution).
     */
    std::map<std::string, int> mem;

    bool operator<(const Outcome &o) const;
    bool operator==(const Outcome &o) const;

    bool satisfies(const litmus::Condition &cond) const;

    std::string toString() const;
};

/** All outcomes reachable under SC. */
std::set<Outcome> enumerateSC(const litmus::Test &test);

/** Does SC permit some outcome satisfying @p cond? */
bool scAllows(const litmus::Test &test, const litmus::Condition &cond);

} // namespace r2u::mcm

#endif // R2U_MCM_SC_REF_HH
