/**
 * @file
 * IC3/PDR — unbounded safety proofs over the COI-sliced 1-step
 * transition relation.
 *
 * Where BMC unrolls the netlist over `bound` frames and asks one big
 * SAT query, PDR (property-directed reachability) works on a 2-frame
 * unroll (current state -> next state) and maintains a sequence of
 * frame clause sets F_0 = Init ⊆ F_1 ⊆ ... ⊆ F_k, each
 * overapproximating the states reachable in at most that many steps.
 * Bad states found in F_k spawn proof obligations that are blocked by
 * relative-induction queries against earlier frames; blocked cubes are
 * generalized by dropping literals outside the solver's conflict core
 * and learned as frame clauses. When consecutive frames converge
 * (F_i == F_{i+1}) the fixpoint is an inductive invariant and the
 * property is proven for *every* bound — the unbounded verdicts the
 * engine's pre-pass harvests (see EngineOptions::engine).
 *
 * Verdict semantics are aligned with BMC at PdrOptions::bound so the
 * synthesized model stays bit-identical to plain BMC:
 *  - a counterexample whose bad frame is < bound  -> Refuted
 *    (exactly the executions BMC at that bound searches);
 *  - convergence at any level                      -> Proven, unbounded;
 *  - level bound-1 cleared without convergence     -> Proven at the
 *    bound (same verdict BMC returns), unbounded = false — including
 *    when a deeper counterexample (bad frame >= bound) shows up while
 *    searching for convergence past the bound.
 * Levels are processed in increasing order, so counterexamples are
 * found shortest-first and the case split above is exhaustive.
 *
 * PDR carries no trace machinery of its own: a Refuted result reports
 * the counterexample frame and the caller re-solves the ordinary BMC
 * formula (guaranteed Sat) to materialize a standard replayable
 * bmc::Trace — so --validate, --cex-vcd, and the trust-but-verify
 * quarantine work unchanged on PDR refutations.
 */

#ifndef R2U_BMC_PDR_HH
#define R2U_BMC_PDR_HH

#include "bmc/checker.hh"
#include "netlist/coi.hh"

namespace r2u::bmc
{

struct PdrOptions
{
    /**
     * BMC-equivalence bound: the property is decided for executions
     * whose bad frame lies in [0, bound). Must be >= 1.
     */
    unsigned bound = 1;
    /**
     * Highest frame level to search for convergence (0: bound - 1
     * plus a fixed grace of extra levels). Reaching it with the bound
     * cleared yields a bounded Proven verdict.
     */
    unsigned maxFrames = 0;
    /** Budgets, deadline, and cancellation flag. */
    SolveLimits limits;
};

struct PdrResult
{
    Verdict verdict = Verdict::Unknown;
    /** Budget class for Unknowns (Solve for definite verdicts). */
    VerdictSource source = VerdictSource::Solve;
    /** Proven for every bound (frame convergence), not just
     *  PdrOptions::bound. */
    bool unbounded = false;
    /** Refuted: the earliest frame at which the property is violated
     *  (< bound by the verdict semantics above). */
    unsigned cexFrame = 0;
    /** Highest frame level fully cleared of bad states. */
    unsigned frames = 0;
    /** Proof obligations processed. */
    uint64_t obligations = 0;
    /** Frame clauses learned (generalized blocked cubes). */
    uint64_t clausesLearned = 0;
    /** Clauses pushed forward during propagation phases. */
    uint64_t clausesPushed = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    size_t cnfVars = 0;
    size_t cnfClauses = 0;
    /** State bits (register + memory-word bits) in the sliced cone. */
    size_t stateBits = 0;
    double seconds = 0.0;
};

/**
 * Run IC3/PDR for a frame-local safety property.
 *
 * @param options the *BMC* unroll options — their concrete initial
 *        state (power-on register values, memory contents, symbolic
 *        memories) defines Init; the transition relation itself is
 *        built with a symbolic current state.
 * @param seeds cone-of-influence seeds (empty: the whole netlist is
 *        treated as in-cone).
 * @param prop frame-local property: prop(ctx, f) must only read frame
 *        f (plus frame-f inputs); its violation literal at frame 0
 *        defines the bad-state predicate. Frame-local environment
 *        assumptions it adds become part of the transition relation.
 */
PdrResult checkPdr(
    const nl::Netlist &netlist,
    const std::unordered_map<std::string, nl::CellId> &signals,
    Unroller::Options options, const nl::CoiSeeds &seeds,
    const FramePropertyFn &prop, const PdrOptions &popts);

} // namespace r2u::bmc

#endif // R2U_BMC_PDR_HH
