/**
 * @file
 * Bounded property checking over an unrolled netlist — the stand-in
 * for the commercial SVA property verifier in the paper's flow.
 *
 * A property is a callback that, given a PropCtx (solver + unroller +
 * helpers for rigid variables, assumptions, and per-frame signal
 * access), returns a single "violation" literal. checkProperty()
 * asserts the violation and solves: SAT yields Refuted plus a
 * counterexample trace of the watched signals (JasperGold "cex"),
 * UNSAT yields Proven at the bound, and an exhausted conflict budget
 * yields Unknown (JasperGold "undetermined").
 */

#ifndef R2U_BMC_CHECKER_HH
#define R2U_BMC_CHECKER_HH

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>

#include "bmc/unroller.hh"
#include "common/logging.hh"

namespace r2u::bmc
{

enum class Verdict { Proven, Refuted, Unknown };

const char *verdictName(Verdict verdict);

/**
 * How a query's final verdict came about — in particular, *why* an
 * Unknown is Unknown (which budget or deadline bit). Definite verdicts
 * are Solve (the incremental BMC solve) or Race (the PDR pre-pass).
 *
 * Journal and cache records store the source of a definite verdict as
 * one byte, so every enumerator is pinned. Codes 1 and 9 are retired:
 * they tagged definite verdicts of a removed budget-escalation retry
 * and of a removed mode that raced diversified SAT solver
 * configurations. Records carrying them decode as Solve.
 */
enum class VerdictSource : uint8_t {
    Solve = 0,             ///< definite verdict of the BMC solve
    ConflictBudget = 2,    ///< Unknown: conflict budget exhausted
    QueryDeadline = 4,     ///< Unknown: per-query deadline passed
    TotalDeadline = 5,     ///< Unknown: batch/total deadline passed mid-solve
    Cancelled = 6,         ///< Unknown: never solved (cancelled while queued)
    Interrupted = 7,       ///< Unknown: asynchronous interrupt mid-solve
    /**
     * Unknown: the verdict-validation layer caught an inconsistency
     * (a counterexample that does not replay, or a proof re-check
     * that disagrees) and the quarantine re-solve could not restore a
     * consistent definite verdict. Degrading beats propagating a
     * possibly-unsound verdict into the synthesized model.
     */
    ValidationFailed = 8,
    /**
     * Definite verdict produced by the IC3/PDR pre-pass ahead of the
     * BMC solve (see EngineChoice::Race).
     */
    Race = 10,
};

const char *verdictSourceName(VerdictSource source);

/**
 * Which checking algorithm produced a verdict: the incremental BMC
 * solve, or the IC3/PDR pre-pass, whose Proven verdicts can be
 * *unbounded* (valid at every bound, not just the query's).
 */
enum class EngineKind : uint8_t { Bmc, Pdr };

const char *engineKindName(EngineKind kind);

/**
 * Resource limits for one solve. Defaults impose nothing; the BMC
 * engine sets per-query budgets and deadlines and a shared
 * cancellation flag. Every solver searches with the same
 * configuration, so a limit is all a caller can set.
 */
struct SolveLimits
{
    int64_t conflicts = -1; ///< conflict budget (<0: unlimited)
    double seconds = -1.0;  ///< wall-clock deadline (<0: none)
    /** Optional shared stop flag polled during the solve. */
    const std::atomic<bool> *cancel = nullptr;
};

struct TraceStep
{
    std::map<std::string, Bits> signals;
    /**
     * Watched memory-port reads, keyed "memname#port" (port = index
     * into nl::Memory::readPorts). Populated for memories registered
     * through PropCtx::watchMem so replayed traces can be compared on
     * memory-backed designs too.
     */
    std::map<std::string, Bits> memReads;
};

/**
 * Counterexample trace: one step per frame with the watched signals,
 * plus everything needed to replay the trace through sim::Simulator —
 * the full per-frame input valuations and the model's choice of
 * symbolic initial state (free registers / symbolic memories). Only
 * wires the query's cone actually materialized are recorded; anything
 * absent cannot influence the watched values.
 */
struct Trace
{
    std::vector<TraceStep> steps;
    /** inputs[frame][input-name] = model value (materialized only). */
    std::vector<std::map<std::string, Bits>> inputs;
    /** Frame-0 values of symbolic-initial-state registers. */
    std::map<std::string, Bits> initRegs;
    /** Frame-0 contents of symbolic/overridden memories (full array). */
    std::map<std::string, std::vector<Bits>> initMems;

    std::string toString() const;
};

class PropCtx
{
  public:
    PropCtx(const nl::Netlist &netlist,
            const std::unordered_map<std::string, nl::CellId> &signals,
            Unroller::Options options, unsigned bound);

    unsigned bound() const { return bound_; }
    sat::Solver &solver() { return solver_; }
    sat::CnfBuilder &cnf() { return cnf_; }
    Unroller &unroller() { return unroller_; }

    /**
     * Begin an isolated query on a long-lived context (incremental
     * BMC). Per-query state (rigids, watches) is reset and a query
     * scope opens (sat::CnfBuilder::beginScope) with a fresh
     * activation literal act. Until endQuery(), every clause the
     * property emits — its monitor gates and its assume()s — carries
     * ~act and its gates and variables belong to the query; only the
     * unrolling the property demands (at(), watch()) is permanent.
     * Solve with solver().solve({activation()}).
     */
    void beginQuery();

    /** The current query's activation literal. */
    sat::Lit activation() const
    {
        R2U_ASSERT(inQuery(), "activation() outside a query");
        return cnf_.activation();
    }

    bool inQuery() const { return cnf_.inScope(); }

    /**
     * Retire the current query: ~act becomes a level-0 fact, and the
     * solver deletes the query's clauses, every learnt clause derived
     * from them (all contain ~act) and its variables. What the context
     * keeps across queries is the unrolling and the learnt clauses
     * without ~act; a query leaves nothing behind.
     */
    void endQuery();

    /**
     * Warm-start this context from a donor over the same netlist and
     * bound: the donor's clause database, shared structural-hash
     * caches, and unroller memo tables are copied wholesale, so wires
     * the donor already bit-blasted are never encoded again here. This
     * context must be outside a query; the donor may be inside one as
     * long as its solver is idle at level 0 (CNF built, solve not
     * started), and that query is retired in the copy, which then
     * holds the donor's unrolling and learnt clauses and none of the
     * query's clauses or variables.
     */
    void seedFrom(const PropCtx &donor);

    /** Resolve a hierarchical signal name. fatal() if unknown. */
    nl::CellId cellOf(const std::string &name) const;

    /** Value of a named signal at a frame. */
    const sat::Word &at(unsigned frame, const std::string &name);

    /**
     * A rigid symbolic variable: constant across frames. Repeated
     * calls with the same name return the same word.
     */
    const sat::Word &rigid(const std::string &name, unsigned width);

    /**
     * Add an assumption. Outside a query this is a hard root-level
     * fact; inside a query it is guarded by the activation literal
     * and retired with the query.
     */
    void assume(sat::Lit a);

    /** Constrain an input to a constant value in every frame. */
    void pinInput(const std::string &name, uint64_t value);

    /** Constrain an input at one frame. */
    void pinInputAt(unsigned frame, const std::string &name,
                    uint64_t value);

    /** Record a signal in counterexample traces. */
    void watch(const std::string &name);

    /**
     * Record a memory's read ports in counterexample traces (netlist
     * memory name, resolved through the unroller's netlist). Each read
     * port's output is demanded at every frame and lands in
     * TraceStep::memReads as "memname#port".
     */
    void watchMem(const std::string &mem_name);

    // --- small property-building helpers ---
    sat::Lit eqConst(unsigned frame, const std::string &name,
                     uint64_t value);
    sat::Lit eqRigid(unsigned frame, const std::string &name,
                     const sat::Word &r);
    /** signal value changed between frame-1 and frame (frame >= 1). */
    sat::Lit changedAt(unsigned frame, const std::string &name);

    const std::vector<std::string> &watched() const { return watched_; }
    const std::vector<nl::MemId> &watchedMems() const
    {
        return watched_mems_;
    }

  private:
    const std::unordered_map<std::string, nl::CellId> &signals_;
    sat::Solver solver_;
    sat::CnfBuilder cnf_;
    Unroller unroller_;
    unsigned bound_;
    std::map<std::string, sat::Word> rigids_;
    std::vector<std::string> watched_;
    std::vector<nl::MemId> watched_mems_;
};

struct CheckResult
{
    Verdict verdict = Verdict::Unknown;
    /** Why the verdict is what it is (budget class for Unknowns). */
    VerdictSource source = VerdictSource::Solve;
    /**
     * Wall time of the whole query, the PDR pre-pass and the query's
     * retirement from its context included; the two phases below are
     * parts of it.
     */
    double seconds = 0.0;
    /** Encode phase: context build (or seed clone) plus the property's
     *  CNF. */
    double encodeSeconds = 0.0;
    /** Solve phase: the primary solve() and, for a Refuted verdict,
     *  reading its trace out of the model. */
    double solveSeconds = 0.0;
    unsigned bound = 0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    /** Live context totals when the query finished (COI-sliced
     *  contexts stay small; --full-unroll restores the whole-design
     *  footprint). */
    size_t cnfVars = 0;
    size_t cnfClauses = 0;
    /** What this query alone added to its (possibly shared) context. */
    size_t cnfVarsAdded = 0;
    size_t cnfClausesAdded = 0;
    Trace trace; ///< populated when Refuted

    // --- proof-engine attribution (bmc::Engine) ---
    /** This query ran the PDR pre-pass (EngineChoice::Race). */
    bool engineRaced = false;
    /** Algorithm that produced this verdict. */
    EngineKind engine = EngineKind::Bmc;
    /** Proven for every bound (PDR convergence), not just
     *  CheckResult::bound. */
    bool unbounded = false;
    /** PDR: highest frame level fully cleared of bad states. */
    unsigned pdrFrames = 0;
    /** PDR: proof obligations processed. */
    uint64_t pdrObligations = 0;

    // --- trust-but-verify validation accounting (bmc::Engine) ---
    /** Verdict independently confirmed (replay or proof re-check). */
    bool validated = false;
    /** Verdict loaded from a resume journal (validated when written). */
    bool fromJournal = false;
    /** This result was appended to the run journal. */
    bool journaled = false;
    /** Verdict replayed from the cross-run verdict cache (its content
     *  key matched — same cone, property, and bound). */
    bool fromCache = false;
    /** This result was appended to the verdict cache. */
    bool cached = false;
    /** Counterexample replays performed for this query. */
    unsigned replays = 0;
    /** Fresh non-incremental proof re-solves performed. */
    unsigned proofRechecks = 0;
    /** Proof re-checks that came back Unknown (neither confirms nor
     *  contradicts; the primary Proven verdict is kept). */
    unsigned recheckInconclusive = 0;
    /** Primary-vs-validation disagreements observed (quarantined). */
    unsigned validationMismatches = 0;
    double replaySeconds = 0.0;
    double recheckSeconds = 0.0;
    double validateSeconds = 0.0;
    /** Diagnostic bundle on mismatch (trace + CNF stats) or recovery
     *  note; empty when validation passed cleanly. */
    std::string validationNote;
};

/** Builds a property and returns its violation literal. */
using PropertyFn = std::function<sat::Lit(PropCtx &)>;

/**
 * Counterexample trace of the context's watched signals over all
 * frames; valid only right after a Sat solver result.
 */
Trace extractTrace(PropCtx &ctx);

/**
 * Per-frame property: returns the "bad at this frame" literal; may
 * also add frame-local environment assumptions through the context.
 */
using FramePropertyFn =
    std::function<sat::Lit(PropCtx &, unsigned frame)>;

/**
 * Check one property at the given bound.
 *
 * @param conflict_budget solver conflict cap (<0: none); exceeding it
 *        yields Verdict::Unknown, the analogue of a JasperGold
 *        timeout/undetermined result (Fig. 6 patterned bars).
 */
CheckResult checkProperty(
    const nl::Netlist &netlist,
    const std::unordered_map<std::string, nl::CellId> &signals,
    Unroller::Options options, unsigned bound, const PropertyFn &prop,
    int64_t conflict_budget = -1);

/**
 * Check one property under full solve limits (budgets, deadline,
 * shared cancellation flag). Any exhausted limit yields
 * Verdict::Unknown with the limit recorded in CheckResult::source.
 *
 * @param warm optional donor context (same netlist/options/bound) to
 *        warm-start from via PropCtx::seedFrom instead of
 *        bit-blasting the transition relation again. The search still
 *        starts from scratch — no learnt clauses or saved phases
 *        carry over when the donor was snapshotted before solving —
 *        and the encoding is deterministic, so the clauses equal what
 *        a cold build would produce.
 */
CheckResult checkProperty(
    const nl::Netlist &netlist,
    const std::unordered_map<std::string, nl::CellId> &signals,
    Unroller::Options options, unsigned bound, const PropertyFn &prop,
    const SolveLimits &limits, const PropCtx *warm = nullptr);

/** Apply limits to a solver ahead of one solve() call. */
void applyLimits(sat::Solver &solver, const SolveLimits &limits);

/**
 * Map the solver's stop reason onto a verdict source. The solver
 * cannot tell a per-query deadline from a clamped total deadline or a
 * user interrupt from a batch cancellation — callers that know refine
 * Deadline/Interrupt afterwards.
 */
VerdictSource sourceFromStop(sat::StopReason reason);

struct InductiveResult
{
    /** Proven here means proven for ALL cycle counts (k-induction),
     *  not just up to a bound. */
    Verdict verdict = Verdict::Unknown;
    /** True iff the induction step succeeded (vs. only the bounded
     *  base case). */
    bool inductive = false;
    /**
     * True iff the base-case BMC solve at base_bound came back Unsat —
     * i.e. the property holds at that bound even when the induction
     * step failed; InductiveResult::verdict stays Unknown when the
     * property is not k-inductive.
     */
    bool baseProven = false;
    /** Budget class when a solve came back Unknown. */
    VerdictSource source = VerdictSource::Solve;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    unsigned k = 0;
    double seconds = 0.0;
    Trace trace; ///< base-case counterexample when Refuted
};

/**
 * k-induction: prove a per-frame safety property for every reachable
 * cycle. Base case runs BMC from the concrete initial state over
 * @p base_bound frames; the induction step assumes the property in k
 * consecutive frames from an arbitrary state and asserts it in the
 * next. Refuted results carry a real trace; Unknown means the
 * property is not k-inductive at this k (it may still hold).
 * @p conflict_budget is a total across both solves (<0: none).
 */
InductiveResult checkInductive(
    const nl::Netlist &netlist,
    const std::unordered_map<std::string, nl::CellId> &signals,
    Unroller::Options options, unsigned k, unsigned base_bound,
    const FramePropertyFn &prop, int64_t conflict_budget = -1);

} // namespace r2u::bmc

#endif // R2U_BMC_CHECKER_HH
