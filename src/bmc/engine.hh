/**
 * @file
 * Parallel + incremental BMC query engine.
 *
 * The paper's synthesis flow dispatches its ~120 independent
 * HBI-hypothesis SVAs onto JasperGold's multi-engine proof farm; this
 * engine is our stand-in. A batch of property queries against one
 * (netlist, unroll options) pair is enqueued and evaluated on a
 * work-stealing thread pool. Two levers make this fast:
 *
 *  - parallelism: queries run concurrently across workers;
 *  - incrementality: each worker keeps one long-lived PropCtx
 *    (solver + unroller) at the engine's bound, so the
 *    transition-relation CNF is bit-blasted once per worker and
 *    amortized across every query that worker serves. Each query's
 *    monitor and assumptions are guarded by its activation literal and
 *    solved via solve(assumptions); when the query ends they are
 *    retired with every learnt clause derived from them. What a
 *    context keeps across queries is the unrolling and the learnt
 *    clauses that do not depend on any query; a query leaves nothing
 *    behind.
 *
 * Results come back in enqueue order regardless of completion order,
 * so callers see deterministic output. jobs=1 is the same path with
 * one worker, run on the calling thread in enqueue order, so its
 * verdicts and solver counts repeat exactly from run to run. Worker
 * contexts live for one drain(); at jobs > 1 the warm-start seed
 * they publish stays for the engine's lifetime. Every query runs at
 * the engine's bound under its conflict budget, and one caller-owned
 * flag (EngineOptions::stop) stops a run. The fresh-context oracle
 * (checkProperty) remains for quarantine and --validate re-checks.
 */

#ifndef R2U_BMC_ENGINE_HH
#define R2U_BMC_ENGINE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>

#include "bmc/checker.hh"
#include "bmc/journal.hh"
#include "common/thread_pool.hh"
#include "netlist/coi.hh"

namespace r2u::bmc
{

struct Query;

/**
 * How much independent cross-checking each definite verdict gets
 * (trust-but-verify; see bmc/validate.hh):
 *  - Off: verdicts are taken at face value.
 *  - Replay: every Refuted verdict's counterexample is replayed
 *    through sim::Simulator and a fresh pinned monitor context.
 *  - Sample: Replay, plus every Nth Proven verdict (by batch index,
 *    deterministic) is re-solved in a fresh non-incremental context.
 *  - Full: Replay, plus *every* Proven verdict is re-solved.
 */
enum class ValidateMode : uint8_t { Off, Replay, Sample, Full };

const char *validateModeName(ValidateMode mode);

/**
 * Which solve a fault-injection hook is intercepting: the primary
 * (possibly incremental) solve, or a quarantine/re-check fresh solve.
 * Test seam only — lets tests corrupt a verdict or trace at a precise
 * point and prove the validation layer catches it.
 */
enum class SolveStage : uint8_t { Primary, Quarantine };

/**
 * Proof path for queries that provide a frame-local property
 * (Query::frameProp):
 *  - Bmc: the incremental BMC solve alone (the reference path).
 *  - Race: per query, a sequential IC3/PDR pre-pass (bmc/pdr.hh) on
 *    the worker's thread, within the engine's bound and limits. A PDR
 *    Proven answers the query; anything else falls through to the
 *    incremental BMC solve, which owns every refutation and trace —
 *    so the synthesized model stays bit-identical to --engine bmc at
 *    any jobs count.
 * Queries without frameProp always run plain BMC.
 */
enum class EngineChoice : uint8_t { Bmc, Race };

const char *engineChoiceName(EngineChoice choice);

struct EngineOptions
{
    /** Worker count; 0 means std::thread::hardware_concurrency(). */
    unsigned jobs = 0;
    /** Solver conflict budget per query (<0: unlimited). */
    int64_t conflictBudget = -1;
    /** Per-query wall-clock deadline in seconds (<0: none). */
    double querySeconds = -1.0;
    /**
     * Total wall-clock deadline in seconds, measured from Engine
     * construction so it spans every drain() of a synthesis run
     * (<0: none). When it passes, in-flight solves stop (their
     * per-solve deadline is clamped to the remaining total) and
     * still-queued queries come back Cancelled.
     */
    double totalSeconds = -1.0;
    /**
     * Cooperative stop flag (caller-owned, may be flipped from any
     * thread — a signal handler, the service watchdog). Handed to
     * every solve as SolveLimits::cancel: once set, in-flight solves
     * return Unknown (Interrupted) at their next stop check and
     * still-queued queries come back Cancelled, so a stopped run is a
     * sound partial answer. Clearing it re-arms the engine. nullptr =
     * never stop.
     */
    const std::atomic<bool> *stop = nullptr;

    /**
     * Verdict validation policy. The default replays every
     * counterexample (cheap — one simulator run + one pinned solve on
     * an already-satisfiable cone) and spot-checks a deterministic
     * sample of proofs. See ValidateMode.
     */
    ValidateMode validate = ValidateMode::Sample;
    /** Sample mode: re-check every Nth Proven verdict (min 1). */
    unsigned validateSampleN = 8;
    /**
     * Optional verdict stores (owned by the caller, must outlive the
     * engine): the run journal and the cross-run cache. At drain()
     * time a query whose contentHash (or, for an unbounded proof,
     * baseHash) is in the journal, else in the cache, is answered
     * without solving; every new definite verdict is appended to each
     * open store after validation. Queries with contentHash 0 never
     * consult or populate either. nullptr disables a store.
     */
    VerdictStore *journal = nullptr;
    VerdictStore *cache = nullptr;
    /**
     * When non-empty, each refutation's replayed trace is dumped as a
     * VCD waveform under this directory (created on demand) with a
     * deterministic per-query filename.
     */
    std::string cexVcdDir;
    /**
     * Fault-injection test seam: called after the primary solve and
     * after every quarantine/re-check solve, free to corrupt the
     * result in place. Must be thread-safe at jobs > 1. Production
     * runs leave this empty.
     */
    std::function<void(const Query &, CheckResult &, SolveStage)>
        faultHook;

    /**
     * Proof path for frame-local queries (see EngineChoice). The
     * default runs the IC3/PDR pre-pass ahead of the incremental BMC
     * solve, harvesting unbounded proofs when PDR converges; Bmc skips
     * the pre-pass.
     */
    EngineChoice engine = EngineChoice::Race;
};

/** One property query in a batch. */
struct Query
{
    std::string name; ///< label for debug logging
    PropertyFn prop;

    /**
     * Seed state elements the property reads (optional). BMC's
     * demand-driven unrolling slices to the cone by itself; the seeds
     * only bound the PDR pre-pass's transition relation (empty: the
     * whole design). The synthesis frontend computes each query's
     * cone once, for its content hash, and reports the cone size.
     */
    nl::CoiSeeds seeds;

    /**
     * Content-derived identity of this query: a hash of its COI slice,
     * property encoding, and bound (see nl::coneHash and the synthesis
     * frontend's per-query hashing). The journal and cache key, so an
     * edited property or rewired cone cannot replay a stale verdict.
     * 0 means "unhashed": both stores are bypassed entirely.
     */
    uint64_t contentHash = 0;

    /**
     * Bound-independent content identity: contentHash with the bound
     * left out of the mix. Unbounded Proven verdicts (PDR convergence)
     * are keyed by this too, so a journal/cache hit can satisfy the
     * same cone + property at *any* bound. 0 means "unhashed" (no
     * unbounded reuse).
     */
    uint64_t baseHash = 0;

    /**
     * Frame-local formulation of the property (optional): returns the
     * "bad at this frame" literal reading only frame f and frame-f
     * inputs. When set and EngineOptions::engine is Race, the query
     * runs the PDR pre-pass; `prop` must be its bounded equivalent (the
     * OR of frameProp over every frame of the bound), which PDR's
     * verdicts are aligned with.
     */
    FramePropertyFn frameProp;
};

/**
 * Run counters of an Engine, summed over every drain(). The synthesis
 * result derives from this struct, so each counter is declared here
 * once and read by the CLI, the run report and the benchmark alike.
 */
struct EngineStats
{
    uint64_t queries = 0;
    /**
     * Incremental contexts built (== transition-relation unrolls): at
     * most one per worker per drain(), at any jobs count.
     */
    uint64_t unrollContexts = 0;
    /**
     * Contexts warm-started from a sibling's bit-blasted CNF
     * (PropCtx::seedFrom) instead of re-encoding the transition
     * relation from the netlist.
     */
    uint64_t contextsSeeded = 0;
    uint64_t steals = 0;
    /** Sum of per-query CNF growth across the batch(es). */
    uint64_t cnfVarsAdded = 0;
    uint64_t cnfClausesAdded = 0;
    /** Queries whose final verdict stayed Unknown. */
    uint64_t unknowns = 0;

    // --- trust-but-verify validation (see ValidateMode) ---
    /** Counterexample replays (sim + pinned monitor re-check). */
    uint64_t replays = 0;
    /** Fresh non-incremental proof re-solves. */
    uint64_t proofRechecks = 0;
    /** Proof re-checks that came back Unknown (primary verdict kept). */
    uint64_t recheckInconclusive = 0;
    /** Primary-vs-validation disagreements (quarantined). */
    uint64_t validationMismatches = 0;
    /** Verdicts degraded to Unknown(ValidationFailed). */
    uint64_t validationFailures = 0;
    /** Queries answered from the resume journal without solving. */
    uint64_t journalHits = 0;
    /** Verdicts durably appended to the journal this run. */
    uint64_t journalAppends = 0;
    /** Queries answered from the cross-run verdict cache. */
    uint64_t cacheHits = 0;
    /** Hashed queries the cache could not answer. */
    uint64_t cacheMisses = 0;
    /** Misses where the cache held the same query under a different
     *  content key — i.e. its cone/property changed since caching. */
    uint64_t cacheInvalidations = 0;
    /** Verdicts physically appended to the verdict cache this run. */
    uint64_t cacheAppends = 0;
    double replaySeconds = 0.0;
    double recheckSeconds = 0.0;
    /** Total validation wall time (replays + re-checks + policy). */
    double validateSeconds = 0.0;

    // --- proof paths (see EngineChoice) ---
    /** Queries that ran the PDR pre-pass (EngineChoice::Race). */
    uint64_t engineRaces = 0;
    /** Verdicts produced by the incremental BMC solve. */
    uint64_t bmcWins = 0;
    /** Verdicts produced by the IC3/PDR pre-pass. */
    uint64_t pdrWins = 0;
    /** Proven verdicts valid at every bound, not just the query's. */
    uint64_t unboundedProofs = 0;
    /** Sum of PDR frame levels cleared across the batch(es). */
    uint64_t pdrFrames = 0;
    /** Sum of PDR proof obligations processed. */
    uint64_t pdrObligations = 0;
};

class Engine
{
  public:
    Engine(const nl::Netlist &netlist,
           const std::unordered_map<std::string, nl::CellId> &signals,
           Unroller::Options options, unsigned bound,
           EngineOptions engine_options = {});
    ~Engine();

    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    /** Resolved worker count (>= 1). */
    unsigned jobs() const { return jobs_; }

    const EngineStats &stats() const { return stats_; }

    /** The options this engine was constructed with. */
    const EngineOptions &options() const { return eopts_; }

    /** Add a query to the pending batch; returns its batch index. */
    size_t enqueue(Query query);

    /**
     * Evaluate every pending query and return their results in
     * enqueue order. The batch is cleared; the pool and any published
     * warm-start seeds stay for the next batch, the worker contexts
     * (and their learnt clauses) do not. If a property callback threw,
     * the first exception (in enqueue order) is rethrown after the
     * batch settles.
     */
    std::vector<CheckResult> drain();

  private:
    struct Worker;

    /**
     * One query on @p worker's incremental context, after
     * the PDR pre-pass when EngineOptions::engine is Race. A property
     * callback that throws leaves the context mid-query; it is dropped
     * before the exception propagates.
     */
    CheckResult runIncremental(Worker &worker, const Query &query);

    /**
     * Everything between "the solver answered" and "the caller sees
     * the result": fault-injection seam, verdict validation per
     * EngineOptions::validate (with quarantine + degradation on
     * mismatch), and the journal and cache appends. Thread-safe; runs
     * on the worker that solved the query.
     */
    void postProcess(size_t index, const Query &query,
                     CheckResult &result);
    /** @p recheck_proof: spot-check this Proven verdict too? */
    void validateResult(const Query &query, CheckResult &result,
                        bool recheck_proof);
    /**
     * Fresh, non-incremental re-solve of a query. @p warm_ok allows
     * warm-starting the CNF from the published context seed (used for
     * routine proof spot-checks, where the value of the re-solve is an
     * uncontaminated search); the mismatch quarantine path passes
     * false and pays for a fully independent re-encoding.
     */
    CheckResult quarantineSolve(const Query &query, bool warm_ok);
    /** Published warm-start seed (nullptr if none). */
    const PropCtx *seedFor();
    /** Deterministic VCD path for a query's counterexample ("" if
     *  --cex-vcd is off). */
    std::string vcdPathFor(const Query &query) const;
    /** Answer stored queries in-place from the journal, else the
     *  cache; marks them done and tallies the cache miss/invalidation
     *  counters (single-threaded). */
    void resolveFromStores(const std::vector<Query> &batch,
                           std::vector<CheckResult> &results,
                           std::vector<char> &done);

    /** EngineOptions::stop is set. */
    bool stopRequested() const;

    /**
     * Compute the solve limits for the next query. Returns false when
     * it must not be solved at all (stop requested, or the total
     * deadline already passed); @p total_binding reports whether the
     * clamped total deadline — rather than the per-query one — is the
     * effective deadline.
     */
    bool queryLimits(SolveLimits &limits, bool &total_binding) const;

    /**
     * Warm-start seed (jobs > 1): the first worker to build a context
     * publishes an immutable snapshot of it right after its first
     * query's CNF construction; workers arriving later — in this
     * batch or a later one — clone the snapshot (PropCtx::seedFrom)
     * instead of bit-blasting the transition relation again.
     * `building` marks the designated builder so latecomers wait on
     * seed_cv_ for the snapshot rather than redundantly encoding in
     * parallel.
     */
    struct SeedSlot
    {
        bool building = false;
        std::unique_ptr<const PropCtx> seed;
    };
    /** Publish a snapshot of @p ctx if this worker is the designated
     *  seed builder (no-op otherwise). */
    void maybePublishSeed(Worker &worker, PropCtx &ctx);
    /** Builder failed before publishing: hand the role to a waiter. */
    void abandonSeed(Worker &worker);

    const nl::Netlist &nl_;
    const std::unordered_map<std::string, nl::CellId> &signals_;
    Unroller::Options options_;
    unsigned bound_;
    EngineOptions eopts_;
    unsigned jobs_;

    bool has_total_deadline_ = false;
    std::chrono::steady_clock::time_point total_deadline_;

    std::vector<Query> batch_;
    /** Created on the first drain() at jobs > 1. */
    std::unique_ptr<ThreadPool> pool_;
    EngineStats stats_;

    std::mutex seed_mu_;
    std::condition_variable seed_cv_;
    SeedSlot seed_;
};

/** 0 -> hardware_concurrency() (>= 1); otherwise the value itself. */
unsigned resolveJobs(unsigned requested);

} // namespace r2u::bmc

#endif // R2U_BMC_ENGINE_HH
