#include "bmc/engine.hh"

#include <algorithm>
#include <cctype>
#include <exception>
#include <filesystem>
#include <thread>
#include <utility>

#include "bmc/pdr.hh"
#include "bmc/validate.hh"
#include "common/logging.hh"
#include "common/timer.hh"

namespace r2u::bmc
{

using sat::Lit;

const char *
validateModeName(ValidateMode mode)
{
    switch (mode) {
      case ValidateMode::Off:
        return "off";
      case ValidateMode::Replay:
        return "replay";
      case ValidateMode::Sample:
        return "sample";
      case ValidateMode::Full:
        return "full";
    }
    panic("bad ValidateMode");
}

const char *
engineChoiceName(EngineChoice choice)
{
    switch (choice) {
      case EngineChoice::Bmc:
        return "bmc";
      case EngineChoice::Race:
        return "race";
    }
    panic("bad EngineChoice");
}

unsigned
resolveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/**
 * Per-worker state: one incremental context at the engine's bound,
 * for one drain(). Only the owning worker thread touches a Worker
 * after construction, so no locking is needed here.
 */
struct Engine::Worker
{
    std::unique_ptr<PropCtx> ctx;
    uint64_t contexts_built = 0;
    uint64_t contexts_seeded = 0;
    /** This worker claimed seed-builder duty (it must publish or
     *  abandon the seed before its first query completes). */
    bool seed_builder = false;

    PropCtx &
    contextFor(Engine &engine)
    {
        if (ctx)
            return *ctx;
        auto fresh = std::make_unique<PropCtx>(
            engine.nl_, engine.signals_, engine.options_, engine.bound_);
        // Warm start: the first worker to get here becomes the seed
        // builder and bit-blasts from the netlist; everyone else —
        // siblings in this batch and every worker of later batches —
        // waits for its snapshot and clones it, which is far cheaper
        // than encoding the transition relation again. A builder that
        // dies before publishing hands the role to a waiter. A lone
        // worker has no sibling to serve, so jobs 1 encodes each
        // batch's context from the netlist: on the formal V-scale
        // (4-CPU host, Release) a snapshot held next to its context
        // raised peak RSS from 49 to 66 MB for a run about 6% faster
        // (6 alternating CLI pairs). Without a snapshot the jobs-1
        // proof re-checks encode from the netlist too, so they check
        // query retirement against contexts that never held a query.
        if (engine.jobs_ > 1) {
            std::unique_lock<std::mutex> lk(engine.seed_mu_);
            SeedSlot &slot = engine.seed_;
            while (!slot.seed && slot.building)
                engine.seed_cv_.wait(lk);
            if (slot.seed) {
                const PropCtx *seed = slot.seed.get();
                lk.unlock();
                fresh->seedFrom(*seed); // seed is immutable once set
                contexts_seeded++;
            } else {
                slot.building = true;
                seed_builder = true;
            }
        }
        ctx = std::move(fresh);
        contexts_built++;
        return *ctx;
    }
};

Engine::Engine(const nl::Netlist &netlist,
               const std::unordered_map<std::string, nl::CellId> &signals,
               Unroller::Options options, unsigned bound,
               EngineOptions engine_options)
    : nl_(netlist), signals_(signals), options_(std::move(options)),
      bound_(bound), eopts_(engine_options),
      jobs_(resolveJobs(engine_options.jobs))
{
    R2U_ASSERT(bound_ > 0, "engine needs a positive default bound");
    if (!eopts_.cexVcdDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(eopts_.cexVcdDir, ec);
        if (ec)
            fatal("cannot create --cex-vcd directory %s: %s",
                  eopts_.cexVcdDir.c_str(), ec.message().c_str());
    }
    if (eopts_.totalSeconds >= 0) {
        has_total_deadline_ = true;
        total_deadline_ =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(eopts_.totalSeconds));
    }
}

Engine::~Engine() = default;

size_t
Engine::enqueue(Query query)
{
    R2U_ASSERT(query.prop != nullptr, "query without a property");
    batch_.push_back(std::move(query));
    return batch_.size() - 1;
}

bool
Engine::stopRequested() const
{
    return eopts_.stop && eopts_.stop->load(std::memory_order_relaxed);
}

bool
Engine::queryLimits(SolveLimits &limits, bool &total_binding) const
{
    total_binding = false;
    if (stopRequested())
        return false;

    limits = SolveLimits{};
    limits.cancel = eopts_.stop;
    // A budget of 0 is a legal "give up immediately".
    if (eopts_.conflictBudget >= 0)
        limits.conflicts = eopts_.conflictBudget;

    double query_deadline =
        eopts_.querySeconds >= 0 ? eopts_.querySeconds : -1.0;
    if (has_total_deadline_) {
        double remaining =
            std::chrono::duration<double>(
                total_deadline_ - std::chrono::steady_clock::now())
                .count();
        if (remaining <= 0)
            return false;
        if (query_deadline < 0 || remaining < query_deadline) {
            query_deadline = remaining;
            total_binding = true;
        }
    }
    limits.seconds = query_deadline;
    return true;
}

namespace
{

/** A query that was never solved (cancelled while queued). */
CheckResult
cancelledResult(unsigned bound)
{
    CheckResult result;
    result.bound = bound;
    result.verdict = Verdict::Unknown;
    result.source = VerdictSource::Cancelled;
    return result;
}

/**
 * Rewrite the checker-level verdict source with engine knowledge: a
 * solver deadline that was really the clamped total deadline.
 */
void
refineSource(CheckResult &result, bool total_binding)
{
    if (result.source == VerdictSource::QueryDeadline && total_binding)
        result.source = VerdictSource::TotalDeadline;
}

/**
 * The end of the quarantine road: neither the original evidence nor a
 * fresh re-solve produced a self-consistent definite verdict. Degrade
 * to Unknown per the PR 3 policy (synthesis treats it exactly like a
 * budget Unknown: drop the hypothesis, never trust the verdict) and
 * pack the diagnostic bundle into validationNote.
 */
void
degradeToValidationFailure(CheckResult &result, const std::string &why)
{
    std::string diag = strfmt(
        "validation failure: %s\n"
        "primary verdict: %s (%s), bound %u\n"
        "cnf: %zu vars, %zu clauses (+%zu vars / +%zu clauses this "
        "query)\n",
        why.c_str(), verdictName(result.verdict),
        verdictSourceName(result.source), result.bound,
        result.cnfVars, result.cnfClauses, result.cnfVarsAdded,
        result.cnfClausesAdded);
    if (!result.trace.steps.empty())
        diag += "quarantined trace:\n" + result.trace.toString();
    result.verdict = Verdict::Unknown;
    result.source = VerdictSource::ValidationFailed;
    result.validated = false;
    result.trace = Trace{};
    result.validationNote = std::move(diag);
}

} // namespace

std::string
Engine::vcdPathFor(const Query &query) const
{
    if (eopts_.cexVcdDir.empty())
        return "";
    std::string name = query.name.empty() ? "query" : query.name;
    for (char &c : name)
        if (!std::isalnum(static_cast<unsigned char>(c)))
            c = '_';
    return strfmt("%s/cex_%s_b%u.vcd", eopts_.cexVcdDir.c_str(),
                  name.c_str(), bound_);
}

CheckResult
Engine::quarantineSolve(const Query &query, bool warm_ok)
{
    SolveLimits limits;
    bool total_binding = false;
    if (!queryLimits(limits, total_binding)) {
        CheckResult r = cancelledResult(bound_);
        if (eopts_.faultHook)
            eopts_.faultHook(query, r, SolveStage::Quarantine);
        return r;
    }
    CheckResult r =
        checkProperty(nl_, signals_, options_, bound_, query.prop,
                      limits, warm_ok ? seedFor() : nullptr);
    refineSource(r, total_binding);
    if (eopts_.faultHook)
        eopts_.faultHook(query, r, SolveStage::Quarantine);
    return r;
}

void
Engine::validateResult(const Query &query, CheckResult &result,
                       bool recheck_proof)
{
    Timer vtimer;
    switch (result.verdict) {
      case Verdict::Unknown:
        // Already the degraded verdict; nothing to cross-check.
        return;

      case Verdict::Refuted: {
        std::string vcd = vcdPathFor(query);
        ReplayResult rep =
            replayTrace(nl_, signals_, options_, result.bound,
                        query.prop, result.trace, vcd);
        result.replays++;
        result.replaySeconds += rep.seconds;
        if (rep.ok) {
            result.validated = true;
            break;
        }
        // Quarantine: the counterexample does not stand on its own.
        // One fresh, non-incremental re-solve; if it refutes with a
        // trace that *does* replay, that independent evidence is
        // adopted. Anything else degrades to Unknown.
        result.validationMismatches++;
        warn("validate: counterexample for '%s' failed replay; "
             "quarantining and re-solving fresh",
             query.name.c_str());
        CheckResult fresh = quarantineSolve(query, /*warm_ok=*/false);
        if (fresh.verdict == Verdict::Refuted) {
            ReplayResult rep2 =
                replayTrace(nl_, signals_, options_, fresh.bound,
                            query.prop, fresh.trace, vcd);
            result.replays++;
            result.replaySeconds += rep2.seconds;
            if (rep2.ok) {
                result.trace = std::move(fresh.trace);
                result.validated = true;
                result.validationNote = strfmt(
                    "quarantine recovery: primary counterexample "
                    "failed replay but a fresh re-solve produced a "
                    "replayable refutation. primary replay "
                    "diagnostics:\n%s",
                    rep.note.c_str());
                break;
            }
        }
        degradeToValidationFailure(
            result,
            strfmt("counterexample failed replay and quarantine "
                   "re-solve answered %s.\nprimary replay "
                   "diagnostics:\n%s",
                   verdictName(fresh.verdict), rep.note.c_str()));
        break;
      }

      case Verdict::Proven: {
        if (!recheck_proof)
            break;
        // Routine spot-check: what it validates is the search (a
        // fresh solver, no incremental contamination), so the CNF may
        // warm-start from the published seed. A mismatch found here
        // still goes through the fully independent path above.
        CheckResult fresh = quarantineSolve(query, /*warm_ok=*/true);
        result.proofRechecks++;
        result.recheckSeconds += fresh.seconds;
        switch (fresh.verdict) {
          case Verdict::Proven:
            result.validated = true;
            break;
          case Verdict::Unknown:
            // The fresh solve hit a budget; neither confirms nor
            // contradicts. Keep the primary Proven verdict.
            result.recheckInconclusive++;
            break;
          case Verdict::Refuted: {
            result.validationMismatches++;
            warn("validate: proof re-check for '%s' found a "
                 "counterexample; replaying it",
                 query.name.c_str());
            std::string vcd = vcdPathFor(query);
            ReplayResult rep =
                replayTrace(nl_, signals_, options_, fresh.bound,
                            query.prop, fresh.trace, vcd);
            result.replays++;
            result.replaySeconds += rep.seconds;
            if (rep.ok) {
                // A concretely replayable counterexample beats the
                // incremental UNSAT: adopt the refutation.
                result.verdict = Verdict::Refuted;
                result.source = fresh.source;
                result.trace = std::move(fresh.trace);
                result.validated = true;
                result.validationNote =
                    "proof re-check refuted the property with a "
                    "replayable counterexample; Proven verdict "
                    "discarded";
            } else {
                degradeToValidationFailure(
                    result,
                    strfmt("proof re-check disagreed (Refuted) but "
                           "its counterexample failed replay.\n"
                           "re-check replay diagnostics:\n%s",
                           rep.note.c_str()));
            }
            break;
          }
        }
        break;
      }
    }
    result.validateSeconds += vtimer.seconds();
}

void
Engine::postProcess(size_t index, const Query &query,
                    CheckResult &result)
{
    if (eopts_.faultHook)
        eopts_.faultHook(query, result, SolveStage::Primary);

    if (eopts_.validate != ValidateMode::Off) {
        bool recheck_proof = false;
        switch (eopts_.validate) {
          case ValidateMode::Off:
          case ValidateMode::Replay:
            break;
          case ValidateMode::Sample:
            recheck_proof =
                index % std::max(1u, eopts_.validateSampleN) == 0;
            break;
          case ValidateMode::Full:
            recheck_proof = true;
            break;
        }
        validateResult(query, result, recheck_proof);
    }

    // Unhashed queries (contentHash 0) are never stored: their
    // identity is not content-derived, so a record would be unsound to
    // replay.
    if (result.verdict == Verdict::Unknown || query.contentHash == 0)
        return;
    VerdictStore::Record rec;
    rec.key = query.contentHash;
    rec.name = query.name;
    rec.verdict = result.verdict;
    rec.source = result.source;
    rec.validated = result.validated;
    rec.bound = result.bound;
    rec.seconds = result.seconds;
    rec.conflicts = result.conflicts;
    rec.propagations = result.propagations;
    // Proof generality: only Proven verdicts can be unbounded, and the
    // bound-independent secondary key is recorded exactly when the
    // proof is (a bounded record must never answer another bound's
    // query).
    rec.unbounded = result.unbounded && result.verdict == Verdict::Proven;
    rec.baseKey = rec.unbounded ? query.baseHash : 0;
    if (eopts_.journal && eopts_.journal->isOpen())
        result.journaled = eopts_.journal->append(rec);
    if (eopts_.cache && eopts_.cache->isOpen())
        result.cached = eopts_.cache->append(rec);
}

void
Engine::resolveFromStores(const std::vector<Query> &batch,
                          std::vector<CheckResult> &results,
                          std::vector<char> &done)
{
    auto opened = [](VerdictStore *store) {
        return store && store->isOpen() ? store : nullptr;
    };
    VerdictStore *journal = opened(eopts_.journal);
    VerdictStore *cache = opened(eopts_.cache);
    if (!journal && !cache)
        return;
    // Exact key first; on a miss an unbounded Proven proof of the same
    // cone + property, stored at any bound, still answers.
    auto find = [](const VerdictStore *store, const Query &q)
        -> const VerdictStore::Record * {
        if (!store)
            return nullptr;
        const VerdictStore::Record *rec = store->lookup(q.contentHash);
        return rec ? rec : store->lookupUnbounded(q.baseHash);
    };
    for (size_t i = 0; i < batch.size(); i++) {
        const Query &q = batch[i];
        if (q.contentHash == 0)
            continue;
        CheckResult r;
        // The journal (this configuration's own restart log) outranks
        // the cross-run cache.
        const VerdictStore::Record *rec = find(journal, q);
        r.fromJournal = rec != nullptr;
        if (!rec) {
            rec = find(cache, q);
            r.fromCache = rec != nullptr;
        }
        if (!rec) {
            if (cache) {
                stats_.cacheMisses++;
                if (cache->hasStaleEntry(q.name, bound_, q.contentHash))
                    stats_.cacheInvalidations++;
            }
            continue;
        }
        r.verdict = rec->verdict;
        r.source = rec->source;
        r.bound = rec->unbounded ? bound_ : rec->bound;
        r.seconds = rec->seconds;
        r.conflicts = rec->conflicts;
        r.propagations = rec->propagations;
        r.validated = rec->validated;
        r.unbounded = rec->unbounded;
        if (r.verdict == Verdict::Refuted)
            r.validationNote =
                r.fromJournal ? "verdict resumed from journal; the "
                                "counterexample trace is not stored"
                              : "verdict replayed from verdict cache; "
                                "the counterexample trace is not stored";
        results[i] = std::move(r);
        done[i] = 1;
    }
}

void
Engine::maybePublishSeed(Worker &worker, PropCtx &ctx)
{
    if (!std::exchange(worker.seed_builder, false))
        return;
    // Snapshot outside the lock: ctx belongs to this worker and the
    // slot is ours until we publish (building == true keeps waiters
    // parked on the condvar).
    auto seed = std::make_unique<PropCtx>(nl_, signals_, options_,
                                          bound_);
    seed->seedFrom(ctx);
    {
        std::lock_guard<std::mutex> lk(seed_mu_);
        seed_.seed = std::move(seed);
        seed_.building = false;
    }
    seed_cv_.notify_all();
}

const PropCtx *
Engine::seedFor()
{
    std::lock_guard<std::mutex> lk(seed_mu_);
    // A published seed is immutable and lives as long as the engine,
    // so handing out the raw pointer is safe.
    return seed_.seed.get();
}

void
Engine::abandonSeed(Worker &worker)
{
    if (!std::exchange(worker.seed_builder, false))
        return;
    {
        std::lock_guard<std::mutex> lk(seed_mu_);
        seed_.building = false;
    }
    seed_cv_.notify_all();
}

CheckResult
Engine::runIncremental(Worker &worker, const Query &query)
{
    Timer timer;
    CheckResult result;
    result.bound = bound_;

    SolveLimits limits;
    bool total_binding = false;
    if (!queryLimits(limits, total_binding))
        return cancelledResult(bound_);

    // PDR pre-pass (--engine race): within the engine's bound and the
    // query's limits, on this thread. Only a Proven answer is taken —
    // BMC owns every refutation and its trace — so the verdict is the
    // one BMC would return and only its generality (unbounded or not)
    // differs.
    if (query.frameProp && eopts_.engine == EngineChoice::Race) {
        result.engineRaced = true;
        PdrOptions popts;
        popts.bound = bound_;
        popts.limits = limits;
        PdrResult pr = checkPdr(nl_, signals_, options_, query.seeds,
                                query.frameProp, popts);
        if (pr.verdict == Verdict::Proven) {
            result.verdict = Verdict::Proven;
            result.source = VerdictSource::Race;
            result.engine = EngineKind::Pdr;
            result.unbounded = pr.unbounded;
            result.pdrFrames = pr.frames;
            result.pdrObligations = pr.obligations;
            result.conflicts = pr.conflicts;
            result.propagations = pr.propagations;
            result.cnfVars = pr.cnfVars;
            result.cnfClauses = pr.cnfClauses;
            result.seconds = timer.seconds();
            return result;
        }
        // The BMC solve gets limits of its own; the pre-pass may have
        // spent part of the total deadline.
        if (!queryLimits(limits, total_binding)) {
            result.verdict = Verdict::Unknown;
            result.source = stopRequested() ? VerdictSource::Interrupted
                                            : VerdictSource::TotalDeadline;
            result.seconds = timer.seconds();
            return result;
        }
    }

    Timer phase; // encode: context build plus the property's CNF
    PropCtx &ctx = worker.contextFor(*this);
    // If contextFor made this worker the seed builder, waiters are
    // parked until the snapshot lands after CNF construction below.
    // On any exit that skips the normal path (the property callback
    // threw), hand the builder role back so they can proceed, and drop
    // the context if it is left mid-query, so the worker's next query
    // starts on a fresh context.
    struct ExitGuard
    {
        Engine &engine;
        Worker &worker;
        ~ExitGuard()
        {
            if (worker.ctx && worker.ctx->inQuery())
                worker.ctx.reset();
            engine.abandonSeed(worker);
        }
    } exit_guard{*this, worker};
    sat::Solver &solver = ctx.solver();
    // Variables and clauses live in the context: a retired query's are
    // gone, though variable indices are never reused.
    auto live_vars = [&solver] {
        return static_cast<size_t>(solver.numVars() -
                                   solver.numRetiredVars());
    };
    uint64_t conflicts_before = solver.stats().conflicts;
    uint64_t props_before = solver.stats().propagations;
    size_t vars_before = live_vars();
    size_t clauses_before = static_cast<size_t>(solver.numClauses());

    ctx.beginQuery();
    Lit bad = query.prop(ctx);
    ctx.assume(bad); // guarded assertion of the violation
    // The transition relation this query demanded is now in the CNF:
    // the snapshot point for warm-starting sibling contexts (the
    // snapshot holds no trace of this query, see PropCtx::seedFrom).
    maybePublishSeed(worker, ctx);
    result.encodeSeconds = phase.seconds();

    applyLimits(solver, limits);
    phase.reset(); // solve: the primary solve() and its trace
    switch (solver.solve({ctx.activation()})) {
      case sat::Result::Unsat:
        result.verdict = Verdict::Proven;
        result.source = VerdictSource::Solve;
        break;
      case sat::Result::Unknown:
        result.verdict = Verdict::Unknown;
        result.source = sourceFromStop(solver.stopReason());
        break;
      case sat::Result::Sat:
        result.verdict = Verdict::Refuted;
        result.source = VerdictSource::Solve;
        result.trace = extractTrace(ctx);
        break;
    }
    result.solveSeconds = phase.seconds();
    refineSource(result, total_binding);

    result.conflicts = solver.stats().conflicts - conflicts_before;
    result.propagations = solver.stats().propagations - props_before;
    result.cnfVars = live_vars();
    result.cnfClauses = static_cast<size_t>(solver.numClauses());
    result.cnfVarsAdded = result.cnfVars - vars_before;
    result.cnfClausesAdded = result.cnfClauses - clauses_before;
    // Retire the query: the context keeps the unrolling and the learnt
    // clauses that do not depend on it, and nothing else.
    ctx.endQuery();
    result.seconds = timer.seconds();
    return result;
}

std::vector<CheckResult>
Engine::drain()
{
    std::vector<Query> batch = std::move(batch_);
    batch_.clear();
    std::vector<CheckResult> results(batch.size());
    if (batch.empty())
        return results;
    stats_.queries += batch.size();

    // Queries with a stored (already-validated) verdict are answered
    // up front, single-threaded, and never dispatched.
    std::vector<char> done(batch.size(), 0);
    resolveFromStores(batch, results, done);

    auto accumulate = [this](const CheckResult &r) {
        stats_.cnfVarsAdded += r.cnfVarsAdded;
        stats_.cnfClausesAdded += r.cnfClausesAdded;
        if (r.verdict == Verdict::Unknown)
            stats_.unknowns++;
        stats_.replays += r.replays;
        stats_.proofRechecks += r.proofRechecks;
        stats_.recheckInconclusive += r.recheckInconclusive;
        stats_.validationMismatches += r.validationMismatches;
        if (r.source == VerdictSource::ValidationFailed)
            stats_.validationFailures++;
        if (r.fromJournal)
            stats_.journalHits++;
        if (r.journaled)
            stats_.journalAppends++;
        if (r.fromCache)
            stats_.cacheHits++;
        if (r.cached)
            stats_.cacheAppends++;
        stats_.replaySeconds += r.replaySeconds;
        stats_.recheckSeconds += r.recheckSeconds;
        stats_.validateSeconds += r.validateSeconds;
        if (r.engineRaced)
            stats_.engineRaces++;
        // Per-engine win attribution: only verdicts *solved* this run
        // count (journal/cache replays already counted when produced).
        if (r.verdict != Verdict::Unknown && !r.fromJournal &&
            !r.fromCache) {
            switch (r.engine) {
              case EngineKind::Bmc:
                stats_.bmcWins++;
                break;
              case EngineKind::Pdr:
                stats_.pdrWins++;
                break;
            }
        }
        if (r.unbounded)
            stats_.unboundedProofs++;
        stats_.pdrFrames += r.pdrFrames;
        stats_.pdrObligations += r.pdrObligations;
    };

    // Worker contexts live for this batch only: a context accumulates
    // every query's CNF and learnt clauses, so keeping it across
    // batches would grow memory without bound. The seed published at
    // jobs > 1 stays and warm-starts the next batch's contexts.
    std::vector<std::unique_ptr<Worker>> workers;
    for (unsigned w = 0; w < jobs_; w++)
        workers.push_back(std::make_unique<Worker>());

    std::vector<std::exception_ptr> errors(batch.size());
    auto serve = [&](size_t i, Worker &worker) {
        try {
            results[i] = runIncremental(worker, batch[i]);
            postProcess(i, batch[i], results[i]);
        } catch (...) {
            errors[i] = std::current_exception();
        }
    };

    if (jobs_ == 1) {
        // One worker on the calling thread, in enqueue order: verdicts
        // and per-query solver counts repeat exactly run to run.
        for (size_t i = 0; i < batch.size(); i++)
            if (!done[i])
                serve(i, *workers[0]);
    } else {
        // The netlist's lazy topological order is computed by the
        // first caller and cached in a mutable member; force it here,
        // once, on this thread, so the pool workers only ever read it.
        nl_.validate();
        if (!pool_)
            pool_ = std::make_unique<ThreadPool>(jobs_);
        for (size_t i = 0; i < batch.size(); i++) {
            if (done[i])
                continue;
            pool_->submit([&serve, &workers, i](unsigned w) {
                serve(i, *workers[w]);
            });
        }
        pool_->wait();
        stats_.steals = pool_->steals();
    }

    for (const auto &w : workers) {
        stats_.unrollContexts += w->contexts_built;
        stats_.contextsSeeded += w->contexts_seeded;
    }
    for (const CheckResult &r : results)
        accumulate(r);

    for (size_t i = 0; i < batch.size(); i++)
        if (errors[i])
            std::rethrow_exception(errors[i]);
    return results;
}

} // namespace r2u::bmc
