/**
 * @file
 * synth_cold_seq / synth_cold_par: cold synthesis of the formal
 * multi-V-scale, from the elaborated Verilog to the written .uarch,
 * repeated for the run's length. Set-up is metadata loading plus
 * elaboration; every synthesis starts with no journal and no cache.
 *
 * Why these two: --jobs 1 is what a 1-CPU CI host runs. It builds a
 * fresh unroll context for each of the 37 queries, so per-query
 * encoding and SAT propagation dominate and the solver counts repeat
 * exactly from run to run. --jobs 2 exercises the thread pool,
 * warm-seeded contexts and the race threads of the default parallel
 * path; there the slowest query and idle workers bound the wall time.
 * Two workers leave half of a 4-CPU host idle for the rest of the
 * system. The input is the paper's fixed design, so the seed does not
 * change it.
 */

#include <filesystem>
#include <mutex>

#include "bench.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "verilog/elaborate.hh"

namespace perfbench
{

namespace
{

constexpr size_t kExpectedSvas = 37;
/** Set-up repetitions before the first synthesis and after each. */
constexpr int kSetupReps = 20;

/** What one synthesis leaves behind for the per-layer metrics. */
struct SynthSample
{
    r2u::rtl2uspec::SynthesisResult res;
    std::vector<double> querySeconds; ///< primary solves (hook)
};

void
layerMetrics(Report &rep, const std::vector<SynthSample> &traced,
             unsigned jobs)
{
    // Times: median over the traced syntheses; counts: the last one
    // (they repeat exactly at --jobs 1).
    std::vector<double> st, pf, po, qsum, qp50, qmax, busy, val, rep_s,
        rec_s, pps;
    for (const auto &s : traced) {
        const auto &r = s.res;
        st.push_back(r.staticSeconds);
        pf.push_back(r.proofSeconds);
        po.push_back(r.postSeconds);
        double q = sum(s.querySeconds);
        qsum.push_back(q);
        qp50.push_back(median(s.querySeconds));
        qmax.push_back(maxOf(s.querySeconds));
        busy.push_back(r.proofSeconds > 0
                           ? q / (r.proofSeconds * std::max(1u, jobs))
                           : 0);
        val.push_back(r.validateSeconds);
        rep_s.push_back(r.replaySeconds);
        rec_s.push_back(r.recheckSeconds);
        uint64_t props = 0;
        for (const auto &sva : r.svas)
            props += sva.propagations;
        pps.push_back(q > 0 ? double(props) / q : 0);
    }
    rep.set("rtl2uspec.static_s", median(st), "s");
    rep.set("rtl2uspec.proof_s", median(pf), "s");
    rep.set("rtl2uspec.post_s", median(po), "s");
    rep.set("bmc.query_s_sum", median(qsum), "s");
    rep.set("bmc.query_s_p50", median(qp50), "s");
    rep.set("bmc.query_s_max", median(qmax), "s");
    rep.set("bmc.worker_busy_frac", median(busy), "frac");
    rep.set("bmc.validate_s", median(val), "s");
    rep.set("bmc.replay_s", median(rep_s), "s");
    rep.set("bmc.recheck_s", median(rec_s), "s");
    rep.set("sat.props_per_s", median(pps), "1/s");

    const auto &r = traced.back().res;
    uint64_t retries = 0, conflicts = 0, props = 0, added = 0;
    for (const auto &sva : r.svas) {
        retries += sva.retries;
        conflicts += sva.conflicts;
        props += sva.propagations;
        added += sva.cnfClausesAdded;
    }
    auto count = [&](const char *name, double v) {
        rep.set(name, v, "count");
    };
    count("rtl2uspec.svas", double(r.svas.size()));
    count("bmc.unroll_contexts", double(r.unrollContexts));
    count("bmc.contexts_seeded", double(r.contextsSeeded));
    count("bmc.retries", double(retries));
    count("bmc.unknowns", double(r.unknownSvas));
    count("bmc.cnf_vars_mean", r.meanCnfVars);
    count("bmc.cnf_clauses_mean", r.meanCnfClauses);
    count("bmc.cnf_clauses_added_sum", double(added));
    count("bmc.engine_races", double(r.engineRaces));
    count("bmc.bmc_wins", double(r.bmcWins));
    count("bmc.kind_wins", double(r.kindWins));
    count("bmc.pdr_wins", double(r.pdrWins));
    count("bmc.unbounded_proofs", double(r.unboundedProofs));
    count("bmc.pdr_frames", double(r.pdrFrames));
    count("bmc.replays", double(r.replays));
    count("bmc.proof_rechecks", double(r.proofRechecks));
    count("bmc.validation_mismatches", double(r.validationMismatches));
    count("bmc.journal_hits", double(r.journalHits));
    count("bmc.cache_hits", double(r.cacheHits));
    count("bmc.cache_misses", double(r.cacheMisses));
    count("bmc.cache_appends", double(r.cacheAppends));
    count("sat.conflicts", double(conflicts));
    count("sat.propagations", double(props));
    count("sat.inprocess_runs", double(r.inprocessRuns));
    count("sat.inprocess_clauses_removed",
          double(r.inprocessClausesRemoved));
}

} // namespace

Report
runSynth(const Args &args, unsigned jobs, Tracer &tracer)
{
    using namespace r2u;
    Report rep;
    SynthInput in = synthInput(args.root);
    std::string fixture = readFile(fixturePath(args.root));

    // Set-up: metadata + elaboration, repeated before the first
    // synthesis and again after each one, so that the median (setup_s)
    // samples the whole run rather than the host's state at its start.
    std::vector<double> setup, elab;
    vlog::ElabResult design;
    rtl2uspec::DesignMetadata md;
    auto set_up = [&] {
        for (int i = 0; i < kSetupReps; i++) {
            ScopedSpan span(tracer, "setup");
            auto t0 = Clock::now();
            md = rtl2uspec::loadMetadata(in.metaPath);
            auto t1 = Clock::now();
            {
                ScopedSpan e(tracer, "verilog.elaborateFiles", span.id());
                design = elaborate(in);
            }
            elab.push_back(secondsSince(t1));
            setup.push_back(secondsSince(t0));
        }
    };
    set_up();

    std::filesystem::create_directories(args.workDir);
    std::string out_path =
        args.workDir + strfmt("/synth_j%u.uarch", jobs);

    // Measure: cold syntheses back to back while the run length lasts
    // (at least one; two when tracing, so that one untraced and one
    // traced synthesis exist).
    std::vector<double> walls, cpus, walls_plain, walls_traced;
    std::vector<SynthSample> traced;
    double decided = 0;
    auto start = Clock::now();
    for (int i = 0;; i++) {
        size_t min_ops = tracer.on() ? 2 : 1;
        if (walls.size() >= min_ops && secondsSince(start) >= args.seconds)
            break;
        bool trace_this = tracer.on() && i % 2 == 1;

        releaseFreeMemory();
        SynthSample sample;
        std::mutex qmu;
        rtl2uspec::SynthesisOptions so;
        so.jobs = jobs;
        if (args.hasConflictBudget)
            so.conflictBudget = args.conflictBudget;
        uint64_t op_span = trace_this ? tracer.begin("synth.op") : 0;
        uint64_t syn_span =
            trace_this ? tracer.begin("rtl2uspec.synthesize", op_span) : 0;
        if (trace_this) {
            so.faultHook = [&](const bmc::Query &q,
                               bmc::CheckResult &r, // read only
                               bmc::SolveStage stage) {
                bool primary = stage == bmc::SolveStage::Primary;
                tracer.completed((primary ? "bmc.query " : "bmc.recheck ") +
                                     q.name,
                                 r.seconds, syn_span);
                if (primary) {
                    std::lock_guard<std::mutex> lock(qmu);
                    sample.querySeconds.push_back(r.seconds);
                }
            };
        }

        double cpu0 = processCpuSeconds();
        auto t0 = Clock::now();
        sample.res = rtl2uspec::synthesize(design, md, so);
        tracer.end(syn_span);
        {
            ScopedSpan emit(tracer, "uspec.print+write", op_span);
            writeFile(out_path, sample.res.model.print());
        }
        double wall = secondsSince(t0);
        double cpu = processCpuSeconds() - cpu0;
        tracer.end(op_span);

        const auto &r = sample.res;
        std::fprintf(stderr, "synth op %d: wall %.3f s, cpu %.3f s%s\n", i,
                     wall, cpu, trace_this ? " (traced)" : "");
        walls.push_back(wall);
        cpus.push_back(cpu);
        (trace_this ? walls_traced : walls_plain).push_back(wall);

        // Correctness: 37 SVAs, none undetermined or degraded, no
        // design bugs, and the written model byte-identical to the
        // committed fixture.
        long long bad = 0;
        for (const auto &sva : r.svas)
            if (sva.verdict == bmc::Verdict::Unknown || sva.degraded)
                bad++;
        rep.attempted += static_cast<long long>(
            std::max(r.svas.size(), kExpectedSvas));
        rep.failed += bad;
        decided += static_cast<double>(r.svas.size()) - double(bad);
        if (r.svas.size() != kExpectedSvas)
            rep.fail(strfmt("synthesis evaluated %zu SVAs, expected %zu",
                            r.svas.size(), kExpectedSvas));
        if (bad > 0 || r.unknownSvas > 0)
            rep.fail(strfmt("%lld SVA(s) undetermined or degraded "
                            "(unknown_svas=%llu)",
                            bad, (unsigned long long)r.unknownSvas));
        if (!r.bugs.empty())
            rep.fail(strfmt("synthesis reported %zu design bug(s)",
                            r.bugs.size()));
        if (readFile(out_path) != fixture)
            rep.fail("written model differs from the fixture " +
                     fixturePath(args.root));
        if (trace_this)
            traced.push_back(std::move(sample));
        set_up();
    }

    rep.set("setup_s", median(setup), "s");
    rep.set("op_p50_ms", median(walls) * 1e3, "ms");
    rep.set("op_cpu_ms", median(cpus) * 1e3, "ms");
    rep.set("work_per_s", decided / sum(walls), "1/s");
    rep.set("peak_rss_mb", peakRssMb(), "MB");

    rep.set("verilog.elaborate_s", median(elab), "s");
    rep.set("ops_measured", double(walls.size()), "count");
    if (!traced.empty()) {
        layerMetrics(rep, traced, jobs);
        rep.set("trace.overhead_frac",
                median(walls_traced) / median(walls_plain) - 1.0, "frac");
    }
    return rep;
}

} // namespace perfbench
