/**
 * @file
 * Regenerates Fig. 5 of the paper: the synthesis-cost breakdown for
 * rtl2uspec on the multi-V-scale — SVA counts, runtimes, runtime/SVA,
 * and HBI hypotheses vs. proven HBIs split into local and global
 * state, per HBI category. Also reports the §5.1-style design-size
 * numbers and the §6.2 headline (one-time synthesis cost), and writes
 * the synthesized model to out/vscale.uarch plus the DFG DOT files.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "bench_util.hh"
#include "common/timer.hh"

using namespace r2u;

int
main(int argc, char **argv)
{
    unsigned jobs = 0; // 0: hardware concurrency
    bool full_unroll = false;
    rtl2uspec::SynthesisOptions budget_opts;
    std::string report_path;
    auto usage = [] {
        std::fprintf(
            stderr,
            "usage: bench_fig5_synthesis [--jobs N] "
            "[--full-unroll]\n"
            "  [--conflict-budget N] [--query-timeout S] "
            "[--total-timeout S]\n"
            "  [--retry-escalation K] [--report FILE] "
            "[--cache DIR]\n"
            "  [--engine bmc|kind|pdr|race]\n");
    };
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                fatal("missing argument after '%s'", arg.c_str());
            return argv[i];
        };
        // Numeric values go through the shared whole-token parsers
        // (r2u::parseInt & friends): `--jobs foo` is a usage error
        // (exit 2), not atoi's silent 0 or an uncaught exception.
        try {
            if (arg == "--jobs") {
                int v = parseInt("--jobs", next());
                if (v < 1)
                    fatal("--jobs expects a positive count");
                jobs = static_cast<unsigned>(v);
            } else if (arg == "--full-unroll") {
                full_unroll = true;
            } else if (arg == "--conflict-budget") {
                budget_opts.conflictBudget =
                    parseInt64("--conflict-budget", next());
            } else if (arg == "--query-timeout") {
                budget_opts.queryTimeoutSeconds =
                    parseDouble("--query-timeout", next());
            } else if (arg == "--total-timeout") {
                budget_opts.totalTimeoutSeconds =
                    parseDouble("--total-timeout", next());
            } else if (arg == "--retry-escalation") {
                budget_opts.retryEscalation =
                    parseDouble("--retry-escalation", next());
            } else if (arg == "--report") {
                report_path = next();
            } else if (arg == "--cache") {
                budget_opts.cacheDir = next();
            } else if (arg == "--engine") {
                std::string e = next();
                if (e == "bmc") {
                    budget_opts.engine = bmc::EngineChoice::Bmc;
                } else if (e == "kind") {
                    budget_opts.engine = bmc::EngineChoice::KInduction;
                } else if (e == "pdr") {
                    budget_opts.engine = bmc::EngineChoice::Pdr;
                } else if (e == "race") {
                    budget_opts.engine = bmc::EngineChoice::Race;
                } else {
                    fatal("--engine expects bmc|kind|pdr|race, got "
                          "'%s'", e.c_str());
                }
            } else {
                usage();
                return 2;
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            usage();
            return 2;
        }
    }

    bench::banner("Fig. 5 — rtl2uspec synthesis of a multi-V-scale "
                  "uspec model");

    auto cfg = bench::formalConfig();
    Timer elab_timer;
    auto design = vscale::elaborateVscale(cfg);
    double elab_s = elab_timer.seconds();

    auto st = design.netlist->stats();
    std::printf("\nDesign (cf. paper §5.1):\n");
    std::printf("  four-core multi-V-scale, XLEN=%u, %u-entry dmem, "
                "%u-entry imems\n",
                cfg.xlen, cfg.dmemWords, cfg.imemWords);
    std::printf("  %zu cells (%zu combinational), %zu registers "
                "(%zu flop bits), %zu memories (%zu bits)\n",
                st.cells, st.combCells, st.registers, st.flopBits,
                st.memories, st.memBits);
    std::printf("  Verilog parse + elaborate: %.2f s\n", elab_s);

    auto md = vscale::vscaleMetadata(cfg);
    rtl2uspec::SynthesisOptions synth_opts = budget_opts;
    synth_opts.jobs = jobs;
    synth_opts.fullUnroll = full_unroll;
    auto result = rtl2uspec::synthesize(design, md, synth_opts);

    std::printf("\n%s\n", result.report().c_str());

    std::printf("Per-SVA detail (verdicts as the property verifier "
                "reports them):\n");
    std::printf("  %-34s %-9s %-12s %10s %6s %9s %9s\n", "SVA",
                "category", "verdict", "time (s)", "hyp", "CNF vars",
                "clauses");
    std::vector<double> solve_times;
    for (const auto &sva : result.svas) {
        std::printf("  %-34s %-9s %-12s %10.3f %6u %9zu %9zu\n",
                    sva.name.c_str(), sva.category.c_str(),
                    bmc::verdictName(sva.verdict), sva.seconds,
                    sva.hypotheses, sva.cnfVars, sva.cnfClauses);
        solve_times.push_back(sva.seconds);
    }
    if (result.unknownSvas > 0) {
        std::printf("  %zu SVA(s) undetermined; model degraded "
                    "conservatively (%zu note(s))\n",
                    static_cast<size_t>(result.unknownSvas),
                    result.degraded.size());
    }
    double solve_p50 = bench::percentile(solve_times, 0.50);
    double solve_p95 = bench::percentile(solve_times, 0.95);
    std::printf("  solve time p50 %.3f s, p95 %.3f s; mean CNF "
                "%.0f vars / %.0f clauses (%s)\n",
                solve_p50, solve_p95, result.meanCnfVars,
                result.meanCnfClauses,
                result.fullUnroll ? "full unroll" : "COI-sliced");

    // Trust-but-verify overhead: replay validation rides along inside
    // proofSeconds, so the interesting number is its fraction of the
    // SVA-evaluation wall time (acceptance: < 10%).
    double replay_overhead = result.proofSeconds > 0
                                 ? result.replaySeconds /
                                       result.proofSeconds
                                 : 0.0;
    std::printf("\nVerdict validation (%s):\n",
                result.validateMode.c_str());
    std::printf("  %zu replay(s) %.3f s, %zu proof re-check(s) "
                "%.3f s (%zu inconclusive), %zu mismatch(es), "
                "%zu degraded\n",
                static_cast<size_t>(result.replays),
                result.replaySeconds,
                static_cast<size_t>(result.proofRechecks),
                result.recheckSeconds,
                static_cast<size_t>(result.recheckInconclusive),
                static_cast<size_t>(result.validationMismatches),
                static_cast<size_t>(result.validationFailures));
    std::printf("  replay overhead: %.2f%% of SVA-evaluation wall "
                "time (acceptance < 10%%)\n",
                100.0 * replay_overhead);

    if (result.cacheEnabled)
        std::printf("\nVerdict cache: %zu hit(s), %zu miss(es) "
                    "(%zu invalidated), %zu verdict(s) appended, "
                    "SVA evaluation %.3f s\n",
                    static_cast<size_t>(result.cacheHits),
                    static_cast<size_t>(result.cacheMisses),
                    static_cast<size_t>(result.cacheInvalidations),
                    static_cast<size_t>(result.cacheAppends),
                    result.proofSeconds);

    // Eager-vs-sliced comparison: rerun SVA evaluation in the
    // opposite unroll mode at the same job count.
    auto other = bench::synthesizeVscale(false, jobs, !full_unroll);
    const auto &eager = full_unroll ? result : other;
    const auto &sliced = full_unroll ? other : result;
    std::printf("\nCOI slicing vs full unroll (same %u-worker run):\n",
                result.jobs);
    std::printf("  full unroll: proof %.2f s, %.0f CNF vars/query "
                "mean\n",
                eager.proofSeconds, eager.meanCnfVars);
    std::printf("  COI-sliced:  proof %.2f s, %.0f CNF vars/query "
                "mean\n",
                sliced.proofSeconds, sliced.meanCnfVars);
    std::printf("  speedup %.2fx, CNF var reduction %.2fx, models "
                "%s\n",
                eager.proofSeconds / sliced.proofSeconds,
                eager.meanCnfVars / sliced.meanCnfVars,
                eager.model.print() == sliced.model.print()
                    ? "identical"
                    : "DIFFERENT (BUG)");
    std::printf("  per category (CNF vars/query mean, full unroll -> "
                "sliced):\n");
    for (const auto &[cat, ecs] : eager.stats) {
        auto it = sliced.stats.find(cat);
        if (it == sliced.stats.end() || !ecs.svas || !it->second.svas)
            continue;
        double ev = static_cast<double>(ecs.cnfVarsSum) / ecs.svas;
        double sv = static_cast<double>(it->second.cnfVarsSum) /
                    it->second.svas;
        std::printf("    %-9s %8.0f -> %8.0f (%.2fx)\n", cat.c_str(),
                    ev, sv, ev / sv);
    }

    // SAT-engine configuration rows: the default single-config
    // incremental path vs. portfolio racing and vs. inprocessing
    // disabled, at the same job count. Verdicts and the emitted model
    // must be identical across all three; proof time is the row.
    // The comparison rows must re-solve, not replay — never hand the
    // secondary runs the main run's populated cache.
    rtl2uspec::SynthesisOptions port_opts = synth_opts;
    port_opts.portfolio = true;
    port_opts.cacheDir.clear();
    auto port = bench::synthesizeVscaleWith(port_opts);
    rtl2uspec::SynthesisOptions noinp_opts = synth_opts;
    noinp_opts.inprocess = false;
    noinp_opts.cacheDir.clear();
    auto noinp = bench::synthesizeVscaleWith(noinp_opts);
    bool port_same = port.model.print() == result.model.print();
    bool noinp_same = noinp.model.print() == result.model.print();
    std::printf("\nSAT engine configuration (same %u-worker run):\n",
                result.jobs);
    std::printf("  default:      proof %.2f s (%zu/%zu contexts "
                "warm-seeded, %zu inprocess pass(es))\n",
                result.proofSeconds,
                static_cast<size_t>(result.contextsSeeded),
                static_cast<size_t>(result.unrollContexts),
                static_cast<size_t>(result.inprocessRuns));
    std::printf("  portfolio:    proof %.2f s (%zu race(s), %zu "
                "challenger win(s), %zu clause(s) imported), model "
                "%s\n",
                port.proofSeconds,
                static_cast<size_t>(port.portfolioRaces),
                static_cast<size_t>(port.portfolioChallengerWins),
                static_cast<size_t>(port.sharedImported),
                port_same ? "identical" : "DIFFERENT (BUG)");
    std::printf("  no-inprocess: proof %.2f s, model %s\n",
                noinp.proofSeconds,
                noinp_same ? "identical" : "DIFFERENT (BUG)");

    // Proof-engine comparison: plain incremental BMC vs. the default
    // race mode (a PDR pre-pass ahead of BMC). Verdicts and the model
    // must be identical; the pre-pass additionally closes frame-local
    // proofs as *unbounded* — generality no bound of plain BMC has.
    rtl2uspec::SynthesisOptions bmc_opts = synth_opts;
    bmc_opts.engine = bmc::EngineChoice::Bmc;
    bmc_opts.cacheDir.clear();
    rtl2uspec::SynthesisOptions race_opts = synth_opts;
    race_opts.engine = bmc::EngineChoice::Race;
    race_opts.cacheDir.clear();
    const bool main_is_race =
        synth_opts.engine == bmc::EngineChoice::Race;
    const bool main_is_bmc =
        synth_opts.engine == bmc::EngineChoice::Bmc;
    auto bmc_run = main_is_bmc ? result
                               : bench::synthesizeVscaleWith(bmc_opts);
    auto race_run = main_is_race
                        ? result
                        : bench::synthesizeVscaleWith(race_opts);
    bool engine_same =
        bmc_run.model.print() == race_run.model.print();
    std::printf("\nProof engine (same %u-worker run):\n", result.jobs);
    std::printf("  bmc:  proof %.2f s\n", bmc_run.proofSeconds);
    std::printf("  race: proof %.2f s (%zu race(s); wins bmc=%zu "
                "kind=%zu pdr=%zu; %zu unbounded proof(s), "
                "%zu PDR frame(s), %zu obligation(s)), model %s\n",
                race_run.proofSeconds,
                static_cast<size_t>(race_run.engineRaces),
                static_cast<size_t>(race_run.bmcWins),
                static_cast<size_t>(race_run.kindWins),
                static_cast<size_t>(race_run.pdrWins),
                static_cast<size_t>(race_run.unboundedProofs),
                static_cast<size_t>(race_run.pdrFrames),
                static_cast<size_t>(race_run.pdrObligations),
                engine_same ? "identical" : "DIFFERENT (BUG)");

    // Worker scaling at race defaults: the paper-scale question is
    // how the full SVA sweep behaves when the host actually has the
    // threads (8- and 16-worker rows, quick mode trims to 8).
    std::vector<unsigned> scale_jobs{8};
    if (!bench::quickMode())
        scale_jobs.push_back(16);
    struct ScaleRow
    {
        unsigned jobs;
        rtl2uspec::SynthesisResult res;
    };
    std::vector<ScaleRow> scale_rows;
    std::printf("\nWorker scaling (engine %s):\n",
                race_run.engineMode.c_str());
    for (unsigned sj : scale_jobs) {
        rtl2uspec::SynthesisOptions sopts = race_opts;
        sopts.jobs = sj;
        auto sres = bench::synthesizeVscaleWith(sopts);
        bool same = sres.model.print() == race_run.model.print();
        std::printf("  %2u workers: proof %.2f s, total %.2f s, "
                    "%zu unbounded proof(s), model %s\n",
                    sj, sres.proofSeconds, sres.totalSeconds,
                    static_cast<size_t>(sres.unboundedProofs),
                    same ? "identical" : "DIFFERENT (BUG)");
        scale_rows.push_back(ScaleRow{sj, std::move(sres)});
    }

    std::printf("\nPer-instruction DFG membership (cf. Fig. 3c):\n");
    for (const auto &[instr, nodes] : result.instrNodes) {
        std::printf("  %s: ", instr.c_str());
        for (const auto &n : nodes)
            std::printf("%s ", n.c_str());
        std::printf("\n");
    }

    writeFile(bench::outPath("vscale.uarch"), result.model.print());
    writeFile(bench::outPath("full_design_dfg.dot"), result.fullDfgDot);
    for (const auto &[instr, dot] : result.instrDfgDots)
        writeFile(bench::outPath("dfg_" + instr + ".dot"), dot);

    // Machine-readable summary for scripted comparisons across runs.
    {
        std::string json = "{\n";
        json += strfmt("  \"jobs\": %u,\n", result.jobs);
        json += strfmt("  \"full_unroll\": %s,\n",
                       result.fullUnroll ? "true" : "false");
        json += strfmt("  \"unroll_contexts\": %llu,\n",
                       static_cast<unsigned long long>(
                           result.unrollContexts));
        json += strfmt("  \"contexts_seeded\": %llu,\n",
                       static_cast<unsigned long long>(
                           result.contextsSeeded));
        json += strfmt("  \"svas\": %zu,\n", result.svas.size());
        json += strfmt("  \"unknown_svas\": %zu,\n",
                       static_cast<size_t>(result.unknownSvas));
        json += strfmt("  \"degraded\": %zu,\n",
                       result.degraded.size());
        json += strfmt("  \"static_seconds\": %.3f,\n",
                       result.staticSeconds);
        json += strfmt("  \"proof_seconds\": %.3f,\n",
                       result.proofSeconds);
        json += strfmt("  \"post_seconds\": %.3f,\n",
                       result.postSeconds);
        json += strfmt("  \"total_seconds\": %.3f,\n",
                       result.totalSeconds);
        json += strfmt("  \"solve_seconds_p50\": %.4f,\n", solve_p50);
        json += strfmt("  \"solve_seconds_p95\": %.4f,\n", solve_p95);
        json += strfmt("  \"cnf_vars_mean\": %.1f,\n",
                       result.meanCnfVars);
        json += strfmt("  \"cnf_clauses_mean\": %.1f,\n",
                       result.meanCnfClauses);
        json += "  \"queries\": [\n";
        for (size_t i = 0; i < result.svas.size(); i++) {
            const auto &sva = result.svas[i];
            json += strfmt("    {\"name\": \"%s\", \"category\": "
                           "\"%s\", \"verdict\": \"%s\", \"source\": "
                           "\"%s\", \"retries\": %u, "
                           "\"seconds\": %.4f, \"cnf_vars\": "
                           "%zu, \"cnf_clauses\": %zu, \"coi_cells\": "
                           "%zu}%s\n",
                           sva.name.c_str(), sva.category.c_str(),
                           bmc::verdictName(sva.verdict),
                           bmc::verdictSourceName(sva.source),
                           sva.retries,
                           sva.seconds, sva.cnfVars, sva.cnfClauses,
                           sva.coiCells,
                           i + 1 < result.svas.size() ? "," : "");
        }
        json += "  ],\n";
        json += "  \"validation\": {\n";
        json += strfmt("    \"mode\": \"%s\",\n",
                       result.validateMode.c_str());
        json += strfmt("    \"replays\": %zu,\n",
                       static_cast<size_t>(result.replays));
        json += strfmt("    \"proof_rechecks\": %zu,\n",
                       static_cast<size_t>(result.proofRechecks));
        json += strfmt("    \"recheck_inconclusive\": %zu,\n",
                       static_cast<size_t>(result.recheckInconclusive));
        json += strfmt("    \"mismatches\": %zu,\n",
                       static_cast<size_t>(
                           result.validationMismatches));
        json += strfmt("    \"validation_failures\": %zu,\n",
                       static_cast<size_t>(result.validationFailures));
        json += strfmt("    \"replay_s\": %.4f,\n",
                       result.replaySeconds);
        json += strfmt("    \"recheck_s\": %.4f,\n",
                       result.recheckSeconds);
        json += strfmt("    \"validate_s\": %.4f,\n",
                       result.validateSeconds);
        json += strfmt("    \"proof_s\": %.4f,\n",
                       result.proofSeconds);
        json += strfmt("    \"replay_overhead_fraction\": %.5f\n",
                       replay_overhead);
        json += "  },\n";
        json += "  \"cache\": {\n";
        json += strfmt("    \"enabled\": %s,\n",
                       result.cacheEnabled ? "true" : "false");
        json += strfmt("    \"hits\": %zu,\n",
                       static_cast<size_t>(result.cacheHits));
        json += strfmt("    \"misses\": %zu,\n",
                       static_cast<size_t>(result.cacheMisses));
        json += strfmt("    \"invalidations\": %zu,\n",
                       static_cast<size_t>(result.cacheInvalidations));
        json += strfmt("    \"appends\": %zu\n",
                       static_cast<size_t>(result.cacheAppends));
        json += "  },\n";
        json += "  \"coi_comparison\": {\n";
        json += strfmt("    \"eager_proof_seconds\": %.3f,\n",
                       eager.proofSeconds);
        json += strfmt("    \"sliced_proof_seconds\": %.3f,\n",
                       sliced.proofSeconds);
        json += strfmt("    \"eager_cnf_vars_mean\": %.1f,\n",
                       eager.meanCnfVars);
        json += strfmt("    \"sliced_cnf_vars_mean\": %.1f,\n",
                       sliced.meanCnfVars);
        json += strfmt("    \"eager_cnf_clauses_mean\": %.1f,\n",
                       eager.meanCnfClauses);
        json += strfmt("    \"sliced_cnf_clauses_mean\": %.1f,\n",
                       sliced.meanCnfClauses);
        json += strfmt("    \"proof_speedup\": %.3f,\n",
                       eager.proofSeconds / sliced.proofSeconds);
        json += strfmt("    \"cnf_var_reduction\": %.3f,\n",
                       eager.meanCnfVars / sliced.meanCnfVars);
        json += strfmt("    \"models_identical\": %s\n",
                       eager.model.print() == sliced.model.print()
                           ? "true"
                           : "false");
        json += "  },\n";
        json += "  \"sat_config\": {\n";
        json += strfmt("    \"default_proof_seconds\": %.3f,\n",
                       result.proofSeconds);
        json += strfmt("    \"portfolio_proof_seconds\": %.3f,\n",
                       port.proofSeconds);
        json += strfmt("    \"no_inprocess_proof_seconds\": %.3f,\n",
                       noinp.proofSeconds);
        json += strfmt("    \"portfolio_races\": %zu,\n",
                       static_cast<size_t>(port.portfolioRaces));
        json += strfmt("    \"portfolio_challenger_wins\": %zu,\n",
                       static_cast<size_t>(
                           port.portfolioChallengerWins));
        json += strfmt("    \"portfolio_shared_imported\": %zu,\n",
                       static_cast<size_t>(port.sharedImported));
        json += strfmt("    \"inprocess_runs\": %zu,\n",
                       static_cast<size_t>(result.inprocessRuns));
        json += strfmt("    \"inprocess_clauses_removed\": %zu,\n",
                       static_cast<size_t>(
                           result.inprocessClausesRemoved));
        json += strfmt("    \"portfolio_model_identical\": %s,\n",
                       port_same ? "true" : "false");
        json += strfmt("    \"no_inprocess_model_identical\": %s\n",
                       noinp_same ? "true" : "false");
        json += "  },\n";
        json += "  \"engine\": {\n";
        json += strfmt("    \"mode\": \"%s\",\n",
                       result.engineMode.c_str());
        json += strfmt("    \"bmc_proof_seconds\": %.3f,\n",
                       bmc_run.proofSeconds);
        json += strfmt("    \"race_proof_seconds\": %.3f,\n",
                       race_run.proofSeconds);
        json += strfmt("    \"races\": %zu,\n",
                       static_cast<size_t>(race_run.engineRaces));
        json += strfmt("    \"bmc_wins\": %zu,\n",
                       static_cast<size_t>(race_run.bmcWins));
        json += strfmt("    \"kind_wins\": %zu,\n",
                       static_cast<size_t>(race_run.kindWins));
        json += strfmt("    \"pdr_wins\": %zu,\n",
                       static_cast<size_t>(race_run.pdrWins));
        json += strfmt("    \"unbounded_proofs\": %zu,\n",
                       static_cast<size_t>(race_run.unboundedProofs));
        json += strfmt("    \"pdr_frames\": %zu,\n",
                       static_cast<size_t>(race_run.pdrFrames));
        json += strfmt("    \"pdr_obligations\": %zu,\n",
                       static_cast<size_t>(race_run.pdrObligations));
        json += strfmt("    \"race_model_identical\": %s\n",
                       engine_same ? "true" : "false");
        json += "  },\n";
        json += "  \"scaling\": [\n";
        for (size_t i = 0; i < scale_rows.size(); i++) {
            const auto &row = scale_rows[i];
            json += strfmt(
                "    {\"jobs\": %u, \"proof_seconds\": %.3f, "
                "\"total_seconds\": %.3f, \"races\": %zu, "
                "\"unbounded_proofs\": %zu, "
                "\"model_identical\": %s}%s\n",
                row.jobs, row.res.proofSeconds, row.res.totalSeconds,
                static_cast<size_t>(row.res.engineRaces),
                static_cast<size_t>(row.res.unboundedProofs),
                row.res.model.print() == race_run.model.print()
                    ? "true"
                    : "false",
                i + 1 < scale_rows.size() ? "," : "");
        }
        json += "  ],\n";
        json += "  \"categories\": {\n";
        bool first = true;
        for (const auto &[cat, cs] : result.stats) {
            if (!first)
                json += ",\n";
            first = false;
            json += strfmt("    \"%s\": {\"svas\": %d, \"seconds\": "
                           "%.3f, \"hyp_local\": %d, \"hyp_global\": "
                           "%d, \"hbi_local\": %d, \"hbi_global\": %d}",
                           cat.c_str(), cs.svas, cs.seconds,
                           cs.hypLocal, cs.hypGlobal, cs.hbiLocal,
                           cs.hbiGlobal);
        }
        json += "\n  }\n}\n";
        writeFile(bench::outPath("BENCH_fig5.json"), json);
        std::printf("  JSON summary written to %s\n",
                    bench::outPath("BENCH_fig5.json").c_str());
    }

    if (!report_path.empty()) {
        writeFile(report_path, result.jsonReport());
        std::printf("  structured run report written to %s\n",
                    report_path.c_str());
    }

    std::printf("\nHeadline (paper: 6.84 min total, 3.34 s/SVA "
                "average on JasperGold):\n");
    if (result.unknownSvas == 0)
        std::printf("  synthesized a complete, proven-correct-by-"
                    "construction uspec model in %.2f s\n",
                    result.totalSeconds);
    else
        std::printf("  synthesized a conservatively DEGRADED uspec "
                    "model in %.2f s (%zu SVA(s) undetermined)\n",
                    result.totalSeconds,
                    static_cast<size_t>(result.unknownSvas));
    std::printf("  (static analysis %.2f s, SVA evaluation %.2f s, "
                "post-processing %.3f s)\n",
                result.staticSeconds, result.proofSeconds,
                result.postSeconds);
    std::printf("  model written to %s\n",
                bench::outPath("vscale.uarch").c_str());
    return 0;
}
