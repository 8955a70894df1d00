/**
 * @file
 * The rtl2uspec end-to-end benchmark program.
 *
 *   r2u_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--root DIR] [--work-dir DIR] [--context JSON]
 *                 [--conflict-budget N]
 *
 * Runs one workload for S seconds, checks its outputs, and prints as
 * the last line of standard output one JSON object: correct,
 * attempted, failed and metrics. --trace 0 reports the end-to-end
 * metrics; --trace 1 reports the per-layer metrics and writes the
 * recorded spans as Chrome trace-event JSON under the work directory.
 * perfbench/run.py builds this program and is the command to run.
 */

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "serve/json.hh"

namespace
{

using namespace perfbench;

/**
 * End-to-end metrics, reported on every workload. What "one
 * operation" and "work" mean per workload:
 *   synth_cold_*:    one cold synthesis, Verilog netlist to written
 *                    .uarch; work = SVAs decided
 *   litmus_campaign: one runCampaign over the whole test set;
 *                    work = litmus tests checked
 *   serve_warm:      op = one warm synthesize request (client
 *                    latency); work = requests answered
 * op_cpu_ms is process CPU time per op (serve_warm: per request);
 * peak_rss_mb is the process peak (serve_warm: set by the cold
 * warm-up syntheses). The times and the rate are scaled to the host
 * probe's reference speed (see HostProbe); raw.* hold them unscaled.
 */
const char *const kEndToEnd[] = {"setup_s", "op_p50_ms", "op_cpu_ms",
                                 "work_per_s", "peak_rss_mb"};

/** Per-layer metrics (traced run); 0 where a layer does no work. */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"raw.setup_s", "s"},
    {"raw.op_p50_ms", "ms"},
    {"raw.op_cpu_ms", "ms"},
    {"raw.work_per_s", "1/s"},
    {"host.probe_cpu_ms", "ms"},
    {"host.probe_samples", "count"},
    {"ops_measured", "count"},
    {"ops_failed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
    {"trace.spans", "count"},
    {"verilog.elaborate_s", "s"},
    {"rtl2uspec.static_s", "s"},
    {"rtl2uspec.proof_s", "s"},
    {"rtl2uspec.post_s", "s"},
    {"rtl2uspec.svas", "count"},
    {"bmc.query_s_sum", "s"},
    {"bmc.query_s_p50", "s"},
    {"bmc.query_s_max", "s"},
    {"bmc.worker_busy_frac", "frac"},
    {"bmc.unroll_contexts", "count"},
    {"bmc.contexts_seeded", "count"},
    {"bmc.retries", "count"},
    {"bmc.unknowns", "count"},
    {"bmc.cnf_vars_mean", "count"},
    {"bmc.cnf_clauses_mean", "count"},
    {"bmc.cnf_clauses_added_sum", "count"},
    {"bmc.engine_races", "count"},
    {"bmc.bmc_wins", "count"},
    {"bmc.kind_wins", "count"},
    {"bmc.pdr_wins", "count"},
    {"bmc.unbounded_proofs", "count"},
    {"bmc.pdr_frames", "count"},
    {"bmc.validate_s", "s"},
    {"bmc.replay_s", "s"},
    {"bmc.recheck_s", "s"},
    {"bmc.replays", "count"},
    {"bmc.proof_rechecks", "count"},
    {"bmc.validation_mismatches", "count"},
    {"bmc.journal_hits", "count"},
    {"bmc.cache_hits", "count"},
    {"bmc.cache_misses", "count"},
    {"bmc.cache_appends", "count"},
    {"sat.conflicts", "count"},
    {"sat.propagations", "count"},
    {"sat.props_per_s", "1/s"},
    {"sat.inprocess_runs", "count"},
    {"sat.inprocess_clauses_removed", "count"},
    {"check.campaign_s", "s"},
    {"check.executions_total", "count"},
    {"check.executions_explored", "count"},
    {"check.executions_pruned", "count"},
    {"check.explored_frac", "frac"},
    {"check.test_ms_p50", "ms"},
    {"check.test_ms_max", "ms"},
    {"litmus.tests", "count"},
    {"uhb.branches", "count"},
    {"uhb.branches_per_s", "1/s"},
    {"mcm.sc_enumerate_s", "s"},
    {"litmus.generate_s", "s"},
    {"uspec.parse_s", "s"},
    {"serve.synth_samples", "count"},
    {"serve.synth_p90_ms", "ms"},
    {"serve.campaign_samples", "count"},
    {"serve.campaign_p50_ms", "ms"},
    {"serve.campaign_p90_ms", "ms"},
    {"serve.synth_handler_ms_p50", "ms"},
    {"serve.campaign_handler_ms_p50", "ms"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.ping_ms_p50", "ms"},
    {"serve.overloaded", "count"},
    {"serve.retries", "count"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "r2u_perfbench: %s\n"
                 "usage: r2u_perfbench --workload synth_cold_seq|"
                 "synth_cold_par|litmus_campaign|serve_warm\n"
                 "       --seed N --seconds S --trace 0|1 [--root DIR]\n"
                 "       [--work-dir DIR] [--context JSON] "
                 "[--conflict-budget N]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_workload = false;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value after " + arg).c_str());
        std::string v = argv[++i];
        try {
            if (arg == "--workload") {
                a.workload = v;
                have_workload = true;
            } else if (arg == "--seed") {
                a.seed = static_cast<uint64_t>(
                    r2u::parseInt64("--seed", v, 0));
            } else if (arg == "--seconds") {
                a.seconds = r2u::parseDouble("--seconds", v);
                if (!(a.seconds > 0 && a.seconds <= 600))
                    usage("--seconds must be in (0, 600]");
            } else if (arg == "--trace") {
                if (v != "0" && v != "1")
                    usage("--trace expects 0 or 1");
                a.trace = v == "1";
            } else if (arg == "--root") {
                a.root = v;
            } else if (arg == "--work-dir") {
                a.workDir = v;
            } else if (arg == "--context") {
                a.contextJson = v;
            } else if (arg == "--conflict-budget") {
                a.hasConflictBudget = true;
                a.conflictBudget = r2u::parseInt64("--conflict-budget", v);
            } else {
                usage(("unknown option " + arg).c_str());
            }
        } catch (const r2u::FatalError &e) {
            usage(e.what());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return a;
}

/** A finite number with all its digits. */
std::string
num(double v)
{
    if (!std::isfinite(v))
        v = 0;
    return r2u::strfmt("%.17g", v);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    r2u::setLogVerbosity(0);

    Tracer tracer(args.trace);
    HostProbe probe;
    Report rep;
    try {
        if (args.workload == "synth_cold_seq")
            rep = runSynth(args, 1, tracer);
        else if (args.workload == "synth_cold_par")
            rep = runSynth(args, 2, tracer);
        else if (args.workload == "litmus_campaign")
            rep = runLitmus(args, tracer);
        else if (args.workload == "serve_warm")
            rep = runServe(args, tracer);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "r2u_perfbench: %s: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    for (const auto &e : rep.errors)
        std::fprintf(stderr, "r2u_perfbench: check failed: %s\n",
                     e.c_str());
    if (rep.attempted < 1) {
        std::fprintf(stderr, "r2u_perfbench: no operation attempted\n");
        return 1;
    }

    // Scale the end-to-end times and the rate to the probe's reference
    // host speed; the unscaled values stay as raw.*.
    probe.stop();
    double slow = probe.slowdown();
    for (auto [name, factor] :
         {std::pair<std::string, double>{"setup_s", 1 / slow},
          {"op_p50_ms", 1 / slow},
          {"op_cpu_ms", 1 / slow},
          {"work_per_s", slow}}) {
        auto it = rep.metrics.find(name);
        if (it == rep.metrics.end())
            continue;
        rep.metrics["raw." + name] = it->second;
        it->second.first *= factor;
    }
    rep.set("host.probe_cpu_ms", probe.cpuMs(), "ms");
    rep.set("host.probe_samples", double(probe.samples()), "count");
    std::fprintf(stderr,
                 "r2u_perfbench: host probe %.3f ms cpu (%zu samples): "
                 "end-to-end times scaled by 1/%.4f\n",
                 probe.cpuMs(), probe.samples(), slow);

    std::string metrics;
    auto add = [&](const std::string &name, double value,
                   const std::string &unit) {
        metrics += r2u::strfmt(
            "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
            metrics.empty() ? "" : ", ", name.c_str(), num(value).c_str(),
            unit.c_str());
    };
    if (!args.trace) {
        for (const char *name : kEndToEnd) {
            auto it = rep.metrics.find(name);
            if (it == rep.metrics.end()) {
                std::fprintf(stderr, "r2u_perfbench: %s not measured\n",
                             name);
                return 1;
            }
            add(name, it->second.first, it->second.second);
        }
    } else {
        rep.set("ops_failed_frac",
                double(rep.failed) / double(rep.attempted), "frac");
        rep.set("trace.spans", double(tracer.spans()), "count");
        for (const auto &[name, unit] : kPerLayer) {
            auto it = rep.metrics.find(name);
            add(name, it == rep.metrics.end() ? 0.0 : it->second.first,
                unit);
        }
        std::filesystem::path dir =
            std::filesystem::path(args.workDir) / "traces";
        std::filesystem::create_directories(dir);
        std::string path =
            (dir / r2u::strfmt("%s-seed%llu.json", args.workload.c_str(),
                               (unsigned long long)args.seed))
                .string();
        r2u::writeFile(path, tracer.chromeJson(args.contextJson));
        std::fprintf(stderr, "r2u_perfbench: %zu spans written to %s\n",
                     tracer.spans(), path.c_str());
    }

    std::printf("context %s\n", args.contextJson.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                rep.correct ? "true" : "false", rep.attempted, rep.failed,
                metrics.c_str());
    std::fflush(stdout);
    return 0;
}
