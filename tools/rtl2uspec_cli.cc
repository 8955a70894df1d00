/**
 * @file
 * The rtl2uspec command-line driver: Verilog in, µspec model out.
 *
 *   rtl2uspec --top multi_vscale --meta designs/vscale.meta \
 *             [-P XLEN=8 ...] [--out vscale.uarch] [--report] \
 *             [--dfg-dir DIR] design1.v design2.v ...
 *
 * Mirrors the paper artifact's make init / make intra_hbi /
 * make inter_hbi / make uspec pipeline in a single invocation.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <thread>

#include "bmc/engine.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "verilog/elaborate.hh"

namespace
{

// Numeric option parsing (r2u::parseInt64 & friends, shared with the
// benches): the whole token must parse; malformed/partial/overflowing
// values become a fatal() (usage error, exit 2).
using r2u::parseDouble;
using r2u::parseInt;
using r2u::parseInt64;

// SIGINT/SIGTERM land here; a watcher thread turns the flag into an
// async Engine::interrupt(), so the run winds down with sound Unknown
// verdicts, flushes its journal (appends are fsync'd as they land),
// writes what it has, and exits 5 instead of dying mid-solve.
std::atomic<bool> g_stop{false};

void
onStopSignal(int)
{
    g_stop.store(true);
}

void
usage()
{
    std::fprintf(
        stderr,
        "usage: rtl2uspec --top MODULE --meta FILE [options] files.v...\n"
        "  -P NAME=VALUE   top-level parameter override (repeatable)\n"
        "  --out FILE      write the synthesized model (default:\n"
        "                  <top>.uarch)\n"
        "  --table         print the Fig. 5-style synthesis report\n"
        "                  (this was --report before the JSON report\n"
        "                  existed)\n"
        "  --report FILE   write the structured JSON run report\n"
        "                  (per-SVA verdict, verdict source, CNF\n"
        "                  size, solve time)\n"
        "  --svas          list every evaluated SVA and its verdict\n"
        "  --dfg-dir DIR   write full-design and per-instruction DFG\n"
        "                  DOT files into DIR (created if missing)\n"
        "  --bound N       override the BMC bound from the metadata\n"
        "                  (N >= 1)\n"
        "  --jobs N        SVA-evaluation workers (default: hardware\n"
        "                  concurrency; 1 = one worker, in order)\n"
        "  --full-unroll   disable cone-of-influence slicing: bit-blast\n"
        "                  the whole design per unroll (same verdicts,\n"
        "                  bigger CNFs; for differential testing)\n"
        "  --conflict-budget N  per-SVA solver conflict budget\n"
        "                  (overrides the metadata; -1 = unlimited)\n"
        "  --query-timeout S    per-SVA wall-clock deadline, seconds\n"
        "  --total-timeout S    whole-run wall-clock deadline, seconds\n"
        "  --engine E      proof path per SVA query: race | bmc\n"
        "                  (default race: a PDR pre-pass ahead of the\n"
        "                  incremental BMC solve; a PDR proof answers\n"
        "                  the query, anything else falls through to\n"
        "                  BMC, which alone runs under --engine bmc.\n"
        "                  Verdicts and the emitted model are the\n"
        "                  same; PDR can additionally close proofs as\n"
        "                  unbounded)\n"
        "  --validate MODE verdict validation: off | replay | full |\n"
        "                  sample=N (default sample=8: replay every\n"
        "                  counterexample through the reference\n"
        "                  simulator + a fresh pinned monitor solve,\n"
        "                  re-check every Nth proof in a fresh\n"
        "                  non-incremental context; mismatches are\n"
        "                  quarantined and degrade to Unknown)\n"
        "  --journal FILE  crash-safe run journal: validated verdicts\n"
        "                  are appended (fsync'd, checksummed) as they\n"
        "                  land, keyed by each query's content hash;\n"
        "                  one writer per FILE (a second run on a live\n"
        "                  journal is an error)\n"
        "  --resume        resume from --journal FILE: journaled\n"
        "                  verdicts are reused instead of re-solved\n"
        "                  (requires the same journal format and\n"
        "                  design/bound/unroll configuration; any\n"
        "                  --jobs is fine)\n"
        "  --cache DIR     cross-run verdict cache: the same records\n"
        "                  and keys as the journal (a content hash of\n"
        "                  each query's COI slice, property, and bound)\n"
        "                  without the configuration binding;\n"
        "                  re-synthesis re-solves only queries whose\n"
        "                  content changed and replays the rest (model\n"
        "                  is bit-identical; --jobs and budgets do not\n"
        "                  affect the key)\n"
        "  --cex-vcd DIR   dump each refutation's replayed trace as a\n"
        "                  per-query VCD waveform under DIR\n"
        "  --quiet         suppress progress output\n"
        "exit codes: 0 ok, 1/2 errors, 3 design bugs found,\n"
        "            4 degraded synthesis (undetermined SVAs, no "
        "bugs),\n"
        "            5 interrupted (SIGINT/SIGTERM: journal flushed,\n"
        "            partial model still written)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace r2u;

    std::string top, meta_path, out_path, dfg_dir, report_path;
    std::vector<std::string> files;
    std::unordered_map<std::string, int64_t> params;
    bool table = false, list_svas = false;
    int bound_override = 0; // 0: the metadata bound
    rtl2uspec::SynthesisOptions synth_opts;

    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (++i >= argc)
                fatal("missing argument after '%s'", arg.c_str());
            return argv[i];
        };
        try {
            if (arg == "--top") {
                top = next();
            } else if (arg == "--meta") {
                meta_path = next();
            } else if (arg == "--out") {
                out_path = next();
            } else if (arg == "--dfg-dir") {
                dfg_dir = next();
            } else if (arg == "--bound") {
                bound_override = parseInt("--bound", next());
                if (bound_override < 1)
                    fatal("--bound expects a positive unroll bound");
            } else if (arg == "--jobs") {
                int jobs = parseInt("--jobs", next());
                if (jobs < 1)
                    fatal("--jobs expects a positive worker count");
                synth_opts.jobs = static_cast<unsigned>(jobs);
            } else if (arg == "--full-unroll") {
                synth_opts.fullUnroll = true;
            } else if (arg == "--conflict-budget") {
                synth_opts.conflictBudget =
                    parseInt64("--conflict-budget", next());
            } else if (arg == "--query-timeout") {
                synth_opts.queryTimeoutSeconds =
                    parseDouble("--query-timeout", next());
            } else if (arg == "--total-timeout") {
                synth_opts.totalTimeoutSeconds =
                    parseDouble("--total-timeout", next());
            } else if (arg == "--engine") {
                std::string e = next();
                if (e == "bmc") {
                    synth_opts.engine = bmc::EngineChoice::Bmc;
                } else if (e == "race") {
                    synth_opts.engine = bmc::EngineChoice::Race;
                } else {
                    fatal("--engine expects bmc|race, got '%s'",
                          e.c_str());
                }
            } else if (arg == "--validate") {
                std::string mode = next();
                if (mode == "off") {
                    synth_opts.validate = bmc::ValidateMode::Off;
                } else if (mode == "replay") {
                    synth_opts.validate = bmc::ValidateMode::Replay;
                } else if (mode == "full") {
                    synth_opts.validate = bmc::ValidateMode::Full;
                } else if (mode.rfind("sample=", 0) == 0) {
                    int n = parseInt("--validate sample=N",
                                     mode.substr(7));
                    if (n < 1)
                        fatal("--validate sample=N expects N >= 1");
                    synth_opts.validate = bmc::ValidateMode::Sample;
                    synth_opts.validateSampleN =
                        static_cast<unsigned>(n);
                } else {
                    fatal("--validate expects off|replay|full|"
                          "sample=N, got '%s'", mode.c_str());
                }
            } else if (arg == "--journal") {
                synth_opts.journalPath = next();
            } else if (arg == "--resume") {
                synth_opts.resumeJournal = true;
            } else if (arg == "--cache") {
                synth_opts.cacheDir = next();
            } else if (arg == "--cex-vcd") {
                synth_opts.cexVcdDir = next();
            } else if (arg == "--table") {
                table = true;
            } else if (arg == "--report") {
                report_path = next();
            } else if (arg == "--svas") {
                list_svas = true;
            } else if (arg == "--quiet") {
                setLogVerbosity(0);
            } else if (arg == "-P") {
                std::string kv = next();
                size_t eq = kv.find('=');
                if (eq == std::string::npos)
                    fatal("-P expects NAME=VALUE");
                params[kv.substr(0, eq)] =
                    parseInt64("-P", kv.substr(eq + 1), 0);
            } else if (arg == "--help" || arg == "-h") {
                usage();
                return 0;
            } else if (!arg.empty() && arg[0] == '-') {
                fatal("unknown option '%s'", arg.c_str());
            } else {
                files.push_back(arg);
            }
        } catch (const FatalError &e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            usage();
            return 2;
        }
    }
    if (top.empty() || meta_path.empty() || files.empty()) {
        usage();
        return 2;
    }
    if (synth_opts.resumeJournal && synth_opts.journalPath.empty()) {
        std::fprintf(stderr, "error: --resume requires --journal\n");
        return 2;
    }

    struct sigaction sa{};
    sa.sa_handler = onStopSignal;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);

    try {
        // Like --cache and --cex-vcd: make the directory before the
        // run, so a bad path fails in milliseconds, not after it.
        if (!dfg_dir.empty()) {
            std::error_code ec;
            std::filesystem::create_directories(dfg_dir, ec);
            if (ec)
                fatal("cannot create --dfg-dir %s: %s", dfg_dir.c_str(),
                      ec.message().c_str());
        }
        rtl2uspec::DesignMetadata md =
            rtl2uspec::loadMetadata(meta_path);
        if (bound_override > 0)
            md.bound = static_cast<unsigned>(bound_override);

        vlog::ElabOptions opts;
        opts.top = top;
        opts.params = params;
        vlog::ElabResult design = vlog::elaborateFiles(files, opts);
        auto st = design.netlist->stats();
        inform("elaborated '%s': %zu cells, %zu registers "
               "(%zu flop bits), %zu memories",
               top.c_str(), st.cells, st.registers, st.flopBits,
               st.memories);

        std::mutex engine_mu;
        bmc::Engine *live_engine = nullptr;
        synth_opts.engineHook = [&](bmc::Engine *engine) {
            std::lock_guard<std::mutex> lock(engine_mu);
            live_engine = engine;
        };
        std::atomic<bool> watcher_done{false};
        std::thread watcher([&] {
            while (!watcher_done.load(std::memory_order_relaxed)) {
                if (g_stop.load(std::memory_order_relaxed)) {
                    std::lock_guard<std::mutex> lock(engine_mu);
                    if (live_engine)
                        live_engine->interrupt();
                    return;
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
        });

        rtl2uspec::SynthesisResult synth;
        try {
            synth = rtl2uspec::synthesize(design, md, synth_opts);
        } catch (...) {
            watcher_done.store(true);
            watcher.join();
            throw;
        }
        watcher_done.store(true);
        watcher.join();

        if (!synth.bugs.empty()) {
            for (const auto &bug : synth.bugs)
                std::fprintf(stderr, "%s\n", bug.c_str());
            std::fprintf(stderr,
                         "synthesis found design bugs; the model was "
                         "still emitted but fix the design first\n");
        }
        if (table)
            std::printf("%s\n", synth.report().c_str());
        if (!report_path.empty()) {
            writeFile(report_path, synth.jsonReport());
            inform("run report written to %s", report_path.c_str());
        }
        if (list_svas) {
            for (const auto &sva : synth.svas)
                std::printf("%-36s %-9s %-12s %-18s %-10s %8.3fs "
                            "%8zu vars %8zu cls %6zu coi\n",
                            sva.name.c_str(), sva.category.c_str(),
                            bmc::verdictName(sva.verdict),
                            bmc::verdictSourceName(sva.source),
                            sva.fromJournal  ? "journal"
                            : sva.fromCache  ? "cache"
                            : sva.validated  ? "validated"
                                             : "-",
                            sva.seconds, sva.cnfVars, sva.cnfClauses,
                            sva.coiCells);
        }
        if (!dfg_dir.empty()) {
            writeFile(dfg_dir + "/full_design_dfg.dot",
                      synth.fullDfgDot);
            for (const auto &[instr, dot] : synth.instrDfgDots)
                writeFile(dfg_dir + "/dfg_" + instr + ".dot", dot);
        }
        std::string out =
            out_path.empty() ? top + ".uarch" : out_path;
        writeFile(out, synth.model.print());
        inform("uspec model written to %s (%zu rows, %zu axioms, "
               "%.1f s)",
               out.c_str(), synth.model.stageNames.size(),
               synth.model.axioms.size(), synth.totalSeconds);
        if (synth.unknownSvas > 0) {
            std::fprintf(stderr,
                         "warning: %zu SVA(s) undetermined; the "
                         "emitted model is conservatively degraded "
                         "(see %% notes in %s)\n",
                         static_cast<size_t>(synth.unknownSvas),
                         out.c_str());
        }
        if (g_stop.load()) {
            std::fprintf(stderr,
                         "interrupted: journaled verdicts are durable "
                         "and the partial model above is sound "
                         "(conservatively weak)\n");
            return 5;
        }
        if (!synth.bugs.empty())
            return 3;
        return synth.unknownSvas > 0 ? 4 : 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
