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
        "                  (per-SVA verdict, verdict source, retries,\n"
        "                  CNF size, solve time)\n"
        "  --svas          list every evaluated SVA and its verdict\n"
        "  --dfg-dir DIR   write full-design and per-instruction DFG\n"
        "                  DOT files into DIR\n"
        "  --bound N       override the BMC bound from the metadata\n"
        "  --jobs N        SVA-evaluation workers (default: hardware\n"
        "                  concurrency; 1 = one worker, in order)\n"
        "  --full-unroll   disable cone-of-influence slicing: bit-blast\n"
        "                  the whole design per unroll (same verdicts,\n"
        "                  bigger CNFs; for differential testing)\n"
        "  --conflict-budget N  per-SVA solver conflict budget\n"
        "                  (overrides the metadata; -1 = unlimited)\n"
        "  --query-timeout S    per-SVA wall-clock deadline, seconds\n"
        "  --total-timeout S    whole-run wall-clock deadline, seconds\n"
        "  --retry-escalation K re-solve budget/deadline Unknowns with\n"
        "                  budgets scaled by K per retry (K > 1\n"
        "                  enables; cheap first pass, escalate)\n"
        "  --max-retries N cap on escalated retries per SVA "
        "(default 3)\n"
        "  --engine E      proof engine per SVA query: bmc | kind |\n"
        "                  pdr | race (default race: a PDR pre-pass\n"
        "                  ahead of the incremental BMC solve; a PDR\n"
        "                  proof answers the query, anything else\n"
        "                  falls through to BMC. Verdicts and the\n"
        "                  emitted model are identical to --engine\n"
        "                  bmc; PDR can additionally close proofs\n"
        "                  as unbounded)\n"
        "  --portfolio[=N] race each SVA query across N diversified\n"
        "                  solver configurations (default 3); first\n"
        "                  definitive verdict wins and interrupts the\n"
        "                  rest. Verdicts and the emitted model are\n"
        "                  identical to the single-config path\n"
        "  --share-clauses / --no-share-clauses\n"
        "                  exchange low-LBD learnt clauses between\n"
        "                  portfolio racers at restart boundaries\n"
        "                  (default on when --portfolio)\n"
        "  --no-inprocess  disable CNF pre/inprocessing (bounded\n"
        "                  variable elimination, subsumption,\n"
        "                  self-subsuming resolution) on query CNFs\n"
        "  --validate MODE verdict validation: off | replay | full |\n"
        "                  sample=N (default sample=8: replay every\n"
        "                  counterexample through the reference\n"
        "                  simulator + a fresh pinned monitor solve,\n"
        "                  re-check every Nth proof in a fresh\n"
        "                  non-incremental context; mismatches are\n"
        "                  quarantined and degrade to Unknown)\n"
        "  --journal FILE  crash-safe run journal: validated verdicts\n"
        "                  are appended (fsync'd, checksummed) as they\n"
        "                  land\n"
        "  --resume        resume from --journal FILE: journaled\n"
        "                  verdicts are reused instead of re-solved\n"
        "                  (requires matching design/bound/unroll\n"
        "                  configuration; any --jobs is fine)\n"
        "  --cache DIR     cross-run verdict cache: each SVA query is\n"
        "                  keyed by a content hash of its COI slice,\n"
        "                  property, and bound; re-synthesis re-solves\n"
        "                  only queries whose content changed and\n"
        "                  replays the rest (model is bit-identical;\n"
        "                  --jobs and budgets do not affect the key)\n"
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
    int bound_override = -1;
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
            } else if (arg == "--retry-escalation") {
                synth_opts.retryEscalation =
                    parseDouble("--retry-escalation", next());
            } else if (arg == "--max-retries") {
                int n = parseInt("--max-retries", next());
                if (n < 0)
                    fatal("--max-retries expects a count >= 0");
                synth_opts.maxRetries = static_cast<unsigned>(n);
            } else if (arg == "--engine") {
                std::string e = next();
                if (e == "bmc") {
                    synth_opts.engine = bmc::EngineChoice::Bmc;
                } else if (e == "kind") {
                    synth_opts.engine = bmc::EngineChoice::KInduction;
                } else if (e == "pdr") {
                    synth_opts.engine = bmc::EngineChoice::Pdr;
                } else if (e == "race") {
                    synth_opts.engine = bmc::EngineChoice::Race;
                } else {
                    fatal("--engine expects bmc|kind|pdr|race, "
                          "got '%s'", e.c_str());
                }
            } else if (arg == "--portfolio" ||
                       arg.rfind("--portfolio=", 0) == 0) {
                synth_opts.portfolio = true;
                if (arg.size() > 12 && arg[11] == '=') {
                    int n = parseInt("--portfolio=N", arg.substr(12));
                    if (n < 2)
                        fatal("--portfolio=N expects N >= 2 racers");
                    synth_opts.portfolioRacers =
                        static_cast<unsigned>(n);
                }
            } else if (arg == "--share-clauses") {
                synth_opts.shareClauses = true;
            } else if (arg == "--no-share-clauses") {
                synth_opts.shareClauses = false;
            } else if (arg == "--no-inprocess") {
                synth_opts.inprocess = false;
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
