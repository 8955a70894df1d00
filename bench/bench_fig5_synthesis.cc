/**
 * @file
 * Regenerates Fig. 5 of the paper: the synthesis-cost breakdown for
 * rtl2uspec on the multi-V-scale — SVA counts, runtimes, runtime/SVA,
 * and HBI hypotheses vs. proven HBIs split into local and global
 * state, per HBI category. Also reports the §5.1-style design-size
 * numbers, the Fig. 3c per-instruction DFG membership and the §6.2
 * headline (one-time synthesis cost), and writes the synthesized model
 * to out/vscale.uarch, the DFG DOT files, and the structured run
 * report (the same JSON as `rtl2uspec --report`) to
 * out/BENCH_fig5.json.
 *
 * Usage: bench_fig5_synthesis [--jobs N]. Every other synthesis
 * option, and every comparison run (--full-unroll, --engine bmc,
 * other --jobs values), is the rtl2uspec CLI's.
 */

#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "common/timer.hh"

using namespace r2u;

int
main(int argc, char **argv)
{
    rtl2uspec::SynthesisOptions opts; // jobs 0: hardware concurrency
    try {
        for (int i = 1; i < argc; i++) {
            if (std::string(argv[i]) != "--jobs" || i + 1 >= argc)
                fatal("unknown or incomplete option '%s'", argv[i]);
            int v = parseInt("--jobs", argv[++i]);
            if (v < 1)
                fatal("--jobs expects a positive count");
            opts.jobs = static_cast<unsigned>(v);
        }
    } catch (const FatalError &e) {
        std::fprintf(stderr, "error: %s\nusage: bench_fig5_synthesis "
                             "[--jobs N]\n",
                     e.what());
        return 2;
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

    auto result = rtl2uspec::synthesize(
        design, rtl2uspec::loadMetadata(vscale::metaPath()), opts);

    std::printf("\n%s\n", result.report().c_str());

    std::printf("Per-instruction DFG membership (cf. Fig. 3c):\n");
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
    writeFile(bench::outPath("BENCH_fig5.json"), result.jsonReport());

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
    std::printf("  model written to %s, run report to %s\n",
                bench::outPath("vscale.uarch").c_str(),
                bench::outPath("BENCH_fig5.json").c_str());
    return 0;
}
