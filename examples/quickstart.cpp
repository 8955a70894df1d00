/**
 * @file
 * Quickstart: the complete rtl2uspec flow in ~50 effective lines.
 *
 *   1. Parse + elaborate the multi-V-scale SystemVerilog-subset RTL.
 *   2. Supply the paper's design metadata (IFR / PCRs / IM_PC,
 *      instruction encodings, request-response interface).
 *   3. Synthesize a µspec model (every HBI proven by the bundled
 *      SAT-based property checker).
 *   4. Verify a litmus test against the synthesized model.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "check/campaign.hh"
#include "litmus/litmus.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "vscale/vscale.hh"

int
main()
{
    using namespace r2u;

    // 1. Elaborate the processor RTL (narrow formal configuration:
    //    litmus-visible behavior is identical to the 32-bit build).
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16;
    vlog::ElabResult design = vscale::elaborateVscale(cfg);
    auto stats = design.netlist->stats();
    std::printf("elaborated multi_vscale: %zu cells, %zu registers, "
                "%zu memories\n",
                stats.cells, stats.registers, stats.memories);

    // 2. Design metadata (paper §4.2.1 / §4.3.4): designs/vscale.meta.
    rtl2uspec::DesignMetadata md =
        rtl2uspec::loadMetadata(vscale::metaPath());

    // 3. Synthesize the µspec model.
    rtl2uspec::SynthesisResult synth = rtl2uspec::synthesize(design, md);
    std::printf("\nsynthesized %zu-axiom model in %.1f s "
                "(%zu SVAs evaluated)\n",
                synth.model.axioms.size(), synth.totalSeconds,
                synth.svas.size());
    std::printf("\n--- synthesized vscale.uarch ---\n%s\n",
                synth.model.print().c_str());

    // 4. Check the classic message-passing litmus test.
    litmus::Test mp = litmus::Test::parse(R"(name mp
thread 0
w x 1
w y 1
thread 1
r y 2
r x 3
interesting 1:x2=1 & 1:x3=0)");
    check::TestResult res = check::checkTest(synth.model, mp);
    std::printf("litmus mp: %s\n", res.summary().c_str());
    std::printf("the forbidden non-SC outcome is %s\n",
                res.interestingObservable ? "OBSERVABLE (MCM bug!)"
                                          : "unobservable — the "
                                            "design preserves SC");
    return res.pass ? 0 : 1;
}
