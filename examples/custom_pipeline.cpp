/**
 * @file
 * Applying rtl2uspec to a different microarchitecture: a two-stage,
 * two-core design (designs/tinycore.v) that shares the V-scale's
 * memory subsystem but has a completely different pipeline. The same
 * library calls — elaborate, describe the metadata, synthesize, check
 * — produce and verify a µspec model with a different shape (one PCR,
 * loads retiring from EX), demonstrating the paper's claim that only
 * modest per-design metadata is needed.
 */

#include <cstdio>

#include "check/campaign.hh"
#include "litmus/litmus.hh"
#include "rtl2uspec/synthesis.hh"
#include "verilog/elaborate.hh"

int
main()
{
    using namespace r2u;

    // Elaborate the two-core tiny SoC.
    std::string dir = R2U_DESIGN_DIR;
    vlog::ElabOptions opts;
    opts.top = "multi_tiny";
    vlog::ElabResult design = vlog::elaborateFiles(
        {dir + "/tinycore.v", dir + "/vscale_arbiter.v",
         dir + "/vscale_mem.v"},
        opts);
    auto st = design.netlist->stats();
    std::printf("multi_tiny: %zu cells, %zu registers, %zu memories\n",
                st.cells, st.registers, st.memories);

    // Metadata: two cores, a single PCR (IF feeds EX directly).
    rtl2uspec::DesignMetadata md;
    for (unsigned c = 0; c < 2; c++) {
        rtl2uspec::CoreMeta core;
        std::string prefix = "core_" + std::to_string(c) + ".";
        core.prefix = prefix;
        core.ifr = prefix + "inst_EX";
        core.pcrs = {prefix + "PC_EX"};
        core.imPc = prefix + "PC_IF";
        core.reqEn = prefix + "dmem_en";
        core.reqWen = prefix + "dmem_wen";
        md.cores.push_back(std::move(core));
    }
    rtl2uspec::InstrType sw{"sw", 0x0000707f, 0x00002023, false, true};
    rtl2uspec::InstrType lw{"lw", 0x0000707f, 0x00002003, true, false};
    md.instrs = {sw, lw};
    md.remote.memName = "dmem.mem";
    md.remote.grant = "grant";
    md.remote.pipelineRegs = {"dmem.req_valid_q", "dmem.req_wen_q",
                              "dmem.req_addr_q", "dmem.req_wdata_q",
                              "dmem.req_core_q"};
    md.remote.pipeValid = "dmem.req_valid_q";
    md.remote.pipeWen = "dmem.req_wen_q";
    md.remote.pipeCore = "dmem.req_core_q";
    md.exclude = {"arbiter.rr_ptr"};
    md.bound = 16;    // loads occupy EX longer on this pipeline
    md.issueByFrame = 6;

    rtl2uspec::SynthesisResult synth = rtl2uspec::synthesize(design, md);
    std::printf("\nsynthesized model (%zu rows, %zu axioms, %zu SVAs, "
                "%.1f s):\n%s\n",
                synth.model.stageNames.size(),
                synth.model.axioms.size(), synth.svas.size(),
                synth.totalSeconds, synth.model.print().c_str());

    // Two-core litmus tests against the synthesized model.
    int failures = 0;
    for (const char *name : {"mp", "sb", "lb", "corr", "coww", "2+2w"}) {
        for (const auto &t : litmus::standardSuite()) {
            if (t.name != name)
                continue;
            auto res = check::checkTest(synth.model, t);
            std::printf("%s\n", res.summary().c_str());
            failures += !res.pass || res.interestingObservable;
        }
    }
    std::printf("\n%s\n", failures == 0
                              ? "multi_tiny implements SC on these "
                                "tests — model proven from its RTL"
                              : "MCM violations found!");
    return failures;
}
