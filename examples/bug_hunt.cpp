/**
 * @file
 * Bug hunting with rtl2uspec (paper §6.1): run the synthesis on the
 * *original* (buggy) multi-V-scale. One of the automatically
 * generated interface SVAs is refuted, and the counterexample trace
 * pinpoints the defect: a store-shaped encoding with an undefined
 * funct3 (3'b111) issues a memory write instead of raising an
 * exception. The same flow on the fixed design proves every SVA —
 * 100% proof coverage.
 *
 * Notably, ordinary litmus testing cannot find this bug: litmus
 * programs contain only valid instructions. Cross-check at the end:
 * the buggy RTL still executes MP correctly in simulation.
 */

#include <cstdio>

#include "isa/isa.hh"
#include "litmus/litmus.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "vscale/vscale.hh"

int
main()
{
    using namespace r2u;

    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16;
    cfg.buggy = true;

    std::printf("synthesizing a uspec model from the ORIGINAL "
                "(pre-fix) multi-V-scale...\n");
    auto design = vscale::elaborateVscale(cfg);
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());
    auto synth = rtl2uspec::synthesize(design, md);

    if (synth.bugs.empty()) {
        std::printf("unexpected: no bug found\n");
        return 1;
    }
    std::printf("\n%zu design bug(s) discovered during HBI-hypothesis "
                "evaluation:\n\n", synth.bugs.size());
    for (const auto &bug : synth.bugs)
        std::printf("%s\n", bug.c_str());

    // Decode the instruction register values seen in the trace.
    std::printf("decoding IFR values from the counterexample:\n");
    for (const auto &sva : synth.svas) {
        if (sva.verdict != bmc::Verdict::Refuted ||
            sva.name != "write_requests_are_valid_stores")
            continue;
        // The IFR value of core 0 at every cycle of the trace.
        for (const bmc::TraceStep &step : sva.trace.steps) {
            auto ifr = step.signals.find(vscale::coreSig(0, "inst_DX"));
            if (ifr == step.signals.end())
                continue;
            uint32_t word = static_cast<uint32_t>(ifr->second.toUint64());
            isa::Inst inst = isa::decode(word);
            std::printf("  inst_DX = 0x%08x  ->  %s%s\n", word,
                        isa::disasm(inst).c_str(),
                        inst.op == isa::Op::Invalid &&
                                (word & 0x7f) == 0x23
                            ? "   <-- store-shaped, invalid funct3"
                            : "");
        }
    }

    // Litmus testing cannot see this bug: valid programs behave.
    std::printf("\nwhy prior litmus-based flows missed it: the buggy "
                "RTL still runs MP correctly --\n");
    vscale::Harness h(cfg);
    litmus::Test mp = litmus::standardSuite()[0];
    h.loadProgram(0, mp.threadAssembly(0));
    h.loadProgram(1, mp.threadAssembly(1));
    h.resetAndRun(150);
    std::printf("  MP on buggy RTL: r1=%u r2=%u (never the forbidden "
                "1/0)\n", h.reg(1, 2), h.reg(1, 3));
    return 0;
}
