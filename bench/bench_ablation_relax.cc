/**
 * @file
 * Ablation of the §6.2 structural-HBI relaxation: rtl2uspec normally
 * proves one instruction-agnostic ordering SVA per pipeline stage; if
 * that is disabled, it must evaluate one SVA per (instruction type
 * pair, stage). The paper reports roughly an i² reduction in SVAs
 * from the optimization (i = instruction types). This bench runs the
 * synthesis both ways and compares SVA counts and runtimes for the
 * affected categories.
 */

#include <cstdio>

#include "bench_util.hh"

using namespace r2u;

namespace
{

void
summarize(const char *label, const rtl2uspec::SynthesisResult &r)
{
    int order_svas = 0;
    double order_time = 0;
    for (const auto &sva : r.svas) {
        if (sva.name.rfind("po_order_stage", 0) == 0) {
            order_svas++;
            order_time += sva.seconds;
        }
    }
    std::printf("%-28s stage-order SVAs: %3d  time: %7.3f s  "
                "(total synthesis: %.2f s, %zu SVAs)\n",
                label, order_svas, order_time, r.totalSeconds,
                r.svas.size());
}

} // namespace

int
main()
{
    bench::banner("Ablation — §6.2 relaxed structural HBI "
                  "hypotheses");

    auto cfg = bench::formalConfig();
    auto design = vscale::elaborateVscale(cfg);

    auto md = rtl2uspec::loadMetadata(vscale::metaPath());
    md.relaxPairs = true;
    auto relaxed = rtl2uspec::synthesize(design, md);

    md.relaxPairs = false;
    auto per_pair = rtl2uspec::synthesize(design, md);

    std::printf("\n");
    summarize("relaxed (paper default):", relaxed);
    summarize("per instruction pair:", per_pair);

    int i = 2; // instruction types in the model (lw, sw)
    std::printf("\nexpected SVA ratio ~ i^2 = %d (paper §6.2); "
                "both runs must agree on the model:\n", i * i);
    bool same_model =
        relaxed.model.print() == per_pair.model.print();
    std::printf("  models identical: %s\n", same_model ? "yes" : "NO");
    return same_model ? 0 : 1;
}
