/**
 * @file
 * Ablation of §4.4 node merging: rtl2uspec agglomerates state
 * elements with identical ordering behavior into mgnode_k rows to
 * "improve the efficiency and scalability of µspec model analyses".
 * This bench synthesizes merged and unmerged models and compares µhb
 * row counts, axiom/edge counts, and per-litmus-test check runtimes
 * across the 56-test suite.
 */

#include <cstdio>

#include "bench_util.hh"
#include "check/campaign.hh"
#include "litmus/litmus.hh"

using namespace r2u;

namespace
{

struct SuiteCost
{
    double ms = 0;
    int executions = 0;
    bool allPass = true;
};

SuiteCost
runSuite(const uspec::Model &model, size_t n)
{
    SuiteCost cost;
    auto suite = litmus::standardSuite();
    for (size_t i = 0; i < n; i++) {
        auto res = check::checkTest(model, suite[i]);
        cost.ms += res.ms;
        cost.executions += res.executionsExplored;
        cost.allPass &= res.pass && !res.interestingObservable;
    }
    return cost;
}

} // namespace

int
main()
{
    bench::banner("Ablation — §4.4 node merging");

    auto cfg = bench::formalConfig();
    auto design = vscale::elaborateVscale(cfg);
    size_t n = bench::quickMode() ? 12 : 56;

    auto md = rtl2uspec::loadMetadata(vscale::metaPath());
    md.mergeNodes = true;
    auto merged = rtl2uspec::synthesize(design, md);

    md.mergeNodes = false;
    auto unmerged = rtl2uspec::synthesize(design, md);

    SuiteCost mc = runSuite(merged.model, n);
    SuiteCost uc = runSuite(unmerged.model, n);

    auto edges = [](const uspec::Model &m) {
        size_t total = 0;
        for (const auto &ax : m.axioms)
            for (const auto &alt : ax.edgeAlternatives)
                total += alt.size();
        return total;
    };

    std::printf("\n%-24s %8s %8s %10s %14s %8s\n", "model", "rows",
                "axioms", "edge specs", "suite time(ms)", "pass");
    std::printf("%-24s %8zu %8zu %10zu %14.2f %8s\n", "merged (§4.4)",
                merged.model.stageNames.size(),
                merged.model.axioms.size(), edges(merged.model),
                mc.ms, mc.allPass ? "yes" : "NO");
    std::printf("%-24s %8zu %8zu %10zu %14.2f %8s\n", "unmerged",
                unmerged.model.stageNames.size(),
                unmerged.model.axioms.size(), edges(unmerged.model),
                uc.ms, uc.allPass ? "yes" : "NO");
    std::printf("\nmerging shrinks the µhb graph rows %.1fx and the "
                "check runtime %.2fx over %zu tests\n",
                static_cast<double>(unmerged.model.stageNames.size()) /
                    static_cast<double>(merged.model.stageNames.size()),
                uc.ms / mc.ms, n);
    return (mc.allPass && uc.allPass) ? 0 : 1;
}
