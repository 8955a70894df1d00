/**
 * @file
 * A full MCM verification campaign (paper §5.2 / artifact A.5):
 * synthesize the multi-V-scale's µspec model once, then check the
 * whole 56-test suite against it with the parallel, pruned campaign
 * engine, validating every verdict against the operational SC
 * reference. Also demonstrates the litmus machinery: diy-style
 * generation from a user-supplied critical cycle, text-format round
 * trips, and DOT output for a forbidden execution.
 */

#include <cstdio>

#include "check/campaign.hh"
#include "common/strutil.hh"
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
    auto design = vscale::elaborateVscale(cfg);
    auto synth = rtl2uspec::synthesize(
        design, rtl2uspec::loadMetadata(vscale::metaPath()));
    std::printf("model synthesized in %.1f s; starting the litmus "
                "campaign\n\n", synth.totalSeconds);

    // One campaign call checks the whole suite: candidate executions
    // are grouped by outcome, distributed over the worker pool, and
    // outcomes already proven observable are pruned. Verdicts are
    // identical at any job count, with or without pruning.
    check::CampaignOptions opts;
    opts.jobs = 0; // hardware concurrency
    auto campaign =
        check::runCampaign(synth.model, litmus::standardSuite(), opts);

    int passed = 0;
    for (const auto &res : campaign.tests) {
        // ok() accepts an observable interesting outcome when the SC
        // reference allows that outcome too — seeing it is correct
        // behavior, not a violation.
        passed += res.ok();
        std::printf("%-10s %s  (%2d SC outcomes, %2d observable, "
                    "%3d/%3d executions solved, %6.2f ms)\n",
                    res.name.c_str(), res.ok() ? "PASS" : "FAIL",
                    res.scAllowedOutcomes, res.observableOutcomes,
                    res.executionsExplored, res.executionsTotal,
                    res.ms);
        if (!res.ok())
            for (const auto &v : res.violations)
                std::printf("    non-SC outcome observable: %s\n",
                            v.c_str());
    }
    std::printf("\n%d/%zu tests passed\n%s\n", passed,
                campaign.tests.size(), campaign.summary().c_str());

    // Generate a custom test from a critical cycle and check it too.
    const char *cycle = "Rfe PodRR Fre PodWW Wse PodWW";
    litmus::Test custom = litmus::generateFromCycle("my_cycle", cycle);
    std::printf("\ncustom diy-style test from '%s':\n%s", cycle,
                custom.print().c_str());
    opts.collectDot = true; // render a forbidden execution as DOT
    auto res = check::checkTest(synth.model, custom, opts);
    std::printf("%s\n", res.summary().c_str());
    if (!res.interestingDot.empty()) {
        std::string path =
            std::string(R2U_OUTPUT_DIR) + "/uhb_my_cycle.dot";
        writeFile(path, res.interestingDot);
        std::printf("cyclic µhb witness written to %s\n", path.c_str());
    }
    return campaign.failures == 0 && res.pass ? 0 : 1;
}
