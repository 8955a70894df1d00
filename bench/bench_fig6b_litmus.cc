/**
 * @file
 * Regenerates Fig. 6b: litmus-test-only verification cost. Left —
 * RTLCheck's optimized variant (litmus verification without model
 * validation; here, the whole-design proof without the completion
 * side-proof). Right — per-test COATCheck-style evaluation on the
 * rtl2uspec-synthesized model (the black bars of Fig. 6a/6b, and the
 * artifact's A.5 per-test millisecond listing ending in "ALL TESTS
 * PASSES").
 */

#include <cstdio>

#include "bench_util.hh"
#include "check/campaign.hh"
#include "litmus/litmus.hh"
#include "rtlcheck/rtlcheck.hh"

using namespace r2u;

int
main()
{
    bench::banner("Fig. 6b — litmus-only verification: RTLCheck "
                  "(optimized) vs check on the synthesized model");

    auto cfg = bench::formalConfig();
    auto design = vscale::elaborateVscale(cfg);
    auto suite = litmus::standardSuite();
    size_t n = bench::quickMode() ? 12 : suite.size();

    auto synth = bench::synthesizeVscale();

    rtlcheck::Options fast;
    fast.maxSkew = 1; // the optimized variant explores fewer skews

    std::printf("\n%-10s %14s %14s %8s\n", "test", "rtlcheck (s)",
                "check (ms)", "verdict");
    double rtl_total = 0, check_total = 0;
    bool all_pass = true;
    for (size_t i = 0; i < n; i++) {
        const litmus::Test &t = suite[i];
        auto rv = rtlcheck::verifyTest(design, cfg, t, fast);
        auto cv = check::checkTest(synth.model, t);
        rtl_total += rv.seconds;
        check_total += cv.ms;
        bool pass = cv.ok() && rv.verdict == bmc::Verdict::Proven;
        all_pass &= pass;
        std::printf("%-10s %14.3f %14.3f %8s\n", t.name.c_str(),
                    rv.seconds, cv.ms, pass ? "pass" : "FAIL");
    }

    // Artifact A.5 flavor: the per-test ms listing and final line.
    std::printf("\nCOATCheck-style evaluation on the synthesized "
                "model:\n");
    double sum = 0;
    for (size_t i = 0; i < n; i++) {
        auto cv = check::checkTest(synth.model, suite[i]);
        std::printf("%s.test,%f\n", suite[i].name.c_str(), cv.ms);
        sum += cv.ms;
    }
    std::printf("--- %f ms ---\n", sum);
    std::printf("%s\n", all_pass ? "======= ALL TESTS PASSES ======="
                                 : "======= FAILURES DETECTED =======");

    std::printf("\nSummary over %zu tests:\n", n);
    std::printf("  RTLCheck-style (optimized): avg %.3f s/test\n",
                rtl_total / static_cast<double>(n));
    std::printf("  check on synthesized model: avg %.3f ms/test "
                "(paper: 0.03 s avg, <1 s max)\n",
                check_total / static_cast<double>(n));
    return all_pass ? 0 : 1;
}
