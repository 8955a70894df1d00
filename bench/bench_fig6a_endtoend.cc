/**
 * @file
 * Regenerates Fig. 6a: per-litmus-test end-to-end verification cost.
 * Left bars — RTLCheck-style whole-design proof per test (model
 * validation + litmus verification in one shot, incomplete proofs
 * flagged). Right bars — rtl2uspec's amortized one-time synthesis
 * cost plus the per-test check on the synthesized model.
 *
 * Absolute numbers differ from the paper (our solver and substrate);
 * the shape to verify is: rtl2uspec's per-test cost is orders of
 * magnitude below the baseline once synthesis is amortized.
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
    bench::banner("Fig. 6a — end-to-end verification: RTLCheck "
                  "baseline vs rtl2uspec + check");

    auto cfg = bench::formalConfig();
    auto design = vscale::elaborateVscale(cfg);
    auto suite = litmus::standardSuite();
    size_t n = bench::quickMode() ? 12 : suite.size();

    // One-time synthesis, amortized over the evaluated tests.
    auto synth = bench::synthesizeVscale();
    double amortized = synth.totalSeconds / static_cast<double>(n);

    std::printf("\n%-10s %14s %5s %14s %14s\n", "test",
                "rtlcheck (s)", "cmpl", "amort synth (s)",
                "check (ms)");
    double rtl_total = 0, check_total = 0;
    int incomplete = 0, failures = 0;
    for (size_t i = 0; i < n; i++) {
        const litmus::Test &t = suite[i];
        auto rv = rtlcheck::verifyTest(design, cfg, t);
        auto cv = check::checkTest(synth.model, t);
        rtl_total += rv.seconds;
        check_total += cv.ms;
        incomplete += !rv.complete;
        failures += rv.verdict == bmc::Verdict::Refuted;
        failures += !cv.pass;
        std::printf("%-10s %14.3f %5s %14.3f %14.3f\n",
                    t.name.c_str(), rv.seconds,
                    rv.complete ? "yes" : "NO", amortized, cv.ms);
    }

    std::printf("\nSummary over %zu tests:\n", n);
    std::printf("  RTLCheck-style baseline: avg %.3f s/test "
                "(%d incomplete proofs)\n",
                rtl_total / static_cast<double>(n), incomplete);
    std::printf("  rtl2uspec: amortized synthesis %.3f s/test + "
                "check %.3f ms/test\n",
                amortized, check_total / static_cast<double>(n));
    std::printf("  speedup at %zu tests: %.1fx (grows linearly with "
                "suite size)\n",
                n,
                rtl_total / (synth.totalSeconds + check_total / 1e3));
    std::printf("  MCM violations found: %d (the multi-V-scale "
                "implements SC)\n", failures);
    std::printf("\nPaper's shape: RTLCheck avg 5786.63 s/test vs "
                "rtl2uspec 7.33 s amortized + 0.03 s/test.\n");
    return failures == 0 ? 0 : 1;
}
