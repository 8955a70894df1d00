/**
 * @file
 * litmus_campaign: check::runCampaign at jobs=2 against the committed
 * synthesized V-scale model, repeated for the run's length. Set-up
 * parses the model, generates the test set and classifies every
 * generated cycle's interesting outcome with the SC reference.
 *
 * Why: the check, µhb and SC-reference layers do all the work and SAT
 * does none. The synthesized model is checked rather than the
 * hand-written vscale_sc.uarch because it yields about 25x more µhb
 * branches on the same suite, which is the load the checker meets
 * after synthesis.
 */

#include <set>

#include "bench.hh"
#include "check/campaign.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "gen.hh"
#include "mcm/sc_ref.hh"
#include "uspec/uspec.hh"

namespace perfbench
{

namespace
{

/** Set-up repetitions before the first campaign. */
constexpr int kSetupReps = 10;
constexpr unsigned kCampaignJobs = 2;
/** Seeded diy cycles per thread count (4 and 5 threads). */
constexpr int kCyclesPerSize = 6;

struct TestSet
{
    std::vector<r2u::litmus::Test> tests;
    /** Names of the generated critical cycles (SC-forbidden outcome). */
    std::set<std::string> cycles;
};

/**
 * The campaign's tests: the 56-test suite (pruning-friendly, many µhb
 * branches on the synthesized model), seeded 4- and 5-thread diy
 * cycles (mostly distinct outcomes, so pruning is bypassed), and two
 * coherence stress tests (thousands of candidates, few outcomes, so
 * pruning does most of the work). Only the cycles depend on the seed;
 * their count and sizes are fixed so the work is alike across seeds.
 */
TestSet
makeTests(uint64_t seed)
{
    TestSet ts;
    ts.tests = r2u::litmus::standardSuite();
    Rng rng(seed);
    for (int threads : {4, 5}) {
        for (int i = 0; i < kCyclesPerSize; i++) {
            std::string name = r2u::strfmt("diy%d_%02d", threads, i);
            ts.tests.push_back(r2u::litmus::generateFromCycle(
                name, diyCycle(rng, threads)));
            ts.cycles.insert(name);
        }
    }
    ts.tests.push_back(cohStress(4, 2));
    ts.tests.push_back(mixedStress(3));
    return ts;
}

} // namespace

Report
runLitmus(const Args &args, Tracer &tracer)
{
    using namespace r2u;
    Report rep;

    // Set-up, repeated before the first campaign and once after each,
    // so that the median (setup_s) samples the whole run rather than
    // the host's state at its start.
    std::vector<double> setup, parse_s, gen_s, sc_s;
    uspec::Model model;
    TestSet ts;
    auto set_up = [&] {
        ScopedSpan span(tracer, "setup");
        auto t0 = Clock::now();
        {
            ScopedSpan s(tracer, "uspec.Model::parse", span.id());
            model = uspec::Model::parse(readFile(fixturePath(args.root)));
        }
        parse_s.push_back(secondsSince(t0));
        auto t1 = Clock::now();
        {
            ScopedSpan s(tracer, "litmus.generate", span.id());
            ts = makeTests(args.seed);
        }
        gen_s.push_back(secondsSince(t1));
        auto t2 = Clock::now();
        {
            ScopedSpan s(tracer, "mcm.enumerateSC", span.id());
            for (const auto &t : ts.tests) {
                if (!ts.cycles.count(t.name))
                    continue;
                for (const auto &o : mcm::enumerateSC(t))
                    if (o.satisfies(t.interesting))
                        rep.fail("generated cycle " + t.name +
                                 ": interesting outcome is SC-allowed");
            }
        }
        sc_s.push_back(secondsSince(t2));
        setup.push_back(secondsSince(t0));
    };
    for (int i = 0; i < kSetupReps; i++)
        set_up();

    check::CampaignOptions co;
    co.jobs = kCampaignJobs;
    std::vector<double> walls, cpus, walls_plain, walls_traced;
    std::vector<double> test_ms;
    check::CampaignResult last;
    double tests_done = 0;
    auto start = Clock::now();
    for (int i = 0;; i++) {
        size_t min_ops = tracer.on() ? 2 : 1;
        if (walls.size() >= min_ops && secondsSince(start) >= args.seconds)
            break;
        bool trace_this = tracer.on() && i % 2 == 1;
        uint64_t span = trace_this ? tracer.begin("check.runCampaign") : 0;
        double cpu0 = processCpuSeconds();
        auto t0 = Clock::now();
        check::CampaignResult res = check::runCampaign(model, ts.tests, co);
        double wall = secondsSince(t0);
        cpus.push_back(processCpuSeconds() - cpu0);
        tracer.end(span);
        walls.push_back(wall);
        (trace_this ? walls_traced : walls_plain).push_back(wall);

        // Correctness: every test passes; every generated cycle's
        // SC-forbidden outcome is unobservable.
        long long bad = 0;
        for (const auto &t : res.tests) {
            if (!t.ok() || !t.pass)
                bad++;
            if (ts.cycles.count(t.name) && t.interestingObservable)
                rep.fail("cycle " + t.name +
                         ": SC-forbidden outcome observable");
        }
        rep.attempted += static_cast<long long>(ts.tests.size());
        rep.failed += bad;
        tests_done += double(res.tests.size()) - double(bad);
        if (bad > 0 || res.failures > 0)
            rep.fail(strfmt("%lld litmus test(s) failed", bad));
        if (res.tests.size() != ts.tests.size() || res.interrupted)
            rep.fail("campaign returned an incomplete result");
        if (trace_this)
            for (const auto &t : res.tests)
                test_ms.push_back(t.ms);
        last = std::move(res);
        set_up();
    }

    rep.set("setup_s", median(setup), "s");
    rep.set("op_p50_ms", median(walls) * 1e3, "ms");
    rep.set("op_cpu_ms", median(cpus) * 1e3, "ms");
    rep.set("work_per_s", tests_done / sum(walls), "1/s");
    rep.set("peak_rss_mb", peakRssMb(), "MB");

    rep.set("ops_measured", double(walls.size()), "count");
    rep.set("litmus.tests", double(ts.tests.size()), "count");
    rep.set("uspec.parse_s", median(parse_s), "s");
    rep.set("litmus.generate_s", median(gen_s), "s");
    rep.set("mcm.sc_enumerate_s", median(sc_s), "s");
    double campaign_s = median(walls);
    rep.set("check.campaign_s", campaign_s, "s");
    rep.set("check.executions_total", double(last.executionsTotal),
            "count");
    rep.set("check.executions_explored", double(last.executionsExplored),
            "count");
    rep.set("check.executions_pruned", double(last.executionsPruned),
            "count");
    rep.set("check.explored_frac",
            last.executionsTotal
                ? double(last.executionsExplored) /
                      double(last.executionsTotal)
                : 0,
            "frac");
    rep.set("uhb.branches", double(last.branches), "count");
    rep.set("uhb.branches_per_s",
            campaign_s > 0 ? double(last.branches) / campaign_s : 0, "1/s");
    if (tracer.on()) {
        rep.set("check.test_ms_p50", median(test_ms), "ms");
        rep.set("check.test_ms_max", maxOf(test_ms), "ms");
        rep.set("trace.overhead_frac",
                median(walls_traced) / median(walls_plain) - 1.0, "frac");
    }
    return rep;
}

} // namespace perfbench
