#include "check/campaign.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/thread_pool.hh"
#include "common/timer.hh"

namespace r2u::check
{

namespace
{

/** Result of solving one per-outcome bucket of candidate executions. */
struct BucketResult
{
    bool observable = false;
    int explored = 0;
    int pruned = 0;
    long long branches = 0;
    double ms = 0;
    /** CampaignOptions::stop fired while this bucket still had
     *  candidates: the skipped ones are counted as pruned. */
    bool interrupted = false;
    /** Lowest candidate index with a cyclic (unobservable) graph for
     *  an interesting outcome; -1 when none / not collecting. */
    int64_t dotIndex = -1;
};

/** Everything one test's bucket tasks share. */
struct TestWork
{
    const litmus::Test *test = nullptr;
    std::optional<ExecutionSpace> space;
    uhb::InstanceTable table;
    std::set<mcm::Outcome> sc;
    bool interestingScAllowed = false;
    bool collectDot = false;
    bool prune = true;
    double prepMs = 0;
    /** Candidates left undecoded when CampaignOptions::stop ended the
     *  bucketing sweep; they count as pruned. */
    uint64_t undecoded = 0;
    /** Outcome -> ascending candidate indices, in outcome order. */
    std::vector<std::pair<mcm::Outcome, std::vector<uint64_t>>> buckets;
    std::vector<BucketResult> results;
    std::atomic<bool> stop{false}; ///< fail-fast latch
};

void
prepareTest(const uspec::Model &model, const litmus::Test &test,
            const CampaignOptions &options, TestWork &work)
{
    Timer timer;
    work.test = &test;
    work.space.emplace(test);
    work.table = uhb::InstanceTable(model, work.space->ops());
    work.sc = mcm::enumerateSC(test);
    for (const mcm::Outcome &o : work.sc)
        work.interestingScAllowed |= o.satisfies(test.interesting);

    work.collectDot =
        options.collectDot &&
        (options.dotTests.empty() ||
         std::find(options.dotTests.begin(), options.dotTests.end(),
                   test.name) != options.dotTests.end());
    work.prune = options.prune && !work.collectDot;

    // Outcomes are a function of the candidate alone — no solving —
    // so the per-outcome grouping the pruner needs is a decode sweep.
    // std::map keys give a deterministic bucket order. A stop ends the
    // sweep, which is most of a test's time when it has millions of
    // candidates and few outcomes.
    std::map<mcm::Outcome, std::vector<uint64_t>> buckets;
    uhb::Execution exec = work.space->makeScratch();
    uint64_t k = 0;
    for (; k < work.space->size(); k++) {
        if (options.stop &&
            options.stop->load(std::memory_order_relaxed))
            break;
        work.space->materialize(k, exec);
        buckets[outcomeOf(test, exec)].push_back(k);
    }
    work.undecoded = work.space->size() - k;
    work.buckets.assign(buckets.begin(), buckets.end());
    work.results.resize(work.buckets.size());
    work.prepMs = timer.milliseconds();
}

void
solveBucket(const uspec::Model &model, const CampaignOptions &options,
            TestWork &work, size_t b)
{
    Timer timer;
    const auto &[outcome, indices] = work.buckets[b];
    bool interesting = outcome.satisfies(work.test->interesting);
    bool non_sc = !work.sc.count(outcome);
    BucketResult r;
    uhb::Execution exec = work.space->makeScratch();
    for (uint64_t k : indices) {
        if (options.stop &&
            options.stop->load(std::memory_order_relaxed)) {
            r.pruned++;
            r.interrupted = true;
            continue;
        }
        if ((work.prune && r.observable) ||
            (options.failFast &&
             work.stop.load(std::memory_order_relaxed))) {
            r.pruned++;
            continue;
        }
        work.space->materialize(k, exec);
        uhb::Verdict v = uhb::decide(model, exec, work.table);
        r.explored++;
        r.branches += v.branchesExplored;
        if (v.observable) {
            r.observable = true;
            if (options.failFast && non_sc)
                work.stop.store(true, std::memory_order_relaxed);
        } else if (interesting && work.collectDot && r.dotIndex < 0) {
            r.dotIndex = static_cast<int64_t>(k);
        }
    }
    r.ms = timer.milliseconds();
    work.results[b] = r;
}

TestResult
mergeTest(const uspec::Model &model, TestWork &work)
{
    TestResult res;
    res.name = work.test->name;
    res.scAllowedOutcomes = static_cast<int>(work.sc.size());
    res.interestingScAllowed = work.interestingScAllowed;
    res.executionsTotal = static_cast<int>(work.space->size());
    res.executionsPruned = static_cast<int>(work.undecoded);
    res.ms = work.prepMs;

    std::set<mcm::Outcome> observable;
    int64_t dot_index = -1;
    for (size_t b = 0; b < work.buckets.size(); b++) {
        const BucketResult &r = work.results[b];
        const mcm::Outcome &outcome = work.buckets[b].first;
        res.executionsExplored += r.explored;
        res.executionsPruned += r.pruned;
        res.branches += r.branches;
        res.ms += r.ms;
        if (r.observable) {
            observable.insert(outcome);
            if (outcome.satisfies(work.test->interesting))
                res.interestingObservable = true;
        }
        if (r.dotIndex >= 0 &&
            (dot_index < 0 || r.dotIndex < dot_index))
            dot_index = r.dotIndex;
    }

    res.observableOutcomes = static_cast<int>(observable.size());
    res.pass = true;
    for (const mcm::Outcome &o : observable) {
        res.outcomes.push_back(o.toString());
        if (!work.sc.count(o)) {
            res.pass = false;
            res.violations.push_back(o.toString());
        }
    }
    res.tight = res.pass && observable.size() == work.sc.size();

    if (dot_index >= 0) {
        // Re-solve the (deterministically lowest-index) cyclic
        // interesting candidate to render its witness.
        uhb::Execution exec = work.space->makeScratch();
        work.space->materialize(static_cast<uint64_t>(dot_index), exec);
        uhb::SolveResult sr = uhb::solve(model, exec, work.table);
        res.interestingDot = sr.graph.toDot(model, exec.ops,
                                            "uhb_" + work.test->name);
    }
    return res;
}

} // namespace

CampaignResult
runCampaign(const uspec::Model &model,
            const std::vector<litmus::Test> &tests,
            const CampaignOptions &options)
{
    Timer timer;
    unsigned jobs = options.jobs;
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());

    CampaignResult result;
    result.jobs = jobs;
    result.prune = options.prune;
    result.failFast = options.failFast;

    std::unique_ptr<ThreadPool> pool;
    if (jobs > 1)
        pool = std::make_unique<ThreadPool>(jobs);
    auto run = [&](std::function<void()> task) {
        if (pool)
            pool->submit([t = std::move(task)](unsigned) { t(); });
        else
            task();
    };

    // Phase 1: per-test precomputation (instance table, SC reference,
    // outcome buckets).
    std::vector<std::unique_ptr<TestWork>> works;
    works.reserve(tests.size());
    for (size_t i = 0; i < tests.size(); i++)
        works.push_back(std::make_unique<TestWork>());
    for (size_t i = 0; i < tests.size(); i++) {
        run([&, i] {
            prepareTest(model, tests[i], options, *works[i]);
        });
    }
    if (pool)
        pool->wait();

    // Phase 2: every (test, bucket) pair is an independent work unit;
    // interleaving them across tests load-balances short tests against
    // the few large ones.
    for (auto &work : works) {
        for (size_t b = 0; b < work->buckets.size(); b++) {
            run([&, b, w = work.get()] {
                solveBucket(model, options, *w, b);
            });
        }
    }
    if (pool)
        pool->wait();

    // Phase 3: deterministic merge in test / bucket order.
    for (auto &work : works) {
        result.interrupted |= work->undecoded > 0;
        for (const BucketResult &r : work->results)
            result.interrupted |= r.interrupted;
        result.tests.push_back(mergeTest(model, *work));
        const TestResult &res = result.tests.back();
        result.failures += res.ok() ? 0 : 1;
        result.executionsTotal += res.executionsTotal;
        result.executionsExplored += res.executionsExplored;
        result.executionsPruned += res.executionsPruned;
        result.branches += res.branches;
    }
    result.ms = timer.milliseconds();
    return result;
}

std::string
CampaignResult::summary() const
{
    return strfmt("%zu tests, %d failure%s | executions %lld explored "
                  "+ %lld pruned of %lld, %lld branches | jobs=%u "
                  "prune=%s%s | %.1f ms",
                  tests.size(), failures, failures == 1 ? "" : "s",
                  executionsExplored, executionsPruned, executionsTotal,
                  branches, jobs, prune ? "on" : "off",
                  failFast ? " fail-fast" : "", ms);
}

std::string
CampaignResult::jsonReport() const
{
    using json::Value;
    auto num = [](auto n) { return Value::number(n); };
    auto flag = [](bool b) { return Value::boolean_(b); };
    auto strings = [](const std::vector<std::string> &xs) {
        Value arr = Value::array();
        for (const auto &x : xs)
            arr.push(Value::string(x));
        return arr;
    };
    auto executions = [&](auto total, auto explored, auto pruned) {
        Value v = Value::object();
        v.set("total", num(total))
            .set("explored", num(explored))
            .set("pruned", num(pruned));
        return v;
    };

    Value results = Value::array();
    for (const TestResult &t : tests) {
        Value r = Value::object();
        r.set("name", Value::string(t.name))
            .set("ok", flag(t.ok()))
            .set("pass", flag(t.pass))
            .set("tight", flag(t.tight))
            .set("interesting_observable", flag(t.interestingObservable))
            .set("interesting_sc_allowed", flag(t.interestingScAllowed))
            .set("sc_allowed_outcomes", num(t.scAllowedOutcomes))
            .set("observable_outcomes", num(t.observableOutcomes))
            .set("executions",
                 executions(t.executionsTotal, t.executionsExplored,
                            t.executionsPruned))
            .set("branches", num(t.branches))
            .set("ms", num(t.ms))
            .set("outcomes", strings(t.outcomes))
            .set("violations", strings(t.violations));
        results.push(std::move(r));
    }

    Value out = Value::object();
    out.set("jobs", num(jobs))
        .set("prune", flag(prune))
        .set("fail_fast", flag(failFast))
        .set("interrupted", flag(interrupted))
        .set("tests", num(tests.size()))
        .set("failures", num(failures))
        .set("executions", executions(executionsTotal, executionsExplored,
                                      executionsPruned))
        .set("branches", num(branches))
        .set("wall_ms", num(ms))
        .set("results", std::move(results));
    return out.dump() + "\n";
}

std::string
dotPathFor(const std::string &base, const std::string &test)
{
    size_t slash = base.find_last_of('/');
    size_t dot = base.find_last_of('.');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return base + "_" + test;
    return base.substr(0, dot) + "_" + test + base.substr(dot);
}

TestResult
checkTest(const uspec::Model &model, const litmus::Test &test,
          const CampaignOptions &options)
{
    CampaignResult res = runCampaign(model, {test}, options);
    TestResult out = std::move(res.tests[0]);
    out.ms = res.ms; // single test: wall time, as the seed reported
    return out;
}

} // namespace r2u::check
