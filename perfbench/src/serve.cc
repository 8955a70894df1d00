/**
 * @file
 * serve_warm: an in-process daemon (serve::Server, two workers) on a
 * socket under the work directory, loaded by a closed loop of two
 * client connections (serve::Client) sending the seeded request mix.
 * Set-up starts the daemon and warms it with one cold synthesize
 * request; it is repeated on fresh state and the median reported.
 *
 * Why: this is the only workload where the protocol, JSON, admission,
 * journal replay and the per-request Verilog/DFG/hypothesis front end
 * dominate, with no solving. Warm synthesize requests (~70%) replay
 * all 37 verdicts; campaign requests (~25%) carry one seeded diy cycle
 * or four seeded suite tests, small enough that outcome pruning has
 * little to prune; status requests (~5%) measure the light path.
 */

#include <atomic>
#include <filesystem>
#include <thread>

#include <unistd.h>

#include "bench.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "gen.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "uspec/uspec.hh"
#include "verilog/elaborate.hh"

namespace perfbench
{

namespace fs = std::filesystem;
namespace json = r2u::serve::json;

namespace
{

constexpr int kSetupReps = 3;
constexpr unsigned kWorkers = 2;
constexpr int kClients = 2;
/** The cold warm-up request runs at the same parallelism as the pool. */
constexpr unsigned kColdJobs = 2;
constexpr size_t kMixLength = 8000;
constexpr int kPings = 200;
constexpr int kWarmProbes = 5;
constexpr int64_t kExpectedSvas = 37;

/** A daemon serving on its own thread; stopped and joined on scope exit. */
class Daemon
{
  public:
    Daemon(const std::string &socket, const std::string &state)
    {
        r2u::serve::ServerOptions o;
        o.socketPath = socket;
        o.stateDir = state;
        o.workers = kWorkers;
        server_ = std::make_unique<r2u::serve::Server>(std::move(o));
        server_->start();
        thread_ = std::thread([this] { server_->serve(); });
    }
    ~Daemon()
    {
        server_->requestStop();
        thread_.join();
    }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    r2u::serve::Server &server() { return *server_; }

  private:
    std::unique_ptr<r2u::serve::Server> server_;
    std::thread thread_;
};

/** Per-client tallies from the closed loop. */
struct ClientLog
{
    std::vector<double> synthMs, synthMsTraced, synthMsPlain, campaignMs;
    std::vector<double> synthHandlerMs, campaignHandlerMs, overheadMs;
    double journalHits = 0, cacheHits = 0, cacheMisses = 0,
           cacheAppends = 0;
    double explored = 0, pruned = 0;
    long long attempted = 0, failed = 0, completed = 0;
    std::vector<std::string> errors;

    void fail(const std::string &why)
    {
        failed++;
        if (errors.size() < 5)
            errors.push_back(why);
    }

    void merge(const ClientLog &o)
    {
        using Cat =
            std::pair<std::vector<double> *, const std::vector<double> *>;
        for (auto [to, from] :
             std::initializer_list<Cat>{
              {&synthMs, &o.synthMs},
              {&synthMsTraced, &o.synthMsTraced},
              {&synthMsPlain, &o.synthMsPlain},
              {&campaignMs, &o.campaignMs},
              {&synthHandlerMs, &o.synthHandlerMs},
              {&campaignHandlerMs, &o.campaignHandlerMs},
              {&overheadMs, &o.overheadMs}})
            to->insert(to->end(), from->begin(), from->end());
        journalHits += o.journalHits;
        cacheHits += o.cacheHits;
        cacheMisses += o.cacheMisses;
        cacheAppends += o.cacheAppends;
        explored += o.explored;
        pruned += o.pruned;
        attempted += o.attempted;
        failed += o.failed;
        completed += o.completed;
        errors.insert(errors.end(), o.errors.begin(), o.errors.end());
    }
};

/** Check one warm synthesize reply; returns an error or "". */
std::string
checkSynthReply(const json::Value &resp, const std::string &fnv,
                bool warm)
{
    if (resp.getInt("svas") != kExpectedSvas)
        return r2u::strfmt("synthesize reply: %lld SVAs",
                           (long long)resp.getInt("svas"));
    if (resp.getInt("unknown_svas") != 0 || resp.getBool("degraded") ||
        resp.getBool("interrupted"))
        return "synthesize reply: undetermined or degraded SVAs";
    if (resp.getInt("bugs") != 0)
        return "synthesize reply: design bugs reported";
    if (resp.getStr("model_fnv") != fnv)
        return "synthesize reply: model_fnv " + resp.getStr("model_fnv") +
               " differs from the fixture's " + fnv;
    // Warm: every verdict replayed, none solved. Two requests in flight
    // at once share one per-design journal under a single-writer lock,
    // so the second replays from the shared verdict cache instead.
    if (warm && (resp.getInt("journal_hits") + resp.getInt("cache_hits") !=
                     kExpectedSvas ||
                 resp.getInt("cache_misses") != 0))
        return r2u::strfmt("warm synthesize reply: %lld journal + %lld "
                           "cache hits, %lld misses",
                           (long long)resp.getInt("journal_hits"),
                           (long long)resp.getInt("cache_hits"),
                           (long long)resp.getInt("cache_misses"));
    return "";
}

void
clientLoop(const std::string &socket, const std::vector<ServeRequest> &mix,
           size_t first, const std::string &fnv, Clock::time_point until,
           Tracer &tracer, std::atomic<uint64_t> &next_request,
           ClientLog &log)
{
    r2u::serve::Client client;
    std::string err;
    if (!client.connect(socket, &err)) {
        log.attempted++;
        log.fail("connect: " + err);
        return;
    }
    for (size_t i = first; Clock::now() < until; i += kClients) {
        const ServeRequest &req = mix[i % mix.size()];
        uint64_t rid = next_request.fetch_add(1) + 1;
        // Trace every other request so traced and untraced latencies
        // can be compared within one run.
        bool trace_this = tracer.on() && (i / kClients) % 2 == 1;
        std::string type = req.body.getStr("type");
        json::Value resp;
        double ms = 0;
        uint64_t span = 0;
        for (;;) {
            log.attempted++;
            span = trace_this ? tracer.begin("serve.request " + type, 0, rid)
                              : 0;
            auto t0 = Clock::now();
            bool sent = client.request(req.body, resp, &err);
            ms = secondsSince(t0) * 1e3;
            if (!sent) {
                tracer.end(span);
                log.fail("transport: " + err);
                client.close();
                if (!client.connect(socket, &err))
                    return;
                resp = json::Value();
                break;
            }
            if (resp.getStr("code") == "overloaded") {
                tracer.end(span);
                log.fail("overloaded");
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    std::max<int64_t>(1, resp.getInt("retry_after_ms"))));
                continue;
            }
            break;
        }
        if (resp.isNull())
            continue;
        double wall_ms = resp.getDouble("wall_ms", 0);
        if (span && wall_ms > 0)
            tracer.completed("serve.handler " + type, wall_ms * 1e-3, span,
                             rid);
        tracer.end(span);
        if (!resp.getBool("ok")) {
            log.fail(type + " reply not ok: " + resp.dump());
            continue;
        }
        std::string bad;
        switch (req.kind) {
          case ServeRequest::Kind::Synthesize:
            bad = checkSynthReply(resp, fnv, /*warm=*/true);
            log.synthMs.push_back(ms);
            if (tracer.on())
                (trace_this ? log.synthMsTraced : log.synthMsPlain)
                    .push_back(ms);
            log.synthHandlerMs.push_back(wall_ms);
            log.overheadMs.push_back(ms - wall_ms);
            log.journalHits += double(resp.getInt("journal_hits"));
            log.cacheHits += double(resp.getInt("cache_hits"));
            log.cacheMisses += double(resp.getInt("cache_misses"));
            log.cacheAppends += double(resp.getInt("cache_appends"));
            break;
          case ServeRequest::Kind::Campaign:
            if (resp.getInt("failures") != 0 || resp.getBool("interrupted") ||
                resp.getInt("tests") != req.expectTests)
                bad = "campaign reply: " + resp.dump();
            log.campaignMs.push_back(ms);
            log.campaignHandlerMs.push_back(wall_ms);
            log.overheadMs.push_back(ms - wall_ms);
            log.explored += double(resp.getInt("executions_explored"));
            log.pruned += double(resp.getInt("executions_pruned"));
            break;
          case ServeRequest::Kind::Status:
            break;
        }
        if (!bad.empty()) {
            log.fail(bad);
            continue;
        }
        log.completed++;
    }
}

/** Relative to the working directory when that is shorter: Unix
 *  socket paths are limited to ~107 bytes. */
std::string
socketPath(const fs::path &dir)
{
    fs::path abs = fs::absolute(dir / "d.sock");
    fs::path rel = fs::relative(abs);
    return rel.string().size() < abs.string().size() ? rel.string()
                                                     : abs.string();
}

} // namespace

Report
runServe(const Args &args, Tracer &tracer)
{
    using namespace r2u;
    Report rep;
    std::string model_path = fixturePath(args.root);
    std::string fixture = readFile(model_path);
    std::string fnv = modelFnv(fixture);
    fs::path base = fs::path(args.workDir) / strfmt("serve-%d", getpid());
    fs::remove_all(base);
    fs::create_directories(base);
    std::string sock = socketPath(base);
    json::Value cold_req = synthesizeRequest(args.root, kColdJobs);

    // Set-up, repeated on fresh state: generate the request mix,
    // parse the fixture, elaborate the design (what each warm request
    // pays again), start the daemon, then one cold synthesize.
    std::vector<double> setup, elab, parse_s, gen_s;
    std::vector<ServeRequest> mix;
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < kSetupReps; i++) {
        daemon.reset();
        releaseFreeMemory();
        fs::path state = base / strfmt("state%d", i);
        ScopedSpan span(tracer, "setup");
        auto t0 = Clock::now();
        {
            ScopedSpan s(tracer, "litmus.generate (request mix)", span.id());
            mix = serveMix(args.seed, kMixLength, args.root, model_path);
        }
        auto t1 = Clock::now();
        gen_s.push_back(std::chrono::duration<double>(t1 - t0).count());
        {
            ScopedSpan s(tracer, "uspec.Model::parse", span.id());
            uspec::Model::parse(fixture);
        }
        auto t2 = Clock::now();
        parse_s.push_back(std::chrono::duration<double>(t2 - t1).count());
        {
            ScopedSpan s(tracer, "verilog.elaborateFiles", span.id());
            elaborate(synthInput(args.root));
        }
        elab.push_back(secondsSince(t2));
        {
            ScopedSpan s(tracer, "serve.Server::start", span.id());
            daemon = std::make_unique<Daemon>(sock, state.string());
        }
        serve::Client client;
        json::Value resp;
        std::string err;
        {
            ScopedSpan s(tracer, "serve.request synthesize (cold)",
                         span.id());
            rep.attempted++;
            if (!client.requestWithRetry(sock, cold_req, resp, &err) ||
                !resp.getBool("ok")) {
                rep.failed++;
                rep.fail("cold synthesize failed: " +
                         (err.empty() ? resp.dump() : err));
                return rep;
            }
        }
        std::string bad = checkSynthReply(resp, fnv, /*warm=*/false);
        if (!bad.empty()) {
            rep.failed++;
            rep.fail("cold " + bad);
        }
        setup.push_back(secondsSince(t0));
    }

    // Ping probe: the protocol + dispatch floor.
    std::vector<double> ping;
    {
        serve::Client client;
        std::string err;
        json::Value ping_req = json::Value::object();
        ping_req.set("type", json::Value::string("ping"));
        json::Value resp;
        for (int i = 0; i < kPings; i++) {
            auto t0 = Clock::now();
            if (!client.requestWithRetry(sock, ping_req, resp, &err)) {
                rep.fail("ping failed: " + err);
                break;
            }
            ping.push_back(secondsSince(t0) * 1e3);
        }
    }

    // The closed loop: each client sends its next request only after
    // the previous reply arrived.
    std::vector<ClientLog> logs(kClients);
    std::atomic<uint64_t> next_request{0};
    double cpu0 = processCpuSeconds();
    auto start = Clock::now();
    auto until = start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(args.seconds));
    {
        std::vector<std::thread> clients;
        for (int c = 0; c < kClients; c++)
            clients.emplace_back([&, c] {
                clientLoop(sock, mix, size_t(c), fnv, until, tracer,
                           next_request, logs[size_t(c)]);
            });
        for (auto &t : clients)
            t.join();
    }
    double loop_s = secondsSince(start);
    double loop_cpu = processCpuSeconds() - cpu0;

    ClientLog all;
    for (const auto &l : logs)
        all.merge(l);
    for (const auto &e : all.errors)
        rep.fail(e);
    rep.attempted += all.attempted;
    rep.failed += all.failed;
    if (all.synthMs.empty() || all.campaignMs.empty())
        rep.fail("the loop completed no synthesize or no campaign request");

    // Daemon-side counters.
    json::Value status;
    {
        serve::Client client;
        std::string err;
        json::Value req = json::Value::object();
        req.set("type", json::Value::string("status"));
        if (!client.requestWithRetry(sock, req, status, &err))
            rep.fail("status failed: " + err);
    }

    // Traced runs: a warm synthesis in process against the daemon's
    // shared verdict cache splits a warm request's front end
    // (static/proof/post) the daemon's replies do not report.
    std::vector<rtl2uspec::SynthesisResult> probes;
    if (tracer.on()) {
        SynthInput in = synthInput(args.root);
        rtl2uspec::DesignMetadata md = rtl2uspec::loadMetadata(in.metaPath);
        vlog::ElabResult design = elaborate(in);
        for (int i = 0; i < kWarmProbes; i++) {
            ScopedSpan s(tracer, "rtl2uspec.synthesize (warm probe)");
            rtl2uspec::SynthesisOptions so;
            so.jobs = 1;
            so.cache = daemon->server().cache();
            probes.push_back(rtl2uspec::synthesize(design, md, so));
        }
    }
    daemon.reset();
    fs::remove_all(base);

    double n_synth = double(all.synthMs.size());
    double n_camp = double(all.campaignMs.size());
    rep.set("setup_s", median(setup), "s");
    rep.set("op_p50_ms", median(all.synthMs), "ms");
    rep.set("op_cpu_ms",
            all.completed ? loop_cpu * 1e3 / double(all.completed) : 0, "ms");
    rep.set("work_per_s", double(all.completed) / loop_s, "1/s");
    rep.set("peak_rss_mb", peakRssMb(), "MB");

    rep.set("ops_measured", double(all.completed), "count");
    rep.set("verilog.elaborate_s", median(elab), "s");
    rep.set("uspec.parse_s", median(parse_s), "s");
    rep.set("litmus.generate_s", median(gen_s), "s");
    rep.set("serve.synth_samples", n_synth, "count");
    rep.set("serve.campaign_samples", n_camp, "count");
    if (p90Supported(all.synthMs.size()))
        rep.set("serve.synth_p90_ms", percentile(all.synthMs, 0.9), "ms");
    rep.set("serve.campaign_p50_ms", median(all.campaignMs), "ms");
    if (p90Supported(all.campaignMs.size()))
        rep.set("serve.campaign_p90_ms", percentile(all.campaignMs, 0.9),
                "ms");
    rep.set("serve.synth_handler_ms_p50", median(all.synthHandlerMs), "ms");
    rep.set("serve.campaign_handler_ms_p50", median(all.campaignHandlerMs),
            "ms");
    rep.set("serve.overhead_ms_p50", median(all.overheadMs), "ms");
    rep.set("serve.ping_ms_p50", median(ping), "ms");
    rep.set("serve.overloaded", double(status.getInt("overloaded")),
            "count");
    rep.set("serve.retries", double(status.getInt("request_retries")),
            "count");
    // Per warm synthesize / per campaign request.
    if (n_synth > 0) {
        rep.set("bmc.journal_hits", all.journalHits / n_synth, "count");
        rep.set("bmc.cache_hits", all.cacheHits / n_synth, "count");
    }
    rep.set("bmc.cache_misses", all.cacheMisses, "count");
    rep.set("bmc.cache_appends", all.cacheAppends, "count");
    if (n_camp > 0) {
        rep.set("check.executions_explored", all.explored / n_camp, "count");
        rep.set("check.executions_pruned", all.pruned / n_camp, "count");
        rep.set("check.campaign_s", median(all.campaignHandlerMs) * 1e-3,
                "s");
    }
    if (!probes.empty()) {
        std::vector<double> st, pf, po;
        for (const auto &p : probes) {
            st.push_back(p.staticSeconds);
            pf.push_back(p.proofSeconds);
            po.push_back(p.postSeconds);
        }
        rep.set("rtl2uspec.static_s", median(st), "s");
        rep.set("rtl2uspec.proof_s", median(pf), "s");
        rep.set("rtl2uspec.post_s", median(po), "s");
        rep.set("rtl2uspec.svas", double(probes.back().svas.size()),
                "count");
    }
    if (tracer.on() && !all.synthMsPlain.empty())
        rep.set("trace.overhead_frac",
                median(all.synthMsTraced) / median(all.synthMsPlain) - 1.0,
                "frac");
    return rep;
}

} // namespace perfbench
