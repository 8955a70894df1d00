/**
 * @file
 * Tests for the resilient synthesis service: the length-prefixed frame
 * protocol, the chaos spec, and — against a real in-process Server —
 * admission control ("overloaded" replies), the full chaos suite
 * (solver stall -> watchdog interrupt -> bounded retry; torn cache
 * append -> rollback + disable; dropped connection -> client
 * reconnect/re-issue), and warm restart from the persistent state dir. The acceptance property throughout: a daemon
 * under chaos returns a model bit-identical to a fault-free run.
 *
 * kill -9 crash recovery needs a real process boundary and lives in
 * tests/serve_smoke.sh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "check/campaign.hh"
#include "common/json.hh"
#include "common/strutil.hh"
#include "litmus/litmus.hh"
#include "litmus_shapes.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "serve/chaos.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "verilog/elaborate.hh"

using namespace r2u;
using namespace r2u::serve;
namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Chaos spec
// ---------------------------------------------------------------------

TEST(Chaos, ParseAndFire)
{
    ChaosSpec spec;
    std::string err;
    ASSERT_TRUE(ChaosSpec::parse("stall=2, stall-ms=500, torn=1, drop=3",
                                 spec, &err))
        << err;
    EXPECT_EQ(spec.stall.load(), 2);
    EXPECT_EQ(spec.stallMs, 500);
    EXPECT_EQ(spec.torn.load(), 1);
    EXPECT_EQ(spec.drop.load(), 3);
    EXPECT_TRUE(spec.armed());

    // Budgets are consumable.
    EXPECT_TRUE(ChaosSpec::fire(spec.torn));
    EXPECT_FALSE(ChaosSpec::fire(spec.torn));

    ChaosSpec bad;
    EXPECT_FALSE(ChaosSpec::parse("explode=1", bad, &err));
    EXPECT_FALSE(ChaosSpec::parse("stall", bad, &err));
    EXPECT_FALSE(ChaosSpec::parse("stall=-1", bad, &err));
    EXPECT_FALSE(ChaosSpec::parse("stall=x", bad, &err));
}

// ---------------------------------------------------------------------
// Frame protocol (over a socketpair)
// ---------------------------------------------------------------------

TEST(Protocol, FrameRoundTrip)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    std::string payload = "{\"type\":\"ping\"}";
    ASSERT_TRUE(writeFrame(sv[0], payload));
    ASSERT_TRUE(writeFrame(sv[0], "")); // empty frames are legal
    std::string got;
    EXPECT_EQ(readFrame(sv[1], got), FrameIo::Ok);
    EXPECT_EQ(got, payload);
    EXPECT_EQ(readFrame(sv[1], got), FrameIo::Ok);
    EXPECT_EQ(got, "");

    // Clean EOF before the first byte vs. a frame cut mid-payload.
    ASSERT_TRUE(writeFrame(sv[0], "second"));
    EXPECT_EQ(readFrame(sv[1], got), FrameIo::Ok);
    ::close(sv[0]);
    EXPECT_EQ(readFrame(sv[1], got), FrameIo::Eof);
    ::close(sv[1]);
}

TEST(Protocol, OversizedFrameIsRejected)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    // A length prefix past the cap must be refused without allocating.
    uint8_t prefix[4] = {0xff, 0xff, 0xff, 0x7f};
    ASSERT_EQ(::send(sv[0], prefix, 4, 0), 4);
    std::string got;
    EXPECT_EQ(readFrame(sv[1], got), FrameIo::TooBig);
    ::close(sv[0]);
    ::close(sv[1]);
}

// ---------------------------------------------------------------------
// In-process server
// ---------------------------------------------------------------------

namespace
{

#ifdef R2U_SOURCE_DIR
const char *kSourceDir = R2U_SOURCE_DIR;
#else
const char *kSourceDir = ".";
#endif

std::string
tempPath(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / name;
    fs::remove_all(p);
    return p.string();
}

/** Small multi-V-scale configuration (same as the CI quickstart). */
json::Value
synthesizeRequest()
{
    std::string d = std::string(kSourceDir) + "/designs/";
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("synthesize"));
    req.set("top", json::Value::string("multi_vscale"));
    req.set("meta", json::Value::string(d + "vscale.meta"));
    json::Value files = json::Value::array();
    for (const char *f : {"multi_vscale.v", "vscale_core.v",
                          "vscale_mem.v", "vscale_arbiter.v"})
        files.push(json::Value::string(d + f));
    req.set("files", std::move(files));
    json::Value params = json::Value::object();
    params.set("XLEN", json::Value::number(int64_t{8}));
    params.set("PC_BITS", json::Value::number(int64_t{6}));
    params.set("NREGS", json::Value::number(int64_t{8}));
    params.set("REG_BITS", json::Value::number(int64_t{3}));
    params.set("IMEM_WORDS", json::Value::number(int64_t{16}));
    params.set("IMEM_ABITS", json::Value::number(int64_t{4}));
    req.set("params", std::move(params));
    req.set("jobs", json::Value::number(int64_t{1}));
    req.set("inline_model", json::Value::boolean_(true));
    return req;
}

/** Fault-free reference model, synthesized once, directly. */
const std::string &
referenceModel()
{
    static std::string text = [] {
        json::Value req = synthesizeRequest();
        rtl2uspec::DesignMetadata md =
            rtl2uspec::loadMetadata(req.getStr("meta"));
        vlog::ElabOptions eo;
        eo.top = req.getStr("top");
        for (const auto &[k, v] : req.find("params")->obj)
            eo.params[k] = v.asInt();
        std::vector<std::string> paths;
        for (const auto &f : req.find("files")->arr)
            paths.push_back(f.asStr());
        rtl2uspec::SynthesisOptions so;
        so.jobs = 1;
        return rtl2uspec::synthesize(vlog::elaborateFiles(paths, eo),
                                     md, so)
            .model.print();
    }();
    return text;
}

/** Server + serve() thread with RAII shutdown. */
struct TestDaemon
{
    Server server;
    std::thread thread;

    explicit TestDaemon(ServerOptions opts) : server(std::move(opts))
    {
        server.start();
        thread = std::thread([this] { server.serve(); });
    }

    ~TestDaemon() { stop(); }

    void
    stop()
    {
        if (thread.joinable()) {
            server.requestStop();
            thread.join();
        }
    }
};

} // namespace

TEST(Serve, PingStatusAndBadRequests)
{
    std::string sock = tempPath("serve_basic.sock");
    ServerOptions opts;
    opts.socketPath = sock;
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(sock, &err)) << err;

    json::Value req = json::Value::object();
    req.set("type", json::Value::string("ping"));
    json::Value resp;
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_TRUE(resp.getBool("ok"));
    EXPECT_TRUE(resp.getBool("pong"));

    req.set("type", json::Value::string("status"));
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_TRUE(resp.getBool("ok"));
    EXPECT_FALSE(resp.getBool("draining"));
    EXPECT_GE(resp.getInt("requests"), 1);

    req.set("type", json::Value::string("no_such_thing"));
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok"));
    EXPECT_EQ(resp.getStr("code"), "bad_request");

    // A bound below 1 is refused, not replaced by the metadata bound.
    for (int64_t bound : {int64_t{0}, int64_t{-3}}) {
        json::Value synth = synthesizeRequest();
        synth.set("bound", json::Value::number(bound));
        ASSERT_TRUE(client.request(synth, resp, &err)) << err;
        EXPECT_FALSE(resp.getBool("ok")) << "bound " << bound;
        EXPECT_EQ(resp.getStr("code"), "bad_request") << "bound " << bound;
    }

    // A jobs value outside [0, kMaxRequestJobs] is refused, never
    // clamped or wrapped: clamped, -7 would mean every core; wrapped,
    // 4294967297 would mean one worker; and 100000 would start as many
    // pool threads. Both heavy request types check it before doing any
    // work (the campaign's model path does not exist).
    json::Value campaign = json::Value::object();
    campaign.set("type", json::Value::string("campaign"));
    campaign.set("model", json::Value::string("/nonexistent.uarch"));
    campaign.set("suite", json::Value::boolean_(true));
    std::vector<json::Value> bad_jobs = {
        json::Value::number(int64_t{-7}),
        json::Value::number(int64_t{4294967297}),
        json::Value::number(int64_t{100000}),
        json::Value::number(int64_t{kMaxRequestJobs + 1}),
        json::Value::number(2.5),
        json::Value::string("4"),
        json::Value::null()};
    for (json::Value base : {synthesizeRequest(), campaign}) {
        for (const json::Value &jobs : bad_jobs) {
            json::Value r = base;
            r.set("jobs", jobs);
            ASSERT_TRUE(client.request(r, resp, &err)) << err;
            EXPECT_FALSE(resp.getBool("ok")) << r.dump();
            EXPECT_EQ(resp.getStr("code"), "bad_request") << r.dump();
            EXPECT_NE(resp.getStr("error").find("jobs"), std::string::npos)
                << resp.dump();
        }
    }

    // A frame carrying broken JSON gets an error response on a raw
    // connection, not a dead daemon. Drive the protocol layer by hand.
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, sock.c_str(),
                 sizeof(addr.sun_path) - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_TRUE(writeFrame(fd, "{\"type\":"));
    std::string payload;
    ASSERT_EQ(readFrame(fd, payload), FrameIo::Ok);
    json::Value parsed;
    ASSERT_TRUE(json::Value::parse(payload, parsed, &err)) << err;
    EXPECT_FALSE(parsed.getBool("ok"));
    EXPECT_EQ(parsed.getStr("code"), "bad_request");
    ::close(fd);
}

TEST(Serve, OverloadShedsWithExplicitReply)
{
    std::string sock = tempPath("serve_overload.sock");
    ServerOptions opts;
    opts.socketPath = sock;
    opts.maxQueue = 0; // every heavy request is over the watermark
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    ASSERT_TRUE(client.connect(sock, &err)) << err;
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("campaign"));
    req.set("model", json::Value::string("/nonexistent.uarch"));
    req.set("suite", json::Value::boolean_(true));
    json::Value resp;
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok"));
    EXPECT_EQ(resp.getStr("code"), "overloaded");
    EXPECT_GT(resp.getInt("retry_after_ms"), 0);
    EXPECT_EQ(daemon.server.overloadedReplies(), 1u);
    // Light requests are never shed.
    req = json::Value::object();
    req.set("type", json::Value::string("ping"));
    ASSERT_TRUE(client.request(req, resp, &err)) << err;
    EXPECT_TRUE(resp.getBool("ok"));
}

// The headline chaos test: stall + torn + drop all armed at once.
//  - stall freezes the solver heartbeat -> watchdog interrupts -> the
//    degraded attempt is retried server-side;
//  - torn tears the first verdict-cache append -> rollback + caching
//    disabled, store stays loadable;
//  - drop closes the connection before the response -> the client
//    reconnects and re-issues the request.
// The surviving response's model must be bit-identical to the
// fault-free reference, and so must a restarted daemon's.
TEST(Serve, ChaosSuiteEndsBitIdentical)
{
    std::string sock = tempPath("serve_chaos.sock");
    std::string state = tempPath("serve_chaos_state");

    ChaosSpec chaos;
    std::string cerr_;
    ASSERT_TRUE(ChaosSpec::parse("stall=1,stall-ms=60000,torn=1,drop=1",
                                 chaos, &cerr_))
        << cerr_;

    ServerOptions opts;
    opts.socketPath = sock;
    opts.stateDir = state;
    opts.hangSeconds = 3.0; // watchdog must cut the 60 s stall short
    opts.requestRetries = 1;
    opts.chaos = &chaos;
    auto daemon = std::make_unique<TestDaemon>(std::move(opts));

    Client client;
    std::string err;
    json::Value resp;
    ASSERT_TRUE(client.requestWithRetry(sock, synthesizeRequest(), resp,
                                        &err, /*attempts=*/4))
        << err;
    ASSERT_TRUE(resp.getBool("ok")) << resp.dump();

    // Every fault class fired...
    EXPECT_EQ(chaos.stall.load(), 0);
    EXPECT_EQ(chaos.torn.load(), 0);
    EXPECT_EQ(chaos.drop.load(), 0);
    // ...and each recovery path ran.
    EXPECT_GE(daemon->server.watchdogInterrupts(), 1u);
    EXPECT_GE(daemon->server.requestRetriesDone(), 1u);
    ASSERT_NE(daemon->server.cache(), nullptr);
    EXPECT_TRUE(daemon->server.cache()->disabled());

    // The survived request's model is bit-identical to fault-free.
    EXPECT_EQ(resp.getStr("model"), referenceModel());
    EXPECT_FALSE(resp.getBool("interrupted"));

    // Destroying the server closes its cache and releases the lock.
    daemon.reset();

    // Restart on the same state dir. The torn first append left no
    // durable verdict and disabled the cache for the rest of that
    // daemon's life, so the restarted daemon loads the rolled-back
    // file (no records, writable) and re-solves every query — still
    // bit-identical. (kill -9 instead of a drain is serve_smoke.sh.)
    ServerOptions opts2;
    opts2.socketPath = sock;
    opts2.stateDir = state;
    TestDaemon daemon2(std::move(opts2));
    json::Value status_req = json::Value::object();
    status_req.set("type", json::Value::string("status"));
    json::Value status;
    ASSERT_TRUE(client.requestWithRetry(sock, status_req, status, &err))
        << err;
    const json::Value *cache = status.find("cache");
    ASSERT_NE(cache, nullptr) << status.dump();
    EXPECT_TRUE(cache->getBool("enabled")) << status.dump();
    EXPECT_EQ(cache->getInt("loaded", -1), 0) << status.dump();
    EXPECT_FALSE(cache->getBool("read_only")) << status.dump();
    EXPECT_FALSE(cache->getBool("disabled")) << status.dump();

    json::Value resp2;
    ASSERT_TRUE(client.requestWithRetry(sock, synthesizeRequest(),
                                        resp2, &err))
        << err;
    ASSERT_TRUE(resp2.getBool("ok")) << resp2.dump();
    EXPECT_EQ(resp2.getStr("model"), referenceModel());
    EXPECT_GT(resp2.getInt("svas"), 0) << resp2.dump();
    EXPECT_EQ(resp2.getInt("cache_misses"), resp2.getInt("svas"))
        << resp2.dump();
}

// The state dir holds one store, the verdict cache: a restarted daemon
// answers a re-issued request from it alone, and no per-design journal
// is written next to it.
TEST(Serve, RestartAnswersFromCache)
{
    std::string sock = tempPath("serve_restart.sock");
    std::string state = tempPath("serve_restart_state");

    Client client;
    std::string err;
    json::Value resp;
    {
        ServerOptions opts;
        opts.socketPath = sock;
        opts.stateDir = state;
        TestDaemon daemon(std::move(opts));
        ASSERT_TRUE(client.requestWithRetry(sock, synthesizeRequest(),
                                            resp, &err))
            << err;
        ASSERT_TRUE(resp.getBool("ok")) << resp.dump();
    }
    const int64_t svas = resp.getInt("svas");
    ASSERT_GT(svas, 0);

    ServerOptions opts;
    opts.socketPath = sock;
    opts.stateDir = state;
    TestDaemon daemon(std::move(opts));
    ASSERT_TRUE(client.requestWithRetry(sock, synthesizeRequest(), resp,
                                        &err))
        << err;
    ASSERT_TRUE(resp.getBool("ok")) << resp.dump();
    EXPECT_EQ(resp.getStr("model"), referenceModel());
    EXPECT_EQ(resp.getInt("cache_hits"), svas) << resp.dump();
    EXPECT_EQ(resp.getInt("cache_misses"), 0) << resp.dump();
    EXPECT_FALSE(fs::exists(state + "/journal"));
}

// The daemon's two workers serve warm requests at the same time over
// one shared verdict cache. Run under TSan in CI.
TEST(Serve, ConcurrentWarmSynthesize)
{
    std::string sock = tempPath("serve_warm.sock");
    std::string state = tempPath("serve_warm_state");
    const std::string &reference = referenceModel();

    ServerOptions opts;
    opts.socketPath = sock;
    opts.stateDir = state;
    TestDaemon daemon(std::move(opts));

    std::string err;
    json::Value cold;
    {
        Client client;
        ASSERT_TRUE(client.requestWithRetry(sock, synthesizeRequest(),
                                            cold, &err))
            << err;
    }
    ASSERT_TRUE(cold.getBool("ok")) << cold.dump();
    const int64_t svas = cold.getInt("svas");
    ASSERT_GT(svas, 0);

    constexpr int kClients = 2;
    constexpr int kRequests = 3;
    std::vector<json::Value> replies[kClients];
    std::vector<std::string> errors[kClients];
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; c++) {
        clients.emplace_back([&, c] {
            Client client;
            for (int r = 0; r < kRequests; r++) {
                json::Value resp;
                std::string e;
                if (client.requestWithRetry(sock, synthesizeRequest(),
                                            resp, &e))
                    replies[c].push_back(std::move(resp));
                else
                    errors[c].push_back(e);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();

    for (int c = 0; c < kClients; c++) {
        EXPECT_TRUE(errors[c].empty()) << errors[c].front();
        ASSERT_EQ(replies[c].size(), static_cast<size_t>(kRequests));
        for (const json::Value &resp : replies[c]) {
            ASSERT_TRUE(resp.getBool("ok")) << resp.dump();
            EXPECT_EQ(resp.getInt("svas"), svas);
            EXPECT_EQ(resp.getInt("cache_hits"), svas) << resp.dump();
            EXPECT_EQ(resp.getInt("cache_misses"), 0) << resp.dump();
            EXPECT_EQ(resp.getStr("model"), reference);
        }
    }
}

TEST(Serve, CampaignRoundTrip)
{
    std::string sock = tempPath("serve_campaign.sock");
    std::string model_path = tempPath("serve_campaign.uarch");
    writeFile(model_path, referenceModel());

    ServerOptions opts;
    opts.socketPath = sock;
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("campaign"));
    req.set("model", json::Value::string(model_path));
    req.set("cycle", json::Value::string("Rfe PodRR Fre PodWW"));
    req.set("jobs", json::Value::number(int64_t{1}));
    json::Value resp;
    ASSERT_TRUE(client.requestWithRetry(sock, req, resp, &err)) << err;
    ASSERT_TRUE(resp.getBool("ok")) << resp.dump();
    EXPECT_EQ(resp.getInt("tests"), 1);
    EXPECT_EQ(resp.getInt("failures"), 0);
    EXPECT_FALSE(resp.getBool("interrupted"));
    ASSERT_NE(resp.find("results"), nullptr);
    ASSERT_EQ(resp.find("results")->arr.size(), 1u);
    EXPECT_TRUE(resp.find("results")->arr[0].getBool("ok"));

    // A test with more than 2^64 candidates is a bad request, not a
    // vacuous pass, and the daemon keeps serving.
    json::Value wide = json::Value::object();
    wide.set("type", json::Value::string("campaign"));
    wide.set("model", json::Value::string(model_path));
    wide.set("test_file",
             json::Value::string(std::string(R2U_SOURCE_DIR) +
                                 "/tests/data/candidates_overflow.test"));
    ASSERT_TRUE(client.requestWithRetry(sock, wide, resp, &err)) << err;
    EXPECT_FALSE(resp.getBool("ok")) << resp.dump();
    EXPECT_EQ(resp.getStr("code"), "bad_request");
    EXPECT_NE(resp.getStr("error").find("2^64"), std::string::npos)
        << resp.dump();
    ASSERT_TRUE(client.requestWithRetry(sock, req, resp, &err)) << err;
    EXPECT_TRUE(resp.getBool("ok")) << resp.dump();
}

// "jobs": 0 picks every core for a campaign as it does for a
// synthesize request and for CampaignOptions itself.
TEST(Serve, CampaignJobsZeroPicksEveryCore)
{
    std::string sock = tempPath("serve_campaign_jobs0.sock");
    std::string report = tempPath("serve_campaign_jobs0.json");

    ServerOptions opts;
    opts.socketPath = sock;
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("campaign"));
    req.set("model",
            json::Value::string(std::string(kSourceDir) +
                                "/designs/vscale_sc.uarch"));
    req.set("cycle", json::Value::string("Rfe PodRR Fre PodWW"));
    req.set("jobs", json::Value::number(int64_t{0}));
    req.set("report", json::Value::string(report));
    json::Value resp;
    ASSERT_TRUE(client.requestWithRetry(sock, req, resp, &err)) << err;
    ASSERT_TRUE(resp.getBool("ok")) << resp.dump();

    json::Value written;
    ASSERT_TRUE(json::Value::parse(readFile(report), written, &err))
        << err;
    EXPECT_EQ(written.getInt("jobs"),
              static_cast<int64_t>(
                  std::max(1u, std::thread::hardware_concurrency())));
}

// A campaign has no solver heartbeat, so the watchdog stops it only at
// its deadline; it is not re-run (a re-run got a fresh deadline and
// took twice the budget). The 5-writer mixed stress test has 518,400
// candidates and needs ~0.5 s, well past the 0.1 s asked for.
TEST(Serve, CampaignDeadlineIsNotRetried)
{
    std::string sock = tempPath("serve_campaign_deadline.sock");
    std::string test_path = tempPath("serve_campaign_deadline.test");
    writeFile(test_path, test::mixedStress(5).print());

    ServerOptions opts;
    opts.socketPath = sock;
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("campaign"));
    req.set("model",
            json::Value::string(std::string(kSourceDir) +
                                "/designs/vscale_sc.uarch"));
    req.set("test_file", json::Value::string(test_path));
    req.set("jobs", json::Value::number(int64_t{1}));
    req.set("timeout", json::Value::number(0.1));
    json::Value resp;
    ASSERT_TRUE(client.requestWithRetry(sock, req, resp, &err)) << err;
    ASSERT_TRUE(resp.getBool("ok")) << resp.dump();
    EXPECT_TRUE(resp.getBool("interrupted")) << resp.dump();
    EXPECT_EQ(resp.getInt("attempts"), 1) << resp.dump();

    json::Value status_req = json::Value::object();
    status_req.set("type", json::Value::string("status"));
    json::Value status;
    ASSERT_TRUE(client.request(status_req, status, &err)) << err;
    EXPECT_GE(status.getInt("watchdog_interrupts"), 1) << status.dump();
    EXPECT_EQ(status.getInt("request_retries"), 0) << status.dump();
}

TEST(Serve, DrainRefusesNewWorkAndExitsCleanly)
{
    std::string sock = tempPath("serve_drain.sock");
    std::atomic<bool> stop{false};
    ServerOptions opts;
    opts.socketPath = sock;
    opts.externalStop = &stop;
    TestDaemon daemon(std::move(opts));

    Client client;
    std::string err;
    json::Value req = json::Value::object();
    req.set("type", json::Value::string("shutdown"));
    json::Value resp;
    ASSERT_TRUE(client.requestWithRetry(sock, req, resp, &err)) << err;
    EXPECT_TRUE(resp.getBool("ok"));
    EXPECT_TRUE(resp.getBool("draining"));

    daemon.thread.join();
    // The socket is gone after the drain; the daemon exited its loop.
    EXPECT_FALSE(fs::exists(sock));

    Client late;
    EXPECT_FALSE(late.connect(sock, &err));
}

// The CLI SIGINT/SIGTERM path (uspec_check exit 3) rests on
// CampaignOptions::stop: with the flag already set, every candidate
// is skipped as pruned, the result is flagged interrupted, and the
// report records it — a sound partial answer, never a wrong one.
TEST(Campaign, StopFlagYieldsSoundInterruptedResult)
{
    uspec::Model model = uspec::Model::parse(
        readFile(std::string(kSourceDir) + "/designs/vscale_sc.uarch"));
    std::vector<litmus::Test> tests = litmus::standardSuite();
    std::atomic<bool> stop{true};
    check::CampaignOptions co;
    co.jobs = 1;
    co.stop = &stop;
    check::CampaignResult res = check::runCampaign(model, tests, co);
    EXPECT_TRUE(res.interrupted);
    EXPECT_EQ(res.executionsExplored, 0);
    EXPECT_EQ(res.executionsPruned, res.executionsTotal);
    EXPECT_NE(res.jsonReport().find("\"interrupted\""),
              std::string::npos);
}
