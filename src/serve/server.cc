#include "serve/server.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <optional>
#include <set>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "bmc/engine.hh"
#include "check/campaign.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/timer.hh"
#include "litmus/litmus.hh"
#include "netlist/hash.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "serve/protocol.hh"
#include "uspec/uspec.hh"
#include "verilog/elaborate.hh"

namespace r2u::serve
{

namespace
{

/** Wait before a synthesize re-run; doubles with each re-run. */
constexpr int64_t kRetryBackoffMs = 50;

json::Value
errResp(const char *code, const std::string &msg)
{
    json::Value v = json::Value::object();
    v.set("ok", json::Value::boolean_(false));
    v.set("code", json::Value::string(code));
    v.set("error", json::Value::string(msg));
    return v;
}

json::Value
okResp(const char *type)
{
    json::Value v = json::Value::object();
    v.set("ok", json::Value::boolean_(true));
    v.set("type", json::Value::string(type));
    return v;
}

/**
 * A heavy request's worker count: @p def when "jobs" is absent,
 * nullopt when it is present but not an integer in
 * [0, kMaxRequestJobs] (0 picks every core).
 */
std::optional<unsigned>
requestJobs(const json::Value &req, unsigned def)
{
    const json::Value *jobs = req.find("jobs");
    if (!jobs)
        return def;
    if (!jobs->isNum() || jobs->num != std::floor(jobs->num) ||
        jobs->num < 0 || jobs->num > kMaxRequestJobs)
        return std::nullopt;
    return static_cast<unsigned>(jobs->num);
}

json::Value
badJobs()
{
    return errResp("bad_request",
                   strfmt("jobs must be an integer in [0, %u]",
                          kMaxRequestJobs));
}

} // namespace

Server::Server(ServerOptions opts) : opts_(std::move(opts)) {}

Server::~Server()
{
    watchdog_stop_.store(true);
    if (watchdog_.joinable())
        watchdog_.join();
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto &c : conns_)
            if (c->fd >= 0)
                ::shutdown(c->fd, SHUT_RDWR);
    }
    for (auto &c : conns_)
        if (c->thread.joinable())
            c->thread.join();
    if (listen_fd_ >= 0) {
        ::close(listen_fd_);
        ::unlink(opts_.socketPath.c_str());
    }
}

int64_t
Server::nowMs()
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

size_t
Server::rssMb()
{
#ifdef __linux__
    FILE *f = std::fopen("/proc/self/statm", "r");
    if (!f)
        return 0;
    long pages_total = 0, pages_resident = 0;
    int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
    std::fclose(f);
    if (n != 2 || pages_resident < 0)
        return 0;
    long page = ::sysconf(_SC_PAGESIZE);
    return (static_cast<size_t>(pages_resident) *
            static_cast<size_t>(page)) >>
           20;
#else
    return 0;
#endif
}

void
Server::start()
{
    R2U_ASSERT(listen_fd_ < 0, "server already started");
    if (opts_.socketPath.empty())
        fatal("serve: a socket path is required");

    if (!opts_.stateDir.empty()) {
        cache_.openCache(opts_.stateDir + "/cache");
        cache_open_ = true;
        if (cache_.numLoaded() > 0)
            inform("serve: verdict cache: %zu verdict(s) recovered "
                   "from %s",
                   cache_.numLoaded(), cache_.filePath().c_str());
    }
    // Arm the torn-append fault class on the shared store; each
    // injection writes half a frame then fails, which must roll back
    // and disable caching without corrupting the file.
    if (cache_open_ && opts_.chaos) {
        ChaosSpec *chaos = opts_.chaos;
        cache_.setWriteFault([chaos](size_t n) -> ssize_t {
            if (!ChaosSpec::fire(chaos->torn))
                return -1;
            warn("serve: chaos: tearing cache append (%zu of %zu "
                 "bytes)",
                 n / 2, n);
            return static_cast<ssize_t>(n / 2);
        });
    }

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (opts_.socketPath.size() >= sizeof(addr.sun_path))
        fatal("serve: socket path too long: %s",
              opts_.socketPath.c_str());
    std::strncpy(addr.sun_path, opts_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    if (::access(opts_.socketPath.c_str(), F_OK) == 0) {
        // Distinguish a crashed daemon's stale socket (unlink and go)
        // from a live one (refuse: two daemons must not race the same
        // path, and the state dir's write locks would half-work).
        int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (probe >= 0) {
            int rc =
                ::connect(probe, reinterpret_cast<sockaddr *>(&addr),
                          sizeof(addr));
            ::close(probe);
            if (rc == 0)
                fatal("serve: a daemon is already listening on %s",
                      opts_.socketPath.c_str());
        }
        ::unlink(opts_.socketPath.c_str());
        inform("serve: removed stale socket %s",
               opts_.socketPath.c_str());
    }

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("serve: socket: %s", strerror(errno));
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) !=
        0)
        fatal("serve: bind %s: %s", opts_.socketPath.c_str(),
              strerror(errno));
    if (::listen(fd, 64) != 0)
        fatal("serve: listen: %s", strerror(errno));
    listen_fd_ = fd;
    started_ = std::chrono::steady_clock::now();

    pool_ = std::make_unique<ThreadPool>(std::max(1u, opts_.workers));
    watchdog_ = std::thread([this] { watchdogLoop(); });

    inform("serve: listening on %s (workers=%u max-queue=%u "
           "request-timeout=%.0fs hang-timeout=%.0fs state=%s%s)",
           opts_.socketPath.c_str(), std::max(1u, opts_.workers),
           opts_.maxQueue, opts_.requestSeconds, opts_.hangSeconds,
           opts_.stateDir.empty() ? "<none>" : opts_.stateDir.c_str(),
           opts_.chaos ? (" chaos=" + opts_.chaos->summary()).c_str()
                       : "");
}

void
Server::requestStop()
{
    if (stop_.exchange(true))
        return;
    // Clamp every in-flight attempt to the drain grace; the watchdog
    // enforces it, so a request that cannot finish in time degrades
    // to sound Unknowns instead of holding the drain hostage.
    auto limit =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<int64_t>(
            std::max(0.0, opts_.drainSeconds) * 1000.0));
    std::lock_guard<std::mutex> lock(inflight_mu_);
    for (auto &inf : inflight_) {
        if (!inf->hasDeadline || inf->deadline > limit) {
            inf->deadline = limit;
            inf->hasDeadline = true;
        }
    }
}

void
Server::reapConns()
{
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->done.load()) {
            if ((*it)->thread.joinable())
                (*it)->thread.join();
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Server::serve()
{
    R2U_ASSERT(listen_fd_ >= 0, "serve() before start()");
    while (true) {
        if (!stop_.load(std::memory_order_relaxed) &&
            opts_.externalStop &&
            opts_.externalStop->load(std::memory_order_relaxed)) {
            inform("serve: stop signal received — draining");
            requestStop();
        }
        if (stop_.load(std::memory_order_relaxed))
            break;

        pollfd pfd{listen_fd_, POLLIN, 0};
        int pr = ::poll(&pfd, 1, 200);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            warn("serve: poll: %s", strerror(errno));
            break;
        }
        if (pr == 0) {
            reapConns();
            continue;
        }
        int cfd = ::accept(listen_fd_, nullptr, nullptr);
        if (cfd < 0) {
            if (errno != EINTR)
                warn("serve: accept: %s", strerror(errno));
            continue;
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = cfd;
        Conn *cp = conn.get();
        {
            std::lock_guard<std::mutex> lock(conns_mu_);
            conns_.push_back(std::move(conn));
        }
        cp->thread = std::thread([this, cp] { connectionLoop(cp); });
        reapConns();
    }

    // --- graceful drain ---
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(opts_.socketPath.c_str());
    {
        // Unblock connections idling in readFrame(); SHUT_RD only, so
        // in-flight responses still go out.
        std::lock_guard<std::mutex> lock(conns_mu_);
        for (auto &c : conns_)
            if (c->fd >= 0)
                ::shutdown(c->fd, SHUT_RD);
    }
    for (auto &c : conns_)
        if (c->thread.joinable())
            c->thread.join();
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.clear();
    }
    pool_->wait();
    watchdog_stop_.store(true);
    if (watchdog_.joinable())
        watchdog_.join();
    // Nothing to flush: cache appends are fsync'd as they land, which
    // is exactly what makes kill -9 recovery work.
    inform("serve: drained (%llu request(s) served, %llu overloaded, "
           "%llu watchdog interrupt(s))",
           static_cast<unsigned long long>(requests_.load()),
           static_cast<unsigned long long>(overloaded_.load()),
           static_cast<unsigned long long>(watchdog_fired_.load()));
}

void
Server::connectionLoop(Conn *conn)
{
    std::string payload;
    while (true) {
        FrameIo r = readFrame(conn->fd, payload);
        if (r == FrameIo::TooBig) {
            writeFrame(conn->fd,
                       errResp("bad_request", "frame too large").dump());
            break;
        }
        if (r != FrameIo::Ok)
            break;
        if (!handleFrame(conn, payload))
            break;
    }
    {
        std::lock_guard<std::mutex> lock(conns_mu_);
        ::close(conn->fd);
        conn->fd = -1;
    }
    conn->done.store(true);
}

bool
Server::handleFrame(Conn *conn, const std::string &payload)
{
    json::Value req;
    std::string err;
    json::Value resp;
    bool heavy = false;
    if (!json::Value::parse(payload, req, &err) || !req.isObj()) {
        resp = errResp("bad_request", "malformed request: " + err);
    } else {
        std::string type = req.getStr("type");
        heavy = type == "synthesize" || type == "campaign";
        resp = dispatch(req);
    }
    requests_.fetch_add(1, std::memory_order_relaxed);

    // Chaos: drop the connection right before the response — the
    // worst possible moment, after the work is done. The client must
    // reconnect and re-issue; the re-run answers warm from the cache.
    if (heavy && opts_.chaos && ChaosSpec::fire(opts_.chaos->drop)) {
        dropped_conns_.fetch_add(1, std::memory_order_relaxed);
        warn("serve: chaos: dropping connection before the response");
        return false;
    }
    return writeFrame(conn->fd, resp.dump());
}

bool
Server::admit(json::Value &denial)
{
    if (stop_.load(std::memory_order_relaxed)) {
        denial = errResp("draining",
                         "server is draining; not accepting work");
        return false;
    }
    unsigned cur = in_service_.load(std::memory_order_relaxed);
    if (cur >= opts_.maxQueue) {
        overloaded_.fetch_add(1, std::memory_order_relaxed);
        denial = errResp(
            "overloaded",
            strfmt("%u heavy request(s) already in service "
                   "(watermark %u)",
                   cur, opts_.maxQueue));
        denial.set("retry_after_ms", json::Value::number(int64_t{200}));
        return false;
    }
    if (opts_.memLimitMb > 0) {
        size_t rss = rssMb();
        if (rss > opts_.memLimitMb) {
            overloaded_.fetch_add(1, std::memory_order_relaxed);
            denial = errResp(
                "overloaded",
                strfmt("resident memory %zu MiB over the %zu MiB "
                       "watermark",
                       rss, opts_.memLimitMb));
            denial.set("retry_after_ms",
                       json::Value::number(int64_t{500}));
            return false;
        }
    }
    return true;
}

json::Value
Server::dispatch(const json::Value &req)
{
    std::string type = req.getStr("type");
    if (type == "ping") {
        json::Value resp = okResp("ping");
        resp.set("pong", json::Value::boolean_(true));
        return resp;
    }
    if (type == "status")
        return handleStatus();
    if (type == "shutdown") {
        inform("serve: shutdown requested — draining");
        json::Value resp = okResp("shutdown");
        resp.set("draining", json::Value::boolean_(true));
        requestStop();
        return resp;
    }
    if (type != "synthesize" && type != "campaign")
        return errResp("bad_request",
                       "unknown request type '" + type + "'");

    json::Value denial;
    if (!admit(denial))
        return denial;

    in_service_.fetch_add(1, std::memory_order_relaxed);
    std::promise<json::Value> prom;
    std::future<json::Value> fut = prom.get_future();
    pool_->submit([&](unsigned) {
        json::Value r;
        try {
            r = type == "synthesize" ? handleSynthesize(req)
                                     : handleCampaign(req);
        } catch (const FatalError &e) {
            r = errResp("internal", e.what());
        } catch (const std::exception &e) {
            r = errResp("internal", e.what());
        }
        prom.set_value(std::move(r));
    });
    json::Value resp = fut.get();
    in_service_.fetch_sub(1, std::memory_order_relaxed);
    return resp;
}

json::Value
Server::handleStatus() const
{
    json::Value resp = okResp("status");
    double uptime =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - started_)
            .count();
    resp.set("uptime_s", json::Value::number(uptime));
    resp.set("draining", json::Value::boolean_(stop_.load()));
    resp.set("in_service",
             json::Value::number(int64_t{in_service_.load()}));
    resp.set("max_queue",
             json::Value::number(int64_t{opts_.maxQueue}));
    resp.set("workers",
             json::Value::number(int64_t{std::max(1u, opts_.workers)}));
    resp.set("requests", json::Value::number(requests_.load()));
    resp.set("overloaded", json::Value::number(overloaded_.load()));
    resp.set("watchdog_interrupts",
             json::Value::number(watchdog_fired_.load()));
    resp.set("request_retries",
             json::Value::number(retries_done_.load()));
    resp.set("dropped_connections",
             json::Value::number(dropped_conns_.load()));
    resp.set("rss_mb", json::Value::number(uint64_t{rssMb()}));
    json::Value cache = json::Value::object();
    cache.set("enabled", json::Value::boolean_(cache_open_));
    if (cache_open_) {
        cache.set("read_only",
                  json::Value::boolean_(cache_.readOnly()));
        cache.set("disabled",
                  json::Value::boolean_(cache_.disabled()));
        cache.set("loaded",
                  json::Value::number(uint64_t{cache_.numLoaded()}));
        cache.set("appended",
                  json::Value::number(uint64_t{cache_.numAppended()}));
    }
    resp.set("cache", std::move(cache));
    if (opts_.chaos)
        resp.set("chaos", json::Value::string(opts_.chaos->summary()));
    return resp;
}

std::shared_ptr<Server::Inflight>
Server::beginAttempt(double deadline_seconds, bool uses_heartbeat)
{
    auto inf = std::make_shared<Inflight>();
    inf->heartbeatMs.store(nowMs(), std::memory_order_relaxed);
    inf->usesHeartbeat = uses_heartbeat;
    auto now = std::chrono::steady_clock::now();
    std::lock_guard<std::mutex> lock(inflight_mu_);
    if (deadline_seconds > 0) {
        inf->deadline =
            now + std::chrono::milliseconds(
                      static_cast<int64_t>(deadline_seconds * 1000.0));
        inf->hasDeadline = true;
    }
    if (stop_.load(std::memory_order_relaxed)) {
        auto limit = now + std::chrono::milliseconds(
                               static_cast<int64_t>(
                                   std::max(0.0, opts_.drainSeconds) *
                                   1000.0));
        if (!inf->hasDeadline || inf->deadline > limit) {
            inf->deadline = limit;
            inf->hasDeadline = true;
        }
    }
    inflight_.push_back(inf);
    return inf;
}

void
Server::endAttempt(const std::shared_ptr<Inflight> &inf)
{
    std::lock_guard<std::mutex> lock(inflight_mu_);
    inflight_.erase(
        std::remove(inflight_.begin(), inflight_.end(), inf),
        inflight_.end());
}

void
Server::watchdogLoop()
{
    while (!watchdog_stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        int64_t now_ms = nowMs();
        auto now = std::chrono::steady_clock::now();
        std::vector<std::shared_ptr<Inflight>> snapshot;
        {
            std::lock_guard<std::mutex> lock(inflight_mu_);
            snapshot = inflight_;
        }
        for (auto &inf : snapshot) {
            if (inf->stopFlag.load(std::memory_order_relaxed))
                continue;
            bool hung =
                opts_.hangSeconds > 0 && inf->usesHeartbeat &&
                now_ms - inf->heartbeatMs.load(
                             std::memory_order_relaxed) >
                    static_cast<int64_t>(opts_.hangSeconds * 1000.0);
            bool late;
            {
                std::lock_guard<std::mutex> lock(inflight_mu_);
                late = inf->hasDeadline && now > inf->deadline;
            }
            if (!hung && !late)
                continue;
            inf->heartbeatStalled.store(hung);
            inf->stopFlag.store(true);
            watchdog_fired_.fetch_add(1, std::memory_order_relaxed);
            warn("serve: watchdog: %s — interrupting the run "
                 "(degrades to sound Unknowns)",
                 hung ? "solver heartbeat stalled"
                      : "request deadline passed");
        }
    }
}

json::Value
Server::handleSynthesize(const json::Value &req)
{
    std::string top = req.getStr("top");
    std::string meta_path = req.getStr("meta");
    const json::Value *files = req.find("files");
    if (top.empty() || meta_path.empty() || !files || !files->isArr() ||
        files->arr.empty())
        return errResp("bad_request",
                       "synthesize needs top, meta, files[]");
    std::vector<std::string> paths;
    for (const json::Value &f : files->arr) {
        if (!f.isStr() || f.str.empty())
            return errResp("bad_request",
                           "files[] entries must be paths");
        paths.push_back(f.str);
    }

    // An absent bound means the metadata's; a present one must be a
    // positive integer (0 from a non-number fails the check too).
    const json::Value *bound = req.find("bound");
    int64_t bound_value = bound ? bound->asInt(0) : 0;
    if (bound && (bound_value < 1 ||
                  bound_value > std::numeric_limits<int>::max()))
        return errResp("bad_request",
                       "synthesize bound must be a positive integer");
    std::optional<unsigned> jobs = requestJobs(req, opts_.defaultJobs);
    if (!jobs)
        return badJobs();

    rtl2uspec::DesignMetadata md = rtl2uspec::loadMetadata(meta_path);
    if (bound)
        md.bound = static_cast<unsigned>(bound_value);

    vlog::ElabOptions eo;
    eo.top = top;
    if (const json::Value *params = req.find("params");
        params && params->isObj()) {
        for (const auto &[k, v] : params->obj)
            eo.params[k] = v.asInt();
    }
    vlog::ElabResult design = vlog::elaborateFiles(paths, eo);

    double budget = opts_.requestSeconds;
    double asked = req.getDouble("timeout", -1.0);
    if (asked > 0 && (budget <= 0 || asked < budget))
        budget = asked;

    Timer timer;
    rtl2uspec::SynthesisResult synth;
    unsigned attempts = 0;
    bool interrupted = false;
    ChaosSpec *chaos = opts_.chaos;
    for (unsigned attempt = 0;; attempt++) {
        attempts++;
        std::shared_ptr<Inflight> inf =
            beginAttempt(budget, /*uses_heartbeat=*/true);
        rtl2uspec::SynthesisOptions so;
        so.jobs = *jobs;
        so.cache = cache_open_ ? &cache_ : nullptr;
        so.totalSeconds = budget > 0 ? budget : -1.0;
        so.stop = &inf->stopFlag;
        so.faultHook = [inf, chaos](const bmc::Query &,
                                    bmc::CheckResult &,
                                    bmc::SolveStage stage) {
            inf->heartbeatMs.store(nowMs(), std::memory_order_relaxed);
            if (stage != bmc::SolveStage::Primary || !chaos ||
                !ChaosSpec::fire(chaos->stall))
                return;
            // Simulated hung solver: sit inside the engine hook (the
            // worker thread) until the watchdog sets the stop flag or
            // the stall budget runs out. The heartbeat deliberately
            // stops advancing.
            warn("serve: chaos: stalling solver for up to %d ms",
                 chaos->stallMs);
            int64_t until = nowMs() + chaos->stallMs;
            while (nowMs() < until &&
                   !inf->stopFlag.load(std::memory_order_relaxed))
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
        };
        bool failed = false;
        std::string fail_msg;
        try {
            synth = rtl2uspec::synthesize(design, md, so);
        } catch (const FatalError &e) {
            failed = true;
            fail_msg = e.what();
        }
        endAttempt(inf);
        if (failed)
            return errResp("internal", fail_msg);

        interrupted = false;
        for (const auto &sva : synth.svas) {
            if (sva.source == bmc::VerdictSource::Interrupted ||
                sva.source == bmc::VerdictSource::Cancelled) {
                interrupted = true;
                break;
            }
        }
        // Only a stalled heartbeat earns a server-side re-run: it
        // marks a fault (hung solver) rather than an honest budget or
        // deadline exhaustion, which a re-run would only repeat, and
        // every verdict the broken attempt did finish is already
        // durable in the cache, so the retry is warm.
        if (interrupted && inf->heartbeatStalled.load() &&
            attempt < opts_.requestRetries &&
            !stop_.load(std::memory_order_relaxed)) {
            retries_done_.fetch_add(1, std::memory_order_relaxed);
            inform("serve: attempt %u degraded by a stalled solver "
                   "— retrying",
                   attempts);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kRetryBackoffMs << attempt));
            continue;
        }
        break;
    }

    std::string model_text = synth.model.print();
    std::string out_path = req.getStr("out");
    if (!out_path.empty())
        writeFile(out_path, model_text);

    nl::Fnv64 h;
    h.str(model_text);

    json::Value resp = okResp("synthesize");
    resp.set("attempts", json::Value::number(int64_t{attempts}));
    resp.set("interrupted", json::Value::boolean_(interrupted));
    resp.set("degraded",
             json::Value::boolean_(synth.unknownSvas > 0));
    resp.set("unknown_svas", json::Value::number(synth.unknownSvas));
    resp.set("bugs",
             json::Value::number(uint64_t{synth.bugs.size()}));
    resp.set("svas",
             json::Value::number(uint64_t{synth.svas.size()}));
    resp.set("model_fnv",
             json::Value::string(strfmt(
                 "%016llx",
                 static_cast<unsigned long long>(h.value()))));
    resp.set("cache_hits", json::Value::number(synth.cacheHits));
    resp.set("cache_misses", json::Value::number(synth.cacheMisses));
    resp.set("cache_appends", json::Value::number(synth.cacheAppends));
    resp.set("wall_ms", json::Value::number(timer.milliseconds()));
    if (!out_path.empty())
        resp.set("out", json::Value::string(out_path));
    if (req.getBool("inline_model"))
        resp.set("model", json::Value::string(model_text));
    return resp;
}

json::Value
Server::handleCampaign(const json::Value &req)
{
    std::string model_path = req.getStr("model");
    if (model_path.empty())
        return errResp("bad_request", "campaign needs a model path");
    std::optional<unsigned> jobs = requestJobs(req, opts_.defaultJobs);
    if (!jobs)
        return badJobs();
    uspec::Model model = uspec::Model::parse(readFile(model_path));

    std::vector<litmus::Test> tests;
    const json::Value *sel = req.find("tests");
    if (req.getBool("suite") || (sel && sel->isArr())) {
        std::vector<litmus::Test> all = litmus::standardSuite();
        if (sel && sel->isArr() && !sel->arr.empty()) {
            std::set<std::string> want;
            for (const json::Value &t : sel->arr)
                want.insert(t.asStr());
            for (auto &t : all)
                if (want.erase(t.name))
                    tests.push_back(std::move(t));
            if (!want.empty())
                return errResp("bad_request",
                               "unknown test '" + *want.begin() + "'");
        } else {
            tests = std::move(all);
        }
    } else if (!req.getStr("cycle").empty()) {
        tests.push_back(litmus::generateFromCycle(
            "cycle_test", req.getStr("cycle")));
    } else if (!req.getStr("test_file").empty()) {
        tests.push_back(
            litmus::Test::parse(readFile(req.getStr("test_file"))));
    } else {
        return errResp("bad_request",
                       "campaign needs suite/tests/cycle/test_file");
    }

    double budget = opts_.requestSeconds;
    double asked = req.getDouble("timeout", -1.0);
    if (asked > 0 && (budget <= 0 || asked < budget))
        budget = asked;

    // One attempt: a campaign has no solver heartbeat, so the watchdog
    // stops it only at its deadline, and a re-run would overrun again.
    Timer timer;
    std::shared_ptr<Inflight> inf =
        beginAttempt(budget, /*uses_heartbeat=*/false);
    check::CampaignOptions co;
    co.jobs = *jobs;
    co.stop = &inf->stopFlag;
    check::CampaignResult res;
    try {
        res = check::runCampaign(model, tests, co);
    } catch (const FatalError &e) {
        // A test the checker cannot take (e.g. more than 2^64
        // candidates): the request's fault, and no longer in flight.
        endAttempt(inf);
        return errResp("bad_request", e.what());
    }
    endAttempt(inf);

    std::string report_path = req.getStr("report");
    if (!report_path.empty())
        writeFile(report_path, res.jsonReport());

    json::Value resp = okResp("campaign");
    resp.set("attempts", json::Value::number(int64_t{1}));
    resp.set("interrupted", json::Value::boolean_(res.interrupted));
    resp.set("tests",
             json::Value::number(uint64_t{res.tests.size()}));
    resp.set("failures", json::Value::number(int64_t{res.failures}));
    resp.set("executions_explored",
             json::Value::number(
                 static_cast<int64_t>(res.executionsExplored)));
    resp.set("executions_pruned",
             json::Value::number(
                 static_cast<int64_t>(res.executionsPruned)));
    resp.set("wall_ms", json::Value::number(timer.milliseconds()));
    json::Value results = json::Value::array();
    for (const auto &t : res.tests) {
        json::Value one = json::Value::object();
        one.set("name", json::Value::string(t.name));
        one.set("ok", json::Value::boolean_(t.ok()));
        results.push(std::move(one));
    }
    resp.set("results", std::move(results));
    return resp;
}

} // namespace r2u::serve
