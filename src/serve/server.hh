/**
 * @file
 * The resilient synthesis service (rtl2uspec_serve).
 *
 * A long-running daemon on a Unix-domain socket speaking the
 * length-prefixed JSON protocol (serve/protocol.hh). Light requests
 * (ping/status/shutdown) are answered on the connection thread; heavy
 * requests (synthesize, campaign) are dispatched onto a work-stealing
 * ThreadPool over one shared cross-request verdict cache
 * (bmc::VerdictStore), so most traffic — re-checks of near-identical
 * designs — replays verdicts instead of re-solving them.
 *
 * Robustness model, in the order things fail:
 *
 *  - Admission control: a heavy request is rejected with an explicit
 *    {"code":"overloaded"} reply the moment the in-service count
 *    reaches maxQueue or resident memory crosses memLimitMb. Clients
 *    back off and retry; the daemon never queues unboundedly.
 *  - Deadlines: every heavy request gets a wall-clock deadline
 *    (requestSeconds, or the request's own smaller "timeout"). It is
 *    plumbed into the engine's total-deadline machinery, so an
 *    overrunning request degrades to sound Unknown verdicts instead
 *    of wedging a worker.
 *  - Watchdog: solver progress is heartbeated from the engine's
 *    per-query hook; a context that stops heartbeating for
 *    hangSeconds (a hung solver — simulated by chaos "stall") or
 *    blows through its deadline gets Engine::interrupt()ed
 *    asynchronously. The run finishes degraded; the server retries it
 *    (bounded, with backoff) — the retry is cheap because every
 *    verdict the first attempt finished is already in the cache.
 *  - Graceful drain: SIGTERM/shutdown stops accepting, clamps every
 *    in-flight deadline to drainSeconds, lets requests finish or
 *    degrade, and exits 0. Cache appends are fsync'd as they land, so
 *    there is nothing left to flush.
 *  - Crash recovery: kill -9 loses only in-flight queries. On
 *    restart the verdict cache replays every fsync'd verdict, so
 *    re-issued requests mostly hit.
 *
 * The chaos harness (serve/chaos.hh) injects solver stalls, torn
 * cache appends, and dropped client connections to prove each of
 * those paths fires.
 */

#ifndef R2U_SERVE_SERVER_HH
#define R2U_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bmc/journal.hh"
#include "common/json.hh"
#include "common/thread_pool.hh"
#include "serve/chaos.hh"

namespace r2u::bmc
{
class Engine;
}

namespace r2u::serve
{

/** Largest "jobs" a synthesize or campaign request may ask for. */
constexpr unsigned kMaxRequestJobs = 256;

struct ServerOptions
{
    /** Unix-domain socket path to bind. */
    std::string socketPath;
    /**
     * Persistent state directory ("" = fully in-memory). Every
     * verdict is appended to the one store, the shared verdict cache
     * in <stateDir>/cache, which every request reads and writes. This
     * is what makes kill -9 recovery work.
     */
    std::string stateDir;
    /** Heavy-request executor threads (the service's proof farm). */
    unsigned workers = 2;
    /** Engine/campaign jobs per request unless the request says. */
    unsigned defaultJobs = 1;
    /** Admission watermark: heavy requests in service (queued +
     *  running) beyond which new ones get "overloaded". */
    unsigned maxQueue = 8;
    /** RSS watermark in MiB (0 = no memory-based shedding). */
    size_t memLimitMb = 0;
    /** Per-request wall-clock deadline in seconds (<= 0: none). */
    double requestSeconds = 300.0;
    /** Heartbeat age that marks a solver context hung (<= 0: off). */
    double hangSeconds = 30.0;
    /** Grace for in-flight requests after a drain starts. */
    double drainSeconds = 30.0;
    /** Server-side re-runs of a watchdog-interrupted request. */
    unsigned requestRetries = 1;
    /** Backoff between those re-runs. */
    unsigned retryBackoffMs = 50;
    /** Armed chaos budgets (caller-owned; nullptr = no injection). */
    ChaosSpec *chaos = nullptr;
    /**
     * Signal-safe external stop flag: a SIGTERM/SIGINT handler stores
     * true and the accept loop begins a graceful drain within one
     * poll tick. nullptr when the embedder calls requestStop()
     * directly.
     */
    const std::atomic<bool> *externalStop = nullptr;
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind + listen on socketPath and open the state dir. A stale
     * socket file from a crashed daemon is unlinked; a *live* daemon
     * on the same path is a fatal() (two daemons must not share a
     * state dir's write locks anyway).
     */
    void start();

    /**
     * Accept/dispatch until a drain completes (external stop flag,
     * shutdown request, or requestStop()). Returns once every
     * connection thread has finished and the socket is unlinked.
     */
    void serve();

    /** Begin a graceful drain (async-safe from non-signal threads). */
    void requestStop();

    bool draining() const
    {
        return stop_.load(std::memory_order_relaxed);
    }

    // --- introspection for status replies and tests ---
    uint64_t requestsServed() const { return requests_.load(); }
    uint64_t overloadedReplies() const { return overloaded_.load(); }
    uint64_t watchdogInterrupts() const { return watchdog_fired_.load(); }
    uint64_t requestRetriesDone() const { return retries_done_.load(); }
    bmc::VerdictStore *cache()
    {
        return cache_open_ ? &cache_ : nullptr;
    }

  private:
    /** Supervision state of one heavy request attempt. */
    struct Inflight
    {
        /** steady-clock ms of the last solver heartbeat. */
        std::atomic<int64_t> heartbeatMs{0};
        std::chrono::steady_clock::time_point deadline{};
        bool hasDeadline = false;
        /** Engine published by SynthesisOptions::engineHook; guarded
         *  so the watchdog never touches a destroyed engine. */
        std::mutex engineMu;
        bmc::Engine *engine = nullptr;
        /** Campaign cooperative-stop flag (CampaignOptions::stop). */
        std::atomic<bool> stopFlag{false};
        std::atomic<bool> watchdogFired{false};
        /** Cuts an injected chaos stall short once the watchdog has
         *  done its job (no point sleeping out the full budget). */
        std::atomic<bool> abortStall{false};
        /** Campaigns have no per-query hook, so hang detection by
         *  heartbeat age only applies to synthesis attempts. */
        bool usesHeartbeat = true;
    };

    struct Conn
    {
        std::thread thread;
        std::atomic<bool> done{false};
        int fd = -1;
    };

    void connectionLoop(Conn *conn);
    /** One request frame -> one response frame (or a chaos drop). */
    bool handleFrame(Conn *conn, const std::string &payload);
    json::Value dispatch(const json::Value &req);
    json::Value handleStatus() const;
    json::Value handleSynthesize(const json::Value &req);
    json::Value handleCampaign(const json::Value &req);
    /** Admission check; fills @p denial when the request is shed. */
    bool admit(json::Value &denial);

    void watchdogLoop();
    /** Register/unregister an attempt with the watchdog. */
    std::shared_ptr<Inflight> beginAttempt(double deadline_seconds,
                                           bool uses_heartbeat);
    void endAttempt(const std::shared_ptr<Inflight> &inf);
    /** Join finished connection threads (called from the accept loop). */
    void reapConns();

    static int64_t nowMs();
    static size_t rssMb();

    ServerOptions opts_;
    int listen_fd_ = -1;
    std::atomic<bool> stop_{false};
    std::atomic<bool> stop_applied_{false};
    std::chrono::steady_clock::time_point started_;

    std::unique_ptr<ThreadPool> pool_;
    /** Heavy requests admitted and not yet finished. */
    std::atomic<unsigned> in_service_{0};

    bmc::VerdictStore cache_;
    bool cache_open_ = false;

    std::mutex inflight_mu_;
    std::vector<std::shared_ptr<Inflight>> inflight_;
    std::thread watchdog_;
    std::atomic<bool> watchdog_stop_{false};

    std::mutex conns_mu_;
    std::list<std::unique_ptr<Conn>> conns_;

    std::atomic<uint64_t> requests_{0};
    std::atomic<uint64_t> overloaded_{0};
    std::atomic<uint64_t> watchdog_fired_{0};
    std::atomic<uint64_t> retries_done_{0};
    std::atomic<uint64_t> dropped_conns_{0};
};

} // namespace r2u::serve

#endif // R2U_SERVE_SERVER_HH
