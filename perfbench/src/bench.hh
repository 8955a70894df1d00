/**
 * @file
 * Shared pieces of the end-to-end benchmark: run arguments, the result
 * being assembled (correctness, attempted/failed operations, metrics),
 * sample statistics, process resource usage, and the in-memory span
 * recorder that a traced run writes out as Chrome trace-event JSON.
 *
 * Everything here lives outside the program under test: spans are
 * recorded around calls into the public API of each module, never
 * inside it.
 */

#ifndef R2U_PERFBENCH_BENCH_HH
#define R2U_PERFBENCH_BENCH_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "verilog/elaborate.hh"

namespace perfbench
{

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Repository root: designs/ and the benchmark fixtures. */
    std::string root = ".";
    /** Scratch directory for outputs, sockets and daemon state. */
    std::string workDir = ".bench_build/perfbench-run";
    /** Host/build/source description recorded beside every result. */
    std::string contextJson = "{}";
    /**
     * Per-SVA solver conflict budget forwarded to
     * SynthesisOptions::conflictBudget (self-tests force Unknowns with
     * 0); unset keeps the metadata default.
     */
    bool hasConflictBudget = false;
    int64_t conflictBudget = 0;
};

/** What a workload hands back: verdict on correctness plus metrics. */
struct Report
{
    bool correct = true;
    long long attempted = 0;
    long long failed = 0;
    std::vector<std::string> errors;
    /** name -> (value, unit) */
    std::map<std::string, std::pair<double, std::string>> metrics;

    void set(const std::string &name, double value,
             const std::string &unit)
    {
        metrics[name] = {value, unit};
    }

    /** Record a failed correctness check (the run reports incorrect). */
    void fail(const std::string &why)
    {
        correct = false;
        if (errors.size() < 20)
            errors.push_back(why);
    }
};

// --- sample statistics ---

/** Linear-interpolated percentile, p in [0, 1]; 0 for no samples. */
double percentile(std::vector<double> xs, double p);
inline double median(const std::vector<double> &xs)
{
    return percentile(xs, 0.5);
}
double sum(const std::vector<double> &xs);
double maxOf(const std::vector<double> &xs);

/**
 * Highest of p90/p50 that has at least ten samples beyond it, as the
 * method asks for tail percentiles: p90 needs >= 100 samples.
 */
bool p90Supported(size_t samples);

// --- process resources ---

/**
 * User + system CPU seconds consumed by this process so far, less what
 * the host probe's thread used.
 */
double processCpuSeconds();
/** Peak resident set size of this process, MiB. */
double peakRssMb();
/**
 * Hand freed heap back to the OS between repetitions, so the peak RSS
 * reflects one repetition rather than what the allocator kept from
 * earlier ones (its per-thread arenas otherwise stack up unevenly).
 */
void releaseFreeMemory();

// --- clock ---

using Clock = std::chrono::steady_clock;
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- host speed ---

/**
 * Host-speed probe. On a shared host the speed available to one
 * process drifts by tens of percent within minutes (neighbours' load
 * on shared cores, caches and memory), for the program and for any
 * other code alike; between runs that drift, not the program, sets
 * the spread of every timing. The probe is a fixed kernel that calls
 * nothing of the program under test: dependent loads chasing pointers
 * around an 8 MiB ring, past the private caches, like the solver's
 * clause and watch-list walks. Of the kernels tried (also small-node
 * map inserts, integer arithmetic, a 64 MiB ring) its time followed
 * the synthesis workloads' drift most closely. A thread of its own
 * runs it every kPeriodMs for the whole workload, set-up included, so
 * it meets the drift at the same time as the program (about an eighth
 * of one CPU). End-to-end times are reported divided by slowdown(),
 * the run's median kernel CPU time over the kernel's reference time,
 * while a change to the program moves them as it would on a steady
 * host. CPU rather than wall time, so that the program's own threads
 * taking the probe's CPU away do not count as host drift. The program
 * slows about twice as much as the kernel under the same load, and
 * slowdowns confined to the CPUs the program runs on escape it, so
 * the scaling removes roughly half of the drift, not all of it. The
 * unscaled times and the probe figures are per-layer metrics. One per
 * process.
 */
class HostProbe
{
  public:
    /** Builds the ring, then starts sampling. */
    HostProbe();
    /** Stops sampling (see stop()). */
    ~HostProbe();
    HostProbe(const HostProbe &) = delete;
    HostProbe &operator=(const HostProbe &) = delete;

    /** Stop sampling and join the thread; at least one sample exists. */
    void stop();

    /** Median thread-CPU milliseconds of one kernel run. */
    double cpuMs() const;
    size_t samples() const;
    /** cpuMs() over the reference: above 1 on a slower host. */
    double slowdown() const;

  private:
    void sample();

    std::vector<uint32_t> ring_;
    uint64_t sink_ = 0;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::vector<double> cpuMs_;
    std::thread thread_;
};

// --- tracing ---

/**
 * In-memory span recorder. Off (the end-to-end run) it records
 * nothing and costs one branch per call. On, spans carry a name,
 * start/end, the id of the span that caused them, a request id that
 * groups the spans of one request, and the recording thread.
 */
class Tracer
{
  public:
    explicit Tracer(bool on);

    bool on() const { return on_; }

    /** Open a span now; returns its id (0 when tracing is off). */
    uint64_t begin(const std::string &name, uint64_t parent = 0,
                   uint64_t request = 0);
    /** Close span @p id now (no-op for id 0). */
    void end(uint64_t id);
    /**
     * Record an already-finished span ending now that lasted
     * @p seconds (per-query spans reported by the engine hook).
     */
    void completed(const std::string &name, double seconds,
                   uint64_t parent, uint64_t request = 0);

    size_t spans() const;

    /** Chrome trace-event JSON ("traceEvents" of "X" events). */
    std::string chromeJson(const std::string &context_json) const;

  private:
    struct Span
    {
        std::string name;
        double startUs = 0, endUs = -1;
        uint64_t id = 0, parent = 0, request = 0;
        unsigned tid = 0;
    };

    double nowUs() const;
    unsigned threadIndex();

    bool on_;
    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::map<std::string, unsigned> tids_;
};

/** Opens a span on construction, closes it on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const std::string &name, uint64_t parent = 0,
               uint64_t request = 0)
        : t_(t), id_(t.begin(name, parent, request))
    {
    }
    ~ScopedSpan() { t_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return id_; }

  private:
    Tracer &t_;
    uint64_t id_;
};

// --- the workloads: synth.cc (both synthesis workloads), litmus.cc,
// serve.cc ---

Report runSynth(const Args &args, unsigned jobs, Tracer &tracer);
Report runLitmus(const Args &args, Tracer &tracer);
Report runServe(const Args &args, Tracer &tracer);

// --- shared inputs ---

/** The fixed synthesis input: the formal multi-V-scale. */
struct SynthInput
{
    std::string top = "multi_vscale";
    std::string metaPath;
    std::vector<std::string> files;
    std::map<std::string, int64_t> params;
};
SynthInput synthInput(const std::string &root);
/** vlog::elaborateFiles on the synthesis input. */
r2u::vlog::ElabResult elaborate(const SynthInput &in);

/** The committed synthesized model every workload checks against. */
std::string fixturePath(const std::string &root);
/** FNV-1a-64 of a model's text, as the daemon reports model_fnv. */
std::string modelFnv(const std::string &text);

} // namespace perfbench

#endif // R2U_PERFBENCH_BENCH_HH
