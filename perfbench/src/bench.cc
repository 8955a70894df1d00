#include "bench.hh"

#include <algorithm>
#include <numeric>
#include <sstream>
#include <thread>

#include <malloc.h>
#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "netlist/hash.hh"
#include "serve/json.hh"

namespace perfbench
{

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double idx = p * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(idx);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = idx - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double
sum(const std::vector<double> &xs)
{
    double s = 0;
    for (double x : xs)
        s += x;
    return s;
}

double
maxOf(const std::vector<double> &xs)
{
    return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

bool
p90Supported(size_t samples)
{
    return samples >= 100;
}

namespace
{

/** The host probe's thread CPU, which processCpuSeconds() leaves out. */
std::mutex probeCpuMu;
bool probeRunning = false;
clockid_t probeClock{};
double probeCpuDone = 0;

double
seconds(const timespec &ts)
{
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return seconds(ts);
}

} // namespace

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    double s = tv(ru.ru_utime) + tv(ru.ru_stime);
    std::lock_guard<std::mutex> lock(probeCpuMu);
    timespec ts{};
    if (probeRunning && clock_gettime(probeClock, &ts) == 0)
        s -= seconds(ts);
    return s - probeCpuDone;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
releaseFreeMemory()
{
    malloc_trim(0);
}

namespace
{

constexpr size_t kRingSlots = size_t(1) << 21; // 8 MiB of uint32_t
constexpr int kChaseSteps = 200000;
/** Pause between two kernel runs. */
constexpr int kPeriodMs = 200;
/**
 * Kernel thread-CPU time on the host the benchmark was defined on
 * (4-CPU x86-64 VM, Release build, probe running beside a workload):
 * the speed end-to-end times are scaled to.
 */
constexpr double kRefCpuMs = 27.0;

} // namespace

HostProbe::HostProbe() : ring_(kRingSlots)
{
    // Sattolo's shuffle of the identity: a single cycle through every
    // slot, so the chase touches the whole ring in a fixed order.
    std::iota(ring_.begin(), ring_.end(), 0u);
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (size_t i = kRingSlots - 1; i > 0; i--) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        std::swap(ring_[i], ring_[x % i]);
    }
    std::lock_guard<std::mutex> cpu_lock(probeCpuMu);
    thread_ = std::thread([this] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!stop_) {
            lock.unlock();
            sample();
            lock.lock();
            cv_.wait_for(lock, std::chrono::milliseconds(kPeriodMs),
                         [this] { return stop_; });
        }
        std::lock_guard<std::mutex> cpu_lock(probeCpuMu);
        probeRunning = false;
        probeCpuDone += threadCpuSeconds();
    });
    probeRunning =
        pthread_getcpuclockid(thread_.native_handle(), &probeClock) == 0;
}

HostProbe::~HostProbe()
{
    stop();
}

void
HostProbe::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable())
        thread_.join();
    if (samples() == 0)
        sample();
}

void
HostProbe::sample()
{
    double c0 = threadCpuSeconds();
    uint32_t p = static_cast<uint32_t>(sink_ % kRingSlots);
    for (int i = 0; i < kChaseSteps; i++)
        p = ring_[p];
    sink_ += p;
    double ms = (threadCpuSeconds() - c0) * 1e3;
    std::lock_guard<std::mutex> lock(mu_);
    cpuMs_.push_back(ms);
}

double
HostProbe::cpuMs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return median(cpuMs_);
}

size_t
HostProbe::samples() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cpuMs_.size();
}

double
HostProbe::slowdown() const
{
    return cpuMs() / kRefCpuMs;
}

Tracer::Tracer(bool on) : on_(on), epoch_(Clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
}

unsigned
Tracer::threadIndex()
{
    std::ostringstream os;
    os << std::this_thread::get_id();
    auto [it, fresh] = tids_.emplace(os.str(), 0);
    if (fresh)
        it->second = static_cast<unsigned>(tids_.size());
    return it->second;
}

uint64_t
Tracer::begin(const std::string &name, uint64_t parent, uint64_t request)
{
    if (!on_)
        return 0;
    double now = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.startUs = now;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.tid = threadIndex();
    spans_.push_back(std::move(s));
    return spans_.back().id;
}

void
Tracer::end(uint64_t id)
{
    if (!on_ || id == 0)
        return;
    double now = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[id - 1].endUs = now;
}

void
Tracer::completed(const std::string &name, double seconds, uint64_t parent,
                  uint64_t request)
{
    if (!on_)
        return;
    double now = nowUs();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = name;
    s.startUs = now - seconds * 1e6;
    s.endUs = now;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.request = request;
    s.tid = threadIndex();
    spans_.push_back(std::move(s));
}

size_t
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::string
Tracer::chromeJson(const std::string &context_json) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
    out += context_json;
    out += ",\"traceEvents\":[";
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span &s = spans_[i];
        double end = s.endUs < 0 ? s.startUs : s.endUs;
        out += r2u::strfmt(
            "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
            "\"parent\":%llu,\"request\":%llu}}",
            i ? "," : "", r2u::serve::json::escape(s.name).c_str(), s.tid,
            s.startUs, end - s.startUs,
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            static_cast<unsigned long long>(s.request));
    }
    out += "\n]}\n";
    return out;
}

SynthInput
synthInput(const std::string &root)
{
    SynthInput in;
    std::string d = root + "/designs/";
    in.metaPath = d + "vscale.meta";
    for (const char *f : {"multi_vscale.v", "vscale_core.v", "vscale_mem.v",
                          "vscale_arbiter.v"})
        in.files.push_back(d + f);
    // The formal configuration: XLEN=8, 8 registers, 16-word
    // instruction memory (bound 14 from the metadata, 37 SVAs).
    in.params = {{"XLEN", 8},      {"PC_BITS", 6},    {"NREGS", 8},
                 {"REG_BITS", 3},  {"IMEM_WORDS", 16}, {"IMEM_ABITS", 4}};
    return in;
}

r2u::vlog::ElabResult
elaborate(const SynthInput &in)
{
    r2u::vlog::ElabOptions eo;
    eo.top = in.top;
    for (const auto &[k, v] : in.params)
        eo.params[k] = v;
    return r2u::vlog::elaborateFiles(in.files, eo);
}

std::string
fixturePath(const std::string &root)
{
    return root + "/perfbench/fixtures/multi_vscale_formal.uarch";
}

std::string
modelFnv(const std::string &text)
{
    r2u::nl::Fnv64 h;
    h.str(text);
    return r2u::strfmt("%016llx",
                       static_cast<unsigned long long>(h.value()));
}

} // namespace perfbench
