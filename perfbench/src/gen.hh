/**
 * @file
 * Seeded input generators. The seed is a benchmark argument; the
 * program under test only ever sees what these produce. Generation
 * uses std::mt19937_64 with plain modulo draws (no standard
 * distributions, whose output is implementation-defined), so a seed
 * names the same inputs on every platform.
 */

#ifndef R2U_PERFBENCH_GEN_HH
#define R2U_PERFBENCH_GEN_HH

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "litmus/litmus.hh"
#include "serve/json.hh"

namespace perfbench
{

/** Deterministic draws from a seed. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : eng_(seed) {}
    /** Uniform-enough draw in [0, n), n > 0. */
    uint64_t below(uint64_t n) { return eng_() % n; }

    template <class T>
    void shuffle(std::vector<T> &v)
    {
        for (size_t i = v.size(); i > 1; i--)
            std::swap(v[i - 1], v[below(i)]);
    }

  private:
    std::mt19937_64 eng_;
};

/**
 * A well-typed diy critical cycle, one thread per entry of @p exts:
 * (ext pod)^threads with external relation exts[i] (0 Rfe, 1 Fre,
 * 2 Wse) and each program-order relation typed so that every
 * relation's target access kind is the next relation's source kind —
 * the shape standardSuite() enumerates for 2 and 3 threads.
 */
std::string diyCycle(const std::vector<int> &exts);
/** The same with each external relation drawn from @p rng. */
std::string diyCycle(Rng &rng, int threads);

/**
 * Coherence stress test: @p writers single-write threads racing on x
 * plus a reader issuing @p reads loads of x. writers! * (writers+1)^reads
 * candidate executions but few distinct outcomes, so outcome pruning
 * does most of the work.
 */
r2u::litmus::Test cohStress(int writers, int reads);
/** Two racing coherence chains (x and y) plus a two-load observer. */
r2u::litmus::Test mixedStress(int writers);

/** One generated daemon request. */
struct ServeRequest
{
    enum class Kind { Synthesize, Campaign, Status };
    Kind kind = Kind::Status;
    r2u::serve::json::Value body;
    /** Campaign requests: tests the reply must report. */
    int expectTests = 0;
};

/** The synthesize request for the formal multi-V-scale. */
r2u::serve::json::Value synthesizeRequest(const std::string &root,
                                          unsigned jobs);

/**
 * A seeded closed-loop request stream of @p count requests, built in
 * blocks of 20 with exactly 14 warm synthesize, 5 campaign and 1
 * status requests, shuffled within the block; fixed proportions keep
 * the offered work alike across seeds. Campaign requests alternate
 * between four suite tests by name and one 4- or 5-thread diy cycle,
 * dealt in seeded order, checked against @p model_path.
 */
std::vector<ServeRequest> serveMix(uint64_t seed, size_t count,
                                   const std::string &root,
                                   const std::string &model_path);

} // namespace perfbench

#endif // R2U_PERFBENCH_GEN_HH
