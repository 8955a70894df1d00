/**
 * @file
 * Litmus-test MCM verification on a µspec model (the COATCheck role
 * in the paper's flow, §5.2).
 *
 * For a litmus test, checkTest() (check/campaign.hh) enumerates every
 * candidate execution (all rf assignments and per-location coherence
 * orders), asks the µhb solver whether each is possible (acyclic),
 * collects the set of observable outcomes, and compares it against the
 * operational SC reference: the test passes iff every observable
 * outcome is SC-allowed. The paper's headline check — the forbidden
 * outcome is unobservable — is the interestingObservable /
 * interestingScAllowed pair.
 *
 * Candidate executions live in a lazily-decoded ExecutionSpace (a
 * mixed-radix index over rf choices and per-address coherence
 * permutations), which is what lets the campaign engine
 * (check/campaign.hh) shard them across worker threads and prune
 * whole outcome classes without materializing the product up front.
 */

#ifndef R2U_CHECK_CHECK_HH
#define R2U_CHECK_CHECK_HH

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "litmus/litmus.hh"
#include "mcm/sc_ref.hh"
#include "uhb/uhb.hh"
#include "uspec/uspec.hh"

namespace r2u::check
{

struct TestResult
{
    std::string name;
    bool pass = false; ///< observable outcomes ⊆ SC-allowed outcomes
    bool tight = false; ///< observable outcomes == SC-allowed outcomes
    bool interestingObservable = false;
    bool interestingScAllowed = false;
    double ms = 0.0; ///< aggregate solve time (≈ wall time at jobs=1)
    int executionsTotal = 0;    ///< candidate executions in the space
    int executionsExplored = 0; ///< µhb solver invocations
    int executionsPruned = 0;   ///< candidates skipped by pruning
    long long branches = 0;     ///< EitherOrdering branches explored
    int observableOutcomes = 0;
    int scAllowedOutcomes = 0;
    std::vector<std::string> violations; ///< non-SC observable outcomes
    /** Sorted rendering of every observable outcome (for report and
     *  identity checks across job counts / pruning modes). */
    std::vector<std::string> outcomes;
    std::string interestingDot; ///< when CampaignOptions::collectDot

    /**
     * The per-test verdict: every observable outcome is SC-allowed,
     * and the interesting outcome is only observable if SC itself
     * allows it. (An SC-allowed interesting outcome being observable
     * is correct behavior, not a failure.)
     */
    bool ok() const
    {
        return pass && (!interestingObservable || interestingScAllowed);
    }

    std::string summary() const;
};

/** Convert a litmus test into microops (program order per core). */
std::vector<uhb::Microop> microopsOf(const litmus::Test &test);

/** The architectural outcome of one candidate execution. */
mcm::Outcome outcomeOf(const litmus::Test &test,
                       const uhb::Execution &exec);

/**
 * The space of candidate executions of a litmus test: every rf
 * assignment (each read observes the initial value or any same-address
 * write) crossed with every per-address coherence permutation. Rather
 * than materializing the product, each candidate is addressed by a
 * mixed-radix index in [0, size()) and decoded on demand — read
 * digits select the rf source, address digits select the coherence
 * permutation (Lehmer decode of the sorted write list).
 */
class ExecutionSpace
{
  public:
    /** fatal() when the test has 2^64 or more candidates. */
    explicit ExecutionSpace(const litmus::Test &test);

    /** Number of candidate executions. */
    uint64_t size() const { return size_; }

    const std::vector<uhb::Microop> &ops() const { return ops_; }

    /** A fresh execution skeleton for materialize() to write into. */
    uhb::Execution makeScratch() const;

    /**
     * Decode candidate @p k into @p exec, which must come from
     * makeScratch() (or a previous materialize() on this space) —
     * only the rf/value/ws fields are rewritten.
     */
    void materialize(uint64_t k, uhb::Execution &exec) const;

  private:
    std::vector<uhb::Microop> ops_;
    std::vector<int> reads_; ///< read op ids, program order
    /** Per read: candidate rf sources (-1 = init, then write ids). */
    std::vector<std::vector<int>> read_srcs_;
    /** Per address: its write ids, sorted (permutation base). */
    std::vector<std::pair<int, std::vector<int>>> write_groups_;
    uint64_t size_ = 1;
};

/**
 * Enumerate all candidate executions (rf choices x ws permutations)
 * of a test and invoke @p fn on each, in ExecutionSpace order. The
 * tests use it as a table-free reference sweep; the campaign engine
 * decodes candidates from an ExecutionSpace itself.
 */
void forEachExecution(
    const litmus::Test &test,
    const std::function<void(const uhb::Execution &)> &fn);

} // namespace r2u::check

#endif // R2U_CHECK_CHECK_HH
