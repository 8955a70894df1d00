/**
 * @file
 * The rtl2uspec synthesis procedure (paper §4): netlist -> full-design
 * DFG -> stage labeling -> intra-instruction HBI hypotheses (Fig. 4
 * SVA templates, evaluated by the BMC engine) -> per-instruction DFGs
 * -> inter-instruction HBI hypotheses (spatial / temporal / dataflow,
 * §4.3, with the Req-Snd/Req-Rec/Req-Proc decomposition for remote
 * state) -> node merging (§4.4) -> µspec model.
 */

#ifndef R2U_RTL2USPEC_SYNTHESIS_HH
#define R2U_RTL2USPEC_SYNTHESIS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bmc/checker.hh"
#include "bmc/engine.hh"
#include "dfg/dfg.hh"
#include "rtl2uspec/metadata.hh"
#include "uspec/uspec.hh"
#include "verilog/elaborate.hh"

namespace r2u::rtl2uspec
{

/** One evaluated HBI hypothesis (SVA + verdict), Fig. 5 raw data. */
struct SvaRecord
{
    std::string name;
    std::string category; ///< "intra", "spatial", "temporal", "dataflow"
    std::string text;     ///< SVA-style rendering (Fig. 4 flavor)
    bmc::Verdict verdict = bmc::Verdict::Unknown;
    /** How the verdict came about (which budget/deadline, retries). */
    bmc::VerdictSource source = bmc::VerdictSource::Solve;
    double seconds = 0.0;
    uint64_t conflicts = 0;
    uint64_t propagations = 0;
    /** Escalated re-solves this SVA needed (engine retry policy). */
    unsigned retries = 0;
    /**
     * True when this SVA's Unknown verdict forced a conservative
     * (weaker-model) synthesis choice; degradeNote says which.
     */
    bool degraded = false;
    std::string degradeNote;
    unsigned hypotheses = 1; ///< element-granular hypotheses it covers
    bool global = false;     ///< involves remote/global state
    std::string trace;       ///< counterexample (when interesting)

    /** Verdict independently confirmed (replay / proof re-check). */
    bool validated = false;
    /** Verdict loaded from a resume journal instead of solved. */
    bool fromJournal = false;
    /** Verdict replayed from the cross-run verdict cache. */
    bool fromCache = false;

    /** Proof path that produced the verdict: "bmc" (the incremental
     *  solve) or "pdr" (the pre-pass). */
    std::string engine = "bmc";
    /** The sequential PDR pre-pass ran ahead of the BMC solve
     *  (--engine race). */
    bool engineRaced = false;
    /** Proven at *every* bound (PDR fixpoint). */
    bool unbounded = false;

    /** Solver CNF footprint when this query finished (COI-sliced
     *  unless fullUnroll) and what the query alone added. */
    size_t cnfVars = 0, cnfClauses = 0;
    size_t cnfVarsAdded = 0, cnfClausesAdded = 0;
    /** Static cone-of-influence size (cells) of the declared seeds. */
    size_t coiCells = 0;
};

struct CategoryStats
{
    int svas = 0;
    double seconds = 0.0;
    int hypLocal = 0, hypGlobal = 0;
    int hbiLocal = 0, hbiGlobal = 0;
    /** Per-query CNF totals summed over the category's SVAs. */
    uint64_t cnfVarsSum = 0, cnfClausesSum = 0;
};

/** Knobs for how the synthesis procedure runs (not what it computes). */
struct SynthesisOptions
{
    /**
     * Worker count for SVA evaluation (the paper's proof-farm
     * dimension): 0 picks std::thread::hardware_concurrency(). Every
     * value runs the incremental engine with one solver context per
     * worker per bound; 1 is one worker on the calling thread, in
     * enqueue order. Verdicts and the emitted model are identical at
     * any value.
     */
    unsigned jobs = 0;
    /**
     * Disable cone-of-influence slicing: eagerly bit-blast the whole
     * design at every frame of every unroll context (the pre-slicing
     * behavior, exposed as --full-unroll). Verdicts and the emitted
     * model are identical; only CNF sizes and runtime differ.
     */
    bool fullUnroll = false;

    /**
     * Per-SVA solver conflict budget; kInheritBudget defers to the
     * design metadata's conflictBudget, <0 is unlimited. Exhaustion
     * yields Unknown verdicts that degrade the model conservatively.
     */
    int64_t conflictBudget = kInheritBudget;
    /** Per-SVA wall-clock deadline in seconds (<0: none). */
    double queryTimeoutSeconds = -1.0;
    /** Whole-run wall-clock deadline in seconds (<0: none). */
    double totalTimeoutSeconds = -1.0;
    /**
     * Retry-with-escalating-budget factor (>1 enables; see
     * bmc::EngineOptions::retryEscalation).
     */
    double retryEscalation = 0.0;
    /** Maximum escalated retries per SVA. */
    unsigned maxRetries = 3;

    /**
     * Proof path (--engine {bmc,race}). The default runs an IC3/PDR
     * pre-pass ahead of the incremental BMC solve of every frame-local
     * query: a PDR proof answers the query, anything else falls
     * through to BMC. Verdicts — and therefore the emitted model — are
     * identical either way; race can additionally return *unbounded*
     * proofs (recorded in the report and reusable at any bound via the
     * verdict cache). Queries whose property is not frame-local always
     * run plain BMC.
     */
    bmc::EngineChoice engine = bmc::EngineChoice::Race;

    /**
     * Trust-but-verify verdict validation (bmc::ValidateMode): the
     * default replays every counterexample and spot-checks every
     * validateSampleN-th proof in a fresh solver context.
     */
    bmc::ValidateMode validate = bmc::ValidateMode::Sample;
    unsigned validateSampleN = 8;
    /** Crash-safe run journal path ("" disables). */
    std::string journalPath;
    /** Resume from an existing journal instead of truncating it. */
    bool resumeJournal = false;
    /**
     * Cross-run content-addressed verdict cache directory (--cache;
     * "" disables). Each SVA query is keyed by a hash of its COI
     * slice, property encoding, and bound, so re-synthesis of the
     * same or a near-identical design re-solves only the queries
     * whose content actually changed. Deliberately NOT keyed by
     * --jobs or solver budgets: those change how fast a verdict is
     * found, never what the verdict is.
     */
    std::string cacheDir;
    /**
     * Shared, caller-owned verdict cache (the service's cross-request
     * store). Overrides cacheDir when set; must outlive the run. The
     * synthesizer neither owns nor closes it, so many concurrent and
     * sequential requests can warm the same in-memory instance.
     */
    bmc::VerdictStore *cache = nullptr;
    /**
     * Directory of per-configuration resume journals (the service's
     * crash-recovery state): the run journals into
     * <journalDir>/<configHash>.r2uj with resume semantics and flock
     * single-writer protection; a lock conflict degrades to running
     * journal-less with a warning. Ignored when journalPath is set.
     */
    std::string journalDir;
    /** Dump each refutation's replayed trace as VCD ("" disables). */
    std::string cexVcdDir;
    /** Fault-injection test seam, forwarded to the engine. */
    std::function<void(const bmc::Query &, bmc::CheckResult &,
                       bmc::SolveStage)>
        faultHook;
    /**
     * Engine lifecycle observer: called with the live engine right
     * after it is constructed and with nullptr before it is
     * destroyed. Lets a supervisor (the service watchdog) fire
     * Engine::interrupt() on a run it does not own without racing the
     * engine's destruction.
     */
    std::function<void(bmc::Engine *)> engineHook;

    static constexpr int64_t kInheritBudget = INT64_MIN;
};

/**
 * Everything one synthesis run produces. The engine's run counters
 * (unroll contexts, validation, journal, cache, proof paths) are
 * inherited from bmc::EngineStats as the engine counted them; the
 * fields below are what only the synthesis frontend knows.
 */
struct SynthesisResult : bmc::EngineStats
{
    /**
     * Always 0: k-induction wins and in-search inprocessing no longer
     * exist. The benchmark (perfbench/src/synth.cc) is the only
     * reader; these go when the next change to the benchmark retires
     * its bmc.kind_wins and sat.inprocess_* metrics.
     */
    static constexpr uint64_t kindWins = 0;
    static constexpr uint64_t inprocessRuns = 0;
    static constexpr uint64_t inprocessClausesRemoved = 0;

    uspec::Model model;
    std::vector<SvaRecord> svas;
    std::map<std::string, CategoryStats> stats;

    /** Resolved SVA-evaluation worker count. */
    unsigned jobs = 1;
    /** True when COI slicing was disabled for this run. */
    bool fullUnroll = false;
    /** Mean per-query solver CNF size across all SVAs. */
    double meanCnfVars = 0.0;
    double meanCnfClauses = 0.0;

    /** Design bugs found (attribution checks refuted, paper §6.1). */
    std::vector<std::string> bugs;

    /** SVAs whose final verdict stayed Unknown. */
    uint64_t unknownSvas = 0;

    /** Active validation mode ("off", "replay", "sample", "full"). */
    std::string validateMode = "off";
    /** True when a verdict cache (--cache or a shared one) was in use. */
    bool cacheEnabled = false;
    /** Resolved --engine mode ("bmc" or "race"). */
    std::string engineMode = "race";
    /**
     * Human-readable record of every conservative degradation an
     * Unknown verdict forced (one entry per degraded SVA; also
     * emitted as `%` notes in the printed model).
     */
    std::vector<std::string> degraded;

    /** Per-instruction node membership (element names). */
    std::map<std::string, std::vector<std::string>> instrNodes;

    /** DOT renderings: full-design DFG and per-instruction DFGs. */
    std::string fullDfgDot;
    std::map<std::string, std::string> instrDfgDots;

    double staticSeconds = 0.0; ///< parsing + DFG analysis
    double proofSeconds = 0.0;  ///< SVA evaluation (the JasperGold part)
    double postSeconds = 0.0;   ///< merging + model emission
    double totalSeconds = 0.0;

    /** Fig. 5-style table. */
    std::string report() const;

    /**
     * Structured run report (JSON): per-SVA verdict, verdict source,
     * retries, CNF size, solve time; plus run-level unknown/degraded
     * accounting. Schema documented in EXPERIMENTS.md.
     */
    std::string jsonReport() const;
};

/** Run the full synthesis procedure. */
SynthesisResult synthesize(const vlog::ElabResult &design,
                           const DesignMetadata &metadata,
                           const SynthesisOptions &options = {});

} // namespace r2u::rtl2uspec

#endif // R2U_RTL2USPEC_SYNTHESIS_HH
