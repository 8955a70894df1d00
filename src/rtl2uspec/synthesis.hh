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

/**
 * One evaluated HBI hypothesis (SVA + verdict), Fig. 5 raw data. The
 * verdict, its source, solver counts, CNF footprint, proof-path
 * attribution, validation flags and counterexample trace are the
 * engine's bmc::CheckResult as it came back; the fields below are what
 * only the synthesis frontend knows.
 */
struct SvaRecord : bmc::CheckResult
{
    std::string name;
    std::string category; ///< "intra", "spatial", "temporal", "dataflow"
    std::string text;     ///< SVA-style rendering (Fig. 4 flavor)
    /**
     * Always 0: each query gets one solve and budget-escalation
     * retries no longer exist. The benchmark (perfbench/src/synth.cc)
     * is the only reader; this goes when the next change to the
     * benchmark retires its bmc.retries metric.
     */
    static constexpr unsigned retries = 0;
    /**
     * True when this SVA's Unknown verdict forced a conservative
     * (weaker-model) synthesis choice; degradeNote says which.
     */
    bool degraded = false;
    std::string degradeNote;
    unsigned hypotheses = 1; ///< element-granular hypotheses it covers
    bool global = false;     ///< involves remote/global state
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

/**
 * Knobs for how the synthesis procedure runs (not what it computes).
 * The engine's knobs (jobs, conflict budget, query and total
 * deadlines, the caller's stop flag, --engine, validation, a
 * caller-owned journal or cache, the VCD directory and the fault
 * hook) are inherited from bmc::EngineOptions and reach the engine as
 * they are set; the fields below are what only the synthesis frontend
 * knows. Verdicts and the emitted model are identical at any jobs,
 * engine and budget that decides every SVA.
 */
struct SynthesisOptions : bmc::EngineOptions
{
    /**
     * Disable cone-of-influence slicing: eagerly bit-blast the whole
     * design at every frame of every unroll context (the pre-slicing
     * behavior, exposed as --full-unroll). Verdicts and the emitted
     * model are identical; only CNF sizes and runtime differ.
     */
    bool fullUnroll = false;
    /** Crash-safe run journal path ("" disables; when set, the
     *  journal opened here replaces a caller-set `journal`). */
    std::string journalPath;
    /** Resume from an existing journal instead of truncating it. */
    bool resumeJournal = false;
    /**
     * Cross-run content-addressed verdict cache directory (--cache;
     * "" disables; ignored when the caller sets `cache`). Each SVA
     * query is keyed by a hash of its COI slice, property encoding,
     * and bound, so re-synthesis of the same or a near-identical
     * design re-solves only the queries whose content actually
     * changed. Deliberately NOT keyed by --jobs or solver budgets:
     * those change how fast a verdict is found, never what the
     * verdict is.
     */
    std::string cacheDir;
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
     * CNF size, solve time; plus run-level unknown/degraded
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
