/**
 * @file
 * Time-frame expansion of a netlist into CNF.
 *
 * The Unroller bit-blasts a synchronous netlist over k clock frames
 * through a CnfBuilder: inputs become fresh variables per frame,
 * registers follow Q' = EN ? D : Q, and memories are modeled as
 * per-frame arrays of words with read-before-write semantics matching
 * sim::Simulator. Initial state is either concrete (power-on values,
 * with selected memories made symbolic) or fully free (used by
 * induction-style reasoning).
 *
 * Construction is demand-driven by default: wire(frame, cell) builds
 * only the transitive fan-in of the requested wire (per-cell memoized,
 * registers chasing D/EN into the previous frame), and a memory array
 * is materialized at a frame only when a read or a dependent write in
 * the cone demands it. This is the cone-of-influence reduction the
 * paper gets from JasperGold: a localized SVA only ever pays for the
 * few state elements it mentions, not the whole design (see
 * nl::computeCoi for the static characterization of what can be
 * built). Options::fullUnroll restores the eager everything-at-every-
 * frame behavior for differential testing.
 *
 * Everything the Unroller builds is permanent (CnfBuilder::Permanent):
 * inside a query scope its clauses stay unguarded and its gates go to
 * the shared caches, because the memoized wires serve every later
 * query on the context.
 */

#ifndef R2U_BMC_UNROLLER_HH
#define R2U_BMC_UNROLLER_HH

#include <map>
#include <set>
#include <vector>

#include "netlist/netlist.hh"
#include "sat/cnf.hh"

namespace r2u::bmc
{

class Unroller
{
  public:
    struct Options
    {
        /** Concrete power-on state (vs fully symbolic initial state). */
        bool concreteInit = true;
        /**
         * Eagerly bit-blast every cell and every memory word at every
         * frame (the pre-slicing behavior, exposed as --full-unroll).
         * Verdicts are identical either way; only CNF size differs.
         */
        bool fullUnroll = false;
        /** Memories whose initial contents are symbolic regardless. */
        std::set<nl::MemId> symbolicMems;
        /** Concrete initial contents overriding the netlist defaults. */
        std::map<nl::MemId, std::vector<Bits>> memInit;
        /**
         * Concrete per-frame input overrides: inputValues[frame][cell]
         * builds that input as a constant word instead of fresh
         * variables. Used by counterexample replay (bmc/validate): a
         * fully pinned cone constant-folds through the CnfBuilder, so
         * re-evaluating a monitor over a concrete trace costs almost
         * nothing. Inputs without an override stay symbolic.
         */
        std::vector<std::map<nl::CellId, Bits>> inputValues;
        /**
         * Concrete frame-0 register overrides, honored when the
         * initial state is symbolic (!concreteInit). Same replay use.
         */
        std::map<nl::CellId, Bits> regInit;
    };

    /** Construction-effort counters (what the laziness saved). */
    struct Stats
    {
        uint64_t wiresBuilt = 0;     ///< (frame, cell) words built
        uint64_t memArraysBuilt = 0; ///< (frame, mem) arrays built
        uint64_t memWordsBuilt = 0;  ///< total words in those arrays
    };

    Unroller(const nl::Netlist &netlist, sat::CnfBuilder &cnf,
             Options options);

    sat::CnfBuilder &cnf() { return cnf_; }
    const nl::Netlist &netlist() const { return nl_; }
    const Options &options() const { return options_; }

    /**
     * Make frames 0..n-1 addressable. Eager mode builds them fully;
     * demand-driven mode only reserves the memo tables.
     */
    void ensureFrames(unsigned n);

    /**
     * Adopt another unroller's memo tables (built wires, memory
     * arrays, construction stats). Only meaningful over the same
     * netlist right after Solver::cloneFrom() of the other unroller's
     * solver, so the adopted Words refer to live variables. Wires the
     * donor built are then served from the memo instead of being
     * bit-blasted again.
     */
    void adoptState(const Unroller &other);

    unsigned frames() const
    {
        return static_cast<unsigned>(wires_.size());
    }

    /** CNF word for a wire at a frame (builds its cone on demand). */
    const sat::Word &wire(unsigned frame, nl::CellId cell);

    /** CNF word for one memory word at a frame (demands the array). */
    const sat::Word &memWord(unsigned frame, nl::MemId mem, unsigned addr);

    /**
     * After a Sat result: concrete value of a wire in the model. The
     * wire must have been demanded before the solve — a fresh demand
     * here would mint variables the model does not cover.
     */
    Bits wireValue(unsigned frame, nl::CellId cell);

    /** Has this (frame, cell) wire been bit-blasted? */
    bool wireMaterialized(unsigned frame, nl::CellId cell) const;

    /** Has this (frame, mem) array been bit-blasted? */
    bool memMaterialized(unsigned frame, nl::MemId mem) const;

    /** Has any frame of this memory been bit-blasted? */
    bool memEverMaterialized(nl::MemId mem) const;

    const Stats &stats() const { return stats_; }

  private:
    /** One pending (frame, cell-or-mem) construction task. */
    struct DemandTask
    {
        unsigned frame;
        int id; ///< CellId or MemId depending on isMem
        bool isMem;
        bool expanded;
    };

    void demand(unsigned frame, int id, bool is_mem);
    void pushDeps(std::vector<DemandTask> &stack, const DemandTask &t);
    void buildWire(unsigned f, nl::CellId id);
    void buildMemArray(unsigned f, nl::MemId m);
    void buildFrameEager(unsigned f);

    /** Wrap an address to the memory's abits (power-of-two modulo). */
    sat::Word normAddr(const sat::Word &addr, unsigned abits);
    sat::Word readMem(unsigned frame, nl::MemId mem,
                      const sat::Word &addr);

    const nl::Netlist &nl_;
    sat::CnfBuilder &cnf_;
    Options options_;

    /** wires_[frame][cell] — empty Word until built. */
    std::vector<std::vector<sat::Word>> wires_;
    /** mems_[frame][mem][addr] — word contents at frame start. */
    std::vector<std::vector<std::vector<sat::Word>>> mems_;
    /** mem_built_[frame][mem] — arrays memoized separately (a
     *  memory's word vector being empty can't distinguish depth-0). */
    std::vector<std::vector<char>> mem_built_;

    Stats stats_;
};

} // namespace r2u::bmc

#endif // R2U_BMC_UNROLLER_HH
