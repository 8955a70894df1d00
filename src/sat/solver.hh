/**
 * @file
 * A CDCL SAT solver in the MiniSat lineage.
 *
 * This is the proof engine that stands in for the commercial property
 * verifier (JasperGold) in the paper's flow: the BMC layer (src/bmc)
 * bit-blasts netlist properties into CNF and asks this solver for a
 * model (a counterexample trace) or an UNSAT verdict (a proof at bound).
 *
 * Features: two-watched-literal propagation (binary clauses settled
 * from the watcher alone), VSIDS decision heuristic with an indexed
 * max-heap, phase saving, first-UIP conflict analysis with local clause
 * minimization, Luby restarts, activity-ranked learnt-clause database
 * reduction with in-place arena compaction, solving under assumptions,
 * and query scopes whose clauses, learnt descendants and variables are
 * deleted when the scope retires (both used for incremental BMC).
 * There is one search configuration; nothing tunes it per solver.
 *
 * A solve() can be bounded by a conflict budget and a wall-clock
 * deadline (checked periodically), and stopped asynchronously from
 * another thread through a caller-owned stop flag — the machinery
 * behind the BMC layer's per-query and total timeouts and its stop
 * flag. Every early exit returns Result::Unknown and records why in
 * stopReason().
 */

#ifndef R2U_SAT_SOLVER_HH
#define R2U_SAT_SOLVER_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

namespace r2u::sat
{

/** Variable index, 0-based. */
using Var = int;

/**
 * Literal: packed as 2*var + sign, sign bit 1 means negated.
 * Default-constructed literals are invalid (undef).
 */
struct Lit
{
    int x = -2;

    bool operator==(const Lit &o) const { return x == o.x; }
    bool operator!=(const Lit &o) const { return x != o.x; }
    bool operator<(const Lit &o) const { return x < o.x; }
};

inline Lit
mkLit(Var v, bool neg = false)
{
    return Lit{2 * v + (neg ? 1 : 0)};
}

inline Lit operator~(Lit l) { return Lit{l.x ^ 1}; }
inline bool sign(Lit l) { return l.x & 1; }
inline Var var(Lit l) { return l.x >> 1; }

constexpr Lit kLitUndef{-2};

/** Tri-state assignment value. */
enum class LBool : int8_t { False = -1, Undef = 0, True = 1 };

inline LBool
operator^(LBool v, bool neg)
{
    return neg ? static_cast<LBool>(-static_cast<int8_t>(v)) : v;
}

enum class Result { Sat, Unsat, Unknown };

/** Why a solve() gave up with Result::Unknown (None otherwise). */
enum class StopReason : uint8_t {
    None,           ///< ran to completion (Sat or Unsat)
    ConflictBudget, ///< conflict budget exhausted
    Deadline,       ///< wall-clock deadline passed
    Interrupt,      ///< the external stop flag was set
};

const char *stopReasonName(StopReason reason);

/** Aggregate search statistics, exposed for benches and logging. */
struct SolverStats
{
    uint64_t conflicts = 0;
    uint64_t decisions = 0;
    uint64_t propagations = 0;
    uint64_t restarts = 0;
    uint64_t learntLiterals = 0;
    uint64_t removedClauses = 0;
};

class Solver
{
  public:
    Solver();

    Solver(const Solver &) = delete;
    Solver &operator=(const Solver &) = delete;

    /** Create a fresh variable and return its index. */
    Var newVar();

    /** Variables created; retired ones keep their index and count. */
    int numVars() const { return static_cast<int>(level_.size()); }

    /** Variables a retired scope took out of the search. */
    int numRetiredVars() const { return retired_vars_; }

    /**
     * Problem clauses submitted via addClause, less those a retired
     * scope deleted (learnt clauses are not counted). Used by the BMC
     * layer to report per-query CNF growth.
     */
    uint64_t numClauses() const
    {
        return added_clauses_ - retired_clauses_;
    }

    /**
     * Add a clause (disjunction of literals). Returns false if the
     * solver became trivially UNSAT (empty clause / conflicting units).
     * The literals are normalized in a reused scratch buffer, so no
     * call allocates once the buffer has grown.
     */
    bool addClause(const Lit *lits, size_t n);

    bool addClause(const std::vector<Lit> &lits)
    {
        return addClause(lits.data(), lits.size());
    }
    bool addClause(std::initializer_list<Lit> lits)
    {
        return addClause(lits.begin(), lits.size());
    }
    bool addClause(Lit a) { return addClause(&a, 1); }
    bool addClause(Lit a, Lit b) { return addClause({a, b}); }
    bool addClause(Lit a, Lit b, Lit c) { return addClause({a, b, c}); }

    /**
     * Solve under the given assumptions. Returns Sat, Unsat, or Unknown
     * if the conflict budget was exhausted.
     */
    Result solve(const std::vector<Lit> &assumptions = {});

    /** Model value of a variable after a Sat result. */
    bool modelValue(Var v) const;
    bool modelValue(Lit l) const { return modelValue(var(l)) ^ sign(l); }

    /**
     * The complete model after a Sat result (empty otherwise): every
     * variable has a concrete value, except the variables of retired
     * scopes: no clause mentions them any more, so the search never
     * decides them, and they stay Undef unless a level-0 fact assigned
     * them before retirement (the scope's own act is False).
     */
    const std::vector<LBool> &model() const { return model_; }

    /**
     * After an Unsat result under assumptions, the subset of assumptions
     * used in the final conflict (analogous to MiniSat's conflict core).
     */
    const std::vector<Lit> &conflictCore() const { return conflict_core_; }

    /** Limit total conflicts for one solve() call; <0 means no limit. */
    void setConflictBudget(int64_t budget) { conflict_budget_ = budget; }

    /**
     * Wall-clock deadline for one solve(), in seconds from the start
     * of the call; <0 disables. Checked periodically during search,
     * so a solve may overshoot by a small amount of work.
     */
    void setDeadline(double seconds) { deadline_seconds_ = seconds; }

    /**
     * Register a caller-owned stop flag, polled during search: while
     * it reads true every solve() returns Unknown (Interrupt), and
     * the caller re-arms the solver by clearing it. One flag can stop
     * a whole fleet of solvers (bmc::EngineOptions::stop). The pointee
     * must outlive the solver or be cleared with nullptr.
     */
    void setExternalInterrupt(const std::atomic<bool> *flag)
    {
        ext_interrupt_ = flag;
    }

    /**
     * Open a query scope (incremental BMC, see bmc::PropCtx): the
     * clauses added or learnt from here on are the scope's candidates
     * for retirement. At most one scope is open at a time.
     */
    void openScope();

    /**
     * Retire the open scope, at level 0: assert ~@p act, delete every
     * clause added or learnt since openScope() that is now satisfied
     * at level 0 — the clauses the scope guarded with ~act and every
     * learnt clause derived from them, which all contain ~act — purge
     * them from the watch lists they sat on, and take @p vars, the
     * scope's own variables, out of the search for good. The caller
     * guarantees that only clauses containing ~act mention @p vars.
     * The scan costs the clauses added since openScope(), not the
     * database.
     */
    void retireScope(Lit act, const std::vector<Var> &vars);

    /**
     * Copy the clause database — level-0 facts, problem clauses, and
     * (optionally) learnt clauses — into `out` as one clause per
     * entry, in this solver's variable numbering.
     */
    void exportCnf(std::vector<std::vector<Lit>> &out,
                   bool include_learnts = true) const;

    /**
     * Become a copy of `other`: clause database (learnts included),
     * variable numbering, watch lists, level-0 trail, saved phases and
     * activities — everything but the transient per-solve state
     * (budgets, deadline, interrupt wiring, statistics).
     * Orders of magnitude cheaper than re-adding the clauses one by
     * one because the watcher and heap structures are copied instead
     * of rebuilt. `other` must be idle at decision level 0 (between
     * solve() calls). The BMC engine uses this to warm-start sibling
     * incremental contexts from one bit-blasted transition relation.
     * An open scope is copied open: retireScope() then retires it in
     * the copy alone.
     */
    void cloneFrom(const Solver &other);

    /** Why the last solve() returned Unknown (None if it completed). */
    StopReason stopReason() const { return stop_reason_; }

    const SolverStats &stats() const { return stats_; }

  private:
    /** White-box arena checks and the learnt-cap seam (tests/). */
    friend struct SolverTestPeer;

    // --- clause arena ---
    // Every clause lives in one flat word buffer (arena_); a clause
    // reference (cref) is the word offset of its header:
    //   word 0   size << 3 | locked << 2 | deleted << 1 | learnt
    //   word 1   activity (float, bit-punned)
    //   word 2+  literals
    // Keeping header and literals contiguous — instead of one heap
    // vector per clause — is what makes propagate() cache-friendly
    // (one line fetch for short clauses), and lets cloneFrom() copy
    // the whole database as a single flat memcpy. reduceDB() tombstones
    // evicted clauses in place; garbageCollect() slides the live ones
    // down over them once the tombstones pass kGarbageFrac of the arena.
    static constexpr uint32_t kClauseHeader = 2;
    static constexpr uint32_t kFlagLearnt = 1;
    static constexpr uint32_t kFlagDeleted = 2;
    static constexpr uint32_t kFlagLocked = 4;

    /** Unowned view of one arena clause; invalidated by allocClause. */
    struct Clause
    {
        uint32_t *p;

        uint32_t size() const { return p[0] >> 3; }
        bool learnt() const { return (p[0] & kFlagLearnt) != 0; }
        bool deleted() const { return (p[0] & kFlagDeleted) != 0; }
        void markDeleted() { p[0] |= kFlagDeleted; }
        bool locked() const { return (p[0] & kFlagLocked) != 0; }
        void setLocked(bool on)
        {
            p[0] = on ? (p[0] | kFlagLocked) : (p[0] & ~kFlagLocked);
        }
        float activity() const
        {
            float a;
            std::memcpy(&a, &p[1], sizeof a);
            return a;
        }
        void setActivity(float a) { std::memcpy(&p[1], &a, sizeof a); }
        Lit *lits() { return reinterpret_cast<Lit *>(p + kClauseHeader); }
        const Lit *lits() const
        {
            return reinterpret_cast<const Lit *>(p + kClauseHeader);
        }
        Lit &operator[](uint32_t i) { return lits()[i]; }
        Lit operator[](uint32_t i) const { return lits()[i]; }
        Lit *begin() { return lits(); }
        Lit *end() { return lits() + size(); }
        const Lit *begin() const { return lits(); }
        const Lit *end() const { return lits() + size(); }
    };

    Clause clause(int cref) const
    {
        return Clause{const_cast<uint32_t *>(arena_.data()) + cref};
    }

    int allocClause(const Lit *lits, uint32_t size, bool learnt,
                    float activity);

    /**
     * One watch of a clause, kept in the list of the negation of a
     * watched literal. The blocker is a literal of the clause whose
     * truth settles the visit without touching the arena. For a binary
     * clause it is always the other literal, so propagate() settles a
     * binary clause from the watcher alone: the flag shares the word
     * with the cref (cref << 1 | binary) to keep a watcher 8 bytes.
     */
    struct Watcher
    {
        uint32_t word = 0;
        Lit blocker;

        Watcher() = default;
        Watcher(int cref, Lit blocker, bool binary)
            : word(static_cast<uint32_t>(cref) << 1 | (binary ? 1u : 0u)),
              blocker(blocker)
        {
        }
        int cref() const { return static_cast<int>(word >> 1); }
        bool binary() const { return (word & 1) != 0; }
    };

    // --- search core ---
    LBool value(Var v) const { return assigns_[2 * v]; }
    LBool value(Lit l) const { return assigns_[l.x]; }

    void attachClause(int cref);
    void detachClause(int cref);
    void uncheckedEnqueue(Lit l, int reason);
    int propagate(); // returns conflicting clause ref or -1
    void analyze(int confl, std::vector<Lit> &out_learnt,
                 int &out_btlevel);
    void analyzeFinal(Lit p);
    bool litRedundant(Lit l, uint32_t abstract_levels);
    /**
     * The reason clause of @p implied's variable, with @p implied at
     * index 0 where conflict analysis expects it. propagate() leaves a
     * binary clause's literals in arena order, so a binary reason is
     * oriented here, in the arena, when it is first read.
     */
    Clause reasonOf(Lit implied);
    void cancelUntil(int level);
    Lit pickBranchLit();
    Result search(int64_t conflicts_before_restart);
    void reduceDB();
    /**
     * Level 0 only: forget the level-0 reasons, slide every live clause
     * down over the tombstones inside the arena (crefs are remapped)
     * and rebuild the watch lists.
     */
    void garbageCollect();

    // --- VSIDS heap ---
    /** heap_pos_ of a retired variable: never (re)inserted. */
    static constexpr int kRetired = -2;
    void heapInsert(Var v);
    void heapRemove(Var v);
    void heapDecrease(Var v); // activity increased -> sift up
    Var heapRemoveMax();
    bool heapEmpty() const { return heap_.empty(); }
    void siftUp(int i);
    void siftDown(int i);
    void varBumpActivity(Var v);
    void varDecayActivity() { var_inc_ /= kVarDecay; }
    void claBumpActivity(Clause c);

    static int64_t luby(int64_t x);

    /** VSIDS variable and clause activity decay factors. */
    static constexpr double kVarDecay = 0.95;
    static constexpr double kClaDecay = 0.999;
    /** Luby restarts: conflicts per restart = luby(i) * kLubyUnit. */
    static constexpr int64_t kLubyUnit = 100;
    /**
     * MiniSat's garbage_frac: at level 0 (solve entry or a restart
     * boundary), compact once tombstoned words exceed this share of
     * the arena. Without it a long solve keeps every learnt clause it
     * ever evicted.
     */
    static constexpr double kGarbageFrac = 0.2;

    /**
     * Poll every stop condition. The deadline clock is only read every
     * kStopCheckInterval calls (steady_clock::now() is too expensive
     * for every search iteration); the stop flag and the budget are
     * checked on every call.
     */
    StopReason stopCheck();

    // --- state ---
    bool ok_ = true;
    std::vector<uint32_t> arena_; // flat clause storage (see Clause)
    /** Arena words held by tombstones (reclaimed by garbageCollect). */
    size_t wasted_ = 0;
    std::vector<int> crefs_;      // all clauses, allocation order
    std::vector<int> learnts_;    // learnt-clause crefs
    std::vector<std::vector<Watcher>> watches_; // indexed by Lit.x
    /** Value of each literal, indexed by Lit.x (both polarities kept,
     *  so value(Lit) is one load). */
    std::vector<LBool> assigns_;
    std::vector<bool> polarity_; // saved phase (true = last was false)
    std::vector<double> activity_;
    std::vector<int> heap_;     // binary max-heap of vars
    /** var -> index in heap_; -1 if absent, kRetired if retired. */
    std::vector<int> heap_pos_;
    std::vector<Lit> trail_;
    std::vector<int> trail_lim_;
    std::vector<int> reason_; // var -> clause ref or -1
    std::vector<int> level_;  // var -> decision level
    size_t qhead_ = 0;

    std::vector<Lit> assumptions_;
    std::vector<Lit> conflict_core_;
    std::vector<LBool> model_;

    // addClause scratch
    std::vector<Lit> add_tmp_;

    /** Index in crefs_ of the open scope's first clause. */
    static constexpr size_t kNoScope = static_cast<size_t>(-1);
    size_t scope_start_ = kNoScope;
    bool inScope() const { return scope_start_ != kNoScope; }
    int retired_vars_ = 0;
    uint64_t retired_clauses_ = 0;

    // analyze scratch
    std::vector<uint8_t> seen_;
    std::vector<Lit> analyze_stack_;
    std::vector<Lit> analyze_toclear_;

    double var_inc_ = 1.0;
    double cla_inc_ = 1.0;
    double max_learnts_ = 0;
    /** Test seam (SolverTestPeer): fixed learnt-clause cap; 0 sizes
     *  the cap from the problem. */
    double max_learnts_override_ = 0.0;
    /** garbageCollect() runs, for SolverTestPeer only. */
    uint64_t compactions_ = 0;

    int64_t conflict_budget_ = -1;
    int64_t conflicts_this_solve_ = 0;
    double deadline_seconds_ = -1.0;
    bool has_deadline_ = false;
    std::chrono::steady_clock::time_point deadline_point_;
    int stop_check_countdown_ = 0;
    const std::atomic<bool> *ext_interrupt_ = nullptr;
    StopReason stop_reason_ = StopReason::None;
    uint64_t added_clauses_ = 0;

    SolverStats stats_;

    int decisionLevel() const
    {
        return static_cast<int>(trail_lim_.size());
    }
};

} // namespace r2u::sat

#endif // R2U_SAT_SOLVER_HH
