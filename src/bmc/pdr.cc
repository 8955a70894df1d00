#include "bmc/pdr.hh"

#include <algorithm>
#include <chrono>
#include <queue>

#include "common/logging.hh"
#include "common/timer.hh"

namespace r2u::bmc
{

using sat::Lit;

namespace
{

/** Extra levels searched for convergence past the BMC bound. */
constexpr unsigned kDefaultExtraFrames = 16;

/**
 * One bit of sequential state in the cone: its current-state (frame 0)
 * and next-state (frame 1) literals and its concrete power-on value
 * (-1 when the initial value is symbolic — free registers under
 * !concreteInit, or a memory listed in Options::symbolicMems).
 */
struct StateBit
{
    Lit cur;
    Lit next;
    int8_t init;
};

/** One literal of a state cube: state-bit index + model polarity. */
struct CubeLit
{
    uint32_t idx;
    bool val;
};

using Cube = std::vector<CubeLit>;

/** Proof obligation: block state cube `cube` at frame `level`. */
struct Obligation
{
    Cube cube;
    unsigned level;
    uint64_t seq; ///< tie-break: FIFO within a level, deterministic
    /**
     * Concrete distance (in transition steps) from this cube's state
     * to the bad state that spawned the chain. Predecessor pushes add
     * one; re-enqueues at a higher level keep it. An obligation chain
     * hitting Init is a real execution whose bad state sits at frame
     * depth + 1 — NOT at the obligation's level, which re-enqueued
     * obligations have already outgrown.
     */
    unsigned depth;
    /**
     * True for obligations descended from a blocked-cube re-enqueue
     * (the push-upward convergence optimization): their Init-hits are
     * counterexamples *deeper* than the level being cleared and must
     * not be reported as frame-level refutations.
     */
    bool opportunistic;
};

struct ObligationOrder
{
    bool
    operator()(const Obligation &a, const Obligation &b) const
    {
        if (a.level != b.level)
            return a.level > b.level; // min-heap on level
        return a.seq > b.seq;
    }
};

class Pdr
{
  public:
    Pdr(const nl::Netlist &netlist,
        const std::unordered_map<std::string, nl::CellId> &signals,
        Unroller::Options options, const nl::CoiSeeds &seeds,
        const FramePropertyFn &prop, const PdrOptions &popts)
        : popts_(popts), init_opts_(options),
          ctx_(netlist, signals,
               [&options] {
                   // The transition relation starts from a symbolic
                   // state; Init is asserted separately behind its own
                   // activation literal so reachability queries can
                   // opt in per frame.
                   Unroller::Options t = options;
                   t.concreteInit = false;
                   t.inputValues.clear();
                   t.regInit.clear();
                   return t;
               }(),
               /*bound=*/2),
          prop_(prop), seeds_(seeds)
    {
        R2U_ASSERT(popts_.bound >= 1, "PDR needs a positive bound");
    }

    PdrResult run();

  private:
    void buildStateAndInit();
    bool stopRequested();
    /** Budgeted solve; Unknown marks stopped_ with the right source. */
    sat::Result solve(std::vector<Lit> assumptions);
    /** Assumptions activating F_level (Init clauses too at level 0). */
    std::vector<Lit> frameAssumptions(unsigned level) const;
    void ensureLevel(unsigned level);
    Cube extractCube();
    /** Does the cube's concrete-init part match Init exactly? */
    bool cubeSatisfiesInit(const Cube &cube) const;
    /** Core-filter + init-repair; result still blocks the cube. */
    Cube generalize(const Cube &cube);
    void addFrameClause(Cube cube, unsigned level);
    /**
     * Block `cube` at `level` via the obligation queue. Returns false
     * when an initial state reaching a bad state was discovered (a
     * counterexample at frame `major`) or the budget ran out
     * (stopped_); true when every obligation was discharged.
     */
    bool blockAll(Cube cube, unsigned level, unsigned major);
    /**
     * Push frame clauses forward after level `k` cleared; true when
     * two consecutive frames converged (inductive invariant found).
     */
    bool propagate(unsigned k);

    const PdrOptions &popts_;
    /** Original options: the concrete-init semantics that define
     *  Init (the transition context itself is symbolic-init). */
    Unroller::Options init_opts_;
    PropCtx ctx_;
    const FramePropertyFn &prop_;
    const nl::CoiSeeds &seeds_;

    std::vector<StateBit> bits_;
    Lit bad_ = sat::kLitUndef;
    Lit act_init_ = sat::kLitUndef;
    std::vector<Lit> acts_; ///< acts_[l]: frame activation, l >= 1

    struct FrameClause
    {
        Cube cube;      ///< blocked cube (clause is its negation)
        unsigned level; ///< member of F_1 .. F_level
    };
    std::vector<FrameClause> clauses_;

    uint64_t obligation_seq_ = 0;
    /** Set when blockAll returns false on a counterexample (not a
     *  budget stop): the frame of the cex's bad state. */
    unsigned cex_depth_ = 0;
    /** Cleared once an opportunistic obligation digs out a deep
     *  counterexample: with a reachable bad state on record, the
     *  push-upward optimization can only rediscover it. */
    bool reenqueue_ = true;
    bool stopped_ = false;
    VerdictSource stop_source_ = VerdictSource::Solve;
    bool has_deadline_ = false;
    std::chrono::steady_clock::time_point deadline_;

    PdrResult result_;
};

void
Pdr::buildStateAndInit()
{
    const nl::Netlist &nl = ctx_.unroller().netlist();
    sat::CnfBuilder &cnf = ctx_.cnf();

    bool whole_design = seeds_.empty();
    nl::Coi coi;
    if (!whole_design)
        coi = nl::computeCoi(nl, seeds_);

    auto addBit = [&](Lit cur, Lit next, int8_t init) {
        bits_.push_back(StateBit{cur, next, init});
    };

    // Init below mirrors Unroller::buildWire / buildMemArray frame-0
    // semantics exactly: concreteInit takes registers from the
    // power-on value (regInit is a replay override honored only when
    // the initial state is symbolic), and a memInit entry for an
    // address is concrete regardless of symbolicMems/concreteInit.
    for (nl::CellId d : nl.dffs()) {
        if (!whole_design && !coi.hasCell(d))
            continue;
        const sat::Word &cur = ctx_.unroller().wire(0, d);
        const sat::Word &next = ctx_.unroller().wire(1, d);
        const Bits *iv = nullptr;
        if (init_opts_.concreteInit) {
            iv = &nl.cell(d).value;
        } else {
            auto it = init_opts_.regInit.find(d);
            if (it != init_opts_.regInit.end())
                iv = &it->second;
        }
        for (unsigned b = 0; b < cur.size(); b++) {
            int8_t init = -1;
            if (iv && b < iv->width())
                init = iv->bit(b) ? 1 : 0;
            addBit(cur[b], next[b], init);
        }
    }
    for (size_t m = 0; m < nl.numMemories(); m++) {
        nl::MemId mem = static_cast<nl::MemId>(m);
        if (!whole_design && !coi.hasMem(mem))
            continue;
        const nl::Memory &mm = nl.memory(mem);
        bool symbolic = !init_opts_.concreteInit ||
                        init_opts_.symbolicMems.count(mem) > 0;
        auto ov = init_opts_.memInit.find(mem);
        for (unsigned a = 0; a < mm.depth; a++) {
            const sat::Word &cur = ctx_.unroller().memWord(0, mem, a);
            const sat::Word &next = ctx_.unroller().memWord(1, mem, a);
            const Bits *iv = nullptr;
            if (ov != init_opts_.memInit.end() &&
                a < ov->second.size())
                iv = &ov->second[a];
            else if (!symbolic && a < mm.init.size())
                iv = &mm.init[a];
            for (unsigned b = 0; b < cur.size(); b++) {
                int8_t init = -1;
                if (iv && b < iv->width())
                    init = iv->bit(b) ? 1 : 0;
                addBit(cur[b], next[b], init);
            }
        }
    }
    result_.stateBits = bits_.size();

    // Init behind its own activation literal: one guarded unit per
    // concretely initialized state bit. Symbolic bits stay free.
    act_init_ = cnf.freshLit();
    for (const StateBit &sb : bits_) {
        if (sb.init < 0)
            continue;
        ctx_.solver().addClause(~act_init_,
                                sb.init ? sb.cur : ~sb.cur);
    }
}

bool
Pdr::stopRequested()
{
    if (popts_.limits.cancel &&
        popts_.limits.cancel->load(std::memory_order_relaxed)) {
        stop_source_ = VerdictSource::Interrupted;
        return true;
    }
    return false;
}

sat::Result
Pdr::solve(std::vector<Lit> assumptions)
{
    if (stopped_)
        return sat::Result::Unknown;
    if (stopRequested()) {
        stopped_ = true;
        return sat::Result::Unknown;
    }
    sat::Solver &solver = ctx_.solver();
    // Budgets are totals across the whole PDR run: each call gets
    // whatever remains.
    if (popts_.limits.conflicts >= 0) {
        int64_t remaining =
            popts_.limits.conflicts -
            static_cast<int64_t>(solver.stats().conflicts);
        if (remaining <= 0) {
            stopped_ = true;
            stop_source_ = VerdictSource::ConflictBudget;
            return sat::Result::Unknown;
        }
        solver.setConflictBudget(remaining);
    } else {
        solver.setConflictBudget(-1);
    }
    if (has_deadline_) {
        double remaining =
            std::chrono::duration<double>(
                deadline_ - std::chrono::steady_clock::now())
                .count();
        if (remaining <= 0) {
            stopped_ = true;
            stop_source_ = VerdictSource::QueryDeadline;
            return sat::Result::Unknown;
        }
        solver.setDeadline(remaining);
    }
    sat::Result r = solver.solve(assumptions);
    if (r == sat::Result::Unknown) {
        stopped_ = true;
        stop_source_ = sourceFromStop(solver.stopReason());
    }
    return r;
}

std::vector<Lit>
Pdr::frameAssumptions(unsigned level) const
{
    std::vector<Lit> as;
    as.reserve(acts_.size() + 2);
    if (level == 0)
        as.push_back(act_init_);
    // Monotone frames: clauses(F_i) = clauses at level >= i, so F_i is
    // asserted by activating every level from max(i, 1) up.
    for (unsigned l = std::max(level, 1u); l < acts_.size(); l++)
        as.push_back(acts_[l]);
    return as;
}

void
Pdr::ensureLevel(unsigned level)
{
    if (acts_.empty())
        acts_.push_back(sat::kLitUndef); // level 0 is Init
    while (acts_.size() <= level)
        acts_.push_back(ctx_.cnf().freshLit());
}

Cube
Pdr::extractCube()
{
    sat::Solver &solver = ctx_.solver();
    Cube cube;
    cube.reserve(bits_.size());
    for (uint32_t i = 0; i < bits_.size(); i++)
        cube.push_back(CubeLit{i, solver.modelValue(bits_[i].cur)});
    return cube;
}

bool
Pdr::cubeSatisfiesInit(const Cube &cube) const
{
    for (const CubeLit &cl : cube) {
        int8_t init = bits_[cl.idx].init;
        if (init >= 0 && (init != 0) != cl.val)
            return false;
    }
    return true;
}

Cube
Pdr::generalize(const Cube &cube)
{
    // Keep the literals whose primed copy the solver actually used in
    // the final conflict; everything else is irrelevant to the
    // blocking proof and can be dropped (the clause over the kept
    // subset is still relatively inductive — shrinking the cube only
    // strengthens the UNSAT side of the consecution query).
    const std::vector<Lit> &core = ctx_.solver().conflictCore();
    std::vector<bool> in_core; // indexed by solver var
    for (Lit l : core) {
        size_t v = static_cast<size_t>(sat::var(l));
        if (in_core.size() <= v)
            in_core.resize(v + 1, false);
        in_core[v] = true;
    }
    Cube gen;
    gen.reserve(cube.size());
    for (const CubeLit &cl : cube) {
        Lit next = bits_[cl.idx].next;
        size_t v = static_cast<size_t>(sat::var(next));
        if (v < in_core.size() && in_core[v])
            gen.push_back(cl);
    }
    // Init repair: the learned clause must hold in every initial
    // state, i.e. the kept cube must contradict Init somewhere. The
    // full cube always does (an init cube reaching bad is caught as a
    // counterexample before blocking), so add one such literal back
    // if core filtering dropped them all.
    if (cubeSatisfiesInit(gen)) {
        for (const CubeLit &cl : cube) {
            int8_t init = bits_[cl.idx].init;
            if (init >= 0 && (init != 0) != cl.val) {
                gen.push_back(cl);
                break;
            }
        }
    }
    R2U_ASSERT(!cubeSatisfiesInit(gen),
               "PDR generalization produced an init-intersecting "
               "clause");
    return gen;
}

void
Pdr::addFrameClause(Cube cube, unsigned level)
{
    ensureLevel(level);
    std::vector<Lit> clause;
    clause.reserve(cube.size() + 1);
    clause.push_back(~acts_[level]);
    for (const CubeLit &cl : cube) {
        Lit cur = bits_[cl.idx].cur;
        clause.push_back(cl.val ? ~cur : cur);
    }
    ctx_.solver().addClause(clause);
    clauses_.push_back(FrameClause{std::move(cube), level});
    result_.clausesLearned++;
}

bool
Pdr::blockAll(Cube cube, unsigned level, unsigned major)
{
    std::priority_queue<Obligation, std::vector<Obligation>,
                        ObligationOrder>
        queue;
    queue.push(Obligation{std::move(cube), level, obligation_seq_++,
                          /*depth=*/0, /*opportunistic=*/false});

    // An opportunistic obligation's Init-hit is a real execution, but
    // its bad state lies beyond the level being cleared — reporting it
    // as a frame-`major` refutation both misstates the cex frame and,
    // when the true depth is past PdrOptions::bound, flips a bounded
    // Proven into a wrong Refuted. Drop the optimization instead: the
    // original (non-opportunistic) chain alone clears the level, and
    // its Init-hits land at exactly the shortest cex frame.
    auto purge_opportunistic = [&queue, this] {
        reenqueue_ = false;
        std::vector<Obligation> keep;
        while (!queue.empty()) {
            if (!queue.top().opportunistic)
                keep.push_back(queue.top());
            queue.pop();
        }
        for (Obligation &o : keep)
            queue.push(std::move(o));
    };

    while (!queue.empty()) {
        Obligation ob = queue.top();
        result_.obligations++;
        if (ob.level == 0) {
            // An initial state with a path to a bad state: concrete
            // counterexample. (Defensive — predecessors are tested
            // against Init before they are enqueued.)
            if (ob.opportunistic) {
                purge_opportunistic();
                continue;
            }
            cex_depth_ = ob.depth;
            return false;
        }

        // Consecution: is `ob.cube` reachable from F_{level-1} \ cube
        // in one step? Assert ¬cube behind a throwaway activation
        // literal (relative induction) and assume the primed cube.
        sat::CnfBuilder &cnf = ctx_.cnf();
        Lit tmp = cnf.freshLit();
        std::vector<Lit> not_cube;
        not_cube.reserve(ob.cube.size() + 1);
        not_cube.push_back(~tmp);
        for (const CubeLit &cl : ob.cube) {
            Lit cur = bits_[cl.idx].cur;
            not_cube.push_back(cl.val ? ~cur : cur);
        }
        ctx_.solver().addClause(not_cube);

        std::vector<Lit> as = frameAssumptions(ob.level - 1);
        as.push_back(tmp);
        for (const CubeLit &cl : ob.cube) {
            Lit next = bits_[cl.idx].next;
            as.push_back(cl.val ? next : ~next);
        }
        sat::Result r = solve(std::move(as));

        if (r == sat::Result::Unknown) {
            ctx_.solver().addClause(~tmp);
            return false; // stopped_ set by solve()
        }
        if (r == sat::Result::Unsat) {
            Cube gen = generalize(ob.cube);
            ctx_.solver().addClause(~tmp); // retire the guard
            addFrameClause(std::move(gen), ob.level);
            queue.pop();
            // Re-block at the next level: pushing obligations upward
            // keeps deep frames populated and speeds convergence. The
            // re-enqueue keeps its distance-to-bad but outgrows the
            // level — mark it so a later Init-hit is not mistaken for
            // a frame-`major` counterexample.
            if (reenqueue_ && ob.level < major)
                queue.push(Obligation{std::move(ob.cube),
                                      ob.level + 1,
                                      obligation_seq_++, ob.depth,
                                      /*opportunistic=*/true});
            continue;
        }

        // Sat: a predecessor inside F_{level-1}. If it is an initial
        // state the obligation chain is a real counterexample with its
        // bad state at frame depth + 1.
        Cube pred = extractCube();
        ctx_.solver().addClause(~tmp);
        if (cubeSatisfiesInit(pred)) {
            if (ob.opportunistic) {
                purge_opportunistic();
                continue;
            }
            cex_depth_ = ob.depth + 1;
            return false;
        }
        queue.push(
            Obligation{std::move(pred), ob.level - 1,
                       obligation_seq_++, ob.depth + 1,
                       ob.opportunistic});
    }
    return true;
}

bool
Pdr::propagate(unsigned k)
{
    ensureLevel(k + 1);
    for (unsigned i = 1; i <= k; i++) {
        size_t n = clauses_.size();
        for (size_t c = 0; c < n; c++) {
            if (clauses_[c].level != i)
                continue;
            // Push c forward iff F_i ∧ T ⇒ c' — i.e. the primed cube
            // is unreachable from F_i in one step.
            std::vector<Lit> as = frameAssumptions(i);
            as.reserve(as.size() + clauses_[c].cube.size());
            for (const CubeLit &cl : clauses_[c].cube) {
                Lit next = bits_[cl.idx].next;
                as.push_back(cl.val ? next : ~next);
            }
            sat::Result r = solve(std::move(as));
            if (r == sat::Result::Unknown)
                return false; // stopped_ set
            if (r == sat::Result::Unsat) {
                clauses_[c].level = i + 1;
                std::vector<Lit> clause;
                clause.reserve(clauses_[c].cube.size() + 1);
                clause.push_back(~acts_[i + 1]);
                for (const CubeLit &cl : clauses_[c].cube) {
                    Lit cur = bits_[cl.idx].cur;
                    clause.push_back(cl.val ? ~cur : cur);
                }
                ctx_.solver().addClause(clause);
                result_.clausesPushed++;
            }
        }
        bool converged = true;
        for (const FrameClause &fc : clauses_) {
            if (fc.level == i) {
                converged = false;
                break;
            }
        }
        // No clause lives at exactly level i: clauses(F_i) ==
        // clauses(F_{i+1}), so F_i is closed under the transition
        // relation. It contains Init and (level k >= i cleared,
        // frames monotone) excludes every bad state: an inductive
        // invariant proving the property outright.
        if (converged)
            return true;
    }
    return false;
}

PdrResult
Pdr::run()
{
    Timer timer;
    sat::Solver &solver = ctx_.solver();
    if (popts_.limits.config)
        solver.setConfig(*popts_.limits.config);
    solver.setExternalInterrupt(popts_.limits.cancel);
    if (popts_.limits.seconds >= 0) {
        has_deadline_ = true;
        deadline_ = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(
                            popts_.limits.seconds));
    }

    buildStateAndInit();
    bad_ = prop_(ctx_, 0);

    unsigned bound = popts_.bound;
    unsigned max_level =
        popts_.maxFrames > 0 ? popts_.maxFrames
                             : bound - 1 + kDefaultExtraFrames;
    if (max_level < bound - 1)
        max_level = bound - 1;

    auto finish = [&](Verdict v, VerdictSource src, bool unbounded,
                      unsigned cex_frame) {
        result_.verdict = v;
        result_.source = src;
        result_.unbounded = unbounded;
        result_.cexFrame = cex_frame;
        result_.conflicts = solver.stats().conflicts;
        result_.propagations = solver.stats().propagations;
        result_.cnfVars = static_cast<size_t>(solver.numVars());
        result_.cnfClauses = static_cast<size_t>(solver.numClauses());
        result_.seconds = timer.seconds();
        solver.setExternalInterrupt(nullptr);
        return result_;
    };

    // Level 0: a bad initial state refutes at frame 0 outright.
    {
        std::vector<Lit> as = frameAssumptions(0);
        as.push_back(bad_);
        sat::Result r = solve(std::move(as));
        if (r == sat::Result::Unknown)
            return finish(Verdict::Unknown, stop_source_, false, 0);
        if (r == sat::Result::Sat)
            return finish(Verdict::Refuted, VerdictSource::Solve,
                          false, 0);
    }

    for (unsigned k = 1;; k++) {
        if (k > max_level) {
            // Ran out of levels without convergence; the bound itself
            // was cleared levels ago.
            return finish(Verdict::Proven, VerdictSource::Solve,
                          false, 0);
        }
        ensureLevel(k);

        // Clear level k: block every bad state reachable within k
        // steps (as overapproximated by F_k).
        while (true) {
            std::vector<Lit> as = frameAssumptions(k);
            as.push_back(bad_);
            sat::Result r = solve(std::move(as));
            if (r == sat::Result::Unknown) {
                // Levels complete in order: if the bound was already
                // cleared, budget exhaustion past it still yields the
                // BMC verdict.
                if (k > bound - 1)
                    return finish(Verdict::Proven,
                                  VerdictSource::Solve, false, 0);
                return finish(Verdict::Unknown, stop_source_, false,
                              0);
            }
            if (r == sat::Result::Unsat)
                break; // level k cleared
            Cube s = extractCube();
            bool cex = false;
            if (cubeSatisfiesInit(s)) {
                cex_depth_ = 0; // defensive: level 0 is clear
                cex = true;
            } else if (!blockAll(std::move(s), k, k)) {
                cex = true; // cex_depth_ set unless stopped_
            }
            if (cex) {
                if (stopped_) {
                    if (k > bound - 1)
                        return finish(Verdict::Proven,
                                      VerdictSource::Solve, false, 0);
                    return finish(Verdict::Unknown, stop_source_,
                                  false, 0);
                }
                // Counterexample at frame cex_depth_. Original-chain
                // Init-hits only, so with levels < k clear this is
                // the shortest violation (depth == k).
                if (cex_depth_ <= bound - 1)
                    return finish(Verdict::Refuted,
                                  VerdictSource::Solve, false,
                                  cex_depth_);
                // Deeper than the bound: BMC at this bound proves.
                return finish(Verdict::Proven, VerdictSource::Solve,
                              false, 0);
            }
        }
        result_.frames = k;

        if (propagate(k))
            return finish(Verdict::Proven, VerdictSource::Solve,
                          true, 0);
        if (stopped_) {
            if (k >= bound - 1)
                return finish(Verdict::Proven, VerdictSource::Solve,
                              false, 0);
            return finish(Verdict::Unknown, stop_source_, false, 0);
        }
    }
}

} // namespace

PdrResult
checkPdr(const nl::Netlist &netlist,
         const std::unordered_map<std::string, nl::CellId> &signals,
         Unroller::Options options, const nl::CoiSeeds &seeds,
         const FramePropertyFn &prop, const PdrOptions &popts)
{
    Pdr pdr(netlist, signals, std::move(options), seeds, prop, popts);
    return pdr.run();
}

} // namespace r2u::bmc
