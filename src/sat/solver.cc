#include "sat/solver.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"

namespace r2u::sat
{

const char *
stopReasonName(StopReason reason)
{
    switch (reason) {
      case StopReason::None: return "none";
      case StopReason::ConflictBudget: return "conflict-budget";
      case StopReason::Deadline: return "deadline";
      case StopReason::Interrupt: return "interrupt";
    }
    return "?";
}

Solver::Solver()
{
    watches_.clear();
}

Var
Solver::newVar()
{
    Var v = numVars();
    assigns_.push_back(LBool::Undef);
    polarity_.push_back(true); // decide false first, then saved phase
    activity_.push_back(0.0);
    heap_pos_.push_back(-1);
    reason_.push_back(-1);
    level_.push_back(0);
    seen_.push_back(0);
    watches_.emplace_back();
    watches_.emplace_back();
    heapInsert(v);
    return v;
}

bool
Solver::addClause(std::vector<Lit> lits)
{
    if (!ok_)
        return false;
    R2U_ASSERT(decisionLevel() == 0, "addClause above root level");
    added_clauses_++;

    // Sort, dedup, drop false literals, detect tautologies/satisfied.
    std::sort(lits.begin(), lits.end());
    std::vector<Lit> out;
    Lit prev = kLitUndef;
    for (Lit l : lits) {
        R2U_ASSERT(var(l) >= 0 && var(l) < numVars(), "bad literal");
        if (value(l) == LBool::True || l == ~prev)
            return true; // satisfied or tautology
        if (value(l) != LBool::False && l != prev) {
            out.push_back(l);
            prev = l;
        }
    }

    if (out.empty()) {
        ok_ = false;
        return false;
    }
    if (out.size() == 1) {
        uncheckedEnqueue(out[0], -1);
        ok_ = (propagate() == -1);
        return ok_;
    }

    int cref = allocClause(out.data(), static_cast<uint32_t>(out.size()),
                           false, 0.0f);
    crefs_.push_back(cref);
    attachClause(cref);
    return true;
}

int
Solver::allocClause(const Lit *lits, uint32_t size, bool learnt,
                    float activity)
{
    int cref = static_cast<int>(arena_.size());
    arena_.resize(arena_.size() + kClauseHeader + size);
    Clause c = clause(cref);
    c.p[0] = (size << 3) | (learnt ? kFlagLearnt : 0);
    c.setActivity(activity);
    std::memcpy(c.lits(), lits, size * sizeof(Lit));
    return cref;
}

void
Solver::attachClause(int cref)
{
    const Clause c = clause(cref);
    R2U_ASSERT(c.size() >= 2, "attach of short clause");
    watches_[(~c[0]).x].push_back(Watcher{cref, c[1]});
    watches_[(~c[1]).x].push_back(Watcher{cref, c[0]});
}

void
Solver::detachClause(int cref)
{
    const Clause c = clause(cref);
    for (int w = 0; w < 2; w++) {
        auto &ws = watches_[(~c[w]).x];
        for (size_t k = 0; k < ws.size(); k++) {
            if (ws[k].cref == cref) {
                ws[k] = ws.back();
                ws.pop_back();
                break;
            }
        }
    }
}

void
Solver::uncheckedEnqueue(Lit l, int reason)
{
    R2U_ASSERT(value(l) == LBool::Undef, "enqueue of assigned literal");
    assigns_[var(l)] = sign(l) ? LBool::False : LBool::True;
    polarity_[var(l)] = sign(l);
    reason_[var(l)] = reason;
    level_[var(l)] = decisionLevel();
    trail_.push_back(l);
}

int
Solver::propagate()
{
    int confl = -1;
    while (qhead_ < trail_.size()) {
        Lit p = trail_[qhead_++];
        stats_.propagations++;
        std::vector<Watcher> &ws = watches_[p.x];
        size_t i = 0, j = 0;
        while (i < ws.size()) {
            Watcher w = ws[i];
            if (value(w.blocker) == LBool::True) {
                ws[j++] = ws[i++];
                continue;
            }
            Lit *lits = clause(w.cref).lits();
            Lit false_lit = ~p;
            if (lits[0] == false_lit)
                std::swap(lits[0], lits[1]);
            i++;

            Lit first = lits[0];
            if (first != w.blocker && value(first) == LBool::True) {
                ws[j++] = Watcher{w.cref, first};
                continue;
            }

            // Look for a new watch.
            bool found = false;
            uint32_t sz = clause(w.cref).size();
            for (uint32_t k = 2; k < sz; k++) {
                if (value(lits[k]) != LBool::False) {
                    std::swap(lits[1], lits[k]);
                    watches_[(~lits[1]).x].push_back(
                        Watcher{w.cref, first});
                    found = true;
                    break;
                }
            }
            if (found)
                continue;

            // Unit or conflicting.
            ws[j++] = Watcher{w.cref, first};
            if (value(first) == LBool::False) {
                confl = w.cref;
                qhead_ = trail_.size();
                while (i < ws.size())
                    ws[j++] = ws[i++];
            } else {
                uncheckedEnqueue(first, w.cref);
            }
        }
        ws.resize(j);
        if (confl != -1)
            break;
    }
    return confl;
}

void
Solver::varBumpActivity(Var v)
{
    activity_[v] += var_inc_;
    if (activity_[v] > 1e100) {
        for (auto &a : activity_)
            a *= 1e-100;
        var_inc_ *= 1e-100;
    }
    if (heap_pos_[v] >= 0)
        siftUp(heap_pos_[v]);
}

void
Solver::claBumpActivity(Clause c)
{
    c.setActivity(c.activity() + static_cast<float>(cla_inc_));
    if (c.activity() > 1e20f) {
        for (int idx : learnts_) {
            Clause l = clause(idx);
            l.setActivity(l.activity() * 1e-20f);
        }
        cla_inc_ *= 1e-20;
    }
}

void
Solver::analyze(int confl, std::vector<Lit> &out_learnt,
                int &out_btlevel)
{
    int pathC = 0;
    Lit p = kLitUndef;
    out_learnt.clear();
    out_learnt.push_back(kLitUndef); // slot for the asserting literal
    int index = static_cast<int>(trail_.size()) - 1;

    do {
        R2U_ASSERT(confl != -1, "no reason in analyze");
        Clause c = clause(confl);
        if (c.learnt())
            claBumpActivity(c);
        for (uint32_t j = (p == kLitUndef) ? 0 : 1; j < c.size();
             j++) {
            Lit q = c[j];
            if (!seen_[var(q)] && level_[var(q)] > 0) {
                varBumpActivity(var(q));
                seen_[var(q)] = 1;
                if (level_[var(q)] >= decisionLevel())
                    pathC++;
                else
                    out_learnt.push_back(q);
            }
        }
        while (!seen_[var(trail_[index--])]) {
        }
        p = trail_[index + 1];
        confl = reason_[var(p)];
        seen_[var(p)] = 0;
        pathC--;
    } while (pathC > 0);
    out_learnt[0] = ~p;

    // Conflict-clause minimization (deep).
    analyze_toclear_ = out_learnt;
    uint32_t abstract_levels = 0;
    for (size_t i = 1; i < out_learnt.size(); i++)
        abstract_levels |= 1u << (level_[var(out_learnt[i])] & 31);
    size_t j = 1;
    for (size_t i = 1; i < out_learnt.size(); i++) {
        Lit l = out_learnt[i];
        if (reason_[var(l)] == -1 || !litRedundant(l, abstract_levels))
            out_learnt[j++] = l;
    }
    out_learnt.resize(j);
    stats_.learntLiterals += out_learnt.size();

    // Find the backtrack level (second-highest level in the clause).
    if (out_learnt.size() == 1) {
        out_btlevel = 0;
    } else {
        size_t max_i = 1;
        for (size_t i = 2; i < out_learnt.size(); i++)
            if (level_[var(out_learnt[i])] >
                level_[var(out_learnt[max_i])])
                max_i = i;
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = level_[var(out_learnt[1])];
    }

    for (Lit l : analyze_toclear_)
        seen_[var(l)] = 0;
    analyze_toclear_.clear();
}

bool
Solver::litRedundant(Lit p, uint32_t abstract_levels)
{
    analyze_stack_.clear();
    analyze_stack_.push_back(p);
    size_t top = analyze_toclear_.size();
    while (!analyze_stack_.empty()) {
        Lit q = analyze_stack_.back();
        analyze_stack_.pop_back();
        R2U_ASSERT(reason_[var(q)] != -1, "decision in litRedundant");
        const Clause c = clause(reason_[var(q)]);
        for (uint32_t i = 1; i < c.size(); i++) {
            Lit l = c[i];
            if (!seen_[var(l)] && level_[var(l)] > 0) {
                uint32_t abst = 1u << (level_[var(l)] & 31);
                if (reason_[var(l)] != -1 &&
                    (abst & abstract_levels) != 0) {
                    seen_[var(l)] = 1;
                    analyze_stack_.push_back(l);
                    analyze_toclear_.push_back(l);
                } else {
                    for (size_t k = top; k < analyze_toclear_.size();
                         k++)
                        seen_[var(analyze_toclear_[k])] = 0;
                    analyze_toclear_.resize(top);
                    return false;
                }
            }
        }
    }
    return true;
}

void
Solver::analyzeFinal(Lit p)
{
    conflict_core_.clear();
    conflict_core_.push_back(~p);
    if (decisionLevel() == 0)
        return;
    seen_[var(p)] = 1;
    for (int i = static_cast<int>(trail_.size()) - 1;
         i >= trail_lim_[0]; i--) {
        Var x = var(trail_[i]);
        if (!seen_[x])
            continue;
        if (reason_[x] == -1) {
            R2U_ASSERT(level_[x] > 0, "root decision in analyzeFinal");
            conflict_core_.push_back(~trail_[i]);
        } else {
            const Clause c = clause(reason_[x]);
            for (uint32_t j = 1; j < c.size(); j++)
                if (level_[var(c[j])] > 0)
                    seen_[var(c[j])] = 1;
        }
        seen_[x] = 0;
    }
    seen_[var(p)] = 0;
}

void
Solver::cancelUntil(int level)
{
    if (decisionLevel() <= level)
        return;
    for (int i = static_cast<int>(trail_.size()) - 1;
         i >= trail_lim_[level]; i--) {
        Var x = var(trail_[i]);
        assigns_[x] = LBool::Undef;
        if (heap_pos_[x] < 0)
            heapInsert(x);
    }
    qhead_ = static_cast<size_t>(trail_lim_[level]);
    trail_.resize(static_cast<size_t>(trail_lim_[level]));
    trail_lim_.resize(static_cast<size_t>(level));
}

// --- indexed binary max-heap on activity ---

void
Solver::heapInsert(Var v)
{
    heap_pos_[v] = static_cast<int>(heap_.size());
    heap_.push_back(v);
    siftUp(heap_pos_[v]);
}

void
Solver::siftUp(int i)
{
    Var v = heap_[i];
    while (i > 0) {
        int parent = (i - 1) / 2;
        if (activity_[heap_[parent]] >= activity_[v])
            break;
        heap_[i] = heap_[parent];
        heap_pos_[heap_[i]] = i;
        i = parent;
    }
    heap_[i] = v;
    heap_pos_[v] = i;
}

void
Solver::siftDown(int i)
{
    Var v = heap_[i];
    int n = static_cast<int>(heap_.size());
    while (true) {
        int child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n &&
            activity_[heap_[child + 1]] > activity_[heap_[child]])
            child++;
        if (activity_[heap_[child]] <= activity_[v])
            break;
        heap_[i] = heap_[child];
        heap_pos_[heap_[i]] = i;
        i = child;
    }
    heap_[i] = v;
    heap_pos_[v] = i;
}

Var
Solver::heapRemoveMax()
{
    Var v = heap_[0];
    heap_pos_[v] = -1;
    Var last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
        heap_[0] = last;
        heap_pos_[last] = 0;
        siftDown(0);
    }
    return v;
}

Lit
Solver::pickBranchLit()
{
    while (!heapEmpty()) {
        Var v = heapRemoveMax();
        if (value(v) == LBool::Undef)
            return mkLit(v, polarity_[v]);
    }
    return kLitUndef;
}

void
Solver::reduceDB()
{
    // Exact locked set: any clause that is the reason of a currently
    // assigned variable must survive — conflict analysis walks those
    // references. (The historical `value(lits[0]) == True` check was
    // only an approximation: propagate() swaps watched literals, so a
    // reason clause's asserting literal is not guaranteed to sit at
    // index 0 when the clause is later inspected.) The locked mark
    // lives in a header bit so no side table scales with arena size.
    for (Lit l : trail_) {
        int r = reason_[var(l)];
        if (r >= 0)
            clause(r).setLocked(true);
    }

    std::vector<int> keep, removable;
    keep.reserve(learnts_.size());
    for (int cref : learnts_) {
        const Clause c = clause(cref);
        if (c.locked() || c.size() <= 2)
            keep.push_back(cref);
        else
            removable.push_back(cref);
    }
    // Victims first: low activity; tie-break on clause index for
    // determinism.
    std::sort(removable.begin(), removable.end(), [&](int a, int b) {
        if (clause(a).activity() != clause(b).activity())
            return clause(a).activity() < clause(b).activity();
        return a < b;
    });
    size_t nremove = removable.size() / 2;
    for (size_t i = 0; i < nremove; i++) {
        int cref = removable[i];
        detachClause(cref);
        clause(cref).markDeleted();
        wasted_ += kClauseHeader + clause(cref).size();
        stats_.removedClauses++;
    }
    keep.insert(keep.end(), removable.begin() + nremove,
                removable.end());
    learnts_ = std::move(keep);

    for (Lit l : trail_) {
        int r = reason_[var(l)];
        if (r >= 0)
            clause(r).setLocked(false);
    }
    // If the keep classes (locked, binary) alone exceed the cap, the
    // reduction cannot reach it; raise the cap so the next trigger
    // waits for genuinely new learnts instead of re-running every
    // search iteration. solve() resets the cap on each call.
    if (static_cast<double>(learnts_.size()) >= max_learnts_)
        max_learnts_ = static_cast<double>(learnts_.size()) * 1.5;
}

void
Solver::garbageCollect()
{
    R2U_ASSERT(decisionLevel() == 0, "garbageCollect above root level");
    compactions_++;
    // Level-0 assignments are facts that conflict analysis never walks
    // back through; their reason crefs are about to move, so forget
    // them.
    for (Lit l : trail_)
        reason_[var(l)] = -1;

    // Slide every live clause down over the tombstones, inside arena_
    // itself. crefs_ is in allocation order, i.e. ascending offsets, so
    // a clause only ever moves to an offset at or below its own and
    // never onto a clause not yet visited. learnts_ is rebuilt from the
    // learnt flag in the same pass; its order does not affect the
    // search, because reduceDB() ranks victims totally (activity, then
    // cref) and relative cref order survives the slide.
    learnts_.clear();
    size_t out = 0, kept = 0;
    for (int cref : crefs_) {
        Clause c = clause(cref);
        if (c.deleted())
            continue;
        bool learnt = c.learnt();
        size_t words = kClauseHeader + c.size();
        if (out != static_cast<size_t>(cref))
            std::memmove(arena_.data() + out, c.p,
                         words * sizeof(uint32_t));
        crefs_[kept++] = static_cast<int>(out);
        if (learnt)
            learnts_.push_back(static_cast<int>(out));
        out += words;
    }
    crefs_.resize(kept);
    arena_.resize(out);
    wasted_ = 0;

    // Every watcher names a moved cref: re-watch each clause on the
    // same two literals it watched before.
    for (auto &ws : watches_)
        ws.clear();
    for (int cref : crefs_)
        attachClause(cref);
}

int64_t
Solver::luby(int64_t x)
{
    // Luby sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    int64_t size = 1, seq = 0;
    while (size < x + 1) {
        seq++;
        size = 2 * size + 1;
    }
    while (size - 1 != x) {
        size = (size - 1) / 2;
        seq--;
        x = x % size;
    }
    return 1ll << seq;
}

Result
Solver::search(int64_t conflicts_before_restart)
{
    int64_t conflicts_here = 0;
    std::vector<Lit> learnt;
    while (true) {
        int confl = propagate();
        if (confl != -1) {
            stats_.conflicts++;
            conflicts_this_solve_++;
            conflicts_here++;
            if (decisionLevel() == 0) {
                ok_ = false;
                conflict_core_.clear();
                return Result::Unsat;
            }
            int btlevel;
            analyze(confl, learnt, btlevel);
            cancelUntil(btlevel);

            if (learnt.size() == 1) {
                uncheckedEnqueue(learnt[0], -1);
            } else {
                int cref = allocClause(
                    learnt.data(), static_cast<uint32_t>(learnt.size()),
                    true, static_cast<float>(cla_inc_));
                crefs_.push_back(cref);
                learnts_.push_back(cref);
                attachClause(cref);
                uncheckedEnqueue(learnt[0], cref);
            }
            varDecayActivity();
            cla_inc_ /= kClaDecay;
        } else {
            if (conflicts_here >= conflicts_before_restart) {
                cancelUntil(0);
                stats_.restarts++;
                return Result::Unknown;
            }
            StopReason stop = stopCheck();
            if (stop != StopReason::None) {
                stop_reason_ = stop;
                cancelUntil(0);
                return Result::Unknown;
            }
            if (static_cast<double>(learnts_.size()) >= max_learnts_)
                reduceDB();

            // Establish assumptions, then decide.
            Lit next = kLitUndef;
            while (decisionLevel() <
                   static_cast<int>(assumptions_.size())) {
                Lit p = assumptions_[decisionLevel()];
                if (value(p) == LBool::True) {
                    trail_lim_.push_back(
                        static_cast<int>(trail_.size()));
                } else if (value(p) == LBool::False) {
                    analyzeFinal(~p);
                    return Result::Unsat;
                } else {
                    next = p;
                    break;
                }
            }
            if (next == kLitUndef) {
                stats_.decisions++;
                next = pickBranchLit();
                if (next == kLitUndef) {
                    // All variables assigned: model found.
                    model_.assign(assigns_.begin(), assigns_.end());
                    return Result::Sat;
                }
            } else {
                stats_.decisions++;
            }
            trail_lim_.push_back(static_cast<int>(trail_.size()));
            uncheckedEnqueue(next, -1);
        }
    }
}

StopReason
Solver::stopCheck()
{
    if (ext_interrupt_ && ext_interrupt_->load(std::memory_order_relaxed))
        return StopReason::Interrupt;
    if (conflict_budget_ >= 0 &&
        conflicts_this_solve_ >= conflict_budget_)
        return StopReason::ConflictBudget;
    if (has_deadline_ && --stop_check_countdown_ <= 0) {
        constexpr int kStopCheckInterval = 256;
        stop_check_countdown_ = kStopCheckInterval;
        if (std::chrono::steady_clock::now() >= deadline_point_)
            return StopReason::Deadline;
    }
    return StopReason::None;
}

Result
Solver::solve(const std::vector<Lit> &assumptions)
{
    conflict_core_.clear();
    // Invalidate the previous call's model up front: a non-Sat result
    // must not leave a stale (satisfying-looking) assignment around
    // for modelValue() to read.
    model_.clear();
    stop_reason_ = StopReason::None;
    if (!ok_)
        return Result::Unsat;
    assumptions_ = assumptions;
    conflicts_this_solve_ = 0;
    has_deadline_ = deadline_seconds_ >= 0.0;
    if (has_deadline_) {
        deadline_point_ =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(deadline_seconds_));
    }
    stop_check_countdown_ = 1; // read the clock on the first check
    max_learnts_ =
        max_learnts_override_ > 0.0
            ? max_learnts_override_
            : std::max<double>(
                  static_cast<double>(crefs_.size()) / 3.0, 1000.0);

    Result status = Result::Unknown;
    for (int64_t restart = 0;
         status == Result::Unknown && stop_reason_ == StopReason::None;
         restart++) {
        // Level 0, at solve entry or a restart boundary: the one point
        // where reclaiming reduceDB()'s tombstones is safe.
        if (static_cast<double>(wasted_) >
            kGarbageFrac * static_cast<double>(arena_.size()))
            garbageCollect();
        status = search(luby(restart) * kLubyUnit);
    }
    cancelUntil(0);
    assumptions_.clear();
    return status;
}

void
Solver::exportCnf(std::vector<std::vector<Lit>> &out,
                  bool include_learnts) const
{
    R2U_ASSERT(decisionLevel() == 0, "exportCnf above root level");
    size_t root = trail_lim_.empty()
                      ? trail_.size()
                      : static_cast<size_t>(trail_lim_[0]);
    for (size_t i = 0; i < root; i++)
        out.push_back({trail_[i]});
    for (int cref : crefs_) {
        const Clause c = clause(cref);
        if (c.deleted())
            continue; // tombstone
        if (c.learnt() && !include_learnts)
            continue;
        out.emplace_back(c.begin(), c.end());
    }
}

void
Solver::cloneFrom(const Solver &other)
{
    R2U_ASSERT(other.decisionLevel() == 0,
               "cloneFrom of a solver above root level");
    ok_ = other.ok_;
    arena_ = other.arena_;
    wasted_ = other.wasted_;
    crefs_ = other.crefs_;
    learnts_ = other.learnts_;
    watches_ = other.watches_;
    assigns_ = other.assigns_;
    polarity_ = other.polarity_;
    activity_ = other.activity_;
    heap_ = other.heap_;
    heap_pos_ = other.heap_pos_;
    trail_ = other.trail_;
    trail_lim_.clear();
    reason_ = other.reason_;
    level_ = other.level_;
    qhead_ = other.qhead_;
    seen_ = other.seen_;
    var_inc_ = other.var_inc_;
    cla_inc_ = other.cla_inc_;
    added_clauses_ = other.added_clauses_;
    // Per-solve transients start fresh: budgets, deadline, interrupt
    // wiring, model, and statistics stay this solver's own.
    model_.clear();
    conflict_core_.clear();
    assumptions_.clear();
    stop_reason_ = StopReason::None;
}

bool
Solver::modelValue(Var v) const
{
    R2U_ASSERT(v >= 0 && v < static_cast<int>(model_.size()),
               "modelValue of unknown var %d", v);
    return model_[v] == LBool::True;
}

} // namespace r2u::sat
