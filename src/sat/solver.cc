#include "sat/solver.hh"

#include <algorithm>
#include <chrono>
#include <utility>

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
Solver::addClause(const Lit *lits, size_t n)
{
    if (!ok_)
        return false;
    R2U_ASSERT(decisionLevel() == 0, "addClause above root level");
    added_clauses_++;

    // Sort, dedup, drop false literals, detect tautologies/satisfied,
    // compacting in place in the scratch buffer.
    add_tmp_.assign(lits, lits + n);
    std::sort(add_tmp_.begin(), add_tmp_.end());
    size_t out = 0;
    Lit prev = kLitUndef;
    for (Lit l : add_tmp_) {
        R2U_ASSERT(var(l) >= 0 && var(l) < numVars(), "bad literal");
        if (value(l) == LBool::True || l == ~prev)
            return true; // satisfied or tautology
        if (value(l) != LBool::False && l != prev) {
            add_tmp_[out++] = l;
            prev = l;
        }
    }

    if (out == 0) {
        ok_ = false;
        return false;
    }
    if (out == 1) {
        uncheckedEnqueue(add_tmp_[0], -1);
        ok_ = (propagate() == -1);
        return ok_;
    }

    int cref = allocClause(add_tmp_.data(), static_cast<uint32_t>(out),
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
    bool binary = c.size() == 2;
    watches_[(~c[0]).x].push_back(Watcher(cref, c[1], binary));
    watches_[(~c[1]).x].push_back(Watcher(cref, c[0], binary));
}

void
Solver::detachClause(int cref)
{
    const Clause c = clause(cref);
    for (int w = 0; w < 2; w++) {
        auto &ws = watches_[(~c[w]).x];
        for (size_t k = 0; k < ws.size(); k++) {
            if (ws[k].cref() == cref) {
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
    assigns_[l.x] = LBool::True;
    assigns_[(~l).x] = LBool::False;
    polarity_[var(l)] = sign(l);
    reason_[var(l)] = reason;
    level_[var(l)] = decisionLevel();
    trail_.push_back(l);
    // propagate() will walk l's watch list: start loading its header.
    __builtin_prefetch(&watches_[l.x]);
}

int
Solver::propagate()
{
    int confl = -1;
    while (qhead_ < trail_.size()) {
        Lit p = trail_[qhead_++];
        // Each watch list is a separate allocation, so reaching one
        // costs a cache miss; load the next literal's list while this
        // one is walked. (Search-identical: a hint only.)
        if (qhead_ < trail_.size())
            __builtin_prefetch(watches_[trail_[qhead_].x].data());
        Lit false_lit = ~p;
        stats_.propagations++;
        std::vector<Watcher> &ws = watches_[p.x];
        Watcher *i = ws.data(), *j = i, *end = i + ws.size();
        while (i != end) {
            Watcher w = *i++;
            LBool blocker = value(w.blocker);
            if (blocker == LBool::True) {
                *j++ = w;
                continue;
            }
            if (w.binary()) {
                // The blocker is the other literal: unit or conflict,
                // settled without the arena.
                *j++ = w;
                if (blocker == LBool::Undef) {
                    uncheckedEnqueue(w.blocker, w.cref());
                    continue;
                }
                // Conflict analysis reads the conflict clause from
                // index 0: leave it as [blocker, false_lit], the order
                // a long clause's swap below would give it.
                Lit *lits = clause(w.cref()).lits();
                lits[0] = w.blocker;
                lits[1] = false_lit;
                confl = w.cref();
                qhead_ = trail_.size();
                while (i != end)
                    *j++ = *i++;
                break;
            }

            Clause c = clause(w.cref());
            Lit *lits = c.lits();
            if (lits[0] == false_lit)
                std::swap(lits[0], lits[1]);

            Lit first = lits[0];
            if (first != w.blocker && value(first) == LBool::True) {
                *j++ = Watcher(w.cref(), first, false);
                continue;
            }

            // Look for a new watch.
            bool found = false;
            uint32_t sz = c.size();
            for (uint32_t k = 2; k < sz; k++) {
                if (value(lits[k]) != LBool::False) {
                    std::swap(lits[1], lits[k]);
                    watches_[(~lits[1]).x].push_back(
                        Watcher(w.cref(), first, false));
                    found = true;
                    break;
                }
            }
            if (found)
                continue;

            // Unit or conflicting.
            *j++ = Watcher(w.cref(), first, false);
            if (value(first) == LBool::False) {
                confl = w.cref();
                qhead_ = trail_.size();
                while (i != end)
                    *j++ = *i++;
            } else {
                uncheckedEnqueue(first, w.cref());
            }
        }
        ws.resize(static_cast<size_t>(j - ws.data()));
        if (confl != -1)
            break;
    }
    return confl;
}

Solver::Clause
Solver::reasonOf(Lit implied)
{
    Clause c = clause(reason_[var(implied)]);
    if (c.size() == 2 && c[0] != implied)
        std::swap(c[0], c[1]);
    return c;
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
        Clause c = p == kLitUndef ? clause(confl) : reasonOf(p);
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
        const Clause c = reasonOf(~q);
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
            const Clause c = reasonOf(trail_[i]);
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
        assigns_[2 * x] = LBool::Undef;
        assigns_[2 * x + 1] = LBool::Undef;
        if (heap_pos_[x] == -1)
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
Solver::heapRemove(Var v)
{
    int i = heap_pos_[v];
    if (i < 0)
        return;
    heap_pos_[v] = -1;
    Var last = heap_.back();
    heap_.pop_back();
    if (last == v)
        return;
    heap_[i] = last;
    heap_pos_[last] = i;
    siftUp(i);
    siftDown(heap_pos_[last]);
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

    std::vector<int> keep;
    keep.reserve(learnts_.size());
    std::vector<std::pair<float, int>> removable;
    for (int cref : learnts_) {
        const Clause c = clause(cref);
        if (c.locked() || c.size() <= 2)
            keep.push_back(cref);
        else
            removable.emplace_back(c.activity(), cref);
    }
    // Victims first: low activity; tie-break on clause index for
    // determinism. The keys are copied out of the arena, so the sort
    // never dereferences a clause. A full sort, not a partial one:
    // detachClause() swap-removes from the watch lists, so the order
    // victims are detached in shapes every later propagation.
    std::sort(removable.begin(), removable.end());
    size_t nremove = removable.size() / 2;
    for (size_t i = 0; i < nremove; i++) {
        int cref = removable[i].second;
        detachClause(cref);
        clause(cref).markDeleted();
        wasted_ += kClauseHeader + clause(cref).size();
        stats_.removedClauses++;
    }
    for (size_t i = nremove; i < removable.size(); i++)
        keep.push_back(removable[i].second);
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
    // The open scope's first clause moves to the first survivor at or
    // after it.
    size_t scope_start = scope_start_ == kNoScope ? kNoScope : 0;
    for (size_t i = 0; i < crefs_.size(); i++) {
        if (i == scope_start_)
            scope_start = kept;
        int cref = crefs_[i];
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
    if (scope_start_ != kNoScope && scope_start_ >= crefs_.size())
        scope_start = kept;
    scope_start_ = scope_start;
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
                    model_.resize(static_cast<size_t>(numVars()));
                    for (Var v = 0; v < numVars(); v++)
                        model_[v] = value(v);
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
Solver::openScope()
{
    R2U_ASSERT(!inScope(), "openScope inside an open scope");
    scope_start_ = crefs_.size();
}

void
Solver::retireScope(Lit act, const std::vector<Var> &vars)
{
    R2U_ASSERT(inScope(), "retireScope without openScope");
    R2U_ASSERT(decisionLevel() == 0, "retireScope above root level");
    size_t start = scope_start_;
    scope_start_ = kNoScope;
    addClause(~act);
    if (!ok_)
        return; // the whole database is UNSAT; nothing is worth keeping

    // Every clause of the scope holds ~act, so it is satisfied now;
    // clauses added since openScope() that are not (the permanent
    // ones, learnts the scope did not feed) stay.
    std::vector<int> purge; // watch lists to filter
    bool learnt_deleted = false;
    for (size_t i = start; i < crefs_.size(); i++) {
        Clause c = clause(crefs_[i]);
        if (c.deleted())
            continue;
        bool satisfied = false;
        for (Lit l : c)
            if (value(l) == LBool::True) {
                satisfied = true;
                break;
            }
        if (!satisfied)
            continue;
        c.markDeleted();
        wasted_ += kClauseHeader + c.size();
        purge.push_back((~c[0]).x);
        purge.push_back((~c[1]).x);
        if (c.learnt())
            learnt_deleted = true;
        else
            retired_clauses_++;
    }

    // The scope's variables leave the heap for good, and their watch
    // lists, which held only deleted clauses, are freed.
    for (Var v : vars) {
        if (heap_pos_[v] == kRetired)
            continue;
        heapRemove(v);
        heap_pos_[v] = kRetired;
        retired_vars_++;
        for (int x : {2 * v, 2 * v + 1}) {
            for (const Watcher &w : watches_[x])
                R2U_ASSERT(clause(w.cref()).deleted(),
                           "retired variable %d in a live clause", v);
            std::vector<Watcher>().swap(watches_[x]);
        }
    }

    // Only a clause at or above the scope's first offset can have been
    // deleted here, so the filters below dereference the arena only for
    // those; a long permanent watch list is one sequential pass.
    int first = start < crefs_.size() ? crefs_[start]
                                      : static_cast<int>(arena_.size());
    auto deleted = [this, first](int cref) {
        return cref >= first && clause(cref).deleted();
    };
    std::sort(purge.begin(), purge.end());
    purge.erase(std::unique(purge.begin(), purge.end()), purge.end());
    for (int x : purge) {
        std::vector<Watcher> &ws = watches_[x];
        ws.erase(std::remove_if(ws.begin(), ws.end(),
                                [&deleted](const Watcher &w) {
                                    return deleted(w.cref());
                                }),
                 ws.end());
    }
    if (learnt_deleted)
        learnts_.erase(
            std::remove_if(learnts_.begin(), learnts_.end(), deleted),
            learnts_.end());
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
    scope_start_ = other.scope_start_;
    retired_vars_ = other.retired_vars_;
    retired_clauses_ = other.retired_clauses_;
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
