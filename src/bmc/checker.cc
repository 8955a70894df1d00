#include "bmc/checker.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/timer.hh"

namespace r2u::bmc
{

using sat::Lit;
using sat::Word;

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
      case Verdict::Proven: return "proven";
      case Verdict::Refuted: return "cex";
      case Verdict::Unknown: return "undetermined";
    }
    return "?";
}

const char *
verdictSourceName(VerdictSource source)
{
    switch (source) {
      case VerdictSource::Solve: return "solve";
      case VerdictSource::Retry: return "retry";
      case VerdictSource::ConflictBudget: return "conflict-budget";
      case VerdictSource::PropagationBudget:
        return "propagation-budget";
      case VerdictSource::QueryDeadline: return "query-deadline";
      case VerdictSource::TotalDeadline: return "total-deadline";
      case VerdictSource::Cancelled: return "cancelled";
      case VerdictSource::Interrupted: return "interrupted";
      case VerdictSource::ValidationFailed: return "validation-failed";
      case VerdictSource::Race: return "race";
    }
    return "?";
}

const char *
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::Bmc: return "bmc";
      case EngineKind::Pdr: return "pdr";
    }
    return "?";
}

void
applyLimits(sat::Solver &solver, const SolveLimits &limits)
{
    solver.setConflictBudget(limits.conflicts);
    solver.setDeadline(limits.seconds);
    solver.setExternalInterrupt(limits.cancel);
}

VerdictSource
sourceFromStop(sat::StopReason reason)
{
    switch (reason) {
      case sat::StopReason::None: return VerdictSource::Solve;
      case sat::StopReason::ConflictBudget:
        return VerdictSource::ConflictBudget;
      case sat::StopReason::Deadline:
        return VerdictSource::QueryDeadline;
      case sat::StopReason::Interrupt:
        return VerdictSource::Interrupted;
    }
    return VerdictSource::Solve;
}

std::string
Trace::toString() const
{
    std::string out;
    for (size_t f = 0; f < steps.size(); f++) {
        out += strfmt("cycle %zu:\n", f);
        for (const auto &[name, value] : steps[f].signals) {
            out += strfmt("  %-40s = 0x%s\n", name.c_str(),
                          value.toHexString().c_str());
        }
        for (const auto &[name, value] : steps[f].memReads) {
            out += strfmt("  %-40s = 0x%s\n", name.c_str(),
                          value.toHexString().c_str());
        }
    }
    return out;
}

PropCtx::PropCtx(const nl::Netlist &netlist,
                 const std::unordered_map<std::string, nl::CellId> &signals,
                 Unroller::Options options, unsigned bound)
    : signals_(signals), cnf_(solver_),
      unroller_(netlist, cnf_, std::move(options)), bound_(bound)
{
    unroller_.ensureFrames(bound);
}

nl::CellId
PropCtx::cellOf(const std::string &name) const
{
    auto it = signals_.find(name);
    if (it == signals_.end())
        fatal("property references unknown signal '%s'", name.c_str());
    return it->second;
}

const Word &
PropCtx::at(unsigned frame, const std::string &name)
{
    R2U_ASSERT(frame < bound_, "frame %u beyond bound %u", frame, bound_);
    return unroller_.wire(frame, cellOf(name));
}

const Word &
PropCtx::rigid(const std::string &name, unsigned width)
{
    auto it = rigids_.find(name);
    if (it != rigids_.end()) {
        R2U_ASSERT(it->second.size() == width,
                   "rigid '%s' width mismatch", name.c_str());
        return it->second;
    }
    auto [it2, ok] = rigids_.emplace(name, cnf_.freshWord(width));
    (void)ok;
    return it2->second;
}

void
PropCtx::beginQuery()
{
    R2U_ASSERT(!in_query_, "beginQuery inside an active query");
    rigids_.clear();
    watched_.clear();
    watched_mems_.clear();
    act_ = cnf_.freshLit();
    in_query_ = true;
}

void
PropCtx::endQuery()
{
    R2U_ASSERT(in_query_, "endQuery without beginQuery");
    in_query_ = false;
    solver_.addClause(~act_);
    act_ = sat::kLitUndef;
}

void
PropCtx::seedFrom(const PropCtx &donor)
{
    R2U_ASSERT(!in_query_, "seedFrom into an active query");
    R2U_ASSERT(bound_ == donor.bound_, "seedFrom across bounds");
    solver_.cloneFrom(donor.solver_);
    cnf_.adoptState(donor.cnf_);
    unroller_.adoptState(donor.unroller_);
}

void
PropCtx::assume(Lit a)
{
    if (in_query_)
        solver_.addClause(~act_, a);
    else
        solver_.addClause(a);
}

void
PropCtx::pinInput(const std::string &name, uint64_t value)
{
    for (unsigned f = 0; f < bound_; f++)
        pinInputAt(f, name, value);
}

void
PropCtx::pinInputAt(unsigned frame, const std::string &name,
                    uint64_t value)
{
    const Word &w = at(frame, name);
    assume(cnf_.mkEqW(
        w, cnf_.constWord(static_cast<unsigned>(w.size()), value)));
}

void
PropCtx::watch(const std::string &name)
{
    for (const auto &existing : watched_)
        if (existing == name)
            return;
    watched_.push_back(name);
    // Trace extraction reads these wires after the solve; with
    // demand-driven unrolling their cones must be in the CNF before
    // solving, or wireValue would mint variables the model does not
    // cover. Demanding here (not at extract time) keeps watch()
    // the only contract a property needs.
    nl::CellId cell = cellOf(name);
    for (unsigned f = 0; f < bound_; f++)
        unroller_.wire(f, cell);
}

void
PropCtx::watchMem(const std::string &mem_name)
{
    nl::MemId mem = unroller_.netlist().findMemoryByName(mem_name);
    if (mem < 0)
        fatal("watchMem: unknown memory '%s'", mem_name.c_str());
    for (nl::MemId existing : watched_mems_)
        if (existing == mem)
            return;
    watched_mems_.push_back(mem);
    // Same contract as watch(): demand the read-port outputs (and
    // hence the memory arrays in their cones) before the solve so
    // trace extraction only reads model-covered variables.
    for (nl::CellId port : unroller_.netlist().memory(mem).readPorts)
        for (unsigned f = 0; f < bound_; f++)
            unroller_.wire(f, port);
}

Lit
PropCtx::eqConst(unsigned frame, const std::string &name, uint64_t value)
{
    const Word &w = at(frame, name);
    return cnf_.mkEqW(
        w, cnf_.constWord(static_cast<unsigned>(w.size()), value));
}

Lit
PropCtx::eqRigid(unsigned frame, const std::string &name, const Word &r)
{
    return cnf_.mkEqW(at(frame, name), r);
}

Lit
PropCtx::changedAt(unsigned frame, const std::string &name)
{
    R2U_ASSERT(frame >= 1, "changedAt needs a previous frame");
    return ~cnf_.mkEqW(at(frame, name), at(frame - 1, name));
}

Trace
extractTrace(PropCtx &ctx)
{
    Trace trace;
    Unroller &unr = ctx.unroller();
    const nl::Netlist &nl = unr.netlist();
    for (unsigned f = 0; f < ctx.bound(); f++) {
        TraceStep step;
        for (const auto &name : ctx.watched()) {
            step.signals[name] = unr.wireValue(f, ctx.cellOf(name));
        }
        for (nl::MemId mem : ctx.watchedMems()) {
            const nl::Memory &m = nl.memory(mem);
            for (size_t p = 0; p < m.readPorts.size(); p++) {
                if (!unr.wireMaterialized(f, m.readPorts[p]))
                    continue;
                step.memReads[strfmt("%s#%zu", m.name.c_str(), p)] =
                    unr.wireValue(f, m.readPorts[p]);
            }
        }
        trace.steps.push_back(std::move(step));
    }

    // Everything a replay needs to reproduce this execution: the model
    // values of every materialized input at every frame, and the
    // model's choice of symbolic initial state. Unmaterialized wires
    // are outside every demanded cone, so the values the simulator
    // defaults them to cannot change a recorded signal.
    trace.inputs.resize(ctx.bound());
    for (nl::CellId in : nl.inputs()) {
        for (unsigned f = 0; f < ctx.bound(); f++) {
            if (!unr.wireMaterialized(f, in))
                continue;
            trace.inputs[f][nl.cell(in).name] = unr.wireValue(f, in);
        }
    }
    if (!unr.options().concreteInit) {
        for (nl::CellId d : nl.dffs())
            if (unr.wireMaterialized(0, d) && !nl.cell(d).name.empty())
                trace.initRegs[nl.cell(d).name] = unr.wireValue(0, d);
    }
    for (size_t m = 0; m < nl.numMemories(); m++) {
        nl::MemId mem = static_cast<nl::MemId>(m);
        bool symbolic = !unr.options().concreteInit ||
                        unr.options().symbolicMems.count(mem) > 0 ||
                        unr.options().memInit.count(mem) > 0;
        if (!symbolic || !unr.memMaterialized(0, mem))
            continue;
        const nl::Memory &mm = nl.memory(mem);
        std::vector<Bits> words(mm.depth);
        for (unsigned a = 0; a < mm.depth; a++)
            words[a] = ctx.cnf().modelWord(unr.memWord(0, mem, a));
        trace.initMems[mm.name] = std::move(words);
    }
    return trace;
}

CheckResult
checkProperty(const nl::Netlist &netlist,
              const std::unordered_map<std::string, nl::CellId> &signals,
              Unroller::Options options, unsigned bound,
              const PropertyFn &prop, int64_t conflict_budget)
{
    SolveLimits limits;
    limits.conflicts = conflict_budget;
    return checkProperty(netlist, signals, std::move(options), bound,
                         prop, limits);
}

CheckResult
checkProperty(const nl::Netlist &netlist,
              const std::unordered_map<std::string, nl::CellId> &signals,
              Unroller::Options options, unsigned bound,
              const PropertyFn &prop, const SolveLimits &limits,
              const PropCtx *warm)
{
    Timer timer;
    CheckResult result;
    result.bound = bound;

    PropCtx ctx(netlist, signals, std::move(options), bound);
    if (warm)
        ctx.seedFrom(*warm);
    size_t vars_before = static_cast<size_t>(ctx.solver().numVars());
    size_t clauses_before =
        static_cast<size_t>(ctx.solver().numClauses());
    Lit bad = prop(ctx);
    ctx.solver().addClause(bad);
    applyLimits(ctx.solver(), limits);

    sat::Result r = ctx.solver().solve();
    result.seconds = timer.seconds();
    result.conflicts = ctx.solver().stats().conflicts;
    result.propagations = ctx.solver().stats().propagations;
    result.cnfVars = static_cast<size_t>(ctx.solver().numVars());
    result.cnfClauses = static_cast<size_t>(ctx.solver().numClauses());
    result.cnfVarsAdded = result.cnfVars - vars_before;
    result.cnfClausesAdded = result.cnfClauses - clauses_before;

    switch (r) {
      case sat::Result::Unsat:
        result.verdict = Verdict::Proven;
        result.source = VerdictSource::Solve;
        break;
      case sat::Result::Unknown:
        result.verdict = Verdict::Unknown;
        result.source = sourceFromStop(ctx.solver().stopReason());
        break;
      case sat::Result::Sat:
        result.verdict = Verdict::Refuted;
        result.source = VerdictSource::Solve;
        result.trace = extractTrace(ctx);
        break;
    }
    return result;
}

InductiveResult
checkInductive(const nl::Netlist &netlist,
               const std::unordered_map<std::string, nl::CellId> &signals,
               Unroller::Options options, unsigned k,
               unsigned base_bound, const FramePropertyFn &prop,
               int64_t conflict_budget)
{
    Timer timer;
    InductiveResult result;
    result.k = k;
    R2U_ASSERT(k >= 1 && base_bound >= k, "bad induction parameters");

    // --- base case: BMC from the initial state ---
    {
        Unroller::Options base_opts = options;
        base_opts.concreteInit = true;
        PropCtx ctx(netlist, signals, base_opts, base_bound);
        Lit bad = ctx.cnf().falseLit();
        for (unsigned f = 0; f < base_bound; f++)
            bad = ctx.cnf().mkOr(bad, prop(ctx, f));
        ctx.solver().addClause(bad);
        ctx.solver().setConflictBudget(conflict_budget);
        sat::Result r = ctx.solver().solve();
        result.conflicts = ctx.solver().stats().conflicts;
        result.propagations = ctx.solver().stats().propagations;
        if (r == sat::Result::Sat) {
            result.verdict = Verdict::Refuted;
            result.trace = extractTrace(ctx);
            result.seconds = timer.seconds();
            return result;
        }
        if (r == sat::Result::Unknown) {
            result.source = sourceFromStop(ctx.solver().stopReason());
            result.seconds = timer.seconds();
            return result;
        }
        result.baseProven = true;
    }

    // --- induction step: arbitrary start state ---
    {
        Unroller::Options step_opts = options;
        step_opts.concreteInit = false;
        PropCtx ctx(netlist, signals, step_opts, k + 1);
        for (unsigned f = 0; f < k; f++)
            ctx.assume(~prop(ctx, f));
        ctx.solver().addClause(prop(ctx, k));
        // The budget is a total across both solves: the step gets
        // whatever the base case left over.
        if (conflict_budget >= 0)
            ctx.solver().setConflictBudget(std::max<int64_t>(
                conflict_budget -
                    static_cast<int64_t>(result.conflicts),
                0));
        sat::Result r = ctx.solver().solve();
        result.conflicts += ctx.solver().stats().conflicts;
        result.propagations += ctx.solver().stats().propagations;
        if (r == sat::Result::Unsat) {
            result.verdict = Verdict::Proven;
            result.inductive = true;
        } else {
            // Base case held up to the bound but the step failed (or
            // budget ran out): inconclusive.
            result.verdict = Verdict::Unknown;
            if (r == sat::Result::Unknown)
                result.source =
                    sourceFromStop(ctx.solver().stopReason());
        }
    }
    result.seconds = timer.seconds();
    return result;
}

} // namespace r2u::bmc
