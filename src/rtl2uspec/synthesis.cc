#include "rtl2uspec/synthesis.hh"

#include <algorithm>

#include "bmc/engine.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/timer.hh"
#include "netlist/hash.hh"
#include "sva/monitors.hh"

namespace r2u::rtl2uspec
{

using bmc::CheckResult;
using bmc::PropCtx;
using bmc::Verdict;
using dfg::NodeId;
using sat::Lit;
using sva::EventVec;

namespace
{

enum class ElemKind { LocalReg, LocalArray, RemoteReg, RemoteArray };

struct Elem
{
    NodeId node = dfg::kNoNode;
    ElemKind kind = ElemKind::LocalReg;
    int stage = -1;
    std::string name;
};

class Synthesizer
{
  public:
    Synthesizer(const vlog::ElabResult &design, const DesignMetadata &md,
                const SynthesisOptions &opts)
        : design_(design), md_(md), nl_(*design.netlist),
          full_unroll_(opts.fullUnroll)
    {
        R2U_ASSERT(!md.cores.empty() && !md.instrs.empty(),
                   "metadata needs cores and instruction types");
        base_seeds_ = buildBaseSeeds();
        digests_ = nl::digestNetlist(nl_);
        netlist_hash_ = nl::structuralHash(digests_);
        property_env_hash_ = propertyEnvHash();
        bmc::EngineOptions eopts = opts;
        if (!opts.journalPath.empty()) {
            journal_ = std::make_unique<bmc::VerdictStore>();
            journal_->openJournal(opts.journalPath, configHash(),
                                  opts.resumeJournal);
            if (opts.resumeJournal && journal_->numLoaded() > 0)
                inform("rtl2uspec: resuming from journal %s "
                       "(%zu validated verdicts)",
                       opts.journalPath.c_str(), journal_->numLoaded());
            eopts.journal = journal_.get();
        }
        if (!eopts.cache && !opts.cacheDir.empty()) {
            cache_ = std::make_unique<bmc::VerdictStore>();
            cache_->openCache(opts.cacheDir);
            if (cache_->numLoaded() > 0)
                inform("rtl2uspec: verdict cache %s: %zu cached "
                       "verdict(s) loaded",
                       cache_->filePath().c_str(), cache_->numLoaded());
            eopts.cache = cache_.get();
        }
        out_.cacheEnabled = eopts.cache != nullptr;
        engine_ = std::make_unique<bmc::Engine>(
            nl_, design_.signalMap, unrollOptions(), md_.bound, eopts);
    }

    SynthesisResult
    run()
    {
        Timer total;
        Timer phase;
        buildDfgAndStages();
        classifyElements();
        out_.staticSeconds = phase.seconds();

        phase.reset();
        intraMembership();
        progressChecks();
        attributionChecks();
        interInstruction();
        out_.proofSeconds = phase.seconds();
        const bmc::EngineStats &estats = engine_->stats();
        static_cast<bmc::EngineStats &>(out_) = estats;
        out_.jobs = engine_->jobs();
        out_.fullUnroll = full_unroll_;
        out_.validateMode =
            bmc::validateModeName(engine_->options().validate);
        out_.engineMode = bmc::engineChoiceName(engine_->options().engine);
        if (estats.engineRaces > 0)
            inform("rtl2uspec: engine race: %zu race(s); wins "
                   "bmc=%zu pdr=%zu; %zu unbounded proof(s)",
                   static_cast<size_t>(estats.engineRaces),
                   static_cast<size_t>(estats.bmcWins),
                   static_cast<size_t>(estats.pdrWins),
                   static_cast<size_t>(estats.unboundedProofs));
        if (out_.cacheEnabled)
            inform("rtl2uspec: cache: %zu hit(s), %zu miss(es) "
                   "(%zu invalidated), %zu verdict(s) appended",
                   static_cast<size_t>(estats.cacheHits),
                   static_cast<size_t>(estats.cacheMisses),
                   static_cast<size_t>(estats.cacheInvalidations),
                   static_cast<size_t>(estats.cacheAppends));
        if (estats.replays > 0 || estats.proofRechecks > 0 ||
            estats.journalHits > 0)
            inform("rtl2uspec: validation (%s): %zu replay(s), "
                   "%zu proof re-check(s), %zu mismatch(es), "
                   "%zu journal hit(s), %.2fs",
                   out_.validateMode.c_str(),
                   static_cast<size_t>(estats.replays),
                   static_cast<size_t>(estats.proofRechecks),
                   static_cast<size_t>(estats.validationMismatches),
                   static_cast<size_t>(estats.journalHits),
                   estats.validateSeconds);
        if (!out_.svas.empty()) {
            double vars = 0, clauses = 0;
            for (const SvaRecord &rec : out_.svas) {
                vars += static_cast<double>(rec.cnfVars);
                clauses += static_cast<double>(rec.cnfClauses);
            }
            out_.meanCnfVars = vars / out_.svas.size();
            out_.meanCnfClauses = clauses / out_.svas.size();
        }
        inform("rtl2uspec: %zu SVAs on %u worker(s), "
               "%zu transition-relation unroll(s) (%zu warm-seeded), "
               "%zu steal(s), %.0f CNF vars/query mean (%s)",
               out_.svas.size(), engine_->jobs(),
               static_cast<size_t>(estats.unrollContexts),
               static_cast<size_t>(estats.contextsSeeded),
               static_cast<size_t>(estats.steals),
               out_.meanCnfVars,
               full_unroll_ ? "full unroll" : "COI-sliced");

        phase.reset();
        buildInstrDfgs();
        mergeAndEmit();
        out_.postSeconds = phase.seconds();
        out_.totalSeconds = total.seconds();
        tallyStats();
        return std::move(out_);
    }

  private:
    // ------------------------------------------------------------------
    // Static analysis (§4.1, §4.2.2).
    // ------------------------------------------------------------------
    void
    buildDfgAndStages()
    {
        dfg_ = dfg::FullDesignDfg::build(nl_);
        out_.fullDfgDot = dfg_.toDot();

        const CoreMeta &core = md_.cores[0];
        NodeId im_pc = nodeOfSignal(core.imPc);
        ifr_node_ = nodeOfSignal(core.ifr);
        if (im_pc == dfg::kNoNode || ifr_node_ == dfg::kNoNode)
            fatal("IM_PC or IFR metadata does not name a state element");
        labels_ = dfg::labelStages(dfg_, im_pc, ifr_node_);
        inform("rtl2uspec: %zu state elements, max stage %d",
               dfg_.numNodes(), labels_.maxStage);
    }

    NodeId
    nodeOfSignal(const std::string &name) const
    {
        nl::CellId cell = nl_.findByName(name);
        if (cell != nl::kNoCell) {
            NodeId n = dfg_.nodeOfReg(cell);
            if (n != dfg::kNoNode)
                return n;
        }
        nl::MemId mem = nl_.findMemoryByName(name);
        if (mem >= 0)
            return dfg_.nodeOfMem(mem);
        return dfg::kNoNode;
    }

    bool
    isPcOrExcluded(const std::string &name) const
    {
        for (const CoreMeta &core : md_.cores) {
            if (name == core.imPc || name == core.ifr)
                return true;
            for (const auto &pcr : core.pcrs)
                if (name == pcr)
                    return true;
        }
        return md_.exclude.count(name) > 0;
    }

    void
    classifyElements()
    {
        const CoreMeta &core0 = md_.cores[0];
        for (size_t n = 0; n < dfg_.numNodes(); n++) {
            NodeId id = static_cast<NodeId>(n);
            if (!labels_.included(id))
                continue;
            const dfg::Node &node = dfg_.node(id);
            if (id == ifr_node_ || isPcOrExcluded(node.name))
                continue;

            Elem e;
            e.node = id;
            e.stage = labels_.stage[id];
            e.name = node.name;

            if (node.name == md_.remote.memName) {
                e.kind = ElemKind::RemoteArray;
            } else if (std::find(md_.remote.pipelineRegs.begin(),
                                 md_.remote.pipelineRegs.end(),
                                 node.name) !=
                       md_.remote.pipelineRegs.end()) {
                e.kind = ElemKind::RemoteReg;
            } else if (startsWith(node.name, core0.prefix)) {
                e.kind = node.isMem ? ElemKind::LocalArray
                                    : ElemKind::LocalReg;
            } else {
                // Another core's replica, or unclassified global state.
                bool other_core = false;
                for (size_t c = 1; c < md_.cores.size(); c++)
                    other_core |=
                        startsWith(node.name, md_.cores[c].prefix);
                if (!other_core)
                    warn("rtl2uspec: skipping unclassified global "
                         "state element '%s'", node.name.c_str());
                continue;
            }
            elems_.push_back(std::move(e));
        }
    }

    // ------------------------------------------------------------------
    // SVA plumbing.
    // ------------------------------------------------------------------
    bmc::Unroller::Options
    unrollOptions() const
    {
        bmc::Unroller::Options opts;
        opts.fullUnroll = full_unroll_;
        for (size_t m = 0; m < nl_.numMemories(); m++)
            opts.symbolicMems.insert(static_cast<nl::MemId>(m));
        return opts;
    }

    /**
     * Binds a run journal to the verdict-relevant configuration: the
     * structural netlist hash (every cell's kind, width, connectivity,
     * init value, and every memory's geometry + contents — not just
     * element counts: a rewired design with identical counts must not
     * resume another design's verdicts), the unroll bound, and the
     * unroll mode. Deliberately excludes --jobs and solver budgets — a
     * journaled verdict is definite and validated, so it holds at any
     * parallelism or budget. Also excludes the metadata/property
     * environment: an edited SVA changes its per-query content hash
     * (its journal key), which turns into a plain miss instead of
     * rejecting the whole journal.
     */
    uint64_t
    configHash() const
    {
        nl::Fnv64 h;
        h.u64(netlist_hash_);
        h.u32(md_.bound);
        h.byte(full_unroll_ ? 1 : 0);
        return h.value();
    }

    /**
     * Hash of everything besides the netlist cone that determines what
     * an SVA property *means*: the per-core signal roles, instruction
     * encodings (mask/match feed assumeEncoding inside the property
     * closures — they never appear in the rendered SVA text), the
     * remote-interface signal roles, the exclusion set, and the
     * issue-by frame. A change to any of these re-keys every query.
     * Excludes relaxPairs / mergeNodes: they change which queries are
     * generated (visible in their names and text), never what a given
     * query means.
     */
    uint64_t
    propertyEnvHash() const
    {
        nl::Fnv64 h;
        h.u32(static_cast<uint32_t>(md_.cores.size()));
        for (const CoreMeta &core : md_.cores) {
            h.str(core.prefix);
            h.str(core.ifr);
            h.u32(static_cast<uint32_t>(core.pcrs.size()));
            for (const auto &p : core.pcrs)
                h.str(p);
            h.str(core.imPc);
            h.str(core.reqEn);
            h.str(core.reqWen);
        }
        h.u32(static_cast<uint32_t>(md_.instrs.size()));
        for (const InstrType &it : md_.instrs) {
            h.str(it.name);
            h.u32(it.mask);
            h.u32(it.match);
            h.byte(it.isRead ? 1 : 0);
            h.byte(it.isWrite ? 1 : 0);
        }
        h.str(md_.remote.memName);
        // Eight retired, never-read interface names, hashed as the ""
        // that .meta files gave them, so every existing key stays valid.
        for (int i = 0; i < 5; i++)
            h.u32(0);
        h.str(md_.remote.grant);
        for (int i = 0; i < 3; i++)
            h.u32(0);
        h.u32(static_cast<uint32_t>(md_.remote.pipelineRegs.size()));
        for (const auto &r : md_.remote.pipelineRegs)
            h.str(r);
        h.str(md_.remote.pipeValid);
        h.str(md_.remote.pipeWen);
        h.str(md_.remote.pipeCore);
        h.u32(static_cast<uint32_t>(md_.exclude.size()));
        for (const auto &e : md_.exclude) // std::set: sorted, stable
            h.str(e);
        h.u32(md_.issueByFrame);
        return h.value();
    }

    // ------------------------------------------------------------------
    // COI seed declaration: the state elements each SVA reads, used
    // for per-query cone-size reporting (the slicing itself happens
    // automatically through demand-driven unrolling).
    // ------------------------------------------------------------------
    void
    addSeed(nl::CoiSeeds &s, const std::string &name) const
    {
        nl::CellId cell = nl_.findByName(name);
        if (cell != nl::kNoCell) {
            s.cells.push_back(cell);
            return;
        }
        nl::MemId mem = nl_.findMemoryByName(name);
        if (mem >= 0)
            s.mems.push_back(mem);
    }

    /** State every Fig. 4 template instance reads: reset, IFR + PCRs
     *  (occupancy/binding), the request interface, and the grant. */
    nl::CoiSeeds
    buildBaseSeeds() const
    {
        nl::CoiSeeds s;
        const CoreMeta &core = md_.cores[0];
        addSeed(s, core.ifr);
        for (const auto &p : core.pcrs)
            addSeed(s, p);
        addSeed(s, core.reqEn);
        addSeed(s, core.reqWen);
        addSeed(s, md_.remote.grant);
        return s;
    }

    /** Write-enable inputs of an array's ports — what
     *  arrayWriteEvents() actually demands (not the array itself). */
    void
    seedArrayWriteEns(nl::CoiSeeds &s, nl::MemId mem) const
    {
        for (nl::CellId port : nl_.memory(mem).writePorts)
            s.cells.push_back(nl_.cell(port).inputs[2]);
    }

    nl::CoiSeeds
    elemSeeds(const Elem &e) const
    {
        nl::CoiSeeds s;
        if (e.kind == ElemKind::LocalArray ||
            e.kind == ElemKind::RemoteArray)
            seedArrayWriteEns(s, dfg_.node(e.node).mem);
        else
            s.cells.push_back(dfg_.node(e.node).reg);
        return s;
    }

    /** Common per-SVA setup; returns the record index. */
    size_t
    startSva(const std::string &name, const std::string &category,
             const std::string &text, unsigned hypotheses, bool global)
    {
        SvaRecord rec;
        rec.name = name;
        rec.category = category;
        rec.text = text;
        rec.hypotheses = hypotheses;
        rec.global = global;
        out_.svas.push_back(std::move(rec));
        return out_.svas.size() - 1;
    }

    /**
     * Enqueue an SVA's property on the engine. The verdict lands in
     * out_.svas[idx] at the next flushSvas(). Deferred properties run
     * on worker threads: they must only read state that is stable for
     * the whole batch (md_, elems_, dfg_, nl_) and must not capture
     * short-lived locals by reference.
     */
    void
    deferSva(size_t idx, bmc::PropertyFn prop, nl::CoiSeeds extra = {},
             bmc::FramePropertyFn frame_prop = {})
    {
        bmc::Query q;
        q.name = out_.svas[idx].name;
        q.prop = std::move(prop);
        // Strictly frame-local form of the same property (prop must be
        // the OR of frame_prop over every frame of the bound): enables
        // the IC3/PDR pre-pass of --engine race.
        q.frameProp = std::move(frame_prop);
        q.seeds = base_seeds_;
        q.seeds.cells.insert(q.seeds.cells.end(), extra.cells.begin(),
                             extra.cells.end());
        q.seeds.mems.insert(q.seeds.mems.end(), extra.mems.begin(),
                            extra.mems.end());
        // One cone per query: its size is the SVA's reported COI and
        // its hash the content ingredient of both store keys.
        nl::Coi coi = nl::computeCoi(nl_, q.seeds);
        out_.svas[idx].coiCells = coi.numCells();
        uint64_t cone =
            full_unroll_ ? netlist_hash_ : nl::coneHash(digests_, coi);
        q.contentHash = queryContentHash(idx, cone);
        q.baseHash = queryBaseHash(idx, cone);
        engine_->enqueue(std::move(q));
        pending_.push_back(idx);
    }

    /**
     * Content-derived identity of one SVA query: @p cone, the hash of
     * the COI slice its property can read (the whole netlist under
     * --full-unroll, where every query sees every cell), the property
     * environment, the bound/unroll mode, and the SVA's identity and
     * rendered text. This is the journal and verdict-cache key — two
     * runs produce the same hash exactly when the solver would decide
     * the same question.
     */
    uint64_t
    queryContentHash(size_t idx, uint64_t cone) const
    {
        nl::Fnv64 h;
        h.u64(cone);
        h.u64(property_env_hash_);
        h.u32(md_.bound);
        h.byte(full_unroll_ ? 1 : 0);
        const SvaRecord &sva = out_.svas[idx];
        h.str(sva.name);
        h.str(sva.category);
        h.str(sva.text);
        // 0 is the engine's "unhashed" sentinel; dodge the collision.
        return h.value() == 0 ? 1 : h.value();
    }

    /**
     * Bound-independent sibling of queryContentHash(): identical
     * ingredients with the unroll bound left out. An *unbounded*
     * Proven verdict (PDR fixpoint) is keyed under this hash too, so
     * a later run at a different bound can reuse the proof
     * (journal/cache lookupUnbounded).
     */
    uint64_t
    queryBaseHash(size_t idx, uint64_t cone) const
    {
        nl::Fnv64 h;
        h.u64(cone);
        h.u64(property_env_hash_);
        h.byte(full_unroll_ ? 1 : 0);
        const SvaRecord &sva = out_.svas[idx];
        h.str(sva.name);
        h.str(sva.category);
        h.str(sva.text);
        return h.value() == 0 ? 1 : h.value();
    }

    /** Evaluate every deferred SVA; fill records in enqueue order. */
    void
    flushSvas()
    {
        std::vector<CheckResult> results = engine_->drain();
        R2U_ASSERT(results.size() == pending_.size(),
                   "engine result count mismatch");
        for (size_t q = 0; q < results.size(); q++) {
            SvaRecord &rec = out_.svas[pending_[q]];
            static_cast<CheckResult &>(rec) = std::move(results[q]);
            // Replays and --cex-vcd dumps ran inside the engine; from
            // here on only the trace's steps are read (bug messages,
            // examples/bug_hunt).
            rec.trace.inputs.clear();
            rec.trace.initRegs.clear();
            rec.trace.initMems.clear();
            debugLog("SVA %-28s %-12s %.3fs", rec.name.c_str(),
                     bmc::verdictName(rec.verdict), rec.seconds);
        }
        pending_.clear();
    }

    Verdict
    verdictOf(size_t idx) const
    {
        return out_.svas[idx].verdict;
    }

    // ------------------------------------------------------------------
    // Three-valued verdict consumption. Every consumer below uses an
    // enumerator-exhaustive switch: the test suite rejects any Verdict
    // enumerator mention in this file that is not a `case` label, so
    // an Unknown can never silently act as Proven or Refuted again.
    // ------------------------------------------------------------------

    /**
     * Record that an Unknown verdict forced a conservative synthesis
     * choice. The note lands in the SVA record, the run summary, and
     * (via mergeAndEmit) the printed model.
     */
    void
    degrade(size_t idx, const std::string &note)
    {
        SvaRecord &rec = out_.svas[idx];
        rec.degraded = true;
        rec.degradeNote = note;
        out_.degraded.push_back(rec.name + ": " + note);
        warn("rtl2uspec: SVA %s undetermined (%s); %s",
             rec.name.c_str(), bmc::verdictSourceName(rec.source),
             note.c_str());
    }

    /**
     * Membership-style consumer: Refuted means "the event happens"
     * (e.g. the op updates the element). Unknown degrades to "does
     * not happen" — the element stays out of the instruction's node
     * set, so the model gets *fewer* path edges and stays an
     * over-approximation of the hardware (weaker, hence sound).
     */
    bool
    eventHappens(size_t idx, const std::string &note)
    {
        switch (verdictOf(idx)) {
          case Verdict::Refuted:
            return true;
          case Verdict::Proven:
            return false;
          case Verdict::Unknown:
            degrade(idx, note);
            return false;
        }
        return false;
    }

    /**
     * Ordering-style consumer: Proven means the ordering holds and
     * its axiom may be emitted. Unknown degrades to "unordered" — the
     * axiom is omitted, so the model permits *more* interleavings
     * than the hardware exhibits (weaker, hence sound).
     */
    bool
    orderingProven(size_t idx)
    {
        switch (verdictOf(idx)) {
          case Verdict::Proven:
            return true;
          case Verdict::Refuted:
            return false;
          case Verdict::Unknown:
            degrade(idx, "ordering undetermined; axiom omitted "
                         "(weaker model: fewer hb edges)");
            return false;
        }
        return false;
    }

    /**
     * Instantiate one symbolic instruction instance: rigids pc<suffix>
     * and i<suffix> with P0 (one occupancy interval), P2 (IFR binding)
     * and optional P3 (encoding). Returns the stage-0 occupancy.
     */
    EventVec
    bindInstr(PropCtx &ctx, const std::string &suffix,
              const InstrType *type)
    {
        const CoreMeta &core = md_.cores[0];
        unsigned pcw = static_cast<unsigned>(
            ctx.at(0, core.pcrs[0]).size());
        const sat::Word &pc = ctx.rigid("pc" + suffix, pcw);
        const sat::Word &enc = ctx.rigid(
            "i" + suffix,
            static_cast<unsigned>(ctx.at(0, core.ifr).size()));
        EventVec occ0 = sva::occupancy(ctx, core.pcrs[0], pc);
        sva::assumeOneInterval(ctx, occ0);
        sva::assumeBinding(ctx, occ0, core.ifr, enc);
        if (type)
            sva::assumeEncoding(ctx, enc, type->mask, type->match);
        return occ0;
    }

    EventVec
    stageOcc(PropCtx &ctx, const std::string &suffix, unsigned stage)
    {
        const CoreMeta &core = md_.cores[0];
        R2U_ASSERT(stage < core.pcrs.size(), "stage %u has no PCR",
                   stage);
        unsigned pcw = static_cast<unsigned>(
            ctx.at(0, core.pcrs[0]).size());
        return sva::occupancy(ctx, core.pcrs[stage],
                              ctx.rigid("pc" + suffix, pcw));
    }

    /** Per-frame "request granted and issued by core 0". */
    EventVec
    grantEvents(PropCtx &ctx, bool write_only)
    {
        const CoreMeta &core = md_.cores[0];
        EventVec ev(ctx.bound());
        for (unsigned f = 0; f < ctx.bound(); f++) {
            Lit g = ctx.at(f, md_.remote.grant)[0];
            Lit en = ctx.at(f, write_only ? core.reqWen : core.reqEn)[0];
            ev[f] = ctx.cnf().mkAnd(g, en);
        }
        return ev;
    }

    /** Request-send events attributed to instruction <suffix>. */
    EventVec
    sentEvents(PropCtx &ctx, const std::string &suffix, bool write_only)
    {
        EventVec occ0 = stageOcc(ctx, suffix, 0);
        return sva::andEvents(ctx, occ0, grantEvents(ctx, write_only));
    }

    /** Memory-commit events: the cycle after a write request is sent. */
    EventVec
    shiftEvents(PropCtx &ctx, const EventVec &ev)
    {
        EventVec out(ev.size(), ctx.cnf().falseLit());
        for (size_t f = 0; f + 1 < ev.size(); f++)
            out[f + 1] = ev[f];
        return out;
    }

    /** Write-port enables of an array, per frame. */
    EventVec
    arrayWriteEvents(PropCtx &ctx, nl::MemId mem)
    {
        EventVec ev(ctx.bound(), ctx.cnf().falseLit());
        for (nl::CellId port : nl_.memory(mem).writePorts) {
            nl::CellId en = nl_.cell(port).inputs[2];
            for (unsigned f = 0; f < ctx.bound(); f++) {
                ev[f] = ctx.cnf().mkOr(
                    ev[f], ctx.unroller().wire(f, en)[0]);
            }
        }
        return ev;
    }

    /** Regfile-style local array write events attributed to <suffix>. */
    EventVec
    localArrayWriteEvents(PropCtx &ctx, const Elem &e,
                          const std::string &suffix)
    {
        unsigned attrib = attribStage(e);
        EventVec occ = stageOcc(ctx, suffix, attrib);
        return sva::andEvents(ctx, occ,
                              arrayWriteEvents(ctx,
                                               dfg_.node(e.node).mem));
    }

    unsigned
    attribStage(const Elem &e) const
    {
        // An array's write-port inputs live one stage before the
        // array itself; clamp to the available PCRs.
        int s = e.stage - 1;
        int max_pcr =
            static_cast<int>(md_.cores[0].pcrs.size()) - 1;
        return static_cast<unsigned>(std::clamp(s, 0, max_pcr));
    }

    void
    watchDefaults(PropCtx &ctx)
    {
        const CoreMeta &core = md_.cores[0];
        ctx.watch(core.ifr);
        for (const auto &p : core.pcrs)
            ctx.watch(p);
        ctx.watch(core.reqEn);
        ctx.watch(core.reqWen);
        ctx.watch(md_.remote.grant);
    }

    // ------------------------------------------------------------------
    // §4.2: intra-instruction membership (Fig. 4a template A0).
    // ------------------------------------------------------------------
    void
    intraMembership()
    {
        // A Refuted membership SVA means "op updates these nodes";
        // applications are deferred past the batch flush so the
        // updated_ sets fill in deterministic enqueue order.
        struct MembershipHit
        {
            size_t idx; ///< SVA record index
            std::set<NodeId> *updated;
            std::vector<NodeId> nodes;
            std::string op; ///< instruction type, for degradation tags
        };
        std::vector<MembershipHit> hits;

        for (const InstrType &op : md_.instrs) {
            std::set<NodeId> &updated = updated_[op.name];
            updated.insert(ifr_node_); // primary root, by definition

            // Remote pipeline-register group: one SVA for the group.
            std::vector<NodeId> remote_nodes;
            for (const Elem &e : elems_)
                if (e.kind == ElemKind::RemoteReg)
                    remote_nodes.push_back(e.node);
            if (!remote_nodes.empty()) {
                size_t idx = startSva(
                    op.name + "_updates_req_group", "intra",
                    strfmt("A0: assert (`PCR_0 == pc0 |-> "
                           "!(grant[0] && req_en)); // op=%s, "
                           "s=<request interface group>",
                           op.name.c_str()),
                    static_cast<unsigned>(remote_nodes.size()), true);
                deferSva(idx, [this, &op](PropCtx &ctx) {
                    ctx.pinInput("reset", 0);
                    watchDefaults(ctx);
                    EventVec occ0 = bindInstr(ctx, "0", &op);
                    return sva::eventDuring(ctx, occ0,
                                            grantEvents(ctx, false));
                });
                hits.push_back(
                    {idx, &updated, std::move(remote_nodes), op.name});
            }

            for (const Elem &e : elems_) {
                switch (e.kind) {
                  case ElemKind::LocalReg: {
                    if (e.stage >=
                        static_cast<int>(md_.cores[0].pcrs.size())) {
                        warn("no PCR for stage %d element '%s'; "
                             "skipping", e.stage, e.name.c_str());
                        continue;
                    }
                    size_t idx = startSva(
                        op.name + "_updates_" + shortName(e.name),
                        "intra",
                        strfmt("A0: assert (`PCR_%d == pc0 |-> %s == "
                               "$past(%s)); // op=%s",
                               e.stage, e.name.c_str(), e.name.c_str(),
                               op.name.c_str()),
                        1, false);
                    deferSva(idx, [this, &op, &e](PropCtx &ctx) {
                        ctx.pinInput("reset", 0);
                        watchDefaults(ctx);
                        ctx.watch(e.name);
                        bindInstr(ctx, "0", &op);
                        EventVec occ = stageOcc(
                            ctx, "0", static_cast<unsigned>(e.stage));
                        return sva::changeDuring(
                            ctx, occ, dfg_.node(e.node).reg);
                    }, elemSeeds(e));
                    hits.push_back({idx, &updated, {e.node}, op.name});
                    break;
                  }
                  case ElemKind::LocalArray: {
                    size_t idx = startSva(
                        op.name + "_updates_" + shortName(e.name),
                        "intra",
                        strfmt("A0: assert (`PCR_%u == pc0 |-> "
                               "!%s_wen); // op=%s",
                               attribStage(e), e.name.c_str(),
                               op.name.c_str()),
                        1, false);
                    deferSva(idx, [this, &op, &e](PropCtx &ctx) {
                        ctx.pinInput("reset", 0);
                        watchDefaults(ctx);
                        bindInstr(ctx, "0", &op);
                        EventVec wr =
                            localArrayWriteEvents(ctx, e, "0");
                        return sva::occurs(ctx, wr);
                    }, elemSeeds(e));
                    hits.push_back({idx, &updated, {e.node}, op.name});
                    break;
                  }
                  case ElemKind::RemoteArray: {
                    size_t idx = startSva(
                        op.name + "_updates_" + shortName(e.name),
                        "intra",
                        strfmt("Req-Snd: assert (`PCR_0 == pc0 |-> "
                               "!(grant[0] && req_wen)); // op=%s, "
                               "s=%s",
                               op.name.c_str(), e.name.c_str()),
                        1, true);
                    deferSva(idx, [this, &op, &e](PropCtx &ctx) {
                        ctx.pinInput("reset", 0);
                        watchDefaults(ctx);
                        bindInstr(ctx, "0", &op);
                        return sva::occurs(
                            ctx, sentEvents(ctx, "0", true));
                    });
                    hits.push_back({idx, &updated, {e.node}, op.name});
                    break;
                  }
                  case ElemKind::RemoteReg:
                    break; // handled as a group above
                }
            }
        }

        flushSvas();
        for (const MembershipHit &hit : hits) {
            if (eventHappens(hit.idx,
                             "membership undetermined; element(s) "
                             "excluded from the instruction's node set "
                             "(weaker model: fewer path edges)")) {
                for (NodeId n : hit.nodes)
                    hit.updated->insert(n);
            } else if (out_.svas[hit.idx].degraded) {
                degraded_ops_.insert(hit.op);
            }
        }
    }

    // ------------------------------------------------------------------
    // §4.2.4: progress SVAs (Fig. 4b template A1).
    // ------------------------------------------------------------------
    void
    progressChecks()
    {
        struct Pending
        {
            size_t idx;
            const InstrType *op;
            unsigned stage;
        };
        std::vector<Pending> pendings;
        for (const InstrType &op : md_.instrs) {
            for (unsigned stage = 0;
                 stage < md_.cores[0].pcrs.size(); stage++) {
                size_t idx = startSva(
                    op.name + strfmt("_progress_stage%u", stage),
                    "intra",
                    strfmt("A1: assert (first |-> s_eventually("
                           "(`PCR_%u == pc0) ##1 !(`PCR_%u == pc0)));"
                           " // op=%s",
                           stage, stage, op.name.c_str()),
                    1, false);
                deferSva(idx, [this, &op, stage](PropCtx &ctx) {
                    ctx.pinInput("reset", 0);
                    watchDefaults(ctx);
                    EventVec occ0 = bindInstr(ctx, "0", &op);
                    // Assume the instruction is fetched early enough.
                    Lit early = ctx.cnf().falseLit();
                    for (unsigned f = 0;
                         f <= md_.issueByFrame && f < ctx.bound(); f++)
                        early = ctx.cnf().mkOr(early, occ0[f]);
                    ctx.assume(early);
                    EventVec occ = stageOcc(ctx, "0", stage);
                    return ~sva::occurs(ctx,
                                        sva::exitEvents(ctx, occ));
                });
                pendings.push_back({idx, &op, stage});
            }
        }
        flushSvas();
        for (const Pending &p : pendings) {
            switch (verdictOf(p.idx)) {
              case Verdict::Proven:
                break;
              case Verdict::Refuted:
                warn("progress SVA for %s stage %u not proven",
                     p.op->name.c_str(), p.stage);
                break;
              case Verdict::Unknown:
                degrade(p.idx,
                        strfmt("progress for %s stage %u "
                               "undetermined; treated as unproven "
                               "(diagnostic only, no model impact)",
                               p.op->name.c_str(), p.stage));
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Interface attribution well-formedness: the §6.1 bug finder.
    // ------------------------------------------------------------------
    void
    attributionChecks()
    {
        struct Check
        {
            const char *name;
            bool write;
            size_t idx = 0;
        };
        std::vector<Check> checks = {
            {"write_requests_are_valid_stores", true},
            {"read_requests_are_valid_loads", false}};
        for (Check &chk : checks) {
            chk.idx = startSva(
                chk.name, "temporal",
                strfmt("Req-Proc: assert ((grant[0] && %s) |-> "
                       "<IFR decodes as a declared %s type>);",
                       chk.write ? "req_wen" : "req_en && !req_wen",
                       chk.write ? "store" : "load"),
                1, true);
            // The Check lives on this function's stack; the deferred
            // property must capture the flag by value.
            const bool write = chk.write;
            // Frame-local kernel shared by the plain-BMC property and
            // its FramePropertyFn form, so they are the same property
            // by construction (race verdicts stay identical).
            auto frame_bad = [this, write](PropCtx &ctx,
                                           unsigned f) -> Lit {
                const CoreMeta &core = md_.cores[0];
                auto &cnf = ctx.cnf();
                Lit g = ctx.at(f, md_.remote.grant)[0];
                Lit wen = ctx.at(f, core.reqWen)[0];
                Lit en = ctx.at(f, core.reqEn)[0];
                Lit req = write
                              ? cnf.mkAnd(g, wen)
                              : cnf.mkAnd(g, cnf.mkAnd(en, ~wen));
                const sat::Word &ifr = ctx.at(f, core.ifr);
                Lit matches = cnf.falseLit();
                for (const InstrType &op : md_.instrs) {
                    if ((write && !op.isWrite) ||
                        (!write && !op.isRead))
                        continue;
                    Lit m = cnf.trueLit();
                    for (size_t b = 0; b < ifr.size() && b < 32; b++) {
                        if ((op.mask >> b) & 1) {
                            bool bit = (op.match >> b) & 1;
                            m = cnf.mkAnd(m, bit ? ifr[b] : ~ifr[b]);
                        }
                    }
                    matches = cnf.mkOr(matches, m);
                }
                return cnf.mkAnd(req, ~matches);
            };
            deferSva(
                chk.idx,
                [this, frame_bad](PropCtx &ctx) {
                    ctx.pinInput("reset", 0);
                    watchDefaults(ctx);
                    auto &cnf = ctx.cnf();
                    Lit bad = cnf.falseLit();
                    for (unsigned f = 0; f < ctx.bound(); f++)
                        bad = cnf.mkOr(bad, frame_bad(ctx, f));
                    return bad;
                },
                {},
                [this, frame_bad](PropCtx &ctx, unsigned f) {
                    // Environment once per context (frame 0 is always
                    // built first); pinInput covers every frame.
                    if (f == 0) {
                        ctx.pinInput("reset", 0);
                        watchDefaults(ctx);
                    }
                    return frame_bad(ctx, f);
                });
        }
        flushSvas();
        for (const Check &chk : checks) {
            if (eventHappens(chk.idx,
                             strfmt("attribution check %s "
                                    "undetermined; cannot certify "
                                    "absence of the §6.1 bug class "
                                    "(not reported as a bug)",
                                    chk.name))) {
                // A verdict answered from the journal or the cache
                // comes back without a trace; its note says so.
                const SvaRecord &rec = out_.svas[chk.idx];
                std::string cex = rec.trace.steps.empty()
                                      ? rec.validationNote
                                      : rec.trace.toString();
                out_.bugs.push_back(strfmt(
                    "DESIGN BUG (paper §6.1 class): %s refuted — an "
                    "instruction that does not decode to a declared "
                    "%s type issues a memory %s request. "
                    "Counterexample:\n%s",
                    chk.name, chk.write ? "store" : "load",
                    chk.write ? "write" : "read", cex.c_str()));
            }
        }
    }

    // ------------------------------------------------------------------
    // §4.3: inter-instruction HBIs.
    // ------------------------------------------------------------------

    /**
     * Enqueue an ordering SVA: assume two instruction instances in
     * program order (fetch order), assert eventsOf("0") strictly
     * before eventsOf("1"). op0/op1 must outlive the batch (point
     * into md_.instrs or be null); events must be self-contained.
     */
    void
    deferOrderSva(size_t idx, const InstrType *op0, const InstrType *op1,
                  std::function<EventVec(PropCtx &,
                                         const std::string &)> events,
                  nl::CoiSeeds extra = {})
    {
        deferSva(idx, [this, op0, op1,
                       events = std::move(events)](PropCtx &ctx) {
            ctx.pinInput("reset", 0);
            watchDefaults(ctx);
            EventVec occ_a = bindInstr(ctx, "0", op0);
            EventVec occ_b = bindInstr(ctx, "1", op1);
            sva::assumeStrictlyBefore(ctx, occ_a, occ_b);
            EventVec ev_a = events(ctx, "0");
            EventVec ev_b = events(ctx, "1");
            ctx.assume(sva::occurs(ctx, ev_a));
            ctx.assume(sva::occurs(ctx, ev_b));
            return sva::notStrictlyBefore(ctx, ev_a, ev_b);
        }, std::move(extra));
    }

    void
    interInstruction()
    {
        const CoreMeta &core = md_.cores[0];

        // Phase A: enqueue every SVA whose existence does not depend
        // on another verdict. Only the per-pair fallbacks for a
        // *failed* relaxed stage must wait for Phase A's verdicts.

        // --- spatial/temporal for same-stage local registers: one
        // relaxed SVA per pipeline stage (§4.3.3 optimization). ---
        struct StagePlan
        {
            unsigned stage = 0;
            bool relaxed = false;
            size_t relaxedIdx = 0;
            std::vector<size_t> fallback;
        };
        std::vector<StagePlan> plans;
        for (unsigned stage = 0; stage < core.pcrs.size(); stage++) {
            StagePlan plan;
            plan.stage = stage;
            if (md_.relaxPairs) {
                plan.relaxed = true;
                plan.relaxedIdx = startSva(
                    strfmt("po_order_stage%u", stage),
                    stage == 0 ? "spatial" : "temporal",
                    strfmt("assert (po(pc0, pc1) |-> first(`PCR_%u == "
                           "pc0) before first(`PCR_%u == pc1)); // all "
                           "instruction pairs (relaxed)",
                           stage, stage),
                    stageHypotheses(stage), false);
                deferOrderSva(plan.relaxedIdx, nullptr, nullptr,
                              [this, stage](PropCtx &ctx,
                                            const std::string &s) {
                                  return stageOcc(ctx, s, stage);
                              });
            } else {
                plan.fallback = deferFallbackStage(stage);
            }
            plans.push_back(std::move(plan));
        }

        // --- spatial on the local array (regfile): reader pairs. ---
        std::vector<size_t> regfile_idxs;
        const Elem *regfile = findElem(ElemKind::LocalArray);
        if (regfile) {
            for (const InstrType &op0 : md_.instrs) {
                for (const InstrType &op1 : md_.instrs) {
                    if (!updated_[op0.name].count(regfile->node) ||
                        !updated_[op1.name].count(regfile->node))
                        continue;
                    if (&op0 != &op1)
                        continue; // one representative per element
                    size_t idx = startSva(
                        strfmt("po_order_%s",
                               shortName(regfile->name).c_str()),
                        "spatial",
                        strfmt("assert (po(pc0, pc1) |-> "
                               "write(%s, pc0) before write(%s, "
                               "pc1)); // %s/%s",
                               regfile->name.c_str(),
                               regfile->name.c_str(),
                               op0.name.c_str(), op1.name.c_str()),
                        1, false);
                    deferOrderSva(
                        idx, &op0, &op1,
                        [this, regfile](PropCtx &ctx,
                                        const std::string &s) {
                            return localArrayWriteEvents(ctx, *regfile,
                                                         s);
                        },
                        elemSeeds(*regfile));
                    regfile_idxs.push_back(idx);
                }
            }
        }

        // --- remote resource: Req-Snd / Req-Rec / Req-Proc (§4.3.3).
        RemotePlan remote = deferReqSndRecProc();

        // --- cross-array temporal HBIs (regfile <-> mem). ---
        CrossPlan cross = deferCrossArrayTemporal();

        // --- dataflow (§4.3.5): mem -> regfile. ---
        DataflowPlan dflow = deferDataflowSvas();

        flushSvas();

        // Phase B: per-pair fallbacks for relaxed stages that failed.
        stage_ordered_.assign(core.pcrs.size(), false);
        for (StagePlan &plan : plans) {
            if (!plan.relaxed)
                continue;
            bool proven = orderingProven(plan.relaxedIdx);
            stage_ordered_[plan.stage] = proven;
            if (!proven)
                plan.fallback = deferFallbackStage(plan.stage);
        }
        flushSvas();

        // With relaxation disabled, a stage is ordered iff every
        // per-pair fallback proves. (A failed *relaxed* stage stays
        // unordered even if its fallbacks prove — the fallbacks are
        // diagnostic, matching the sequential reference behavior.)
        for (const StagePlan &plan : plans) {
            if (plan.relaxed)
                continue;
            bool all_proven = true;
            for (size_t idx : plan.fallback)
                all_proven &= orderingProven(idx);
            stage_ordered_[plan.stage] = all_proven;
        }
        for (size_t idx : regfile_idxs)
            regfile_ordered_ = orderingProven(idx);
        // No && short-circuit: every undetermined link in the chain
        // must record its own degradation.
        bool snd_ok = orderingProven(remote.snd);
        bool rec_ok = orderingProven(remote.rec);
        bool proc_ok = orderingProven(remote.proc);
        remote_chain_proven_ = snd_ok && rec_ok && proc_ok;
        if (cross.active) {
            t_read_write_ = orderingProven(cross.readWrite);
            t_write_read_ = orderingProven(cross.writeRead);
        }
        if (dflow.active)
            dataflow_proven_ = orderingProven(dflow.idx);
    }

    unsigned
    stageHypotheses(unsigned stage) const
    {
        // Element-granular hypothesis count this one SVA covers:
        // spatial (same element) and temporal (distinct elements in
        // the stage) pairs across ordered instruction-type pairs.
        unsigned members = 0;
        for (const Elem &e : elems_)
            if (e.kind == ElemKind::LocalReg &&
                e.stage == static_cast<int>(stage))
                members++;
        if (stage == 0)
            members++; // the IFR shares stage 0
        unsigned op_pairs = static_cast<unsigned>(
            md_.instrs.size() * md_.instrs.size());
        return op_pairs * members * members;
    }

    /**
     * §6.2: if the relaxed SVA fails (or relaxation is disabled),
     * fall back to per-pair opcode-constrained SVAs. Enqueues them
     * and returns their record indices for the post-flush tally.
     */
    std::vector<size_t>
    deferFallbackStage(unsigned stage)
    {
        std::vector<size_t> idxs;
        for (const InstrType &op0 : md_.instrs) {
            for (const InstrType &op1 : md_.instrs) {
                size_t idx = startSva(
                    strfmt("po_order_stage%u_%s_%s", stage,
                           op0.name.c_str(), op1.name.c_str()),
                    stage == 0 ? "spatial" : "temporal",
                    strfmt("assert (po(pc0:%s, pc1:%s) |-> stage %u "
                           "entries ordered);",
                           op0.name.c_str(), op1.name.c_str(), stage),
                    1, false);
                deferOrderSva(idx, &op0, &op1,
                              [this, stage](PropCtx &ctx,
                                            const std::string &s) {
                                  return stageOcc(ctx, s, stage);
                              });
                idxs.push_back(idx);
            }
        }
        return idxs;
    }

    struct RemotePlan
    {
        size_t snd = 0, rec = 0, proc = 0;
    };

    RemotePlan
    deferReqSndRecProc()
    {
        RemotePlan plan;

        // Req-Snd: same-core requests are sent in program order.
        plan.snd = startSva(
            "req_snd_order", "temporal",
            "Req-Snd: assert (po(pc0, pc1) |-> send(pc0) before "
            "send(pc1)); // requests to the shared memory",
            static_cast<unsigned>(md_.instrs.size() *
                                  md_.instrs.size()),
            true);
        deferOrderSva(plan.snd, nullptr, nullptr,
                      [this](PropCtx &ctx, const std::string &s) {
                          return sentEvents(ctx, s, false);
                      });

        // Req-Rec: a sent request is received next cycle, tagged with
        // the sender's core id.
        plan.rec = startSva(
            "req_rec_in_order", "temporal",
            "Req-Rec: assert ((grant[0] && req_en) |-> ##1 "
            "(req_valid_q && req_core_q == 0));",
            1, true);
        deferSva(plan.rec, [this](PropCtx &ctx) {
            ctx.pinInput("reset", 0);
            watchDefaults(ctx);
            auto &cnf = ctx.cnf();
            Lit bad = cnf.falseLit();
            for (unsigned f = 0; f + 1 < ctx.bound(); f++) {
                Lit g = ctx.at(f, md_.remote.grant)[0];
                Lit en = ctx.at(f, md_.cores[0].reqEn)[0];
                Lit valid = ctx.at(f + 1, md_.remote.pipeValid)[0];
                const sat::Word &who =
                    ctx.at(f + 1, md_.remote.pipeCore);
                Lit tagged = cnf.mkAnd(
                    valid,
                    cnf.mkEqW(who,
                              cnf.constWord(
                                  static_cast<unsigned>(who.size()),
                                  0)));
                bad = cnf.mkOr(bad, cnf.mkAnd(cnf.mkAnd(g, en),
                                              ~tagged));
            }
            return bad;
        }, pipeSeeds(false));

        // Req-Proc: a received write request is processed (committed
        // to the array) in the cycle it sits in the request register.
        plan.proc = startSva(
            "req_proc_in_order", "temporal",
            "Req-Proc: assert ((req_valid_q && req_wen_q) |-> "
            "mem_write_fire);",
            1, true);
        nl::MemId mem = nl_.findMemoryByName(md_.remote.memName);
        // Frame-local kernel shared by both property forms (see the
        // attribution checks for the pattern).
        auto proc_bad = [this, mem](PropCtx &ctx, unsigned f) -> Lit {
            auto &cnf = ctx.cnf();
            Lit commit = cnf.falseLit();
            for (nl::CellId port : nl_.memory(mem).writePorts) {
                nl::CellId en = nl_.cell(port).inputs[2];
                commit = cnf.mkOr(commit,
                                  ctx.unroller().wire(f, en)[0]);
            }
            Lit valid = ctx.at(f, md_.remote.pipeValid)[0];
            Lit wen = ctx.at(f, md_.remote.pipeWen)[0];
            return cnf.mkAnd(cnf.mkAnd(valid, wen), ~commit);
        };
        deferSva(
            plan.proc,
            [this, proc_bad](PropCtx &ctx) {
                ctx.pinInput("reset", 0);
                watchDefaults(ctx);
                auto &cnf = ctx.cnf();
                Lit bad = cnf.falseLit();
                for (unsigned f = 0; f < ctx.bound(); f++)
                    bad = cnf.mkOr(bad, proc_bad(ctx, f));
                return bad;
            },
            pipeSeeds(true, mem),
            [this, proc_bad](PropCtx &ctx, unsigned f) {
                if (f == 0) {
                    ctx.pinInput("reset", 0);
                    watchDefaults(ctx);
                }
                return proc_bad(ctx, f);
            });
        return plan;
    }

    /** Seeds for the Req-Rec / Req-Proc request-pipeline SVAs. */
    nl::CoiSeeds
    pipeSeeds(bool proc, nl::MemId commit_mem = -1) const
    {
        nl::CoiSeeds s;
        addSeed(s, md_.remote.pipeValid);
        addSeed(s, proc ? md_.remote.pipeWen : md_.remote.pipeCore);
        if (commit_mem >= 0)
            seedArrayWriteEns(s, commit_mem);
        return s;
    }

    struct CrossPlan
    {
        bool active = false;
        size_t readWrite = 0, writeRead = 0;
    };

    CrossPlan
    deferCrossArrayTemporal()
    {
        CrossPlan plan;
        const Elem *regfile = findElem(ElemKind::LocalArray);
        const Elem *mem = findElem(ElemKind::RemoteArray);
        if (!regfile || !mem)
            return plan;
        const InstrType *rd = nullptr, *wr = nullptr;
        for (const InstrType &op : md_.instrs) {
            if (op.isRead)
                rd = &op;
            if (op.isWrite)
                wr = &op;
        }
        if (!rd || !wr)
            return plan;
        plan.active = true;

        // read-then-write: regfile update before memory commit.
        plan.readWrite = startSva(
            "t_regfile_then_mem", "temporal",
            strfmt("assert (po(pc0:%s, pc1:%s) |-> write(%s, pc0) "
                   "before commit(%s, pc1));",
                   rd->name.c_str(), wr->name.c_str(),
                   regfile->name.c_str(), mem->name.c_str()),
            1, true);
        deferOrderSva(
            plan.readWrite, rd, wr,
            [this, regfile](PropCtx &ctx, const std::string &s) {
                if (s == "0")
                    return localArrayWriteEvents(ctx, *regfile, s);
                return shiftEvents(ctx, sentEvents(ctx, s, true));
            },
            elemSeeds(*regfile));

        // write-then-read: memory commit before regfile update.
        plan.writeRead = startSva(
            "t_mem_then_regfile", "temporal",
            strfmt("assert (po(pc0:%s, pc1:%s) |-> commit(%s, pc0) "
                   "before write(%s, pc1));",
                   wr->name.c_str(), rd->name.c_str(),
                   mem->name.c_str(), regfile->name.c_str()),
            1, true);
        deferOrderSva(
            plan.writeRead, wr, rd,
            [this, regfile](PropCtx &ctx, const std::string &s) {
                if (s == "0")
                    return shiftEvents(ctx, sentEvents(ctx, s, true));
                return localArrayWriteEvents(ctx, *regfile, s);
            },
            elemSeeds(*regfile));
        return plan;
    }

    struct DataflowPlan
    {
        bool active = false;
        size_t idx = 0;
    };

    DataflowPlan
    deferDataflowSvas()
    {
        DataflowPlan plan;
        const Elem *regfile = findElem(ElemKind::LocalArray);
        const Elem *mem = findElem(ElemKind::RemoteArray);
        if (!regfile || !mem)
            return plan;
        const InstrType *rd = nullptr, *wr = nullptr;
        for (const InstrType &op : md_.instrs) {
            if (op.isRead)
                rd = &op;
            if (op.isWrite)
                wr = &op;
        }
        if (!rd || !wr)
            return plan;
        plan.active = true;
        // The writer's mem update reaches the reader's regfile update.
        plan.idx = startSva(
            "dataflow_mem_to_regfile", "dataflow",
            strfmt("assert (po(pc0:%s, pc1:%s) |-> commit(%s, pc0) "
                   "before write(%s, pc1)); // data handoff via %s",
                   wr->name.c_str(), rd->name.c_str(),
                   mem->name.c_str(), regfile->name.c_str(),
                   mem->name.c_str()),
            1, true);
        deferOrderSva(
            plan.idx, wr, rd,
            [this, regfile](PropCtx &ctx, const std::string &s) {
                if (s == "0")
                    return shiftEvents(ctx, sentEvents(ctx, s, true));
                return localArrayWriteEvents(ctx, *regfile, s);
            },
            elemSeeds(*regfile));
        return plan;
    }

    const Elem *
    findElem(ElemKind kind) const
    {
        for (const Elem &e : elems_)
            if (e.kind == kind)
                return &e;
        return nullptr;
    }

    // ------------------------------------------------------------------
    // §4.2.3 / §4.4: per-instruction DFGs, merging, emission.
    // ------------------------------------------------------------------
    void
    buildInstrDfgs()
    {
        for (const InstrType &op : md_.instrs) {
            dfg::InstrDfg idfg = dfg::buildInstrDfg(
                dfg_, op.name, ifr_node_, updated_[op.name]);
            out_.instrDfgDots[op.name] =
                dfg::instrDfgToDot(dfg_, idfg);
            std::vector<std::string> names;
            for (NodeId n : idfg.nodes)
                names.push_back(dfg_.node(n).name);
            out_.instrNodes[op.name] = std::move(names);
            instr_dfgs_.push_back(std::move(idfg));
        }
    }

    /** Strip the core prefix for row naming. */
    std::string
    shortName(const std::string &name) const
    {
        std::string s = name;
        if (startsWith(s, md_.cores[0].prefix))
            s = s.substr(md_.cores[0].prefix.size());
        for (char &c : s)
            if (c == '.' || c == '[' || c == ']')
                c = '_';
        return s;
    }

    /** Merged row (location) of a DFG node; -1 if not modeled. */
    int
    rowOf(NodeId n) const
    {
        auto it = row_of_.find(n);
        return it == row_of_.end() ? -1 : it->second;
    }

    void
    mergeAndEmit()
    {
        uspec::Model &m = out_.model;
        int if_row = m.addStage("IF_");
        row_of_[ifr_node_] = if_row;

        // Merge local registers per stage (same stage => same PCR =>
        // identical inter-instruction HBI participation, §4.4).
        std::map<int, int> stage_row;
        for (const Elem &e : elems_) {
            if (e.kind != ElemKind::LocalReg)
                continue;
            bool member = false;
            for (const auto &[op, set] : updated_)
                member |= set.count(e.node) > 0;
            if (!member)
                continue;
            if (!md_.mergeNodes) {
                row_of_[e.node] = m.addStage(shortName(e.name));
                per_element_rows_[e.stage].push_back(
                    row_of_[e.node]);
                continue;
            }
            auto it = stage_row.find(e.stage);
            if (it == stage_row.end()) {
                int row = m.addStage(
                    strfmt("mgnode_%zu", stage_row.size()));
                it = stage_row.emplace(e.stage, row).first;
            }
            row_of_[e.node] = it->second;
        }
        // The remote request group merges into a single access row.
        // (The access point itself is kept merged even in the
        // no-merging ablation: the check engine needs one access row.)
        int acc_row = -1;
        for (const Elem &e : elems_) {
            if (e.kind != ElemKind::RemoteReg)
                continue;
            if (acc_row < 0)
                acc_row = m.addStage("mem_if");
            row_of_[e.node] = acc_row;
        }
        // Arrays stay distinct rows.
        const Elem *regfile = findElem(ElemKind::LocalArray);
        const Elem *mem = findElem(ElemKind::RemoteArray);
        int regfile_row = -1, mem_row = -1;
        if (regfile) {
            regfile_row = m.addStage(shortName(regfile->name));
            row_of_[regfile->node] = regfile_row;
        }
        if (mem) {
            mem_row = m.addStage(shortName(mem->name));
            row_of_[mem->node] = mem_row;
        }
        if (acc_row >= 0)
            m.memAccessStage = m.stageNames[acc_row];
        if (mem_row >= 0)
            m.memStage = m.stageNames[mem_row];

        // --- per-instruction path axioms ---
        for (size_t i = 0; i < instr_dfgs_.size(); i++) {
            const dfg::InstrDfg &idfg = instr_dfgs_[i];
            const InstrType &op = md_.instrs[i];
            std::set<std::pair<int, int>> edges;
            for (const auto &[a, b] : idfg.edges) {
                if (!idfg.nodes.count(a) || !idfg.nodes.count(b))
                    continue; // member->member only
                // Intra-instruction updates happen in stage order
                // (single-execution-path); an edge from a later-stage
                // element into an earlier one is another
                // instruction's influence (e.g. bypass/redirect
                // control), not part of this instruction's path.
                if (labels_.stage[a] >= labels_.stage[b])
                    continue;
                int ra = rowOf(a), rb = rowOf(b);
                if (ra < 0 || rb < 0 || ra == rb)
                    continue;
                edges.emplace(ra, rb);
            }
            uspec::Axiom ax;
            ax.name = op.name + "_path";
            ax.microops = {"i0"};
            uspec::Pred p;
            p.kind = op.isRead ? uspec::PredKind::IsAnyRead
                               : uspec::PredKind::IsAnyWrite;
            p.i0 = "i0";
            ax.antecedents.push_back(p);
            std::vector<uspec::EdgeSpec> list;
            for (const auto &[ra, rb] : edges) {
                uspec::EdgeSpec es;
                es.src = {"i0", ra};
                es.dst = {"i0", rb};
                es.label = "path";
                list.push_back(es);
            }
            ax.edgeAlternatives = {list};
            if (degraded_ops_.count(op.name)) {
                ax.note = "degraded: one or more membership proofs "
                          "undetermined; node set (and these path "
                          "edges) may be incomplete";
            }
            if (!list.empty())
                m.axioms.push_back(std::move(ax));
            else if (!ax.note.empty())
                m.notes.push_back(op.name + "_path omitted: " +
                                  ax.note);
            hbis_ += static_cast<int>(list.size());
        }

        // --- ordering axioms from proven SVAs ---
        auto po_axiom = [&](const std::string &name, int row,
                            std::vector<uspec::Pred> extra = {}) {
            uspec::Axiom ax;
            ax.name = name;
            ax.microops = {"i0", "i1"};
            uspec::Pred same{uspec::PredKind::SameCore, "i0", "i1", {}};
            uspec::Pred po{uspec::PredKind::ProgramOrder, "i0", "i1",
                           {}};
            ax.antecedents = {same, po};
            for (auto &p : extra)
                ax.antecedents.push_back(p);
            uspec::EdgeSpec es;
            es.src = {"i0", row};
            es.dst = {"i1", row};
            es.label = name;
            ax.edgeAlternatives = {{es}};
            m.axioms.push_back(std::move(ax));
        };

        if (!stage_ordered_.empty() && stage_ordered_[0])
            po_axiom("PO_fetch", if_row);
        for (size_t s = 0; s < stage_ordered_.size(); s++) {
            if (!stage_ordered_[s])
                continue;
            if (md_.mergeNodes) {
                if (stage_row.count(static_cast<int>(s)))
                    po_axiom(strfmt("PO_stage%zu", s),
                             stage_row[static_cast<int>(s)]);
            } else {
                int k = 0;
                for (int row : per_element_rows_[static_cast<int>(s)])
                    po_axiom(strfmt("PO_stage%zu_%d", s, k++), row);
            }
        }
        if (acc_row >= 0 && remote_chain_proven_) {
            po_axiom("PO_mem_if", acc_row);
            if (mem_row >= 0) {
                uspec::Pred w0{uspec::PredKind::IsAnyWrite, "i0", "",
                               {}};
                uspec::Pred w1{uspec::PredKind::IsAnyWrite, "i1", "",
                               {}};
                po_axiom("PO_mem", mem_row, {w0, w1});
            }
        }
        if (regfile_row >= 0 && regfile_ordered_) {
            uspec::Pred r0{uspec::PredKind::IsAnyRead, "i0", "", {}};
            uspec::Pred r1{uspec::PredKind::IsAnyRead, "i1", "", {}};
            po_axiom("PO_regfile", regfile_row, {r0, r1});
        }

        // Unordered cross-core serialization at the shared resource
        // (§4.3.1: structural HBIs without a reference order).
        if (acc_row >= 0) {
            uspec::Axiom ax;
            ax.name = "Access_serialized";
            ax.microops = {"i0", "i1"};
            ax.antecedents = {
                {uspec::PredKind::NotSame, "i0", "i1", {}},
                {uspec::PredKind::NotSameCore, "i0", "i1", {}}};
            uspec::EdgeSpec es;
            es.src = {"i0", acc_row};
            es.dst = {"i1", acc_row};
            es.label = "serial";
            uspec::EdgeSpec rev = es;
            std::swap(rev.src, rev.dst);
            ax.edgeAlternatives = {{es}, {rev}};
            m.axioms.push_back(std::move(ax));
            hbis_++;
        }

        // Cross-array temporal axioms (Fig. 3f "Axiom Temporal").
        if (regfile_row >= 0 && mem_row >= 0) {
            if (t_read_write_) {
                uspec::Axiom ax;
                ax.name = "T_regfile_mem";
                ax.microops = {"i0", "i1"};
                ax.antecedents = {
                    {uspec::PredKind::IsAnyRead, "i0", "", {}},
                    {uspec::PredKind::IsAnyWrite, "i1", "", {}},
                    {uspec::PredKind::SameCore, "i0", "i1", {}},
                    {uspec::PredKind::ProgramOrder, "i0", "i1", {}}};
                uspec::EdgeSpec es;
                es.src = {"i0", regfile_row};
                es.dst = {"i1", mem_row};
                es.label = "temporal";
                ax.edgeAlternatives = {{es}};
                m.axioms.push_back(std::move(ax));
                hbis_++;
            }
            if (t_write_read_) {
                uspec::Axiom ax;
                ax.name = "T_mem_regfile";
                ax.microops = {"i0", "i1"};
                ax.antecedents = {
                    {uspec::PredKind::IsAnyWrite, "i0", "", {}},
                    {uspec::PredKind::IsAnyRead, "i1", "", {}},
                    {uspec::PredKind::SameCore, "i0", "i1", {}},
                    {uspec::PredKind::ProgramOrder, "i0", "i1", {}}};
                uspec::EdgeSpec es;
                es.src = {"i0", mem_row};
                es.dst = {"i1", regfile_row};
                es.label = "temporal";
                ax.edgeAlternatives = {{es}};
                m.axioms.push_back(std::move(ax));
                hbis_++;
            }
            if (dataflow_proven_) {
                uspec::Axiom ax;
                ax.name = "Dataflow_mem";
                ax.microops = {"i0", "i1"};
                ax.antecedents = {
                    {uspec::PredKind::IsAnyWrite, "i0", "", {}},
                    {uspec::PredKind::IsAnyRead, "i1", "", {}},
                    {uspec::PredKind::SamePA, "i0", "i1", {}},
                    {uspec::PredKind::SameData, "i0", "i1", {}},
                    {uspec::PredKind::NoWritesInBetween, "i0", "i1",
                     {}}};
                uspec::EdgeSpec es;
                es.src = {"i0", mem_row};
                es.dst = {"i1", regfile_row};
                es.label = "data";
                es.color = "deeppink";
                ax.edgeAlternatives = {{es}};
                m.axioms.push_back(std::move(ax));
                hbis_++;
            }
        }

        // Every degradation an Unknown verdict forced is tagged in
        // the emitted model itself (parser-skipped `%` notes), so a
        // consumer of the .uarch file sees that — and why — the model
        // is weaker than a full proof run would make it.
        for (const std::string &note : out_.degraded)
            m.notes.push_back("degraded: " + note);
    }

    void
    tallyStats()
    {
        for (const SvaRecord &rec : out_.svas) {
            CategoryStats &cs = out_.stats[rec.category];
            cs.svas++;
            cs.seconds += rec.seconds;
            cs.cnfVarsSum += rec.cnfVars;
            cs.cnfClausesSum += rec.cnfClauses;
            int &hyp = rec.global ? cs.hypGlobal : cs.hypLocal;
            hyp += static_cast<int>(rec.hypotheses);
            // Intra (membership) SVAs tally their hypotheses as
            // examined HBIs regardless of verdict, matching the
            // paper's Fig. 5 accounting; other categories count only
            // proven orderings. Unknowns never count as proven.
            bool counts = rec.category == "intra";
            switch (rec.verdict) {
              case Verdict::Proven:
                counts = true;
                break;
              case Verdict::Refuted:
                break;
              case Verdict::Unknown:
                out_.unknownSvas++;
                break;
            }
            if (counts) {
                int &hbi = rec.global ? cs.hbiGlobal : cs.hbiLocal;
                hbi += static_cast<int>(rec.hypotheses);
            }
        }
        if (out_.unknownSvas > 0) {
            inform("rtl2uspec: %zu SVA(s) undetermined, %zu "
                   "conservative degradation(s) recorded",
                   static_cast<size_t>(out_.unknownSvas),
                   out_.degraded.size());
        }
    }

    const vlog::ElabResult &design_;
    const DesignMetadata &md_;
    const nl::Netlist &nl_;
    bool full_unroll_ = false;
    nl::CoiSeeds base_seeds_;
    dfg::FullDesignDfg dfg_;
    dfg::StageLabels labels_;
    NodeId ifr_node_ = dfg::kNoNode;
    std::vector<Elem> elems_;
    std::map<std::string, std::set<NodeId>> updated_;
    /** Instruction types with an undetermined membership proof. */
    std::set<std::string> degraded_ops_;
    std::vector<dfg::InstrDfg> instr_dfgs_;
    std::map<NodeId, int> row_of_;
    std::map<int, std::vector<int>> per_element_rows_;
    std::vector<bool> stage_ordered_;
    bool regfile_ordered_ = false;
    bool remote_chain_proven_ = false;
    bool t_read_write_ = false;
    bool t_write_read_ = false;
    bool dataflow_proven_ = false;
    int hbis_ = 0;
    SynthesisResult out_;
    /** Per-cell and per-memory content digests of nl_, computed once. */
    nl::Digests digests_;
    /** nl::structuralHash of the whole design (journal binding). */
    uint64_t netlist_hash_ = 0;
    /** propertyEnvHash() of the metadata (per-query key ingredient). */
    uint64_t property_env_hash_ = 0;

    /** Crash-safe verdict journal; declared before engine_ so the
     *  engine (which holds a raw pointer to it) dies first. */
    std::unique_ptr<bmc::VerdictStore> journal_;
    /** Cross-run verdict cache; same lifetime rule as the journal. */
    std::unique_ptr<bmc::VerdictStore> cache_;
    /** The BMC query engine serving every SVA in this run. */
    std::unique_ptr<bmc::Engine> engine_;
    /** Record indices of queries enqueued since the last flush. */
    std::vector<size_t> pending_;
};

} // namespace

std::string
SynthesisResult::report() const
{
    std::string out;
    out += strfmt("%-22s %8s %12s %14s %10s %10s %10s %10s\n",
                  "category", "# SVAs", "runtime (s)",
                  "runtime/SVA (s)", "hyp local", "hyp glob",
                  "HBI local", "HBI glob");
    const char *cats[] = {"intra", "spatial", "temporal", "dataflow"};
    int total_svas = 0;
    double total_time = 0;
    int thl = 0, thg = 0, tbl = 0, tbg = 0;
    for (const char *cat : cats) {
        auto it = stats.find(cat);
        if (it == stats.end())
            continue;
        const CategoryStats &cs = it->second;
        out += strfmt("%-22s %8d %12.3f %14.3f %10d %10d %10d %10d\n",
                      cat, cs.svas, cs.seconds,
                      cs.svas ? cs.seconds / cs.svas : 0.0, cs.hypLocal,
                      cs.hypGlobal, cs.hbiLocal, cs.hbiGlobal);
        total_svas += cs.svas;
        total_time += cs.seconds;
        thl += cs.hypLocal;
        thg += cs.hypGlobal;
        tbl += cs.hbiLocal;
        tbg += cs.hbiGlobal;
    }
    out += strfmt("%-22s %8d %12.3f %14.3f %10d %10d %10d %10d\n",
                  "total", total_svas, total_time,
                  total_svas ? total_time / total_svas : 0.0, thl, thg,
                  tbl, tbg);
    out += strfmt("static analysis: %.3f s, SVA evaluation: %.3f s, "
                  "post-processing: %.3f s, total: %.3f s\n",
                  staticSeconds, proofSeconds, postSeconds,
                  totalSeconds);
    out += strfmt("CNF per query (%s): %.0f vars / %.0f clauses mean\n",
                  fullUnroll ? "full unroll" : "COI-sliced",
                  meanCnfVars, meanCnfClauses);
    if (validateMode != "off") {
        out += strfmt(
            "validation (%s): %zu replay(s), %zu proof re-check(s) "
            "(%zu inconclusive), %zu mismatch(es), %zu degraded to "
            "Unknown, %.3f s (replay %.3f s, re-check %.3f s)\n",
            validateMode.c_str(), static_cast<size_t>(replays),
            static_cast<size_t>(proofRechecks),
            static_cast<size_t>(recheckInconclusive),
            static_cast<size_t>(validationMismatches),
            static_cast<size_t>(validationFailures), validateSeconds,
            replaySeconds, recheckSeconds);
    }
    if (engineRaces > 0 || engineMode != "bmc")
        out += strfmt("engine (%s): %zu race(s); wins bmc=%zu "
                      "pdr=%zu; %zu unbounded proof(s), "
                      "%zu PDR frame(s) / %zu obligation(s)\n",
                      engineMode.c_str(),
                      static_cast<size_t>(engineRaces),
                      static_cast<size_t>(bmcWins),
                      static_cast<size_t>(pdrWins),
                      static_cast<size_t>(unboundedProofs),
                      static_cast<size_t>(pdrFrames),
                      static_cast<size_t>(pdrObligations));
    if (journalHits > 0 || journalAppends > 0)
        out += strfmt("journal: %zu verdict(s) resumed, %zu appended\n",
                      static_cast<size_t>(journalHits),
                      static_cast<size_t>(journalAppends));
    if (cacheEnabled)
        out += strfmt("cache: %zu hit(s), %zu miss(es), "
                      "%zu invalidation(s), %zu verdict(s) appended\n",
                      static_cast<size_t>(cacheHits),
                      static_cast<size_t>(cacheMisses),
                      static_cast<size_t>(cacheInvalidations),
                      static_cast<size_t>(cacheAppends));
    if (unknownSvas > 0) {
        out += strfmt("undetermined SVAs: %zu (model degraded "
                      "conservatively; see notes below)\n",
                      static_cast<size_t>(unknownSvas));
        for (const auto &note : degraded)
            out += "  degraded: " + note + "\n";
    }
    for (const auto &bug : bugs)
        out += bug + "\n";
    return out;
}

std::string
SynthesisResult::jsonReport() const
{
    using json::Value;
    auto num = [](auto n) { return Value::number(n); };
    auto flag = [](bool b) { return Value::boolean_(b); };

    Value timings = Value::object();
    timings.set("static_s", num(staticSeconds))
        .set("proof_s", num(proofSeconds))
        .set("post_s", num(postSeconds))
        .set("total_s", num(totalSeconds));
    Value validation = Value::object();
    validation.set("mode", Value::string(validateMode))
        .set("replays", num(replays))
        .set("proof_rechecks", num(proofRechecks))
        .set("recheck_inconclusive", num(recheckInconclusive))
        .set("mismatches", num(validationMismatches))
        .set("validation_failures", num(validationFailures))
        .set("journal_hits", num(journalHits))
        .set("journal_appends", num(journalAppends))
        .set("replay_s", num(replaySeconds))
        .set("recheck_s", num(recheckSeconds))
        .set("validate_s", num(validateSeconds));
    Value cache = Value::object();
    cache.set("enabled", flag(cacheEnabled))
        .set("hits", num(cacheHits))
        .set("misses", num(cacheMisses))
        .set("invalidations", num(cacheInvalidations))
        .set("appends", num(cacheAppends));
    Value engine = Value::object();
    engine.set("mode", Value::string(engineMode))
        .set("races", num(engineRaces))
        .set("bmc_wins", num(bmcWins))
        .set("pdr_wins", num(pdrWins))
        .set("unbounded_proofs", num(unboundedProofs))
        .set("pdr_frames", num(pdrFrames))
        .set("pdr_obligations", num(pdrObligations));
    Value categories = Value::object();
    for (const auto &[name, cs] : stats) {
        Value cat = Value::object();
        cat.set("svas", num(cs.svas))
            .set("seconds", num(cs.seconds))
            .set("hyp_local", num(cs.hypLocal))
            .set("hyp_global", num(cs.hypGlobal))
            .set("hbi_local", num(cs.hbiLocal))
            .set("hbi_global", num(cs.hbiGlobal));
        categories.set(name, std::move(cat));
    }
    Value notes = Value::array();
    for (const auto &note : degraded)
        notes.push(Value::string(note));
    Value records = Value::array();
    for (const SvaRecord &r : svas) {
        Value rec = Value::object();
        rec.set("name", Value::string(r.name))
            .set("category", Value::string(r.category))
            .set("verdict", Value::string(bmc::verdictName(r.verdict)))
            .set("source",
                 Value::string(bmc::verdictSourceName(r.source)))
            .set("seconds", num(r.seconds))
            .set("encode_s", num(r.encodeSeconds))
            .set("solve_s", num(r.solveSeconds))
            .set("conflicts", num(r.conflicts))
            .set("propagations", num(r.propagations))
            .set("cnf_vars", num(r.cnfVars))
            .set("cnf_clauses", num(r.cnfClauses))
            .set("coi_cells", num(r.coiCells))
            .set("validated", flag(r.validated))
            .set("from_journal", flag(r.fromJournal))
            .set("from_cache", flag(r.fromCache))
            .set("engine", Value::string(bmc::engineKindName(r.engine)))
            .set("engine_raced", flag(r.engineRaced))
            .set("unbounded", flag(r.unbounded))
            .set("degraded", flag(r.degraded));
        if (r.degraded)
            rec.set("degrade_note", Value::string(r.degradeNote));
        records.push(std::move(rec));
    }

    Value out = Value::object();
    out.set("jobs", num(jobs))
        .set("full_unroll", flag(fullUnroll))
        .set("sva_count", num(svas.size()))
        .set("unroll_contexts", num(unrollContexts))
        .set("contexts_seeded", num(contextsSeeded))
        .set("unknown_svas", num(unknownSvas))
        .set("bug_count", num(bugs.size()))
        .set("timings", std::move(timings))
        .set("validation", std::move(validation))
        .set("cache", std::move(cache))
        .set("engine", std::move(engine))
        .set("categories", std::move(categories))
        .set("degraded", std::move(notes))
        .set("svas", std::move(records));
    return out.dump() + "\n";
}

SynthesisResult
synthesize(const vlog::ElabResult &design, const DesignMetadata &metadata,
           const SynthesisOptions &options)
{
    Synthesizer s(design, metadata, options);
    return s.run();
}

} // namespace r2u::rtl2uspec
