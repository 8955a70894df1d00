#include "uhb/uhb.hh"

#include <algorithm>
#include <cstdint>
#include <set>

#include "common/dot.hh"
#include "common/logging.hh"
#include "common/strutil.hh"

namespace r2u::uhb
{

using uspec::Axiom;
using uspec::EdgeSpec;
using uspec::Model;
using uspec::Pred;
using uspec::PredKind;

Graph::Graph(size_t num_ops, size_t num_locs)
    : num_ops_(num_ops), num_locs_(num_locs),
      adj_(num_ops * num_locs), labels_(num_ops * num_locs)
{
}

bool
Graph::addEdge(int op_a, int loc_a, int op_b, int loc_b,
               const std::string &label)
{
    int a = nodeOf(op_a, loc_a);
    int b = nodeOf(op_b, loc_b);
    for (int existing : adj_[a])
        if (existing == b)
            return false;
    adj_[a].push_back(b);
    labels_[a].push_back(label);
    edge_count_++;
    return true;
}

bool
Graph::hasEdge(int op_a, int loc_a, int op_b, int loc_b) const
{
    int a = nodeOf(op_a, loc_a);
    int b = nodeOf(op_b, loc_b);
    for (int existing : adj_[a])
        if (existing == b)
            return true;
    return false;
}

bool
Graph::cyclic() const
{
    // Iterative DFS with colors.
    std::vector<uint8_t> color(adj_.size(), 0);
    std::vector<std::pair<int, size_t>> stack;
    for (size_t root = 0; root < adj_.size(); root++) {
        if (color[root])
            continue;
        stack.emplace_back(static_cast<int>(root), 0);
        color[root] = 1;
        while (!stack.empty()) {
            auto &[n, next] = stack.back();
            if (next < adj_[n].size()) {
                int m = adj_[n][next++];
                if (color[m] == 1)
                    return true;
                if (color[m] == 0) {
                    color[m] = 1;
                    stack.emplace_back(m, 0);
                }
            } else {
                color[n] = 2;
                stack.pop_back();
            }
        }
    }
    return false;
}

std::vector<std::pair<int, int>>
Graph::activeNodes() const
{
    std::vector<bool> active(adj_.size(), false);
    for (size_t a = 0; a < adj_.size(); a++) {
        if (!adj_[a].empty())
            active[a] = true;
        for (int b : adj_[a])
            active[b] = true;
    }
    std::vector<std::pair<int, int>> out;
    for (size_t n = 0; n < active.size(); n++) {
        if (active[n]) {
            out.emplace_back(static_cast<int>(n / num_locs_),
                             static_cast<int>(n % num_locs_));
        }
    }
    return out;
}

std::string
Graph::toDot(const Model &model, const std::vector<Microop> &ops,
             const std::string &title) const
{
    DotWriter dot(title);
    dot.addRaw("rankdir=TB;");
    dot.addRaw("splines=true; nodesep=0.6; ranksep=0.45;");
    dot.addRaw("node [shape=circle, width=0.3, fixedsize=true, "
               "fontsize=9];");
    auto id_of = [&](int op, int loc) {
        return strfmt("n_%d_%d", op, loc);
    };
    auto active = activeNodes();

    // Fig. 1b grid: one column per microop (header row of labels),
    // one row per µhb location, rows aligned with rank=same.
    std::set<int> used_locs;
    for (const auto &[op, loc] : active)
        used_locs.insert(loc);
    for (size_t op = 0; op < ops.size(); op++) {
        dot.addNode(strfmt("hdr_%zu", op), ops[op].label,
                    "shape=plaintext, fixedsize=false");
    }
    {
        std::string rank = "{ rank=same;";
        for (size_t op = 0; op < ops.size(); op++)
            rank += strfmt(" \"hdr_%zu\";", op);
        rank += " }";
        dot.addRaw(rank);
    }
    for (int loc : used_locs) {
        dot.addNode(strfmt("row_%d", loc), model.stageNames[loc],
                    "shape=plaintext, fixedsize=false");
        std::string rank = strfmt("{ rank=same; \"row_%d\";", loc);
        for (const auto &[op, l] : active)
            if (l == loc)
                rank += strfmt(" \"%s\";", id_of(op, l).c_str());
        rank += " }";
        dot.addRaw(rank);
    }
    // Invisible edges to order header -> first row and keep columns.
    for (const auto &[op, loc] : active) {
        dot.addNode(id_of(op, loc), "", "");
        dot.addEdge(strfmt("hdr_%d", op), id_of(op, loc), "",
                    "style=invis");
    }
    for (size_t a = 0; a < adj_.size(); a++) {
        for (size_t k = 0; k < adj_[a].size(); k++) {
            int b = adj_[a][k];
            dot.addEdge(
                id_of(static_cast<int>(a / num_locs_),
                      static_cast<int>(a % num_locs_)),
                id_of(b / static_cast<int>(num_locs_),
                      b % static_cast<int>(num_locs_)),
                labels_[a][k]);
        }
    }
    return dot.render();
}

namespace
{

/** Does evaluating @p kind require the execution's rf assignment? */
bool
predNeedsRf(PredKind kind)
{
    return kind == PredKind::SameData ||
           kind == PredKind::NoWritesInBetween;
}

/**
 * Evaluate a predicate that only reads static microop fields (valid
 * for every execution over the same microops); @p op maps a variable
 * to its bound microop.
 */
template <class OpOf>
bool
evalStaticPred(const Pred &p, const OpOf &op)
{
    switch (p.kind) {
      case PredKind::True_:
        return true;
      case PredKind::IsAnyRead:
        return op(p.i0).isRead;
      case PredKind::IsAnyWrite:
        return op(p.i0).isWrite;
      case PredKind::ProgramOrder:
        return op(p.i0).core == op(p.i1).core &&
               op(p.i0).index < op(p.i1).index;
      case PredKind::SameCore:
        return op(p.i0).core == op(p.i1).core;
      case PredKind::NotSameCore:
        return op(p.i0).core != op(p.i1).core;
      case PredKind::NotSame:
        return op(p.i0).id != op(p.i1).id;
      case PredKind::SamePA:
        return (op(p.i0).isRead || op(p.i0).isWrite) &&
               (op(p.i1).isRead || op(p.i1).isWrite) &&
               op(p.i0).addr == op(p.i1).addr;
      case PredKind::SameData:
      case PredKind::NoWritesInBetween:
        panic("rf-dependent predicate evaluated as static");
      case PredKind::EdgeExists:
        panic("EdgeExists evaluated as plain predicate");
    }
    return false;
}

/**
 * The orientation edges implied by the execution's rf/ws/fr, in the
 * order they enter the graph.
 */
std::vector<NodeEdge>
memorySemantics(const Model &model, const Execution &exec)
{
    static const std::string kWs = "ws", kRf = "rf", kFr = "fr";
    std::vector<NodeEdge> out;
    int acc = model.memAccessStage.empty()
                  ? -1
                  : model.locOf(model.memAccessStage);
    int mem =
        model.memStage.empty() ? -1 : model.locOf(model.memStage);
    if (acc < 0)
        return out;
    int locs = static_cast<int>(model.stageNames.size());
    auto edge = [&](int op_a, int loc_a, int op_b, int loc_b,
                    const std::string &label) {
        out.push_back({op_a * locs + loc_a, op_b * locs + loc_b, &label});
    };

    // ws: coherence order at the access point and the memory array.
    for (const auto &[addr, writes] : exec.ws) {
        for (size_t i = 0; i + 1 < writes.size(); i++) {
            edge(writes[i], acc, writes[i + 1], acc, kWs);
            if (mem >= 0)
                edge(writes[i], mem, writes[i + 1], mem, kWs);
        }
    }
    for (const Microop &r : exec.ops) {
        if (!r.isRead)
            continue;
        int w = exec.rf[r.id];
        // rf: the source write's access precedes the read's access.
        if (w >= 0)
            edge(w, acc, r.id, acc, kRf);
        // fr: the read's access precedes every coherence successor of
        // its source (every same-address write, when reading init).
        auto it = exec.ws.find(r.addr);
        if (it == exec.ws.end())
            continue;
        bool after_src = (w < 0);
        for (int w2 : it->second) {
            if (after_src && w2 != w)
                edge(r.id, acc, w2, acc, kFr);
            if (w2 == w)
                after_src = true;
        }
    }
    return out;
}

/**
 * The search state: per node an adjacency row and a transitive-closure
 * row ("reach": nodes reachable over one or more edges), each
 * @p words 64-bit words, laid out in one caller-owned frame of
 * 2 * nodes * words words. Insertion keeps the graph acyclic: the
 * first edge that would close a cycle is not inserted and latches
 * cycleFound() instead.
 */
class BitGraph
{
  public:
    BitGraph(uint64_t *frame, size_t nodes, size_t words)
        : adj_(frame), reach_(frame + nodes * words), nodes_(nodes),
          words_(words)
    {
    }

    bool
    hasEdge(int a, int b) const
    {
        return test(adj_, a, b);
    }

    bool
    addEdge(int a, int b, const std::string &)
    {
        if (test(adj_, a, b))
            return false;
        if (a == b || test(reach_, b, a)) {
            cycle_ = true;
            return true;
        }
        adj_[row(a) + static_cast<size_t>(b) / 64] |= bit(b);
        if (test(reach_, a, b))
            return true; // already implied: the closure is unchanged
        const uint64_t *rb = reach_ + row(b);
        for (size_t x = 0; x < nodes_; x++) {
            int xi = static_cast<int>(x);
            if (xi != a && !test(reach_, xi, a))
                continue;
            uint64_t *rx = reach_ + row(xi);
            for (size_t w = 0; w < words_; w++)
                rx[w] |= rb[w];
            rx[static_cast<size_t>(b) / 64] |= bit(b);
        }
        return true;
    }

    bool cycleFound() const { return cycle_; }

  private:
    size_t row(int n) const { return static_cast<size_t>(n) * words_; }
    static uint64_t bit(int n) { return uint64_t(1) << (n % 64); }

    bool
    test(const uint64_t *rows, int a, int b) const
    {
        return rows[row(a) + static_cast<size_t>(b) / 64] & bit(b);
    }

    uint64_t *adj_;
    uint64_t *reach_;
    size_t nodes_, words_;
    bool cycle_ = false;
};

/** The labeled Graph seen through node ids, for the witness replay. */
class LabeledGraph
{
  public:
    LabeledGraph(Graph &g, int locs) : g_(g), locs_(locs) {}

    bool
    hasEdge(int a, int b) const
    {
        return g_.hasEdge(a / locs_, a % locs_, b / locs_, b % locs_);
    }

    bool
    addEdge(int a, int b, const std::string &label)
    {
        return g_.addEdge(a / locs_, a % locs_, b / locs_, b % locs_,
                          label);
    }

    /** The replay reproduces every edge: it never stops early. */
    static bool cycleFound() { return false; }

  private:
    Graph &g_;
    int locs_;
};

// The three graph operations of the search, shared by BitGraph (the
// search) and LabeledGraph (the witness replay).

template <class G>
bool
edgesHold(const AxiomInstance &inst, const G &g)
{
    for (const NodeEdge &e : inst.edgeConds)
        if (!g.hasEdge(e.src, e.dst))
            return false;
    return true;
}

/** Add @p edges in order; true iff at least one was new. */
template <class G>
bool
applyEdges(const std::vector<NodeEdge> &edges, G &g)
{
    bool added = false;
    for (const NodeEdge &e : edges) {
        if (g.cycleFound())
            break;
        added |= g.addEdge(e.src, e.dst, *e.label);
    }
    return added;
}

/** Fixpoint over conditional single-alternative instances. */
template <class G>
void
fixpoint(const std::vector<const AxiomInstance *> &conditional, G &g)
{
    bool changed = true;
    while (changed) {
        changed = false;
        for (const AxiomInstance *inst : conditional) {
            if (!edgesHold(*inst, g))
                continue;
            changed |= applyEdges(inst->alternatives[0], g);
            if (g.cycleFound())
                return;
        }
    }
}

/**
 * One execution's search. The constructor keeps the table's instances
 * whose rf antecedents hold on the execution, split by role, fills the
 * base state (orientation edges, then unconditional instances) and
 * runs the depth-first search over the EitherOrdering instances. Frame
 * f of the arena holds the state at recursion depth f; descending into
 * an alternative copies frame f into frame f + 1.
 */
class Search
{
  public:
    Search(const Model &model, const Execution &exec,
           const InstanceTable &table)
        : nodes_(exec.ops.size() * model.stageNames.size()),
          words_((nodes_ + 63) / 64), frame_words_(2 * nodes_ * words_),
          arena_(frame_words_), mem_(memorySemantics(model, exec))
    {
        R2U_ASSERT(table.numOps() == exec.ops.size() &&
                       table.numLocs() == model.stageNames.size(),
                   "instance table built for %zu ops x %zu stages, "
                   "solving %zu ops x %zu stages",
                   table.numOps(), table.numLocs(), exec.ops.size(),
                   model.stageNames.size());
        // The static filtering already happened at table build; only
        // the rf-dependent antecedents remain to be checked here.
        for (const AxiomInstance &inst : table.instances()) {
            bool holds = true;
            for (const auto &[w, r] : inst.rfConds) {
                if (exec.rf[static_cast<size_t>(r)] != w) {
                    holds = false;
                    break;
                }
            }
            if (!holds)
                continue;
            if (inst.alternatives.size() > 1)
                eithers_.push_back(&inst);
            else if (!inst.edgeConds.empty())
                conditional_.push_back(&inst);
            else
                unconditional_.push_back(&inst);
        }
        choice_.assign(eithers_.size(), 0);
        BitGraph base(frame(0), nodes_, words_);
        fillBase(base);
        observable_ = descend(0, 0, base.cycleFound());
    }

    /** True iff an acyclic completion of the base state exists. */
    bool observable() const { return observable_; }
    /** Search nodes visited. */
    int branches() const { return branches_; }

    /**
     * Replay the decided path on @p g: the same base, a full fixpoint
     * per level, and at each level the recorded alternative, stopping
     * at the last visited search node.
     */
    void
    replay(Graph &g, int locs) const
    {
        LabeledGraph lg(g, locs);
        fillBase(lg);
        for (size_t level = 0;; level++) {
            fixpoint(conditional_, lg);
            if (level == last_level_)
                break;
            const AxiomInstance &inst = *eithers_[level];
            if (edgesHold(inst, lg))
                applyEdges(inst.alternatives[choice_[level]], lg);
        }
    }

  private:
    uint64_t *frame(size_t f) { return arena_.data() + f * frame_words_; }

    template <class G>
    void
    fillBase(G &g) const
    {
        applyEdges(mem_, g);
        for (const AxiomInstance *inst : unconditional_)
            applyEdges(inst->alternatives[0], g);
    }

    bool
    descend(size_t f, size_t next, bool cyclic)
    {
        visit(next);
        if (cyclic)
            return false;
        BitGraph g(frame(f), nodes_, words_);
        fixpoint(conditional_, g);
        if (g.cycleFound())
            return false;
        // An instance whose EdgeExists antecedents fail is skipped.
        // The state does not change, so the next level's fixpoint and
        // cycle check are no-ops; it still counts as a search node.
        while (next < eithers_.size() && !edgesHold(*eithers_[next], g))
            visit(++next);
        if (next >= eithers_.size())
            return true;
        const AxiomInstance &inst = *eithers_[next];
        if (arena_.size() < (f + 2) * frame_words_)
            arena_.resize((f + 2) * frame_words_);
        for (size_t i = 0; i < inst.alternatives.size(); i++) {
            std::copy(frame(f), frame(f) + frame_words_, frame(f + 1));
            BitGraph trial(frame(f + 1), nodes_, words_);
            applyEdges(inst.alternatives[i], trial);
            choice_[next] = i;
            if (descend(f + 1, next + 1, trial.cycleFound()))
                return true;
        }
        return false;
    }

    void
    visit(size_t level)
    {
        branches_++;
        last_level_ = level;
    }

    size_t nodes_, words_, frame_words_;
    std::vector<uint64_t> arena_;
    std::vector<NodeEdge> mem_;
    std::vector<const AxiomInstance *> unconditional_, conditional_,
        eithers_;
    /** Per level, the alternative last descended into. */
    std::vector<size_t> choice_;
    int branches_ = 0;
    /** The level of the last search node visited: where the witness
     *  path ends. */
    size_t last_level_ = 0;
    bool observable_ = false;
};

} // namespace

InstanceTable::InstanceTable(const Model &model,
                             const std::vector<Microop> &ops)
    : num_ops_(ops.size()), num_locs_(model.stageNames.size())
{
    int locs = static_cast<int>(num_locs_);
    for (const Axiom &ax : model.axioms) {
        size_t arity = ax.microops.size();
        // A quantifier over microops has no bindings on an empty
        // execution (the pre-table enumerator evaluated one bogus
        // all-zero binding here, indexing ops[0] out of bounds).
        if (arity > 0 && num_ops_ == 0)
            continue;
        std::vector<int> binding(arity, 0);
        // The microop bound to variable @p v.
        auto bound = [&](const std::string &v) -> int {
            for (size_t i = 0; i < arity; i++)
                if (ax.microops[i] == v)
                    return binding[i];
            fatal("axiom '%s' references unbound microop '%s'",
                  ax.name.c_str(), v.c_str());
        };
        auto op_of = [&](const std::string &v) -> const Microop & {
            return ops[static_cast<size_t>(bound(v))];
        };
        auto node_of = [&](const uspec::NodeRef &ref) {
            if (ref.loc < 0 || ref.loc >= locs)
                fatal("axiom '%s' references undeclared stage %d",
                      ax.name.c_str(), ref.loc);
            return bound(ref.microop) * locs + ref.loc;
        };
        auto resolve = [&](const EdgeSpec &e) {
            return NodeEdge{node_of(e.src), node_of(e.dst),
                            e.label.empty() ? &ax.name : &e.label};
        };
        while (true) {
            bool holds = true;
            for (const Pred &p : ax.antecedents) {
                if (p.kind == PredKind::EdgeExists)
                    continue;
                // An rf-dependent antecedent can only hold when its
                // second microop is a read; the rest is per execution.
                if (predNeedsRf(p.kind) ? !op_of(p.i1).isRead
                                        : !evalStaticPred(p, op_of)) {
                    holds = false;
                    break;
                }
            }
            if (holds) {
                AxiomInstance inst;
                for (const Pred &p : ax.antecedents) {
                    if (p.kind == PredKind::EdgeExists)
                        inst.edgeConds.push_back(resolve(p.edge));
                    else if (predNeedsRf(p.kind))
                        // With an explicit rf, "i0's write reaches i1
                        // with no intervening same-address write"
                        // (NoWritesInBetween) is exactly rf(i1) == i0,
                        // the same test as SameData.
                        inst.rfConds.emplace_back(op_of(p.i0).id,
                                                  op_of(p.i1).id);
                }
                for (const auto &alt : ax.edgeAlternatives) {
                    inst.alternatives.emplace_back();
                    for (const EdgeSpec &e : alt)
                        inst.alternatives.back().push_back(resolve(e));
                }
                instances_.push_back(std::move(inst));
            }
            // Next binding.
            size_t d = 0;
            while (d < arity) {
                if (++binding[d] < static_cast<int>(num_ops_))
                    break;
                binding[d] = 0;
                d++;
            }
            if (d == arity || arity == 0)
                break;
        }
    }
}

SolveResult
solve(const Model &model, const Execution &exec)
{
    InstanceTable table(model, exec.ops);
    return solve(model, exec, table);
}

SolveResult
solve(const Model &model, const Execution &exec,
      const InstanceTable &table)
{
    Search search(model, exec, table);
    SolveResult result;
    result.observable = search.observable();
    result.branchesExplored = search.branches();
    size_t num_locs = model.stageNames.size();
    result.graph = Graph(exec.ops.size(), num_locs);
    search.replay(result.graph, static_cast<int>(num_locs));
    result.edges = result.graph.numEdges();
    return result;
}

Verdict
decide(const Model &model, const Execution &exec,
       const InstanceTable &table)
{
    Search search(model, exec, table);
    return {search.observable(), search.branches()};
}

} // namespace r2u::uhb
