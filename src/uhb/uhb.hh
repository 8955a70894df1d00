/**
 * @file
 * µhb graphs and µspec axiom evaluation (paper §2).
 *
 * A candidate Execution fixes each read's source write (rf) and a
 * coherence order per location (ws). solve() instantiates the model's
 * axioms over the microops, adds memory-semantics orientation edges
 * (rf/ws/fr at the model's memory-access row, reflecting the paper's
 * §4.3.6 functional-correctness assumption), runs the EdgeExists
 * fixpoint, branches over unordered (EitherOrdering) structural HBIs,
 * and reports whether an acyclic µhb graph exists: acyclic = the
 * execution is possible on the microarchitecture, cyclic = impossible.
 *
 * The search never touches strings or per-node lists. An
 * InstanceTable resolves every axiom instance to node ids
 * (op * numLocs + loc) once per microop list. The EitherOrdering
 * depth-first search then runs on a flat bit matrix: per node, an
 * adjacency row and a transitive-closure row of ceil(nodes/64) words.
 * Inserting a -> b closes a cycle iff a == b or b already reaches a;
 * otherwise every row that reaches a (and a's own) ORs in b's closure
 * row and b. A branch therefore costs one copy of the two matrices and
 * no graph traversal. decide() returns the verdict and the branch
 * count alone; solve() runs the same search and then builds the
 * labeled Graph once, by replaying the decided path.
 */

#ifndef R2U_UHB_UHB_HH
#define R2U_UHB_UHB_HH

#include <map>
#include <string>
#include <vector>

#include "uspec/uspec.hh"

namespace r2u::uhb
{

struct Microop
{
    int id = 0;
    int core = 0;
    int index = 0; ///< program-order index within its core
    bool isRead = false;
    bool isWrite = false;
    int addr = 0;
    int value = 0; ///< writes: stored; reads: observed (per execution)
    std::string label;
};

struct Execution
{
    std::vector<Microop> ops;
    /** Per-op rf source: writer op id, -1 for the initial value, -2
     *  when not a read. */
    std::vector<int> rf;
    /** Coherence order: addr -> write op ids, oldest first. */
    std::map<int, std::vector<int>> ws;
};

/** A µhb graph over (microop, location) nodes. */
class Graph
{
  public:
    Graph(size_t num_ops, size_t num_locs);

    int nodeOf(int op, int loc) const
    {
        return op * static_cast<int>(num_locs_) + loc;
    }

    /** Add an edge; returns false if it already existed. */
    bool addEdge(int op_a, int loc_a, int op_b, int loc_b,
                 const std::string &label = "");

    bool hasEdge(int op_a, int loc_a, int op_b, int loc_b) const;

    /** True iff the graph currently has a directed cycle. */
    bool cyclic() const;

    size_t numEdges() const { return edge_count_; }

    /** Nodes that participate in at least one edge. */
    std::vector<std::pair<int, int>> activeNodes() const;

    /**
     * Render in the Fig. 1b style: one column per microop, one row
     * per µhb location.
     */
    std::string toDot(const uspec::Model &model,
                      const std::vector<Microop> &ops,
                      const std::string &title) const;

  private:
    size_t num_ops_, num_locs_;
    std::vector<std::vector<int>> adj_;     ///< per node
    std::vector<std::vector<std::string>> labels_;
    size_t edge_count_ = 0;
};

/** The verdict of one search, without a witness. */
struct Verdict
{
    bool observable = false;
    int branchesExplored = 0;
};

struct SolveResult
{
    bool observable = false;
    /** Acyclic witness when observable; a cyclic instance otherwise. */
    Graph graph{0, 0};
    int branchesExplored = 0;
    size_t edges = 0;
};

/** A µhb edge between resolved nodes (op * numLocs + loc). */
struct NodeEdge
{
    int src = 0;
    int dst = 0;
    /** The edge's label, or the axiom's name; points into the model. */
    const std::string *label = nullptr;
};

/**
 * One fully-bound axiom instantiation whose execution-independent
 * antecedents already hold over a fixed microop list, with every
 * microop variable resolved: edges and EdgeExists antecedents are node
 * ids, rf-dependent antecedents are op-id pairs.
 */
struct AxiomInstance
{
    /** The consequent: one edge set, or two for EitherOrdering. */
    std::vector<std::vector<NodeEdge>> alternatives;
    /** EdgeExists antecedents: edges the graph must already have. */
    std::vector<NodeEdge> edgeConds;
    /**
     * SameData / NoWritesInBetween antecedents as (write, read) op
     * ids; each holds iff the execution's rf maps read to write. (The
     * table drops instances whose "read" is not a read: for them the
     * antecedent never holds.)
     */
    std::vector<std::pair<int, int>> rfConds;
};

/**
 * Per-(model, microop-list) axiom instantiation. Every candidate
 * execution of a litmus test shares the same microops, so the
 * O(num_ops^arity) binding enumeration, the filtering by predicates
 * that only read static microop fields (core, index, address,
 * read/write kind) and the resolution of variables to node and op ids
 * are done here, once per test instead of once per execution. The
 * table records the op and stage counts it resolved against; solve()
 * checks them. The model must outlive the table (edge labels point
 * into the model's axioms).
 */
class InstanceTable
{
  public:
    InstanceTable() = default;
    InstanceTable(const uspec::Model &model,
                  const std::vector<Microop> &ops);

    const std::vector<AxiomInstance> &instances() const
    {
        return instances_;
    }

    size_t numOps() const { return num_ops_; }
    size_t numLocs() const { return num_locs_; }

  private:
    std::vector<AxiomInstance> instances_;
    size_t num_ops_ = 0;
    size_t num_locs_ = 0;
};

/**
 * Decide whether @p exec is possible per @p model. The model's
 * memAccessStage (and memStage, if nonempty) name the µhb rows used
 * for rf/ws/fr orientation of memory events. Builds a fresh
 * InstanceTable per call; when solving many executions of the same
 * test, build the table once and use the overload below.
 *
 * The search visits EitherOrdering instances in table order and their
 * alternatives in model order, runs the EdgeExists fixpoint before
 * every cycle check and counts one branch per visited search node.
 * SolveResult::graph replays one path of that tree on a labeled Graph:
 * the accepted path when the execution is observable, otherwise the
 * path that takes the last alternative at every level, up to its
 * first cycle.
 */
SolveResult solve(const uspec::Model &model, const Execution &exec);

/**
 * Same, with the axiom instantiation precomputed. @p table must have
 * been built from @p model and @p exec.ops' microop list (same ids,
 * kinds, cores, indices and addresses); a table whose op or stage
 * count differs is a panic. Thread-safe for concurrent calls sharing
 * one table.
 */
SolveResult solve(const uspec::Model &model, const Execution &exec,
                  const InstanceTable &table);

/**
 * The verdict and branch count of the same search, without the witness
 * replay, for callers that read nothing else (the campaign's bucket
 * solves). Equal to solve()'s observable and branchesExplored; the
 * same table contract and thread safety.
 */
Verdict decide(const uspec::Model &model, const Execution &exec,
               const InstanceTable &table);

} // namespace r2u::uhb

#endif // R2U_UHB_UHB_HH
