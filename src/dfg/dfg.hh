/**
 * @file
 * Full-design data-flow graphs over state elements (paper §4.1).
 *
 * Nodes are the design's state elements — individual registers ($dff
 * cells) and memory arrays. A directed edge A -> B means B's next
 * state (register D/EN cone, or a memory write port's address, data,
 * or enable cone) reads A through pure combinational logic; all
 * combinational cells are collapsed out. Memory reads contribute two
 * kinds of parents: the memory array itself and everything feeding the
 * read address. build() finds every wire's state sources in one pass
 * over Netlist::topoOrder(), as a bit row over node ids, so a
 * combinational cycle is a fatal() here, during static analysis.
 *
 * The module also implements the paper's stage labeling (§4.2.2):
 * BFS distance from the IM_PC register, front-end filtering of nodes
 * that precede the IFR, and renumbering so the IFR's stage is 0; and
 * per-instruction DFG extraction (§4.2.3) given the proven
 * always-updated node set.
 */

#ifndef R2U_DFG_DFG_HH
#define R2U_DFG_DFG_HH

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hh"

namespace r2u::dfg
{

using NodeId = int;
constexpr NodeId kNoNode = -1;

struct Node
{
    NodeId id = kNoNode;
    bool isMem = false;
    nl::CellId reg = nl::kNoCell; ///< valid when !isMem
    nl::MemId mem = -1;           ///< valid when isMem
    std::string name;
};

class FullDesignDfg
{
  public:
    /**
     * Extract the full-design DFG from a netlist. Every node's parents
     * (and every node's children) are in ascending node id order.
     */
    static FullDesignDfg build(const nl::Netlist &netlist);

    const nl::Netlist &netlist() const { return *nl_; }

    size_t numNodes() const { return nodes_.size(); }
    const Node &node(NodeId id) const { return nodes_[id]; }

    NodeId nodeOfReg(nl::CellId reg) const;
    NodeId nodeOfMem(nl::MemId mem) const;
    NodeId nodeByName(const std::string &name) const;

    /** Parents of a node (state it reads); no duplicates, may include
     *  the node itself for hold/feedback paths. */
    const std::vector<NodeId> &parents(NodeId id) const;
    const std::vector<NodeId> &children(NodeId id) const;

    /**
     * Shortest distance (in DFG edges) from @p from to every node,
     * ignoring self-loops; -1 if unreachable. Used for stage labels.
     */
    std::vector<int> distancesFrom(NodeId from) const;

    std::string toDot() const;

  private:
    const nl::Netlist *nl_ = nullptr;
    std::vector<Node> nodes_;
    std::vector<std::vector<NodeId>> parents_;
    std::vector<std::vector<NodeId>> children_;
    std::unordered_map<nl::CellId, NodeId> by_reg_;
    std::unordered_map<nl::MemId, NodeId> by_mem_;
};

/** Result of §4.2.2 stage labeling. */
struct StageLabels
{
    /**
     * Per-node stage relative to the IFR (IFR = 0); -1 for nodes that
     * are filtered out (unreachable from IM_PC or ahead of the IFR).
     */
    std::vector<int> stage;

    int maxStage = 0;

    bool included(NodeId n) const { return stage[n] >= 0; }
};

/**
 * Label every DFG node with its pipeline stage: BFS distance from
 * @p im_pc, keeping the shortest distance on cycles, filtering nodes
 * closer to IM_PC than the IFR, renumbering so stage(IFR) == 0.
 */
StageLabels labelStages(const FullDesignDfg &dfg, NodeId im_pc,
                        NodeId ifr);

/** Per-instruction specialized DFG (§4.2.3). */
struct InstrDfg
{
    std::string instr; ///< instruction type name ("lw", "sw")
    NodeId ifr = kNoNode;
    /** Nodes proven always-updated during execution (includes IFR). */
    std::set<NodeId> nodes;
    /** Reserved parent nodes (§4.2.3): immediate parents of members. */
    std::set<NodeId> parents;
    /** DFG edges restricted to member/parent nodes. */
    std::vector<std::pair<NodeId, NodeId>> edges;
};

/**
 * Extract an instruction-specific DFG: keep @p updated nodes that are
 * reachable from the IFR inside the updated set, add immediate parent
 * nodes, and retain edges relating the kept nodes.
 */
InstrDfg buildInstrDfg(const FullDesignDfg &dfg, const std::string &instr,
                       NodeId ifr, const std::set<NodeId> &updated);

std::string instrDfgToDot(const FullDesignDfg &dfg, const InstrDfg &idfg);

} // namespace r2u::dfg

#endif // R2U_DFG_DFG_HH
