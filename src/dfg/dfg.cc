#include "dfg/dfg.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>

#include "common/dot.hh"
#include "common/logging.hh"

namespace r2u::dfg
{

using nl::CellId;
using nl::CellKind;

FullDesignDfg
FullDesignDfg::build(const nl::Netlist &netlist)
{
    FullDesignDfg dfg;
    dfg.nl_ = &netlist;

    // Create nodes for every register and memory.
    for (CellId reg : netlist.dffs()) {
        Node n;
        n.id = static_cast<NodeId>(dfg.nodes_.size());
        n.isMem = false;
        n.reg = reg;
        n.name = netlist.cell(reg).name;
        dfg.by_reg_[reg] = n.id;
        dfg.nodes_.push_back(std::move(n));
    }
    for (size_t m = 0; m < netlist.numMemories(); m++) {
        Node n;
        n.id = static_cast<NodeId>(dfg.nodes_.size());
        n.isMem = true;
        n.mem = static_cast<nl::MemId>(m);
        n.name = netlist.memory(static_cast<nl::MemId>(m)).name;
        dfg.by_mem_[n.mem] = n.id;
        dfg.nodes_.push_back(std::move(n));
    }

    dfg.parents_.resize(dfg.nodes_.size());
    dfg.children_.resize(dfg.nodes_.size());

    // The state sources of every wire, as a bit row over node ids,
    // filled in one pass over the combinational cells in topological
    // order: a register's row is its own node, a memory read adds its
    // array to its address's sources, and any other combinational
    // cell takes the union of its inputs' rows. Constants and inputs
    // keep empty rows.
    const size_t words = (dfg.nodes_.size() + 63) / 64;
    std::vector<uint64_t> rows(netlist.numCells() * words, 0);
    auto row = [&](CellId c) { return rows.data() + c * words; };
    auto setBit = [](uint64_t *r, NodeId n) {
        r[n / 64] |= uint64_t{1} << (n % 64);
    };
    auto orRow = [&](uint64_t *dst, CellId src) {
        const uint64_t *r = row(src);
        for (size_t w = 0; w < words; w++)
            dst[w] |= r[w];
    };
    for (const Node &n : dfg.nodes_)
        if (!n.isMem)
            setBit(row(n.reg), n.id);
    for (CellId id : netlist.topoOrder()) {
        const nl::Cell &c = netlist.cell(id);
        if (c.kind == CellKind::MemRead) {
            setBit(row(id), dfg.by_mem_.at(c.mem));
            orRow(row(id), c.inputs[0]); // the address cone
        } else {
            for (CellId in : c.inputs)
                orRow(row(id), in);
        }
    }

    // A node's parents are the sources of its next-state inputs: a
    // register's D and EN, every input of an array's write ports.
    // Ascending node ids, as the DOT output expects.
    std::vector<uint64_t> srcs(words);
    for (const Node &n : dfg.nodes_) {
        std::fill(srcs.begin(), srcs.end(), 0);
        if (!n.isMem) {
            for (CellId in : netlist.cell(n.reg).inputs)
                orRow(srcs.data(), in);
        } else {
            for (CellId port : netlist.memory(n.mem).writePorts)
                for (CellId in : netlist.cell(port).inputs)
                    orRow(srcs.data(), in);
        }
        for (size_t w = 0; w < words; w++) {
            for (uint64_t bits = srcs[w]; bits; bits &= bits - 1) {
                NodeId p = static_cast<NodeId>(
                    w * 64 + static_cast<size_t>(std::countr_zero(bits)));
                dfg.parents_[n.id].push_back(p);
                dfg.children_[p].push_back(n.id);
            }
        }
    }
    return dfg;
}

NodeId
FullDesignDfg::nodeOfReg(CellId reg) const
{
    auto it = by_reg_.find(reg);
    return it == by_reg_.end() ? kNoNode : it->second;
}

NodeId
FullDesignDfg::nodeOfMem(nl::MemId mem) const
{
    auto it = by_mem_.find(mem);
    return it == by_mem_.end() ? kNoNode : it->second;
}

NodeId
FullDesignDfg::nodeByName(const std::string &name) const
{
    for (const Node &n : nodes_)
        if (n.name == name)
            return n.id;
    return kNoNode;
}

const std::vector<NodeId> &
FullDesignDfg::parents(NodeId id) const
{
    return parents_[id];
}

const std::vector<NodeId> &
FullDesignDfg::children(NodeId id) const
{
    return children_[id];
}

std::vector<int>
FullDesignDfg::distancesFrom(NodeId from) const
{
    std::vector<int> dist(nodes_.size(), -1);
    std::deque<NodeId> queue;
    dist[from] = 0;
    queue.push_back(from);
    while (!queue.empty()) {
        NodeId n = queue.front();
        queue.pop_front();
        for (NodeId c : children_[n]) {
            if (c == n)
                continue; // ignore self-loops (hold paths)
            if (dist[c] < 0) {
                dist[c] = dist[n] + 1;
                queue.push_back(c);
            }
        }
    }
    return dist;
}

std::string
FullDesignDfg::toDot() const
{
    DotWriter dot("full_design_dfg");
    for (const Node &n : nodes_) {
        dot.addNode(n.name, n.name,
                    n.isMem ? "shape=box3d" : "shape=box");
    }
    for (const Node &n : nodes_)
        for (NodeId p : parents_[n.id])
            dot.addEdge(nodes_[p].name, n.name);
    return dot.render();
}

StageLabels
labelStages(const FullDesignDfg &dfg, NodeId im_pc, NodeId ifr)
{
    R2U_ASSERT(im_pc != kNoNode && ifr != kNoNode,
               "stage labeling needs IM_PC and IFR nodes");
    std::vector<int> dist = dfg.distancesFrom(im_pc);
    int ifr_dist = dist[ifr];
    if (ifr_dist < 0)
        fatal("IFR '%s' is not reachable from IM_PC '%s' in the DFG",
              dfg.node(ifr).name.c_str(), dfg.node(im_pc).name.c_str());

    StageLabels labels;
    labels.stage.assign(dfg.numNodes(), -1);
    for (size_t n = 0; n < dfg.numNodes(); n++) {
        if (dist[n] < 0 || dist[n] < ifr_dist)
            continue; // front-end filtering (§4.2.2)
        labels.stage[n] = dist[n] - ifr_dist;
        labels.maxStage = std::max(labels.maxStage, labels.stage[n]);
    }
    return labels;
}

InstrDfg
buildInstrDfg(const FullDesignDfg &dfg, const std::string &instr,
              NodeId ifr, const std::set<NodeId> &updated)
{
    InstrDfg out;
    out.instr = instr;
    out.ifr = ifr;

    // Keep updated nodes reachable from the IFR within the updated set
    // (the IFR is the primary root, §4.2.3).
    std::vector<NodeId> stack{ifr};
    out.nodes.insert(ifr);
    while (!stack.empty()) {
        NodeId n = stack.back();
        stack.pop_back();
        for (NodeId c : dfg.children(n)) {
            if (c == n || !updated.count(c) || out.nodes.count(c))
                continue;
            out.nodes.insert(c);
            stack.push_back(c);
        }
    }

    // Reserved parent nodes: immediate DFG parents of members that are
    // not themselves members (e.g. regfile, mem — §4.2.3).
    for (NodeId n : out.nodes) {
        for (NodeId p : dfg.parents(n)) {
            if (p != n && !out.nodes.count(p))
                out.parents.insert(p);
        }
    }

    // Edges restricted to kept nodes (member->member and
    // parent->member).
    for (NodeId n : out.nodes) {
        for (NodeId p : dfg.parents(n)) {
            if (p == n)
                continue;
            if (out.nodes.count(p) || out.parents.count(p))
                out.edges.emplace_back(p, n);
        }
    }
    std::sort(out.edges.begin(), out.edges.end());
    return out;
}

std::string
instrDfgToDot(const FullDesignDfg &dfg, const InstrDfg &idfg)
{
    DotWriter dot("dfg_" + idfg.instr);
    for (NodeId n : idfg.nodes) {
        std::string attrs = "shape=box";
        if (n == idfg.ifr)
            attrs += ", style=bold";
        dot.addNode(dfg.node(n).name, dfg.node(n).name, attrs);
    }
    for (NodeId p : idfg.parents)
        dot.addNode(dfg.node(p).name, dfg.node(p).name,
                    "shape=box, style=dashed");
    for (const auto &[a, b] : idfg.edges)
        dot.addEdge(dfg.node(a).name, dfg.node(b).name);
    return dot.render();
}

} // namespace r2u::dfg
