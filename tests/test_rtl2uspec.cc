/**
 * @file
 * End-to-end tests of the rtl2uspec synthesis procedure on the
 * multi-V-scale: DFG extraction (checked edge for edge and DOT byte
 * for byte against a per-wire DFS reference on the V-scale and on
 * seeded random netlists) and stage labels, per-instruction node
 * membership (Fig. 3c), the synthesized µspec model's structure, its
 * round-trip through the DSL, MCM verification of the synthesized
 * model on litmus tests, and §6.1 bug discovery on the BUGGY variant.
 *
 * The synthesis run is shared across tests (it evaluates all SVAs once,
 * like the paper's one-time model synthesis).
 */

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "check/campaign.hh"
#include "common/dot.hh"
#include "common/logging.hh"
#include "dfg/dfg.hh"
#include "random_netlist.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "vscale/vscale.hh"

using namespace r2u;
using namespace r2u::rtl2uspec;

namespace
{

/**
 * Reference for FullDesignDfg::build's one-pass source rows: the state
 * elements feeding the combinational cone rooted at @p wire, by a DFS
 * of its own that stops at registers and memory reads (a read adds
 * its array and keeps walking its address).
 */
std::set<dfg::NodeId>
coneSources(const dfg::FullDesignDfg &d, nl::CellId wire)
{
    const nl::Netlist &n = d.netlist();
    std::set<dfg::NodeId> out;
    std::vector<nl::CellId> stack{wire};
    std::set<nl::CellId> seen;
    while (!stack.empty()) {
        nl::CellId id = stack.back();
        stack.pop_back();
        if (!seen.insert(id).second)
            continue;
        const nl::Cell &c = n.cell(id);
        switch (c.kind) {
          case nl::CellKind::Dff:
            out.insert(d.nodeOfReg(id));
            break;
          case nl::CellKind::MemRead:
            out.insert(d.nodeOfMem(c.mem));
            stack.push_back(c.inputs[0]); // the address cone
            break;
          case nl::CellKind::Const:
          case nl::CellKind::Input:
            break;
          default:
            for (nl::CellId in : c.inputs)
                stack.push_back(in);
            break;
        }
    }
    return out;
}

/** Every node's parents and children, from coneSources(). */
struct ReferenceEdges
{
    std::vector<std::vector<dfg::NodeId>> parents, children;
};

ReferenceEdges
referenceEdges(const dfg::FullDesignDfg &d)
{
    const nl::Netlist &n = d.netlist();
    ReferenceEdges ref;
    ref.parents.resize(d.numNodes());
    ref.children.resize(d.numNodes());
    for (size_t id = 0; id < d.numNodes(); id++) {
        const dfg::Node &node = d.node(static_cast<dfg::NodeId>(id));
        std::vector<nl::CellId> next_state;
        if (!node.isMem) {
            next_state = n.cell(node.reg).inputs;
        } else {
            for (nl::CellId port : n.memory(node.mem).writePorts)
                for (nl::CellId in : n.cell(port).inputs)
                    next_state.push_back(in);
        }
        std::set<dfg::NodeId> srcs;
        for (nl::CellId in : next_state) {
            std::set<dfg::NodeId> s = coneSources(d, in);
            srcs.insert(s.begin(), s.end());
        }
        for (dfg::NodeId p : srcs) {
            ref.parents[id].push_back(p);
            ref.children[p].push_back(node.id);
        }
    }
    return ref;
}

/** FullDesignDfg::toDot() over the reference edges. */
std::string
referenceDot(const dfg::FullDesignDfg &d, const ReferenceEdges &ref)
{
    DotWriter dot("full_design_dfg");
    for (size_t id = 0; id < d.numNodes(); id++) {
        const dfg::Node &node = d.node(static_cast<dfg::NodeId>(id));
        dot.addNode(node.name, node.name,
                    node.isMem ? "shape=box3d" : "shape=box");
    }
    for (size_t id = 0; id < d.numNodes(); id++)
        for (dfg::NodeId p : ref.parents[id])
            dot.addEdge(d.node(p).name,
                        d.node(static_cast<dfg::NodeId>(id)).name);
    return dot.render();
}

void
expectMatchesReference(const nl::Netlist &n)
{
    dfg::FullDesignDfg d = dfg::FullDesignDfg::build(n);
    ReferenceEdges ref = referenceEdges(d);
    size_t edges = 0;
    for (size_t id = 0; id < d.numNodes(); id++) {
        dfg::NodeId node = static_cast<dfg::NodeId>(id);
        EXPECT_EQ(d.parents(node), ref.parents[id]) << d.node(node).name;
        EXPECT_EQ(d.children(node), ref.children[id])
            << d.node(node).name;
        edges += ref.parents[id].size();
    }
    EXPECT_GT(edges, 0u);
    EXPECT_EQ(d.toDot(), referenceDot(d, ref));
}

vscale::Config
formalConfig()
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16; // keeps per-SVA CNFs small
    return cfg;
}

const SynthesisResult &
sharedSynthesis()
{
    static SynthesisResult result = [] {
        auto design = vscale::elaborateVscale(formalConfig());
        auto md = rtl2uspec::loadMetadata(vscale::metaPath());
        return synthesize(design, md);
    }();
    return result;
}

} // namespace

TEST(Dfg, VscaleStageLabels)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto d = dfg::FullDesignDfg::build(*design.netlist);
    dfg::NodeId im_pc = d.nodeByName("core_0.PC_IF");
    dfg::NodeId ifr = d.nodeByName("core_0.inst_DX");
    ASSERT_NE(im_pc, dfg::kNoNode);
    ASSERT_NE(ifr, dfg::kNoNode);

    auto labels = dfg::labelStages(d, im_pc, ifr);
    EXPECT_EQ(labels.stage[ifr], 0);
    EXPECT_EQ(labels.stage[d.nodeByName("core_0.PC_DX")], 0);
    EXPECT_EQ(labels.stage[d.nodeByName("core_0.PC_WB")], 1);
    EXPECT_EQ(labels.stage[d.nodeByName("core_0.wdata_WB")], 1);
    EXPECT_EQ(labels.stage[d.nodeByName("core_0.regfile")], 2);
    EXPECT_EQ(labels.stage[d.nodeByName("dmem.mem")], 2);
    // Front-end filtering: IM_PC itself is stage -1... it is the BFS
    // root, stage -(distance of IFR) -> filtered.
    EXPECT_FALSE(labels.included(im_pc));
    // Instruction memories are unreachable from IM_PC (never written).
    EXPECT_FALSE(labels.included(d.nodeByName("imem_0.mem")));
}

TEST(Dfg, VscaleParentEdges)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto d = dfg::FullDesignDfg::build(*design.netlist);
    auto has_parent = [&](const char *node, const char *parent) {
        dfg::NodeId n = d.nodeByName(node);
        dfg::NodeId p = d.nodeByName(parent);
        EXPECT_NE(n, dfg::kNoNode) << node;
        EXPECT_NE(p, dfg::kNoNode) << parent;
        for (dfg::NodeId q : d.parents(n))
            if (q == p)
                return true;
        return false;
    };
    EXPECT_TRUE(has_parent("core_0.inst_DX", "core_0.PC_IF"));
    EXPECT_TRUE(has_parent("core_0.inst_DX", "imem_0.mem"));
    EXPECT_TRUE(has_parent("core_0.wdata_WB", "core_0.inst_DX"));
    EXPECT_TRUE(has_parent("core_0.regfile", "core_0.alu_out_WB"));
    EXPECT_TRUE(has_parent("core_0.regfile", "dmem.mem"));
    EXPECT_TRUE(has_parent("dmem.mem", "dmem.req_wdata_q"));
    EXPECT_TRUE(has_parent("dmem.req_wdata_q", "core_0.inst_DX"));
    // Core 1's fetch path is disjoint from core 0's.
    EXPECT_FALSE(has_parent("core_0.inst_DX", "imem_1.mem"));
    EXPECT_FALSE(has_parent("core_0.inst_DX", "core_1.regfile"));
}

TEST(Dfg, OnePassBuildMatchesPerWireDfsOnVscale)
{
    auto design = vscale::elaborateVscale(formalConfig());
    expectMatchesReference(*design.netlist);
}

TEST(Dfg, OnePassBuildMatchesPerWireDfsOnRandomNetlists)
{
    for (unsigned seed = 1; seed <= 40; seed++) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937 rng(seed);
        test::RandomDesign d = test::makeRandom(rng);
        expectMatchesReference(d.netlist);
    }
}

// build() walks Netlist::topoOrder(), so a combinational loop is a
// user error during static analysis, with the netlist's own message.
TEST(Dfg, CombinationalCycleFailsStaticAnalysis)
{
    nl::Netlist n;
    nl::CellId in = n.addInput("in", 1);
    nl::CellId a = n.addBinary(nl::CellKind::And, in, in, "loop_a");
    nl::CellId b = n.addUnary(nl::CellKind::Not, a, "loop_b");
    n.cell(a).inputs[1] = b; // a = in & ~a
    n.addDff("r", a, n.addConst(Bits(1, 1)), Bits(1, 0));
    try {
        dfg::FullDesignDfg::build(n);
        FAIL() << "a combinational cycle built a DFG";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "combinational cycle through cell"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Rtl2uspec, AllSvasResolvedAndNoBugsOnFixedDesign)
{
    const SynthesisResult &r = sharedSynthesis();
    EXPECT_TRUE(r.bugs.empty()) << r.bugs[0];
    int unknown = 0;
    for (const auto &sva : r.svas) {
        EXPECT_NE(sva.verdict, bmc::Verdict::Unknown) << sva.name;
        unknown += sva.verdict == bmc::Verdict::Unknown;
    }
    EXPECT_EQ(unknown, 0) << "100% proof coverage expected (§1)";
    EXPECT_GT(r.svas.size(), 25u);
    EXPECT_GT(r.proofSeconds, 0.0);
}

TEST(Rtl2uspec, MembershipMatchesFig3c)
{
    const SynthesisResult &r = sharedSynthesis();
    auto has = [&](const char *instr, const char *elem) {
        const auto &nodes = r.instrNodes.at(instr);
        for (const auto &n : nodes)
            if (n == elem)
                return true;
        return false;
    };
    // Both lw and sw update the IFR, the WB staging registers
    // (including wdata, per Fig. 3c), and the request interface.
    for (const char *op : {"lw", "sw"}) {
        EXPECT_TRUE(has(op, "core_0.inst_DX")) << op;
        EXPECT_TRUE(has(op, "core_0.wdata_WB")) << op;
        EXPECT_TRUE(has(op, "core_0.lw_in_WB")) << op;
        EXPECT_TRUE(has(op, "core_0.sw_in_WB")) << op;
        EXPECT_TRUE(has(op, "core_0.alu_out_WB")) << op;
        EXPECT_TRUE(has(op, "dmem.req_wdata_q")) << op;
    }
    // Only lw updates the regfile; only sw updates the memory.
    EXPECT_TRUE(has("lw", "core_0.regfile"));
    EXPECT_FALSE(has("sw", "core_0.regfile"));
    EXPECT_TRUE(has("sw", "dmem.mem"));
    EXPECT_FALSE(has("lw", "dmem.mem"));
}

TEST(Rtl2uspec, ModelStructure)
{
    const SynthesisResult &r = sharedSynthesis();
    const uspec::Model &m = r.model;
    EXPECT_GE(m.stageNames.size(), 5u);
    EXPECT_EQ(m.stageNames[0], "IF_");
    EXPECT_EQ(m.memAccessStage, "mem_if");
    EXPECT_EQ(m.memStage, "dmem_mem");

    auto find_axiom = [&](const std::string &name) -> const uspec::Axiom * {
        for (const auto &ax : m.axioms)
            if (ax.name == name)
                return &ax;
        return nullptr;
    };
    ASSERT_NE(find_axiom("sw_path"), nullptr);
    ASSERT_NE(find_axiom("lw_path"), nullptr);
    ASSERT_NE(find_axiom("PO_fetch"), nullptr);
    ASSERT_NE(find_axiom("PO_mem_if"), nullptr);
    ASSERT_NE(find_axiom("Dataflow_mem"), nullptr);
    ASSERT_NE(find_axiom("Access_serialized"), nullptr);
    EXPECT_TRUE(find_axiom("Access_serialized")->isEitherOrdering());

    // lw path must route IF_ -> ... -> regfile through the interface.
    const uspec::Axiom *lw = find_axiom("lw_path");
    int regfile_row = m.locOf("regfile");
    ASSERT_GE(regfile_row, 0);
    bool lands_in_regfile = false;
    for (const auto &e : lw->edgeAlternatives[0])
        lands_in_regfile |= e.dst.loc == regfile_row;
    EXPECT_TRUE(lands_in_regfile);
}

TEST(Rtl2uspec, ModelRoundTripsThroughDsl)
{
    const SynthesisResult &r = sharedSynthesis();
    std::string printed = r.model.print();
    uspec::Model parsed = uspec::Model::parse(printed);
    EXPECT_EQ(parsed.print(), printed);
    EXPECT_EQ(parsed.axioms.size(), r.model.axioms.size());
}

TEST(Rtl2uspec, ReportMentionsAllCategories)
{
    const SynthesisResult &r = sharedSynthesis();
    std::string report = r.report();
    for (const char *cat : {"intra", "spatial", "temporal", "dataflow"})
        EXPECT_NE(report.find(cat), std::string::npos) << cat;
    EXPECT_FALSE(r.fullDfgDot.empty());
    EXPECT_FALSE(r.instrDfgDots.at("lw").empty());
}

TEST(Rtl2uspec, SynthesizedModelVerifiesCoreLitmusTests)
{
    const SynthesisResult &r = sharedSynthesis();
    auto suite = litmus::standardSuite();
    // The full 56-test suite: milliseconds per test on the model.
    for (size_t i = 0; i < suite.size(); i++) {
        auto res = check::checkTest(r.model, suite[i]);
        EXPECT_TRUE(res.pass) << res.summary();
        EXPECT_FALSE(res.interestingObservable) << res.summary();
        EXPECT_TRUE(res.tight)
            << "over-restrictive model: " << res.summary();
    }
}

TEST(Rtl2uspec, BuggyDesignTriggersBugDiscovery)
{
    vscale::Config cfg = formalConfig();
    cfg.buggy = true;
    auto design = vscale::elaborateVscale(cfg);
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());
    md.bound = 6; // the bug shows up within a few cycles
    SynthesisResult r = synthesize(design, md);
    ASSERT_FALSE(r.bugs.empty());
    EXPECT_NE(r.bugs[0].find("§6.1"), std::string::npos);
    // The counterexample trace shows the offending encoding.
    EXPECT_NE(r.bugs[0].find("inst_DX"), std::string::npos);
}

#ifdef R2U_SOURCE_DIR
#include "common/strutil.hh"

TEST(Rtl2Uspec, NoVerdictConsumerTreatsUnknownAsDefinite)
{
    // Grep-proof audit of the Unknown-degradation policy: every
    // mention of a Verdict constant in synthesis.cc must be a `case`
    // label of an enum-exhaustive switch. Boolean comparisons like
    // `verdict != Verdict::Refuted` are how Unknown used to silently
    // flip to Proven (and `!= Proven` to Refuted); a switch forces the
    // author to say what Unknown means at every consumer.
    std::string src =
        readFile(std::string(R2U_SOURCE_DIR) +
                 "/src/rtl2uspec/synthesis.cc");
    ASSERT_FALSE(src.empty());

    size_t line_no = 0, mentions = 0, pos = 0;
    while (pos <= src.size()) {
        size_t eol = src.find('\n', pos);
        if (eol == std::string::npos)
            eol = src.size();
        std::string line = src.substr(pos, eol - pos);
        line_no++;
        for (const char *name :
             {"Verdict::Proven", "Verdict::Refuted",
              "Verdict::Unknown"}) {
            if (line.find(name) == std::string::npos)
                continue;
            mentions++;
            EXPECT_NE(line.find("case "), std::string::npos)
                << "synthesis.cc:" << line_no
                << " consumes a Verdict outside a switch: " << line;
        }
        pos = eol + 1;
    }
    // The audit only means something if the file still names verdicts.
    EXPECT_GT(mentions, 0u);
}
#endif // R2U_SOURCE_DIR
