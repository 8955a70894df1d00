/**
 * @file
 * Three-way co-simulation validation: every litmus test in the suite
 * is executed on the multi-V-scale RTL (cycle-accurate simulation)
 * under several start-skew combinations, and each hardware outcome
 * must be (a) allowed by the operational SC reference and (b)
 * observable per the rtl2uspec-synthesized µspec model. This closes
 * the loop hardware -> axiomatic model -> MCM in both directions the
 * paper relies on.
 */

#include <gtest/gtest.h>

#include <set>

#include "check/check.hh"
#include "isa/isa.hh"
#include "litmus/litmus.hh"
#include "mcm/sc_ref.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "vscale/vscale.hh"

using namespace r2u;

namespace
{

vscale::Config
cfg()
{
    vscale::Config c = vscale::Config::formal();
    c.imemWords = 16;
    return c;
}

const uspec::Model &
synthesizedModel()
{
    static uspec::Model model = [] {
        auto design = vscale::elaborateVscale(cfg());
        auto md = rtl2uspec::loadMetadata(vscale::metaPath());
        return rtl2uspec::synthesize(design, md).model;
    }();
    return model;
}

/** Run a litmus test on the RTL with per-core start skews. */
mcm::Outcome
runOnRtl(vscale::Harness &h, const litmus::Test &test,
         const std::vector<unsigned> &skews)
{
    h.sim().reset();
    auto locs = test.locations();
    for (unsigned c = 0; c < vscale::kNumCores; c++) {
        std::string prog;
        unsigned skew =
            c < skews.size() ? skews[c] : 0;
        for (unsigned k = 0; k < skew; k++)
            prog += "nop\n";
        if (c < test.threads.size())
            prog += test.threadAssembly(c);
        h.loadProgram(c, prog);
    }
    h.resetAndRun(250);
    for (unsigned c = 0;
         c < test.threads.size() && c < vscale::kNumCores; c++)
        EXPECT_TRUE(h.coreSpinning(c)) << test.name << " core " << c;

    mcm::Outcome out;
    auto read_regs = test.readRegs();
    for (size_t t = 0; t < test.threads.size(); t++) {
        for (int reg : read_regs[t]) {
            out.regs[{static_cast<int>(t), reg}] = static_cast<int>(
                h.reg(static_cast<unsigned>(t),
                      static_cast<unsigned>(reg)));
        }
    }
    for (size_t l = 0; l < locs.size(); l++)
        out.mem[locs[l]] =
            static_cast<int>(h.dataWord(static_cast<unsigned>(l)));
    return out;
}

/** Observable-per-model outcomes of a test. */
std::set<mcm::Outcome>
modelObservable(const litmus::Test &test)
{
    std::set<mcm::Outcome> out;
    auto locs = test.locations();
    check::forEachExecution(test, [&](const uhb::Execution &exec) {
        auto sr = uhb::solve(synthesizedModel(), exec);
        if (!sr.observable)
            return;
        mcm::Outcome o;
        size_t id = 0;
        for (size_t t = 0; t < test.threads.size(); t++) {
            for (const litmus::Access &a : test.threads[t].ops) {
                if (!a.isWrite)
                    o.regs[{static_cast<int>(t), a.reg}] =
                        exec.ops[id].value;
                id++;
            }
        }
        for (const std::string &loc : locs)
            o.mem[loc] = 0;
        for (const auto &[addr, order] : exec.ws) {
            if (!order.empty())
                o.mem[locs[static_cast<size_t>(addr) / 4]] =
                    exec.ops[order.back()].value;
        }
        out.insert(std::move(o));
    });
    return out;
}

} // namespace

class CosimTest : public ::testing::TestWithParam<int>
{
};

TEST_P(CosimTest, RtlOutcomeIsScAllowedAndModelObservable)
{
    auto suite = litmus::standardSuite();
    const litmus::Test &test = suite[static_cast<size_t>(GetParam())];
    if (test.threads.size() > vscale::kNumCores)
        GTEST_SKIP() << "more threads than cores";

    static vscale::Harness harness(cfg());
    std::set<mcm::Outcome> sc = mcm::enumerateSC(test);
    std::set<mcm::Outcome> observable = modelObservable(test);

    // A handful of skew patterns to vary the interleaving.
    std::vector<std::vector<unsigned>> skew_sets = {
        {0, 0, 0, 0}, {0, 3, 1, 2}, {4, 0, 2, 1}, {2, 2, 0, 5},
        {6, 1, 3, 0},
    };
    for (const auto &skews : skew_sets) {
        mcm::Outcome hw = runOnRtl(harness, test, skews);
        EXPECT_TRUE(sc.count(hw))
            << test.name << ": hardware outcome " << hw.toString()
            << " is not SC-allowed";
        EXPECT_TRUE(observable.count(hw))
            << test.name << ": hardware outcome " << hw.toString()
            << " is not observable per the synthesized model "
               "(model too strong)";
        // And the hardware must never exhibit the probed outcome.
        EXPECT_FALSE(hw.satisfies(test.interesting))
            << test.name << ": forbidden outcome on hardware!";
    }
}

INSTANTIATE_TEST_SUITE_P(Suite, CosimTest, ::testing::Range(0, 20));
