/**
 * @file
 * Tests for the IC3/PDR unbounded proof backend and the engine's PDR
 * pre-pass (--engine race): verdict identity with BMC at the same
 * bound on toy FSMs and random netlists (including known-reachable
 * bugs), unbounded convergence on inductive properties, pre-pass
 * verdict attribution, fall-through to BMC with a trace that replays
 * through bmc::validate, and race-vs-bmc synthesis identity on the
 * multi-V-scale.
 */

#include <gtest/gtest.h>

#include <random>

#include "bmc/engine.hh"
#include "bmc/pdr.hh"
#include "bmc/validate.hh"
#include "random_netlist.hh"
#include "rtl2uspec/metadata_io.hh"
#include "rtl2uspec/synthesis.hh"
#include "verilog/elaborate.hh"
#include "verilog/parser.hh"
#include "vscale/vscale.hh"

using namespace r2u;
using namespace r2u::bmc;
using sat::Lit;
using r2u::test::RandomDesign;
using r2u::test::makeRandom;

namespace
{

vlog::ElabResult
elab(const std::string &src, const std::string &top)
{
    vlog::Design d = vlog::parseString(src, "test.v");
    vlog::ElabOptions opts;
    opts.top = top;
    return vlog::elaborate(d, opts);
}

const char *kCounter = R"(
    module top (input clk, input en, output wire [3:0] out);
        reg [3:0] q;
        always @(posedge clk) begin
            if (en)
                q <= q + 4'd1;
        end
        assign out = q;
    endmodule
)";

/** q starts 0 and can only ever stay 0: q == 1 is unreachable at
 *  every bound — the minimal unbounded-proof fixture. */
const char *kStickyZero = R"(
    module top (input clk, input d, output wire out);
        reg q;
        always @(posedge clk) begin
            q <= q & d;
        end
        assign out = q;
    endmodule
)";

/** checkProperty with the OR-of-frames form of a frame-local prop —
 *  the exact BMC property the PDR verdict must match. */
CheckResult
bmcOverFrames(const vlog::ElabResult &r, unsigned bound,
              const FramePropertyFn &frame_prop,
              Unroller::Options options = {})
{
    return checkProperty(*r.netlist, r.signalMap, std::move(options),
                         bound, [&](PropCtx &ctx) {
                             Lit bad = ctx.cnf().falseLit();
                             for (unsigned f = 0; f < bound; f++)
                                 bad = ctx.cnf().mkOr(
                                     bad, frame_prop(ctx, f));
                             return bad;
                         });
}

PdrResult
pdrAt(const vlog::ElabResult &r, unsigned bound,
      const FramePropertyFn &frame_prop, Unroller::Options options = {})
{
    PdrOptions popts;
    popts.bound = bound;
    return checkPdr(*r.netlist, r.signalMap, std::move(options), {},
                    frame_prop, popts);
}

/** Unroll options holding kCounter's `en` at @p value in every
 *  frame. */
Unroller::Options
holdEn(const vlog::ElabResult &r, uint64_t value)
{
    Unroller::Options options;
    options.heldInputs[r.signalMap.at("en")] = Bits(1, value);
    return options;
}

} // namespace

TEST(Pdr, CounterIdentityWithBmcAcrossBounds)
{
    auto r = elab(kCounter, "top");
    // bad: q == 5 at some frame. Shortest reach is 5 steps (en free),
    // so bounds 1..5 prove and bounds >= 6 refute at frame 5.
    FramePropertyFn bad5 = [](PropCtx &ctx, unsigned f) {
        return ctx.eqConst(f, "q", 5);
    };
    for (unsigned bound = 1; bound <= 8; bound++) {
        CheckResult bmc = bmcOverFrames(r, bound, bad5);
        PdrResult pdr = pdrAt(r, bound, bad5);
        EXPECT_EQ(pdr.verdict, bmc.verdict) << "bound " << bound;
        if (bound <= 5)
            EXPECT_EQ(bmc.verdict, Verdict::Proven) << bound;
        else
            EXPECT_EQ(bmc.verdict, Verdict::Refuted) << bound;
        if (pdr.verdict == Verdict::Refuted) {
            EXPECT_EQ(pdr.cexFrame, 5u) << "bound " << bound;
        }
        // A wrapping counter reaches every value: no proof here is
        // ever unbounded.
        EXPECT_FALSE(pdr.unbounded) << "bound " << bound;
    }
}

TEST(Pdr, StickyZeroConvergesUnbounded)
{
    auto r = elab(kStickyZero, "top");
    FramePropertyFn bad = [](PropCtx &ctx, unsigned f) {
        return ctx.eqConst(f, "q", 1);
    };
    PdrResult pdr = pdrAt(r, /*bound=*/4, bad);
    EXPECT_EQ(pdr.verdict, Verdict::Proven);
    EXPECT_TRUE(pdr.unbounded); // frame convergence, not bound
    EXPECT_GT(pdr.clausesLearned, 0u);
    EXPECT_EQ(bmcOverFrames(r, 4, bad).verdict, Verdict::Proven);
}

TEST(Pdr, KnownReachableBugIsRefutedAtItsDepth)
{
    auto r = elab(kCounter, "top");
    // en high at every frame makes q == 3 reachable at exactly frame
    // 3 and unavoidable there: pinned by the property as a
    // frame-local environment, or held by the unroll options.
    FramePropertyFn pinned = [](PropCtx &ctx, unsigned f) {
        if (f == 0)
            ctx.pinInput("en", 1);
        return ctx.eqConst(f, "q", 3);
    };
    FramePropertyFn bad = [](PropCtx &ctx, unsigned f) {
        return ctx.eqConst(f, "q", 3);
    };
    for (bool held : {false, true}) {
        const FramePropertyFn &prop = held ? bad : pinned;
        Unroller::Options options =
            held ? holdEn(r, 1) : Unroller::Options{};
        CheckResult bmc = bmcOverFrames(r, 6, prop, options);
        PdrResult pdr = pdrAt(r, 6, prop, options);
        EXPECT_EQ(bmc.verdict, Verdict::Refuted) << "held " << held;
        EXPECT_EQ(pdr.verdict, Verdict::Refuted) << "held " << held;
        EXPECT_EQ(pdr.cexFrame, 3u) << "held " << held;
    }
}

/**
 * PDR's transition relation keeps the inputs the unroll options hold:
 * with en held low the counter never leaves 0, so q == 3 is
 * unreachable at every bound. With en free it is reachable, so a PDR
 * that dropped held inputs would refute here.
 */
TEST(Pdr, HeldInputReachesTheTransitionRelation)
{
    auto r = elab(kCounter, "top");
    FramePropertyFn bad = [](PropCtx &ctx, unsigned f) {
        return ctx.eqConst(f, "q", 3);
    };
    ASSERT_EQ(bmcOverFrames(r, 6, bad).verdict, Verdict::Refuted);
    ASSERT_EQ(pdrAt(r, 6, bad).verdict, Verdict::Refuted);

    PdrResult pdr = pdrAt(r, 6, bad, holdEn(r, 0));
    EXPECT_EQ(pdr.verdict, Verdict::Proven);
    EXPECT_TRUE(pdr.unbounded);
    EXPECT_EQ(bmcOverFrames(r, 6, bad, holdEn(r, 0)).verdict,
              Verdict::Proven);
}

/**
 * Generalization soundness on random netlists: for arbitrary
 * frame-local reachability properties over probe wires, the PDR
 * verdict at a bound must equal BMC's at the same bound — clause
 * generalization (literal dropping under the frame) must never block
 * a reachable state or admit an unreachable one into a refutation.
 */
class PdrRandomTest : public ::testing::TestWithParam<int>
{
};

TEST_P(PdrRandomTest, MatchesBmcOnRandomNetlists)
{
    std::mt19937 rng(1717 + GetParam());
    RandomDesign d = makeRandom(rng);
    std::unordered_map<std::string, nl::CellId> empty_map;

    int refuted = 0, proven = 0;
    for (int pi = 0; pi < 2; pi++) {
        nl::CellId probe = d.probes[pi % d.probes.size()];
        unsigned w = d.netlist.cell(probe).width;
        for (uint64_t c : {uint64_t(0), ~uint64_t(0)}) {
            Bits want(w, c);
            FramePropertyFn bad = [probe, want](PropCtx &ctx,
                                                unsigned f) {
                auto &cnf = ctx.cnf();
                return cnf.mkEqW(ctx.unroller().wire(f, probe),
                                 cnf.constWord(want));
            };
            const unsigned bound = 3;
            CheckResult bmc = checkProperty(
                d.netlist, empty_map, {}, bound, [&](PropCtx &ctx) {
                    Lit v = ctx.cnf().falseLit();
                    for (unsigned f = 0; f < bound; f++)
                        v = ctx.cnf().mkOr(v, bad(ctx, f));
                    return v;
                });
            PdrOptions popts;
            popts.bound = bound;
            popts.maxFrames = bound + 3; // cap convergence search
            PdrResult pdr = checkPdr(d.netlist, empty_map, {}, {},
                                     bad, popts);
            EXPECT_EQ(pdr.verdict, bmc.verdict)
                << "seed " << GetParam() << " probe " << pi
                << " const " << c;
            refuted += bmc.verdict == Verdict::Refuted;
            proven += bmc.verdict == Verdict::Proven;
        }
    }
    // The fixture stays meaningful only if both verdict classes occur
    // across the suite; require at least one decided query per seed.
    EXPECT_GT(refuted + proven, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PdrRandomTest,
                         ::testing::Range(0, 5));

namespace
{

/** Deterministically hard UNSAT pigeonhole over rigid bits: what the
 *  BMC solve would have to decide if the PDR pre-pass did not. */
Query
hardProvenQuery(const std::string &name, int pigeons, int holes)
{
    Query q;
    q.name = name;
    q.prop = [pigeons, holes](PropCtx &ctx) {
        auto &cnf = ctx.cnf();
        std::vector<std::vector<Lit>> p(pigeons);
        for (int i = 0; i < pigeons; i++)
            for (int j = 0; j < holes; j++)
                p[i].push_back(ctx.rigid("p_" + std::to_string(i) +
                                             "_" + std::to_string(j),
                                         1)[0]);
        for (int i = 0; i < pigeons; i++) {
            Lit any = cnf.falseLit();
            for (int j = 0; j < holes; j++)
                any = cnf.mkOr(any, p[i][j]);
            ctx.assume(any);
        }
        for (int j = 0; j < holes; j++)
            for (int i1 = 0; i1 < pigeons; i1++)
                for (int i2 = i1 + 1; i2 < pigeons; i2++)
                    ctx.assume(cnf.mkOr(~p[i1][j], ~p[i2][j]));
        return cnf.trueLit(); // UNSAT under assumptions => Proven
    };
    // The frame-local form is trivially false — PDR closes it
    // instantly (and the verdicts agree: Proven).
    q.frameProp = [](PropCtx &ctx, unsigned) {
        return ctx.cnf().falseLit();
    };
    return q;
}

} // namespace

/**
 * When the PDR pre-pass proves a frame-local query, the result must
 * name PDR (VerdictSource::Race + EngineKind::Pdr), carry PDR's own
 * solver-work counters, and bump the per-engine win stats — and the
 * BMC solve, here a hard pigeonhole, must never run: no incremental
 * context is built at all.
 */
TEST(PdrRace, ChallengerWinAttribution)
{
    auto r = elab(kCounter, "top");
    for (unsigned jobs : {1u, 2u}) {
        EngineOptions eopts;
        eopts.jobs = jobs;
        Engine engine(*r.netlist, r.signalMap, {}, /*bound=*/4, eopts);
        engine.enqueue(hardProvenQuery("race_attrib", 10, 9));
        auto results = engine.drain();
        ASSERT_EQ(results.size(), 1u);
        const CheckResult &res = results[0];
        EXPECT_EQ(res.verdict, Verdict::Proven) << "jobs " << jobs;
        EXPECT_TRUE(res.engineRaced);
        EXPECT_EQ(res.source, VerdictSource::Race);
        EXPECT_EQ(res.engine, EngineKind::Pdr);
        EXPECT_TRUE(res.unbounded);
        // The trivially-false frame property costs (near) nothing; a
        // pigeonhole solve would cost far more.
        EXPECT_LT(res.conflicts, 10000u);
        EXPECT_EQ(res.cnfVarsAdded, 0u);

        EXPECT_EQ(engine.stats().unrollContexts, 0u);
        EXPECT_EQ(engine.stats().engineRaces, 1u);
        EXPECT_EQ(engine.stats().bmcWins, 0u);
        EXPECT_EQ(engine.stats().pdrWins, 1u);
        EXPECT_EQ(engine.stats().unboundedProofs, 1u);
    }
}

/**
 * A frame-local query PDR refutes is not answered by the pre-pass: it
 * falls through to the incremental BMC solve, which refutes it with a
 * trace of its own (engine Bmc) that replays through bmc::validate.
 */
TEST(PdrRace, PrePassRefutationFallsThroughToBmc)
{
    auto r = elab(kCounter, "top");
    FramePropertyFn frame_bad = [](PropCtx &ctx, unsigned f) {
        if (f == 0) {
            ctx.pinInput("en", 1);
            ctx.watch("q");
        }
        return ctx.eqConst(f, "q", 3);
    };
    PropertyFn prop = [frame_bad](PropCtx &ctx) {
        Lit bad = ctx.cnf().falseLit();
        for (unsigned f = 0; f < ctx.bound(); f++)
            bad = ctx.cnf().mkOr(bad, frame_bad(ctx, f));
        return bad;
    };
    ASSERT_EQ(pdrAt(r, 6, frame_bad).verdict, Verdict::Refuted);

    for (unsigned jobs : {1u, 2u}) {
        EngineOptions eopts;
        eopts.jobs = jobs;
        Engine engine(*r.netlist, r.signalMap, {}, /*bound=*/6, eopts);
        Query q;
        q.name = "prepass_cex";
        q.prop = prop;
        q.frameProp = frame_bad;
        engine.enqueue(std::move(q));
        auto results = engine.drain();
        ASSERT_EQ(results.size(), 1u);
        const CheckResult &res = results[0];
        ASSERT_EQ(res.verdict, Verdict::Refuted) << "jobs " << jobs;
        EXPECT_TRUE(res.engineRaced);
        EXPECT_EQ(res.engine, EngineKind::Bmc);
        EXPECT_EQ(res.source, VerdictSource::Solve);
        EXPECT_FALSE(res.unbounded);
        EXPECT_EQ(engine.stats().bmcWins, 1u);
        EXPECT_EQ(engine.stats().pdrWins, 0u);
        ASSERT_FALSE(res.trace.steps.empty());

        ReplayResult replay =
            replayTrace(*r.netlist, r.signalMap, {}, 6, prop, res.trace);
        EXPECT_TRUE(replay.ok) << replay.note;
    }
}

namespace
{

vscale::Config
formalConfig()
{
    vscale::Config cfg = vscale::Config::formal();
    cfg.imemWords = 16;
    return cfg;
}

rtl2uspec::SynthesisResult
synthesizeWith(unsigned jobs, EngineChoice engine)
{
    auto design = vscale::elaborateVscale(formalConfig());
    auto md = rtl2uspec::loadMetadata(vscale::metaPath());
    rtl2uspec::SynthesisOptions opts;
    opts.jobs = jobs;
    opts.engine = engine;
    return rtl2uspec::synthesize(design, md, opts);
}

} // namespace

/**
 * Acceptance: --engine race must synthesize a model bit-identical to
 * --engine bmc on the multi-V-scale at jobs=1 and jobs=4, with every
 * per-SVA verdict equal; and the race must close at least one query
 * with an *unbounded* proof — generality plain BMC cannot produce at
 * any bound.
 */
TEST(PdrRace, VscaleRaceMatchesBmc)
{
    rtl2uspec::SynthesisResult bmc = synthesizeWith(1, EngineChoice::Bmc);
    rtl2uspec::SynthesisResult race1 =
        synthesizeWith(1, EngineChoice::Race);
    rtl2uspec::SynthesisResult race4 =
        synthesizeWith(4, EngineChoice::Race);

    for (const auto *race : {&race1, &race4}) {
        ASSERT_EQ(bmc.svas.size(), race->svas.size());
        for (size_t i = 0; i < bmc.svas.size(); i++) {
            EXPECT_EQ(bmc.svas[i].name, race->svas[i].name) << i;
            EXPECT_EQ(bmc.svas[i].verdict, race->svas[i].verdict)
                << bmc.svas[i].name;
        }
        EXPECT_EQ(bmc.model.print(), race->model.print());
        EXPECT_EQ(bmc.bugs.size(), race->bugs.size());
        EXPECT_GT(race->engineRaces, 0u);
        EXPECT_GE(race->unboundedProofs, 1u);
    }
    EXPECT_EQ(bmc.engineMode, "bmc");
    EXPECT_EQ(bmc.engineRaces, 0u);
    EXPECT_EQ(bmc.unboundedProofs, 0u);
    EXPECT_EQ(race1.engineMode, "race");
}
