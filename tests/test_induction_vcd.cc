/**
 * @file
 * Tests for the k-induction engine (unbounded proofs, base-case
 * refutation with trace, non-inductive Unknown) and the VCD waveform
 * writer.
 */

#include <gtest/gtest.h>

#include "bmc/checker.hh"
#include "common/logging.hh"
#include "sim/vcd.hh"
#include "verilog/elaborate.hh"
#include "verilog/parser.hh"

using namespace r2u;
using namespace r2u::bmc;

namespace
{

vlog::ElabResult
elab(const std::string &src)
{
    vlog::Design d = vlog::parseString(src, "t.v");
    vlog::ElabOptions opts;
    opts.top = "top";
    return vlog::elaborate(d, opts);
}

} // namespace

TEST(Induction, OneHotRingProvenUnbounded)
{
    // A rotating register that starts one-hot; "q != 0" is
    // 1-inductive and holds forever — BMC alone could never prove it
    // for all cycle counts.
    auto r = elab(R"(
        module top (input clk, output wire [3:0] out);
            reg [3:0] q;
            reg started;
            always @(posedge clk) begin
                if (!started) begin
                    q <= 4'b0001;
                    started <= 1'b1;
                end else begin
                    q <= {q[2:0], q[3]};
                end
            end
            assign out = q;
        endmodule
    )");
    auto res = checkInductive(
        *r.netlist, r.signalMap, {}, 1, 4,
        [&](PropCtx &ctx, unsigned f) {
            // bad: started and q == 0 (rotation preserves nonzero).
            auto &cnf = ctx.cnf();
            sat::Lit started = ctx.at(f, "started")[0];
            sat::Lit zero =
                cnf.mkEqW(ctx.at(f, "q"), cnf.constWord(4, 0));
            return cnf.mkAnd(started, zero);
        });
    EXPECT_EQ(res.verdict, Verdict::Proven);
    EXPECT_TRUE(res.inductive);
}

TEST(Induction, BaseCaseRefutationWithTrace)
{
    auto r = elab(R"(
        module top (input clk, output wire [3:0] out);
            reg [3:0] q;
            always @(posedge clk) begin
                q <= q + 4'd1;
            end
            assign out = q;
        endmodule
    )");
    // "q never equals 3" is false at cycle 3.
    auto res = checkInductive(
        *r.netlist, r.signalMap, {}, 1, 6,
        [&](PropCtx &ctx, unsigned f) {
            ctx.watch("q");
            return ctx.eqConst(f, "q", 3);
        });
    EXPECT_EQ(res.verdict, Verdict::Refuted);
    ASSERT_EQ(res.trace.steps.size(), 6u);
    EXPECT_EQ(res.trace.steps[3].signals.at("q").toUint64(), 3u);
}

TEST(Induction, NonInductivePropertyIsUnknown)
{
    // "q != 15" holds within the base bound but is not 1-inductive
    // for a free-running counter (q == 14 steps to 15).
    auto r = elab(R"(
        module top (input clk, output wire [3:0] out);
            reg [3:0] q;
            always @(posedge clk) begin
                q <= q + 4'd1;
            end
            assign out = q;
        endmodule
    )");
    auto res = checkInductive(
        *r.netlist, r.signalMap, {}, 1, 4,
        [&](PropCtx &ctx, unsigned f) {
            return ctx.eqConst(f, "q", 15);
        });
    EXPECT_EQ(res.verdict, Verdict::Unknown);
    EXPECT_FALSE(res.inductive);
    // The bounded base case still closed: the property holds at bound
    // 4 even though the step does not.
    EXPECT_TRUE(res.baseProven);
}

TEST(Vcd, RecordsChangesInStandardFormat)
{
    auto r = elab(R"(
        module top (input clk, input en, output wire [3:0] out);
            reg [3:0] q;
            always @(posedge clk) begin
                if (en)
                    q <= q + 4'd1;
            end
            assign out = q;
        endmodule
    )");
    sim::Simulator s(*r.netlist);
    sim::VcdWriter vcd(s, std::vector<std::string>{"q", "en"});
    s.setInput("en", Bits(1, 1));
    s.setInput("clk", Bits(1, 0));
    for (int i = 0; i < 4; i++) {
        vcd.sample();
        s.step();
    }
    std::string out = vcd.render();
    EXPECT_NE(out.find("$timescale"), std::string::npos);
    EXPECT_NE(out.find("$var wire 4"), std::string::npos);
    EXPECT_NE(out.find("$var wire 1"), std::string::npos);
    EXPECT_NE(out.find("$enddefinitions"), std::string::npos);
    EXPECT_NE(out.find("#0"), std::string::npos);
    EXPECT_NE(out.find("#3"), std::string::npos);
    EXPECT_NE(out.find("b0000 "), std::string::npos);
    EXPECT_NE(out.find("b0011 "), std::string::npos);
    // Unchanged signals are not re-dumped after the first sample.
    size_t en_dumps = 0, pos = 0;
    std::string en_id;
    {
        size_t var = out.find("$var wire 1 ");
        en_id = out.substr(var + 12, out.find(' ', var + 12) -
                                         (var + 12));
    }
    while ((pos = out.find("1" + en_id + "\n", pos)) !=
           std::string::npos) {
        en_dumps++;
        pos++;
    }
    EXPECT_EQ(en_dumps, 1u);
}

TEST(Vcd, UnknownSignalIsFatal)
{
    auto r = elab(R"(
        module top (input clk, output wire o);
            assign o = clk;
        endmodule
    )");
    sim::Simulator s(*r.netlist);
    EXPECT_THROW(sim::VcdWriter(s, std::vector<std::string>{"nope"}),
                 r2u::FatalError);
}
