/**
 * @file
 * Tests for the litmus module (format round-trip, assembly emission,
 * cycle-based generation, 56-test suite) and the SC reference model.
 * Property sweep: every generated test's interesting outcome must be
 * SC-forbidden (the critical cycle guarantees it), and every test must
 * round-trip through the text format.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "isa/isa.hh"
#include "litmus/litmus.hh"
#include "mcm/sc_ref.hh"

using namespace r2u;
using litmus::generateFromCycle;
using litmus::standardSuite;
using LTest = litmus::Test;

TEST(Litmus, ParsePrintRoundTrip)
{
    LTest t = LTest::parse(R"(name mp
thread 0
w x 1
w y 1
thread 1
r y 2
r x 3
interesting 1:x2=1 & 1:x3=0)");
    EXPECT_EQ(t.name, "mp");
    ASSERT_EQ(t.threads.size(), 2u);
    EXPECT_TRUE(t.threads[0].ops[0].isWrite);
    EXPECT_EQ(t.threads[1].ops[0].reg, 2);
    ASSERT_EQ(t.interesting.regs.size(), 2u);
    EXPECT_EQ(t.interesting.regs[1].value, 0);

    LTest t2 = LTest::parse(t.print());
    EXPECT_EQ(t2.print(), t.print());
}

TEST(Litmus, ParseErrors)
{
    EXPECT_THROW(LTest::parse("thread 0\nw x 1"), FatalError); // no name
    EXPECT_THROW(LTest::parse("name t\nthread 1\nw x 1"), FatalError);
    EXPECT_THROW(LTest::parse("name t\nthread 0\nbogus"), FatalError);
}

namespace
{

/** The FatalError message of parsing @p text; empty if it parsed. */
std::string
parseError(const std::string &text)
{
    try {
        LTest::parse(text);
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

// Regression: numeric fields went through std::stoul/std::stoi, so a
// malformed number escaped as std::invalid_argument/out_of_range and
// aborted uspec_check. Each is now a FatalError naming the line.
TEST(Litmus, MalformedThreadIndexNamesTheLine)
{
    std::string msg = parseError("name t\nthread zero\nw x 1");
    EXPECT_NE(msg.find("litmus:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'thread zero'"), std::string::npos) << msg;
}

TEST(Litmus, OutOfRangeValueNamesTheLine)
{
    std::string msg = parseError("name t\nthread 0\nw x 99999999999");
    EXPECT_NE(msg.find("out of range"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'w x 99999999999'"), std::string::npos) << msg;
}

TEST(Litmus, MalformedRegisterNamesTheLine)
{
    std::string msg = parseError("name t\nthread 0\nr x 2q");
    EXPECT_NE(msg.find("'r x 2q'"), std::string::npos) << msg;
    msg = parseError("name t\nthread 0\nr x 2\ninteresting 0:xy=1");
    EXPECT_NE(msg.find("'interesting 0:xy=1'"), std::string::npos)
        << msg;
}

TEST(Litmus, MalformedConditionNumbersNameTheLine)
{
    const char *base = "name t\nthread 0\nr x 1\n";
    for (const char *cond :
         {"interesting 0:x1=zz", "interesting t0:x1=1",
          "interesting x=1e3"}) {
        std::string msg = parseError(std::string(base) + cond);
        EXPECT_NE(msg.find(std::string("'") + cond + "'"),
                  std::string::npos)
            << msg;
    }
    // Whitespace around the numbers is still fine.
    LTest t = LTest::parse(std::string(base) +
                           "interesting 0 : x1 = 1 & x = 0");
    ASSERT_EQ(t.interesting.regs.size(), 1u);
    EXPECT_EQ(t.interesting.regs[0].value, 1);
    ASSERT_EQ(t.interesting.mem.size(), 1u);
    EXPECT_EQ(t.interesting.mem[0].loc, "x");
}

TEST(Litmus, LocationsAndAssembly)
{
    LTest t = LTest::parse(R"(name mp
thread 0
w x 1
w y 1
thread 1
r y 2
r x 3
interesting 1:x2=1 & 1:x3=0)");
    auto locs = t.locations();
    ASSERT_EQ(locs.size(), 2u);
    EXPECT_EQ(locs[0], "x");
    EXPECT_EQ(locs[1], "y");

    // Thread 1 reads y (addr 4) into x2 then x (addr 0) into x3.
    auto words = isa::assemble(t.threadAssembly(1));
    ASSERT_EQ(words.size(), 2u);
    isa::Inst i0 = isa::decode(words[0]);
    EXPECT_EQ(i0.op, isa::Op::Lw);
    EXPECT_EQ(i0.rd, 2);
    EXPECT_EQ(i0.imm, 4);
    isa::Inst i1 = isa::decode(words[1]);
    EXPECT_EQ(i1.rd, 3);
    EXPECT_EQ(i1.imm, 0);
}

TEST(Litmus, GenerateMpFromCycle)
{
    LTest t = generateFromCycle("gen_mp", "Rfe PodRR Fre PodWW");
    EXPECT_EQ(t.threads.size(), 2u);
    // One thread is two writes, the other two reads.
    int writers = 0, readers = 0;
    for (const auto &th : t.threads) {
        bool all_w = true, all_r = true;
        for (const auto &a : th.ops) {
            all_w &= a.isWrite;
            all_r &= !a.isWrite;
        }
        writers += all_w;
        readers += all_r;
    }
    EXPECT_EQ(writers, 1);
    EXPECT_EQ(readers, 1);
    EXPECT_FALSE(mcm::scAllows(t, t.interesting));
}

TEST(Litmus, GenerateSbFromCycle)
{
    LTest t = generateFromCycle("gen_sb", "Fre PodWR Fre PodWR");
    EXPECT_EQ(t.threads.size(), 2u);
    for (const auto &th : t.threads) {
        ASSERT_EQ(th.ops.size(), 2u);
        EXPECT_TRUE(th.ops[0].isWrite);
        EXPECT_FALSE(th.ops[1].isWrite);
    }
    EXPECT_FALSE(mcm::scAllows(t, t.interesting));
}

TEST(Litmus, GeneratorRejectsBadCycles)
{
    EXPECT_THROW(generateFromCycle("t", "Rfe Rfe"), FatalError);
    EXPECT_THROW(generateFromCycle("t", "PodWW PodWW"), FatalError);
    EXPECT_THROW(generateFromCycle("t", "Nonsense"), FatalError);
}

TEST(Litmus, SuiteHas56UniqueTests)
{
    auto suite = standardSuite();
    ASSERT_EQ(suite.size(), 56u);
    std::set<std::string> names;
    for (const auto &t : suite) {
        EXPECT_TRUE(names.insert(t.name).second) << t.name;
        EXPECT_FALSE(t.threads.empty());
        EXPECT_FALSE(t.interesting.empty());
    }
}

TEST(ScRef, MpOutcomes)
{
    LTest t = standardSuite()[0]; // mp
    auto outcomes = mcm::enumerateSC(t);
    // SC allows exactly 3 of the 4 read-value combinations.
    EXPECT_EQ(outcomes.size(), 3u);
    EXPECT_FALSE(mcm::scAllows(t, t.interesting));
    // The (1,1) outcome is allowed.
    litmus::Condition ok;
    ok.regs = {{1, 2, 1}, {1, 3, 1}};
    EXPECT_TRUE(mcm::scAllows(t, ok));
}

TEST(ScRef, CoherenceFinalValue)
{
    LTest t = LTest::parse(R"(name coww
thread 0
w x 1
w x 2
interesting x=1)");
    // Same-thread writes: final value must be 2.
    EXPECT_FALSE(mcm::scAllows(t, t.interesting));
    litmus::Condition ok;
    ok.mem = {{"x", 2}};
    EXPECT_TRUE(mcm::scAllows(t, ok));
}

TEST(ScRef, OutcomeSatisfiesDefaultsToInitialValues)
{
    mcm::Outcome o;
    litmus::Condition c;
    c.mem = {{"z", 0}};
    EXPECT_TRUE(o.satisfies(c));
    c.mem = {{"z", 1}};
    EXPECT_FALSE(o.satisfies(c));
}

/** Every suite test's interesting outcome must be SC-forbidden. */
class SuiteScTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SuiteScTest, InterestingOutcomeIsForbidden)
{
    auto suite = standardSuite();
    const LTest &t = suite[static_cast<size_t>(GetParam())];
    EXPECT_FALSE(mcm::scAllows(t, t.interesting))
        << t.name << "\n" << t.print();
    // And SC allows at least one outcome (sanity).
    EXPECT_FALSE(mcm::enumerateSC(t).empty());
}

INSTANTIATE_TEST_SUITE_P(All56, SuiteScTest, ::testing::Range(0, 56));
