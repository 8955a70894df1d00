/**
 * @file
 * Tests for the litmus module (format round-trip, assembly emission,
 * cycle-based generation, 56-test suite) and the SC reference model.
 * Property sweep: every generated test's interesting outcome must be
 * SC-forbidden (the critical cycle guarantees it), and every test must
 * round-trip through the text format. The flat SC enumerator is
 * checked against ReferenceSC, the map-based recursion it replaced, on
 * the suite, seeded diy cycles, coherence stress shapes and seeded
 * random tests.
 */

#include <gtest/gtest.h>

#include <random>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "isa/isa.hh"
#include "litmus/litmus.hh"
#include "litmus_shapes.hh"
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

// Regression: a location no thread writes was missing from the SC
// outcomes' final memory, while check::outcomeOf lists every location
// (0 when unwritten), so no observable outcome of such a test matched
// an SC one and uspec_check reported false violations.
TEST(ScRef, ReadOnlyLocationIsInFinalMemory)
{
    LTest t = LTest::parse(R"(name read_only
thread 0
w x 1
r z 1
thread 1
r x 1)");
    auto outcomes = mcm::enumerateSC(t);
    ASSERT_EQ(outcomes.size(), 2u);
    for (const mcm::Outcome &o : outcomes)
        EXPECT_EQ(o.mem, (std::map<std::string, int>{{"x", 1}, {"z", 0}}))
            << o.toString();
}

TEST(ScRef, ConditionOnlyLocationIsInFinalMemory)
{
    LTest t = LTest::parse(R"(name cond_only
thread 0
w x 1
thread 1
r x 1
interesting y=0)");
    auto outcomes = mcm::enumerateSC(t);
    ASSERT_EQ(outcomes.size(), 2u);
    for (const mcm::Outcome &o : outcomes)
        EXPECT_EQ(o.mem, (std::map<std::string, int>{{"x", 1}, {"y", 0}}))
            << o.toString();
    EXPECT_TRUE(mcm::scAllows(t, t.interesting));
}

namespace
{

/**
 * The SC enumerator before the flat search, kept unchanged as an
 * independent oracle: a recursive DFS over a std::set of by-value
 * states, each carrying its own memory map. Its final memory holds
 * only the locations some write reached.
 */
class ReferenceSC
{
  public:
    static std::set<mcm::Outcome>
    enumerate(const LTest &test)
    {
        State init;
        init.pc.assign(test.threads.size(), 0);
        std::set<State> seen;
        std::set<mcm::Outcome> outcomes;
        explore(test, std::move(init), seen, outcomes);
        return outcomes;
    }

  private:
    struct State
    {
        std::vector<size_t> pc;             ///< per-thread index
        std::map<std::string, int> mem;     ///< location -> value
        mcm::Outcome outcome;               ///< registers read so far

        bool
        operator<(const State &o) const
        {
            if (pc != o.pc)
                return pc < o.pc;
            if (mem != o.mem)
                return mem < o.mem;
            return outcome < o.outcome;
        }
    };

    static void
    explore(const LTest &test, State state, std::set<State> &seen,
            std::set<mcm::Outcome> &outcomes)
    {
        if (!seen.insert(state).second)
            return;
        bool done = true;
        for (size_t t = 0; t < test.threads.size(); t++) {
            if (state.pc[t] >= test.threads[t].ops.size())
                continue;
            done = false;
            const litmus::Access &a = test.threads[t].ops[state.pc[t]];
            State next = state;
            next.pc[t]++;
            if (a.isWrite) {
                next.mem[a.loc] = a.value;
            } else {
                auto it = next.mem.find(a.loc);
                int v = it == next.mem.end() ? 0 : it->second;
                next.outcome
                    .regs[{static_cast<int>(t), a.reg}] = v;
            }
            explore(test, std::move(next), seen, outcomes);
        }
        if (done) {
            mcm::Outcome out = state.outcome;
            out.mem = state.mem;
            outcomes.insert(std::move(out));
        }
    }
};

std::vector<std::string>
strings(const std::set<mcm::Outcome> &outcomes)
{
    std::vector<std::string> out;
    for (const mcm::Outcome &o : outcomes)
        out.push_back(o.toString());
    return out;
}

/**
 * Expect enumerateSC to give ReferenceSC's outcomes, with every
 * location no write reached added to final memory at 0; returns how
 * many outcomes there were.
 */
size_t
expectMatchesReferenceSC(const LTest &test)
{
    std::set<mcm::Outcome> want;
    for (mcm::Outcome o : ReferenceSC::enumerate(test)) {
        for (const std::string &loc : test.locations())
            o.mem.emplace(loc, 0);
        want.insert(std::move(o));
    }
    std::set<mcm::Outcome> got = mcm::enumerateSC(test);
    EXPECT_EQ(strings(got), strings(want)) << test.print();
    return got.size();
}

/** A diy critical cycle over @p threads threads, drawn from @p rng. */
std::string
diyCycle(std::mt19937 &rng, int threads)
{
    static const char *names[] = {"Rfe", "Fre", "Wse"};
    // Access kind at each end of an external relation.
    static const char src[] = {'W', 'R', 'W'};
    static const char dst[] = {'R', 'W', 'W'};
    std::vector<unsigned> exts;
    for (int i = 0; i < threads; i++)
        exts.push_back(rng() % 3);
    std::string cycle;
    for (size_t i = 0; i < exts.size(); i++) {
        unsigned e = exts[i], next = exts[(i + 1) % exts.size()];
        cycle += strfmt("%s%s Pod%c%c", i ? " " : "", names[e], dst[e],
                        src[next]);
    }
    return cycle;
}

/** What a random-test sweep covered. */
struct RandomStats
{
    int readOnlyLocs = 0, repeatedRegs = 0, conditionOnlyLocs = 0;
};

/**
 * A seeded random test: 2-5 threads of 1-3 accesses over 1-3 of
 * x/y/z, registers drawn from two numbers (so a thread may load one
 * register twice), written values 0-2 (so a write may store the
 * initial value), z never written on odd seeds and a final-memory
 * condition on w, which no thread touches, on every third seed.
 */
LTest
randomTest(unsigned seed, RandomStats &stats)
{
    std::mt19937 rng(seed);
    static const char *names[] = {"x", "y", "z"};
    size_t num_locs = 1 + rng() % 3;
    bool z_read_only = seed % 2 && num_locs == 3;
    LTest t;
    t.name = strfmt("random%u", seed);
    size_t threads = 2 + rng() % 4;
    for (size_t i = 0; i < threads; i++) {
        litmus::Thread th;
        std::set<int> regs;
        size_t ops = 1 + rng() % 3;
        for (size_t k = 0; k < ops; k++) {
            litmus::Access a;
            size_t loc = rng() % num_locs;
            a.loc = names[loc];
            a.isWrite = rng() % 2 && !(z_read_only && loc == 2);
            if (a.isWrite) {
                a.value = static_cast<int>(rng() % 3);
            } else {
                a.reg = 1 + static_cast<int>(rng() % 2);
                stats.repeatedRegs += !regs.insert(a.reg).second;
            }
            th.ops.push_back(a);
        }
        t.threads.push_back(th);
    }
    if (seed % 3 == 0) {
        t.interesting.mem.push_back({"w", 0});
        stats.conditionOnlyLocs++;
    }
    for (const std::string &loc : t.locations()) {
        bool written = false;
        for (const litmus::Thread &th : t.threads)
            for (const litmus::Access &a : th.ops)
                written |= a.isWrite && a.loc == loc;
        stats.readOnlyLocs += !written;
    }
    return t;
}

} // namespace

TEST(ScRef, FlatEnumeratorMatchesReferenceOnSuite)
{
    for (const LTest &t : standardSuite())
        expectMatchesReferenceSC(t);
}

TEST(ScRef, FlatEnumeratorMatchesReferenceOnDiyCycles)
{
    std::mt19937 rng(18);
    for (int threads : {4, 5, 6}) {
        for (int i = 0; i < 6; i++) {
            LTest t = generateFromCycle(strfmt("diy%d_%d", threads, i),
                                        diyCycle(rng, threads));
            EXPECT_GT(expectMatchesReferenceSC(t), 1u) << t.name;
            EXPECT_FALSE(mcm::scAllows(t, t.interesting)) << t.name;
        }
    }
}

TEST(ScRef, FlatEnumeratorMatchesReferenceOnStressShapes)
{
    for (const LTest &t :
         {test::cohStress(4, 2), test::cohStress(5, 2),
          test::mixedStress(3), test::mixedStress(4)})
        expectMatchesReferenceSC(t);

    // A state wider than one word: 20 locations with 21 values (5 bits
    // each) and 4 loaded registers.
    LTest wide;
    wide.name = "wide";
    litmus::Thread writer, readers[2];
    for (int i = 0; i < 20; i++)
        writer.ops.push_back({true, strfmt("l%d", i), i + 1, 0});
    readers[0].ops = {{false, "l19", 0, 1}, {false, "l0", 0, 2}};
    readers[1].ops = {{false, "l0", 0, 1}, {false, "l19", 0, 2}};
    wide.threads = {writer, readers[0], readers[1]};
    EXPECT_EQ(expectMatchesReferenceSC(wide), 12u);
}

TEST(ScRef, FlatEnumeratorMatchesReferenceOnRandomTests)
{
    RandomStats stats;
    for (unsigned seed = 1; seed <= 300; seed++)
        expectMatchesReferenceSC(randomTest(seed, stats));
    // The sweep reaches the shapes the suite never has.
    EXPECT_GT(stats.readOnlyLocs, 20);
    EXPECT_GT(stats.repeatedRegs, 20);
    EXPECT_EQ(stats.conditionOnlyLocs, 100);
}
