/**
 * @file
 * Tests for the verdict store opened as a content-addressed cache
 * (openCache): a foreign or damaged header starts fresh instead of
 * aborting, stale-entry diagnostics, read-only on a held lock, and —
 * through a real bmc::Engine over a synthetic multi-cone netlist — the
 * acceptance property that editing one cone re-solves only that cone's
 * queries while every other verdict replays from cache. Recovery from
 * torn and corrupt records is shared with the journal and tested on
 * both in test_journal.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>

#include "bmc/engine.hh"
#include "bmc/journal.hh"
#include "common/bits.hh"
#include "netlist/hash.hh"
#include "netlist/netlist.hh"

using namespace r2u;
namespace fs = std::filesystem;

namespace
{

std::string
tempPath(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / name;
    fs::remove_all(p);
    return p.string();
}

bmc::VerdictStore::Record
makeRecord(uint64_t key, const std::string &name,
           bmc::Verdict verdict, unsigned bound)
{
    bmc::VerdictStore::Record rec;
    rec.key = key;
    rec.name = name;
    rec.verdict = verdict;
    rec.source = bmc::VerdictSource::Solve;
    rec.validated = true;
    rec.bound = bound;
    rec.seconds = 0.25;
    rec.conflicts = 17;
    rec.propagations = 1717;
    return rec;
}

void
flipByte(const std::string &path, uint64_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

} // namespace

// Unlike the run journal (whose config mismatch is fatal — resuming
// the wrong journal means the user pointed --resume at the wrong
// file), a shared cache with an unrecognized header is just not a
// cache we can use: warn, start fresh, keep going.
TEST(VerdictCache, DamagedHeaderStartsFreshNotFatal)
{
    std::string dir = tempPath("vc_header");
    std::string file;
    {
        bmc::VerdictStore c;
        c.openCache(dir);
        file = c.filePath();
        c.append(makeRecord(0x111, "a", bmc::Verdict::Proven, 3));
    }
    flipByte(file, 0); // damage the magic

    bmc::VerdictStore c;
    EXPECT_NO_THROW(c.openCache(dir));
    ASSERT_TRUE(c.isOpen());
    EXPECT_EQ(c.numLoaded(), 0u);
    EXPECT_EQ(c.lookup(0x111), nullptr);
    // The fresh cache is fully usable.
    EXPECT_TRUE(c.append(
        makeRecord(0x222, "b", bmc::Verdict::Refuted, 3)));

    bmc::VerdictStore c2;
    c2.openCache(dir);
    EXPECT_EQ(c2.numLoaded(), 1u);
    EXPECT_NE(c2.lookup(0x222), nullptr);
}

// A cache of an older format holds keys of other hash functions: it
// warns and starts fresh, like any header it does not recognize.
TEST(VerdictCache, OlderVersionStartsFresh)
{
    std::string dir = tempPath("vc_older");
    std::string file;
    {
        bmc::VerdictStore c;
        c.openCache(dir);
        file = c.filePath();
        c.append(makeRecord(0x111, "a", bmc::Verdict::Proven, 3));
    }
    unsigned char raw[8] = {};
    {
        std::ifstream in(file, std::ios::binary);
        in.read(reinterpret_cast<char *>(raw), 8);
    }
    uint32_t current = raw[4] | raw[5] << 8 | raw[6] << 16 |
                       static_cast<uint32_t>(raw[7]) << 24;
    ASSERT_GT(current, 1u);
    {
        std::fstream f(file,
                       std::ios::in | std::ios::out | std::ios::binary);
        char older[4] = {static_cast<char>(current - 1), 0, 0, 0};
        f.seekp(4);
        f.write(older, 4);
    }

    bmc::VerdictStore c;
    EXPECT_NO_THROW(c.openCache(dir));
    ASSERT_TRUE(c.isOpen());
    EXPECT_EQ(c.numLoaded(), 0u);
    EXPECT_EQ(c.lookup(0x111), nullptr);
    EXPECT_TRUE(c.append(
        makeRecord(0x222, "b", bmc::Verdict::Refuted, 3)));

    bmc::VerdictStore c2;
    c2.openCache(dir);
    EXPECT_EQ(c2.numLoaded(), 1u);
    EXPECT_NE(c2.lookup(0x222), nullptr);
}

// hasStaleEntry distinguishes "never solved" from "solved for content
// that has since changed" — the invalidation counter in the engine
// hangs off this.
TEST(VerdictCache, StaleEntryDetection)
{
    std::string dir = tempPath("vc_stale");
    bmc::VerdictStore c;
    c.openCache(dir);
    c.append(makeRecord(0x111, "a", bmc::Verdict::Proven, 3));

    // Same name+bound, different content hash: stale.
    EXPECT_TRUE(c.hasStaleEntry("a", 3, 0x999));
    // Exact key present: not stale.
    EXPECT_FALSE(c.hasStaleEntry("a", 3, 0x111));
    // Different name or bound: a plain miss, not an invalidation.
    EXPECT_FALSE(c.hasStaleEntry("b", 3, 0x999));
    EXPECT_FALSE(c.hasStaleEntry("a", 4, 0x999));
}

namespace
{

/**
 * Four independent cones: r_i = Dff(in_i <op_i> k_i). Every variant
 * keeps identical cell/register/input counts; only one cone's gate
 * kind changes. kEdited names the cone the "RTL edit" rewires.
 */
constexpr int kCones = 4;
constexpr int kEdited = 2;

struct ConeDesign
{
    nl::Netlist n;
    nl::CellId regs[kCones];
    uint64_t inits[kCones];

    explicit ConeDesign(nl::CellKind edited_kind)
    {
        nl::CellId one = n.addConst(Bits(1, 1), "one");
        for (int i = 0; i < kCones; i++) {
            nl::CellKind kind = i == kEdited ? edited_kind
                                             : nl::CellKind::And;
            nl::CellId in =
                n.addInput("in" + std::to_string(i), 8);
            nl::CellId k =
                n.addConst(Bits(8, 0x11u * i + 3), "k" + std::to_string(i));
            nl::CellId g =
                n.addBinary(kind, in, k, "g" + std::to_string(i));
            inits[i] = 5 + i;
            regs[i] = n.addDff("r" + std::to_string(i), g, one,
                               Bits(8, inits[i]));
        }
        n.validate();
    }

    uint64_t coneHashOf(int i) const
    {
        nl::CoiSeeds seeds;
        seeds.cells.push_back(regs[i]);
        return nl::coneHash(nl::digestNetlist(n),
                            nl::computeCoi(n, seeds));
    }
};

/**
 * Two queries per cone, content-hashed over exactly that cone's
 * slice: "r_i holds its power-on value at frame 0" (Proven) and
 * "r_i can reach the value k_i at frame 1" (Refuted — reachable
 * through both And and Or, so the edit changes the cone, not the
 * verdict). Returns the number of queries enqueued.
 */
size_t
enqueueConeQueries(bmc::Engine &engine, const ConeDesign &d)
{
    for (int i = 0; i < kCones; i++) {
        uint64_t cone = d.coneHashOf(i);
        auto hashed = [cone](const std::string &name) {
            nl::Fnv64 h;
            h.u64(cone);
            h.str(name);
            return h.value() == 0 ? 1 : h.value();
        };

        bmc::Query proven;
        proven.name = "init_holds_" + std::to_string(i);
        proven.contentHash = hashed(proven.name);
        nl::CellId reg = d.regs[i];
        uint64_t init = d.inits[i];
        proven.prop = [reg, init](bmc::PropCtx &ctx) {
            auto &cnf = ctx.cnf();
            return ~cnf.mkEqW(ctx.unroller().wire(0, reg),
                              cnf.constWord(Bits(8, init)));
        };
        engine.enqueue(std::move(proven));

        bmc::Query refuted;
        refuted.name = "reach_k_" + std::to_string(i);
        refuted.contentHash = hashed(refuted.name);
        uint64_t target = 0x11u * i + 3;
        refuted.prop = [reg, target](bmc::PropCtx &ctx) {
            auto &cnf = ctx.cnf();
            return cnf.mkEqW(ctx.unroller().wire(1, reg),
                             cnf.constWord(Bits(8, target)));
        };
        engine.enqueue(std::move(refuted));
    }
    return 2 * kCones;
}

void
expectConeVerdicts(const std::vector<bmc::CheckResult> &res)
{
    ASSERT_EQ(res.size(), static_cast<size_t>(2 * kCones));
    for (size_t i = 0; i < res.size(); i++)
        EXPECT_EQ(res[i].verdict, i % 2 == 0 ? bmc::Verdict::Proven
                                             : bmc::Verdict::Refuted)
            << "query " << i;
}

} // namespace

// The acceptance scenario of ISSUE 8 at engine level: cold run fills
// the cache, warm run answers everything from it, and a one-cone edit
// at constant cell counts re-solves exactly that cone's queries.
TEST(VerdictCache, EngineReplayAndPartialInvalidation)
{
    std::string dir = tempPath("vc_engine");
    std::unordered_map<std::string, nl::CellId> empty_map;
    const unsigned kFrames = 2;
    const size_t kQueries = 2 * kCones;

    ConeDesign base(nl::CellKind::And);

    // Cold run: every query misses, solves, and is appended.
    {
        bmc::VerdictStore cache;
        cache.openCache(dir);
        bmc::EngineOptions opts;
        opts.jobs = 1;
        opts.cache = &cache;
        bmc::Engine engine(base.n, empty_map, {}, kFrames, opts);
        enqueueConeQueries(engine, base);
        auto res = engine.drain();
        expectConeVerdicts(res);
        for (size_t i = 0; i < res.size(); i++) {
            EXPECT_FALSE(res[i].fromCache) << "query " << i;
            EXPECT_TRUE(res[i].cached) << "query " << i;
        }
        EXPECT_EQ(engine.stats().cacheMisses, kQueries);
        EXPECT_EQ(engine.stats().cacheHits, 0u);
        EXPECT_EQ(engine.stats().cacheInvalidations, 0u);
        EXPECT_EQ(engine.stats().cacheAppends, kQueries);
    }

    // Warm run (fresh engine + reopened cache): all hits, no appends,
    // identical verdicts.
    {
        bmc::VerdictStore cache;
        cache.openCache(dir);
        EXPECT_EQ(cache.numLoaded(), kQueries);
        bmc::EngineOptions opts;
        opts.jobs = 2;
        opts.cache = &cache;
        bmc::Engine engine(base.n, empty_map, {}, kFrames, opts);
        enqueueConeQueries(engine, base);
        auto res = engine.drain();
        expectConeVerdicts(res);
        for (size_t i = 0; i < res.size(); i++) {
            EXPECT_TRUE(res[i].fromCache) << "query " << i;
            // The replay keeps the original verdict provenance.
            EXPECT_EQ(res[i].source, bmc::VerdictSource::Solve)
                << "query " << i;
        }
        EXPECT_EQ(engine.stats().cacheHits, kQueries);
        EXPECT_EQ(engine.stats().cacheMisses, 0u);
        EXPECT_EQ(engine.stats().cacheAppends, 0u);
        // Nothing solved: no unroll context was ever built.
        EXPECT_EQ(engine.stats().unrollContexts, 0u);
    }

    // Edit one cone (same element counts). Only its two queries miss
    // (counted as invalidations — the cache knows their old content),
    // re-solve, and are appended under their new keys.
    {
        ConeDesign edited(nl::CellKind::Or);
        for (int i = 0; i < kCones; i++) {
            if (i == kEdited)
                EXPECT_NE(base.coneHashOf(i), edited.coneHashOf(i));
            else
                EXPECT_EQ(base.coneHashOf(i), edited.coneHashOf(i));
        }

        bmc::VerdictStore cache;
        cache.openCache(dir);
        bmc::EngineOptions opts;
        opts.jobs = 1;
        opts.cache = &cache;
        bmc::Engine engine(edited.n, empty_map, {}, kFrames, opts);
        enqueueConeQueries(engine, edited);
        auto res = engine.drain();
        expectConeVerdicts(res);
        for (size_t i = 0; i < res.size(); i++) {
            bool edited_cone =
                static_cast<int>(i / 2) == kEdited;
            EXPECT_EQ(res[i].fromCache, !edited_cone) << "query " << i;
        }
        EXPECT_EQ(engine.stats().cacheHits, kQueries - 2);
        EXPECT_EQ(engine.stats().cacheMisses, 2u);
        EXPECT_EQ(engine.stats().cacheInvalidations, 2u);
        EXPECT_EQ(engine.stats().cacheAppends, 2u);
        // One incremental context per bound per batch: the edited
        // cone's two re-solved queries share a single unroll.
        EXPECT_EQ(engine.stats().unrollContexts, 1u);
    }
}

// Unknown verdicts must never be cached: an aborted/budgeted query
// has no answer worth replaying, and caching it would freeze the
// give-up forever.
TEST(VerdictCache, UnknownVerdictsAreNotCached)
{
    std::string dir = tempPath("vc_unknown");
    std::unordered_map<std::string, nl::CellId> empty_map;
    ConeDesign d(nl::CellKind::And);

    bmc::VerdictStore cache;
    cache.openCache(dir);
    bmc::EngineOptions opts;
    opts.jobs = 1;
    opts.conflictBudget = 0; // every solve gives up immediately
    opts.cache = &cache;
    bmc::Engine engine(d.n, empty_map, {}, 2, opts);

    bmc::Query q;
    q.name = "budgeted";
    q.contentHash = 0xfeedbeef;
    nl::CellId reg = d.regs[0];
    q.prop = [reg](bmc::PropCtx &ctx) {
        auto &cnf = ctx.cnf();
        return cnf.mkEqW(ctx.unroller().wire(1, reg),
                         cnf.constWord(Bits(8, 0)));
    };
    engine.enqueue(std::move(q));
    auto res = engine.drain();
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0].verdict, bmc::Verdict::Unknown);
    EXPECT_FALSE(res[0].cached);
    EXPECT_EQ(engine.stats().cacheAppends, 0u);
    EXPECT_EQ(engine.stats().cacheMisses, 1u);

    bmc::VerdictStore c2;
    c2.openCache(dir);
    EXPECT_EQ(c2.numLoaded(), 0u);
}

// A query without a content hash (contentHash == 0) opts out of both
// stores — it is neither looked up nor stored in the journal or the
// cache, and the hit/miss accounting ignores it.
TEST(VerdictCache, UnhashedQueriesBypassJournalAndCache)
{
    std::string dir = tempPath("vc_unhashed");
    std::string journal_path = tempPath("vc_unhashed.r2uj");
    std::unordered_map<std::string, nl::CellId> empty_map;
    ConeDesign d(nl::CellKind::And);

    for (int round = 0; round < 2; round++) {
        bmc::VerdictStore journal;
        journal.openJournal(journal_path, 7, /*resume=*/true);
        bmc::VerdictStore cache;
        cache.openCache(dir);
        bmc::EngineOptions opts;
        opts.jobs = 1;
        opts.journal = &journal;
        opts.cache = &cache;
        bmc::Engine engine(d.n, empty_map, {}, 2, opts);

        bmc::Query q;
        q.name = "unhashed";
        q.contentHash = 0;
        nl::CellId reg = d.regs[0];
        uint64_t init = d.inits[0];
        q.prop = [reg, init](bmc::PropCtx &ctx) {
            auto &cnf = ctx.cnf();
            return ~cnf.mkEqW(ctx.unroller().wire(0, reg),
                              cnf.constWord(Bits(8, init)));
        };
        engine.enqueue(std::move(q));
        auto res = engine.drain();
        ASSERT_EQ(res.size(), 1u);
        EXPECT_EQ(res[0].verdict, bmc::Verdict::Proven);
        EXPECT_FALSE(res[0].fromJournal);
        EXPECT_FALSE(res[0].journaled);
        EXPECT_FALSE(res[0].fromCache);
        EXPECT_FALSE(res[0].cached);
        EXPECT_EQ(engine.stats().journalHits, 0u);
        EXPECT_EQ(engine.stats().journalAppends, 0u);
        EXPECT_EQ(engine.stats().cacheHits, 0u);
        EXPECT_EQ(engine.stats().cacheMisses, 0u);
        EXPECT_EQ(engine.stats().cacheAppends, 0u);
        EXPECT_EQ(journal.numLoaded(), 0u);
        EXPECT_EQ(cache.numLoaded(), 0u);
    }
}

// Single-writer flock (ISSUE 10 satellite): the second live opener of
// a shared --cache DIR degrades to read-only — lookups still served,
// appends silently refused — instead of interleaving frames with the
// writer. flock(2) is per open file description, so two opens in one
// process exercise the real conflict.
TEST(VerdictCache, SecondOpenerFallsBackToReadOnly)
{
    std::string dir = tempPath("vc_flock");
    bmc::VerdictStore writer;
    writer.openCache(dir);
    ASSERT_TRUE(writer.isOpen());
    EXPECT_FALSE(writer.readOnly());
    ASSERT_TRUE(
        writer.append(makeRecord(0x111, "a", bmc::Verdict::Proven, 3)));

    bmc::VerdictStore reader;
    reader.openCache(dir);
    EXPECT_TRUE(reader.isOpen());
    EXPECT_TRUE(reader.readOnly());
    // Cached verdicts are served...
    ASSERT_NE(reader.lookup(0x111), nullptr);
    EXPECT_EQ(reader.lookup(0x111)->name, "a");
    // ...but new ones are not stored, and the store stays untouched.
    uint64_t size = fs::file_size(writer.filePath());
    EXPECT_FALSE(
        reader.append(makeRecord(0x222, "b", bmc::Verdict::Refuted, 3)));
    EXPECT_EQ(reader.numAppended(), 0u);
    EXPECT_EQ(fs::file_size(writer.filePath()), size);

    // The writer is unaffected by the reader's existence.
    EXPECT_TRUE(
        writer.append(makeRecord(0x333, "c", bmc::Verdict::Proven, 3)));
}

TEST(VerdictCache, WriteLockReleasedOnClose)
{
    std::string dir = tempPath("vc_flock2");
    {
        bmc::VerdictStore writer;
        writer.openCache(dir);
        ASSERT_TRUE(writer.append(
            makeRecord(0x111, "a", bmc::Verdict::Proven, 3)));
    }
    bmc::VerdictStore next;
    next.openCache(dir);
    EXPECT_FALSE(next.readOnly());
    EXPECT_EQ(next.numLoaded(), 1u);
    EXPECT_TRUE(
        next.append(makeRecord(0x222, "b", bmc::Verdict::Refuted, 3)));
}
