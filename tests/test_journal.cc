/**
 * @file
 * Tests for the verdict store (bmc::VerdictStore). The journal and the
 * cache load and append through the same code, so one recovery suite
 * runs on both: round trips, the retired source code, torn-tail and
 * corrupt-record recovery, duplicate-append dedup and write-failure
 * rollback. The journal's own open policies follow: config-hash
 * binding, fatal headers on --resume, fresh-open truncation and the
 * single-writer lock of openJournal()/openShared(). The cache's
 * policies and the engine-level tests are in test_verdict_cache.cc.
 *
 * The format details (header size, record framing) are deliberately
 * not assumed beyond "appends grow the file" — corruption is injected
 * at offsets derived from observed file sizes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>

#include "bmc/journal.hh"
#include "common/logging.hh"

using namespace r2u;
namespace fs = std::filesystem;

namespace
{

constexpr uint64_t kHash = 0x5eed5eed12345678ull;

std::string
tempPath(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / name;
    fs::remove_all(p);
    return p.string();
}

bmc::VerdictStore::Record
makeRecord(uint64_t key, const std::string &name, bmc::Verdict verdict)
{
    bmc::VerdictStore::Record rec;
    rec.key = key;
    rec.name = name;
    rec.verdict = verdict;
    rec.source = bmc::VerdictSource::Solve;
    rec.validated = true;
    rec.bound = 3;
    rec.retries = 2;
    rec.seconds = 0.125;
    rec.conflicts = 42;
    rec.propagations = 4242;
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

/** Overwrite the u32 format version that follows the 4-byte magic. */
void
setVersion(const std::string &path, uint32_t version)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    char raw[4];
    for (unsigned i = 0; i < 4; i++)
        raw[i] = static_cast<char>(version >> (8 * i));
    f.seekp(4);
    f.write(raw, 4);
}

/** The u32 format version that follows the 4-byte magic. */
uint32_t
versionOf(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    unsigned char raw[8] = {};
    f.read(reinterpret_cast<char *>(raw), 8);
    return raw[4] | raw[5] << 8 | raw[6] << 16 |
           static_cast<uint32_t>(raw[7]) << 24;
}

enum class Kind { Journal, Cache };

/**
 * The recovery suite: each case runs on a resumed journal and on a
 * cache, which must recover identically.
 */
class StoreRecovery : public ::testing::TestWithParam<Kind>
{
  protected:
    void
    SetUp() override
    {
        // "Case/journal" -> "Case_journal": one file or directory per
        // case and kind.
        std::string name =
            ::testing::UnitTest::GetInstance()->current_test_info()->name();
        std::replace(name.begin(), name.end(), '/', '_');
        path_ = tempPath(name);
        file_ = GetParam() == Kind::Journal ? path_
                                            : path_ + "/verdicts.r2uc";
    }

    /** (Re)open @p s the way its kind is reopened by a later run. */
    void
    open(bmc::VerdictStore &s) const
    {
        if (GetParam() == Kind::Journal)
            s.openJournal(path_, kHash, /*resume=*/true);
        else
            s.openCache(path_);
        ASSERT_TRUE(s.isOpen());
    }

    /** The record file itself. */
    const std::string &file() const { return file_; }

  private:
    std::string path_;
    std::string file_;
};

} // namespace

TEST_P(StoreRecovery, RoundTripPersistsRecords)
{
    {
        bmc::VerdictStore s;
        open(s);
        EXPECT_EQ(s.numLoaded(), 0u);
        EXPECT_TRUE(s.append(makeRecord(0x111, "a", bmc::Verdict::Proven)));
        EXPECT_TRUE(
            s.append(makeRecord(0x222, "b", bmc::Verdict::Refuted)));
        EXPECT_EQ(s.numAppended(), 2u);
    } // destructor closes the fd; the data must already be durable

    {
        bmc::VerdictStore s;
        open(s);
        EXPECT_EQ(s.numLoaded(), 2u);
        ASSERT_NE(s.lookup(0x111), nullptr);
        ASSERT_NE(s.lookup(0x222), nullptr);
        EXPECT_EQ(s.lookup(0x333), nullptr);

        const bmc::VerdictStore::Record &a = *s.lookup(0x111);
        EXPECT_EQ(a.name, "a");
        EXPECT_EQ(a.verdict, bmc::Verdict::Proven);
        EXPECT_EQ(a.source, bmc::VerdictSource::Solve);
        EXPECT_TRUE(a.validated);
        EXPECT_EQ(a.bound, 3u);
        EXPECT_EQ(a.retries, 2u);
        EXPECT_DOUBLE_EQ(a.seconds, 0.125);
        EXPECT_EQ(a.conflicts, 42u);
        EXPECT_EQ(a.propagations, 4242u);
        EXPECT_EQ(s.lookup(0x222)->verdict, bmc::Verdict::Refuted);

        // A reopened store accepts further appends, and a later open
        // sees the union.
        EXPECT_TRUE(
            s.append(makeRecord(0x333, "c", bmc::Verdict::Proven)));
    }
    bmc::VerdictStore s;
    open(s);
    EXPECT_EQ(s.numLoaded(), 3u);
}

// Source bytes are an on-disk format. Race must stay 10 now that code
// 9 is retired, and a record carrying 9 (written by a build that still
// had it) must load as Solve instead of ending the load as a torn
// tail that drops every later record.
TEST_P(StoreRecovery, RetiredSourceCodeLoadsAsSolve)
{
    {
        bmc::VerdictStore s;
        open(s);
        auto retired = makeRecord(0x901, "retired", bmc::Verdict::Proven);
        retired.source = static_cast<bmc::VerdictSource>(9);
        auto race = makeRecord(0xa01, "race", bmc::Verdict::Proven);
        race.source = bmc::VerdictSource::Race;
        ASSERT_TRUE(s.append(retired));
        ASSERT_TRUE(s.append(race));
        ASSERT_TRUE(
            s.append(makeRecord(0xb01, "after", bmc::Verdict::Refuted)));
    }
    EXPECT_EQ(static_cast<uint8_t>(bmc::VerdictSource::Race), 10u);

    bmc::VerdictStore s;
    open(s);
    EXPECT_EQ(s.numLoaded(), 3u);
    ASSERT_NE(s.lookup(0x901), nullptr);
    EXPECT_EQ(s.lookup(0x901)->source, bmc::VerdictSource::Solve);
    ASSERT_NE(s.lookup(0xa01), nullptr);
    EXPECT_EQ(s.lookup(0xa01)->source, bmc::VerdictSource::Race);
    ASSERT_NE(s.lookup(0xb01), nullptr);
    EXPECT_EQ(s.lookup(0xb01)->verdict, bmc::Verdict::Refuted);
}

// A run killed mid-append leaves a torn record at the tail; it must
// be dropped and the file repaired so later appends land cleanly.
TEST_P(StoreRecovery, TornTailIsDroppedAndRepaired)
{
    uint64_t size_after_two = 0;
    {
        bmc::VerdictStore s;
        open(s);
        s.append(makeRecord(0x111, "a", bmc::Verdict::Proven));
        s.append(makeRecord(0x222, "b", bmc::Verdict::Refuted));
        size_after_two = fs::file_size(file());
        s.append(makeRecord(0x333, "c", bmc::Verdict::Proven));
    }

    // Simulate a kill mid-write of the third record: chop a few bytes
    // off the tail.
    fs::resize_file(file(), fs::file_size(file()) - 5);

    {
        bmc::VerdictStore s;
        open(s);
        EXPECT_EQ(s.numLoaded(), 2u);
        EXPECT_NE(s.lookup(0x111), nullptr);
        EXPECT_NE(s.lookup(0x222), nullptr);
        EXPECT_EQ(s.lookup(0x333), nullptr);
        // The torn bytes are gone for good: the file is truncated back
        // to the last durable record, so the next append lands cleanly.
        EXPECT_EQ(fs::file_size(file()), size_after_two);
        EXPECT_TRUE(
            s.append(makeRecord(0x444, "d", bmc::Verdict::Proven)));
    }

    bmc::VerdictStore s;
    open(s);
    EXPECT_EQ(s.numLoaded(), 3u);
    EXPECT_NE(s.lookup(0x444), nullptr);
}

// A corrupt byte inside a record fails its checksum. Appends are
// ordered, so that record and everything after it are suspect: all
// are dropped, never replayed as verdicts.
TEST_P(StoreRecovery, CorruptRecordDropsItAndSuccessors)
{
    uint64_t size_after_one = 0;
    {
        bmc::VerdictStore s;
        open(s);
        s.append(makeRecord(0x111, "a", bmc::Verdict::Proven));
        size_after_one = fs::file_size(file());
        s.append(makeRecord(0x222, "b", bmc::Verdict::Refuted));
        s.append(makeRecord(0x333, "c", bmc::Verdict::Proven));
    }

    // One payload byte inside record "b", well past its length +
    // checksum framing.
    flipByte(file(), size_after_one + 14);

    bmc::VerdictStore s;
    open(s);
    EXPECT_EQ(s.numLoaded(), 1u);
    EXPECT_NE(s.lookup(0x111), nullptr);
    EXPECT_EQ(s.lookup(0x222), nullptr);
    EXPECT_EQ(s.lookup(0x333), nullptr);
    EXPECT_EQ(fs::file_size(file()), size_after_one);
}

// Appending a key the store already holds is a durable no-op: the
// file must not grow (shared caches and daemon journals would
// otherwise bloat on every warm run) and the entry count must not
// change.
TEST_P(StoreRecovery, DuplicateAppendIsDeduplicated)
{
    uint64_t size_after_one = 0;
    {
        bmc::VerdictStore s;
        open(s);
        ASSERT_TRUE(
            s.append(makeRecord(0x111, "a", bmc::Verdict::Proven)));
        size_after_one = fs::file_size(file());

        EXPECT_TRUE(
            s.append(makeRecord(0x111, "a", bmc::Verdict::Proven)));
        EXPECT_EQ(fs::file_size(file()), size_after_one);
        EXPECT_EQ(s.numAppended(), 1u);
    } // close: the single-writer flock must be released for the reopen

    bmc::VerdictStore s;
    open(s);
    EXPECT_EQ(s.numLoaded(), 1u);
    // Dedup also applies to entries loaded from disk, not only to
    // this process's own appends.
    EXPECT_TRUE(s.append(makeRecord(0x111, "a", bmc::Verdict::Proven)));
    EXPECT_EQ(s.numAppended(), 0u);
    EXPECT_EQ(fs::file_size(file()), size_after_one);
}

// A failed append (a crash or full disk mid-frame; the daemon's chaos
// "torn") must roll the file back to the last durable frame and
// disable the store for the rest of the run — never leave a partial
// frame for the next load to trip over.
TEST_P(StoreRecovery, WriteFailureRollsBackAndDisables)
{
    {
        bmc::VerdictStore s;
        open(s);
        ASSERT_TRUE(
            s.append(makeRecord(0x111, "a", bmc::Verdict::Proven)));
        uint64_t size_after_one = fs::file_size(file());

        // Tear the next append halfway through its frame.
        s.setWriteFault([](size_t n) {
            return static_cast<ssize_t>(n / 2);
        });
        EXPECT_FALSE(
            s.append(makeRecord(0x222, "b", bmc::Verdict::Refuted)));
        EXPECT_TRUE(s.disabled());
        // Rolled back: the torn frame is gone from disk.
        EXPECT_EQ(fs::file_size(file()), size_after_one);

        // Disabled means disabled — even with the fault cleared, no
        // further record may land (the store is no longer trusted).
        s.setWriteFault(nullptr);
        EXPECT_FALSE(
            s.append(makeRecord(0x333, "c", bmc::Verdict::Proven)));
        EXPECT_EQ(s.numAppended(), 1u);
        // Lookups keep working from memory after the store degrades.
        EXPECT_NE(s.lookup(0x111), nullptr);
    }

    // The surviving prefix loads cleanly.
    bmc::VerdictStore s;
    open(s);
    EXPECT_EQ(s.numLoaded(), 1u);
    EXPECT_NE(s.lookup(0x111), nullptr);
    EXPECT_EQ(s.lookup(0x222), nullptr);
}

INSTANTIATE_TEST_SUITE_P(
    Stores, StoreRecovery, ::testing::Values(Kind::Journal, Kind::Cache),
    [](const ::testing::TestParamInfo<Kind> &info) {
        return info.param == Kind::Journal ? "journal" : "cache";
    });

// An SVA whose template was edited — or whose cone was rewired — keeps
// its name and bound but gets a different content hash, which is the
// key: --resume must miss instead of resurrecting the old verdict for
// a different question.
TEST(Journal, EditedContentMissesOnResume)
{
    constexpr uint64_t kContent = 0xc0de1234abcd5678ull;
    std::string path = tempPath("edited.bin");
    {
        bmc::VerdictStore j;
        j.openJournal(path, kHash, false);
        j.append(makeRecord(kContent, "sva_a", bmc::Verdict::Proven));
    }
    bmc::VerdictStore j;
    j.openJournal(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 1u);
    EXPECT_NE(j.lookup(kContent), nullptr);
    EXPECT_EQ(j.lookup(kContent ^ 1), nullptr);
}

TEST(Journal, FreshOpenDiscardsExistingRecords)
{
    std::string path = tempPath("fresh.bin");
    {
        bmc::VerdictStore j;
        j.openJournal(path, kHash, false);
        j.append(makeRecord(0x111, "stale", bmc::Verdict::Proven));
    }
    {
        // A fresh (non-resume) run must not inherit stale verdicts.
        bmc::VerdictStore j;
        j.openJournal(path, kHash, false);
        EXPECT_EQ(j.numLoaded(), 0u);
    }
    bmc::VerdictStore j;
    j.openJournal(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 0u);
    EXPECT_EQ(j.lookup(0x111), nullptr);
}

TEST(Journal, ConfigHashMismatchIsFatal)
{
    std::string path = tempPath("hash.bin");
    {
        bmc::VerdictStore j;
        j.openJournal(path, kHash, false);
        j.append(makeRecord(0x111, "a", bmc::Verdict::Proven));
    }
    // A journal from a different design/bound/unroll configuration
    // must never answer this run's queries.
    bmc::VerdictStore j;
    EXPECT_THROW(j.openJournal(path, kHash + 1, true), FatalError);
    EXPECT_FALSE(j.isOpen());
}

TEST(Journal, BadMagicIsFatal)
{
    std::string path = tempPath("magic.bin");
    {
        bmc::VerdictStore j;
        j.openJournal(path, kHash, false);
    }
    flipByte(path, 0);
    bmc::VerdictStore j;
    EXPECT_THROW(j.openJournal(path, kHash, true), FatalError);
}

// A journal written by an older format must not be resumed: its keys
// were computed by other hash functions. --resume names both versions.
TEST(Journal, OlderVersionIsFatal)
{
    std::string path = tempPath("older.bin");
    {
        bmc::VerdictStore j;
        j.openJournal(path, kHash, false);
        j.append(makeRecord(0x111, "a", bmc::Verdict::Proven));
    }
    uint32_t current = versionOf(path);
    ASSERT_GT(current, 1u);
    setVersion(path, current - 1);
    bmc::VerdictStore j;
    try {
        j.openJournal(path, kHash, true);
        FAIL() << "an older-version journal was resumed";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("version " + std::to_string(current - 1)),
                  std::string::npos)
            << msg;
        EXPECT_NE(msg.find("expected " + std::to_string(current)),
                  std::string::npos)
            << msg;
    }
}

// The daemon's per-design journal has no user to blame for a stale
// file: openShared() warns, starts it fresh under the current
// version, and journals on.
TEST(Journal, OpenSharedOlderVersionStartsFresh)
{
    std::string path = tempPath("shared_older.bin");
    {
        bmc::VerdictStore j;
        ASSERT_TRUE(j.openShared(path, kHash));
        ASSERT_TRUE(j.append(makeRecord(0x111, "a", bmc::Verdict::Proven)));
    }
    uint32_t current = versionOf(path);
    setVersion(path, current - 1);
    {
        bmc::VerdictStore j;
        ASSERT_TRUE(j.openShared(path, kHash));
        EXPECT_TRUE(j.isOpen());
        EXPECT_EQ(j.numLoaded(), 0u);
        EXPECT_EQ(j.lookup(0x111), nullptr);
        EXPECT_TRUE(
            j.append(makeRecord(0x222, "b", bmc::Verdict::Refuted)));
    }
    EXPECT_EQ(versionOf(path), current);
    bmc::VerdictStore j;
    j.openJournal(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 1u);
    EXPECT_NE(j.lookup(0x222), nullptr);
}

TEST(Journal, ResumeOnAbsentFileStartsFresh)
{
    std::string path = tempPath("absent.bin");
    {
        bmc::VerdictStore j;
        j.openJournal(path, kHash, true);
        EXPECT_TRUE(j.isOpen());
        EXPECT_EQ(j.numLoaded(), 0u);
        EXPECT_TRUE(
            j.append(makeRecord(0x111, "a", bmc::Verdict::Proven)));
    }
    bmc::VerdictStore j;
    j.openJournal(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 1u);
}

// Even if the rollback itself fails, a torn tail is self-healing: the
// resume loader drops it. Simulate by appending a frame header with a
// garbage payload out of band, as a failed rollback would leave it.
TEST(Journal, TornFrameWithoutRollbackStillRecovers)
{
    std::string path = tempPath("wfail2.bin");
    {
        bmc::VerdictStore j;
        j.openJournal(path, kHash, false);
        ASSERT_TRUE(j.append(makeRecord(0x111, "a", bmc::Verdict::Proven)));
    }
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f.write("\x20\x00\x00\x00garbage", 11);
    f.close();

    bmc::VerdictStore j;
    j.openJournal(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 1u);
    EXPECT_NE(j.lookup(0x111), nullptr);
}

// --journal has a single writer: a second run on the same file while
// the first is live is an error, raised before anything is truncated.
// flock(2) is per open file description, so two opens in one process
// exercise the real conflict path.
TEST(Journal, SecondWriterIsRefused)
{
    std::string path = tempPath("second_writer.bin");
    auto first = std::make_unique<bmc::VerdictStore>();
    first->openJournal(path, kHash, false);
    ASSERT_TRUE(
        first->append(makeRecord(0x111, "a", bmc::Verdict::Proven)));
    uint64_t size = fs::file_size(path);

    for (bool resume : {false, true}) {
        bmc::VerdictStore second;
        try {
            second.openJournal(path, kHash, resume);
            FAIL() << "a second writer opened a live journal";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("another writer"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_FALSE(second.isOpen());
        EXPECT_EQ(fs::file_size(path), size);
    }

    // The first writer is untouched and its records still load.
    EXPECT_TRUE(
        first->append(makeRecord(0x222, "b", bmc::Verdict::Refuted)));
    first.reset();
    bmc::VerdictStore next;
    next.openJournal(path, kHash, true);
    EXPECT_EQ(next.numLoaded(), 2u);
}

// openShared(): the first opener takes the write lock and resumes; a
// second live opener must be refused (returns false, store closed)
// instead of interleaving frames with the first.
TEST(Journal, OpenSharedSingleWriter)
{
    std::string path = tempPath("shared.bin");
    bmc::VerdictStore first;
    ASSERT_TRUE(first.openShared(path, kHash));
    EXPECT_TRUE(first.isOpen());
    EXPECT_TRUE(
        first.append(makeRecord(0x111, "a", bmc::Verdict::Proven)));

    bmc::VerdictStore second;
    EXPECT_FALSE(second.openShared(path, kHash));
    EXPECT_FALSE(second.isOpen());
    // The loser runs journal-less: appends are refused, not fatal.
    EXPECT_FALSE(
        second.append(makeRecord(0x222, "b", bmc::Verdict::Proven)));
}

// The lock dies with its holder: once the first opener closes, a new
// openShared() wins the lock and resumes the existing records.
TEST(Journal, OpenSharedLockReleasedOnClose)
{
    std::string path = tempPath("shared2.bin");
    {
        bmc::VerdictStore first;
        ASSERT_TRUE(first.openShared(path, kHash));
        ASSERT_TRUE(
            first.append(makeRecord(0x111, "a", bmc::Verdict::Proven)));
    }
    bmc::VerdictStore next;
    ASSERT_TRUE(next.openShared(path, kHash));
    EXPECT_EQ(next.numLoaded(), 1u);
    EXPECT_NE(next.lookup(0x111), nullptr);
}
