/**
 * @file
 * Tests for the crash-safe run journal: append/resume round-trips,
 * torn-tail recovery (a simulated mid-write kill), checksum-mismatch
 * rejection, config-hash binding, and fresh-open truncation. The
 * format details (header size, record framing) are deliberately not
 * assumed beyond "appends grow the file" — corruption is injected at
 * offsets derived from observed file sizes.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>

#include "bmc/journal.hh"
#include "common/logging.hh"

using namespace r2u;
namespace fs = std::filesystem;

namespace
{

constexpr uint64_t kHash = 0x5eed5eed12345678ull;
/** Stand-in per-query content hash for records in these tests. */
constexpr uint64_t kContent = 0xc0de1234abcd5678ull;

uint64_t
key(const std::string &name, unsigned bound)
{
    return bmc::journalKey(name, bound, kContent);
}

std::string
tempJournal(const std::string &name)
{
    fs::path p = fs::path(::testing::TempDir()) / name;
    fs::remove(p);
    return p.string();
}

bmc::Journal::Record
makeRecord(const std::string &name, unsigned bound,
           bmc::Verdict verdict)
{
    bmc::Journal::Record rec;
    rec.key = key(name, bound);
    rec.name = name;
    rec.verdict = verdict;
    rec.source = bmc::VerdictSource::Solve;
    rec.validated = true;
    rec.bound = bound;
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

} // namespace

TEST(Journal, KeyIsDeterministicAndDiscriminates)
{
    EXPECT_EQ(bmc::journalKey("sva_a", 14, 7),
              bmc::journalKey("sva_a", 14, 7));
    EXPECT_NE(bmc::journalKey("sva_a", 14, 7),
              bmc::journalKey("sva_b", 14, 7));
    EXPECT_NE(bmc::journalKey("sva_a", 14, 7),
              bmc::journalKey("sva_a", 15, 7));
    EXPECT_NE(bmc::journalKey("", 0, 0), 0u);
}

// The stale-resume regression (ISSUE 8): an SVA whose template was
// edited — or whose cone was rewired — keeps its name and bound but
// gets a different content hash, and the key MUST change with it, or
// --resume resurrects the old verdict for a different question.
TEST(Journal, KeyIncludesContentHash)
{
    EXPECT_NE(bmc::journalKey("sva_a", 14, 1),
              bmc::journalKey("sva_a", 14, 2));
    // The unhashed fallback (0) is distinct from any hashed key.
    EXPECT_NE(bmc::journalKey("sva_a", 14, 0),
              bmc::journalKey("sva_a", 14, 1));
}

// End-to-end: a journal written with one content hash answers nothing
// when the same query resumes with an edited property/cone.
TEST(Journal, EditedContentMissesOnResume)
{
    std::string path = tempJournal("edited.bin");
    {
        bmc::Journal j;
        j.open(path, kHash, false);
        j.append(makeRecord("sva_a", 14, bmc::Verdict::Proven));
    }
    bmc::Journal j;
    j.open(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 1u);
    EXPECT_NE(j.lookup(bmc::journalKey("sva_a", 14, kContent)),
              nullptr);
    EXPECT_EQ(j.lookup(bmc::journalKey("sva_a", 14, kContent ^ 1)),
              nullptr);
}

TEST(Journal, RoundTripPersistsRecords)
{
    std::string path = tempJournal("roundtrip.bin");
    uint64_t key_a = key("a", 3);
    uint64_t key_b = key("b", 3);

    {
        bmc::Journal j;
        j.open(path, kHash, /*resume=*/false);
        ASSERT_TRUE(j.isOpen());
        EXPECT_EQ(j.numLoaded(), 0u);
        EXPECT_TRUE(j.append(makeRecord("a", 3, bmc::Verdict::Proven)));
        EXPECT_TRUE(j.append(makeRecord("b", 3, bmc::Verdict::Refuted)));
        EXPECT_EQ(j.numAppended(), 2u);
    } // destructor closes the fd; the data must already be durable

    bmc::Journal j;
    j.open(path, kHash, /*resume=*/true);
    EXPECT_EQ(j.numLoaded(), 2u);
    ASSERT_NE(j.lookup(key_a), nullptr);
    ASSERT_NE(j.lookup(key_b), nullptr);
    EXPECT_EQ(j.lookup(key("c", 3)), nullptr);

    const bmc::Journal::Record &a = *j.lookup(key_a);
    EXPECT_EQ(a.name, "a");
    EXPECT_EQ(a.verdict, bmc::Verdict::Proven);
    EXPECT_EQ(a.source, bmc::VerdictSource::Solve);
    EXPECT_TRUE(a.validated);
    EXPECT_EQ(a.bound, 3u);
    EXPECT_EQ(a.retries, 2u);
    EXPECT_DOUBLE_EQ(a.seconds, 0.125);
    EXPECT_EQ(a.conflicts, 42u);
    EXPECT_EQ(a.propagations, 4242u);
    EXPECT_EQ(j.lookup(key_b)->verdict, bmc::Verdict::Refuted);

    // A resumed journal accepts further appends, and a later resume
    // sees the union.
    EXPECT_TRUE(j.append(makeRecord("c", 3, bmc::Verdict::Proven)));
    bmc::Journal j2;
    j2.open(path, kHash, /*resume=*/true);
    EXPECT_EQ(j2.numLoaded(), 3u);
}

TEST(Journal, FreshOpenDiscardsExistingRecords)
{
    std::string path = tempJournal("fresh.bin");
    {
        bmc::Journal j;
        j.open(path, kHash, false);
        j.append(makeRecord("stale", 3, bmc::Verdict::Proven));
    }
    {
        // A fresh (non-resume) run must not inherit stale verdicts.
        bmc::Journal j;
        j.open(path, kHash, false);
        EXPECT_EQ(j.numLoaded(), 0u);
    }
    bmc::Journal j;
    j.open(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 0u);
    EXPECT_EQ(j.lookup(key("stale", 3)), nullptr);
}

TEST(Journal, TruncatedTailIsDroppedAndRepaired)
{
    std::string path = tempJournal("torn.bin");
    uint64_t size_after_two = 0;
    {
        bmc::Journal j;
        j.open(path, kHash, false);
        j.append(makeRecord("a", 3, bmc::Verdict::Proven));
        j.append(makeRecord("b", 3, bmc::Verdict::Refuted));
        size_after_two = fs::file_size(path);
        j.append(makeRecord("c", 3, bmc::Verdict::Proven));
    }

    // Simulate a kill mid-write of the third record: chop a few bytes
    // off the tail.
    fs::resize_file(path, fs::file_size(path) - 5);

    {
        bmc::Journal j;
        j.open(path, kHash, true);
        EXPECT_EQ(j.numLoaded(), 2u);
        EXPECT_NE(j.lookup(key("a", 3)), nullptr);
        EXPECT_NE(j.lookup(key("b", 3)), nullptr);
        EXPECT_EQ(j.lookup(key("c", 3)), nullptr);
        // The torn bytes are gone for good: the file is truncated back
        // to the last durable record, so the next append lands cleanly.
        EXPECT_EQ(fs::file_size(path), size_after_two);
        EXPECT_TRUE(j.append(makeRecord("d", 3, bmc::Verdict::Proven)));
    }

    bmc::Journal j;
    j.open(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 3u);
    EXPECT_NE(j.lookup(key("d", 3)), nullptr);
}

TEST(Journal, ChecksumMismatchDropsRecordAndSuccessors)
{
    std::string path = tempJournal("corrupt.bin");
    uint64_t size_after_one = 0;
    uint64_t size_after_two = 0;
    {
        bmc::Journal j;
        j.open(path, kHash, false);
        j.append(makeRecord("a", 3, bmc::Verdict::Proven));
        size_after_one = fs::file_size(path);
        j.append(makeRecord("b", 3, bmc::Verdict::Refuted));
        size_after_two = fs::file_size(path);
        j.append(makeRecord("c", 3, bmc::Verdict::Proven));
    }

    // Flip one payload byte inside record "b" (well past its length +
    // checksum framing). Appends are ordered, so everything at and
    // after the corruption is suspect and must be dropped.
    flipByte(path, size_after_one + 14);

    bmc::Journal j;
    j.open(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 1u);
    EXPECT_NE(j.lookup(key("a", 3)), nullptr);
    EXPECT_EQ(j.lookup(key("b", 3)), nullptr);
    EXPECT_EQ(j.lookup(key("c", 3)), nullptr);
    EXPECT_EQ(fs::file_size(path), size_after_one);
    (void)size_after_two;
}

TEST(Journal, ConfigHashMismatchIsFatal)
{
    std::string path = tempJournal("hash.bin");
    {
        bmc::Journal j;
        j.open(path, kHash, false);
        j.append(makeRecord("a", 3, bmc::Verdict::Proven));
    }
    // A journal from a different design/bound/unroll configuration
    // must never answer this run's queries.
    bmc::Journal j;
    EXPECT_THROW(j.open(path, kHash + 1, true), FatalError);
}

TEST(Journal, BadMagicIsFatal)
{
    std::string path = tempJournal("magic.bin");
    {
        bmc::Journal j;
        j.open(path, kHash, false);
    }
    flipByte(path, 0);
    bmc::Journal j;
    EXPECT_THROW(j.open(path, kHash, true), FatalError);
}

// A journal written by an older format must not be resumed: its keys
// were computed by other hash functions. --resume names both versions.
TEST(Journal, OlderVersionIsFatal)
{
    std::string path = tempJournal("older.bin");
    {
        bmc::Journal j;
        j.open(path, kHash, false);
        j.append(makeRecord("a", 3, bmc::Verdict::Proven));
    }
    uint32_t current = versionOf(path);
    ASSERT_GT(current, 1u);
    setVersion(path, current - 1);
    bmc::Journal j;
    try {
        j.open(path, kHash, true);
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
    std::string path = tempJournal("shared_older.bin");
    {
        bmc::Journal j;
        ASSERT_TRUE(j.openShared(path, kHash));
        ASSERT_TRUE(j.append(makeRecord("a", 3, bmc::Verdict::Proven)));
    }
    uint32_t current = versionOf(path);
    setVersion(path, current - 1);
    {
        bmc::Journal j;
        ASSERT_TRUE(j.openShared(path, kHash));
        EXPECT_TRUE(j.isOpen());
        EXPECT_EQ(j.numLoaded(), 0u);
        EXPECT_EQ(j.lookup(key("a", 3)), nullptr);
        EXPECT_TRUE(j.append(makeRecord("b", 3, bmc::Verdict::Refuted)));
    }
    EXPECT_EQ(versionOf(path), current);
    bmc::Journal j;
    j.open(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 1u);
    EXPECT_NE(j.lookup(key("b", 3)), nullptr);
}

TEST(Journal, ResumeOnAbsentFileStartsFresh)
{
    std::string path = tempJournal("absent.bin");
    bmc::Journal j;
    j.open(path, kHash, true);
    EXPECT_TRUE(j.isOpen());
    EXPECT_EQ(j.numLoaded(), 0u);
    EXPECT_TRUE(j.append(makeRecord("a", 3, bmc::Verdict::Proven)));

    bmc::Journal j2;
    j2.open(path, kHash, true);
    EXPECT_EQ(j2.numLoaded(), 1u);
}

// A failed append must roll the file back to the last durable frame
// and disable journaling for the rest of the run — never leave a
// partial frame for the next resume to trip over (ISSUE 10 satellite).
TEST(Journal, WriteFailureRollsBackAndDisables)
{
    std::string path = tempJournal("wfail.bin");
    uint64_t size_after_one = 0;
    {
        bmc::Journal j;
        j.open(path, kHash, false);
        ASSERT_TRUE(j.append(makeRecord("a", 3, bmc::Verdict::Proven)));
        size_after_one = fs::file_size(path);

        // Tear the next append halfway through its frame.
        j.setWriteFault([](size_t n) {
            return static_cast<ssize_t>(n / 2);
        });
        EXPECT_FALSE(
            j.append(makeRecord("b", 3, bmc::Verdict::Refuted)));
        EXPECT_TRUE(j.disabled());
        // Rolled back: the torn frame is gone from disk.
        EXPECT_EQ(fs::file_size(path), size_after_one);

        // Disabled means disabled — even with the fault cleared, no
        // further record may land (the store is no longer trusted).
        j.setWriteFault(nullptr);
        EXPECT_FALSE(
            j.append(makeRecord("c", 3, bmc::Verdict::Proven)));
        EXPECT_EQ(j.numAppended(), 1u);
    }

    // The surviving prefix resumes cleanly.
    bmc::Journal j;
    j.open(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 1u);
    EXPECT_NE(j.lookup(key("a", 3)), nullptr);
    EXPECT_EQ(j.lookup(key("b", 3)), nullptr);
}

// Even if the rollback itself fails, a torn tail is self-healing: the
// resume loader drops it. Simulate by tearing a frame, then bypassing
// the journal's own repair with an out-of-band resize to the torn end.
TEST(Journal, TornFrameWithoutRollbackStillRecovers)
{
    std::string path = tempJournal("wfail2.bin");
    uint64_t torn_size = 0;
    {
        bmc::Journal j;
        j.open(path, kHash, false);
        ASSERT_TRUE(j.append(makeRecord("a", 3, bmc::Verdict::Proven)));
        uint64_t good = fs::file_size(path);
        j.setWriteFault([](size_t n) {
            return static_cast<ssize_t>(n - 3);
        });
        EXPECT_FALSE(
            j.append(makeRecord("b", 3, bmc::Verdict::Refuted)));
        torn_size = good;
        (void)torn_size;
    }
    // Re-create the torn state the rollback would have repaired.
    {
        bmc::Journal j;
        j.open(path, kHash, false);
        ASSERT_TRUE(j.append(makeRecord("a", 3, bmc::Verdict::Proven)));
    }
    std::ofstream f(path, std::ios::app | std::ios::binary);
    f.write("\x20\x00\x00\x00garbage", 11);
    f.close();

    bmc::Journal j;
    j.open(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 1u);
    EXPECT_NE(j.lookup(key("a", 3)), nullptr);
}

// openShared(): the first opener takes the write lock and resumes; a
// second live opener must be refused (returns false, journal closed)
// instead of interleaving frames with the first. flock(2) is per open
// file description, so two opens in one process exercise the real
// conflict path.
TEST(Journal, OpenSharedSingleWriter)
{
    std::string path = tempJournal("shared.bin");
    bmc::Journal first;
    ASSERT_TRUE(first.openShared(path, kHash));
    EXPECT_TRUE(first.isOpen());
    EXPECT_TRUE(
        first.append(makeRecord("a", 3, bmc::Verdict::Proven)));

    bmc::Journal second;
    EXPECT_FALSE(second.openShared(path, kHash));
    EXPECT_FALSE(second.isOpen());
    // The loser runs journal-less: appends are refused, not fatal.
    EXPECT_FALSE(
        second.append(makeRecord("b", 3, bmc::Verdict::Proven)));
}

// The lock dies with its holder: once the first opener closes, a new
// openShared() wins the lock and resumes the existing records.
TEST(Journal, OpenSharedLockReleasedOnClose)
{
    std::string path = tempJournal("shared2.bin");
    {
        bmc::Journal first;
        ASSERT_TRUE(first.openShared(path, kHash));
        ASSERT_TRUE(
            first.append(makeRecord("a", 3, bmc::Verdict::Proven)));
    }
    bmc::Journal next;
    ASSERT_TRUE(next.openShared(path, kHash));
    EXPECT_EQ(next.numLoaded(), 1u);
    EXPECT_NE(next.lookup(key("a", 3)), nullptr);
}

// Source bytes are an on-disk format. Race must stay 10 now that code
// 9 is retired, and a record carrying 9 (written by a build that still
// had it) must load as Solve instead of ending the load as a torn
// tail that drops every later record.
TEST(Journal, RetiredSourceCodeLoadsAsSolve)
{
    std::string path = tempJournal("sources.bin");
    {
        bmc::Journal j;
        j.open(path, kHash, false);
        auto retired = makeRecord("retired", 3, bmc::Verdict::Proven);
        retired.source = static_cast<bmc::VerdictSource>(9);
        auto race = makeRecord("race", 3, bmc::Verdict::Proven);
        race.source = bmc::VerdictSource::Race;
        ASSERT_TRUE(j.append(retired));
        ASSERT_TRUE(j.append(race));
        ASSERT_TRUE(
            j.append(makeRecord("after", 3, bmc::Verdict::Refuted)));
    }
    EXPECT_EQ(static_cast<uint8_t>(bmc::VerdictSource::Race), 10u);

    bmc::Journal j;
    j.open(path, kHash, true);
    EXPECT_EQ(j.numLoaded(), 3u);
    ASSERT_NE(j.lookup(key("retired", 3)), nullptr);
    EXPECT_EQ(j.lookup(key("retired", 3))->source,
              bmc::VerdictSource::Solve);
    ASSERT_NE(j.lookup(key("race", 3)), nullptr);
    EXPECT_EQ(j.lookup(key("race", 3))->source,
              bmc::VerdictSource::Race);
    ASSERT_NE(j.lookup(key("after", 3)), nullptr);
    EXPECT_EQ(j.lookup(key("after", 3))->verdict, bmc::Verdict::Refuted);
}
