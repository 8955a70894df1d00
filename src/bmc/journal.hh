/**
 * @file
 * Crash-safe append-only run journal for validated BMC verdicts.
 *
 * A synthesis run that is killed mid-flight loses hours of solver
 * work; the journal makes every *validated* definite verdict durable
 * the moment it is produced. Records are appended with write()+fsync()
 * under a mutex, each carrying its own FNV-1a checksum, so a crash at
 * any byte offset leaves at worst one torn record at the tail — the
 * loader detects it, drops it, and truncates the file back to the last
 * good offset. On --resume the engine answers journaled queries
 * without re-solving them.
 *
 * Format (all little-endian, native widths — the journal is a local
 * restart aid, not an interchange format):
 *
 *   header:  "R2UJ"  u32 version  u64 configHash
 *   record:  u32 payloadLen  u64 fnv1a(payload)  payload
 *   payload: u64 key  u64 baseKey  u8 verdict  u8 source  u8 flags
 *            u8 pad  u32 bound  u32 retries  f64 seconds
 *            u64 conflicts  u64 propagations
 *            u32 nameLen  name bytes
 *
 * flags bit0 = verdict was independently validated; bit1 = the proof
 * is unbounded (valid at every bound, indexed under baseKey for
 * bound-independent reuse). configHash binds
 * the journal to the producing configuration (the structural netlist
 * hash, bound, unroll mode — NOT --jobs: a run may resume at any
 * parallelism). Only Proven/Refuted verdicts are journaled; Unknowns
 * are cheap to reproduce and may resolve differently under different
 * budgets. Traces are not stored — a resumed Refuted verdict
 * re-solves only if its consumer needs the counterexample (synthesis
 * keeps the verdict).
 *
 * The same machinery powers the cross-run VerdictCache below: the
 * identical record codec in a directory-scoped file, but keyed purely
 * by query *content* (COI-slice + property + bound hash) instead of
 * being bound to one run's configuration.
 */

#ifndef R2U_BMC_JOURNAL_HH
#define R2U_BMC_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

#include <sys/types.h>

#include "bmc/checker.hh"

namespace r2u::bmc
{

/**
 * FNV-1a over a query's identity; the journal's lookup key.
 *
 * @p content_hash is the query's content-derived identity (hash of
 * its COI slice, property encoding, and bound — see nl::coneHash and
 * bmc::Query::contentHash). Mixing it into the key is what prevents
 * the classic stale-resume bug: an SVA whose template was edited but
 * whose name survived, or a same-named query over rewired logic, gets
 * a different key and simply misses instead of resurrecting the old
 * verdict. Callers without a content hash pass 0 and fall back to
 * name + bound keying (protected only by the journal's config hash).
 */
uint64_t journalKey(const std::string &name, unsigned bound,
                    uint64_t content_hash);

/**
 * Bound-independent sibling of journalKey(): the same FNV-1a chain
 * with the bound left out. Unbounded Proven verdicts (PDR frame
 * convergence) hold at *every* bound, so they are additionally indexed
 * under this key and can answer a later query for the same cone +
 * property at any bound (see lookupUnbounded).
 * Callers without a bound-independent content hash pass 0 and get no
 * unbounded reuse.
 */
uint64_t journalBaseKey(const std::string &name, uint64_t base_hash);

class Journal
{
  public:
    struct Record
    {
        uint64_t key = 0;
        /**
         * Bound-independent identity (journalBaseKey for the journal,
         * the raw Query::baseHash for the cache); 0 when the producer
         * had no bound-independent hash. Meaningful with `unbounded`:
         * it is the secondary index that lets the proof satisfy other
         * bounds.
         */
        uint64_t baseKey = 0;
        std::string name;
        Verdict verdict = Verdict::Unknown;
        VerdictSource source = VerdictSource::Solve;
        bool validated = false;
        /**
         * Proof generality: true for a Proven verdict valid at every
         * bound (PDR convergence), false for bound-specific verdicts.
         * Bounded records only ever answer an exact (name, bound,
         * content) key match.
         */
        bool unbounded = false;
        unsigned bound = 0;
        unsigned retries = 0;
        double seconds = 0.0;
        uint64_t conflicts = 0;
        uint64_t propagations = 0;
    };

    Journal() = default;
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /**
     * Open (creating if absent) a journal bound to @p config_hash.
     * With @p resume, existing records are loaded for lookup() and any
     * torn tail is truncated away; without it an existing file is
     * truncated to empty (a fresh run must not inherit stale
     * verdicts). fatal() on I/O errors or a header resume cannot use:
     * truncated, bad magic, another format version or another config
     * hash (a journal from a different design/bound/unroll mode must
     * never answer this run's queries).
     */
    void open(const std::string &path, uint64_t config_hash,
              bool resume);

    /**
     * Like open(resume=true) but takes an exclusive flock() on the
     * file first and returns false — leaving the journal closed —
     * when another live process already holds it, instead of letting
     * two writers interleave frames. Used by the service's shared
     * state directory, where a second daemon on the same --state DIR
     * should degrade to running journal-less, not corrupt the store.
     * A header it cannot resume from (truncated, bad magic, another
     * format version or another config hash) is not fatal here: no
     * user asked for this file, so it warns and starts the journal
     * fresh, as the VerdictCache does.
     */
    bool openShared(const std::string &path, uint64_t config_hash);

    bool isOpen() const { return fd_ >= 0; }

    /** True once an append failure disabled journaling for the run. */
    bool disabled() const { return disabled_; }

    /**
     * Test/chaos seam: intercept the next append's write(). The hook
     * receives the frame size about to be written and returns how
     * many bytes to actually put on disk before reporting failure
     * (a torn frame), or < 0 to let the write proceed untouched.
     * Persistent until replaced; clear with nullptr.
     */
    void setWriteFault(std::function<ssize_t(size_t)> hook);

    /** Records loaded from disk at open(resume=true) time. */
    size_t numLoaded() const { return loaded_.size(); }

    /** Look up a previously journaled verdict. nullptr if absent. */
    const Record *lookup(uint64_t key) const;

    /**
     * Look up an *unbounded Proven* verdict by its bound-independent
     * key (journalBaseKey). Only records flagged unbounded are indexed
     * here; a hit is valid for the same cone + property at any bound.
     * nullptr if absent.
     */
    const Record *lookupUnbounded(uint64_t base_key) const;

    /**
     * Durably append one validated verdict (write + fsync under a
     * mutex; safe from worker threads). Returns false (after a warn)
     * on I/O failure — the run continues, it just loses resumability.
     */
    bool append(const Record &rec);

    /** Records appended by *this* process (excludes loaded ones). */
    size_t numAppended() const { return appended_; }

  private:
    /** open(); @p lenient starts a mismatched header fresh. */
    void openImpl(const std::string &path, uint64_t config_hash,
                  bool resume, bool lenient);

    int fd_ = -1;
    /** Held open purely to keep an openShared() flock alive. */
    int lock_fd_ = -1;
    std::string path_;
    std::mutex mu_;
    std::unordered_map<uint64_t, Record> loaded_;
    /** baseKey -> unbounded Proven record (element pointers into
     *  loaded_ are stable: unordered_map is node-based). */
    std::unordered_map<uint64_t, const Record *> by_base_;
    size_t appended_ = 0;
    /** File offset after the last fully-durable frame; append
     *  failures roll the file back here so a partial frame can never
     *  poison the records behind it. */
    off_t end_ = 0;
    bool disabled_ = false;
    std::function<ssize_t(size_t)> write_fault_;
};

/**
 * Content-addressed, cross-run verdict cache (--cache DIR).
 *
 * Where the Journal is one run's linear restart log bound to a single
 * configuration hash, the cache is a shared store keyed purely by
 * query content: the caller keys each record by a hash of the query's
 * COI slice, property encoding, and bound (bmc::Query::contentHash),
 * so a verdict is reusable by *any* later run — same design, a
 * near-identical edit, a different job count — whose query hashes to
 * the same content. An RTL edit re-solves exactly the queries whose
 * cone content changed; everything else replays in microseconds.
 *
 * Storage is the journal's record codec in `<dir>/verdicts.r2uc`
 * ("R2UC" magic, no config binding — the keys self-validate).
 * Appends are write()+fsync() under a mutex; loading is *lenient*
 * where the journal is fatal: a bad magic/version starts the cache
 * fresh, and a torn or corrupt record ends the trusted region (it and
 * everything after it are dropped and truncated away, never trusted).
 * A cache can only ever cost re-solves, not soundness, so it must
 * never abort a run. Duplicate keys resolve to the newest record;
 * appending an already-present key is a durable no-op, so warm re-runs
 * do not grow the file. Only definite verdicts belong in the cache;
 * Unknowns are budget-dependent and are never stored.
 *
 * Concurrency: append() is thread-safe (worker threads); lookup() /
 * hasStaleEntry() lock the same mutex, and returned record pointers
 * stay valid for the cache's lifetime (node-based map).
 */
class VerdictCache
{
  public:
    VerdictCache() = default;
    ~VerdictCache();

    VerdictCache(const VerdictCache &) = delete;
    VerdictCache &operator=(const VerdictCache &) = delete;

    /**
     * Open (creating, including the directory, if absent) the cache
     * under @p dir. Existing records are loaded for lookup; corrupt
     * content is dropped as described above. fatal() only on I/O
     * errors that prevent the store from operating at all.
     */
    void open(const std::string &dir);

    bool isOpen() const { return fd_ >= 0; }

    /**
     * True when another process held the store's write lock at open()
     * time. A read-only cache still serves lookups (isOpen() stays
     * true) but append() is a silent no-op — the second opener of a
     * shared --cache DIR loses warm-write, never store integrity.
     */
    bool readOnly() const { return read_only_; }

    /** True once an append failure disabled caching for the run. */
    bool disabled() const { return disabled_; }

    /** Same torn-write test/chaos seam as Journal::setWriteFault. */
    void setWriteFault(std::function<ssize_t(size_t)> hook);

    /** Records loaded from disk at open() time (after dedup). */
    size_t numLoaded() const;

    /** Cached verdict for a content key. nullptr if absent. */
    const Journal::Record *lookup(uint64_t key) const;

    /**
     * Unbounded-Proven verdict for a bound-independent content key
     * (Query::baseHash). A hit is valid for the same cone + property
     * at any bound. nullptr if absent.
     */
    const Journal::Record *lookupUnbounded(uint64_t base_key) const;

    /**
     * True when the cache holds a record for the same (name, bound)
     * under a *different* content key — i.e. this query existed
     * before but its cone or property content changed since it was
     * cached. Purely diagnostic (distinguishes an invalidation from a
     * never-seen miss in the hit/miss accounting).
     */
    bool hasStaleEntry(const std::string &name, unsigned bound,
                       uint64_t key) const;

    /**
     * Durably append one definite verdict keyed by its content hash
     * (rec.key). Returns true when the record is durable in the cache
     * — including the already-present case, which writes nothing.
     * Returns false (after a warn) on I/O failure; the run continues.
     */
    bool append(const Journal::Record &rec);

    /** Records physically appended by *this* process. */
    size_t numAppended() const;

    const std::string &filePath() const { return path_; }

  private:
    int fd_ = -1;
    std::string path_;
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, Journal::Record> loaded_;
    /** name -> (bound, key) pairs seen, for invalidation accounting. */
    std::unordered_map<std::string,
                       std::vector<std::pair<unsigned, uint64_t>>>
        by_name_;
    /** baseKey -> unbounded Proven record (stable element pointers). */
    std::unordered_map<uint64_t, const Journal::Record *> by_base_;
    size_t appended_ = 0;
    /** Offset after the last durable frame (see Journal::end_). */
    off_t end_ = 0;
    bool read_only_ = false;
    bool disabled_ = false;
    std::function<ssize_t(size_t)> write_fault_;
};

} // namespace r2u::bmc

#endif // R2U_BMC_JOURNAL_HH
