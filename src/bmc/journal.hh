/**
 * @file
 * Crash-safe verdict store: the run journal and the verdict cache.
 *
 * Every validated definite verdict is made durable the moment it is
 * produced, keyed by its query's content hash (bmc::Query::contentHash:
 * the COI slice, property encoding, SVA name and bound). One store
 * serves two lifetimes:
 *
 *  - a *journal* is one configuration's restart log (--journal FILE
 *    and the daemon's per-design <state>/journal/<hash>.r2uj). Its
 *    header binds it to the producing configuration (the structural
 *    netlist hash, bound, unroll mode — NOT --jobs: a run may resume at
 *    any parallelism), and --resume answers journaled queries without
 *    re-solving them;
 *  - a *cache* (<dir>/verdicts.r2uc, --cache DIR and the daemon's
 *    shared store) has no config binding — the keys self-validate — so
 *    any later run whose query hashes to the same content reuses the
 *    verdict: an RTL edit re-solves exactly the queries whose cone
 *    content changed.
 *
 * Records are appended with write()+fsync() under a mutex, each
 * carrying its own FNV-1a checksum, so a crash at any byte offset
 * leaves at worst one torn record at the tail: the loader stops at the
 * first short or corrupt frame and truncates the file back to the last
 * good offset. Appending a key the store already holds is a durable
 * no-op, so warm re-runs do not grow the file. Every open takes an
 * exclusive flock() on the file before truncating anything.
 *
 * Format (all little-endian, native widths — the store is a local
 * restart aid, not an interchange format):
 *
 *   journal header: "R2UJ"  u32 version  u64 configHash
 *   cache header:   "R2UC"  u32 version
 *   record:  u32 payloadLen  u64 fnv1a(payload)  payload
 *   payload: u64 key  u64 baseKey  u8 verdict  u8 source  u8 flags
 *            u8 pad  u32 bound  u32 retries  f64 seconds
 *            u64 conflicts  u64 propagations
 *            u32 nameLen  name bytes
 *
 * flags bit0 = verdict was independently validated; bit1 = the proof
 * is unbounded (valid at every bound, indexed under baseKey for
 * bound-independent reuse). Only Proven/Refuted verdicts are stored;
 * Unknowns are cheap to reproduce and may resolve differently under
 * different budgets. Traces are not stored — a replayed Refuted
 * verdict re-solves only if its consumer needs the counterexample
 * (synthesis keeps the verdict).
 */

#ifndef R2U_BMC_JOURNAL_HH
#define R2U_BMC_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/types.h>

#include "bmc/checker.hh"

namespace r2u::bmc
{

class VerdictStore
{
  public:
    struct Record
    {
        /** The query's content hash (Query::contentHash). */
        uint64_t key = 0;
        /**
         * Bound-independent identity (Query::baseHash); 0 when the
         * producer had no bound-independent hash. Meaningful with
         * `unbounded`: it is the secondary index that lets the proof
         * satisfy other bounds.
         */
        uint64_t baseKey = 0;
        std::string name;
        Verdict verdict = Verdict::Unknown;
        VerdictSource source = VerdictSource::Solve;
        bool validated = false;
        /**
         * Proof generality: true for a Proven verdict valid at every
         * bound (PDR convergence), false for bound-specific verdicts.
         * Bounded records only ever answer an exact key match.
         */
        bool unbounded = false;
        unsigned bound = 0;
        unsigned retries = 0;
        double seconds = 0.0;
        uint64_t conflicts = 0;
        uint64_t propagations = 0;
    };

    VerdictStore() = default;
    ~VerdictStore();

    VerdictStore(const VerdictStore &) = delete;
    VerdictStore &operator=(const VerdictStore &) = delete;

    /**
     * --journal FILE: open (creating if absent) a journal bound to
     * @p config_hash. With @p resume, existing records are loaded and
     * any torn tail is truncated away; without it the file is
     * truncated to empty (a fresh run must not inherit stale
     * verdicts). fatal() when another writer holds the file's lock, on
     * I/O errors, and, on resume, on a header it cannot use:
     * truncated, bad magic, another format version or another config
     * hash (a journal from a different design/bound/unroll mode must
     * never answer this run's queries).
     */
    void openJournal(const std::string &path, uint64_t config_hash,
                     bool resume);

    /**
     * The daemon's per-design journal: like openJournal(resume=true),
     * but returns false — leaving the store closed — when another
     * writer (usually a concurrent request of the same daemon) holds
     * the lock or the file cannot be opened; that request runs
     * journal-less. A header it cannot resume from is not fatal here:
     * no user asked for this file, so it warns and starts it fresh.
     */
    bool openShared(const std::string &path, uint64_t config_hash);

    /**
     * --cache DIR and the daemon's shared store: open (creating,
     * including the directory, if absent) <dir>/verdicts.r2uc. An
     * unusable header is warned about and started fresh — a cache can
     * only ever cost re-solves, never soundness. When another writer
     * holds the lock the store opens read-only: lookups are served,
     * append() is a no-op, and the live writer's file is never
     * touched. fatal() only on I/O errors.
     */
    void openCache(const std::string &dir);

    bool isOpen() const { return fd_ >= 0; }

    /** True when openCache() found the lock held (see there). */
    bool readOnly() const { return read_only_; }

    /** True once an append failure disabled the store for the run. */
    bool disabled() const { return disabled_; }

    /**
     * Test/chaos seam: intercept the next append's write(). The hook
     * receives the frame size about to be written and returns how
     * many bytes to actually put on disk before reporting failure
     * (a torn frame), or < 0 to let the write proceed untouched.
     * Persistent until replaced; clear with nullptr.
     */
    void setWriteFault(std::function<ssize_t(size_t)> hook);

    /** Records the store answers from: loaded at open, plus appends. */
    size_t numLoaded() const;

    /** Stored verdict for a content key. nullptr if absent. */
    const Record *lookup(uint64_t key) const;

    /**
     * Unbounded-Proven verdict for a bound-independent content key
     * (Query::baseHash). A hit is valid for the same cone + property
     * at any bound. nullptr if absent.
     */
    const Record *lookupUnbounded(uint64_t base_key) const;

    /**
     * True when the store holds a record for the same (name, bound)
     * under a *different* key — i.e. this query existed before but its
     * cone or property content changed since. Purely diagnostic
     * (distinguishes an invalidation from a never-seen miss in the
     * hit/miss accounting).
     */
    bool hasStaleEntry(const std::string &name, unsigned bound,
                       uint64_t key) const;

    /**
     * Durably append one definite verdict keyed by rec.key (write +
     * fsync under the mutex; safe from worker threads). Returns true
     * when the record is durable — including the already-present
     * case, which writes nothing. Returns false on a read-only store
     * and (after a warn) on I/O failure, which rolls the file back and
     * disables the store; the run continues.
     */
    bool append(const Record &rec);

    /** Records physically appended by *this* process. */
    size_t numAppended() const;

    const std::string &filePath() const { return path_; }

  private:
    enum class Lock { Taken, Held, OpenFailed };
    /** Open @p path read-write into fd_ and try its exclusive flock. */
    Lock acquire(const std::string &path, const char *what);
    /** Close fd_ and raise @p why as this store's fatal error. */
    [[noreturn]] void refuse(const std::string &why);
    /**
     * Read the file through fd_ and load every record up to the first
     * short or corrupt frame; end_ becomes the last good offset (0
     * when nothing is usable). Returns why @p header rules the file
     * out, or "".
     */
    std::string load(const std::vector<uint8_t> &header);
    /** Truncate the file to end_; write @p header if that is 0. */
    void start(const std::vector<uint8_t> &header);
    /** Add @p rec to the indexes (mu_ held, or still opening). */
    void index(Record rec);

    int fd_ = -1;
    /** "journal" or "cache", for messages. */
    const char *what_ = "";
    std::string path_;
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, Record> loaded_;
    /** name -> (bound, key) pairs seen, for invalidation accounting. */
    std::unordered_map<std::string,
                       std::vector<std::pair<unsigned, uint64_t>>>
        by_name_;
    /** baseKey -> unbounded Proven record (element pointers into
     *  loaded_ are stable: unordered_map is node-based). */
    std::unordered_map<uint64_t, const Record *> by_base_;
    size_t appended_ = 0;
    /** File offset after the last fully-durable frame; append
     *  failures roll the file back here so a partial frame can never
     *  poison the records behind it. */
    off_t end_ = 0;
    bool read_only_ = false;
    bool disabled_ = false;
    std::function<ssize_t(size_t)> write_fault_;
};

} // namespace r2u::bmc

#endif // R2U_BMC_JOURNAL_HH
