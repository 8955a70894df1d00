#include "bmc/journal.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace r2u::bmc
{

namespace
{

constexpr char kJournalMagic[4] = {'R', '2', 'U', 'J'};
// v2: journal keys mix the query content hash — v1 keys from the
// count-only configHash() era must not answer v2 lookups.
// v3: payload grows a u64 baseKey after key, and flags bit1 records
// proof generality (unbounded) — v2 records cannot express either, so
// they must not answer v3 lookups.
// v4: the structural and cone hashes fold per-cell digests
// (nl::digestNetlist), so every config hash and key value changed.
// v5: the key is the query content hash itself, as in the cache; v4
// keys were an FNV-1a chain over name, bound and content hash.
constexpr uint32_t kJournalVersion = 5;
constexpr char kCacheMagic[4] = {'R', '2', 'U', 'C'};
// cache v2: same baseKey/unbounded payload growth as journal v3.
// cache v3: digest-folded cone hashes, as journal v4.
constexpr uint32_t kCacheVersion = 3;
/** magic + u32 version */
constexpr size_t kBaseHeader = 4 + sizeof(uint32_t);
/** u32 payloadLen + u64 checksum before every payload */
constexpr size_t kFrameHead = sizeof(uint32_t) + sizeof(uint64_t);
/** payload bytes before the variable-length name */
constexpr size_t kFixedPayload = 8 + 8 + 4 + 4 + 4 + 8 + 8 + 8 + 4;
constexpr uint8_t kFlagValidated = 0x01;
constexpr uint8_t kFlagUnbounded = 0x02;
/** Retired source byte (see VerdictSource): it marked definite,
 *  validated verdicts of a removed solver mode, so it loads as Solve. */
constexpr uint8_t kRetiredSource = 9;

uint64_t
fnv1a(const uint8_t *data, size_t n, uint64_t h = 14695981039346656037ull)
{
    for (size_t i = 0; i < n; i++) {
        h ^= data[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** Store @p v at @p p and advance it; the caller sized the buffer. */
template <typename T>
void
put(uint8_t *&p, T v)
{
    std::memcpy(p, &v, sizeof(T));
    p += sizeof(T);
}

template <typename T>
T
get(const uint8_t *&p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
}

bool
writeAll(int fd, const uint8_t *data, size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, data, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data += w;
        n -= static_cast<size_t>(w);
    }
    return true;
}

/**
 * writeAll() with the torn-write fault seam applied: when the hook
 * fires (returns >= 0) only that prefix of the frame reaches disk and
 * the write reports failure, exactly like a crash or ENOSPC mid-frame.
 */
bool
faultyWrite(int fd, const uint8_t *data, size_t n,
            const std::function<ssize_t(size_t)> &fault)
{
    if (fault) {
        ssize_t cut = fault(n);
        if (cut >= 0) {
            size_t keep = std::min(static_cast<size_t>(cut), n);
            if (keep > 0)
                writeAll(fd, data, keep);
            errno = EIO;
            return false;
        }
    }
    return writeAll(fd, data, n);
}

std::vector<uint8_t>
encodePayload(const VerdictStore::Record &rec)
{
    std::vector<uint8_t> buf(kFixedPayload + rec.name.size());
    uint8_t *p = buf.data();
    put<uint64_t>(p, rec.key);
    put<uint64_t>(p, rec.baseKey);
    put<uint8_t>(p, static_cast<uint8_t>(rec.verdict));
    put<uint8_t>(p, static_cast<uint8_t>(rec.source));
    put<uint8_t>(p, (rec.validated ? kFlagValidated : 0) |
                        (rec.unbounded ? kFlagUnbounded : 0));
    put<uint8_t>(p, 0); // pad
    put<uint32_t>(p, rec.bound);
    put<uint32_t>(p, rec.retries);
    put<double>(p, rec.seconds);
    put<uint64_t>(p, rec.conflicts);
    put<uint64_t>(p, rec.propagations);
    put<uint32_t>(p, static_cast<uint32_t>(rec.name.size()));
    std::copy(rec.name.begin(), rec.name.end(), p);
    return buf;
}

bool
decodePayload(const uint8_t *data, size_t n, VerdictStore::Record &rec)
{
    if (n < kFixedPayload)
        return false;
    const uint8_t *p = data;
    rec.key = get<uint64_t>(p);
    rec.baseKey = get<uint64_t>(p);
    uint8_t verdict = get<uint8_t>(p);
    uint8_t source = get<uint8_t>(p);
    uint8_t flags = get<uint8_t>(p);
    get<uint8_t>(p); // pad
    rec.bound = get<uint32_t>(p);
    rec.retries = get<uint32_t>(p);
    rec.seconds = get<double>(p);
    rec.conflicts = get<uint64_t>(p);
    rec.propagations = get<uint64_t>(p);
    uint32_t name_len = get<uint32_t>(p);
    if (verdict > static_cast<uint8_t>(Verdict::Unknown) ||
        source > static_cast<uint8_t>(VerdictSource::Race))
        return false;
    if (n != kFixedPayload + name_len)
        return false;
    if (source == kRetiredSource)
        source = static_cast<uint8_t>(VerdictSource::Solve);
    rec.verdict = static_cast<Verdict>(verdict);
    rec.source = static_cast<VerdictSource>(source);
    rec.validated = (flags & kFlagValidated) != 0;
    rec.unbounded = (flags & kFlagUnbounded) != 0;
    rec.name.assign(reinterpret_cast<const char *>(p), name_len);
    return true;
}

/** A @p size-byte header starting with magic and format version (all
 *  of a cache's header). */
std::vector<uint8_t>
baseHeader(const char (&magic)[4], uint32_t version, size_t size)
{
    std::vector<uint8_t> header(size);
    uint8_t *p = std::copy(magic, magic + 4, header.data());
    put<uint32_t>(p, version);
    return header;
}

/** A journal's header also binds it to its run's configuration. */
std::vector<uint8_t>
journalHeader(uint64_t config_hash)
{
    std::vector<uint8_t> header = baseHeader(
        kJournalMagic, kJournalVersion, kBaseHeader + sizeof(uint64_t));
    uint8_t *p = header.data() + kBaseHeader;
    put<uint64_t>(p, config_hash);
    return header;
}

/**
 * Why a file whose header should be @p header cannot be loaded; ""
 * when it can.
 */
std::string
headerMismatch(const std::vector<uint8_t> &file,
               const std::vector<uint8_t> &header)
{
    if (file.size() < header.size())
        return "shorter than its header";
    if (std::memcmp(file.data(), header.data(), 4) != 0)
        return "bad magic";
    const uint8_t *have = file.data() + 4;
    const uint8_t *want = header.data() + 4;
    uint32_t version = get<uint32_t>(have);
    uint32_t expected = get<uint32_t>(want);
    if (version != expected)
        return strfmt("version %u (expected %u)", version, expected);
    if (header.size() > kBaseHeader) {
        uint64_t hash = get<uint64_t>(have);
        uint64_t config_hash = get<uint64_t>(want);
        if (hash != config_hash)
            return strfmt("config hash mismatch (%llx vs %llx) — "
                          "produced by a different design/bound/unroll "
                          "configuration",
                          static_cast<unsigned long long>(hash),
                          static_cast<unsigned long long>(config_hash));
    }
    return "";
}

} // namespace

VerdictStore::~VerdictStore()
{
    if (fd_ >= 0)
        ::close(fd_); // releases the flock
}

VerdictStore::Lock
VerdictStore::acquire(const std::string &path, const char *what)
{
    R2U_ASSERT(fd_ < 0, "verdict store already open");
    what_ = what;
    path_ = path;
    // The lock lives on the one descriptor every later read, truncate
    // and append goes through, and is taken before any of them: a
    // second writer can never interleave frames into — or truncate —
    // the live writer's file.
    fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ < 0)
        return Lock::OpenFailed;
    return ::flock(fd_, LOCK_EX | LOCK_NB) == 0 ? Lock::Taken
                                                : Lock::Held;
}

void
VerdictStore::refuse(const std::string &why)
{
    ::close(fd_);
    fd_ = -1;
    fatal("%s %s: %s", what_, path_.c_str(), why.c_str());
}

std::string
VerdictStore::load(const std::vector<uint8_t> &header)
{
    std::vector<uint8_t> file;
    uint8_t chunk[1 << 16];
    ssize_t n;
    while ((n = ::read(fd_, chunk, sizeof(chunk))) > 0)
        file.insert(file.end(), chunk, chunk + n);
    if (file.empty())
        return "";
    std::string mismatch = headerMismatch(file, header);
    if (!mismatch.empty())
        return mismatch;

    // Stop at the first frame that is short, fails its checksum or
    // does not decode: appends are ordered, so everything after a torn
    // write is suspect by construction.
    size_t off = header.size();
    while (off + kFrameHead <= file.size()) {
        const uint8_t *p = file.data() + off;
        uint32_t len = get<uint32_t>(p);
        uint64_t sum = get<uint64_t>(p);
        Record rec;
        if (len > file.size() - off - kFrameHead ||
            fnv1a(p, len) != sum || !decodePayload(p, len, rec))
            break;
        index(std::move(rec)); // a later duplicate key wins
        off += kFrameHead + len;
    }
    if (off != file.size())
        warn("%s %s: dropping %zu torn/corrupt tail bytes (%zu valid "
             "records)",
             what_, path_.c_str(), file.size() - off, loaded_.size());
    end_ = static_cast<off_t>(off);
    return "";
}

void
VerdictStore::start(const std::vector<uint8_t> &header)
{
    if (::ftruncate(fd_, end_) != 0 || ::lseek(fd_, end_, SEEK_SET) < 0)
        fatal("%s %s: truncate failed: %s", what_, path_.c_str(),
              strerror(errno));
    if (end_ > 0)
        return;
    if (!writeAll(fd_, header.data(), header.size()) || ::fsync(fd_) != 0)
        fatal("%s %s: header write failed: %s", what_, path_.c_str(),
              strerror(errno));
    end_ = static_cast<off_t>(header.size());
}

void
VerdictStore::index(Record rec)
{
    by_name_[rec.name].emplace_back(rec.bound, rec.key);
    Record &slot = loaded_[rec.key];
    slot = std::move(rec);
    if (slot.unbounded && slot.baseKey != 0 &&
        slot.verdict == Verdict::Proven)
        by_base_[slot.baseKey] = &slot;
}

void
VerdictStore::openJournal(const std::string &path, uint64_t config_hash,
                          bool resume)
{
    switch (acquire(path, "journal")) {
      case Lock::OpenFailed:
        fatal("journal %s: open failed: %s", path.c_str(),
              strerror(errno));
      case Lock::Held:
        refuse("the write lock is held by another writer");
      case Lock::Taken:
        break;
    }
    std::vector<uint8_t> header = journalHeader(config_hash);
    if (resume) {
        std::string mismatch = load(header);
        if (!mismatch.empty())
            refuse(mismatch);
    }
    start(header); // a fresh run truncates the file to a new header
}

bool
VerdictStore::openShared(const std::string &path, uint64_t config_hash)
{
    switch (acquire(path, "journal")) {
      case Lock::OpenFailed:
        warn("journal %s: open failed: %s — running without a journal",
             path.c_str(), strerror(errno));
        return false;
      case Lock::Held:
        warn("journal %s: held by another writer — running without a "
             "journal",
             path.c_str());
        ::close(fd_);
        fd_ = -1;
        return false;
      case Lock::Taken:
        break;
    }
    std::vector<uint8_t> header = journalHeader(config_hash);
    std::string mismatch = load(header);
    if (!mismatch.empty())
        warn("journal %s: %s — starting it fresh", path.c_str(),
             mismatch.c_str());
    start(header);
    return true;
}

void
VerdictStore::openCache(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        fatal("cache %s: cannot create directory: %s", dir.c_str(),
              ec.message().c_str());
    std::string path =
        (std::filesystem::path(dir) / "verdicts.r2uc").string();
    switch (acquire(path, "cache")) {
      case Lock::OpenFailed:
        fatal("cache %s: open failed: %s", path.c_str(), strerror(errno));
      case Lock::Held:
        warn("cache %s: held by another writer — continuing READ-ONLY "
             "(cached verdicts are served, new ones are not stored)",
             path.c_str());
        read_only_ = true;
        break;
      case Lock::Taken:
        break;
    }
    std::vector<uint8_t> header =
        baseHeader(kCacheMagic, kCacheVersion, kBaseHeader);
    std::string mismatch = load(header);
    if (!mismatch.empty())
        warn("cache %s: %s — starting fresh", path.c_str(),
             mismatch.c_str());
    // A read-only opener drops a torn tail only in memory: the bytes
    // belong to whoever holds the lock.
    if (!read_only_)
        start(header);
}

void
VerdictStore::setWriteFault(std::function<ssize_t(size_t)> hook)
{
    std::lock_guard<std::mutex> lock(mu_);
    write_fault_ = std::move(hook);
}

size_t
VerdictStore::numLoaded() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return loaded_.size();
}

size_t
VerdictStore::numAppended() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return appended_;
}

const VerdictStore::Record *
VerdictStore::lookup(uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = loaded_.find(key);
    return it == loaded_.end() ? nullptr : &it->second;
}

const VerdictStore::Record *
VerdictStore::lookupUnbounded(uint64_t base_key) const
{
    if (base_key == 0)
        return nullptr;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_base_.find(base_key);
    if (it == by_base_.end())
        return nullptr;
    // A later record with the same primary key may have overwritten
    // the slot this index points at while loading; only serve it if it
    // still is the unbounded proof it was indexed as.
    const Record *rec = it->second;
    if (!rec->unbounded || rec->verdict != Verdict::Proven ||
        rec->baseKey != base_key)
        return nullptr;
    return rec;
}

bool
VerdictStore::hasStaleEntry(const std::string &name, unsigned bound,
                            uint64_t key) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_name_.find(name);
    if (it == by_name_.end())
        return false;
    for (const auto &[b, k] : it->second)
        if (b == bound && k != key)
            return true;
    return false;
}

bool
VerdictStore::append(const Record &rec)
{
    std::vector<uint8_t> payload = encodePayload(rec);
    std::vector<uint8_t> frame(kFrameHead + payload.size());
    uint8_t *p = frame.data();
    put<uint32_t>(p, static_cast<uint32_t>(payload.size()));
    put<uint64_t>(p, fnv1a(payload.data(), payload.size()));
    std::copy(payload.begin(), payload.end(), p);

    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0 || read_only_ || disabled_)
        return false;
    if (loaded_.count(rec.key))
        return true; // already durable; a warm run must not grow us
    if (!faultyWrite(fd_, frame.data(), frame.size(), write_fault_) ||
        ::fsync(fd_) != 0) {
        int saved = errno;
        // A partial frame at end_ would silently poison every record
        // appended after it (the loader stops at the first bad frame),
        // so roll the file back to the last durable offset and stop
        // appending: ENOSPC/EIO do not heal mid-run, and a quiet
        // best-effort append is exactly how stores get corrupted.
        bool repaired = ::ftruncate(fd_, end_) == 0 &&
                        ::lseek(fd_, end_, SEEK_SET) >= 0;
        disabled_ = true;
        warn("%s %s: append FAILED (%s)%s — the %s is DISABLED for the "
             "rest of this run",
             what_, path_.c_str(), strerror(saved),
             repaired ? ", partial frame rolled back"
                      : ", and rollback also failed (the torn tail "
                        "will be dropped on the next load)",
             what_);
        return false;
    }
    end_ += static_cast<off_t>(frame.size());
    index(rec);
    appended_++;
    return true;
}

} // namespace r2u::bmc
