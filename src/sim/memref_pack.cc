#include "sim/memref_pack.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <utility>

#include "common/logging.hh"

namespace vcoma
{

namespace
{

/** Per-thread staging buffer: 4096 records (64 KB) between flushes. */
constexpr std::size_t stagingRecords = 4096;

inline void
putU32(unsigned char *out, std::uint32_t v)
{
    out[0] = static_cast<unsigned char>(v);
    out[1] = static_cast<unsigned char>(v >> 8);
    out[2] = static_cast<unsigned char>(v >> 16);
    out[3] = static_cast<unsigned char>(v >> 24);
}

inline void
putU64(unsigned char *out, std::uint64_t v)
{
    putU32(out, static_cast<std::uint32_t>(v));
    putU32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint32_t
getU32(const unsigned char *in)
{
    return static_cast<std::uint32_t>(in[0]) |
           static_cast<std::uint32_t>(in[1]) << 8 |
           static_cast<std::uint32_t>(in[2]) << 16 |
           static_cast<std::uint32_t>(in[3]) << 24;
}

inline std::uint64_t
getU64(const unsigned char *in)
{
    return static_cast<std::uint64_t>(getU32(in)) |
           static_cast<std::uint64_t>(getU32(in + 4)) << 32;
}

/** Round @p n up to the next multiple of 8 (string-section padding). */
constexpr std::uint64_t
pad8(std::uint64_t n)
{
    return (n + 7) & ~std::uint64_t{7};
}

constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ULL;

/** Offset of the header checksum (the header's last u32). */
constexpr std::size_t headerChecksumAt = 60;

/** One FNV-1a step over a whole 8-byte word. */
inline std::uint64_t
fnvMix(std::uint64_t hash, std::uint64_t word)
{
    return (hash ^ word) * 0x100000001b3ULL;
}

/**
 * FNV-1a from @p hash over @p bytes at @p p, mixed 8 bytes at a time
 * (the payload is a multiple of 16, the header and index of 8).
 * Word-at-a-time keeps checksumming cheap even for multi-GB traces.
 */
std::uint64_t
fnvWords(std::uint64_t hash, const unsigned char *p, std::size_t bytes)
{
    for (std::size_t i = 0; i + 8 <= bytes; i += 8)
        hash = fnvMix(hash, getU64(p + i));
    return hash;
}

/**
 * Why a record's two words, @p head (kind, type, padding, work) and
 * @p operand, are not an event's one valid byte form, or nullptr when
 * they are: kind and type in range (a sync kind's type is Read), zero
 * padding, and a sync operand that is a zero-extended u32.
 */
inline const char *
recordProblem(std::uint64_t head, std::uint64_t operand)
{
    const std::uint64_t kind = head & 0xff;
    const bool mem = kind == static_cast<std::uint64_t>(MemRef::Kind::Mem);
    const std::uint64_t maxType =
        mem ? static_cast<std::uint64_t>(RefType::Write) : 0;
    if (kind > static_cast<std::uint64_t>(MemRef::Kind::LockRelease) ||
        (head >> 8 & 0xff) > maxType)
        return "an invalid kind/type";
    if ((head & 0xffff0000) != 0)
        return "nonzero padding";
    if (!mem && operand >> 32 != 0)
        return "a sync id wider than 32 bits";
    return nullptr;
}

/**
 * The header checksum of @p prefix, the file's first
 * @p payloadStart bytes (see the format description).
 */
std::uint32_t
headerChecksum(const unsigned char *prefix, std::size_t payloadStart)
{
    unsigned char header[packedHeaderBytes];
    std::memcpy(header, prefix, packedHeaderBytes);
    putU32(header + headerChecksumAt, 0);
    const std::uint64_t hash =
        fnvWords(fnvWords(fnvBasis, header, packedHeaderBytes),
                 prefix + packedHeaderBytes,
                 payloadStart - packedHeaderBytes);
    return static_cast<std::uint32_t>(hash ^ (hash >> 32));
}

[[noreturn]] void
reject(const std::string &path, const std::string &why)
{
    throw TraceFormatError("packed trace '" + path + "': " + why);
}

} // namespace

void
packMemRef(const MemRef &ref, unsigned char *out)
{
    out[0] = static_cast<unsigned char>(ref.kind);
    out[1] = static_cast<unsigned char>(ref.type);
    out[2] = out[3] = 0;
    putU32(out + 4, ref.work);
    putU64(out + 8,
           ref.kind == MemRef::Kind::Mem ? ref.vaddr : ref.syncId);
}

MemRef
unpackMemRef(const unsigned char *in)
{
    MemRef ref;
    ref.kind = static_cast<MemRef::Kind>(in[0]);
    ref.type = static_cast<RefType>(in[1]);
    ref.work = getU32(in + 4);
    if (ref.kind == MemRef::Kind::Mem)
        ref.vaddr = getU64(in + 8);
    else
        ref.syncId = getU32(in + 8);
    return ref;
}

// ---------------------------------------------------------------------
// PackedTraceWriter

PackedTraceWriter::PackedTraceWriter(std::string finalPath,
                                     unsigned threads, std::string key,
                                     std::string name, std::string params,
                                     std::uint64_t sharedBytes)
    : finalPath_(std::move(finalPath)),
      key_(std::move(key)),
      name_(std::move(name)),
      params_(std::move(params)),
      sharedBytes_(sharedBytes),
      threads_(threads),
      buffers_(threads),
      counts_(threads, 0)
{
    VCOMA_ASSERT(threads_ > 0);
    // Unique across processes (pid) and across writers within one
    // process (a shared counter), like the result cache's staging.
    static std::atomic<unsigned> seq{0};
    stagingPath_ = finalPath_ + ".tmp." + std::to_string(::getpid()) +
                   "." + std::to_string(seq.fetch_add(1));
    for (Buffer &b : buffers_)
        b.bytes.resize(stagingRecords * packedRecordBytes);
    staging_.open(stagingPath_, std::ios::binary | std::ios::trunc);
    if (!staging_)
        throw std::runtime_error("cannot record trace '" + finalPath_ +
                                 "': cannot create staging file '" +
                                 stagingPath_ + "'");
}

PackedTraceWriter::~PackedTraceWriter()
{
    discardStaging();
}

std::uint64_t
PackedTraceWriter::totalEvents() const
{
    std::uint64_t total = 0;
    for (std::uint64_t c : counts_)
        total += c;
    return total;
}

void
PackedTraceWriter::flush(unsigned tid)
{
    Buffer &b = buffers_[tid];
    if (b.used == 0 || ioFailed_) {
        b.used = 0;  // a failed writer still drains, or append overruns
        return;
    }
    // Staging chunk: u32 tid, u32 recordCount, then the raw records.
    // One sequential staging file keeps the recorder to a single fd
    // however many threads the workload has.
    unsigned char head[8];
    putU32(head, tid);
    putU32(head + 4, static_cast<std::uint32_t>(b.used /
                                                packedRecordBytes));
    staging_.write(reinterpret_cast<const char *>(head), sizeof(head));
    staging_.write(reinterpret_cast<const char *>(b.bytes.data()),
                   static_cast<std::streamsize>(b.used));
    if (!staging_)
        ioFailed_ = true;
    b.used = 0;
}

void
PackedTraceWriter::discardStaging()
{
    if (staging_.is_open())
        staging_.close();
    if (!stagingPath_.empty()) {
        std::error_code ec;
        std::filesystem::remove(stagingPath_, ec);
        stagingPath_.clear();
    }
}

bool
PackedTraceWriter::finalize(std::string *error)
{
    if (finalized_) {
        if (error)
            *error = "finalize() called twice";
        return false;
    }
    const std::string outPath = stagingPath_ + ".out";
    auto fail = [&](const std::string &why) {
        if (error)
            *error = why;
        std::error_code ec;
        std::filesystem::remove(outPath, ec);
        discardStaging();
        return false;
    };
    for (unsigned t = 0; t < threads_; ++t)
        flush(t);
    staging_.close();
    if (ioFailed_)
        return fail("I/O failure while staging '" + stagingPath_ + "'");

    // Compute the final layout from the per-thread totals.
    const std::uint64_t strings =
        pad8(key_.size() + name_.size() + params_.size());
    const std::uint64_t indexOffset = packedHeaderBytes + strings;
    const std::uint64_t payloadStart =
        indexOffset + std::uint64_t{threads_} * 16;
    std::vector<std::uint64_t> offsets(threads_);
    std::uint64_t at = payloadStart;
    for (unsigned t = 0; t < threads_; ++t) {
        offsets[t] = at;
        at += counts_[t] * packedRecordBytes;
    }
    const std::uint64_t fileBytes = at;

    // Stage the assembled trace next to the final path and publish
    // with an atomic rename, exactly like the result cache.
    {
        std::fstream out(outPath, std::ios::binary | std::ios::out |
                                      std::ios::trunc);
        if (!out)
            return fail("cannot create '" + outPath + "'");

        // Payload first (so its checksum is known), then everything
        // before it: the header, the strings and the index.

        // Distribute the staged chunks to their per-thread payload
        // positions. Chunks of one thread were flushed in program
        // order, so a running cursor per thread is enough.
        std::ifstream in(stagingPath_, std::ios::binary);
        if (!in)
            return fail("cannot reopen staging '" + stagingPath_ + "'");
        std::vector<std::uint64_t> cursor = offsets;
        std::vector<char> chunk(stagingRecords * packedRecordBytes);
        unsigned char head[8];
        while (in.read(reinterpret_cast<char *>(head), sizeof(head))) {
            const std::uint32_t tid = getU32(head);
            const std::uint64_t bytes =
                std::uint64_t{getU32(head + 4)} * packedRecordBytes;
            if (tid >= threads_ || bytes > chunk.size())
                return fail("staging file corrupt");
            if (!in.read(chunk.data(),
                         static_cast<std::streamsize>(bytes)))
                return fail("staging file truncated");
            out.seekp(static_cast<std::streamoff>(cursor[tid]));
            out.write(chunk.data(), static_cast<std::streamsize>(bytes));
            cursor[tid] += bytes;
        }
        for (unsigned t = 0; t < threads_; ++t) {
            if (cursor[t] != offsets[t] + counts_[t] * packedRecordBytes)
                return fail("staging chunks do not add up");
        }

        // Re-read the payload region for the checksum. (The extra
        // pass reads what the page cache just absorbed; recording is
        // a one-time cost per config.)
        out.flush();
        if (!out)
            return fail("short write to '" + outPath + "'");
        std::ifstream re(outPath, std::ios::binary);
        re.seekg(static_cast<std::streamoff>(payloadStart));
        std::uint64_t hash = fnvBasis;
        std::vector<unsigned char> block(1 << 20);
        std::uint64_t left = fileBytes - payloadStart;
        while (left > 0) {
            const std::uint64_t want =
                std::min<std::uint64_t>(left, block.size());
            if (!re.read(reinterpret_cast<char *>(block.data()),
                         static_cast<std::streamsize>(want)))
                return fail("cannot re-read '" + outPath + "'");
            hash = fnvWords(hash, block.data(), want);
            left -= want;
        }

        std::vector<unsigned char> prefix(payloadStart, 0);
        unsigned char *header = prefix.data();
        std::memcpy(header, packedTraceMagic, sizeof(packedTraceMagic));
        putU32(header + 8, packedTraceVersion);
        putU32(header + 12, packedRecordBytes);
        putU32(header + 16, threads_);
        putU32(header + 20, 1);  // flags: little-endian payload
        putU64(header + 24, totalEvents());
        putU64(header + 32, sharedBytes_);
        putU64(header + 40, hash);
        putU32(header + 48, static_cast<std::uint32_t>(key_.size()));
        putU32(header + 52, static_cast<std::uint32_t>(name_.size()));
        putU32(header + 56, static_cast<std::uint32_t>(params_.size()));
        unsigned char *at8 = header + packedHeaderBytes;
        for (const std::string *str : {&key_, &name_, &params_}) {
            std::memcpy(at8, str->data(), str->size());
            at8 += str->size();
        }
        for (unsigned t = 0; t < threads_; ++t) {
            unsigned char *entry = header + indexOffset + t * 16;
            putU64(entry, offsets[t]);
            putU64(entry + 8, counts_[t]);
        }
        putU32(header + headerChecksumAt,
               headerChecksum(header, payloadStart));
        out.seekp(0);
        out.write(reinterpret_cast<const char *>(header),
                  static_cast<std::streamsize>(prefix.size()));
        out.close();
        if (!out)
            return fail("short write to '" + outPath + "'");
    }

    std::error_code ec;
    std::filesystem::rename(outPath, finalPath_, ec);
    if (ec)  // fail() removes outPath
        return fail("cannot publish '" + finalPath_ + "': " +
                    ec.message());
    discardStaging();
    finalized_ = true;
    return true;
}

// ---------------------------------------------------------------------
// PackedTrace

PackedTrace::PackedTrace(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        reject(path, "cannot open");
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        reject(path, "cannot stat");
    }
    const std::uint64_t fileBytes = static_cast<std::uint64_t>(st.st_size);
    if (fileBytes < packedHeaderBytes) {
        ::close(fd);
        reject(path, "truncated: smaller than the fixed header");
    }
    map_ = ::mmap(nullptr, fileBytes, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map_ == MAP_FAILED) {
        map_ = nullptr;
        reject(path, "mmap failed");
    }
    mapBytes_ = fileBytes;
    const unsigned char *base = static_cast<const unsigned char *>(map_);

    // Header checks, most-diagnostic first.
    if (std::memcmp(base, packedTraceMagic, sizeof(packedTraceMagic)) !=
        0) {
        unmap();
        reject(path, "bad magic (not a packed memref trace)");
    }
    const std::uint32_t version = getU32(base + 8);
    if (version != packedTraceVersion) {
        unmap();
        reject(path, "version " + std::to_string(version) +
                         " unsupported (this build reads version " +
                         std::to_string(packedTraceVersion) + ")");
    }
    if (getU32(base + 12) != packedRecordBytes) {
        unmap();
        reject(path, "unexpected record size");
    }
    threads_ = getU32(base + 16);
    if (threads_ == 0) {
        unmap();
        reject(path, "zero threads");
    }
    if (const std::uint32_t flags = getU32(base + 20); flags != 1) {
        unmap();
        reject(path, (flags & 1) == 0 ? "payload is not little-endian"
                                      : "unknown flag bits");
    }
    totalEvents_ = getU64(base + 24);
    sharedBytes_ = getU64(base + 32);
    const std::uint64_t checksum = getU64(base + 40);
    const std::uint64_t keyBytes = getU32(base + 48);
    const std::uint64_t nameBytes = getU32(base + 52);
    const std::uint64_t paramsBytes = getU32(base + 56);

    const std::uint64_t strings = pad8(keyBytes + nameBytes + paramsBytes);
    const std::uint64_t indexOffset = packedHeaderBytes + strings;
    const std::uint64_t payloadStart =
        indexOffset + std::uint64_t{threads_} * 16;
    if (payloadStart > fileBytes ||
        totalEvents_ >
            (fileBytes - payloadStart) / packedRecordBytes) {
        unmap();
        reject(path, "truncated: header promises more than the file "
                     "holds");
    }
    if (headerChecksum(base, payloadStart) !=
        getU32(base + headerChecksumAt)) {
        unmap();
        reject(path, "header checksum mismatch (corrupt header, "
                     "strings or index)");
    }
    const char *stringsAt =
        reinterpret_cast<const char *>(base + packedHeaderBytes);
    key_.assign(stringsAt, keyBytes);
    name_.assign(stringsAt + keyBytes, nameBytes);
    params_.assign(stringsAt + keyBytes + nameBytes, paramsBytes);

    // Index checks: ascending, aligned, contiguous, exactly filling
    // the file — any truncation or stray growth is caught here.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> index(threads_);
    std::uint64_t expect = payloadStart;
    std::uint64_t events = 0;
    for (unsigned t = 0; t < threads_; ++t) {
        const unsigned char *e = base + indexOffset + std::uint64_t{t} * 16;
        index[t] = {getU64(e), getU64(e + 8)};
        if (index[t].first != expect || index[t].first % 8 != 0) {
            unmap();
            reject(path, "index entry " + std::to_string(t) +
                             " is not contiguous/aligned");
        }
        expect += index[t].second * packedRecordBytes;
        events += index[t].second;
    }
    if (expect != fileBytes) {
        unmap();
        reject(path, "payload does not fill the file (truncated or "
                     "grown)");
    }
    if (events != totalEvents_) {
        unmap();
        reject(path, "per-thread counts disagree with totalEvents");
    }

    // One O(n) payload walk: the checksum plus each record's byte
    // form, so replay can trust every record without per-reference
    // validation. A corrupt payload reports the checksum first.
    const unsigned char *payload = base + payloadStart;
    const std::uint64_t payloadBytes = fileBytes - payloadStart;
    std::uint64_t hash = fnvBasis;
    const char *problem = nullptr;
    std::uint64_t problemAt = 0;
    for (std::uint64_t off = 0; off < payloadBytes;
         off += packedRecordBytes) {
        const std::uint64_t head = getU64(payload + off);
        const std::uint64_t operand = getU64(payload + off + 8);
        hash = fnvMix(fnvMix(hash, head), operand);
        if (const char *why = recordProblem(head, operand);
            why != nullptr && problem == nullptr) {
            problem = why;
            problemAt = off;
        }
    }
    if (hash != checksum) {
        unmap();
        reject(path, "payload checksum mismatch (corrupt trace)");
    }
    if (problem != nullptr) {
        unmap();
        reject(path, "record at payload offset " +
                         std::to_string(problemAt) + " has " + problem);
    }

    streams_.reserve(threads_);
    if constexpr (packedLayoutIsRaw) {
        for (unsigned t = 0; t < threads_; ++t) {
            streams_.emplace_back(
                reinterpret_cast<const MemRef *>(base + index[t].first),
                index[t].second);
        }
    } else {
        decoded_.resize(threads_);
        for (unsigned t = 0; t < threads_; ++t) {
            decoded_[t].reserve(index[t].second);
            const unsigned char *p = base + index[t].first;
            for (std::uint64_t i = 0; i < index[t].second; ++i)
                decoded_[t].push_back(
                    unpackMemRef(p + i * packedRecordBytes));
            streams_.emplace_back(decoded_[t]);
        }
        unmap();
    }
}

PackedTrace::~PackedTrace()
{
    unmap();
}

PackedTrace::PackedTrace(PackedTrace &&other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      mapBytes_(std::exchange(other.mapBytes_, 0)),
      decoded_(std::move(other.decoded_)),
      streams_(std::move(other.streams_)),
      threads_(other.threads_),
      totalEvents_(other.totalEvents_),
      sharedBytes_(other.sharedBytes_),
      key_(std::move(other.key_)),
      name_(std::move(other.name_)),
      params_(std::move(other.params_))
{
}

void
PackedTrace::unmap()
{
    if (map_ != nullptr) {
        ::munmap(map_, mapBytes_);
        map_ = nullptr;
        mapBytes_ = 0;
    }
}

} // namespace vcoma
