/**
 * @file
 * Binary record/replay of reference streams: the packed memref trace
 * format.
 *
 * A packed trace stores the per-thread MemRef streams a workload fed
 * the simulation kernel, so subsequent runs of the same experiment
 * replay the recorded bytes instead of re-executing the workload
 * algorithm. The format is little-endian throughout and fixed-width,
 * so a trace can be mmapped and — on little-endian hosts, where the
 * record layout provably matches MemRef (static_asserts below) —
 * consumed in place with no per-record decode at all.
 *
 * File layout (version 4):
 *
 *     offset  size  field
 *     ------  ----  -----------------------------------------
 *          0     8  magic "VCMTRC1\n"
 *          8     4  u32 version            (4)
 *         12     4  u32 recordBytes        (16)
 *         16     4  u32 threads            (> 0)
 *         20     4  u32 flags              (1: little-endian payload;
 *                                           no other bit is defined)
 *         24     8  u64 totalEvents        (sum of per-thread counts)
 *         32     8  u64 sharedBytes        (workload footprint)
 *         40     8  u64 payloadChecksum    (FNV-1a/64 over payload words)
 *         48     4  u32 keyBytes           |
 *         52     4  u32 nameBytes          | string-section lengths
 *         56     4  u32 paramsBytes        |
 *         60     4  u32 headerChecksum     (see below)
 *         64     -  key, name, params      (raw bytes, padded to 8)
 *          -     -  index: threads x { u64 payloadOffset, u64 count }
 *          -     -  payload: per-thread record arrays, 8-aligned,
 *                   ascending, exactly filling the rest of the file
 *
 * headerChecksum covers every byte before the payload, the strings,
 * their padding and the index included: FNV-1a/64 over those words
 * with the checksum field itself read as zero, its two 32-bit halves
 * XORed together. With payloadChecksum, every byte of the file is
 * checked, so no flip can load the same streams under another key,
 * name or footprint.
 *
 * Record layout (16 bytes; byte offsets within one record):
 *
 *     offset  size  field
 *     ------  ----  --------------------------
 *          0     1  u8  kind    (MemRef::Kind, <= 3)
 *          1     1  u8  type    (RefType, <= 1; 0 for sync kinds)
 *          2     2  zero padding
 *          4     4  u32 work
 *          8     8  u64 operand (vaddr for Kind::Mem; the
 *                               zero-extended syncId otherwise)
 *
 * Each event has exactly one valid byte form: a reader rejects
 * nonzero padding, a sync record with a Write type or with operand
 * bits above bit 31, and any out-of-range kind or type.
 *
 * Versioning/compat rules: the magic never changes; any change to the
 * record layout, header fields or index encoding bumps `version`, and
 * readers reject versions they do not know (there is no in-place
 * migration — a rejected trace is simply re-recorded). Every
 * structural check failure throws TraceFormatError with the offending
 * detail, never a crash and never a silent partial replay.
 */

#ifndef VCOMA_SIM_MEMREF_PACK_HH
#define VCOMA_SIM_MEMREF_PACK_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/memref.hh"

namespace vcoma
{

/** A trace file that cannot be used: corrupt, truncated, wrong
 * version, or simply not a packed memref trace. */
class TraceFormatError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Size of one packed record on disk. */
constexpr std::size_t packedRecordBytes = 16;

/** Size of the fixed file header (before the string section). */
constexpr std::size_t packedHeaderBytes = 64;

/**
 * Format version written by this build. v2 has the identical byte
 * layout as v1 but marks the unbiased Rng::below() era: traces
 * recorded before the modulo-bias fix carry pre-fix reference
 * streams and must re-record rather than silently replay into fresh
 * sweeps (the result-cache magic made the same jump, from v3 to v4).
 * v3 turns v2's reserved word at offset 60 into the header checksum.
 * v4 shrinks the record from 24 to 16 bytes: the address and the
 * sync id share one operand word.
 */
constexpr std::uint32_t packedTraceVersion = 4;

/** The 8-byte magic at offset 0. */
constexpr char packedTraceMagic[8] = {'V', 'C', 'M', 'T',
                                      'R', 'C', '1', '\n'};

// The zero-copy replay path reinterprets the mmapped payload as an
// array of MemRef. That is only sound when MemRef's in-memory layout
// is exactly the documented record layout; pin every offset here so a
// drive-by edit to MemRef breaks the build, not the trace format.
static_assert(std::is_trivially_copyable_v<MemRef>);
static_assert(sizeof(MemRef) == packedRecordBytes);
static_assert(offsetof(MemRef, kind) == 0);
static_assert(offsetof(MemRef, type) == 1);
static_assert(offsetof(MemRef, work) == 4);
static_assert(offsetof(MemRef, vaddr) == 8);
static_assert(offsetof(MemRef, syncId) == 8);
static_assert(sizeof(MemRef::kind) == 1 && sizeof(MemRef::type) == 1);
static_assert(sizeof(MemRef::work) == 4 && sizeof(MemRef::vaddr) == 8 &&
              sizeof(MemRef::syncId) == 4);

/**
 * True when the mmapped payload can be consumed in place as MemRef[]
 * (little-endian host; the offsets are pinned above). Big-endian
 * hosts fall back to a per-record decode into owned memory.
 */
constexpr bool packedLayoutIsRaw =
    std::endian::native == std::endian::little;

/** Encode @p ref into exactly packedRecordBytes at @p out
 * (little-endian, padding zeroed — byte-deterministic). */
void packMemRef(const MemRef &ref, unsigned char *out);

/** Decode one packed record (little-endian) from @p in. */
MemRef unpackMemRef(const unsigned char *in);

/**
 * Streaming writer: stages append()ed records in a single temp file
 * next to @p finalPath and publishes the assembled trace with an
 * atomic rename in finalize(). A writer that is destroyed without a
 * successful finalize() leaves no trace behind (the staging file is
 * removed), so a failed or aborted run can never publish a partial
 * trace.
 */
class PackedTraceWriter
{
  public:
    /**
     * @param finalPath path the finished trace is published at
     * @param threads   thread count of the recorded workload
     * @param key       experiment cache key the trace belongs to
     * @param name      Workload::name() of the recorded workload
     * @param params    Workload::parameters() of the workload
     * @param sharedBytes Workload::sharedBytes() of the workload
     * @throws std::runtime_error naming @p finalPath when the staging
     *         file cannot be created, so a recording fails before the
     *         run it would record
     */
    PackedTraceWriter(std::string finalPath, unsigned threads,
                      std::string key, std::string name,
                      std::string params, std::uint64_t sharedBytes);
    ~PackedTraceWriter();

    PackedTraceWriter(const PackedTraceWriter &) = delete;
    PackedTraceWriter &operator=(const PackedTraceWriter &) = delete;

    /** Record one event of thread @p tid (program order per thread). */
    void
    append(unsigned tid, const MemRef &ref)
    {
        Buffer &b = buffers_[tid];
        packMemRef(ref, b.bytes.data() + b.used);
        b.used += packedRecordBytes;
        ++counts_[tid];
        if (b.used == b.bytes.size())
            flush(tid);
    }

    /**
     * Assemble the final trace and publish it atomically. Returns
     * false (with @p error filled) on any I/O failure; the partial
     * staging data is discarded either way.
     */
    bool finalize(std::string *error = nullptr);

    /** Events recorded so far. */
    std::uint64_t totalEvents() const;

    /** True once finalize() succeeded. */
    bool finalized() const { return finalized_; }

  private:
    struct Buffer
    {
        std::vector<unsigned char> bytes;
        std::size_t used = 0;
    };

    void flush(unsigned tid);
    void discardStaging();

    std::string finalPath_;
    std::string stagingPath_;
    std::string key_;
    std::string name_;
    std::string params_;
    std::uint64_t sharedBytes_;
    unsigned threads_;
    std::ofstream staging_;
    bool ioFailed_ = false;
    bool finalized_ = false;
    std::vector<Buffer> buffers_;
    std::vector<std::uint64_t> counts_;
};

/**
 * A validated, memory-mapped packed trace. The constructor performs
 * the full structural check (header, index, payload bounds) plus one
 * O(n) payload walk (checksum and each record's one valid byte
 * form), so a stream() span is guaranteed to contain only well-formed
 * MemRefs — the replay hot loop never re-validates.
 */
class PackedTrace
{
  public:
    /** Map and validate @p path. @throws TraceFormatError */
    explicit PackedTrace(const std::string &path);
    ~PackedTrace();

    PackedTrace(PackedTrace &&other) noexcept;
    PackedTrace &operator=(PackedTrace &&) = delete;
    PackedTrace(const PackedTrace &) = delete;
    PackedTrace &operator=(const PackedTrace &) = delete;

    unsigned threads() const { return threads_; }
    std::uint64_t totalEvents() const { return totalEvents_; }
    std::uint64_t sharedBytes() const { return sharedBytes_; }
    /** Experiment cache key recorded at write time. */
    const std::string &key() const { return key_; }
    /** Workload::name() of the recorded workload. */
    const std::string &workloadName() const { return name_; }
    /** Workload::parameters() of the recorded workload. */
    const std::string &parameters() const { return params_; }

    /** The recorded stream of thread @p tid, ready to replay. */
    std::span<const MemRef>
    stream(unsigned tid) const
    {
        return streams_.at(tid);
    }

  private:
    void unmap();

    /** mmap base (or nullptr when the decoded fallback is in use). */
    void *map_ = nullptr;
    std::size_t mapBytes_ = 0;
    /** Owned decoded records (big-endian hosts only). */
    std::vector<std::vector<MemRef>> decoded_;
    std::vector<std::span<const MemRef>> streams_;
    unsigned threads_ = 0;
    std::uint64_t totalEvents_ = 0;
    std::uint64_t sharedBytes_ = 0;
    std::string key_;
    std::string name_;
    std::string params_;
};

} // namespace vcoma

#endif // VCOMA_SIM_MEMREF_PACK_HH
