/**
 * @file
 * Tests for the packed memref trace format: encode/decode round
 * trips, writer/reader round trips, and — most importantly — that
 * every way a trace file can be unusable (bad magic, unknown version,
 * truncation, corruption, out-of-range fields) is rejected with a
 * clear TraceFormatError, never a crash and never a silent partial
 * replay.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "sim/memref.hh"
#include "sim/memref_pack.hh"
#include "workloads/replay.hh"

using namespace vcoma;

namespace
{

struct TempDir
{
    TempDir()
    {
        path = std::filesystem::temp_directory_path() /
               ("vcoma_test_pack_" + std::to_string(::getpid()));
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::filesystem::path path;
};

/** The events thread @p tid of the reference trace carries. */
std::vector<MemRef>
sampleStream(unsigned tid)
{
    std::vector<MemRef> refs;
    refs.push_back(MemRef::read(0x1000 * (tid + 1), 3 + tid));
    refs.push_back(MemRef::write(0x1000 * (tid + 1) + 64, 2));
    refs.push_back(MemRef::barrier(7, 5));
    refs.push_back(MemRef::lock(tid));
    refs.push_back(MemRef::read(0xdeadbeefULL << tid, 1));
    refs.push_back(MemRef::unlock(tid));
    return refs;
}

/** Write the reference trace (3 threads) and return its path. */
std::string
writeSampleTrace(const TempDir &dir, const std::string &file = "t.vctrace")
{
    const std::string path = (dir.path / file).string();
    PackedTraceWriter writer(path, 3, "test-key", "TESTLOAD",
                             "some params", 4096);
    for (unsigned tid = 0; tid < 3; ++tid) {
        for (const MemRef &r : sampleStream(tid))
            writer.append(tid, r);
    }
    std::string error;
    EXPECT_TRUE(writer.finalize(&error)) << error;
    return path;
}

std::vector<unsigned char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<unsigned char>(
        std::istreambuf_iterator<char>(in),
        std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** Opening @p path must throw TraceFormatError mentioning @p detail. */
void
expectRejected(const std::string &path, const std::string &detail)
{
    try {
        PackedTrace trace(path);
        FAIL() << "opened a trace that should be rejected (" << detail
               << ")";
    } catch (const TraceFormatError &e) {
        EXPECT_NE(std::string(e.what()).find(detail), std::string::npos)
            << "error text '" << e.what() << "' does not mention '"
            << detail << "'";
    }
}

constexpr std::uint32_t maxU32 = std::numeric_limits<std::uint32_t>::max();

/** The extremes of every field: the largest address the text grammar
 * accepts (one 8-byte access below 2^64), and work and sync ids at
 * UINT32_MAX. */
std::vector<MemRef>
boundaryRecords()
{
    const VAddr top = std::numeric_limits<VAddr>::max() - 8;
    return {MemRef::read(top, maxU32),      MemRef::write(top, 0),
            MemRef::read(0, maxU32),        MemRef::barrier(maxU32, maxU32),
            MemRef::lock(maxU32, maxU32),   MemRef::unlock(maxU32, 0),
            MemRef::barrier(0, maxU32)};
}

} // namespace

TEST(MemRefPack, RecordIsSixteenBytes)
{
    EXPECT_EQ(sizeof(MemRef), 16u);
    EXPECT_EQ(packedRecordBytes, sizeof(MemRef));
    EXPECT_EQ(packedTraceVersion, 4u);
}

TEST(MemRefPack, PackUnpackRoundTripsEveryKind)
{
    for (const MemRef &ref :
         {MemRef::read(0x123456789abcdef0ULL, 42),
          MemRef::write(0xfedcba9876543210ULL, 1),
          MemRef::barrier(99, 7), MemRef::lock(3, 2),
          MemRef::unlock(3)}) {
        unsigned char bytes[packedRecordBytes];
        packMemRef(ref, bytes);
        EXPECT_EQ(unpackMemRef(bytes), ref);
    }
}

TEST(MemRefPack, BoundaryRecordsRoundTripPackedAndMapped)
{
    for (const MemRef &ref : boundaryRecords()) {
        unsigned char bytes[packedRecordBytes];
        packMemRef(ref, bytes);
        EXPECT_EQ(unpackMemRef(bytes), ref);
        // The operand word holds a sync id zero-extended.
        std::uint64_t operand = 0;
        for (int i = 7; i >= 0; --i)
            operand = operand << 8 | bytes[8 + i];
        EXPECT_EQ(operand, ref.kind == MemRef::Kind::Mem ? ref.vaddr
                                                         : ref.syncId);
    }

    TempDir dir;
    const std::string path = (dir.path / "edge.vctrace").string();
    PackedTraceWriter writer(path, 1, "k", "EDGE", "p", 0);
    for (const MemRef &ref : boundaryRecords())
        writer.append(0, ref);
    ASSERT_TRUE(writer.finalize());
    ReplayWorkload replay(path);
    const auto got = replay.stream(0);
    const std::vector<MemRef> expect = boundaryRecords();
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(got[i], expect[i]) << "record " << i;
}

TEST(MemRefPack, PackedBytesAreDeterministic)
{
    // The padding must be zeroed even when the scratch buffer is not:
    // recorded traces are compared and checksummed byte for byte.
    unsigned char a[packedRecordBytes];
    unsigned char b[packedRecordBytes];
    std::memset(a, 0x00, sizeof(a));
    std::memset(b, 0xff, sizeof(b));
    const MemRef ref = MemRef::read(0x42, 11);
    packMemRef(ref, a);
    packMemRef(ref, b);
    EXPECT_EQ(std::memcmp(a, b, packedRecordBytes), 0);
}

TEST(MemRefPack, WriterReaderRoundTrip)
{
    TempDir dir;
    const std::string path = writeSampleTrace(dir);

    PackedTrace trace(path);
    EXPECT_EQ(trace.threads(), 3u);
    EXPECT_EQ(trace.totalEvents(), 18u);
    EXPECT_EQ(trace.sharedBytes(), 4096u);
    EXPECT_EQ(trace.key(), "test-key");
    EXPECT_EQ(trace.workloadName(), "TESTLOAD");
    EXPECT_EQ(trace.parameters(), "some params");
    for (unsigned tid = 0; tid < 3; ++tid) {
        const std::vector<MemRef> expect = sampleStream(tid);
        const auto got = trace.stream(tid);
        ASSERT_EQ(got.size(), expect.size()) << "tid " << tid;
        for (std::size_t i = 0; i < expect.size(); ++i)
            EXPECT_EQ(got[i], expect[i]);
    }
}

TEST(MemRefPack, EmptyStreamsAreRepresentable)
{
    // A thread that never references shared memory records an empty
    // stream, not a malformed file.
    TempDir dir;
    const std::string path = (dir.path / "empty.vctrace").string();
    PackedTraceWriter writer(path, 2, "k", "N", "p", 0);
    writer.append(0, MemRef::read(0x10, 1));
    ASSERT_TRUE(writer.finalize());

    PackedTrace trace(path);
    EXPECT_EQ(trace.stream(0).size(), 1u);
    EXPECT_EQ(trace.stream(1).size(), 0u);
}

TEST(MemRefPack, AbandonedWriterPublishesNothing)
{
    TempDir dir;
    const std::string path = (dir.path / "gone.vctrace").string();
    {
        PackedTraceWriter writer(path, 1, "k", "N", "p", 0);
        for (int i = 0; i < 10000; ++i)  // force staging flushes
            writer.append(0, MemRef::read(i * 64, 1));
        // No finalize(): the run aborted.
    }
    EXPECT_FALSE(std::filesystem::exists(path));
    // And no staging debris either.
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

/** what() of the std::runtime_error @p f throws; empty if none. */
template <typename F>
std::string
thrownMessage(F f)
{
    try {
        f();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(MemRefPack, UnwritablePathFailsWithoutPublishing)
{
    // The staging file cannot be created: the writer refuses at
    // construction, naming the trace path, before it records anything.
    TempDir dir;
    const std::string path = (dir.path / "no/such/dir/x.vctrace").string();
    const std::string error = thrownMessage(
        [&] { PackedTraceWriter writer(path, 2, "k", "N", "p", 0); });
    EXPECT_NE(error.find("'" + path + "'"), std::string::npos) << error;
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

TEST(MemRefPack, UnwritableRecordingFailsBeforeTheRun)
{
    // A recording that could never publish fails when it is made, so
    // no run is simulated for a trace that will not exist.
    TempDir dir;
    const std::string path = (dir.path / "missing/r.vctrace").string();
    WorkloadParams wp;
    wp.threads = 2;
    wp.scale = 0.01;
    const std::unique_ptr<Workload> live = makeWorkload("FFT", wp);
    const std::string error = thrownMessage(
        [&] { RecordingWorkload recording(*live, path, "k"); });
    EXPECT_NE(error.find("'" + path + "'"), std::string::npos) << error;
    EXPECT_TRUE(std::filesystem::is_empty(dir.path));
}

TEST(MemRefPack, FinalizeTwiceFails)
{
    TempDir dir;
    const std::string path = (dir.path / "once.vctrace").string();
    PackedTraceWriter writer(path, 1, "k", "N", "p", 0);
    writer.append(0, MemRef::read(0x10, 1));
    ASSERT_TRUE(writer.finalize());
    EXPECT_TRUE(writer.finalized());
    std::string error;
    EXPECT_FALSE(writer.finalize(&error));
    EXPECT_NE(error.find("twice"), std::string::npos) << error;
}

TEST(MemRefPack, RejectsMissingFile)
{
    TempDir dir;
    expectRejected((dir.path / "absent.vctrace").string(),
                   "cannot open");
}

TEST(MemRefPack, RejectsBadMagic)
{
    TempDir dir;
    const std::string path = writeSampleTrace(dir);
    auto bytes = readFile(path);
    bytes[0] ^= 0x40;
    writeFile(path, bytes);
    expectRejected(path, "bad magic");
}

TEST(MemRefPack, RejectsArbitraryTextFile)
{
    TempDir dir;
    const std::string path = (dir.path / "notes.vctrace").string();
    std::ofstream(path) << "this is not a trace, whatever the "
                           "extension claims. padding padding padding "
                           "to get past the header-size check.\n";
    expectRejected(path, "bad magic");
}

TEST(MemRefPack, RejectsUnknownVersion)
{
    TempDir dir;
    const std::string path = writeSampleTrace(dir);
    auto bytes = readFile(path);
    bytes[8] = 99;  // u32 version at offset 8 (little-endian)
    bytes[9] = bytes[10] = bytes[11] = 0;
    writeFile(path, bytes);
    expectRejected(path, "version 99 unsupported");
}

TEST(MemRefPack, RejectsFileSmallerThanHeader)
{
    TempDir dir;
    const std::string path = writeSampleTrace(dir);
    auto bytes = readFile(path);
    bytes.resize(packedHeaderBytes - 1);
    writeFile(path, bytes);
    expectRejected(path, "truncated");
}

TEST(MemRefPack, RejectsTruncatedPayload)
{
    // A torn copy that lost the tail: the index promises more payload
    // than the file holds.
    TempDir dir;
    const std::string path = writeSampleTrace(dir);
    auto bytes = readFile(path);
    bytes.resize(bytes.size() - packedRecordBytes);
    writeFile(path, bytes);
    expectRejected(path, "truncated");
}

TEST(MemRefPack, RejectsGrownFile)
{
    // Stray bytes appended after the payload are just as suspect as
    // missing ones.
    TempDir dir;
    const std::string path = writeSampleTrace(dir);
    auto bytes = readFile(path);
    bytes.resize(bytes.size() + 8, 0);
    writeFile(path, bytes);
    expectRejected(path, "truncated or grown");
}

TEST(MemRefPack, RejectsCorruptPayload)
{
    // Any flipped payload byte fails the checksum before the records
    // are ever interpreted.
    TempDir dir;
    const std::string path = writeSampleTrace(dir);
    auto bytes = readFile(path);
    bytes[bytes.size() - 3] ^= 0x01;
    writeFile(path, bytes);
    expectRejected(path, "checksum mismatch");
}

TEST(MemRefPack, RejectsOutOfRangeKind)
{
    // A record whose kind byte is outside the MemRef::Kind range must
    // be rejected at open() even when the checksum matches (i.e. the
    // writer itself was fed garbage), so the replay hot loop never
    // sees an invalid enum.
    TempDir dir;
    const std::string path = (dir.path / "kind.vctrace").string();
    PackedTraceWriter writer(path, 1, "k", "N", "p", 0);
    MemRef bad = MemRef::read(0x10, 1);
    bad.kind = static_cast<MemRef::Kind>(7);
    writer.append(0, bad);
    ASSERT_TRUE(writer.finalize());
    expectRejected(path, "invalid kind/type");
}

TEST(MemRefPack, RejectsVersion2)
{
    // A v2 file (the reserved word at offset 60 held no checksum)
    // must re-record, not load.
    TempDir dir;
    const std::string path = writeSampleTrace(dir);
    auto bytes = readFile(path);
    bytes[8] = 2;
    writeFile(path, bytes);
    expectRejected(path, "version 2 unsupported");
}

TEST(MemRefPack, RejectsVersion3)
{
    // A v3 file (24-byte records) must re-record, not load.
    TempDir dir;
    const std::string path = writeSampleTrace(dir);
    auto bytes = readFile(path);
    bytes[8] = 3;
    writeFile(path, bytes);
    expectRejected(path, "version 3 unsupported");
}

TEST(MemRefPack, RejectsCorruptHeaderStringsAndPadding)
{
    // The header checksum covers every byte before the payload: the
    // key string, the string padding, the checksum word itself and
    // the flag bits the reader has no other use for.
    TempDir dir;
    const std::string path = writeSampleTrace(dir);
    const auto clean = readFile(path);
    std::uint32_t lengths[3] = {};  // key, name, params
    std::memcpy(lengths, clean.data() + 48, sizeof(lengths));
    const std::size_t padding =
        packedHeaderBytes + lengths[0] + lengths[1] + lengths[2];
    ASSERT_NE(padding % 8, 0u) << "the sample's strings need padding";
    for (std::size_t at :
         {std::size_t{packedHeaderBytes}, padding, std::size_t{60},
          std::size_t{63}}) {
        SCOPED_TRACE("byte " + std::to_string(at));
        auto bytes = clean;
        bytes[at] ^= 0x04;
        writeFile(path, bytes);
        expectRejected(path, "header checksum mismatch");
    }
    auto flags = clean;
    flags[21] ^= 0x01;  // u32 flags at offset 20: bit 8
    writeFile(path, flags);
    expectRejected(path, "unknown flag bits");
}

TEST(MemRefPack, RejectsZeroThreads)
{
    TempDir dir;
    const std::string path = writeSampleTrace(dir);
    auto bytes = readFile(path);
    bytes[16] = bytes[17] = bytes[18] = bytes[19] = 0;  // u32 threads
    writeFile(path, bytes);
    expectRejected(path, "zero threads");
}
