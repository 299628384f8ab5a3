/**
 * @file
 * Seeded fuzzing of the two trace readers: the packed memref format
 * (PackedTrace, behind ReplayWorkload and "TRACE:" workloads) and the
 * text grammar (parseTextTrace). Each mutation — a bit flip, a
 * deletion, an insertion or a truncation, aimed at the header, the
 * index/string section or the payload — must either be rejected with
 * the reader's typed error (TraceFormatError for packed traces,
 * FatalError with a line number for text) or load a trace that
 * replays identically. Nothing may crash, and nothing may load a
 * partial stream.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "sim/machine.hh"
#include "sim/memref_pack.hh"
#include "sim/trace.hh"
#include "sim/trace_convert.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

constexpr unsigned kMutations = 2000;

struct TempDir
{
    TempDir()
    {
        static std::atomic<unsigned> seq{0};
        path = std::filesystem::temp_directory_path() /
               ("vcoma_test_fuzz_" + std::to_string(::getpid()) + "_" +
                std::to_string(seq++));
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::filesystem::path path;
};

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
spit(const std::filesystem::path &path, const std::string &bytes)
{
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

using Streams = std::vector<std::vector<MemRef>>;

/** Every thread's materialised stream of @p w. */
Streams
streamsOf(Workload &w)
{
    Streams out(w.numThreads());
    for (unsigned t = 0; t < w.numThreads(); ++t) {
        const auto s = w.stream(t);
        out[t].assign(s.begin(), s.end());
    }
    return out;
}

/** The mutation kinds, applied to one region of the file. */
enum class Mutation { Flip, Delete, Insert, Truncate };

/**
 * Apply one seeded mutation to @p bytes inside [begin, end) (a
 * truncation cuts the file there). Never a no-op.
 */
std::string
mutate(std::string bytes, std::size_t begin, std::size_t end, Rng &rng,
       Mutation &kind)
{
    kind = static_cast<Mutation>(rng.below(4));
    const std::size_t at = begin + rng.below(end - begin);
    switch (kind) {
      case Mutation::Flip:
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << rng.below(8)));
        break;
      case Mutation::Delete:
        bytes.erase(at,
                    1 + rng.below(std::min<std::size_t>(16, end - at)));
        break;
      case Mutation::Insert: {
        std::string junk(1 + rng.below(16), '\0');
        for (char &c : junk)
            c = static_cast<char>(rng.below(256));
        bytes.insert(at, junk);
        break;
      }
      case Mutation::Truncate:
        bytes.resize(at);
        break;
    }
    return bytes;
}

/** Record a tiny V-COMA run of STRIDE as a packed trace at @p path. */
void
recordLive(const std::filesystem::path &path, const std::string &workload,
           double scale)
{
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = scale;
    auto live = makeWorkload(workload, p);
    RecordingWorkload recorder(*live, path.string(), "fuzz-key");
    Machine(cfg).run(recorder);
    ASSERT_TRUE(recorder.finalize());
}

/** Where the payload of the packed trace @p bytes starts, from the
 * header: fixed fields, then the strings and the index. */
std::size_t
payloadStartOf(const std::string &bytes)
{
    std::uint32_t threads = 0, keyBytes = 0, nameBytes = 0, paramBytes = 0;
    std::memcpy(&threads, bytes.data() + 16, 4);
    std::memcpy(&keyBytes, bytes.data() + 48, 4);
    std::memcpy(&nameBytes, bytes.data() + 52, 4);
    std::memcpy(&paramBytes, bytes.data() + 56, 4);
    const std::size_t strings =
        (std::size_t{keyBytes} + nameBytes + paramBytes + 7) / 8 * 8;
    return packedHeaderBytes + strings + std::size_t{threads} * 16;
}

/** FNV-1a/64 from @p hash over the 8-byte words of @p bytes at @p p. */
std::uint64_t
fnvWords(std::uint64_t hash, const char *p, std::size_t bytes)
{
    for (std::size_t i = 0; i + 8 <= bytes; i += 8) {
        std::uint64_t word = 0;
        std::memcpy(&word, p + i, 8);
        hash = (hash ^ word) * 0x100000001b3ULL;
    }
    return hash;
}

/**
 * Re-seal the packed trace @p bytes after a payload edit: recompute
 * the payload checksum and, as it lives in the header, the header
 * checksum (both as sim/memref_pack.hh defines them), so only the
 * reader's record checks can object to the edit.
 */
void
reseal(std::string &bytes)
{
    constexpr std::uint64_t basis = 0xcbf29ce484222325ULL;
    const std::size_t payloadStart = payloadStartOf(bytes);
    const std::uint64_t payload =
        fnvWords(basis, bytes.data() + payloadStart,
                 bytes.size() - payloadStart);
    std::memcpy(bytes.data() + 40, &payload, 8);
    std::memset(bytes.data() + 60, 0, 4);
    const std::uint64_t header = fnvWords(basis, bytes.data(), payloadStart);
    const auto folded = static_cast<std::uint32_t>(header ^ header >> 32);
    std::memcpy(bytes.data() + 60, &folded, 4);
}

} // namespace

/**
 * A packed trace recorded from a live run, mutated 2000 ways across
 * its header (fixed fields), its string/index section and its
 * payload. A header or string/index mutant must throw
 * TraceFormatError: the header checksum covers every byte before the
 * payload, so not even a flip in the key string or in padding the
 * replay never reads may load. A payload mutant either throws or maps
 * exactly the recorded streams.
 */
TEST(TraceFuzz, PackedTraceMutantsAreRejectedOrReplayIdentically)
{
    TempDir dir;
    const auto original = dir.path / "original.vctrace";
    recordLive(original, "STRIDE", 0.01);
    ReplayWorkload reference(original.string());
    const Streams recorded = streamsOf(reference);
    const std::string bytes = slurp(original);
    const std::size_t payloadStart = payloadStartOf(bytes);
    ASSERT_LT(payloadStart, bytes.size());
    const std::size_t regions[4] = {0, packedHeaderBytes, payloadStart,
                                    bytes.size()};

    Rng rng(0xf022);
    unsigned rejected = 0, loaded = 0;
    unsigned perRegion[3] = {};
    const auto mutant = dir.path / "mutant.vctrace";
    for (unsigned i = 0; i < kMutations; ++i) {
        const unsigned region = static_cast<unsigned>(rng.below(3));
        ++perRegion[region];
        Mutation kind;
        spit(mutant, mutate(bytes, regions[region], regions[region + 1],
                            rng, kind));
        const std::string where = "mutation " + std::to_string(i) +
                                  " (kind " +
                                  std::to_string(static_cast<int>(kind)) +
                                  ", region " + std::to_string(region) + ")";
        try {
            ReplayWorkload replay(mutant.string());
            ++loaded;
            ASSERT_EQ(region, 2u) << where << " loaded";
            ASSERT_TRUE(streamsOf(replay) == recorded)
                << where << " loaded a different stream";
        } catch (const TraceFormatError &) {
            ++rejected;
        }
    }
    EXPECT_EQ(rejected + loaded, kMutations);
    EXPECT_GE(rejected, perRegion[0] + perRegion[1]);
    for (unsigned n : perRegion)
        EXPECT_GT(n, kMutations / 4);
}

/**
 * Every valid event has exactly one byte form. A payload edited off
 * it and then resealed (both checksums recomputed, so the checksums
 * cannot object) must still throw TraceFormatError: a set bit in a
 * record's two pad bytes, in the upper half of a sync record's
 * operand word, or in a sync record's type byte.
 */
TEST(TraceFuzz, ResealedNonCanonicalRecordsAreRejected)
{
    TempDir dir;
    const auto original = dir.path / "original.vctrace";
    recordLive(original, "STRIDE", 0.01);
    const std::string clean = slurp(original);
    const std::size_t payloadStart = payloadStartOf(clean);

    // The first memory record and the first sync record.
    std::size_t memAt = 0, syncAt = 0;
    for (std::size_t at = payloadStart; at < clean.size();
         at += packedRecordBytes) {
        const auto kind = static_cast<MemRef::Kind>(clean[at]);
        if (kind == MemRef::Kind::Mem && memAt == 0)
            memAt = at;
        if (kind != MemRef::Kind::Mem && syncAt == 0)
            syncAt = at;
    }
    ASSERT_NE(memAt, 0u);
    ASSERT_NE(syncAt, 0u) << "STRIDE records no sync event";

    const auto mutant = dir.path / "mutant.vctrace";
    auto expectRejected = [&](std::size_t at, unsigned bit,
                              const std::string &detail) {
        SCOPED_TRACE("byte " + std::to_string(at) + " bit " +
                     std::to_string(bit));
        std::string bytes = clean;
        bytes[at] = static_cast<char>(bytes[at] ^ (1u << bit));
        reseal(bytes);
        spit(mutant, bytes);
        try {
            ReplayWorkload replay(mutant.string());
            ADD_FAILURE() << "loaded a non-canonical record";
        } catch (const TraceFormatError &e) {
            EXPECT_NE(std::string(e.what()).find(detail),
                      std::string::npos)
                << e.what();
        }
    };

    // Resealing an unedited trace must load, or the cases below
    // would pass on a checksum mismatch.
    std::string same = clean;
    reseal(same);
    ASSERT_EQ(same, clean);
    for (const std::size_t record : {memAt, syncAt}) {
        for (const std::size_t pad : {2, 3}) {
            for (const unsigned bit : {0u, 7u})
                expectRejected(record + pad, bit, "nonzero padding");
        }
    }
    for (std::size_t upper = 12; upper < 16; ++upper) {
        for (const unsigned bit : {0u, 7u}) {
            expectRejected(syncAt + upper, bit,
                           "sync id wider than 32 bits");
        }
    }
    expectRejected(syncAt + 1, 0, "invalid kind/type");
}

/**
 * A live run's recorded trace, spelled as text by `vcoma_trace dump`
 * and mutated 2000 ways. A
 * mutant either throws FatalError naming a line, or loads exactly one
 * event per event line it spells, and replays identically through the
 * packed path (convert, then ReplayWorkload).
 */
TEST(TraceFuzz, TextTraceMutantsAreRejectedOrReplayIdentically)
{
    TempDir dir;
    const auto seed = dir.path / "seed.vctrace";
    recordLive(seed, "UNIFORM", 0.005);
    std::ostringstream os;
    dumpPackedTraceAsText(seed.string(), os);
    const std::string text = os.str();
    const std::size_t header = text.find('\n', text.find('\n') + 1) + 1;
    ASSERT_LT(header, text.size());
    const std::size_t regions[3] = {0, header, text.size()};

    // Event lines: neither blank nor a comment, after the two header
    // lines.
    auto eventLines = [](const std::string &t) {
        std::istringstream is(t);
        std::string line;
        std::uint64_t n = 0, lineNo = 0;
        while (std::getline(is, line)) {
            if (++lineNo <= 2)
                continue;
            const auto first = line.find_first_not_of(" \t\r");
            if (first != std::string::npos && line[first] != '#')
                ++n;
        }
        return n;
    };

    const auto packed = dir.path / "mutant.vctrace";
    Rng rng(0x7e47);
    unsigned rejected = 0, loaded = 0;
    for (unsigned i = 0; i < kMutations; ++i) {
        const unsigned region = static_cast<unsigned>(rng.below(2));
        Mutation kind;
        const std::string mutant =
            mutate(text, regions[region], regions[region + 1], rng, kind);
        const std::string where = "mutation " + std::to_string(i) +
                                  " (kind " +
                                  std::to_string(static_cast<int>(kind)) +
                                  ", region " + std::to_string(region) + ")";
        std::istringstream is(mutant);
        Streams streams;
        try {
            streams = parseTextTrace(is).streams;
        } catch (const FatalError &e) {
            ++rejected;
            EXPECT_NE(std::string(e.what()).find("trace"),
                      std::string::npos)
                << where << ": " << e.what();
            continue;
        }
        ++loaded;
        std::uint64_t events = 0;
        for (const auto &s : streams)
            events += s.size();
        ASSERT_EQ(events, eventLines(mutant)) << where << " loaded partially";

        std::istringstream again(mutant);
        convertTextTraceToPacked(again, packed.string());
        ReplayWorkload replay(packed.string());
        ASSERT_TRUE(streamsOf(replay) == streams)
            << where << " replays differently through the packed path";
    }
    EXPECT_EQ(rejected + loaded, kMutations);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(loaded, 0u);
}
