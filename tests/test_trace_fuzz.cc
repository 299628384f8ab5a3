/**
 * @file
 * Seeded fuzzing of the two trace readers: the packed memref format
 * (PackedTrace, behind ReplayWorkload and "TRACE:" workloads) and the
 * text grammar (TraceWorkload). Each mutation — a bit flip, a
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

bool
sameRef(const MemRef &a, const MemRef &b)
{
    return a.kind == b.kind && a.type == b.type && a.vaddr == b.vaddr &&
           a.work == b.work && a.syncId == b.syncId;
}

bool
sameStreams(const Streams &a, const Streams &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t t = 0; t < a.size(); ++t) {
        if (a[t].size() != b[t].size() ||
            !std::equal(a[t].begin(), a[t].end(), b[t].begin(), sameRef))
            return false;
    }
    return true;
}

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
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = 0.01;
    auto live = makeWorkload("STRIDE", p);
    {
        RecordingWorkload recorder(*live, original.string(), "fuzz-key");
        Machine(cfg).run(recorder);
        ASSERT_TRUE(recorder.finalize());
    }
    ReplayWorkload reference(original.string());
    const Streams recorded = streamsOf(reference);
    const std::string bytes = slurp(original);

    // Region bounds from the header: fixed fields, then the strings
    // and the index, then the payload.
    std::uint32_t threads = 0, keyBytes = 0, nameBytes = 0, paramBytes = 0;
    std::memcpy(&threads, bytes.data() + 16, 4);
    std::memcpy(&keyBytes, bytes.data() + 48, 4);
    std::memcpy(&nameBytes, bytes.data() + 52, 4);
    std::memcpy(&paramBytes, bytes.data() + 56, 4);
    const std::size_t strings =
        (std::size_t{keyBytes} + nameBytes + paramBytes + 7) / 8 * 8;
    const std::size_t payloadStart =
        packedHeaderBytes + strings + std::size_t{threads} * 16;
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
            ASSERT_TRUE(sameStreams(streamsOf(replay), recorded))
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
 * A text trace recorded from a live workload, mutated 2000 ways. A
 * mutant either throws FatalError naming a line, or loads exactly one
 * event per event line it spells, and replays identically through the
 * packed path (convert, then ReplayWorkload).
 */
TEST(TraceFuzz, TextTraceMutantsAreRejectedOrReplayIdentically)
{
    WorkloadParams p;
    p.threads = 4;
    p.scale = 0.005;
    auto live = makeWorkload("UNIFORM", p);
    std::ostringstream os;
    recordTrace(*live, os);
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

    TempDir dir;
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
        std::unique_ptr<TraceWorkload> w;
        try {
            w = std::make_unique<TraceWorkload>(is);
        } catch (const FatalError &e) {
            ++rejected;
            EXPECT_NE(std::string(e.what()).find("trace"),
                      std::string::npos)
                << where << ": " << e.what();
            continue;
        }
        ++loaded;
        const Streams streams = streamsOf(*w);
        std::uint64_t events = 0;
        for (const auto &s : streams)
            events += s.size();
        ASSERT_EQ(events, eventLines(mutant)) << where << " loaded partially";

        std::istringstream again(mutant);
        convertTextTraceToPacked(again, packed.string());
        ReplayWorkload replay(packed.string());
        ASSERT_TRUE(sameStreams(streamsOf(replay), streams))
            << where << " replays differently through the packed path";
    }
    EXPECT_EQ(rejected + loaded, kMutations);
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(loaded, 0u);
}
