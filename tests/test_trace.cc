/**
 * @file
 * Tests for the text trace grammar: recorded runs spelled as text
 * (`vcoma_trace dump`) parse back to the recorded streams and replay
 * through the packed path, and malformed text fails closed with a
 * line-numbered diagnostic.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "checkers.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "sim/trace_convert.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

WorkloadParams
params4()
{
    WorkloadParams p;
    p.threads = 4;
    p.scale = 0.05;
    p.seed = 11;
    return p;
}

/**
 * Run @p workload on a 4-node machine through RecordingWorkload and
 * return the recorded trace as `vcoma_trace dump` spells it; the
 * live run's sheet goes to @p live when given.
 */
std::string
recordedText(const std::string &workload, RunStats *live = nullptr)
{
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("vcoma_test_trace_" + std::to_string(::getpid()) + ".vctrace");
    auto w = makeWorkload(workload, params4());
    RecordingWorkload recording(*w, path.string(), "trace-test");
    Machine m(tinyConfig(Scheme::VCOMA));
    const RunStats stats = m.run(recording);
    EXPECT_TRUE(recording.finalize());
    if (live)
        *live = stats;
    std::ostringstream os;
    dumpPackedTraceAsText(path.string(), os);
    std::filesystem::remove(path);
    return os.str();
}

TextTrace
parse(const std::string &text)
{
    std::istringstream is(text);
    return parseTextTrace(is);
}

} // namespace

TEST(Trace, RecordProducesHeaderAndEvents)
{
    const std::string text = recordedText("STRIDE");
    EXPECT_EQ(text.rfind("vcoma-trace-v1\nthreads 4\n", 0), 0u);
    EXPECT_GT(std::count(text.begin(), text.end(), '\n'), 2);
}

TEST(Trace, RoundTripPreservesPerThreadStreams)
{
    const TextTrace replay = parse(recordedText("STRIDE"));
    ASSERT_EQ(replay.streams.size(), 4u);
    // Replay thread streams must equal the original workload's.
    auto w2 = makeWorkload("STRIDE", params4());
    for (unsigned t = 0; t < 4; ++t) {
        auto gen = w2->thread(t);
        std::size_t i = 0;
        while (auto ref = gen.next()) {
            ASSERT_LT(i, replay.streams[t].size()) << "thread " << t;
            EXPECT_EQ(replay.streams[t][i++], *ref);
        }
        EXPECT_EQ(i, replay.streams[t].size());
    }
}

TEST(Trace, ReplayRunsIdenticallyToOriginal)
{
    // Text and back through the packed path: the same timing. Only
    // the labels (name, parameters, footprint) are the text's own.
    RunStats original;
    const std::string text = recordedText("STRIDE", &original);
    Machine m(tinyConfig(Scheme::VCOMA));
    const RunStats replayed = m.run(*replayText(text));
    EXPECT_EQ(replayed.execTime, original.execTime);
    EXPECT_EQ(replayed.totalRefs(), original.totalRefs());
    EXPECT_EQ(replayed.remoteReads, original.remoteReads);
}

TEST(Trace, SyntheticSegmentCoversAddresses)
{
    // The footprint spans every touched address, and the packed
    // conversion keeps it as the replay's shared bytes.
    const std::string text = recordedText("UNIFORM");
    const TextTrace trace = parse(text);
    ASSERT_LT(trace.lo, trace.hi);
    for (const auto &stream : trace.streams) {
        for (const MemRef &ref : stream) {
            if (ref.kind != MemRef::Kind::Mem)
                continue;
            EXPECT_GE(ref.vaddr, trace.lo);
            EXPECT_LT(ref.vaddr, trace.hi);
        }
    }
    EXPECT_EQ(replayText(text)->sharedBytes(), trace.hi - trace.lo);
}

TEST(Trace, RejectsMalformedInput)
{
    for (const char *text : {
             "not-a-trace\n",
             "vcoma-trace-v1\nthreads 0\n",
             // More threads than a machine has nodes: rejected before
             // the per-thread streams are allocated.
             "vcoma-trace-v1\nthreads 65\n",
             "vcoma-trace-v1\nthreads 4294967295\n",
             "vcoma-trace-v1\nthreads 2\n5 R 100 1\n",
             "vcoma-trace-v1\nthreads 2\n0 X 1\n",
             // Negative and out-of-range numbers must be rejected,
             // never wrapped or clamped to some other value.
             "vcoma-trace-v1\nthreads 2\n0 R -4096 -3\n",
             "vcoma-trace-v1\nthreads 2\n0 R 4096 -3\n",
             "vcoma-trace-v1\nthreads 2\n0 L -1\n",
             "vcoma-trace-v1\nthreads 2\n-1 R 100 1\n",
             "vcoma-trace-v1\nthreads 2\n0 R 0x-1000 1\n",
             "vcoma-trace-v1\nthreads 2\n0 R 0x1FFFFFFFFFFFFFFFF 1\n",
             "vcoma-trace-v1\nthreads 2\n0 R 100 4294967296\n",
             "vcoma-trace-v1\nthreads 2\n0 B 4294967296\n",
             // An 8-byte access here would wrap past 2^64.
             "vcoma-trace-v1\nthreads 2\n0 R 18446744073709551612 1\n",
         }) {
        std::istringstream is(text);
        EXPECT_THROW(parseTextTrace(is), FatalError) << text;
    }
    // The highest address that still fits an 8-byte access is fine.
    const TextTrace top =
        parse("vcoma-trace-v1\nthreads 1\n0 R 18446744073709551607 1\n");
    EXPECT_EQ(top.hi - top.lo, 8u);
}

TEST(Trace, DiagnosticsCarryLineNumbersAndDetail)
{
    auto messageOf = [](const std::string &text) {
        try {
            parse(text);
        } catch (const FatalError &e) {
            return std::string(e.what());
        }
        return std::string();
    };

    // Out-of-range thread ids name the line and the declared count.
    {
        const std::string msg =
            messageOf("vcoma-trace-v1\nthreads 2\n0 R 100 1\n5 R 100 1\n");
        EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
        EXPECT_NE(msg.find("declares 2 threads"), std::string::npos)
            << msg;
    }
    // A second 'threads' header is called out as such, not as a
    // generic malformed event.
    {
        const std::string msg = messageOf(
            "vcoma-trace-v1\nthreads 2\n0 R 100 1\nthreads 2\n");
        EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
        EXPECT_NE(msg.find("duplicate 'threads'"), std::string::npos)
            << msg;
    }
    // Trailing garbage after a well-formed event is an error, not a
    // silently ignored suffix.
    {
        const std::string msg = messageOf(
            "vcoma-trace-v1\nthreads 2\n0 R 100 1 junk\n");
        EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("trailing garbage 'junk'"),
                  std::string::npos)
            << msg;
    }
    {
        const std::string msg =
            messageOf("vcoma-trace-v1\nthreads 2 extra\n");
        EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
        EXPECT_NE(msg.find("trailing garbage"), std::string::npos)
            << msg;
    }
    // Truncated events report the line and the event family.
    {
        const std::string msg =
            messageOf("vcoma-trace-v1\nthreads 2\n1 W 100\n");
        EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("truncated memory event"),
                  std::string::npos)
            << msg;
    }
    {
        const std::string msg =
            messageOf("vcoma-trace-v1\nthreads 2\n1 B\n");
        EXPECT_NE(msg.find("truncated barrier event"),
                  std::string::npos)
            << msg;
    }
    // Blank lines are still tolerated and do not shift the numbering.
    {
        const TextTrace t =
            parse("vcoma-trace-v1\nthreads 2\n\n0 R 100 1\n\n1 R 108 1\n");
        EXPECT_EQ(t.streams[0].size(), 1u);
        EXPECT_EQ(t.streams[1].size(), 1u);
    }
}

TEST(Trace, LocksAndBarriersSurvive)
{
    const std::string text = recordedText("OCEAN");
    unsigned locks = 0;
    unsigned barriers = 0;
    for (const auto &stream : parse(text).streams) {
        for (const MemRef &ref : stream) {
            if (ref.kind == MemRef::Kind::LockAcquire)
                ++locks;
            if (ref.kind == MemRef::Kind::Barrier)
                ++barriers;
        }
    }
    EXPECT_GT(locks, 0u);
    EXPECT_GT(barriers, 0u);
    // The replay still runs to completion on a machine.
    Machine m(tinyConfig(Scheme::L0));
    EXPECT_NO_THROW(m.run(*replayText(text)));
}
