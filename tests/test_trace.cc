/** @file Tests for trace recording and replay. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/machine.hh"
#include "sim/trace.hh"
#include "translation/system_builder.hh"
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

} // namespace

TEST(Trace, RecordProducesHeaderAndEvents)
{
    auto w = makeWorkload("STRIDE", params4());
    std::ostringstream os;
    const std::uint64_t events = recordTrace(*w, os);
    EXPECT_GT(events, 0u);
    const std::string text = os.str();
    EXPECT_EQ(text.rfind("vcoma-trace-v1\nthreads 4\n", 0), 0u);
}

TEST(Trace, RoundTripPreservesPerThreadStreams)
{
    auto w1 = makeWorkload("STRIDE", params4());
    std::ostringstream os;
    recordTrace(*w1, os);
    std::istringstream is(os.str());
    TraceWorkload replay(is);

    ASSERT_EQ(replay.numThreads(), 4u);
    // Replay thread streams must equal the original workload's.
    auto w2 = makeWorkload("STRIDE", params4());
    for (unsigned t = 0; t < 4; ++t) {
        auto gen = w2->thread(t);
        std::size_t i = 0;
        while (auto ref = gen.next()) {
            ASSERT_LT(i, replay.stream(t).size()) << "thread " << t;
            const MemRef &got = replay.stream(t)[i++];
            EXPECT_EQ(got.kind, ref->kind);
            EXPECT_EQ(got.vaddr, ref->vaddr);
            EXPECT_EQ(got.type, ref->type);
            EXPECT_EQ(got.work, ref->work);
            EXPECT_EQ(got.syncId, ref->syncId);
        }
        EXPECT_EQ(i, replay.stream(t).size());
    }
}

TEST(Trace, ReplayRunsIdenticallyToOriginal)
{
    // Barrier-phased, lock-free kernels replay with identical timing.
    RunStats original;
    {
        Machine m(tinyConfig(Scheme::VCOMA));
        auto w = makeWorkload("STRIDE", params4());
        original = m.run(*w);
    }
    std::ostringstream os;
    {
        auto w = makeWorkload("STRIDE", params4());
        recordTrace(*w, os);
    }
    std::istringstream is(os.str());
    TraceWorkload replay(is);
    Machine m(tinyConfig(Scheme::VCOMA));
    const RunStats replayed = m.run(replay);
    EXPECT_EQ(replayed.execTime, original.execTime);
    EXPECT_EQ(replayed.totalRefs(), original.totalRefs());
    EXPECT_EQ(replayed.remoteReads, original.remoteReads);
}

TEST(Trace, SyntheticSegmentCoversAddresses)
{
    auto w = makeWorkload("UNIFORM", params4());
    std::ostringstream os;
    recordTrace(*w, os);
    std::istringstream is(os.str());
    TraceWorkload replay(is);
    ASSERT_FALSE(replay.space().segments().empty());
    const Segment &seg = replay.space().segments().front();
    for (unsigned t = 0; t < replay.numThreads(); ++t) {
        for (const MemRef &ref : replay.stream(t)) {
            if (ref.kind != MemRef::Kind::Mem)
                continue;
            EXPECT_GE(ref.vaddr, seg.base);
            EXPECT_LT(ref.vaddr, seg.end());
        }
    }
}

TEST(Trace, RejectsMalformedInput)
{
    for (const char *text : {
             "not-a-trace\n",
             "vcoma-trace-v1\nthreads 0\n",
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
        EXPECT_THROW(TraceWorkload{is}, FatalError) << text;
    }
    // The highest address that still fits an 8-byte access is fine.
    std::istringstream is(
        "vcoma-trace-v1\nthreads 1\n0 R 18446744073709551607 1\n");
    TraceWorkload w{is};
    EXPECT_EQ(w.sharedBytes(), 8u);
}

TEST(Trace, DiagnosticsCarryLineNumbersAndDetail)
{
    auto messageOf = [](const std::string &text) {
        std::istringstream is(text);
        try {
            TraceWorkload w{is};
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
        std::istringstream is(
            "vcoma-trace-v1\nthreads 2\n\n0 R 100 1\n\n1 R 108 1\n");
        TraceWorkload w{is};
        EXPECT_EQ(w.stream(0).size(), 1u);
        EXPECT_EQ(w.stream(1).size(), 1u);
    }
}

TEST(Trace, LocksAndBarriersSurvive)
{
    auto w = makeWorkload("OCEAN", params4());
    std::ostringstream os;
    recordTrace(*w, os);
    std::istringstream is(os.str());
    TraceWorkload replay(is);
    unsigned locks = 0;
    unsigned barriers = 0;
    for (unsigned t = 0; t < replay.numThreads(); ++t) {
        for (const MemRef &ref : replay.stream(t)) {
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
    EXPECT_NO_THROW(m.run(replay));
}