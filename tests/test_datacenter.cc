/**
 * @file
 * Tests for the datacenter frontend: the Zipfian rank sampler, the
 * KVLOOKUP/GRAPH/STREAMJOIN kernels and their inline knob spelling,
 * the text<->packed trace converter behind tools/vcoma_trace, and
 * the TRACE:<path> workload spelling end to end through
 * Runner::runAll.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checkers.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "harness/runner.hh"
#include "sim/machine.hh"
#include "sim/memref_pack.hh"
#include "sim/run_stats_json.hh"
#include "sim/trace_convert.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"
#include "workloads/zipf.hh"

using namespace vcoma;

namespace
{

struct TempDir
{
    TempDir()
    {
        static int seq = 0;
        path = std::filesystem::temp_directory_path() /
               ("vcoma_test_dc_" + std::to_string(::getpid()) + "_" +
                std::to_string(seq++));
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::filesystem::path path;
};

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.threads = 4;
    p.scale = 0.02;
    return p;
}

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats);
    return os.str();
}

std::string
runTiny(const std::string &spelling)
{
    const MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    auto workload = makeWorkload(spelling, tinyParams());
    Machine machine(cfg);
    return statsJson(machine.run(*workload));
}

/** A small, valid text trace in the sim/trace.hh grammar. */
const char *const kTextTrace = "vcoma-trace-v1\n"
                               "threads 2\n"
                               "# interleaved on purpose\n"
                               "0 R 0x1000 2\n"
                               "1 W 0x2000 3\n"
                               "0 B 1\n"
                               "1 B 1\n"
                               "0 L 7\n"
                               "0 U 7\n"
                               "1 R 4096 1\n";

} // namespace

// ---------------------------------------------------------------------
// Zipfian sampler.

TEST(Zipf, ThetaZeroIsUniform)
{
    ZipfGenerator zipf(8, 0.0);
    Rng rng(99);
    long bins[8] = {};
    const int draws = 16000;
    for (int i = 0; i < draws; ++i) {
        const std::uint64_t r = zipf.next(rng);
        ASSERT_LT(r, 8u);
        ++bins[r];
    }
    const double expected = draws / 8.0;
    double chi2 = 0;
    for (long b : bins) {
        const double d = b - expected;
        chi2 += d * d / expected;
    }
    // p = 0.001 critical value for 7 degrees of freedom.
    EXPECT_LT(chi2, 24.32);
}

TEST(Zipf, HighThetaConcentratesOnTheHead)
{
    ZipfGenerator zipf(1000, 1.3);
    Rng rng(7);
    int head = 0;
    const int draws = 4000;
    for (int i = 0; i < draws; ++i) {
        if (zipf.next(rng) < 10)
            ++head;
    }
    // Under uniform sampling the top-10 share would be 1%; theta 1.3
    // pushes well past half.  (Analytically ~0.75 for n=1000.)
    EXPECT_GT(head, draws / 2);
}

TEST(Zipf, DeterministicGivenTheRngStream)
{
    ZipfGenerator zipf(64, 0.99);
    Rng a(5), b(5);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(zipf.next(a), zipf.next(b));
}

// ---------------------------------------------------------------------
// Kernels and the inline knob spelling.

TEST(DatacenterKernels, RunDeterministicallyAcrossInstances)
{
    for (const char *name : {"KVLOOKUP", "GRAPH", "STREAMJOIN"}) {
        EXPECT_EQ(runTiny(name), runTiny(name)) << name;
    }
}

TEST(DatacenterKernels, KnobsChangeTheRun)
{
    const std::string base = runTiny("KVLOOKUP");
    EXPECT_NE(runTiny("KVLOOKUP:skew=0"), base);
    EXPECT_NE(runTiny("KVLOOKUP:read=0.1"), base);
    EXPECT_NE(runTiny("GRAPH:ws=4"), runTiny("GRAPH"));
}

TEST(DatacenterKernels, KnobSpellingIsCaseInsensitive)
{
    EXPECT_EQ(runTiny("kvlookup:SKEW=1.2,Read=0.5"),
              runTiny("KVLOOKUP:skew=1.2,read=0.5"));
}

TEST(DatacenterKernels, ParametersNameTheKnobs)
{
    WorkloadParams p = tinyParams();
    p.skew = 1.25;
    p.readRatio = 0.5;
    auto kv = makeWorkload("KVLOOKUP", p);
    EXPECT_NE(kv->parameters().find("skew=1.25"), std::string::npos)
        << kv->parameters();
    EXPECT_NE(kv->parameters().find("read=0.50"), std::string::npos)
        << kv->parameters();
}

TEST(DatacenterKernels, MalformedKnobsAreFatal)
{
    const WorkloadParams p = tinyParams();
    EXPECT_THROW(makeWorkload("KVLOOKUP:bogus=1", p), FatalError);
    EXPECT_THROW(makeWorkload("KVLOOKUP:skew=abc", p), FatalError);
    EXPECT_THROW(makeWorkload("KVLOOKUP:read=1.5", p), FatalError);
    EXPECT_THROW(makeWorkload("KVLOOKUP:ws=0", p), FatalError);
    EXPECT_THROW(makeWorkload("KVLOOKUP:skew=-1", p), FatalError);
}

TEST(DatacenterKernels, ListedInWorkloadNames)
{
    const auto &names = workloadNames();
    for (const char *name : {"KVLOOKUP", "GRAPH", "STREAMJOIN"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), name),
                  names.end())
            << name;
    }
}

TEST(TraceSpelling, DetectionIsCaseInsensitiveButPreservesThePath)
{
    EXPECT_TRUE(isTraceSpelling("TRACE:/tmp/x.vctrace"));
    EXPECT_TRUE(isTraceSpelling("trace:/tmp/x.vctrace"));
    EXPECT_FALSE(isTraceSpelling("TRACE:"));
    EXPECT_FALSE(isTraceSpelling("TRACER:/x"));
    EXPECT_FALSE(isTraceSpelling("KVLOOKUP"));
}

// ---------------------------------------------------------------------
// Text <-> packed conversion (the vcoma_trace library layer).

TEST(TraceConvert, TextRoundTripsThroughPackedByteForByte)
{
    TempDir dir;
    const std::string packed = (dir.path / "t.vctrace").string();
    std::istringstream in(kTextTrace);
    EXPECT_EQ(convertTextTraceToPacked(in, packed, "WEB", "prov"), 7u);

    const PackedTraceSummary s = summarizePackedTrace(packed);
    EXPECT_EQ(s.threads, 2u);
    EXPECT_EQ(s.totalEvents, 7u);
    EXPECT_EQ(s.workloadName, "WEB");
    EXPECT_EQ(s.key, "prov");
    ASSERT_EQ(s.perThreadEvents.size(), 2u);
    EXPECT_EQ(s.perThreadEvents[0], 4u);
    EXPECT_EQ(s.perThreadEvents[1], 3u);

    // dump -> convert -> dump is a fixed point: the first dump
    // canonicalises the interleaving (tid order), after which the
    // text and packed forms carry identical information.
    std::ostringstream dump1;
    dumpPackedTraceAsText(packed, dump1);
    const std::string repacked = (dir.path / "t2.vctrace").string();
    std::istringstream in2(dump1.str());
    EXPECT_EQ(convertTextTraceToPacked(in2, repacked, "WEB", "prov"),
              7u);
    std::ostringstream dump2;
    dumpPackedTraceAsText(repacked, dump2);
    EXPECT_EQ(dump2.str(), dump1.str());
}

TEST(TraceConvert, MalformedTextIsFatal)
{
    TempDir dir;
    const std::string out = (dir.path / "bad.vctrace").string();
    {
        std::istringstream in("not-a-trace\n");
        EXPECT_THROW(convertTextTraceToPacked(in, out), FatalError);
    }
    {   // tid out of range.
        std::istringstream in("vcoma-trace-v1\nthreads 1\n3 R 0 1\n");
        EXPECT_THROW(convertTextTraceToPacked(in, out), FatalError);
    }
    EXPECT_FALSE(std::filesystem::exists(out))
        << "a failed conversion must not publish a file";
}

TEST(TraceConvert, ConvertedTraceReplaysInTheMachine)
{
    TempDir dir;
    const std::string packed = (dir.path / "m.vctrace").string();
    std::istringstream in(kTextTrace);
    convertTextTraceToPacked(in, packed);

    // tinyConfig has 4 nodes but the trace has 2 threads, so build a
    // 2-node machine around it.
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.numNodes = 2;
    auto workload = makeWorkload("TRACE:" + packed, tinyParams());
    EXPECT_EQ(workload->numThreads(), 2u);
    Machine machine(cfg);
    const RunStats stats = machine.run(*workload);
    EXPECT_EQ(stats.workload, "TRACE");
    // cpu.refs counts memory references only; the fixture has three
    // (the barrier/lock events are sync, not refs).
    std::uint64_t refs = 0;
    for (const auto &cpu : stats.cpus)
        refs += cpu.refs;
    EXPECT_EQ(refs, 3u);
}

// ---------------------------------------------------------------------
// TRACE:<path> through Runner::runAll, byte-identical to a live run.

TEST(DatacenterRunner, TraceWorkloadRoundTripsThroughRunAll)
{
    TempDir dir;
    // Record a KVLOOKUP run at sweep scale (32 nodes) so the trace
    // thread count matches the config's node count.
    ExperimentConfig cfg;
    cfg.workload = "KVLOOKUP:skew=1.2,read=0.5";
    cfg.scheme = Scheme::VCOMA;
    cfg.nodes = 32;
    cfg.scale = 0.02;
    const std::string trace = (dir.path / "kv.vctrace").string();
    const std::string liveJson = statsJson(recordExperiment(cfg, trace));
    ASSERT_TRUE(std::filesystem::exists(trace));

    ExperimentConfig traceCfg = cfg;
    traceCfg.workload = "TRACE:" + trace;

    // One batch carrying the replay and a fresh live run side by side.
    Runner runner("");
    const std::vector<ExperimentConfig> batch{traceCfg, cfg};
    const auto results = runner.runAll(batch);
    ASSERT_NE(results[0], nullptr) << runner.failureMessage(traceCfg.key());
    ASSERT_NE(results[1], nullptr);
    EXPECT_EQ(statsJson(*results[0]), liveJson)
        << "TRACE: replay diverged from the recorded live run";
    EXPECT_EQ(statsJson(*results[1]), liveJson)
        << "live run differs from the recording run";
}
