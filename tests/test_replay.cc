/**
 * @file
 * Byte-identity tests for packed-trace record/replay: a simulation
 * replayed from a recorded trace must be indistinguishable — every
 * RunStats field, every component counter, the stats JSON byte for
 * byte — from the live run that recorded it, with the fast filter both
 * on (the default) and off (checkLevel 2). Replay is a speed knob,
 * never a model knob.
 *
 * Also covers the Runner integration: a "TRACE:<path>" config replays
 * the recorded run's sheet byte for byte, and an unusable trace fails
 * its own config, never the sweep, and never replays garbage.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "checkers.hh"
#include "harness/runner.hh"
#include "sim/machine.hh"
#include "sim/memref_pack.hh"
#include "sim/run_stats_json.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

struct TempDir
{
    TempDir()
    {
        // pid + per-process sequence: tests that hold several live
        // TempDirs at once (trace dir + two cache dirs) must not
        // collide.
        static int seq = 0;
        path = std::filesystem::temp_directory_path() /
               ("vcoma_test_replay_" + std::to_string(::getpid()) +
                "_" + std::to_string(seq++));
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::filesystem::path path;
};

struct RunResult
{
    RunStats stats;
    /** Full stats sheet (every component counter). */
    std::string dump;
    /** writeRunStatsJson() output (every RunStats field). */
    std::string json;
};

RunResult
runMachine(const MachineConfig &cfg, Workload &workload)
{
    Machine machine(cfg);
    RunResult r;
    r.stats = machine.run(workload);
    std::ostringstream dump;
    machine.dumpStats(dump);
    r.dump = dump.str();
    std::ostringstream json;
    writeRunStatsJson(json, r.stats);
    r.json = json.str();
    return r;
}

/** Live run of @p workload, recorded into @p tracePath. */
RunResult
runLiveRecording(const std::string &workload, unsigned checkLevel,
                 const std::string &tracePath)
{
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.checkLevel = checkLevel;
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = 0.02;
    auto live = makeWorkload(workload, p);
    RecordingWorkload recorder(*live, tracePath, "identity-test");
    RunResult r = runMachine(cfg, recorder);
    EXPECT_TRUE(recorder.finalize());
    return r;
}

RunResult
runReplay(unsigned checkLevel, const std::string &tracePath)
{
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.checkLevel = checkLevel;
    ReplayWorkload replay(tracePath);
    return runMachine(cfg, replay);
}

} // namespace

using Case = std::tuple<std::string, bool>;

class ReplayIdentity : public ::testing::TestWithParam<Case>
{
};

TEST_P(ReplayIdentity, ReplayedRunIsByteIdenticalToLiveRun)
{
    const auto [workload, fast] = GetParam();
    // "_slow" cases run checkLevel 2, which turns the fast filter
    // off.
    const unsigned checkLevel = fast ? 1 : 2;

    TempDir dir;
    const std::string trace = (dir.path / "run.vctrace").string();
    const RunResult live = runLiveRecording(workload, checkLevel, trace);
    ASSERT_TRUE(std::filesystem::exists(trace));
    const RunResult replayed = runReplay(checkLevel, trace);

    // The JSON line carries every RunStats field and the dump the
    // full per-component counter hierarchy: exact string identity is
    // the strongest statement the stats layer can express.
    EXPECT_EQ(replayed.json, live.json);
    EXPECT_EQ(replayed.dump, live.dump);
}

INSTANTIATE_TEST_SUITE_P(
    SplashKernelsAndSynthetic, ReplayIdentity,
    ::testing::Combine(::testing::Values("RADIX", "FFT", "FMM", "OCEAN",
                                         "RAYTRACE", "BARNES",
                                         "UNIFORM", "KVLOOKUP", "GRAPH",
                                         "STREAMJOIN"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Case> &info) {
        std::string n = std::get<0>(info.param) +
                        (std::get<1>(info.param) ? "_fast" : "_slow");
        n.erase(std::remove_if(n.begin(), n.end(),
                               [](char c) {
                                   return !std::isalnum(
                                              static_cast<unsigned char>(
                                                  c)) &&
                                          c != '_';
                               }),
                n.end());
        return n;
    });

TEST(Replay, CarriesRecordedWorkloadIdentity)
{
    // name()/parameters()/sharedBytes() come from the trace header,
    // so a replayed run's stats sheet names the real workload.
    TempDir dir;
    const std::string trace = (dir.path / "meta.vctrace").string();
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = 0.02;
    auto live = makeWorkload("UNIFORM", p);
    RecordingWorkload recorder(*live, trace, "meta-key");
    Machine machine(cfg);
    machine.run(recorder);
    ASSERT_TRUE(recorder.finalize());

    ReplayWorkload replay(trace);
    EXPECT_EQ(replay.name(), live->name());
    EXPECT_EQ(replay.parameters(), live->parameters());
    EXPECT_EQ(replay.numThreads(), live->numThreads());
    EXPECT_EQ(replay.sharedBytes(), live->sharedBytes());
    EXPECT_EQ(replay.recordedKey(), "meta-key");
    EXPECT_GT(replay.totalEvents(), 0u);
    EXPECT_TRUE(replay.materialised());
}

TEST(Replay, CoroutineViewMatchesMaterialisedStreams)
{
    // thread(tid) and stream(tid) must expose the same events: the
    // generic Workload interface hands out the coroutine view while
    // Machine::run consumes the spans.
    TempDir dir;
    const std::string trace = (dir.path / "views.vctrace").string();
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = 0.02;
    auto live = makeWorkload("STRIDE", p);
    RecordingWorkload recorder(*live, trace, "k");
    Machine machine(cfg);
    machine.run(recorder);
    ASSERT_TRUE(recorder.finalize());

    ReplayWorkload replay(trace);
    for (unsigned tid = 0; tid < replay.numThreads(); ++tid) {
        const auto span = replay.stream(tid);
        Generator<MemRef> gen = replay.thread(tid);
        std::size_t i = 0;
        while (const MemRef *ref = gen.nextPtr()) {
            ASSERT_LT(i, span.size()) << "tid " << tid;
            EXPECT_EQ(*ref, span[i]);
            ++i;
        }
        EXPECT_EQ(i, span.size()) << "tid " << tid;
    }
}

namespace
{

ExperimentConfig
tinyExperiment()
{
    ExperimentConfig cfg;
    cfg.workload = "UNIFORM";
    cfg.scheme = Scheme::VCOMA;
    cfg.nodes = 32;
    cfg.scale = 0.02;
    return cfg;
}

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats);
    return os.str();
}

} // namespace

TEST(RunnerReplay, ReplayedRunWritesByteIdenticalCacheEntries)
{
    // The disk-cache entry a TRACE: replay stores (under its own key)
    // must be byte for byte the entry the live run wrote: the cache
    // cannot tell (and must not care) which mode produced it.
    TempDir traces;
    TempDir liveCache;
    TempDir replayCache;
    const ExperimentConfig cfg = tinyExperiment();
    const std::string tracePath = (traces.path / "run.vctrace").string();
    recordExperiment(cfg, tracePath);
    ExperimentConfig replayCfg = cfg;
    replayCfg.workload = "TRACE:" + tracePath;

    {
        Runner runner(liveCache.path.string());
        runner.run(cfg);
        EXPECT_EQ(runner.executed(), 1u);
    }
    {
        Runner runner(replayCache.path.string());
        runner.run(replayCfg);
        EXPECT_EQ(runner.executed(), 1u) << "fresh cache must simulate";
    }
    const auto readAll = [](const std::filesystem::path &p) {
        std::ifstream in(p, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
    };
    const std::string live = readAll(liveCache.path / (cfg.key() + ".json"));
    const std::string replayed =
        readAll(replayCache.path / (replayCfg.key() + ".json"));
    ASSERT_FALSE(live.empty());
    EXPECT_EQ(replayed, live)
        << "replayed run's cache entry differs from the live run's";
}

TEST(RunnerReplay, TraceWorkloadSpellingMatchesTheRecordedRun)
{
    // A recorded trace promoted to a first-class workload
    // ("TRACE:<path>") must reproduce the recorded run's sheet byte
    // for byte: the trace header carries the original workload's
    // name/parameters, so even the labelling is identical.
    TempDir traces;
    const ExperimentConfig cfg = tinyExperiment();
    const std::string tracePath = (traces.path / "run.vctrace").string();
    const std::string first = statsJson(recordExperiment(cfg, tracePath));
    ASSERT_TRUE(std::filesystem::exists(tracePath));

    ExperimentConfig replayCfg = cfg;
    replayCfg.workload = "TRACE:" + tracePath;
    Runner runner("");
    EXPECT_EQ(statsJson(runner.run(replayCfg)), first)
        << "TRACE: workload diverged from the run that recorded it";
    EXPECT_EQ(runner.executed(), 1u);
    // And the recording run is the Runner's own live run.
    EXPECT_EQ(statsJson(runner.run(cfg)), first);
}

namespace
{

/**
 * Run a batch of a TRACE: config naming @p badTrace and the live
 * @p cfg: the TRACE: config must fail with an error naming the file,
 * and the live config must still run to the sheet @p expected.
 */
void
expectUnusableTraceFailsOnlyItsConfig(const ExperimentConfig &cfg,
                                      const std::filesystem::path &badTrace,
                                      const std::string &expected)
{
    ExperimentConfig bad = cfg;
    bad.workload = "TRACE:" + badTrace.string();
    const std::vector<ExperimentConfig> batch{bad, cfg};
    Runner runner("");
    const auto results = runner.runAll(batch);
    EXPECT_EQ(results[0], nullptr) << bad.workload;
    const std::string error = runner.failureMessage(bad.key());
    EXPECT_NE(error.find(badTrace.string()), std::string::npos) << error;
    ASSERT_NE(results[1], nullptr);
    EXPECT_EQ(statsJson(*results[1]), expected)
        << "live run diverged next to an unusable trace";
}

/**
 * Record @p cfg over the unusable @p tracePath: the result must be a
 * valid trace that replays to the sheet @p expected.
 */
void
expectReRecordingReplays(const ExperimentConfig &cfg,
                         const std::string &tracePath,
                         const std::string &expected)
{
    EXPECT_EQ(statsJson(recordExperiment(cfg, tracePath)), expected);
    EXPECT_NO_THROW(PackedTrace{tracePath})
        << "re-recording must leave a valid version "
        << packedTraceVersion << " trace";
    ExperimentConfig replayCfg = cfg;
    replayCfg.workload = "TRACE:" + tracePath;
    Runner runner("");
    EXPECT_EQ(statsJson(runner.run(replayCfg)), expected);
}

} // namespace

TEST(RunnerReplay, CorruptTraceFallsBackAndReRecords)
{
    // A corrupt trace fails its own TRACE: config, never the batch and
    // never replays garbage; recording over it restores replay.
    TempDir traces;
    const ExperimentConfig cfg = tinyExperiment();
    const std::string tracePath = (traces.path / "run.vctrace").string();
    const std::string first = statsJson(recordExperiment(cfg, tracePath));
    std::ofstream(tracePath, std::ios::binary | std::ios::trunc)
        << "not a trace";
    EXPECT_THROW(PackedTrace{tracePath}, TraceFormatError);

    expectUnusableTraceFailsOnlyItsConfig(cfg, tracePath, first);
    expectReRecordingReplays(cfg, tracePath, first);
}

TEST(RunnerReplay, OlderVersionTraceIsReRecorded)
{
    // A trace from before the 16-byte records (version 3) is rejected
    // on load; recording afresh writes the current format.
    TempDir traces;
    const ExperimentConfig cfg = tinyExperiment();
    const std::string tracePath = (traces.path / "run.vctrace").string();
    const std::string first = statsJson(recordExperiment(cfg, tracePath));
    {
        std::fstream f(tracePath,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(8);  // u32 version, little-endian
        f.put(3);
    }
    EXPECT_THROW(PackedTrace{tracePath}, TraceFormatError);

    expectUnusableTraceFailsOnlyItsConfig(cfg, tracePath, first);
    expectReRecordingReplays(cfg, tracePath, first);
}

TEST(RunnerReplay, TruncatedTraceFallsBack)
{
    // A trace cut short fails its TRACE: config; the live run of the
    // same experiment in the batch is unaffected.
    TempDir traces;
    const ExperimentConfig cfg = tinyExperiment();
    const std::string tracePath = (traces.path / "run.vctrace").string();
    const std::string first = statsJson(recordExperiment(cfg, tracePath));
    std::filesystem::resize_file(
        tracePath, std::filesystem::file_size(tracePath) / 2);
    EXPECT_THROW(PackedTrace{tracePath}, TraceFormatError);

    expectUnusableTraceFailsOnlyItsConfig(cfg, tracePath, first);
}
