/**
 * @file
 * Equivalence tests for the hit fast path: a simulation with the
 * fast path enabled must be indistinguishable — every RunStats field,
 * every component counter — from the same simulation with the fast
 * path disabled. The fast path is a speed knob, never a model knob.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "sim/trace.hh"
#include "translation/scheme.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

struct RunResult
{
    RunStats stats;
    /** Full stats sheet (every component counter). */
    std::string dump;
    /** writeRunStatsJson() output (every RunStats field). */
    std::string json;
    bool fastPathActive = false;
};

/**
 * The tiny test machine on @p nodes CPUs. Past 16 nodes the
 * attraction memories grow with the node count so every home node
 * still owns a page colour; they stay small enough to keep the
 * machine contended.
 */
MachineConfig
testConfig(Scheme scheme, unsigned nodes, bool fastPath)
{
    MachineConfig cfg = tinyConfig(scheme);
    cfg.numNodes = nodes;
    if (nodes > 16)
        cfg.am.sizeBytes *= nodes / 16;
    cfg.fastPath = fastPath;
    return cfg;
}

RunResult
runOnce(Scheme scheme, const std::string &workload, bool fastPath,
        unsigned nodes)
{
    const MachineConfig cfg = testConfig(scheme, nodes, fastPath);
    Machine machine(cfg);
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = 0.02;
    auto w = makeWorkload(workload, p);
    RunResult r;
    r.stats = machine.run(*w);
    std::ostringstream dump;
    machine.dumpStats(dump);
    r.dump = dump.str();
    std::ostringstream json;
    writeRunStatsJson(json, r.stats);
    r.json = json.str();
    r.fastPathActive = machine.fastPathActive();
    return r;
}

/** Field-by-field comparison with readable failure messages. */
void
expectSameStats(const RunStats &fast, const RunStats &slow)
{
    EXPECT_EQ(fast.workload, slow.workload);
    EXPECT_EQ(fast.parameters, slow.parameters);
    EXPECT_EQ(fast.scheme, slow.scheme);
    EXPECT_EQ(fast.numNodes, slow.numNodes);
    EXPECT_EQ(fast.sharedBytes, slow.sharedBytes);
    EXPECT_EQ(fast.execTime, slow.execTime);
    EXPECT_EQ(fast.tlbAccesses, slow.tlbAccesses);
    EXPECT_EQ(fast.tlbMisses, slow.tlbMisses);
    EXPECT_EQ(fast.flcAccesses, slow.flcAccesses);
    EXPECT_EQ(fast.flcMisses, slow.flcMisses);
    EXPECT_EQ(fast.slcAccesses, slow.slcAccesses);
    EXPECT_EQ(fast.slcMisses, slow.slcMisses);
    EXPECT_EQ(fast.amHits, slow.amHits);
    EXPECT_EQ(fast.amMisses, slow.amMisses);
    EXPECT_EQ(fast.remoteReads, slow.remoteReads);
    EXPECT_EQ(fast.remoteWrites, slow.remoteWrites);
    EXPECT_EQ(fast.upgrades, slow.upgrades);
    EXPECT_EQ(fast.invalidations, slow.invalidations);
    EXPECT_EQ(fast.pageFaults, slow.pageFaults);
    ASSERT_EQ(fast.cpus.size(), slow.cpus.size());
    for (std::size_t i = 0; i < fast.cpus.size(); ++i) {
        EXPECT_EQ(fast.cpus[i].reads, slow.cpus[i].reads) << "cpu " << i;
        EXPECT_EQ(fast.cpus[i].writes, slow.cpus[i].writes)
            << "cpu " << i;
        EXPECT_EQ(fast.cpus[i].finish, slow.cpus[i].finish)
            << "cpu " << i;
    }
}

/**
 * Fast path on (winner-tree dispatch, fast filter, replay drain)
 * against fast path off (the reference heap loop) on @p nodes CPUs:
 * every sheet byte must match.
 */
void
expectFastPathEquivalence(Scheme scheme, const std::string &workload,
                          unsigned nodes)
{
    const RunResult fast = runOnce(scheme, workload, true, nodes);
    const RunResult slow = runOnce(scheme, workload, false, nodes);

    // The knob must actually gate the path (schemes translating
    // before the FLC, L0 and VICTIMA, are structurally excluded:
    // their per-reference TLB charge leaves no pure hit).
    EXPECT_FALSE(slow.fastPathActive);
    EXPECT_EQ(fast.fastPathActive, schemeTraits(scheme).fastReadFilter);

    expectSameStats(fast.stats, slow.stats);
    // The JSON line carries every RunStats field (shadow sweep,
    // pressure profile, latency summaries): require exact identity,
    // which is also what $VCOMA_STATS_JSON consumers would diff.
    EXPECT_EQ(fast.json, slow.json);
    // And the full component hierarchy: per-node cache/AM/TLB/network
    // counters must match, not just the aggregated sheet.
    EXPECT_EQ(fast.dump, slow.dump);
}

std::string
caseName(Scheme scheme, const std::string &workload)
{
    std::string n = std::string(schemeName(scheme)) + "_" + workload;
    n.erase(std::remove_if(n.begin(), n.end(),
                           [](char c) {
                               return !std::isalnum(
                                          static_cast<unsigned char>(c)) &&
                                      c != '_';
                           }),
            n.end());
    return n;
}

} // namespace

using Case = std::tuple<Scheme, std::string>;

class FastPathEquivalence : public ::testing::TestWithParam<Case>
{
};

TEST_P(FastPathEquivalence, IdenticalStatsOnAndOff)
{
    const auto [scheme, workload] = GetParam();
    expectFastPathEquivalence(scheme, workload, 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllWorkloads, FastPathEquivalence,
    ::testing::Combine(::testing::ValuesIn(allRegisteredSchemes()),
                       ::testing::Values("RADIX", "FFT", "FMM", "OCEAN",
                                         "RAYTRACE", "BARNES", "UNIFORM",
                                         "STRIDE", "HOTSPOT", "KVLOOKUP",
                                         "GRAPH", "STREAMJOIN")),
    [](const ::testing::TestParamInfo<Case> &info) {
        return caseName(std::get<0>(info.param), std::get<1>(info.param));
    });

/**
 * The same oracle at the paper's 32-node width, where the winner tree
 * has five levels. RAYTRACE hands out tiles (nextTile_++) under a lock
 * grant, so its sheet depends on dispatch order; OCEAN and BARNES are
 * barrier-heavy.
 */
class FastPathEquivalence32 : public ::testing::TestWithParam<Case>
{
};

TEST_P(FastPathEquivalence32, IdenticalStatsOnAndOff)
{
    const auto [scheme, workload] = GetParam();
    expectFastPathEquivalence(scheme, workload, 32);
}

INSTANTIATE_TEST_SUITE_P(
    ThirtyTwoNodes, FastPathEquivalence32,
    ::testing::Combine(::testing::Values(Scheme::L0, Scheme::L3,
                                         Scheme::VCOMA),
                       ::testing::Values("RAYTRACE", "OCEAN", "BARNES")),
    [](const ::testing::TestParamInfo<Case> &info) {
        return caseName(std::get<0>(info.param), std::get<1>(info.param));
    });

TEST(FastPathTrace, RecordReplayRoundTripIsIdentical)
{
    // Record a trace once, then replay it twice — fast path on and
    // off — and require identical stats sheets. The replay goes
    // through TraceWorkload's parser, so this also round-trips the
    // trace text format; its streams are materialised, so the fast
    // run also covers the replay drain on text traces.
    WorkloadParams p;
    p.threads = 4;
    p.scale = 0.02;
    auto recorded = makeWorkload("HOTSPOT", p);
    std::ostringstream trace;
    const std::uint64_t events = recordTrace(*recorded, trace);
    ASSERT_GT(events, 0u);

    auto replayOnce = [&](bool fastPath) {
        MachineConfig cfg = tinyConfig(Scheme::VCOMA);
        cfg.fastPath = fastPath;
        Machine machine(cfg);
        std::istringstream is(trace.str());
        TraceWorkload w(is);
        EXPECT_TRUE(w.materialised());
        RunResult r;
        r.stats = machine.run(w);
        std::ostringstream dump;
        machine.dumpStats(dump);
        r.dump = dump.str();
        std::ostringstream json;
        writeRunStatsJson(json, r.stats);
        r.json = json.str();
        return r;
    };
    const RunResult fast = replayOnce(true);
    const RunResult slow = replayOnce(false);
    expectSameStats(fast.stats, slow.stats);
    EXPECT_EQ(fast.json, slow.json);
    EXPECT_EQ(fast.dump, slow.dump);
}

TEST(FastPathTrace, PackedReplayAt32NodesIsIdentical)
{
    // Record a packed trace of a live 32-node run, then replay it
    // fast path on (the winner tree bounds each replay drain by the
    // runner-up) and off (the reference heap, no drain): both replays
    // must reproduce the live sheet byte for byte. RAYTRACE's tiles
    // follow lock grants; OCEAN and BARNES are barrier-heavy.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("vcoma_test_fastpath_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    for (const std::string workload : {"RAYTRACE", "OCEAN", "BARNES"}) {
        SCOPED_TRACE(workload);
        const std::string trace = (dir / (workload + ".vctrace")).string();
        auto sheet = [](const MachineConfig &cfg, Workload &w) {
            Machine machine(cfg);
            RunResult r;
            r.stats = machine.run(w);
            std::ostringstream dump;
            machine.dumpStats(dump);
            r.dump = dump.str();
            std::ostringstream json;
            writeRunStatsJson(json, r.stats);
            r.json = json.str();
            return r;
        };

        WorkloadParams p;
        p.threads = 32;
        p.scale = 0.02;
        auto live = makeWorkload(workload, p);
        RecordingWorkload recorder(*live, trace, "fastpath-test");
        const RunResult recorded =
            sheet(testConfig(Scheme::VCOMA, 32, true), recorder);
        ASSERT_TRUE(recorder.finalize());

        for (const bool fastPath : {true, false}) {
            ReplayWorkload replay(trace);
            const RunResult r =
                sheet(testConfig(Scheme::VCOMA, 32, fastPath), replay);
            expectSameStats(r.stats, recorded.stats);
            EXPECT_EQ(r.json, recorded.json) << "fastPath " << fastPath;
            EXPECT_EQ(r.dump, recorded.dump) << "fastPath " << fastPath;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(FastPathEnv, EnvOverridesConfig)
{
    // $VCOMA_FASTPATH beats MachineConfig::fastPath in both
    // directions.
    setenv("VCOMA_FASTPATH", "0", 1);
    {
        MachineConfig cfg = tinyConfig(Scheme::VCOMA);
        cfg.fastPath = true;
        Machine machine(cfg);
        EXPECT_FALSE(machine.fastPathActive());
    }
    setenv("VCOMA_FASTPATH", "1", 1);
    {
        MachineConfig cfg = tinyConfig(Scheme::VCOMA);
        cfg.fastPath = false;
        Machine machine(cfg);
        EXPECT_TRUE(machine.fastPathActive());
    }
    unsetenv("VCOMA_FASTPATH");
}

TEST(FastPathCheckLevel, DeepCheckingDisablesFastPath)
{
    // checkLevel >= 2 runs checkVersion on FLC read hits; the fast
    // path must step aside rather than skip the check.
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.fastPath = true;
    cfg.checkLevel = 2;
    Machine machine(cfg);
    EXPECT_FALSE(machine.fastPathActive());
}
