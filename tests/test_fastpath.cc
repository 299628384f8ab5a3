/**
 * @file
 * Equivalence tests for the hit fast path: a simulation with the
 * fast path enabled must be indistinguishable — every RunStats field,
 * every component counter — from the same simulation with the fast
 * path disabled. The fast path is a speed knob, never a model knob.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <sstream>
#include <string>

#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "sim/trace.hh"
#include "translation/scheme.hh"
#include "translation/system_builder.hh"
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

RunResult
runOnce(Scheme scheme, const std::string &workload, bool fastPath)
{
    MachineConfig cfg = tinyConfig(scheme);
    cfg.fastPath = fastPath;
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

} // namespace

using Case = std::tuple<Scheme, std::string>;

class FastPathEquivalence : public ::testing::TestWithParam<Case>
{
};

TEST_P(FastPathEquivalence, IdenticalStatsOnAndOff)
{
    const auto [scheme, workload] = GetParam();
    const RunResult fast = runOnce(scheme, workload, /*fastPath=*/true);
    const RunResult slow = runOnce(scheme, workload, /*fastPath=*/false);

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

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllWorkloads, FastPathEquivalence,
    ::testing::Combine(::testing::ValuesIn(allRegisteredSchemes()),
                       ::testing::Values("RADIX", "FFT", "FMM", "OCEAN",
                                         "RAYTRACE", "BARNES", "UNIFORM",
                                         "STRIDE", "HOTSPOT")),
    [](const ::testing::TestParamInfo<Case> &info) {
        std::string n = std::string(schemeName(std::get<0>(info.param))) +
                        "_" + std::get<1>(info.param);
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

TEST(FastPathTrace, RecordReplayRoundTripIsIdentical)
{
    // Record a trace once, then replay it twice — fast path on and
    // off — and require identical stats sheets. The replay goes
    // through TraceWorkload's parser, so this also round-trips the
    // trace text format.
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
