/**
 * @file
 * Lanes: an untimed config's configured TLB/DLB runs at every
 * standard size in one simulation (laneSizes() in coma/node.hh), and
 * the Runner publishes each lane's sheet under its sibling config's
 * key. Every lane sheet must be byte-identical to the sheet of that
 * size's own simulation.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "check/invariant_checker.hh"
#include "harness/runner.hh"
#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "translation/scheme.hh"
#include "translation/system_builder.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

/** A fresh directory, unique within the process too. */
struct TempDir
{
    TempDir()
    {
        static std::atomic<unsigned> seq{0};
        path = std::filesystem::temp_directory_path() /
               ("vcoma_test_lanes_" + std::to_string(::getpid()) + "_" +
                std::to_string(seq++));
        std::filesystem::remove_all(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
    std::filesystem::path path;
};

/** Scoped setenv/unsetenv that restores the previous value. */
struct EnvGuard
{
    EnvGuard(const char *name, const char *value) : name_(name)
    {
        if (const char *old = std::getenv(name))
            saved_ = old;
        else
            wasSet_ = false;
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }

    ~EnvGuard()
    {
        if (wasSet_)
            ::setenv(name_, saved_.c_str(), 1);
        else
            ::unsetenv(name_);
    }

    const char *name_;
    std::string saved_;
    bool wasSet_ = true;
};

std::string
sheetOf(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats);
    return os.str();
}

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** The cache entries in @p dir, by file name. */
std::vector<std::string>
cacheEntries(const std::filesystem::path &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

/** A small untimed config: 8 nodes, scale 0.05. */
ExperimentConfig
laneConfig(Scheme scheme, const std::string &workload, unsigned entries,
           unsigned assoc = 0)
{
    ExperimentConfig cfg;
    cfg.workload = workload;
    cfg.scheme = scheme;
    cfg.tlbEntries = entries;
    cfg.tlbAssoc = assoc;
    cfg.timedTranslation = false;
    cfg.nodes = 8;
    cfg.scale = 0.05;
    return cfg;
}

ExperimentConfig
withEntries(ExperimentConfig cfg, unsigned entries)
{
    cfg.tlbEntries = entries;
    return cfg;
}

/** The sheet a fresh cache-less Runner gives @p cfg on its own. */
std::string
aloneSheet(const ExperimentConfig &cfg)
{
    Runner alone("");
    const std::string sheet = sheetOf(alone.run(cfg));
    EXPECT_EQ(alone.executed(), 1u);
    return sheet;
}

std::vector<std::string>
allKernels()
{
    std::vector<std::string> kernels = paperBenchmarks();
    for (const std::string &k : datacenterBenchmarks())
        kernels.push_back(k);
    return kernels;
}

} // namespace

/** (scheme, kernel, associativity). */
using LaneCase = std::tuple<Scheme, std::string, unsigned>;

class LaneEquivalence : public ::testing::TestWithParam<LaneCase>
{
};

/**
 * One Runner simulates the 32-entry config; it must publish one sheet
 * per standard size (VICTIMA, which spills TLB victims, only its
 * own), memoised and on disk, each byte-identical to the sheet a
 * fresh cache-less Runner simulates for that size alone.
 */
TEST_P(LaneEquivalence, EverySizeMatchesItsOwnRun)
{
    const auto &[scheme, kernel, assoc] = GetParam();
    const bool hasLanes = !schemeTraits(scheme).slcTlbSpill;
    const ExperimentConfig cfg = laneConfig(scheme, kernel, 32, assoc);

    TempDir dir;
    Runner runner(dir.path.string());
    ASSERT_NE(runner.tryRun(cfg), nullptr);
    EXPECT_EQ(runner.executed(), 1u);
    EXPECT_EQ(cacheEntries(dir.path).size(),
              hasLanes ? shadowSizes().size() : 1u);

    for (unsigned entries : shadowSizes()) {
        SCOPED_TRACE(std::to_string(entries) + " entries");
        const ExperimentConfig sibling = withEntries(cfg, entries);
        const std::string expected = aloneSheet(sibling);
        const RunStats *served = runner.tryRun(sibling);
        ASSERT_NE(served, nullptr);
        EXPECT_EQ(sheetOf(*served), expected);
        EXPECT_EQ(slurp(dir.path / (sibling.key() + ".json")),
                  "vcoma-cache-v5\n" + expected + "\n");
    }
    EXPECT_EQ(runner.executed(), hasLanes ? 1u : shadowSizes().size());
}

namespace
{

std::string
laneCaseName(const ::testing::TestParamInfo<LaneCase> &info)
{
    std::string name = schemeName(std::get<0>(info.param));
    name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
    return name + "_" + std::get<1>(info.param) +
           (std::get<2>(info.param) == 1 ? "_DM" : "_FA");
}

} // namespace

INSTANTIATE_TEST_SUITE_P(
    FullyAssociative, LaneEquivalence,
    ::testing::Combine(::testing::ValuesIn(allRegisteredSchemes()),
                       ::testing::ValuesIn(allKernels()),
                       ::testing::Values(0u)),
    laneCaseName);

INSTANTIATE_TEST_SUITE_P(
    DirectMapped, LaneEquivalence,
    ::testing::Combine(::testing::ValuesIn(allRegisteredSchemes()),
                       ::testing::Values(std::string("FFT"),
                                         std::string("GRAPH")),
                       ::testing::Values(1u)),
    laneCaseName);

/**
 * A batch of the seven sizes of one trajectory simulates once, serial
 * or on four workers, and reports every slot as freshly executed.
 */
TEST(RunnerLanes, SevenSizeBatchExecutesOnce)
{
    for (const char *jobs : {"1", "4"}) {
        SCOPED_TRACE(std::string("VCOMA_JOBS=") + jobs);
        EnvGuard env("VCOMA_JOBS", jobs);
        std::vector<ExperimentConfig> cfgs;
        for (unsigned entries : shadowSizes())
            cfgs.push_back(laneConfig(Scheme::VCOMA, "FFT", entries));
        Runner runner("");
        std::vector<bool> fresh;
        const auto results = runner.runAll(cfgs, &fresh);
        EXPECT_EQ(runner.executed(), 1u);
        EXPECT_EQ(fresh, std::vector<bool>(cfgs.size(), true));
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            ASSERT_NE(results[i], nullptr);
            EXPECT_EQ(sheetOf(*results[i]), aloneSheet(cfgs[i]))
                << cfgs[i].key();
        }
        // A second batch is all memo hits.
        runner.runAll(cfgs, &fresh);
        EXPECT_EQ(fresh, std::vector<bool>(cfgs.size(), false));
        EXPECT_EQ(runner.executed(), 1u);
    }
}

/**
 * Configs without lanes publish exactly their own entry: timed
 * translation (the TLB's contents change timing), VICTIMA (its spill
 * contents depend on the TLB size) and a set-associative TLB. A
 * failing config publishes nothing, and neither do its siblings.
 */
TEST(RunnerLanes, ConfigsWithoutLanesLeaveOnlyTheirOwnEntry)
{
    ExperimentConfig timed = laneConfig(Scheme::L2, "FFT", 16);
    timed.timedTranslation = true;
    const std::vector<ExperimentConfig> own{
        timed,
        laneConfig(Scheme::VICTIMA, "FFT", 16),
        laneConfig(Scheme::L0, "FFT", 16, /*assoc=*/2),
    };
    for (const ExperimentConfig &cfg : own) {
        SCOPED_TRACE(cfg.key());
        TempDir dir;
        Runner runner(dir.path.string());
        ASSERT_NE(runner.tryRun(cfg), nullptr);
        EXPECT_EQ(cacheEntries(dir.path),
                  std::vector<std::string>{cfg.key() + ".json"});
        // Its 32-entry sibling needs a simulation of its own.
        ASSERT_NE(runner.tryRun(withEntries(cfg, 32)), nullptr);
        EXPECT_EQ(runner.executed(), 2u);
    }

    EnvGuard strict("VCOMA_STRICT", nullptr);
    ExperimentConfig poisoned = laneConfig(Scheme::VCOMA, "UNIFORM", 16);
    poisoned.injectFault = "corrupt-am-state";
    for (const char *jobs : {"1", "4"}) {
        SCOPED_TRACE(std::string("VCOMA_JOBS=") + jobs);
        EnvGuard env("VCOMA_JOBS", jobs);
        TempDir dir;
        Runner runner(dir.path.string());
        EXPECT_EQ(runner.tryRun(poisoned), nullptr);
        EXPECT_TRUE(cacheEntries(dir.path).empty());

        // In a batch, each size fails on its own, with its own key.
        std::vector<ExperimentConfig> batch;
        for (unsigned entries : {8u, 32u, 64u})
            batch.push_back(withEntries(poisoned, entries));
        for (const RunStats *stats : runner.runAll(batch))
            EXPECT_EQ(stats, nullptr);
        EXPECT_TRUE(cacheEntries(dir.path).empty());
        for (const ExperimentConfig &cfg : batch) {
            EXPECT_NE(runner.failureMessage(cfg.key()).find(cfg.key()),
                      std::string::npos)
                << cfg.key();
        }
    }
}

// ---------------------------------------------------------------------
// Machine level: shoot-downs and the invariant checker.
// ---------------------------------------------------------------------

namespace
{

/**
 * The paging tests' cramped machine: global page sets overflow, so
 * the page daemon swaps pages out and purgePage shoots their
 * translations down mid-run.
 */
MachineConfig
swappingConfig(Scheme scheme, unsigned entries, unsigned assoc)
{
    MachineConfig cfg = tinyConfig(scheme, entries, assoc);
    cfg.pressureThreshold = 0.5;
    cfg.timedTranslation = false;
    cfg.seed = 5;
    return cfg;
}

WorkloadParams
swappingParams()
{
    WorkloadParams p;
    p.threads = 4;
    p.scale = 0.5;
    p.seed = 3;
    return p;
}

} // namespace

class LaneShootdowns
    : public ::testing::TestWithParam<std::tuple<Scheme, unsigned>>
{
};

/**
 * Every lane's sheet equals the sheet of a separate Machine built at
 * that size, on a run with swap-outs and shoot-downs.
 */
TEST_P(LaneShootdowns, EveryLaneMatchesASeparateMachine)
{
    const auto [scheme, assoc] = GetParam();
    Machine machine(swappingConfig(scheme, 32, assoc));
    const RunStats stats =
        machine.run(*makeWorkload("HOTSPOT", swappingParams()));
    EXPECT_GT(stats.swapOuts, 0u);
    EXPECT_GT(stats.tlbShootdowns, 0u);

    const auto &lanes = machine.laneSheets();
    ASSERT_EQ(lanes.size(), shadowSizes().size() - 1);
    for (const LaneSheet &lane : lanes) {
        // Every lane must have been shot down, or the check is blind.
        EXPECT_GT(lane.stats.tlbShootdowns, 0u);
        SCOPED_TRACE(std::to_string(lane.entries) + " entries");
        Machine alone(swappingConfig(scheme, lane.entries, assoc));
        const RunStats expected =
            alone.run(*makeWorkload("HOTSPOT", swappingParams()));
        EXPECT_EQ(sheetOf(lane.stats), sheetOf(expected));
    }
    EXPECT_NO_THROW(InvariantChecker(machine).enforce());
}

INSTANTIATE_TEST_SUITE_P(
    Structures, LaneShootdowns,
    ::testing::Combine(::testing::Values(Scheme::L0, Scheme::L2,
                                         Scheme::L3, Scheme::VCOMA),
                       ::testing::Values(0u, 1u)),
    [](const auto &info) {
        std::string name = schemeName(std::get<0>(info.param));
        name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
        return name + (std::get<1>(info.param) == 1 ? "_DM" : "_FA");
    });

/**
 * The stale-translation check covers every lane: a swapped-out page's
 * translation poked back into a lane after its purge is reported,
 * naming the lane.
 */
TEST(Lanes, CheckerReportsAStaleLaneEntry)
{
    for (Scheme scheme : {Scheme::L2, Scheme::VCOMA}) {
        SCOPED_TRACE(schemeName(scheme));
        Machine machine(swappingConfig(scheme, 32, 0));
        machine.run(*makeWorkload("HOTSPOT", swappingParams()));
        ASSERT_TRUE(InvariantChecker(machine).checkAll().empty());

        PageNum purged = 0;
        bool found = false;
        for (const auto &[vpn, page] : machine.pageTable().entries()) {
            if (!page.resident) {
                purged = vpn;
                found = true;
                break;
            }
        }
        ASSERT_TRUE(found) << "no page was swapped out";

        Node &node = machine.node(0);
        std::string lane;
        if (node.tlbLanes) {
            node.tlbLanes->access(purged);
            lane = "-entry TLB lane at node 0";
        } else {
            ASSERT_FALSE(node.dlbLanes.empty());
            node.dlbLanes.back().tlb().access(purged);
            lane = "512-entry DLB lane at node 0";
        }
        const auto violations = InvariantChecker(machine).checkAll();
        ASSERT_FALSE(violations.empty());
        bool reported = false;
        for (const auto &v : violations) {
            reported |= v.invariant == "stale-translation" &&
                        v.detail.find(lane) != std::string::npos;
        }
        EXPECT_TRUE(reported) << violations.front().detail;
    }
}
