/**
 * @file
 * Lanes: an untimed config's TLB/DLB runs at every standard size, and
 * under every sibling scheme of its class, in one simulation
 * (siblingLanes() in coma/node.hh); the Runner publishes each lane's
 * sheet under its sibling config's key. Every lane sheet must be
 * byte-identical to the sheet of that config's own simulation.
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
    for (const char *k : {"KVLOOKUP", "GRAPH", "STREAMJOIN"})
        kernels.push_back(k);
    return kernels;
}

/** The schemes that share one untimed trajectory. */
const std::vector<Scheme> siblingClass{Scheme::L3, Scheme::VCOMA,
                                       Scheme::NMT};

bool
inSiblingClass(Scheme scheme)
{
    return std::count(siblingClass.begin(), siblingClass.end(), scheme) != 0;
}

/**
 * The schemes whose sheets one simulation of @p scheme publishes:
 * its class, or only itself.
 */
std::vector<Scheme>
publishedSchemes(Scheme scheme)
{
    return inSiblingClass(scheme) ? siblingClass : std::vector{scheme};
}

ExperimentConfig
withScheme(ExperimentConfig cfg, Scheme scheme, unsigned entries)
{
    cfg.scheme = scheme;
    cfg.tlbEntries = entries;
    return cfg;
}

} // namespace

/** (scheme, kernel, associativity). */
using LaneCase = std::tuple<Scheme, std::string, unsigned>;

class LaneEquivalence : public ::testing::TestWithParam<LaneCase>
{
};

/**
 * One Runner simulates the 32-entry config; it must publish one sheet
 * per standard size of every scheme of its class (VICTIMA, which
 * spills TLB victims, only its own), memoised and on disk, each
 * byte-identical to the sheet a fresh cache-less Runner simulates for
 * that config alone. A class scheme compares its own seven sizes in
 * every case; the whole class is compared for one primary per kernel
 * and, for FFT and GRAPH, for each of the three.
 */
TEST_P(LaneEquivalence, EverySizeMatchesItsOwnRun)
{
    const auto &[scheme, kernel, assoc] = GetParam();
    const bool hasLanes = !schemeTraits(scheme).slcTlbSpill;
    const ExperimentConfig cfg = laneConfig(scheme, kernel, 32, assoc);
    const std::vector<Scheme> published = publishedSchemes(scheme);

    const std::vector<std::string> kernels = allKernels();
    const auto index = static_cast<std::size_t>(
        std::find(kernels.begin(), kernels.end(), kernel) - kernels.begin());
    const bool wholeClass =
        kernel == "FFT" || kernel == "GRAPH" ||
        siblingClass[index % siblingClass.size()] == scheme;

    TempDir dir;
    Runner runner(dir.path.string());
    ASSERT_NE(runner.tryRun(cfg), nullptr);
    EXPECT_EQ(runner.executed(), 1u);
    EXPECT_EQ(cacheEntries(dir.path).size(),
              hasLanes ? published.size() * shadowSizes().size() : 1u);

    for (Scheme sibling : published) {
        if (sibling != scheme && !wholeClass)
            continue;
        for (unsigned entries : shadowSizes()) {
            const ExperimentConfig other = withScheme(cfg, sibling, entries);
            SCOPED_TRACE(other.key());
            const std::string expected = aloneSheet(other);
            const RunStats *served = runner.tryRun(other);
            ASSERT_NE(served, nullptr);
            EXPECT_EQ(sheetOf(*served), expected);
            EXPECT_EQ(slurp(dir.path / (other.key() + ".json")),
                      "vcoma-cache-v5\n" + expected + "\n");
        }
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
 * A batch of every size of one trajectory simulates once, serial or
 * on four workers, and reports every slot as freshly executed: the
 * seven sizes of V-COMA, and the seven sizes of each sibling scheme.
 */
TEST(RunnerLanes, SevenSizeBatchExecutesOnce)
{
    for (const std::vector<Scheme> &schemes :
         {std::vector{Scheme::VCOMA}, siblingClass}) {
        for (const char *jobs : {"1", "4"}) {
            SCOPED_TRACE(std::to_string(schemes.size()) +
                         " scheme(s), VCOMA_JOBS=" + jobs);
            EnvGuard env("VCOMA_JOBS", jobs);
            std::vector<ExperimentConfig> cfgs;
            for (Scheme scheme : schemes) {
                for (unsigned entries : shadowSizes())
                    cfgs.push_back(laneConfig(scheme, "FFT", entries));
            }
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
}

/**
 * Only L3-TLB, V-COMA and NMT serve one another: an untimed L0, L1 or
 * L2 config publishes its own scheme's seven sizes, and VICTIMA, a
 * timed and a set-associative config of the class only their own key.
 */
TEST(RunnerLanes, OnlySiblingSchemesShareASimulation)
{
    ExperimentConfig timed = laneConfig(Scheme::L3, "FFT", 16);
    timed.timedTranslation = true;
    const std::vector<std::pair<ExperimentConfig, std::size_t>> cases{
        {laneConfig(Scheme::L0, "FFT", 16), shadowSizes().size()},
        {laneConfig(Scheme::L1, "FFT", 16), shadowSizes().size()},
        {laneConfig(Scheme::L2, "FFT", 16), shadowSizes().size()},
        {laneConfig(Scheme::VICTIMA, "FFT", 16), 1},
        {timed, 1},
        {laneConfig(Scheme::VCOMA, "FFT", 16, /*assoc=*/2), 1},
    };
    for (const auto &[cfg, published] : cases) {
        SCOPED_TRACE(cfg.key());
        TempDir dir;
        Runner runner(dir.path.string());
        ASSERT_NE(runner.tryRun(cfg), nullptr);
        const std::vector<std::string> names = cacheEntries(dir.path);
        EXPECT_EQ(names.size(), published);
        const std::string own =
            std::string("-") + schemeName(cfg.scheme) + "-e";
        for (const std::string &name : names)
            EXPECT_NE(name.find(own), std::string::npos) << name;
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
 * Every lane's sheet, sibling schemes' included, equals the sheet of a
 * separate Machine built for that lane, on a run with swap-outs and
 * shoot-downs.
 */
TEST_P(LaneShootdowns, EveryLaneMatchesASeparateMachine)
{
    const auto [scheme, assoc] = GetParam();
    Machine machine(swappingConfig(scheme, 32, assoc));
    const RunStats stats =
        machine.run(*makeWorkload("HOTSPOT", swappingParams()));
    EXPECT_GT(stats.swapOuts, 0u);
    if (scheme != Scheme::NMT) {
        EXPECT_GT(stats.tlbShootdowns, 0u);
    }

    const auto &lanes = machine.laneSheets();
    ASSERT_EQ(lanes.size(),
              publishedSchemes(scheme).size() * shadowSizes().size() - 1);
    bool tlbLanes = false, dlbLanes = false;
    for (const LaneSheet &lane : lanes) {
        SCOPED_TRACE(std::string(schemeName(lane.scheme)) + " " +
                     std::to_string(lane.entries) + " entries");
        // Every lane with a structure must have been shot down, or
        // the check is blind.
        const SchemeTraits traits = schemeTraits(lane.scheme);
        if (traits.perNodeTlb || traits.hasDlb) {
            EXPECT_GT(lane.stats.tlbShootdowns, 0u);
        }
        tlbLanes |= traits.perNodeTlb;
        dlbLanes |= traits.hasDlb;
        Machine alone(swappingConfig(lane.scheme, lane.entries, assoc));
        const RunStats expected =
            alone.run(*makeWorkload("HOTSPOT", swappingParams()));
        EXPECT_EQ(sheetOf(lane.stats), sheetOf(expected));
    }
    // A class machine carries both kinds of lane, whatever its scheme.
    if (inSiblingClass(scheme)) {
        EXPECT_TRUE(tlbLanes && dlbLanes);
    }
    EXPECT_NO_THROW(InvariantChecker(machine).enforce());
}

INSTANTIATE_TEST_SUITE_P(
    Structures, LaneShootdowns,
    ::testing::Combine(::testing::Values(Scheme::L0, Scheme::L2,
                                         Scheme::L3, Scheme::VCOMA,
                                         Scheme::NMT),
                       ::testing::Values(0u, 1u)),
    [](const auto &info) {
        std::string name = schemeName(std::get<0>(info.param));
        name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
        return name + (std::get<1>(info.param) == 1 ? "_DM" : "_FA");
    });

/**
 * The stale-translation check covers every lane, a sibling scheme's
 * too: a swapped-out page's translation poked back into a lane after
 * its purge is reported, naming the lane. The TLB lanes of an L2 and
 * of a V-COMA machine, the DLB lanes of a V-COMA and of an L3 machine.
 */
TEST(Lanes, CheckerReportsAStaleLaneEntry)
{
    const std::vector<std::pair<Scheme, bool>> cases{
        {Scheme::L2, false}, {Scheme::VCOMA, true},
        {Scheme::VCOMA, false}, {Scheme::L3, true}};
    for (const auto &[scheme, dlbLane] : cases) {
        SCOPED_TRACE(std::string(schemeName(scheme)) +
                     (dlbLane ? ", DLB lane" : ", TLB lane"));
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
        if (dlbLane) {
            ASSERT_FALSE(node.dlbLanes.empty());
            node.dlbLanes.back().tlb().access(purged);
            lane = "512-entry DLB lane at node 0";
        } else {
            ASSERT_TRUE(node.tlbLanes);
            node.tlbLanes->access(purged);
            lane = "-entry TLB lane at node 0";
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

// ---------------------------------------------------------------------
// Sibling schemes: the premise the class lanes rest on.
// ---------------------------------------------------------------------

class SiblingSchemes
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

/**
 * Untimed L3-TLB, V-COMA and NMT are one machine trajectory: for every
 * kernel at tinyConfig (4 nodes), plain and under swapping, their
 * sheets agree byte for byte once clearTranslationFields() (the one
 * list Machine::collect also uses) has cleared the fields a sibling
 * may differ in.
 */
TEST_P(SiblingSchemes, UntimedTrajectoryIsShared)
{
    const auto &[kernel, swapping] = GetParam();
    const std::vector<std::string> &paper = paperBenchmarks();
    WorkloadParams params = swappingParams();
    // OCEAN's grid bottoms out near this scale; the small kernels
    // need more to fill the machine.
    params.scale =
        std::count(paper.begin(), paper.end(), kernel) ? 0.03 : 0.5;
    std::string first;
    for (Scheme scheme : siblingClass) {
        SCOPED_TRACE(schemeName(scheme));
        MachineConfig cfg = swapping ? swappingConfig(scheme, 8, 0)
                                     : tinyConfig(scheme, 8, 0);
        cfg.timedTranslation = false;
        Machine machine(cfg);
        RunStats stats = machine.run(*makeWorkload(kernel, params));
        clearTranslationFields(stats);
        if (first.empty()) {
            first = sheetOf(stats);
        } else {
            EXPECT_EQ(sheetOf(stats), first);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, SiblingSchemes,
    ::testing::Combine(::testing::ValuesIn(workloadNames()),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_swapping" : "_plain");
    });

/**
 * With the reference-bit decay daemon on, V-COMA's DLB (which sets
 * reference bits on write-back notices and injections too) steers the
 * page daemon away from L3's choices: the trajectories part, and a
 * class config's lanes keep to its own scheme.
 */
TEST(SiblingLanes, DecayDaemonKeepsLanesToOneScheme)
{
    std::string sheets[2];
    for (Scheme scheme : {Scheme::L3, Scheme::VCOMA}) {
        MachineConfig cfg = swappingConfig(scheme, 8, 0);
        cfg.refBitDecayPeriod = 20000;
        Machine machine(cfg);
        RunStats stats =
            machine.run(*makeWorkload("HOTSPOT", swappingParams()));
        for (const LaneSheet &lane : machine.laneSheets())
            EXPECT_EQ(lane.scheme, scheme);
        EXPECT_EQ(machine.laneSheets().size(), shadowSizes().size() - 1);
        clearTranslationFields(stats);
        sheets[scheme == Scheme::VCOMA] = sheetOf(stats);
    }
    EXPECT_NE(sheets[0], sheets[1]);
}
