/**
 * @file
 * Full-machine integration runs: every paper benchmark on the
 * baseline 32-node machine (scaled-down data sets), checked against
 * the coherence invariants, the accounting identity, and the
 * headline qualitative results of the paper.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "check/invariant_checker.hh"
#include "checkers.hh"
#include "harness/runner.hh"
#include "sim/machine.hh"
#include "translation/system_builder.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

/** One simulation per (benchmark, scheme), memoised across tests. */
const RunStats &
runBaseline(const std::string &name, Scheme scheme,
            Machine **out = nullptr)
{
    struct Entry
    {
        std::unique_ptr<Machine> machine;
        RunStats stats;
    };
    static std::map<std::pair<std::string, Scheme>, Entry> memo;
    auto key = std::make_pair(name, scheme);
    auto it = memo.find(key);
    if (it == memo.end()) {
        MachineConfig cfg = baselineConfig(scheme, 8);
        cfg.timedTranslation = false;
        Entry entry;
        entry.machine = std::make_unique<Machine>(cfg);
        WorkloadParams p;
        p.threads = cfg.numNodes;
        p.scale = 0.05;
        auto w = makeWorkload(name, p);
        entry.stats = entry.machine->run(*w);
        it = memo.emplace(key, std::move(entry)).first;
    }
    if (out)
        *out = it->second.machine.get();
    return it->second.stats;
}

} // namespace

class BaselineRun : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BaselineRun, CompletesWithInvariantsIntact)
{
    Machine *machine = nullptr;
    const RunStats stats =
        runBaseline(GetParam(), Scheme::VCOMA, &machine);
    ASSERT_NE(machine, nullptr);
    EXPECT_GT(stats.totalRefs(), 1000u);
    EXPECT_GT(stats.execTime, 0u);
    EXPECT_NO_THROW(InvariantChecker(*machine).enforce());
    checkInclusion(*machine);
    // Accounting identity on every processor.
    for (const auto &cpu : stats.cpus)
        EXPECT_EQ(cpu.accounted(), cpu.finish);
}

TEST_P(BaselineRun, DlbMissRateIsNegligible)
{
    const RunStats stats = runBaseline(GetParam(), Scheme::VCOMA);
    // The headline result: V-COMA's translation misses are negligible
    // per processor reference — at 32 DLB entries, under 0.5% for
    // every benchmark (Table 2's V-COMA columns).
    EXPECT_LT(stats.missRatePct(32, 0, true), 0.5) << GetParam();
}

TEST_P(BaselineRun, VcomaBeatsL0TlbOnMisses)
{
    const RunStats vcoma = runBaseline(GetParam(), Scheme::VCOMA);
    const RunStats l0 = runBaseline(GetParam(), Scheme::L0);
    // At 8 entries the shared DLB must miss (much) less than the
    // classic TLB for every benchmark.
    EXPECT_LT(vcoma.missRatePct(8, 0, true),
              l0.missRatePct(8, 0, true))
        << GetParam();
}

TEST_P(BaselineRun, FilteringOrdersSchemes)
{
    // L3's TLB point sees no more demand accesses than L0's.
    const RunStats l0 = runBaseline(GetParam(), Scheme::L0);
    const RunStats l3 = runBaseline(GetParam(), Scheme::L3);
    EXPECT_LE(l3.shadowPoint(8, 0).demandAccesses,
              l0.shadowPoint(8, 0).demandAccesses)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    PaperBenchmarks, BaselineRun,
    ::testing::Values("RADIX", "FFT", "FMM", "OCEAN", "RAYTRACE",
                      "BARNES"));
