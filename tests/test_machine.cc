/**
 * @file
 * Integration tests: whole-machine runs of small workloads, the
 * accounting identity (busy + sync + stalls == finish time), run
 * determinism, and cross-scheme consistency of the reference stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "check/invariant_checker.hh"
#include "checkers.hh"
#include "sim/machine.hh"
#include "translation/system_builder.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

WorkloadParams
tinyParams()
{
    WorkloadParams p;
    p.threads = 4;
    p.scale = 0.05;
    p.seed = 3;
    return p;
}

MachineConfig
cfgFor(Scheme scheme)
{
    MachineConfig cfg = tinyConfig(scheme);
    cfg.checkLevel = 2;
    return cfg;
}

} // namespace

class MachineRun : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(MachineRun, UniformWorkloadCompletes)
{
    Machine m(cfgFor(GetParam()));
    auto w = makeWorkload("UNIFORM", tinyParams());
    const RunStats stats = m.run(*w);
    EXPECT_GT(stats.totalRefs(), 0u);
    EXPECT_GT(stats.execTime, 0u);
    EXPECT_EQ(stats.cpus.size(), 4u);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
    checkInclusion(m);
}

TEST_P(MachineRun, AccountingIdentityHolds)
{
    Machine m(cfgFor(GetParam()));
    auto w = makeWorkload("STRIDE", tinyParams());
    const RunStats stats = m.run(*w);
    for (const auto &cpu : stats.cpus) {
        EXPECT_EQ(cpu.accounted(), cpu.finish)
            << "busy+sync+stalls must equal the finish time";
    }
}

TEST_P(MachineRun, DeterministicAcrossRuns)
{
    RunStats a, b;
    {
        Machine m(cfgFor(GetParam()));
        auto w = makeWorkload("UNIFORM", tinyParams());
        a = m.run(*w);
    }
    {
        Machine m(cfgFor(GetParam()));
        auto w = makeWorkload("UNIFORM", tinyParams());
        b = m.run(*w);
    }
    EXPECT_EQ(a.execTime, b.execTime);
    EXPECT_EQ(a.totalRefs(), b.totalRefs());
    EXPECT_EQ(a.remoteReads, b.remoteReads);
    EXPECT_EQ(a.tlbMisses, b.tlbMisses);
    ASSERT_EQ(a.shadow.size(), b.shadow.size());
    for (std::size_t i = 0; i < a.shadow.size(); ++i)
        EXPECT_EQ(a.shadow[i].demandMisses, b.shadow[i].demandMisses);
}

TEST_P(MachineRun, ShadowSweepIsMonotoneFullyAssociative)
{
    Machine m(cfgFor(GetParam()));
    auto w = makeWorkload("STRIDE", tinyParams());
    const RunStats stats = m.run(*w);
    std::uint64_t prev = ~std::uint64_t{0};
    for (unsigned size : shadowSizes()) {
        const auto &p = stats.shadowPoint(size, 0);
        EXPECT_LE(p.demandMisses, prev) << "size " << size;
        prev = p.demandMisses;
    }
}

TEST_P(MachineRun, RejectsThreadCountMismatch)
{
    Machine m(cfgFor(GetParam()));
    WorkloadParams p = tinyParams();
    p.threads = 2;
    auto w = makeWorkload("UNIFORM", p);
    EXPECT_THROW(m.run(*w), FatalError);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, MachineRun,
    ::testing::Values(Scheme::L0, Scheme::L1, Scheme::L2, Scheme::L3,
                      Scheme::VCOMA),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        std::string name = schemeName(info.param);
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name;
    });

// ---------------------------------------------------------------------
// Cross-scheme properties.
// ---------------------------------------------------------------------

/** The reference stream is placement-independent for phased kernels. */
TEST(MachineCross, SameRefCountAcrossSchemes)
{
    std::uint64_t refs = 0;
    for (Scheme s : {Scheme::L0, Scheme::L2, Scheme::VCOMA}) {
        Machine m(cfgFor(s));
        auto w = makeWorkload("STRIDE", tinyParams());
        const RunStats stats = m.run(*w);
        if (refs == 0)
            refs = stats.totalRefs();
        else
            EXPECT_EQ(stats.totalRefs(), refs)
                << schemeName(s);
    }
}

/** The paper's filtering effect: deeper TLB points see fewer accesses. */
TEST(MachineCross, FilteringEffectOnAccessCounts)
{
    std::map<Scheme, std::uint64_t> accesses;
    for (Scheme s :
         {Scheme::L0, Scheme::L1, Scheme::L2, Scheme::L3}) {
        Machine m(cfgFor(s));
        auto w = makeWorkload("UNIFORM", tinyParams());
        const RunStats stats = m.run(*w);
        accesses[s] = stats.shadowPoint(8, 0).demandAccesses;
    }
    EXPECT_GE(accesses[Scheme::L0], accesses[Scheme::L1]);
    EXPECT_GE(accesses[Scheme::L1], accesses[Scheme::L2]);
    EXPECT_GE(accesses[Scheme::L2], accesses[Scheme::L3]);
}

/** Timed translation penalties only appear when enabled. */
TEST(MachineCross, TimedTranslationTogglesXlatStall)
{
    MachineConfig cfg = cfgFor(Scheme::L0);
    cfg.translation.entries = 2;  // tiny: plenty of misses
    cfg.timedTranslation = false;
    {
        Machine m(cfg);
        auto w = makeWorkload("UNIFORM", tinyParams());
        const RunStats stats = m.run(*w);
        EXPECT_EQ(stats.totalXlatStall(), 0u);
        EXPECT_GT(stats.tlbMisses, 0u);
    }
    cfg.timedTranslation = true;
    {
        Machine m(cfg);
        auto w = makeWorkload("UNIFORM", tinyParams());
        const RunStats stats = m.run(*w);
        EXPECT_GT(stats.totalXlatStall(), 0u);
        EXPECT_EQ(stats.totalXlatStall(),
                  stats.tlbMisses * cfg.timing.translationMiss);
    }
}

namespace
{

/** Four threads hammering one lock-protected counter. */
class LockPingWorkload : public Workload
{
  public:
    LockPingWorkload() : counter_(space_, "counter", 8) {}

    std::string name() const override { return "LOCKPING"; }
    std::string parameters() const override { return ""; }
    unsigned numThreads() const override { return 4; }
    const AddressSpace &space() const override { return space_; }

    Generator<MemRef>
    thread(unsigned) override
    {
        return body();
    }

  private:
    Generator<MemRef>
    body()
    {
        for (int i = 0; i < 50; ++i) {
            co_yield MemRef::lock(1);
            co_yield MemRef::read(counter_.addr(0), 2);
            co_yield MemRef::write(counter_.addr(0), 2);
            co_yield MemRef::unlock(1);
        }
        co_yield MemRef::barrier(0);
    }

    AddressSpace space_;
    SharedArray<std::uint64_t> counter_;
};

} // namespace

/** Locks serialise: sync time appears under contention, and the
 *  lock-protected block migrates between all nodes. */
TEST(MachineCross, LockContentionShowsAsSync)
{
    Machine m(cfgFor(Scheme::VCOMA));
    LockPingWorkload w;
    const RunStats stats = m.run(w);
    EXPECT_GT(stats.totalSync(), 0u);
    EXPECT_GE(stats.upgrades + stats.remoteWrites, 100u);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
}
