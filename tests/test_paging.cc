/**
 * @file
 * Paging-pressure tests: the page daemon's swap-outs when a global
 * page set exceeds the pressure threshold (Section 4.3), page purges,
 * TLB/DLB shoot-downs, and correct reloads after a swap.
 */

#include <gtest/gtest.h>

#include "check/invariant_checker.hh"
#include "checkers.hh"
#include "sim/machine.hh"
#include "translation/system_builder.hh"

using namespace vcoma;

namespace
{

/** A machine whose global page sets hold very few pages. */
MachineConfig
crampedConfig(Scheme scheme)
{
    MachineConfig cfg = tinyConfig(scheme);
    // 16 colours, capacity 4*4=16 pages each by default; drop the
    // threshold so the daemon reacts at half occupancy.
    cfg.pressureThreshold = 0.5;
    return cfg;
}

} // namespace

class Paging : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(Paging, DaemonSwapsWhenPressureExceedsThreshold)
{
    Machine m(crampedConfig(GetParam()));
    // Touch 12 pages per colour (sequential pages cycle through all
    // colours under every placement policy): capacity is 16 with
    // threshold 0.5, so the daemon must start swapping beyond 8.
    const std::uint64_t pages = 12 * m.layout().numColours();
    Tick t = 0;
    for (std::uint64_t i = 0; i < pages; ++i) {
        m.access(0, RefType::Read,
                 0x100000 + i * m.config().pageBytes, t);
        t += 5000;
    }
    EXPECT_GT(m.pageTable().swapOuts.value(), 0u);
    EXPECT_LE(m.pressure().maxPressure(), 0.5 + 1e-9);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
}

TEST_P(Paging, SwappedPageReloadsWithData)
{
    Machine m(crampedConfig(GetParam()));
    const VAddr va = 0x100000;
    m.access(1, RefType::Write, va, 0);
    const PageNum vpn = m.layout().vpn(va);
    m.engine().purgePage(vpn);
    m.pageTable().swapOut(vpn);
    EXPECT_FALSE(m.pageTable().find(vpn)->resident);
    // Re-touch: a reload (page fault) must occur and the access
    // completes without coherence damage.
    EXPECT_NO_THROW(m.access(2, RefType::Read, va, 50000));
    EXPECT_EQ(m.pageTable().pageReloads.value(), 1u);
    EXPECT_TRUE(m.pageTable().find(vpn)->resident);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
    checkInclusion(m);
}

TEST_P(Paging, PurgeShootsDownTranslations)
{
    Machine m(crampedConfig(GetParam()));
    m.access(0, RefType::Read, 0x100000, 0);
    m.access(1, RefType::Read, 0x100000, 1000);
    const PageNum vpn = m.layout().vpn(0x100000);
    m.engine().purgePage(vpn);
    m.pageTable().swapOut(vpn);
    EXPECT_FALSE(m.pageTable().find(vpn)->resident);
    // No node retains data, no TLB/DLB retains the mapping.
    for (unsigned n = 0; n < m.numNodes(); ++n) {
        if (m.node(n).tlb) {
            EXPECT_FALSE(m.node(n).tlb->contains(vpn));
        }
        if (m.node(n).dlb) {
            EXPECT_FALSE(m.node(n).dlb->tlb().contains(vpn));
        }
    }
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
}

INSTANTIATE_TEST_SUITE_P(
    Schemes, Paging,
    ::testing::Values(Scheme::L0, Scheme::L3, Scheme::VCOMA),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        std::string name = schemeName(info.param);
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name;
    });
