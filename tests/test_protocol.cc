/**
 * @file
 * Protocol tests: directed COMA-F transaction scenarios plus a
 * randomised fuzz test, both run under all five translation schemes
 * and checked against the whole-machine coherence invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "check/invariant_checker.hh"
#include "checkers.hh"
#include "common/rng.hh"
#include "sim/machine.hh"
#include "translation/system_builder.hh"

using namespace vcoma;

namespace
{

MachineConfig
testConfig(Scheme scheme)
{
    MachineConfig cfg = tinyConfig(scheme);
    cfg.checkLevel = 2;  // verify versions on every reference
    return cfg;
}

/** Directory entry for a VA (page must be resident). */
DirectoryEntry &
entryFor(Machine &m, VAddr va)
{
    const PageNum vpn = m.layout().vpn(va);
    return m.directory().entryFor(vpn, m.layout().dirEntryIndex(va));
}

AmState
stateAt(Machine &m, NodeId n, VAddr va)
{
    const PageInfo *page = m.pageTable().find(m.layout().vpn(va));
    if (!page)
        return AmState::Invalid;
    const VAddr blockVa = m.layout().blockAlign(va);
    return m.node(n).am.state(m.traits().amVirtual
                                  ? blockVa
                                  : m.pageTable().translate(blockVa));
}

} // namespace

class ProtocolScheme : public ::testing::TestWithParam<Scheme>
{
};

TEST_P(ProtocolScheme, PreloadPlacesPageAtHome)
{
    Machine m(testConfig(GetParam()));
    m.access(0, RefType::Read, 0x40000, 0);
    const PageInfo *page = m.pageTable().find(m.layout().vpn(0x40000));
    ASSERT_NE(page, nullptr);
    EXPECT_TRUE(page->resident);
    // Every block of the page is MasterShared somewhere; the home
    // holds the ones nobody fetched.
    DirectoryEntry &e = entryFor(m, 0x40000 + 512);
    EXPECT_EQ(e.owner, page->home);
    EXPECT_FALSE(e.exclusive);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
}

TEST_P(ProtocolScheme, ReadMigratesASharedCopy)
{
    Machine m(testConfig(GetParam()));
    const VAddr va = 0x40000;
    m.access(0, RefType::Read, va, 0);
    const PageInfo *page = m.pageTable().find(m.layout().vpn(va));
    if (page->home != 0) {
        EXPECT_EQ(stateAt(m, 0, va), AmState::Shared);
        EXPECT_EQ(stateAt(m, page->home, va), AmState::MasterShared);
    } else {
        EXPECT_EQ(stateAt(m, 0, va), AmState::MasterShared);
    }
    DirectoryEntry &e = entryFor(m, va);
    EXPECT_TRUE(e.holds(0));
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
    checkInclusion(m);
}

TEST_P(ProtocolScheme, WriteTakesExclusiveAndInvalidates)
{
    Machine m(testConfig(GetParam()));
    const VAddr va = 0x40000;
    // Three readers...
    m.access(0, RefType::Read, va, 0);
    m.access(1, RefType::Read, va, 1000);
    m.access(2, RefType::Read, va, 2000);
    // ...then node 3 writes.
    m.access(3, RefType::Write, va, 3000);
    EXPECT_EQ(stateAt(m, 3, va), AmState::Exclusive);
    EXPECT_EQ(stateAt(m, 0, va), AmState::Invalid);
    EXPECT_EQ(stateAt(m, 1, va), AmState::Invalid);
    EXPECT_EQ(stateAt(m, 2, va), AmState::Invalid);
    DirectoryEntry &e = entryFor(m, va);
    EXPECT_EQ(e.owner, 3u);
    EXPECT_TRUE(e.exclusive);
    EXPECT_EQ(e.copies(), 1u);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
    checkInclusion(m);
}

TEST_P(ProtocolScheme, UpgradeFromSharedKeepsData)
{
    Machine m(testConfig(GetParam()));
    const VAddr va = 0x42000;
    m.access(1, RefType::Read, va, 0);
    const std::uint64_t remoteWritesBefore =
        m.engine().remoteWrites.value();
    m.access(1, RefType::Write, va, 1000);
    EXPECT_EQ(stateAt(m, 1, va), AmState::Exclusive);
    // It was an upgrade, not a data-carrying read-exclusive...
    EXPECT_EQ(m.engine().remoteWrites.value(), remoteWritesBefore);
    EXPECT_GE(m.engine().upgrades.value(), 1u);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
}

TEST_P(ProtocolScheme, SecondWriteIsSilent)
{
    Machine m(testConfig(GetParam()));
    const VAddr va = 0x42000;
    m.access(1, RefType::Write, va, 0);
    const auto upgradesBefore = m.engine().upgrades.value();
    const auto writesBefore = m.engine().remoteWrites.value();
    const AccessResult r = m.access(1, RefType::Write, va, 1000);
    EXPECT_EQ(m.engine().upgrades.value(), upgradesBefore);
    EXPECT_EQ(m.engine().remoteWrites.value(), writesBefore);
    EXPECT_EQ(r.remote, 0u);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
}

TEST_P(ProtocolScheme, ReadAfterWriteDowngradesToMasterShared)
{
    Machine m(testConfig(GetParam()));
    const VAddr va = 0x43000;
    m.access(2, RefType::Write, va, 0);
    m.access(4 % 4, RefType::Read, va, 1000);  // node 0 reads
    EXPECT_EQ(stateAt(m, 2, va), AmState::MasterShared);
    EXPECT_EQ(stateAt(m, 0, va), AmState::Shared);
    DirectoryEntry &e = entryFor(m, va);
    EXPECT_EQ(e.owner, 2u);
    EXPECT_FALSE(e.exclusive);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
}

TEST_P(ProtocolScheme, RemoteLatencyExceedsLocal)
{
    Machine m(testConfig(GetParam()));
    const VAddr va = 0x44000;
    const AccessResult miss = m.access(0, RefType::Read, va, 0);
    const AccessResult hit = m.access(0, RefType::Read, va, 10000);
    const PageInfo *page = m.pageTable().find(m.layout().vpn(va));
    if (page->home != 0) {
        EXPECT_GT(miss.remote, 0u);
        // At least request + block transfer.
        EXPECT_GE(miss.remote, 16u + 272u);
    }
    EXPECT_EQ(hit.remote, 0u);
    EXPECT_EQ(hit.done, 10000u);  // FLC hit: no latency charge
}

TEST_P(ProtocolScheme, FlcAndSlcFilterRepeatedAccesses)
{
    Machine m(testConfig(GetParam()));
    const VAddr va = 0x45000;
    m.access(0, RefType::Read, va, 0);
    const auto flcHitsBefore = m.node(0).flc.readHits.value();
    for (int i = 0; i < 10; ++i)
        m.access(0, RefType::Read, va, 1000 + i * 10);
    EXPECT_EQ(m.node(0).flc.readHits.value(), flcHitsBefore + 10);
}

TEST_P(ProtocolScheme, WritesPropagateThroughWriteThroughFlc)
{
    Machine m(testConfig(GetParam()));
    const VAddr va = 0x46000;
    m.access(0, RefType::Read, va, 0);
    m.access(0, RefType::Write, va, 1000);
    m.access(0, RefType::Write, va, 2000);
    // Every write reaches the SLC (write-through FLC).
    EXPECT_GE(m.node(0).slc.writeHits.value() +
                  m.node(0).slc.writeMisses.value(),
              2u);
}

TEST_P(ProtocolScheme, VersionsAdvanceWithWrites)
{
    Machine m(testConfig(GetParam()));
    const VAddr va = 0x47000;
    m.access(1, RefType::Write, va, 0);
    m.access(1, RefType::Write, va, 100);
    m.access(2, RefType::Write, va, 5000);
    DirectoryEntry &e = entryFor(m, va);
    EXPECT_EQ(e.version, 3u);
    m.access(3, RefType::Read, va, 9000);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
}

TEST_P(ProtocolScheme, DistinctBlocksIndependent)
{
    Machine m(testConfig(GetParam()));
    const VAddr a = 0x48000;
    const VAddr b = 0x48080;  // next 128 B block, same page
    m.access(0, RefType::Write, a, 0);
    m.access(1, RefType::Write, b, 1000);
    EXPECT_EQ(stateAt(m, 0, a), AmState::Exclusive);
    EXPECT_EQ(stateAt(m, 1, b), AmState::Exclusive);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
}

TEST_P(ProtocolScheme, ProtectionFaultOnForbiddenAccess)
{
    Machine m(testConfig(GetParam()));
    const VAddr va = 0x49000;
    m.access(0, RefType::Read, va, 0);
    PageInfo *page = m.pageTable().find(m.layout().vpn(va));
    page->protection = ProtRead;
    EXPECT_THROW(m.access(1, RefType::Write, va, 1000),
                 ProtectionFault);
    EXPECT_NO_THROW(m.access(1, RefType::Read, va, 2000));
    EXPECT_GE(m.engine().protectionFaults.value(), 1u);
}

/**
 * Capacity pressure: stream enough distinct owned blocks through one
 * node to force attraction-memory replacements and injections, then
 * verify nothing was lost.
 */
TEST_P(ProtocolScheme, InjectionPreservesOwnedBlocks)
{
    MachineConfig cfg = testConfig(GetParam());
    Machine m(cfg);
    // Node 0 writes one block in each of 12 pages per colour — three
    // times its AM associativity — so its sets overflow and owned
    // victims must be injected, regardless of placement policy.
    std::vector<VAddr> blocks;
    const unsigned pagesPerColour = 3 * cfg.am.assoc;
    const std::uint64_t numPages =
        pagesPerColour * m.layout().numColours();
    for (std::uint64_t i = 0; i < numPages; ++i)
        blocks.push_back(0x100000 + i * cfg.pageBytes);
    Tick t = 0;
    for (VAddr va : blocks) {
        m.access(0, RefType::Write, va, t);
        t += 10000;
    }
    EXPECT_GT(m.engine().injections.value(), 0u);
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
    // Every block still readable with its last version.
    for (VAddr va : blocks) {
        EXPECT_NO_THROW(m.access(1, RefType::Read, va, t));
        t += 10000;
    }
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
    checkInclusion(m);
}

/** Randomised fuzz: many cpus, reads/writes over a small region. */
TEST_P(ProtocolScheme, FuzzManyCpusSmallRegion)
{
    Machine m(testConfig(GetParam()));
    Rng rng(1234);
    Tick t = 0;
    for (int i = 0; i < 20000; ++i) {
        const CpuId cpu = static_cast<CpuId>(rng.below(4));
        const VAddr va = 0x80000 + rng.below(64) * 1024 +
                         rng.below(8) * 128;
        const RefType type =
            rng.below(3) == 0 ? RefType::Write : RefType::Read;
        m.access(cpu, type, va, t);
        t += rng.below(200);
    }
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
    checkInclusion(m);
}

/** Fuzz with high conflict pressure (same-colour pages). */
TEST_P(ProtocolScheme, FuzzConflictPressure)
{
    MachineConfig cfg = testConfig(GetParam());
    Machine m(cfg);
    Rng rng(77);
    const std::uint64_t colourStride =
        m.layout().numColours() * cfg.pageBytes;
    Tick t = 0;
    for (int i = 0; i < 8000; ++i) {
        const CpuId cpu = static_cast<CpuId>(rng.below(4));
        const VAddr va = 0x200000 + rng.below(12) * colourStride +
                         rng.below(4) * 128;
        const RefType type =
            rng.below(2) == 0 ? RefType::Write : RefType::Read;
        m.access(cpu, type, va, t);
        t += rng.below(500);
    }
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
    checkInclusion(m);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ProtocolScheme,
    ::testing::Values(Scheme::L0, Scheme::L1, Scheme::L2, Scheme::L3,
                      Scheme::VCOMA),
    [](const ::testing::TestParamInfo<Scheme> &info) {
        std::string name = schemeName(info.param);
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name;
    });
