/**
 * @file
 * Geometry-sweep robustness tests: the protocol, VM and translation
 * machinery must hold their invariants across unusual but legal
 * machine shapes (page sizes, block sizes, associativities, node
 * counts), not just the paper's baseline. Each geometry is fuzzed
 * with a mixed read/write workload under every scheme and checked
 * against the whole-machine invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "check/invariant_checker.hh"
#include "checkers.hh"
#include "common/rng.hh"
#include "sim/machine.hh"
#include "translation/system_builder.hh"

using namespace vcoma;

namespace
{

struct Geometry
{
    std::string name;
    MachineConfig cfg;
};

std::vector<Geometry>
geometries()
{
    std::vector<Geometry> out;

    {
        // Two nodes, the minimum home fan-out.
        MachineConfig cfg = tinyConfig(Scheme::VCOMA);
        cfg.numNodes = 2;
        out.push_back({"two_nodes", cfg});
    }
    {
        // Eight nodes with a direct-mapped attraction memory: every
        // set holds one block, so injections dominate.
        MachineConfig cfg = tinyConfig(Scheme::VCOMA);
        cfg.numNodes = 8;
        cfg.am = CacheConfig{128 * 1024, 1, 128, false, true};
        out.push_back({"dm_am", cfg});
    }
    {
        // Large pages relative to the AM: few colours.
        MachineConfig cfg = tinyConfig(Scheme::VCOMA);
        cfg.numNodes = 4;
        cfg.pageBytes = 4096;
        cfg.am = CacheConfig{256 * 1024, 4, 128, false, true};
        out.push_back({"big_pages", cfg});
    }
    {
        // Small blocks everywhere.
        MachineConfig cfg = tinyConfig(Scheme::VCOMA);
        cfg.flc = CacheConfig{512, 1, 16, true, false};
        cfg.slc = CacheConfig{2048, 2, 32, false, true};
        cfg.am = CacheConfig{64 * 1024, 4, 64, false, true};
        out.push_back({"small_blocks", cfg});
    }
    {
        // Highly associative AM with big blocks.
        MachineConfig cfg = tinyConfig(Scheme::VCOMA);
        cfg.pageBytes = 2048;
        cfg.am = CacheConfig{128 * 1024, 8, 256, false, true};
        cfg.slc = CacheConfig{4096, 4, 128, false, true};
        cfg.flc = CacheConfig{1024, 1, 64, true, false};
        out.push_back({"fat_blocks", cfg});
    }
    return out;
}

} // namespace

using GeomParam = std::tuple<int, Scheme>;

class GeometrySweep : public ::testing::TestWithParam<GeomParam>
{
};

namespace
{

std::string
geomTestName(const ::testing::TestParamInfo<GeomParam> &info)
{
    const int idx = std::get<0>(info.param);
    const Scheme scheme = std::get<1>(info.param);
    std::string name = geometries().at(idx).name + "_";
    std::string s = schemeName(scheme);
    s.erase(std::remove(s.begin(), s.end(), '-'), s.end());
    return name + s;
}

} // namespace

TEST_P(GeometrySweep, FuzzHoldsInvariants)
{
    const auto [geomIdx, scheme] = GetParam();
    Geometry geom = geometries().at(geomIdx);
    geom.cfg.translation.scheme = scheme;
    geom.cfg.checkLevel = 2;
    // Skip shapes where the home bits exceed the colour bits (the
    // layout constructor rejects them by design).
    try {
        geom.cfg.validate();
        VAddrLayout layout(geom.cfg);
        (void)layout;
    } catch (const FatalError &) {
        GTEST_SKIP() << "geometry illegal for this node count";
    }

    Machine m(geom.cfg);
    Rng rng(42 + geomIdx);
    Tick t = 0;
    const unsigned nodes = geom.cfg.numNodes;
    for (int i = 0; i < 6000; ++i) {
        const CpuId cpu = static_cast<CpuId>(rng.below(nodes));
        const VAddr va =
            0x400000 +
            rng.below(48) * geom.cfg.pageBytes +
            rng.below(geom.cfg.pageBytes / 8) * 8;
        const RefType type =
            rng.below(3) == 0 ? RefType::Write : RefType::Read;
        ASSERT_NO_THROW(m.access(cpu, type, va, t))
            << geom.name << " i=" << i;
        t += rng.below(300);
    }
    EXPECT_NO_THROW(InvariantChecker(m).enforce());
    checkInclusion(m);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GeometrySweep,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(Scheme::L0, Scheme::L2,
                                         Scheme::L3, Scheme::VCOMA)),
    geomTestName);
