/**
 * @file
 * Tests for the translation-scheme registry: the strict parse/name
 * round trip, cache-key uniqueness, the legacy/modern partition, the
 * modern schemes (VICTIMA, NMT) running under full invariant
 * checking, and the byte-identity of the five 1998 schemes' stats
 * sheets against pre-refactor golden files.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "harness/runner.hh"
#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "translation/scheme.hh"
#include "translation/system_builder.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

namespace fs = std::filesystem;

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

TEST(SchemeRegistry, EnumOrderAndPartition)
{
    const auto &reg = schemeRegistry();
    ASSERT_FALSE(reg.empty());
    for (std::size_t i = 0; i < reg.size(); ++i) {
        EXPECT_EQ(static_cast<std::size_t>(reg[i].id), i);
        EXPECT_EQ(static_cast<std::size_t>(reg[i].traits.scheme), i);
    }
    // legacy + modern partition the registry, preserving order.
    EXPECT_EQ(legacySchemes().size() + modernSchemes().size(),
              allRegisteredSchemes().size());
    for (Scheme s : legacySchemes())
        EXPECT_TRUE(schemeDescriptor(s).legacy);
    for (Scheme s : modernSchemes())
        EXPECT_FALSE(schemeDescriptor(s).legacy);
    // The paper's five, in table order, must stay exactly these.
    const std::vector<Scheme> paper{Scheme::L0, Scheme::L1, Scheme::L2,
                                    Scheme::L3, Scheme::VCOMA};
    EXPECT_EQ(legacySchemes(), paper);
}

TEST(SchemeRegistry, NameParseRoundTrip)
{
    std::set<std::string> names;
    std::set<std::string> tokens;
    for (Scheme s : allRegisteredSchemes()) {
        const SchemeDescriptor &d = schemeDescriptor(s);
        EXPECT_STRNE(d.name, "");
        EXPECT_STRNE(d.timedLabel, "");
        EXPECT_STRNE(d.summary, "");
        // Canonical names are unique...
        EXPECT_TRUE(names.insert(d.name).second)
            << "duplicate scheme name " << d.name;
        // ...and every spelling parses back to exactly this scheme.
        Scheme parsed;
        ASSERT_TRUE(tryParseScheme(d.name, parsed)) << d.name;
        EXPECT_EQ(parsed, s);
        EXPECT_EQ(parseScheme(d.name), s);
        EXPECT_TRUE(tokens.insert(d.name).second);
        for (const std::string &alias : d.aliases) {
            ASSERT_TRUE(tryParseScheme(alias, parsed)) << alias;
            EXPECT_EQ(parsed, s) << alias;
            EXPECT_TRUE(tokens.insert(alias).second)
                << "alias " << alias << " claimed twice";
        }
        // schemeName is the descriptor name (cache-key token).
        EXPECT_STREQ(schemeName(s), d.name);
    }
}

TEST(SchemeRegistry, UnknownSchemesFailClosed)
{
    Scheme out;
    EXPECT_FALSE(tryParseScheme("L9", out));
    EXPECT_FALSE(tryParseScheme("", out));
    EXPECT_FALSE(tryParseScheme("l0-tlb", out)); // strict spelling
    EXPECT_THROW(parseScheme("L9"), FatalError);
    // Raw integers outside the registry are rejected everywhere.
    const unsigned count =
        static_cast<unsigned>(allRegisteredSchemes().size());
    EXPECT_THROW(schemeName(static_cast<Scheme>(count)), FatalError);
    EXPECT_THROW(schemeTraits(static_cast<Scheme>(count)), FatalError);
}

TEST(SchemeRegistry, CacheKeysUniquePerScheme)
{
    std::set<std::string> keys;
    for (Scheme s : allRegisteredSchemes()) {
        ExperimentConfig cfg;
        cfg.scheme = s;
        EXPECT_TRUE(keys.insert(cfg.key()).second)
            << "cache key collision for " << schemeName(s);
    }
    // The legacy five keep their historic key spellings: the on-disk
    // cache written before the registry refactor must stay warm.
    ExperimentConfig cfg;
    cfg.workload = "FFT";
    cfg.scale = 0.05;
    cfg.scheme = Scheme::L0;
    EXPECT_EQ(cfg.key(),
              "FFT-L0-TLB-e8-a0-t0-w1-v2_0-n32-s0.05-r1-k4-p40");
    cfg.scheme = Scheme::VCOMA;
    EXPECT_EQ(cfg.key(),
              "FFT-V-COMA-e8-a0-t0-w1-v2_0-n32-s0.05-r1-k4-p40");
}

TEST(SchemeRegistry, TraitsMatchModernSchemeModels)
{
    const SchemeTraits victima = schemeTraits(Scheme::VICTIMA);
    EXPECT_TRUE(victima.perNodeTlb);
    EXPECT_TRUE(victima.slcTlbSpill);
    EXPECT_EQ(victima.tlbPoint, TlbPoint::PreFlc);
    EXPECT_FALSE(victima.hasDlb);
    EXPECT_FALSE(victima.amVirtual);
    EXPECT_EQ(victima.placement, PlacementPolicy::RoundRobin);

    const SchemeTraits nmt = schemeTraits(Scheme::NMT);
    EXPECT_FALSE(nmt.perNodeTlb);
    EXPECT_FALSE(nmt.hasDlb);
    EXPECT_TRUE(nmt.homeTranslation);
    EXPECT_TRUE(nmt.amVirtual);
    EXPECT_EQ(nmt.tlbPoint, TlbPoint::None);
    EXPECT_FALSE(nmt.hasPhysicalAddresses());

    // The old split-brain predicate is now a registry view.
    for (Scheme s : allRegisteredSchemes())
        EXPECT_EQ(schemeUsesVirtualAm(s), schemeTraits(s).amVirtual);
}

namespace
{

/** Small machine + workload for the modern-scheme invariant runs. */
RunStats
runTinyChecked(Scheme scheme)
{
    MachineConfig cfg = tinyConfig(scheme, /*entries=*/2);
    cfg.checkLevel = 2; // invariant sweep after every reference
    Machine machine(cfg);
    WorkloadParams params;
    params.threads = cfg.numNodes;
    params.scale = 0.05;
    params.seed = 7;
    auto workload = makeWorkload("UNIFORM", params);
    return machine.run(*workload);
}

} // namespace

TEST(ModernSchemes, VictimaRunsUnderFullChecking)
{
    const RunStats stats = runTinyChecked(Scheme::VICTIMA);
    EXPECT_GT(stats.totalRefs(), 0u);
    // The spill structure actually participated: TLB victims filled
    // it and TLB misses probed it.
    EXPECT_GT(stats.tlbAccesses, 0u);
    EXPECT_GT(stats.tlbSpillFills, 0u);
    EXPECT_GT(stats.tlbSpillProbes, 0u);
    // A probe either hits (rescued walk) or misses; hits never exceed
    // probes, and rescued walks never exceed TLB misses.
    EXPECT_LE(stats.tlbSpillHits, stats.tlbSpillProbes);
    EXPECT_LE(stats.tlbSpillHits, stats.tlbMisses);
}

TEST(ModernSchemes, NmtRunsUnderFullChecking)
{
    const RunStats stats = runTinyChecked(Scheme::NMT);
    EXPECT_GT(stats.totalRefs(), 0u);
    // No translation structures at all: nothing accessed, nothing
    // missed, no translation stall.
    EXPECT_EQ(stats.tlbAccesses, 0u);
    EXPECT_EQ(stats.tlbMisses, 0u);
    EXPECT_EQ(stats.tlbSpillProbes, 0u);
    EXPECT_EQ(stats.totalXlatStall(), 0u);
}

TEST(ModernSchemes, LegacySchemesHaveNoSpillCounters)
{
    for (Scheme s : legacySchemes()) {
        SCOPED_TRACE(schemeName(s));
        const RunStats stats = runTinyChecked(s);
        EXPECT_EQ(stats.tlbSpillProbes, 0u);
        EXPECT_EQ(stats.tlbSpillHits, 0u);
        EXPECT_EQ(stats.tlbSpillFills, 0u);
    }
}

/**
 * The refactor's headline guarantee: the five 1998 schemes produce
 * byte-identical stats sheets (and unchanged cache keys) against
 * goldens recorded with the pre-refactor simulator. The golden
 * directory holds one sheet per config, named `<cache key>.json`:
 * the exact bytes `vcoma_client direct --out-dir` writes.
 */
TEST(LegacyEquivalence, GoldenSheetsAreByteIdentical)
{
    const fs::path goldenDir = VCOMA_GOLDEN_DIR;
    ASSERT_TRUE(fs::is_directory(goldenDir)) << goldenDir;

    // Reconstruct each golden's config from its file name's tokens;
    // the grid is small enough to enumerate and match by key.
    std::vector<ExperimentConfig> grid;
    for (const char *workload : {"FFT", "RADIX"}) {
        for (Scheme s : legacySchemes()) {
            for (bool timed : {false, true}) {
                for (bool wback : {true, false}) {
                    ExperimentConfig cfg;
                    cfg.workload = workload;
                    cfg.scheme = s;
                    cfg.timedTranslation = timed;
                    cfg.writebacksAccessTlb = wback;
                    cfg.scale = 0.05;
                    grid.push_back(cfg);
                }
            }
        }
    }

    std::size_t goldens = 0;
    std::vector<ExperimentConfig> wanted;
    for (const ExperimentConfig &cfg : grid) {
        if (fs::exists(goldenDir / (cfg.key() + ".json")))
            wanted.push_back(cfg);
    }
    // Every golden sheet must be claimed by a reconstructed config:
    // if a key ever drifts, the count (not just a diff) catches it.
    for (const auto &entry : fs::directory_iterator(goldenDir))
        if (entry.path().extension() == ".json")
            ++goldens;
    ASSERT_EQ(wanted.size(), goldens);
    ASSERT_GE(goldens, 16u);

    Runner runner("");
    const std::vector<const RunStats *> sheets = runner.runAll(wanted);
    for (std::size_t i = 0; i < wanted.size(); ++i) {
        SCOPED_TRACE(wanted[i].key());
        ASSERT_NE(sheets[i], nullptr);
        std::ostringstream fresh;
        writeRunStatsJson(fresh, *sheets[i]);
        fresh << "\n";
        EXPECT_EQ(slurp(goldenDir / (wanted[i].key() + ".json")),
                  fresh.str());
    }
}
