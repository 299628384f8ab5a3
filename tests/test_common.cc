/**
 * @file
 * Tests for the common layer: stats counters/distributions, the table
 * printer, configuration validation, scheme traits, environment
 * knobs and saturating Tick arithmetic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>
#include <utility>

#include "common/config.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/parse_number.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"
#include "net/network.hh"
#include "translation/scheme.hh"
#include "translation/system_builder.hh"

using namespace vcoma;

// ---------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    c.inc();
    EXPECT_EQ(c.value(), 7u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, DistributionMoments)
{
    Distribution d;
    EXPECT_EQ(d.mean(), 0.0);
    d.sample(2);
    d.sample(4);
    d.sample(9);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
}

TEST(Stats, HistogramClampsToLastBucket)
{
    Histogram h(4);
    h.add(0);
    h.add(3);
    h.add(99);
    EXPECT_EQ(h.at(0), 1u);
    EXPECT_EQ(h.at(3), 2u);
    // The clamp keeps totals right but is no longer silent: the
    // out-of-range mass is reported separately.
    EXPECT_EQ(h.overflow(), 1u);
    h.add(4, 10);
    EXPECT_EQ(h.overflow(), 11u);
    h.resize(4);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Stats, HistogramInRangeAddsLeaveOverflowZero)
{
    Histogram h(3);
    h.add(0);
    h.add(2, 5);
    EXPECT_EQ(h.overflow(), 0u);
    Histogram empty;
    empty.add(7);  // no buckets: dropped, not counted as overflow
    EXPECT_EQ(empty.overflow(), 0u);
}

TEST(Stats, DistSummaryMergesLikeOneStream)
{
    Distribution a, b;
    a.sample(2);
    a.sample(10);
    b.sample(1);
    b.sample(5);
    DistSummary s = DistSummary::of(a);
    s.merge(DistSummary::of(b));
    EXPECT_EQ(s.count, 4u);
    EXPECT_DOUBLE_EQ(s.sum, 18.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 10.0);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    // Merging an empty summary changes nothing; merging into an empty
    // one adopts the other side wholesale.
    s.merge(DistSummary{});
    EXPECT_EQ(s.count, 4u);
    DistSummary e;
    e.merge(s);
    EXPECT_EQ(e.count, 4u);
    EXPECT_DOUBLE_EQ(e.min, 1.0);
}

TEST(Stats, GroupRejectsDuplicateNames)
{
    Counter c1, c2;
    Distribution d;
    StatGroup g("dup");
    g.addCounter("events", c1);
    EXPECT_THROW(g.addCounter("events", c2), FatalError);
    // Counters and distributions share one namespace.
    EXPECT_THROW(g.addDistribution("events", d), FatalError);
    StatGroup childA("sub"), childB("sub");
    g.addChild(childA);
    EXPECT_THROW(g.addChild(childB), FatalError);
}

TEST(Stats, GroupMoveTransfersRegistrationsSafely)
{
    Counter c;
    c += 7;
    StatGroup original("engine");
    original.addCounter("events", c);

    StatGroup moved(std::move(original));
    std::ostringstream os;
    moved.dump(os);
    EXPECT_NE(os.str().find("events = 7"), std::string::npos);

    // Dumping the moved-from shell is defined behaviour: it is simply
    // empty, and it can be reused for new registrations.
    std::ostringstream empty;
    original.dump(empty);
    EXPECT_EQ(empty.str().find("events"), std::string::npos);
    Counter other;
    original.addCounter("events", other);  // no duplicate: it is empty

    StatGroup assigned("target");
    assigned = std::move(moved);
    std::ostringstream os2;
    assigned.dump(os2);
    EXPECT_NE(os2.str().find("engine:"), std::string::npos);
    EXPECT_NE(os2.str().find("events = 7"), std::string::npos);
}

TEST(Stats, GroupDumpContainsEntries)
{
    Counter c;
    c += 42;
    Distribution d;
    d.sample(1.5);
    StatGroup group("engine");
    group.addCounter("events", c);
    group.addDistribution("latency", d);
    StatGroup child("sub");
    Counter c2;
    child.addCounter("inner", c2);
    group.addChild(child);
    std::ostringstream os;
    group.dump(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("engine:"), std::string::npos);
    EXPECT_NE(text.find("events = 42"), std::string::npos);
    EXPECT_NE(text.find("latency"), std::string::npos);
    EXPECT_NE(text.find("sub:"), std::string::npos);
}

// ---------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------

TEST(TablePrinter, AlignsColumnsAndPrintsCsv)
{
    Table t("demo");
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer", "22"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("== demo =="), std::string::npos);
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "name,value\na,1\nlonger,22\n");
}

TEST(TablePrinter, RejectsRaggedRows)
{
    Table t("demo");
    t.header({"a", "b"});
    EXPECT_THROW(t.row({"only-one"}), PanicError);
}

TEST(TablePrinter, NumFormatsDecimals)
{
    EXPECT_EQ(Table::num(3.14159, 2), "3.14");
    EXPECT_EQ(Table::num(10, 0), "10");
    EXPECT_EQ(Table::num(0.00042, 4), "0.0004");
}

TEST(TablePrinter, FootnotesRenderAfterRows)
{
    Table t("demo");
    t.header({"name", "value"});
    t.row({"a", "n/a*"});
    t.footnote("n/a: config X failed to simulate");
    std::ostringstream os;
    t.print(os);
    const std::string text = os.str();
    const std::size_t rowAt = text.find("n/a*");
    const std::size_t noteAt =
        text.find("* n/a: config X failed to simulate");
    EXPECT_NE(rowAt, std::string::npos);
    ASSERT_NE(noteAt, std::string::npos) << text;
    EXPECT_LT(rowAt, noteAt);
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find("# * n/a: config X failed to simulate\n"),
              std::string::npos)
        << csv.str();
}

TEST(TablePrinter, NoFootnotesMeansUnchangedOutput)
{
    Table t("demo");
    t.header({"name", "value"});
    t.row({"a", "1"});
    std::ostringstream os;
    t.print(os);
    EXPECT_EQ(os.str().find('*'), std::string::npos);
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "name,value\na,1\n");
}

// ---------------------------------------------------------------------
// Config + scheme traits
// ---------------------------------------------------------------------

TEST(Config, PaperDefaultsAreValid)
{
    MachineConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
    EXPECT_EQ(cfg.numGlobalPageSets(), 256u);
    EXPECT_EQ(cfg.globalPageSetCapacity(), 128u);
    EXPECT_EQ(cfg.blocksPerPage(), 32u);
    EXPECT_EQ(cfg.flc.numSets(), 512u);
    EXPECT_EQ(cfg.slc.numSets(), 256u);
    EXPECT_EQ(cfg.am.numSets(), 8192u);
}

TEST(Config, ValidationCatchesBadShapes)
{
    MachineConfig cfg;
    cfg.numNodes = 33;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = MachineConfig{};
    cfg.pageBytes = 3000;
    EXPECT_THROW(cfg.validate(), FatalError);
    cfg = MachineConfig{};
    cfg.flc.blockBytes = 256;  // larger than SLC blocks
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(SchemeTraits, MatchSection3)
{
    const SchemeTraits l0 = schemeTraits(Scheme::L0);
    EXPECT_FALSE(l0.flcVirtual);
    EXPECT_TRUE(l0.perNodeTlb);
    EXPECT_EQ(l0.placement, PlacementPolicy::RoundRobin);

    const SchemeTraits l1 = schemeTraits(Scheme::L1);
    EXPECT_TRUE(l1.flcVirtual);
    EXPECT_FALSE(l1.slcVirtual);

    const SchemeTraits l2 = schemeTraits(Scheme::L2);
    EXPECT_TRUE(l2.slcVirtual);
    EXPECT_FALSE(l2.amVirtual);

    const SchemeTraits l3 = schemeTraits(Scheme::L3);
    EXPECT_TRUE(l3.amVirtual);
    EXPECT_TRUE(l3.perNodeTlb);
    EXPECT_EQ(l3.placement, PlacementPolicy::Coloured);

    const SchemeTraits v = schemeTraits(Scheme::VCOMA);
    EXPECT_TRUE(v.amVirtual);
    EXPECT_FALSE(v.perNodeTlb);
    EXPECT_FALSE(v.hasPhysicalAddresses());
    EXPECT_EQ(v.placement, PlacementPolicy::Vcoma);
}

TEST(SchemeTraits, Names)
{
    EXPECT_STREQ(schemeName(Scheme::L0), "L0-TLB");
    EXPECT_STREQ(schemeName(Scheme::VCOMA), "V-COMA");
    EXPECT_FALSE(schemeUsesVirtualAm(Scheme::L2));
    EXPECT_TRUE(schemeUsesVirtualAm(Scheme::L3));
}

TEST(BuilderConfigs, TinyAndBaselineValidate)
{
    for (Scheme s : {Scheme::L0, Scheme::L1, Scheme::L2, Scheme::L3,
                     Scheme::VCOMA}) {
        EXPECT_NO_THROW(baselineConfig(s).validate());
        EXPECT_NO_THROW(tinyConfig(s).validate());
    }
}

// ---------------------------------------------------------------------
// Environment knobs
// ---------------------------------------------------------------------

namespace
{

/** Scoped setenv/unsetenv that restores the prior value. */
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

} // namespace

TEST(EnvScaledFlag, NegativeValuesWarnAndUseTheDefault)
{
    // strtoull would happily wrap "-1" to 2^64-1; the knob must not
    // silently turn a typo into a huge interval.
    for (const char *v : {"-1", "-250", "  -3", "-0"}) {
        EnvGuard env("VCOMA_TEST_FLAG", v);
        EXPECT_EQ(envScaledFlag("VCOMA_TEST_FLAG", 4096), 4096u) << v;
    }
    // Unchanged behaviour around the fix.
    {
        EnvGuard env("VCOMA_TEST_FLAG", "250");
        EXPECT_EQ(envScaledFlag("VCOMA_TEST_FLAG", 4096), 250u);
    }
    {
        EnvGuard env("VCOMA_TEST_FLAG", "0");
        EXPECT_EQ(envScaledFlag("VCOMA_TEST_FLAG", 4096), 0u);
    }
}

TEST(EnvScaledFlag, HexValuesParseAsHex)
{
    // "0x10" used to parse as 0 with strtoull base 10 stopping at the
    // 'x', silently disabling the feature the operator asked to tune.
    {
        EnvGuard env("VCOMA_TEST_FLAG", "0x10");
        EXPECT_EQ(envScaledFlag("VCOMA_TEST_FLAG", 4096), 16u);
    }
    {
        EnvGuard env("VCOMA_TEST_FLAG", "0X100");
        EXPECT_EQ(envScaledFlag("VCOMA_TEST_FLAG", 4096), 256u);
    }
    {
        EnvGuard env("VCOMA_TEST_FLAG", "  0x20  ");
        EXPECT_EQ(envScaledFlag("VCOMA_TEST_FLAG", 4096), 32u);
    }
}

TEST(EnvScaledFlag, TrailingGarbageWarnsAndUsesTheDefault)
{
    // "5x" used to be silently read as 5; a typo must never be
    // misread as a different number.
    for (const char *v : {"5x", "16 pages", "1,000", "2.5", "0x"}) {
        EnvGuard env("VCOMA_TEST_FLAG", v);
        EXPECT_EQ(envScaledFlag("VCOMA_TEST_FLAG", 4096), 4096u) << v;
    }
}

TEST(EnvScaledFlag, SurroundingWhitespaceIsTolerated)
{
    {
        EnvGuard env("VCOMA_TEST_FLAG", "  250  ");
        EXPECT_EQ(envScaledFlag("VCOMA_TEST_FLAG", 4096), 250u);
    }
    {
        EnvGuard env("VCOMA_TEST_FLAG", "\t7\n");
        EXPECT_EQ(envScaledFlag("VCOMA_TEST_FLAG", 4096), 7u);
    }
}

// Strict numeric parsing of command-line values (vcoma_client flags).

TEST(ParseNumber, AcceptsWholeInRangeNumbers)
{
    EXPECT_EQ(parseNumber<unsigned>("0"), 0u);
    EXPECT_EQ(parseNumber<unsigned>("8"), 8u);
    EXPECT_EQ(parseNumber<unsigned>("4294967295"), 4294967295u);
    EXPECT_EQ(parseNumber<std::uint64_t>("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
    EXPECT_EQ(parseNumber<double>("0.1"), 0.1);
    EXPECT_EQ(parseNumber<double>("2"), 2.0);
    EXPECT_EQ(parseNumber<double>("1e-3"), 1e-3);
    EXPECT_EQ(parseNumber<std::uint64_t>("fFfF", 16), 0xffffu);
    EXPECT_EQ(parseNumber<unsigned>("010"), 10u) << "never octal";
}

TEST(ParseNumber, RejectsTrailingCharacters)
{
    for (const char *v : {"8x", "4abc", "8 ", "0x10", "1.5"})
        EXPECT_FALSE(parseNumber<unsigned>(v)) << v;
    for (const char *v : {"0.01x", "1e", "0.1 ", "1,5"})
        EXPECT_FALSE(parseNumber<double>(v)) << v;
}

TEST(ParseNumber, RejectsSignsBlanksAndEmptyText)
{
    for (const char *v : {"-1", "-0", "+8", " 8", ""}) {
        EXPECT_FALSE(parseNumber<unsigned>(v)) << v;
        EXPECT_FALSE(parseNumber<std::uint64_t>(v)) << v;
        EXPECT_FALSE(parseNumber<double>(v)) << v;
    }
}

TEST(ParseNumber, RejectsValuesOutOfRangeForTheTarget)
{
    // 2^32 + 8 used to truncate to 8 through static_cast<unsigned>.
    EXPECT_FALSE(parseNumber<unsigned>("4294967304"));
    EXPECT_EQ(parseNumber<std::uint64_t>("4294967304"), 4294967304u);
    EXPECT_FALSE(parseNumber<std::uint64_t>("18446744073709551616"));
    EXPECT_FALSE(parseNumber<std::uint8_t>("256"));
    for (const char *v : {"1e999", "inf", "nan"})
        EXPECT_FALSE(parseNumber<double>(v)) << v;
}

// Saturating Tick math (the overflow guard of Resource::acquire).

TEST(SaturatingMath, AddSaturatesInsteadOfWrapping)
{
    constexpr std::uint64_t top =
        std::numeric_limits<std::uint64_t>::max();
    EXPECT_EQ(saturatingAdd(1, 2), 3u);
    EXPECT_EQ(saturatingAdd(top, 0), top);
    EXPECT_EQ(saturatingAdd(top, 1), top);
    EXPECT_EQ(saturatingAdd(top - 5, 10), top);
    EXPECT_EQ(saturatingAdd(top / 2, top / 2 + 1), top);
    EXPECT_EQ(saturatingAdd(0, top), top);
}

TEST(SaturatingMath, ResourceAcquireNeverWrapsFreeTime)
{
    constexpr Tick top = std::numeric_limits<Tick>::max();
    Resource r;
    // A malformed huge reservation pins the resource at "never free"
    // instead of wrapping into the past and granting free slots.
    EXPECT_EQ(r.acquire(top - 10, 100), top - 10);
    EXPECT_EQ(r.freeAt(), top);
    // Later acquires queue behind the saturated time, monotonic.
    EXPECT_EQ(r.acquire(0, 5), top);
    EXPECT_EQ(r.freeAt(), top);
    r.reset();
    EXPECT_EQ(r.acquire(10, 5), 10u);
    EXPECT_EQ(r.freeAt(), 15u);
}
