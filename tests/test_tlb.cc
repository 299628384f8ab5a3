/** @file Unit and property tests for the TLB/DLB model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "tlb/flat_index.hh"
#include "tlb/shadow_bank.hh"
#include "tlb/tlb.hh"

using namespace vcoma;

TEST(Tlb, MissThenHit)
{
    Tlb tlb(8, 0, 1);
    EXPECT_FALSE(tlb.access(100));
    EXPECT_TRUE(tlb.access(100));
    EXPECT_EQ(tlb.demandMisses.value(), 1u);
    EXPECT_EQ(tlb.demandAccesses.value(), 2u);
}

TEST(Tlb, WritebackClassCountedSeparately)
{
    Tlb tlb(8, 0, 1);
    tlb.access(1, StreamClass::Writeback);
    tlb.access(2, StreamClass::Demand);
    EXPECT_EQ(tlb.writebackAccesses.value(), 1u);
    EXPECT_EQ(tlb.writebackMisses.value(), 1u);
    EXPECT_EQ(tlb.demandAccesses.value(), 1u);
    // A write-back fill serves later demand accesses.
    EXPECT_TRUE(tlb.access(1, StreamClass::Demand));
}

TEST(Tlb, FullyAssociativeHoldsWorkingSet)
{
    Tlb tlb(16, 0, 7);
    for (int sweep = 0; sweep < 20; ++sweep) {
        for (PageNum p = 0; p < 16; ++p)
            tlb.access(p);
    }
    // Only cold misses: the working set fits.
    EXPECT_EQ(tlb.demandMisses.value(), 16u);
}

TEST(Tlb, DirectMappedConflictsThrash)
{
    Tlb tlb(16, 1, 7);
    // Two pages with the same low bits conflict in a 16-set DM TLB.
    for (int i = 0; i < 100; ++i) {
        tlb.access(0);
        tlb.access(16);
    }
    EXPECT_EQ(tlb.demandMisses.value(), 200u);
}

TEST(Tlb, DirectMappedDistinctSetsNoConflicts)
{
    Tlb tlb(16, 1, 7);
    for (int sweep = 0; sweep < 10; ++sweep) {
        for (PageNum p = 0; p < 16; ++p)
            tlb.access(p);
    }
    EXPECT_EQ(tlb.demandMisses.value(), 16u);
}

TEST(Tlb, SetAssociativeGeometry)
{
    Tlb tlb(16, 4, 3);
    EXPECT_EQ(tlb.organisation(), "4way");
    // 4 sets x 4 ways: 4 pages mapping to set 0 all fit.
    for (int sweep = 0; sweep < 5; ++sweep) {
        for (PageNum p = 0; p < 16; p += 4)
            tlb.access(p);
    }
    EXPECT_EQ(tlb.demandMisses.value(), 4u);
}

TEST(Tlb, InvalidateDropsEntry)
{
    Tlb fa(8, 0, 1);
    fa.access(5);
    EXPECT_TRUE(fa.invalidate(5));
    EXPECT_FALSE(fa.contains(5));
    EXPECT_FALSE(fa.invalidate(5));

    Tlb dm(8, 1, 1);
    dm.access(5);
    EXPECT_TRUE(dm.invalidate(5));
    EXPECT_FALSE(dm.contains(5));
}

TEST(Tlb, FlushDropsAll)
{
    Tlb tlb(8, 0, 1);
    for (PageNum p = 0; p < 8; ++p)
        tlb.access(p);
    tlb.flush();
    for (PageNum p = 0; p < 8; ++p)
        EXPECT_FALSE(tlb.contains(p));
}

TEST(Tlb, RejectsBadGeometry)
{
    EXPECT_THROW(Tlb(10, 4, 1), FatalError);   // not divisible
    EXPECT_THROW(Tlb(24, 2, 1), FatalError);   // 12 sets: not pow2
    // 0 entries is legal: software-managed translation.
    EXPECT_NO_THROW(Tlb(0, 0, 1));
}

TEST(Tlb, OrganisationNames)
{
    EXPECT_EQ(Tlb(8, 0, 1).organisation(), "FA");
    EXPECT_EQ(Tlb(8, 1, 1).organisation(), "DM");
    EXPECT_EQ(Tlb(8, 2, 1).organisation(), "2way");
}

/**
 * A fully associative Tlb against a std::set presence model, on keys
 * that collide in its flat index: every key's home is one of the last
 * two or first two slots, so probe runs wrap around the table and
 * invalidation's backward shift moves entries across the wrap.
 */
TEST(Tlb, FullyAssociativeCollidingKeysMatchSetModel)
{
    const unsigned entries = 8;
    // An index built for the same entry count has the Tlb's geometry.
    const FlatIndex<unsigned> geometry(entries);
    const std::size_t cap = geometry.capacity();
    std::vector<PageNum> pool;
    for (PageNum k = 0; pool.size() < 24; ++k) {
        const std::size_t h = geometry.homeOf(k);
        if (h + 2 >= cap || h < 2)
            pool.push_back(k);
    }

    Tlb tlb(entries, 0, 9);
    std::set<PageNum> model;
    auto expectSame = [&](const std::string &when) {
        for (PageNum k : pool)
            ASSERT_EQ(tlb.contains(k), model.count(k) != 0)
                << when << ": vpn " << k;
        std::set<PageNum> held;
        tlb.forEachEntry([&](PageNum vpn) { held.insert(vpn); });
        ASSERT_EQ(held, model) << when;
    };
    auto access = [&](PageNum vpn) {
        PageNum evicted = Tlb::noVpn;
        const bool hit = tlb.access(vpn, StreamClass::Demand, &evicted);
        EXPECT_EQ(hit, model.count(vpn) != 0);
        if (evicted != Tlb::noVpn)
            model.erase(evicted);
        model.insert(vpn);
    };
    auto invalidate = [&](PageNum vpn) {
        EXPECT_EQ(tlb.invalidate(vpn), model.erase(vpn) != 0);
    };

    for (std::size_t i = 0; i < entries; ++i)
        access(pool[i]);
    ASSERT_NO_FATAL_FAILURE(expectSame("filled"));
    // Drop two entries of the crowded region (the second one twice:
    // the repeat must report a miss), then refill.
    invalidate(pool[0]);
    ASSERT_NO_FATAL_FAILURE(expectSame("first invalidated"));
    invalidate(pool[3]);
    invalidate(pool[3]);
    ASSERT_NO_FATAL_FAILURE(expectSame("second invalidated"));
    access(pool[8]);
    access(pool[9]);
    access(pool[0]);
    ASSERT_NO_FATAL_FAILURE(expectSame("refilled"));

    Rng rng(77);
    for (int i = 0; i < 20000; ++i) {
        const PageNum vpn = pool[rng.below(pool.size())];
        if (rng.below(3) == 0)
            invalidate(vpn);
        else
            access(vpn);
        ASSERT_NO_FATAL_FAILURE(expectSame("step " + std::to_string(i)));
    }

    tlb.flush();
    model.clear();
    ASSERT_NO_FATAL_FAILURE(expectSame("flushed"));
    for (std::size_t i = 0; i < pool.size(); ++i)
        access(pool[i]);
    ASSERT_NO_FATAL_FAILURE(expectSame("refilled after flush"));
}

TEST(Tlb, RepeatedVpnIsAHit)
{
    for (const unsigned assoc : {0u, 1u, 4u}) {
        SCOPED_TRACE(assoc);
        Tlb tlb(8, assoc, 1);
        EXPECT_FALSE(tlb.access(5));
        EXPECT_TRUE(tlb.access(5));
        EXPECT_TRUE(tlb.access(5, StreamClass::Writeback));
        PageNum evicted = 0;
        EXPECT_TRUE(tlb.access(5, StreamClass::Demand, &evicted));
        EXPECT_EQ(evicted, Tlb::noVpn);
        EXPECT_EQ(tlb.demandAccesses.value(), 3u);
        EXPECT_EQ(tlb.demandMisses.value(), 1u);
        EXPECT_EQ(tlb.writebackAccesses.value(), 1u);
        EXPECT_EQ(tlb.writebackMisses.value(), 0u);
    }
}

TEST(Tlb, InvalidateOrFlushOfTheLastVpnForcesAMiss)
{
    for (const unsigned assoc : {0u, 1u, 4u}) {
        SCOPED_TRACE(assoc);
        Tlb tlb(8, assoc, 1);
        tlb.access(5);
        EXPECT_TRUE(tlb.invalidate(5));
        EXPECT_FALSE(tlb.access(5));
        tlb.flush();
        EXPECT_FALSE(tlb.access(5));
        EXPECT_EQ(tlb.demandMisses.value(), 3u);
        // Invalidating another page leaves the repeat a hit.
        tlb.access(6);
        tlb.access(5);
        EXPECT_TRUE(tlb.invalidate(6));
        EXPECT_TRUE(tlb.access(5));
    }
}

TEST(Tlb, ZeroEntriesMissOnARepeat)
{
    Tlb tlb(0, 0, 1);
    EXPECT_FALSE(tlb.access(5));
    EXPECT_FALSE(tlb.access(5));
    EXPECT_EQ(tlb.demandMisses.value(), 2u);
    EXPECT_FALSE(tlb.contains(5));
}

/** An index built for no keys still has a real, empty table. */
TEST(FlatIndex, EmptyIndexHasMinimumTable)
{
    const FlatIndex<unsigned> index(0);
    EXPECT_EQ(index.capacity(), 8u);
    EXPECT_EQ(index.find(0), nullptr);
    EXPECT_EQ(index.find(12345), nullptr);
    EXPECT_LT(index.homeOf(12345), index.capacity());
}

// ---------------------------------------------------------------------
// Property tests.
// ---------------------------------------------------------------------

struct TlbParam
{
    unsigned entries;
    unsigned assoc;
};

class TlbProperty : public ::testing::TestWithParam<TlbParam>
{
};

/** Occupancy: at most 'entries' pages resident at once. */
TEST_P(TlbProperty, OccupancyBounded)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(entries, assoc, 3);
    Rng rng(17);
    for (int i = 0; i < 10000; ++i)
        tlb.access(rng.below(10000));
    unsigned resident = 0;
    for (PageNum p = 0; p < 10000; ++p) {
        if (tlb.contains(p))
            ++resident;
    }
    EXPECT_LE(resident, entries);
}

/** An access always leaves the page resident. */
TEST_P(TlbProperty, AccessedPageIsResident)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(entries, assoc, 3);
    Rng rng(23);
    for (int i = 0; i < 5000; ++i) {
        const PageNum p = rng.below(512);
        tlb.access(p);
        ASSERT_TRUE(tlb.contains(p));
    }
}

/** Larger TLBs of the same organisation never miss more. */
TEST_P(TlbProperty, MonotoneInSize)
{
    const auto [entries, assoc] = GetParam();
    if (assoc > 1)
        GTEST_SKIP() << "monotonicity only guaranteed FA/DM here";
    Tlb small(entries, assoc, 3);
    Tlb big(entries * 4, assoc, 3);
    Rng rng(31);
    // A looping working set (no randomness in the stream).
    for (int i = 0; i < 20000; ++i) {
        const PageNum p = (i * 7) % (entries * 2);
        small.access(p);
        big.access(p);
    }
    EXPECT_LE(big.misses(), small.misses());
}

namespace
{

/**
 * Tlb's replacement policy written out without the repeat memo or the
 * flat index: a linear scan decides every access.
 */
class ReferenceTlb
{
  public:
    ReferenceTlb(unsigned entries, unsigned assoc, std::uint64_t seed)
        : entries_(entries), assoc_(assoc), rng_(seed)
    {
        flush();
    }

    bool
    access(PageNum vpn, PageNum &evicted)
    {
        evicted = Tlb::noVpn;
        if (contains(vpn))
            return true;
        if (assoc_ == 0) {
            unsigned slot;
            if (!free_.empty()) {
                slot = free_.back();
                free_.pop_back();
            } else {
                slot = static_cast<unsigned>(rng_.below(entries_));
                evicted = slots_[slot];
            }
            slots_[slot] = vpn;
            return false;
        }
        PageNum *const set = &slots_[setBase(vpn)];
        for (unsigned w = 0; w < assoc_; ++w) {
            if (set[w] == Tlb::noVpn) {
                set[w] = vpn;
                return false;
            }
        }
        const unsigned victim = static_cast<unsigned>(rng_.below(assoc_));
        evicted = set[victim];
        set[victim] = vpn;
        return false;
    }

    bool
    invalidate(PageNum vpn)
    {
        const std::size_t i = find(vpn);
        if (i == slots_.size())
            return false;
        slots_[i] = Tlb::noVpn;
        if (assoc_ == 0)
            free_.push_back(static_cast<unsigned>(i));
        return true;
    }

    bool contains(PageNum vpn) const { return find(vpn) != slots_.size(); }

    void
    flush()
    {
        slots_.assign(entries_, Tlb::noVpn);
        free_.clear();
        if (assoc_ == 0) {
            for (unsigned i = 0; i < entries_; ++i)
                free_.push_back(entries_ - 1 - i);
        }
    }

  private:
    /** First slot of @p vpn's set (0 when fully associative). */
    std::size_t
    setBase(PageNum vpn) const
    {
        if (assoc_ == 0)
            return 0;
        const unsigned sets = entries_ / assoc_;
        return static_cast<std::size_t>(vpn & (sets - 1)) * assoc_;
    }

    /** Slot holding @p vpn, or slots_.size(). */
    std::size_t
    find(PageNum vpn) const
    {
        const std::size_t base = setBase(vpn);
        const std::size_t ways = assoc_ == 0 ? entries_ : assoc_;
        for (std::size_t i = base; i < base + ways; ++i) {
            if (slots_[i] == vpn)
                return i;
        }
        return slots_.size();
    }

    unsigned entries_;
    unsigned assoc_;
    Rng rng_;
    std::vector<PageNum> slots_;
    std::vector<unsigned> free_;
};

} // namespace

/**
 * The repeat memo is invisible: on random streams full of repeats,
 * with invalidations (often of the last vpn) and flushes interleaved,
 * every hit, eviction and presence answer matches a memo-free model.
 */
TEST_P(TlbProperty, RepeatMemoMatchesAMemoFreeModel)
{
    const auto [entries, assoc] = GetParam();
    Tlb tlb(entries, assoc, 41);
    ReferenceTlb model(entries, assoc, 41);
    const PageNum pool = entries * 2;
    Rng rng(43);
    PageNum last = 0;
    for (int i = 0; i < 20000; ++i) {
        const PageNum vpn = rng.below(2) ? last : rng.below(pool);
        switch (rng.below(16)) {
          case 0:
          case 1:
          case 2:
            ASSERT_EQ(tlb.invalidate(vpn), model.invalidate(vpn))
                << "step " << i;
            break;
          case 3:
            if (rng.below(64) == 0) {
                tlb.flush();
                model.flush();
            }
            break;
          default: {
            PageNum gotEvicted = 0, wantEvicted = 0;
            const bool want = model.access(vpn, wantEvicted);
            ASSERT_EQ(tlb.access(vpn, StreamClass::Demand, &gotEvicted),
                      want)
                << "step " << i;
            ASSERT_EQ(gotEvicted, wantEvicted) << "step " << i;
            last = vpn;
          }
        }
    }
    for (PageNum p = 0; p < pool; ++p)
        EXPECT_EQ(tlb.contains(p), model.contains(p)) << "vpn " << p;
}

INSTANTIATE_TEST_SUITE_P(
    Organisations, TlbProperty,
    ::testing::Values(TlbParam{8, 0}, TlbParam{8, 1}, TlbParam{32, 0},
                      TlbParam{32, 1}, TlbParam{64, 2}, TlbParam{128, 0},
                      TlbParam{128, 1}, TlbParam{512, 0}));

// ---------------------------------------------------------------------
// Shadow banks.
// ---------------------------------------------------------------------

TEST(ShadowBank, HasEverySizeInBothOrganisations)
{
    ShadowBank bank(1);
    for (unsigned size : shadowSizes()) {
        EXPECT_TRUE(bank.find(size, 0).has_value());
        EXPECT_TRUE(bank.find(size, 1).has_value());
    }
    EXPECT_FALSE(bank.find(9999, 0).has_value());
    EXPECT_FALSE(bank.find(8, 2).has_value());
}

TEST(ShadowBank, FeedsAllMembers)
{
    ShadowBank bank(1);
    bank.access(42);
    bank.access(42);
    for (unsigned size : shadowSizes()) {
        for (unsigned assoc : {0u, 1u}) {
            const auto member = bank.find(size, assoc);
            ASSERT_TRUE(member.has_value());
            EXPECT_EQ(member->demandAccesses, 2u);
            EXPECT_EQ(member->demandMisses, 1u);
        }
    }
}

TEST(ShadowBank, SumAcrossBanks)
{
    std::vector<ShadowBank> banks;
    banks.emplace_back(1);
    banks.emplace_back(2);
    banks[0].access(1);
    banks[1].access(1);
    banks[1].access(2, StreamClass::Writeback);
    const ShadowTotals t = sumShadow(banks, 8, 0);
    EXPECT_EQ(t.demandAccesses, 2u);
    EXPECT_EQ(t.demandMisses, 2u);
    EXPECT_EQ(t.writebackMisses, 1u);
    EXPECT_EQ(t.misses(), 3u);
}

/** Bigger fully associative shadow members never miss more. */
TEST(ShadowBank, SizeMonotonicityOnLoopingStream)
{
    ShadowBank bank(5);
    for (int i = 0; i < 30000; ++i)
        bank.access((i * 13) % 300);
    std::uint64_t prev = ~std::uint64_t{0};
    for (unsigned size : shadowSizes()) {
        const auto member = bank.find(size, 0);
        EXPECT_LE(member->misses(), prev) << "size " << size;
        prev = member->misses();
    }
}

namespace
{

/**
 * A stream of @p n references over @p pages distinct vpns: mostly a
 * hot set of @p hot pages, the rest uniform over all of them, one in
 * four tagged as write-back traffic.
 */
std::vector<std::pair<PageNum, StreamClass>>
mixedStream(std::size_t n, PageNum hot, PageNum pages, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<PageNum, StreamClass>> refs;
    refs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const PageNum vpn =
            rng.below(10) < 7 ? rng.below(hot) : rng.below(pages);
        const StreamClass cls = rng.below(4) == 0 ? StreamClass::Writeback
                                                  : StreamClass::Demand;
        refs.emplace_back(vpn, cls);
    }
    return refs;
}

/**
 * @p base with each access repeated 1 to 8 times in a row, every
 * repeat drawing its own stream class: the repeat fast path's load.
 */
std::vector<std::pair<PageNum, StreamClass>>
repeatedStream(const std::vector<std::pair<PageNum, StreamClass>> &base,
               std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::pair<PageNum, StreamClass>> refs;
    for (const auto &[vpn, cls] : base) {
        refs.emplace_back(vpn, cls);
        for (auto n = rng.below(8); n > 0; --n) {
            refs.emplace_back(vpn, rng.below(4) == 0
                                       ? StreamClass::Writeback
                                       : StreamClass::Demand);
        }
    }
    return refs;
}

/** The vpns @p visit reports, sorted. */
std::vector<PageNum>
sortedContents(const std::function<void(const std::function<void(PageNum)> &)>
                   &visit)
{
    std::vector<PageNum> out;
    visit([&](PageNum vpn) { out.push_back(vpn); });
    std::sort(out.begin(), out.end());
    return out;
}

} // namespace

/**
 * Reference model: a bank must count exactly as 14 standalone Tlbs
 * seeded seed + 31 * n (n = 1, 2, ... in FA, DM order per size) fed
 * the same stream. The small stream evicts in the small FA members;
 * the wide one runs random replacement in every size up to 512.
 */
TEST(ShadowBank, MatchesStandaloneTlbsPerMember)
{
    const std::uint64_t seed = 0x5eed;
    const std::vector<std::vector<std::pair<PageNum, StreamClass>>>
        streams{mixedStream(200000, 24, 96, 11),
                mixedStream(200000, 700, 1 << 16, 12),
                repeatedStream(mixedStream(40000, 700, 1 << 16, 13), 14)};
    for (unsigned shift : {0u, 5u}) {
        for (std::size_t si = 0; si < streams.size(); ++si) {
            ShadowBank bank(seed, shadowSizes(), shift);
            std::vector<Tlb> ref;
            std::uint64_t n = 0;
            for (unsigned size : shadowSizes()) {
                ref.emplace_back(size, 0, seed + 31 * ++n, shift);
                ref.emplace_back(size, 1, seed + 31 * ++n, shift);
            }
            for (const auto &[vpn, cls] : streams[si]) {
                bank.access(vpn, cls);
                for (Tlb &tlb : ref)
                    tlb.access(vpn, cls);
            }
            for (const Tlb &tlb : ref) {
                const auto member = bank.find(tlb.entries(), tlb.assoc());
                ASSERT_TRUE(member.has_value());
                const std::string where =
                    "shift " + std::to_string(shift) + ", stream " +
                    std::to_string(si) + ", " +
                    std::to_string(tlb.entries()) + " " +
                    tlb.organisation();
                EXPECT_EQ(member->demandAccesses,
                          tlb.demandAccesses.value()) << where;
                EXPECT_EQ(member->demandMisses, tlb.demandMisses.value())
                    << where;
                EXPECT_EQ(member->writebackAccesses,
                          tlb.writebackAccesses.value()) << where;
                EXPECT_EQ(member->writebackMisses,
                          tlb.writebackMisses.value()) << where;
            }
            // The wide streams must have run replacement in every size.
            if (si != 0) {
                const auto big = bank.find(512, 0);
                EXPECT_GT(big->misses(), 512u + 1000u);
            }
        }
    }
}

/**
 * A lanes() bank is the configured TLB at its sibling sizes: every
 * member on the one shared seed must count, shoot down and hold
 * exactly what a standalone Tlb(entries, assoc, seed, shift) fed the
 * same accesses and invalidations does, in both organisations. The
 * invalidations land between repeats, so the repeat fast path must
 * notice them.
 */
TEST(ShadowBank, LanesMatchStandaloneTlbsUnderInvalidation)
{
    const std::uint64_t seed = 0x1a7e;
    const std::vector<unsigned> sizes{8, 16, 64, 128, 256, 512};
    const auto stream =
        repeatedStream(mixedStream(30000, 40, 4096, 21), 22);
    for (unsigned assoc : {0u, 1u}) {
        for (unsigned shift : {0u, 5u}) {
            ShadowBank bank = ShadowBank::lanes(seed, sizes, assoc, shift);
            std::vector<Tlb> ref;
            for (unsigned size : sizes)
                ref.emplace_back(size, assoc, seed, shift);
            Rng rng(23);
            std::uint64_t dropped = 0;
            for (const auto &[vpn, cls] : stream) {
                bank.access(vpn, cls);
                for (Tlb &tlb : ref)
                    tlb.access(vpn, cls);
                if (rng.below(16) != 0)
                    continue;
                // Shoot down the page just touched half the time (the
                // repeat path's vpn), else a random hot or cold one.
                const PageNum victim =
                    rng.below(2) ? vpn
                                 : (rng.below(2) ? rng.below(40)
                                                 : rng.below(4096));
                const std::uint32_t held = bank.invalidate(victim);
                for (std::size_t k = 0; k < ref.size(); ++k) {
                    EXPECT_EQ((held >> k) & 1, ref[k].invalidate(victim)
                                                   ? 1u : 0u)
                        << sizes[k] << " entries, assoc " << assoc;
                }
                dropped += std::popcount(held);
            }
            EXPECT_GT(dropped, 1000u);
            for (std::size_t k = 0; k < ref.size(); ++k) {
                const Tlb &tlb = ref[k];
                const std::string where =
                    "shift " + std::to_string(shift) + ", " +
                    std::to_string(tlb.entries()) + " " + tlb.organisation();
                const auto member = bank.find(tlb.entries(), assoc);
                ASSERT_TRUE(member.has_value()) << where;
                EXPECT_EQ(member->demandAccesses,
                          tlb.demandAccesses.value()) << where;
                EXPECT_EQ(member->demandMisses, tlb.demandMisses.value())
                    << where;
                EXPECT_EQ(member->writebackAccesses,
                          tlb.writebackAccesses.value()) << where;
                EXPECT_EQ(member->writebackMisses,
                          tlb.writebackMisses.value()) << where;
                const auto mine = sortedContents([&](const auto &fn) {
                    bank.forEachEntry([&](unsigned entries, PageNum vpn) {
                        if (entries == tlb.entries())
                            fn(vpn);
                    });
                });
                EXPECT_EQ(mine, sortedContents([&](const auto &fn) {
                              tlb.forEachEntry(fn);
                          }))
                    << where;
            }
            EXPECT_FALSE(bank.find(32, assoc).has_value())
                << "a lane bank holds only its own sizes";
            EXPECT_FALSE(bank.find(8, 1 - assoc).has_value())
                << "a lane bank holds only its own organisation";
        }
    }
}

// ---------------------------------------------------------------------
// Index shift: the DLB set-indexing fix of Figure 6.
// ---------------------------------------------------------------------

/**
 * A home-node DLB only ever sees vpns whose low p bits equal the home
 * id. Without an index shift, a direct-mapped DLB would map them all
 * to one set; with the Figure 6 indexing (skip the p home bits) they
 * spread across the sets.
 */
TEST(TlbIndexShift, DirectMappedDlbSpreadsHomeLocalPages)
{
    const unsigned homeBits = 5;  // 32 nodes
    Tlb naive(8, 1, 3, 0);
    Tlb shifted(8, 1, 3, homeBits);
    // Pages of home 7: vpn = 7, 39, 71, ... (vpn mod 32 == 7).
    for (int sweep = 0; sweep < 10; ++sweep) {
        for (PageNum i = 0; i < 8; ++i) {
            naive.access(7 + 32 * i);
            shifted.access(7 + 32 * i);
        }
    }
    // Naive: all 8 pages fight over one set -> misses every time.
    EXPECT_EQ(naive.demandMisses.value(), 80u);
    // Shifted: each page gets its own set -> cold misses only.
    EXPECT_EQ(shifted.demandMisses.value(), 8u);
}

TEST(TlbIndexShift, InvalidateAndContainsHonourShift)
{
    Tlb tlb(8, 1, 3, 5);
    tlb.access(7 + 32 * 3);
    EXPECT_TRUE(tlb.contains(7 + 32 * 3));
    EXPECT_TRUE(tlb.invalidate(7 + 32 * 3));
    EXPECT_FALSE(tlb.contains(7 + 32 * 3));
}

TEST(TlbIndexShift, FullyAssociativeUnaffected)
{
    Tlb a(8, 0, 3, 0);
    Tlb b(8, 0, 3, 5);
    for (PageNum i = 0; i < 100; ++i) {
        a.access(i * 32 + 7);
        b.access(i * 32 + 7);
    }
    EXPECT_EQ(a.misses(), b.misses());
}
