/** @file Tests for the attraction-memory structure. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coma/attraction_memory.hh"
#include "common/rng.hh"

using namespace vcoma;

namespace vcoma
{

/** Reaches the LRU clock, which no config, env or option can. */
struct AttractionMemoryPeer
{
    static void renumber(AttractionMemory &am) { am.renumberStamps(); }
    static std::uint32_t
    clock(const AttractionMemory &am)
    {
        return am.useClock_;
    }
    /** Moves the clock forward; stamps stay in order. */
    static void
    advanceClock(AttractionMemory &am, std::uint32_t to)
    {
        ASSERT_GE(to, am.useClock_);
        am.useClock_ = to;
    }
};

} // namespace vcoma

namespace
{

CacheConfig
smallAm()
{
    // 8 KB, 2-way, 128 B blocks: 32 sets. Same-set stride = 4096.
    return CacheConfig{8192, 2, 128, false, true};
}

} // namespace

TEST(AttractionMemory, InstallAndFind)
{
    AttractionMemory am("am", smallAm());
    const auto v = am.chooseVictim(0x1000);
    EXPECT_EQ(v.kind, VictimKind::Empty);
    am.installAt(v.lineIndex, 0x1000, AmState::MasterShared, 7);
    const AmLine *line = am.find(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->state, AmState::MasterShared);
    EXPECT_EQ(line->version, 7u);
    EXPECT_EQ(am.state(0x1080), AmState::Invalid);  // other block
    // Sub-block addresses resolve to the same line.
    EXPECT_EQ(am.find(0x107F), line);
}

TEST(AttractionMemory, VictimPreferenceInvalidSharedOwned)
{
    AttractionMemory am("am", smallAm());
    // Fill one way with Shared, leave the other Invalid.
    auto v1 = am.chooseVictim(0x0);
    am.installAt(v1.lineIndex, 0x0, AmState::Shared, 0);
    auto v2 = am.chooseVictim(0x1000);  // same set (stride 4096)
    EXPECT_EQ(v2.kind, VictimKind::Empty);
    am.installAt(v2.lineIndex, 0x1000, AmState::Exclusive, 0);
    // Set is full now: Shared preferred over Owned.
    auto v3 = am.chooseVictim(0x2000);
    EXPECT_EQ(v3.kind, VictimKind::Shared);
    EXPECT_EQ(am.line(v3.lineIndex).key, 0x0u);
}

TEST(AttractionMemory, OwnedVictimWhenAllOwned)
{
    AttractionMemory am("am", smallAm());
    auto v1 = am.chooseVictim(0x0);
    am.installAt(v1.lineIndex, 0x0, AmState::Exclusive, 0);
    auto v2 = am.chooseVictim(0x1000);
    am.installAt(v2.lineIndex, 0x1000, AmState::MasterShared, 0);
    am.touchLine(*am.find(0x0));  // 0x1000 becomes the LRU owned block
    auto v3 = am.chooseVictim(0x2000);
    EXPECT_EQ(v3.kind, VictimKind::Owned);
    EXPECT_EQ(am.line(v3.lineIndex).key, 0x1000u);
}

TEST(AttractionMemory, InjectionVictimNeverOwned)
{
    AttractionMemory am("am", smallAm());
    auto v1 = am.chooseVictim(0x0);
    am.installAt(v1.lineIndex, 0x0, AmState::Exclusive, 0);
    auto v2 = am.chooseVictim(0x1000);
    am.installAt(v2.lineIndex, 0x1000, AmState::Exclusive, 0);
    VictimChoice out;
    EXPECT_FALSE(am.chooseInjectionVictim(0x2000, out));
    // Replace one with Shared: injection may now take it.
    am.invalidate(0x1000);
    auto v3 = am.chooseVictim(0x1000);
    am.installAt(v3.lineIndex, 0x1000, AmState::Shared, 0);
    EXPECT_TRUE(am.chooseInjectionVictim(0x2000, out));
    EXPECT_EQ(out.kind, VictimKind::Shared);
}

TEST(AttractionMemory, InvalidateReturnsPriorState)
{
    AttractionMemory am("am", smallAm());
    auto v = am.chooseVictim(0x3000);
    am.installAt(v.lineIndex, 0x3000, AmState::Exclusive, 0);
    EXPECT_EQ(am.invalidate(0x3000), AmState::Exclusive);
    EXPECT_EQ(am.invalidate(0x3000), AmState::Invalid);
    EXPECT_EQ(am.state(0x3000), AmState::Invalid);
}

TEST(AttractionMemory, ValidLinesCount)
{
    AttractionMemory am("am", smallAm());
    EXPECT_EQ(am.validLines(), 0u);
    auto v = am.chooseVictim(0x0);
    am.installAt(v.lineIndex, 0x0, AmState::Shared, 0);
    EXPECT_EQ(am.validLines(), 1u);
    am.invalidate(0x0);
    EXPECT_EQ(am.validLines(), 0u);
}

TEST(AttractionMemory, InstallIntoOccupiedFramePanics)
{
    AttractionMemory am("am", smallAm());
    auto v = am.chooseVictim(0x0);
    am.installAt(v.lineIndex, 0x0, AmState::Shared, 0);
    EXPECT_THROW(am.installAt(v.lineIndex, 0x1000, AmState::Shared, 0),
                 PanicError);
}

TEST(AttractionMemory, StateNames)
{
    EXPECT_STREQ(amStateName(AmState::Invalid), "I");
    EXPECT_STREQ(amStateName(AmState::Shared), "S");
    EXPECT_STREQ(amStateName(AmState::MasterShared), "MS");
    EXPECT_STREQ(amStateName(AmState::Exclusive), "E");
    EXPECT_FALSE(isOwnerState(AmState::Shared));
    EXPECT_TRUE(isOwnerState(AmState::MasterShared));
    EXPECT_TRUE(isOwnerState(AmState::Exclusive));
}

static_assert(sizeof(AmLine) == 16);

TEST(AttractionMemory, TableIsHostLineAligned)
{
    for (unsigned assoc : {1u, 2u, 4u, 8u}) {
        AttractionMemory am("am", CacheConfig{8192, assoc, 128, false, true});
        const auto addr = reinterpret_cast<std::uintptr_t>(&am.line(0));
        EXPECT_EQ(addr % 64, 0u) << "assoc " << assoc;
        EXPECT_EQ(am.numLines(), 8192u / 128);
    }
}

TEST(AttractionMemory, StatesRoundTripAtTopKeys)
{
    const AmState states[] = {AmState::Invalid, AmState::Shared,
                              AmState::MasterShared, AmState::Exclusive};
    const VAddr top = ~VAddr{0} & ~VAddr{127};
    for (AmState st : states) {
        AmLine line;
        line.key = top;
        line.version = ~std::uint32_t{0};
        line.lastUse = AmLine::MaxStamp;
        line.state = st;
        EXPECT_EQ(line.state, st);
        EXPECT_EQ(line.key, top);
        EXPECT_EQ(line.version, ~std::uint32_t{0});
        EXPECT_EQ(line.lastUse, AmLine::MaxStamp);
        line.lastUse = 1;
        EXPECT_EQ(line.state, st);
        EXPECT_EQ(line.valid(), st != AmState::Invalid);
    }

    // Through the AM: the top blocks of the address range, one per
    // valid state, in one set (16 sets: same-set stride 2048).
    AttractionMemory am("am", CacheConfig{8192, 4, 128, false, true});
    for (unsigned i = 1; i < 4; ++i) {
        const VAddr key = top - (i - 1) * 2048;
        const auto v = am.chooseVictim(key);
        ASSERT_EQ(v.kind, VictimKind::Empty);
        am.installAt(v.lineIndex, key + 5, states[i], i);
    }
    for (unsigned i = 1; i < 4; ++i) {
        const VAddr key = top - (i - 1) * 2048;
        const AmLine *line = am.find(key + 127);
        ASSERT_NE(line, nullptr);
        EXPECT_EQ(line->key, key);
        EXPECT_EQ(line->state, states[i]);
        EXPECT_EQ(line->version, i);
        EXPECT_EQ(am.invalidate(key), states[i]);
        EXPECT_EQ(am.state(key), AmState::Invalid);
    }
}

namespace
{

/** The AM's replacement rules over 64-bit stamps that never wrap. */
class ReferenceAm
{
  public:
    ReferenceAm(std::size_t sets, unsigned assoc)
        : assoc_(assoc), lines_(sets * assoc)
    {}

    struct Line
    {
        VAddr key = 0;
        AmState state = AmState::Invalid;
        std::uint64_t lastUse = 0;
    };

    Line &line(std::size_t i) { return lines_[i]; }

    Line *
    find(std::size_t set, VAddr key)
    {
        for (unsigned w = 0; w < assoc_; ++w) {
            Line &l = lines_[set * assoc_ + w];
            if (l.state != AmState::Invalid && l.key == key)
                return &l;
        }
        return nullptr;
    }

    void touch(Line &l) { l.lastUse = ++clock_; }

    VictimChoice
    chooseVictim(std::size_t set) const
    {
        const std::size_t base = set * assoc_;
        const Line *shared = nullptr, *owned = nullptr;
        std::size_t sharedIdx = 0, ownedIdx = 0;
        for (unsigned w = 0; w < assoc_; ++w) {
            const Line &l = lines_[base + w];
            if (l.state == AmState::Invalid)
                return {VictimKind::Empty, base + w};
            if (l.state == AmState::Shared) {
                if (!shared || l.lastUse < shared->lastUse) {
                    shared = &l;
                    sharedIdx = base + w;
                }
            } else if (!owned || l.lastUse < owned->lastUse) {
                owned = &l;
                ownedIdx = base + w;
            }
        }
        if (shared)
            return {VictimKind::Shared, sharedIdx};
        return {VictimKind::Owned, ownedIdx};
    }

  private:
    unsigned assoc_;
    std::vector<Line> lines_;
    std::uint64_t clock_ = 0;
};

/**
 * Drives @p am and a ReferenceAm through one seeded sequence of
 * touches, installs (evicting the chosen victim), invalidations and
 * state changes, comparing every set's chooseVictim and
 * chooseInjectionVictim after each step. @p hook runs before step i.
 */
template <typename Hook>
void
checkLruAgainstReference(AttractionMemory &am, unsigned steps, Hook hook)
{
    const CacheConfig &cfg = am.config();
    const std::size_t sets = cfg.numSets();
    const std::uint64_t sameSet = sets * cfg.blockBytes;
    ReferenceAm ref(sets, cfg.assoc);
    Rng rng(21);
    for (unsigned i = 0; i < steps; ++i) {
        hook(i);
        // Three blocks per frame compete for each set.
        const std::size_t set = rng.below(sets);
        const VAddr key = set * cfg.blockBytes +
                          rng.below(3 * cfg.assoc) * sameSet;
        AmLine *line = am.find(key);
        ReferenceAm::Line *refLine = ref.find(set, key);
        ASSERT_EQ(line != nullptr, refLine != nullptr) << "step " << i;
        const auto op = rng.below(8);
        if (line && op == 0) {
            EXPECT_EQ(am.invalidate(key), refLine->state);
            refLine->state = AmState::Invalid;
        } else if (line && op == 1) {
            line->state = refLine->state = AmState::MasterShared;
        } else if (line) {
            am.touchLine(*line);
            ref.touch(*refLine);
        } else {
            const VictimChoice v = am.chooseVictim(key);
            ASSERT_EQ(v.lineIndex, ref.chooseVictim(set).lineIndex);
            am.line(v.lineIndex).state = AmState::Invalid;
            const AmState st = rng.below(2) ? AmState::Shared
                                            : AmState::Exclusive;
            am.installAt(v.lineIndex, key, st, 0);
            ReferenceAm::Line &fresh = ref.line(v.lineIndex);
            fresh.key = key;
            fresh.state = st;
            ref.touch(fresh);
        }
        for (std::size_t s = 0; s < sets; ++s) {
            const VAddr probe = s * cfg.blockBytes;
            const VictimChoice want = ref.chooseVictim(s);
            const VictimChoice got = am.chooseVictim(probe);
            ASSERT_EQ(got.kind, want.kind) << "step " << i << " set " << s;
            ASSERT_EQ(got.lineIndex, want.lineIndex)
                << "step " << i << " set " << s;
            VictimChoice inj;
            ASSERT_EQ(am.chooseInjectionVictim(probe, inj),
                      want.kind != VictimKind::Owned);
        }
    }
}

} // namespace

TEST(AttractionMemory, RenumberingKeepsLruOrder)
{
    // 8 sets of 4 ways.
    AttractionMemory am("am", CacheConfig{4096, 4, 128, false, true});
    checkLruAgainstReference(am, 4000, [&am](unsigned i) {
        if (i == 2000) {
            AttractionMemoryPeer::renumber(am);
            EXPECT_EQ(AttractionMemoryPeer::clock(am), 4u);
        }
    });
}

TEST(AttractionMemory, StampWrapKeepsLruOrder)
{
    // Every 500 steps the clock jumps to 20 below the stamp limit, so
    // the wrap renumbers the sets eight times.
    AttractionMemory am("am", CacheConfig{2048, 2, 128, false, true});
    unsigned wraps = 0;
    std::uint32_t last = 0;
    checkLruAgainstReference(am, 4000, [&](unsigned i) {
        const std::uint32_t now = AttractionMemoryPeer::clock(am);
        wraps += now < last;
        if (i % 500 == 250)
            AttractionMemoryPeer::advanceClock(am, AmLine::MaxStamp - 20);
        last = AttractionMemoryPeer::clock(am);
    });
    EXPECT_EQ(wraps, 8u);
}
