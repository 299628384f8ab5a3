/**
 * @file
 * The attraction memory: the COMA "main memory" that behaves as a
 * large set-associative cache (4 MB, 4-way, 128 B blocks in the
 * baseline). Blocks migrate and replicate among nodes under the
 * COMA-F protocol; each resident block carries one of the four stable
 * states of Section 4.2.
 *
 * Like the Cache model this structure is address-space agnostic: the
 * physical schemes index it with physical addresses, L3-TLB and
 * V-COMA with virtual addresses (page colouring makes both index to
 * the same sets in L3, Figure 4).
 */

#ifndef VCOMA_COMA_ATTRACTION_MEMORY_HH
#define VCOMA_COMA_ATTRACTION_MEMORY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace vcoma
{

/** Stable block states of the COMA-F write-invalidate protocol. */
enum class AmState : std::uint8_t
{
    Invalid,
    Shared,        ///< read-only copy; another node is master
    MasterShared,  ///< the distinguished (last-copy) read-only copy
    Exclusive,     ///< sole, writable copy
};

/** True for the states whose copy must never be silently dropped. */
inline bool
isOwnerState(AmState s)
{
    return s == AmState::MasterShared || s == AmState::Exclusive;
}

/** Short state name for traces. */
const char *amStateName(AmState s);

/**
 * One attraction-memory block frame: 16 bytes, so a 4-way set is one
 * 64-byte host cache line (the table is 64-byte aligned). The state
 * and the LRU stamp share the last word.
 */
struct alignas(16) AmLine
{
    /** Width of the LRU stamp; see AttractionMemory::renumberStamps. */
    static constexpr unsigned StampBits = 30;
    static constexpr std::uint32_t MaxStamp = (1u << StampBits) - 1;

    /** Block-aligned address in this AM's indexing space. */
    VAddr key = 0;
    /** Write version for coherence self-checking. */
    std::uint32_t version = 0;
    AmState state : 2 = AmState::Invalid;
    /** LRU stamp; only compared within one set. */
    std::uint32_t lastUse : StampBits = 0;

    bool valid() const { return state != AmState::Invalid; }
};

static_assert(sizeof(AmLine) == 16, "an AM line is a quarter host line");

/** What kind of frame a victim search found. */
enum class VictimKind : std::uint8_t
{
    Empty,   ///< an Invalid frame: free to use
    Shared,  ///< a Shared (non-master) copy: droppable with notice
    Owned,   ///< MasterShared/Exclusive: must be injected elsewhere
};

/** Result of a victim search in one set. */
struct VictimChoice
{
    VictimKind kind = VictimKind::Empty;
    /** Global line index (set * assoc + way). */
    std::size_t lineIndex = 0;
};

/** Per-node attraction memory. */
class AttractionMemory
{
  public:
    AttractionMemory(std::string name, const CacheConfig &cfg);
    /** lines_ points into storage_. */
    AttractionMemory(const AttractionMemory &) = delete;
    AttractionMemory &operator=(const AttractionMemory &) = delete;

    /** Find the line holding block @p addr, or nullptr. */
    AmLine *find(VAddr addr);
    const AmLine *find(VAddr addr) const;

    /** State of block @p addr (Invalid if absent). */
    AmState state(VAddr addr) const;

    /**
     * Update LRU for a line the caller already resolved (find()
     * returned it).
     */
    void touchLine(AmLine &line) { line.lastUse = nextStamp(); }

    /**
     * Pick a victim frame in the set of @p addr, preferring Invalid
     * frames, then the LRU Shared copy, then the LRU owned copy.
     */
    VictimChoice chooseVictim(VAddr addr) const;

    /**
     * Like chooseVictim but never selects an owned frame: returns
     * false if the set holds only owned blocks. Used by the injection
     * protocol, which may only consume Invalid or Shared frames.
     */
    bool chooseInjectionVictim(VAddr addr, VictimChoice &out) const;

    /**
     * Install block @p addr into frame @p lineIndex (which the caller
     * has victimised via chooseVictim and resolved).
     */
    AmLine &installAt(std::size_t lineIndex, VAddr addr, AmState st,
                      std::uint32_t version);

    /** Invalidate block @p addr if present. @return prior state. */
    AmState invalidate(VAddr addr);

    /** Access a line by global index. */
    AmLine &
    line(std::size_t index)
    {
        VCOMA_ASSERT(index < numLines_);
        return lines_[index];
    }
    const AmLine &
    line(std::size_t index) const
    {
        return const_cast<AttractionMemory *>(this)->line(index);
    }

    /** Total line frames (sets * assoc). */
    std::size_t numLines() const { return numLines_; }

    /** Set index of @p addr. */
    std::uint64_t setOf(VAddr addr) const;

    /** Block-aligned address. */
    VAddr
    blockAlign(VAddr addr) const
    {
        return addr & ~static_cast<VAddr>(cfg_.blockBytes - 1);
    }

    const CacheConfig &config() const { return cfg_; }

    /** Number of valid lines (occupancy; replication included). */
    std::uint64_t validLines() const;

    /** @{ @name Statistics */
    Counter hits;
    Counter misses;
    Counter installs;
    Counter invalidations;
    Counter sharedDrops;   ///< Shared victims silently replaced
    /** @} */

    /** Register the counters on @p g as <prefix>hits etc. */
    void
    addStats(StatGroup &g, const std::string &prefix) const
    {
        g.addCounter(prefix + "hits", hits);
        g.addCounter(prefix + "misses", misses);
        g.addCounter(prefix + "installs", installs);
        g.addCounter(prefix + "invalidations", invalidations);
        g.addCounter(prefix + "sharedDrops", sharedDrops);
    }

  private:
    /** The next LRU stamp, renumbering first if the clock is full. */
    std::uint32_t
    nextStamp()
    {
        if (useClock_ == AmLine::MaxStamp)
            renumberStamps();
        return ++useClock_;
    }

    /**
     * Renumber each set's stamps 1..assoc in their current order and
     * restart the clock above them. Stamps are only compared within a
     * set, so no later victim choice changes.
     */
    void renumberStamps();

    /** Lets tests force a renumbering and move the clock. */
    friend struct AttractionMemoryPeer;

    std::string name_;
    CacheConfig cfg_;
    unsigned blockBits_;
    unsigned setBits_;
    std::size_t numLines_;
    /**
     * The line table: storage_ from its first 64-byte boundary on.
     * (An aligned operator new for the same bytes raised paper-grid
     * peak RSS by 4.5 MB.)
     */
    std::vector<AmLine> storage_;
    AmLine *lines_;
    std::uint32_t useClock_ = 0;
};

} // namespace vcoma

#endif // VCOMA_COMA_ATTRACTION_MEMORY_HH
