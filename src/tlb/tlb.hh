/**
 * @file
 * The translation-structure model shared by all five schemes: a TLB
 * when private to a node (L0..L3) and a DLB (Directory Lookaside
 * Buffer) when placed at the home node inside the coherence protocol
 * (V-COMA, Section 4.2).
 *
 * The paper uses random replacement for fully associative TLB/DLBs
 * (Section 5.1) and also evaluates direct-mapped organisations
 * (Figure 9); both are supported, as is the general set-associative
 * case with random victim selection within a set.
 *
 * The structure maps virtual page numbers; the payload (physical page
 * number vs directory-page base address) is irrelevant to miss
 * behaviour, so the model tracks presence only.
 */

#ifndef VCOMA_TLB_TLB_HH
#define VCOMA_TLB_TLB_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "tlb/flat_index.hh"

namespace vcoma
{

/**
 * TLB/DLB presence model with per-stream-class miss accounting.
 */
class Tlb
{
  public:
    /**
     * @param entries total entry count; 0 models software-managed
     *                translation (every access misses/traps)
     * @param assoc   associativity; 0 = fully associative
     * @param seed    seed for the random-replacement stream
     * @param indexShift low vpn bits to skip when selecting the set.
     *        A DLB at a V-COMA home only ever sees pages whose low p
     *        vpn bits equal the home id (Figure 6), so the set index
     *        must come from the bits above them.
     */
    Tlb(unsigned entries, unsigned assoc, std::uint64_t seed,
        unsigned indexShift = 0);

    /**
     * Look up @p vpn, fill on miss.
     * @param cls whether this is a demand access or a write-back /
     *            injection access (Section 2.2.2's poor-locality
     *            stream).
     * @param evictedOut when non-null, receives the vpn the fill
     *            displaced (or noVpn when nothing was evicted), so
     *            callers holding per-entry metadata can retire it.
     * @return true on hit.
     */
    bool access(PageNum vpn, StreamClass cls = StreamClass::Demand,
                PageNum *evictedOut = nullptr);

    /** Presence probe without statistics or replacement effects. */
    bool contains(PageNum vpn) const;

    /**
     * Invalidate the entry mapping @p vpn (TLB shoot-down, page
     * demap).
     * @return true if an entry was dropped.
     */
    bool invalidate(PageNum vpn);

    /** Drop all entries (context switch / full shoot-down). */
    void flush();

    /**
     * Visit the vpn of every cached entry (invariant checking).
     * Order is unspecified; the structure is not modified.
     */
    void forEachEntry(const std::function<void(PageNum)> &fn) const;

    unsigned entries() const { return entries_; }
    unsigned assoc() const { return assoc_; }

    /** "FA", "DM" or "<k>way" as used in figure labels. */
    std::string organisation() const;

    /** @{ @name Statistics */
    Counter demandAccesses;
    Counter demandMisses;
    Counter writebackAccesses;
    Counter writebackMisses;
    /** @} */

    std::uint64_t
    accesses() const
    {
        return demandAccesses.value() + writebackAccesses.value();
    }

    std::uint64_t
    misses() const
    {
        return demandMisses.value() + writebackMisses.value();
    }

    /** Register the counters on @p g as <prefix>demandAccesses etc. */
    void addStats(StatGroup &g, const std::string &prefix) const;

    /** Sentinel "no page" value (also the empty-slot tag). */
    static constexpr PageNum noVpn = ~PageNum{0};

  private:
    unsigned entries_;
    unsigned assoc_;
    unsigned indexShift_;
    Rng rng_;

    // Fully associative implementation: a flat vpn -> slot index plus
    // a slot vector for random victim selection.
    FlatIndex<unsigned> faIndex_;
    std::vector<PageNum> faSlots_;
    std::vector<unsigned> faFree_;

    // Set-associative implementation: sets_ x assoc_ tag array.
    std::vector<PageNum> saTags_;
    unsigned numSets_ = 0;

    /**
     * The previous access's vpn, which the structure holds: a hit
     * changes no state, so a repeat is a hit without an index probe.
     * Cleared when that entry is invalidated or flushed; never set on
     * a 0-entry TLB.
     */
    PageNum last_ = noVpn;

    bool lookupAndFill(PageNum vpn, PageNum *evictedOut);
};

} // namespace vcoma

#endif // VCOMA_TLB_TLB_HH
