/**
 * @file
 * The DLB (Directory Lookaside Buffer) of V-COMA: a cache at every
 * home node that accelerates the translation from virtual address to
 * *directory address* (Section 4.2, Figure 7). Because it sits behind
 * the attraction memories of all nodes it enjoys the filtering
 * effect, and because its entries are shared by every requester it
 * enjoys the sharing and prefetching effects (Section 5.2).
 *
 * Those two effects are measured directly: each live entry remembers
 * which node's miss filled it and the set of nodes that have hit it
 * since (a 64-bit mask — the machine caps at 64 nodes). A hit by a
 * node other than the filler is a *shared* hit, and the first such
 * hit marks the fill as having *prefetched* the translation for that
 * later requester. When an entry is evicted or shot down (or the run
 * ends), its distinct-requester count is retired into the
 * requestersPerEntry distribution.
 *
 * The DLB also maintains the page's reference and modify bits
 * (Section 4.3): the reference bit is set on every directory lookup;
 * the modify bit is set when a node first acquires exclusive
 * ownership of any block of the page.
 */

#ifndef VCOMA_CORE_DLB_HH
#define VCOMA_CORE_DLB_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/stats.hh"
#include "tlb/tlb.hh"
#include "vm/page_table.hh"

namespace vcoma
{

/** One home node's DLB. */
class Dlb
{
  public:
    /**
     * @param entries entry count
     * @param assoc   0 = fully associative
     * @param seed    random-replacement seed
     */
    Dlb(unsigned entries, unsigned assoc, std::uint64_t seed,
        unsigned indexShift = 0)
        : tlb_(entries, assoc, seed, indexShift)
    {
    }

    /**
     * Translate @p vpn for a directory lookup, filling on miss, and
     * maintain the page's reference/modify bits.
     *
     * @param page       the page-table entry being translated
     * @param requester  the node whose transaction needs the
     *        translation (attributes the sharing/prefetching effects)
     * @param exclusiveRequest the transaction asks for exclusive
     *        ownership (sets the modify bit, Section 4.3)
     * @param cls        demand vs write-back/injection stream class
     * @return true on DLB hit.
     */
    bool
    access(PageInfo &page, NodeId requester, bool exclusiveRequest,
           StreamClass cls)
    {
        const bool hit = lookup(page.vpn, requester, cls);
        if (!page.referenced) {
            page.referenced = true;
            ++refBitSets;
        }
        if (exclusiveRequest && !page.modified) {
            page.modified = true;
            ++modBitSets;
        }
        return hit;
    }

    /**
     * access() without the page bits: the translation and its
     * sharing/prefetching attribution only. A lane (Node::dlbLanes)
     * observes this way, so the page bits stay the configured
     * scheme's.
     */
    bool
    lookup(PageNum vpn, NodeId requester, StreamClass cls)
    {
        PageNum evicted = Tlb::noVpn;
        const bool hit = tlb_.access(vpn, cls, &evicted);
        if (evicted != Tlb::noVpn)
            retireEntry(evicted);
        if (tlb_.entries() == 0)
            return hit;
        if (!hit) {
            meta_[vpn] = EntryMeta{maskOf(requester), requester, false};
            return false;
        }
        auto it = meta_.find(vpn);
        // Entries injected behind the Dlb's back (fault injection
        // pokes tlb() directly) have no metadata; skip attribution
        // for those.
        if (it != meta_.end()) {
            EntryMeta &m = it->second;
            m.requesters |= maskOf(requester);
            if (requester != m.filler) {
                ++sharedHits;
                if (!m.servedOther) {
                    m.servedOther = true;
                    ++prefetchedFills;
                }
            }
        }
        return hit;
    }

    /** Shoot down the entry for @p vpn (page swap-out, Section 4.3). */
    bool
    invalidate(PageNum vpn)
    {
        if (!tlb_.invalidate(vpn))
            return false;
        retireEntry(vpn);
        return true;
    }

    /** Retire every live entry's requester count (end of run). */
    void
    finalizeEntryStats()
    {
        for (const auto &[vpn, m] : meta_)
            requestersPerEntry.sample(
                static_cast<double>(std::popcount(m.requesters)));
        meta_.clear();
    }

    /** Register all counters on @p g as <prefix>refBitSets etc. */
    void
    addStats(StatGroup &g, const std::string &prefix) const
    {
        tlb_.addStats(g, prefix);
        g.addCounter(prefix + "refBitSets", refBitSets);
        g.addCounter(prefix + "modBitSets", modBitSets);
        g.addCounter(prefix + "sharedHits", sharedHits);
        g.addCounter(prefix + "prefetchedFills", prefetchedFills);
        g.addDistribution(prefix + "requestersPerEntry",
                          requestersPerEntry);
    }

    const Tlb &tlb() const { return tlb_; }
    /** Mutable access (stats wiring, test fault injection). */
    Tlb &tlb() { return tlb_; }

    Counter refBitSets;
    Counter modBitSets;
    /** @{ @name Effect evidence (Section 5.2) */
    Counter sharedHits;       ///< hits by a node other than the filler
    Counter prefetchedFills;  ///< fills that later served another node
    Distribution requestersPerEntry;  ///< distinct requesters, retired
    /** @} */

  private:
    struct EntryMeta
    {
        std::uint64_t requesters = 0;  ///< bitmask of requester nodes
        NodeId filler = invalidNode;   ///< node whose miss filled it
        bool servedOther = false;      ///< already counted as prefetch
    };

    static std::uint64_t
    maskOf(NodeId node)
    {
        return node < 64 ? (std::uint64_t{1} << node) : 0;
    }

    void
    retireEntry(PageNum vpn)
    {
        auto it = meta_.find(vpn);
        if (it == meta_.end())
            return;
        requestersPerEntry.sample(
            static_cast<double>(std::popcount(it->second.requesters)));
        meta_.erase(it);
    }

    Tlb tlb_;
    /** Live-entry attribution, keyed by vpn; parallels tlb_'s content. */
    std::unordered_map<PageNum, EntryMeta> meta_;
};

} // namespace vcoma

#endif // VCOMA_CORE_DLB_HH
