/**
 * @file
 * One processing node: processor-side caches, attraction memory, the
 * configured translation structure (a private TLB for L0..L3, or the
 * home-side DLB for V-COMA, Figure 5), shadow observer banks, and
 * the node's time-shared resources (protocol engine, AM port).
 */

#ifndef VCOMA_COMA_NODE_HH
#define VCOMA_COMA_NODE_HH

#include <memory>
#include <vector>

#include "coma/attraction_memory.hh"
#include "common/config.hh"
#include "core/dlb.hh"
#include "mem/cache.hh"
#include "net/network.hh"
#include "tlb/shadow_bank.hh"
#include "translation/scheme.hh"

namespace vcoma
{

/** One lane: a sibling config's translation structure (see siblingLanes()). */
struct Lane
{
    Scheme scheme;
    unsigned entries;
};

/**
 * The sibling configs one simulation of @p cfg also serves, as
 * *lanes*, in scheme (enum) then size order. Empty unless translation
 * is untimed (so no structure's contents can change timing, hence the
 * reference stream), the scheme spills no TLB victims (VICTIMA's spill
 * contents depend on the TLB size), and the organisation is fully
 * associative or direct-mapped (what the lanes model).
 *
 * A config's siblings are every size of shadowSizes() under every
 * scheme of its class, less the config itself. A scheme whose FLC,
 * SLC and attraction memory are all virtually indexed (L3-TLB,
 * V-COMA, NMT) indexes every cache by the virtual address and homes a
 * page where its colour says, so untimed, the three are one machine
 * trajectory observed at two points: the node exit (L3's TLB) and the
 * home directory lookup (the DLB; NMT's translation). Their class is
 * those three schemes, unless the reference-bit decay daemon runs;
 * any other scheme's class is itself. NMT has lanes too: with no
 * structure, every size's sheet is the same.
 */
std::vector<Lane> siblingLanes(const MachineConfig &cfg);

/** Per-node hardware. */
class Node
{
  public:
    Node(NodeId id, const MachineConfig &cfg, const SchemeTraits &traits);

    NodeId id;
    Cache flc;
    Cache slc;
    AttractionMemory am;
    /** Protocol engine occupancy (the PE of Figure 5). */
    Resource pe;
    /** Attraction-memory DRAM port occupancy. */
    Resource amPort;
    /** Configured private TLB (per-node-TLB schemes). */
    std::unique_ptr<Tlb> tlb;
    /** Configured home-side DLB (V-COMA). NMT configures neither. */
    std::unique_ptr<Dlb> dlb;
    /**
     * VICTIMA's spill structure: one translation entry per SLC frame,
     * SLC-associative. TLB victims land here; TLB misses probe it at
     * SLC-hit cost before paying the walk.
     */
    std::unique_ptr<Tlb> tlbSpill;
    /**
     * @{ @name Lanes (siblingLanes())
     *
     * The sibling configs' TLBs (one bank, in size order) and DLBs,
     * seeded, filled and shot down exactly as each sibling's own run
     * would. They never affect timing, the page bits, the tracer or
     * dumpStats; Machine publishes one sheet per lane.
     */
    std::unique_ptr<ShadowBank> tlbLanes;
    std::vector<Dlb> dlbLanes;
    /** @} */
    /**
     * Shadow observer bank at the configured scheme's translation
     * point (its TLB point for L0..L3, the home's directory lookup
     * for V-COMA and NMT).
     */
    ShadowBank shadow;
    /**
     * When the lanes span both translation points (siblingLanes()),
     * the shadow bank at the other one; nullptr otherwise.
     */
    std::unique_ptr<ShadowBank> siblingShadow;

    /**
     * Access the configured TLB, if any, and the TLB lanes.
     * @param evictedOut see Tlb::access (the configured TLB's victim)
     * @return the configured TLB's hit (true without one: nothing to
     *         charge).
     */
    bool
    accessTlb(PageNum vpn, StreamClass cls, PageNum *evictedOut = nullptr)
    {
        if (tlbLanes)
            tlbLanes->access(vpn, cls);
        return !tlb || tlb->access(vpn, cls, evictedOut);
    }

    /** @{ @name Node-level event counters */
    Counter upgradesIssued;      ///< S/MS -> E transitions requested
    Counter injectionsIssued;    ///< owned victims sent away
    Counter injectionsAccepted;  ///< injected blocks this node absorbed
    Counter invalsReceived;      ///< invalidations applied here
    /** @} */
};

} // namespace vcoma

#endif // VCOMA_COMA_NODE_HH
