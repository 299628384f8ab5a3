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

/**
 * The entry counts at which a config's configured TLB/DLB also runs,
 * as *lanes*, in one simulation: every size of shadowSizes() other
 * than the configured one. Empty unless translation is untimed (so
 * the structure's contents cannot change timing, hence the reference
 * stream), the scheme spills no TLB victims (VICTIMA's spill contents
 * depend on the TLB size), and the organisation is fully associative
 * or direct-mapped (what the lanes model). NMT has lanes too: with no
 * structure, every size's sheet is the same.
 */
std::vector<unsigned> laneSizes(const MachineConfig &cfg);

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
     * @{ @name Lanes (laneSizes())
     *
     * The configured TLB or DLB at every other size, seeded, filled
     * and shot down exactly as that size's own run would. They never
     * affect timing, the tracer or dumpStats; Machine publishes one
     * sheet per lane.
     */
    std::unique_ptr<ShadowBank> tlbLanes;
    std::vector<Dlb> dlbLanes;
    /** @} */
    /**
     * Shadow observer bank at this node's translation point (fed at
     * the scheme's TLB point for L0..L3, at the home's directory
     * lookup for V-COMA).
     */
    ShadowBank shadow;

    /**
     * Access the configured TLB and its lanes.
     * @param evictedOut see Tlb::access (the configured TLB's victim)
     * @return the configured TLB's hit.
     */
    bool
    accessTlb(PageNum vpn, StreamClass cls, PageNum *evictedOut = nullptr)
    {
        if (tlbLanes)
            tlbLanes->access(vpn, cls);
        return tlb->access(vpn, cls, evictedOut);
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
