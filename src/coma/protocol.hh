/**
 * @file
 * The COMA-F write-invalidate coherence protocol (Section 4.2) with
 * the translation mechanism of the configured scheme folded into the
 * access path at the right place:
 *
 *   L0     before the FLC, on every processor reference
 *   L1     on FLC->SLC traffic (read misses and, because the FLC is
 *          write-through, every store)
 *   L2     on SLC->AM traffic (demand misses, upgrades, and dirty
 *          evictions unless write-backs carry physical pointers)
 *   L3     on local-node misses (AM misses, upgrades, injections)
 *   V-COMA at the home node's directory lookup (the DLB)
 *
 * Block states are Invalid / Shared / Master-Shared / Exclusive.
 * Replacements of owned copies are *injected*: sent to the home,
 * which absorbs them into an Invalid frame of the same set or
 * forwards them around a random ring of nodes that may consume an
 * Invalid or Shared frame (Section 4.2).
 *
 * The engine also self-checks coherence: every store bumps a
 * per-block version in the directory, and every read asserts the
 * supplier's copy carries the current version.
 */

#ifndef VCOMA_COMA_PROTOCOL_HH
#define VCOMA_COMA_PROTOCOL_HH

#include <functional>
#include <memory>
#include <vector>

#include "coma/directory.hh"
#include "coma/node.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "core/vaddr_layout.hh"
#include "net/network.hh"
#include "sim/memref.hh"
#include "translation/scheme.hh"
#include "vm/page_table.hh"

namespace vcoma
{

class EventTracer;

/** Thrown when an access violates the page's protection bits. */
class ProtectionFault : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Where a processor reference was satisfied. */
enum class ServedBy : std::uint8_t
{
    Flc,
    Slc,
    LocalAm,
    Remote,
};

/** Timing/attribution outcome of one processor reference. */
struct AccessResult
{
    /** Completion tick. */
    Tick done = 0;
    /** Cycles stalled on the local hierarchy (loc-stall). */
    Cycles local = 0;
    /** Cycles stalled on the remote transaction (rem-stall). */
    Cycles remote = 0;
    /** Cycles of translation penalty on the critical path. */
    Cycles xlat = 0;
    ServedBy servedBy = ServedBy::Flc;
};

/**
 * The coherence engine: executes one processor reference at a time,
 * atomically against global state, in the global-time order imposed
 * by the simulation kernel.
 */
class CoherenceEngine
{
  public:
    CoherenceEngine(const MachineConfig &cfg, const SchemeTraits &traits,
                    const VAddrLayout &layout, PageTable &pageTable,
                    Directory &directory, Network &network,
                    std::vector<std::unique_ptr<Node>> &nodes);

    /**
     * Execute a read or write by the processor of node @p cpu at
     * tick @p now.
     */
    AccessResult access(CpuId cpu, RefType type, VAddr va, Tick now);

    /**
     * Try to resolve the reference through the per-CPU fast filter
     * without the full protocol walk: FLC read hits, SLC read hits on
     * a block the node holds (schemes without a TLB between the FLC
     * and the SLC), and silent stores that hit the SLC while the node
     * already holds the block Exclusive. On success fills @p out with
     * exactly the result (and exactly the state/counter side effects)
     * access() would have produced and returns true; on any doubt
     * returns false with no state touched, and the caller falls back
     * to access().
     */
    bool
    fastAccess(CpuId cpu, RefType type, VAddr va, Tick now,
               AccessResult &out)
    {
        // Inline so the kernel's per-reference loop absorbs the
        // common FLC-read-hit probe without a cross-TU call.
        if (!fastReads_)
            return false;
        const VAddr blockVa = layout_.blockAlign(va);
        FastBlock &ent = fast_[fastSlot(cpu, blockVa)];
        if (ent.blockVa != blockVa || ent.epoch != xlatEpoch_)
            return false;
        PageInfo &page = *ent.page;
        if (!page.resident)
            return false;
        if (type != RefType::Read)
            return fastWrite(cpu, va, now, ent, page, out);
        if (!(page.protection & ProtRead))
            return false;  // the slow path raises the fault
        Node &node = *rawNodes_[cpu];
        const VAddr flcKey =
            traits_.flcVirtual ? va : ent.paBase | (va & pageMask_);
        const std::uint32_t idx = node.flc.lookup(flcKey);
        if (idx == Cache::npos)
            return fastSlcRead(node, va, now, ent, page, out);
        // Commit: exactly the slow path's FLC-read-hit effects.
        node.flc.commitReadHit(idx);
        page.referenced = true;
        const Cycles lat = cfg_.timing.flcHit;
        out.done = now + lat;
        out.local = lat;
        out.remote = 0;
        out.xlat = 0;
        out.servedBy = ServedBy::Flc;
        if (traits_.hasDlb)
            ++dlbFilteredRefs;
        return true;
    }

    /** Is the fast filter active (scheme and check-level gates)? */
    bool fastPathEnabled() const { return fastReads_; }

    /**
     * Invariant sweep over the fast filter: every entry that the next
     * fastAccess would trust must agree with the authoritative page
     * table, directory and attraction memory. Panics on violation.
     */
    void verifyFastFilter() const;

    /**
     * Hook fired after a remote protocol transaction commits (the
     * coherence sanitizer's on-transition trigger). It runs only at
     * the outermost access boundary: nested steps (injections,
     * purges, preloads) leave transient states that are not
     * meaningful to check mid-flight.
     */
    void
    onTransition(std::function<void()> fn)
    {
        transitionHook_ = std::move(fn);
    }

    /**
     * Preload a freshly resident page: every block installed at the
     * home node in MasterShared state (data sets are preloaded,
     * Section 5.1). Untimed.
     */
    void preloadPage(PageInfo &page);

    /**
     * Evict a whole page from the machine: drop every cached copy,
     * reclaim the directory page, shoot down TLB/DLB entries. The
     * page-table residency bit is the caller's to clear.
     */
    void purgePage(PageNum vpn);

    /**
     * Install the swap-victim picker used when an injection finds the
     * whole global set owned, or a page-in exceeds the pressure
     * threshold. Receives (colour, vpn-to-protect); returns the vpn
     * to swap out, or noPage to decline.
     */
    static constexpr PageNum noPage = ~PageNum{0};
    void
    onSwapNeeded(std::function<PageNum(std::uint64_t, PageNum)> fn)
    {
        swapVictimPicker_ = std::move(fn);
    }

    const SchemeTraits &traits() const { return traits_; }

    /**
     * Attach an event tracer (nullptr detaches). Not owned; must
     * outlive the engine's last access.
     */
    void setTracer(EventTracer *tracer) { tracer_ = tracer; }

    /** Register every engine counter/distribution on @p g. */
    void addStats(StatGroup &g) const;

    /** @{ @name Protocol statistics */
    Counter remoteReads;        ///< read misses served remotely
    Counter remoteWrites;       ///< write misses served remotely
    Counter upgrades;           ///< ownership-only transactions
    Counter readForwards;       ///< reads forwarded owner != home
    Counter invalidationsSent;
    Counter injections;
    Counter injectionHops;      ///< forwarding hops beyond the home
    Counter injectionSwaps;     ///< emergencies resolved by page-out
    Counter sharedDrops;        ///< Shared victims replaced silently
    Counter writebackMerges;    ///< dirty SLC data folded into AM ops
    Counter tlbShootdowns;      ///< TLB invalidations on page purges
    Counter protectionFaults;
    /**
     * The filtering effect (Section 5.2): references satisfied by the
     * local hierarchy that therefore never reach the home DLB. Only
     * counted under V-COMA; together with the DLBs' demand accesses
     * it partitions the processor references.
     */
    Counter dlbFilteredRefs;
    /**
     * VICTIMA's SLC spill structure (only non-zero under schemes with
     * slcTlbSpill): probes on TLB miss, hits that skip the walk, and
     * victim entries spilled into SLC frames.
     */
    Counter tlbSpillProbes;
    Counter tlbSpillHits;
    Counter tlbSpillFills;
    /** @} */

    /** @{ @name Latency distributions (cycles) */
    Distribution remoteReadLatency;   ///< round-trip of remote reads
    Distribution remoteWriteLatency;  ///< round-trip, writes/upgrades
    Distribution dlbFillLatency;      ///< penalty charged per DLB fill
    /** @} */

    /**
     * @{ @name Lane copies (siblingLanes())
     *
     * The structure-dependent engine outputs of each lane
     * (Node::tlbLanes members, Node::dlbLanes): its shoot-downs and
     * its DLB fills.
     */
    std::vector<Counter> tlbLaneShootdowns;
    std::vector<Counter> dlbLaneShootdowns;
    std::vector<Distribution> dlbLaneFillLatency;
    /** @} */

  private:
    /** Fast per-page context resolved once per access. */
    struct BlockCtx
    {
        PageInfo *page = nullptr;
        VAddr blockVa = 0;      ///< AM-block-aligned virtual address
        VAddr amKey = 0;        ///< AM indexing key (VA or PA based)
        VAddr flcKey = 0;       ///< full reference address, FLC space
        VAddr slcKey = 0;       ///< full reference address, SLC space
        std::uint64_t blockIdx = 0;  ///< directory entry index
    };

    /**
     * One fast-filter entry: the pointers needed to replay an FLC/SLC
     * hit without any hash lookup. Entries are never eagerly
     * invalidated; they self-validate on use instead — the epoch
     * guards everything a page purge can tear down (directory pages
     * are erased, translations unmapped), and the cache/AM probes are
     * live, so a stale entry can only miss, never lie.
     */
    struct FastBlock
    {
        static constexpr VAddr noBlock = ~VAddr{0};
        VAddr blockVa = noBlock;  ///< AM-block-aligned VA (the key)
        std::uint64_t epoch = 0;  ///< xlatEpoch_ at fill time
        PageInfo *page = nullptr;
        DirectoryEntry *entry = nullptr;
        AmLine *amLine = nullptr; ///< this CPU's AM line, if any
        VAddr amKey = 0;
        VAddr paBase = 0;         ///< frame << pageBits (physical only)
    };

    /** Memoized per-page translation context for resolve()/pageFor(). */
    struct PageCtx
    {
        static constexpr PageNum noVpn = ~PageNum{0};
        PageNum vpn = noVpn;
        std::uint64_t epoch = 0;
        PageInfo *page = nullptr;
        VAddr paBase = 0;
    };

    static constexpr std::size_t fastBlocksPerCpu = 512;
    static constexpr std::size_t pageCtxSlots = 256;

    std::uint64_t
    fastIndex(VAddr blockVa) const
    {
        return (blockVa >> layout_.blockBits()) & (fastBlocksPerCpu - 1);
    }

    /** Slot of @p blockVa in @p cpu's stripe of the flat filter. */
    std::size_t
    fastSlot(CpuId cpu, VAddr blockVa) const
    {
        return static_cast<std::size_t>(cpu) * fastBlocksPerCpu +
               fastIndex(blockVa);
    }

    /**
     * Resident page of @p va through the per-page memo: one hash
     * lookup per page until the next purge instead of two per
     * reference. @p paBase receives frame << pageBits (0 when the
     * machine has no physical addresses).
     */
    PageInfo &residentPage(VAddr va, VAddr &paBase);

    /** (Re)fill the filter entry for @p va after a slow access. */
    void fillFastEntry(CpuId cpu, VAddr va);

    /**
     * The store half of fastAccess (out-of-line: silent stores are
     * the rarer case): commits an SLC hit on a block this node holds
     * Exclusive, replicating the slow path's side effects exactly.
     */
    bool fastWrite(CpuId cpu, VAddr va, Tick now, FastBlock &ent,
                   PageInfo &page, AccessResult &out);

    /**
     * The FLC-read-miss half of fastAccess (out-of-line, like
     * fastWrite): commits an SLC read hit on a block whose AM line
     * the filter entry proves local, replicating the slow path's side
     * effects exactly.
     */
    bool fastSlcRead(Node &node, VAddr va, Tick now, const FastBlock &ent,
                     PageInfo &page, AccessResult &out);

    /** The access body; access() wraps it to fire transitionHook_. */
    AccessResult accessImpl(CpuId cpu, RefType type, VAddr va, Tick now);

    BlockCtx resolve(VAddr va);

    DirectoryEntry &
    dirEntry(const BlockCtx &ctx)
    {
        return directory_.entryFor(ctx.page->vpn, ctx.blockIdx);
    }

    /** AM indexing key of an arbitrary block-aligned VA. */
    VAddr amKeyOf(VAddr blockVa);
    /** FLC/SLC indexing base of an AM block. */
    VAddr flcKeyOf(VAddr blockVa);
    VAddr slcKeyOf(VAddr blockVa);

    /**
     * Timed+counted access of the configured private TLB at @p t (and
     * of the TLB lanes).
     */
    Cycles chargeTlb(Node &node, PageNum vpn, StreamClass cls, Tick t);
    /**
     * Timed+counted DLB access at the home node at @p t, on behalf of
     * @p requester (attribution of the sharing/prefetching effects),
     * and the DLB lanes' lookups.
     */
    Cycles chargeDlb(Node &home, PageInfo &page, NodeId requester,
                     bool exclusiveReq, StreamClass cls, Tick t);

    /** @{ @name Shadow banks at the two translation points */
    ShadowBank &
    exitShadow(Node &n) const
    {
        return traits_.tlbPoint == TlbPoint::NodeExit ? n.shadow
                                                      : *n.siblingShadow;
    }

    ShadowBank &
    homeShadow(Node &n) const
    {
        return traits_.homeTranslation ? n.shadow : *n.siblingShadow;
    }
    /** @} */

    /** Version self-check at check level >= @p level. */
    void checkVersion(const BlockCtx &ctx, const AmLine *line,
                      unsigned level);

    /** Handle a dirty SLC victim (background write-back into the AM). */
    void handleSlcWriteback(Node &node, VAddr victimSlcKey, Tick t);

    /**
     * Make room and install block @p ctx at node @p n in state
     * @p st; owned victims are injected (background from @p t).
     */
    void installBlock(Node &n, const BlockCtx &ctx, AmState st, Tick t);

    /** Inject an owned victim starting at @p from (background). */
    void injectBlock(Node &from, VAddr victimBlockVa, AmState st,
                     std::uint32_t version, Tick t);

    /** Drop a Shared victim: clear its copyset bit, notify home. */
    void dropSharedVictim(Node &node, VAddr victimBlockVa, Tick t);

    /** Invalidate node @p m's copy of the block (AM + caches) at @p t. */
    void invalidateAt(NodeId m, const BlockCtx &ctx, Tick t);

    /** Remote read transaction. @return completion tick. */
    Tick remoteRead(Node &n, const BlockCtx &ctx, Tick t, Cycles &xlat);

    /**
     * Remote write transaction: upgrade if @p hasData, else
     * read-exclusive. @return completion tick.
     */
    Tick remoteWrite(Node &n, const BlockCtx &ctx, bool hasData, Tick t,
                     Cycles &xlat);

    /** Page context (ensureResident + protection + pressure gate). */
    PageInfo &pageFor(VAddr va, RefType type);

    /** Convert a victim line's AM key back to its block VA. */
    VAddr victimBlockVa(const AmLine &line) const;

    const MachineConfig &cfg_;
    SchemeTraits traits_;
    const VAddrLayout &layout_;
    PageTable &pageTable_;
    Directory &directory_;
    Network &network_;
    std::vector<std::unique_ptr<Node>> &nodes_;
    Rng rng_;
    /**
     * Translation epoch: bumped by purgePage(), the one operation
     * that invalidates directory-entry pointers and unmaps pages.
     * Filter/memo entries from an older epoch are dead.
     */
    std::uint64_t xlatEpoch_ = 0;
    /**
     * Translation is observed at the node exit (L3's TLB point) and
     * at the home's directory lookup (V-COMA's DLB, NMT): by the
     * configured scheme or by a lane's.
     */
    bool exitObserved_ = false;
    bool homeObserved_ = false;
    /** Fast filter active for reads (scheme, checkLevel). */
    bool fastReads_ = false;
    /** ... and for writes (additionally excludes L1's per-store TLB). */
    bool fastWrites_ = false;
    /**
     * ... and for SLC read hits: no TLB is charged between the FLC
     * and the SLC (excludes L1, whose TLB sees every FLC read miss).
     */
    bool fastSlcReads_ = false;
    VAddr pageMask_ = 0;
    /** Flat [cpu * fastBlocksPerCpu + slot]; one contiguous array
     *  keeps the per-reference probe to a single indirection. */
    std::vector<FastBlock> fast_;
    /** Raw per-node pointers (skips the unique_ptr hop per probe). */
    std::vector<Node *> rawNodes_;
    std::vector<PageCtx> pageCtx_;
    std::function<PageNum(std::uint64_t, PageNum)> swapVictimPicker_;
    std::function<void()> transitionHook_;
    EventTracer *tracer_ = nullptr;  ///< optional, not owned

    /**
     * Pages with live directory references somewhere up the call
     * stack (the page of an in-flight access, a page being preloaded,
     * a block being injected). An emergency swap must never purge
     * them: their directory pages would be freed under our feet.
     */
    std::vector<PageNum> pinned_;

    /** RAII pin for the duration of one stack frame. */
    class PagePin
    {
      public:
        PagePin(CoherenceEngine &engine, PageNum vpn)
            : engine_(engine)
        {
            engine_.pinned_.push_back(vpn);
        }
        ~PagePin() { engine_.pinned_.pop_back(); }
        PagePin(const PagePin &) = delete;
        PagePin &operator=(const PagePin &) = delete;

      private:
        CoherenceEngine &engine_;
    };

  public:
    /** True if @p vpn must not be swapped out right now. */
    bool
    isPinned(PageNum vpn) const
    {
        for (PageNum p : pinned_) {
            if (p == vpn)
                return true;
        }
        return false;
    }
};

} // namespace vcoma

#endif // VCOMA_COMA_PROTOCOL_HH
