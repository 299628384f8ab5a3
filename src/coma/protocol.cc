#include "coma/protocol.hh"

#include <algorithm>
#include <bit>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "sim/event_trace.hh"

namespace vcoma
{

CoherenceEngine::CoherenceEngine(const MachineConfig &cfg,
                                 const SchemeTraits &traits,
                                 const VAddrLayout &layout,
                                 PageTable &pageTable, Directory &directory,
                                 Network &network,
                                 std::vector<std::unique_ptr<Node>> &nodes)
    : cfg_(cfg), traits_(traits), layout_(layout), pageTable_(pageTable),
      directory_(directory), network_(network), nodes_(nodes),
      rng_(cfg.seed ^ 0xc0a1e5ce)
{
    exitObserved_ = traits_.tlbPoint == TlbPoint::NodeExit;
    homeObserved_ = traits_.homeTranslation;
    std::size_t tlbLanes = 0, dlbLanes = 0;
    for (const Lane &lane : siblingLanes(cfg_)) {
        const SchemeTraits t = schemeTraits(lane.scheme);
        exitObserved_ |= t.tlbPoint == TlbPoint::NodeExit;
        homeObserved_ |= t.homeTranslation;
        tlbLanes += t.perNodeTlb;
        dlbLanes += t.hasDlb;
    }
    tlbLaneShootdowns.resize(tlbLanes);
    dlbLaneShootdowns.resize(dlbLanes);
    dlbLaneFillLatency.resize(dlbLanes);
    pageMask_ = mask(layout_.pageBits());
    pageCtx_.resize(pageCtxSlots);

    // The fast filter is a pure simulator optimisation; results are
    // identical with it on or off. It is structurally excluded where
    // the slow path has per-reference side effects the filter cannot
    // replay: schemes charging a TLB before the FLC on every
    // reference (L0, VICTIMA) declare fastReadFilter = false, L1
    // additionally excludes stores (TLB charge on FLC write-through),
    // and checkLevel >= 2 wants the version self-check on every
    // cache hit. That last gate makes a checkLevel 2 run the
    // filter-off oracle the equivalence tests compare against.
    fastReads_ = traits_.fastReadFilter && cfg_.checkLevel < 2;
    fastWrites_ = fastReads_ && traits_.fastWriteFilter;
    fastSlcReads_ = fastReads_ && traits_.tlbPoint != TlbPoint::FlcToSlc;
    if (fastReads_) {
        fast_.resize(static_cast<std::size_t>(cfg_.numNodes) *
                     fastBlocksPerCpu);
        rawNodes_.reserve(nodes_.size());
        for (auto &n : nodes_)
            rawNodes_.push_back(n.get());
    }
}

PageInfo &
CoherenceEngine::residentPage(VAddr va, VAddr &paBase)
{
    const PageNum vpn = layout_.vpn(va);
    PageCtx &ent = pageCtx_[vpn & (pageCtxSlots - 1)];
    if (ent.vpn == vpn && ent.epoch == xlatEpoch_ && ent.page->resident) {
        paBase = ent.paBase;
        return *ent.page;
    }
    PageInfo &page = pageTable_.ensureResident(va);
    // Fill after ensureResident: a fault can preload/swap pages and
    // bump the epoch, and the memo must carry the post-fault epoch.
    ent.vpn = vpn;
    ent.epoch = xlatEpoch_;
    ent.page = &page;
    ent.paBase =
        traits_.hasPhysicalAddresses()
            ? static_cast<VAddr>(page.frame) << layout_.pageBits()
            : 0;
    paBase = ent.paBase;
    return page;
}

PageInfo &
CoherenceEngine::pageFor(VAddr va, RefType type)
{
    VAddr paBase = 0;
    PageInfo &page = residentPage(va, paBase);
    const std::uint8_t need =
        type == RefType::Read ? ProtRead : ProtWrite;
    if (!(page.protection & need)) {
        ++protectionFaults;
        throw ProtectionFault(detail::concat(
            "protection fault: ",
            type == RefType::Read ? "read" : "write", " denied at va 0x",
            std::hex, va, std::dec, " (vpn 0x", std::hex, page.vpn,
            std::dec, ", home node ", page.home, ", protection bits ",
            unsigned(page.protection), ")"));
    }
    page.referenced = true;
    // Without a home-side DLB the modify bit is maintained by the
    // node-side translation/refill path; in V-COMA it is set at the
    // home when exclusive ownership is first requested (Section 4.3),
    // which the DLB handles in chargeDlb().
    if (type == RefType::Write && !traits_.hasDlb)
        page.modified = true;
    return page;
}

CoherenceEngine::BlockCtx
CoherenceEngine::resolve(VAddr va)
{
    BlockCtx ctx;
    VAddr paBase = 0;
    ctx.page = &residentPage(va, paBase);
    ctx.blockVa = layout_.blockAlign(va);
    ctx.blockIdx = layout_.dirEntryIndex(va);
    if (traits_.hasPhysicalAddresses()) {
        const PAddr pa = paBase | (va & pageMask_);
        const PAddr blockPa = pa & ~mask(layout_.blockBits());
        ctx.amKey = traits_.amVirtual ? ctx.blockVa : blockPa;
        ctx.flcKey = traits_.flcVirtual ? va : pa;
        ctx.slcKey = traits_.slcVirtual ? va : pa;
    } else {
        ctx.amKey = ctx.blockVa;
        ctx.flcKey = va;
        ctx.slcKey = va;
    }
    return ctx;
}

VAddr
CoherenceEngine::amKeyOf(VAddr blockVa)
{
    return traits_.amVirtual ? blockVa : pageTable_.translate(blockVa);
}

VAddr
CoherenceEngine::flcKeyOf(VAddr blockVa)
{
    return traits_.flcVirtual ? blockVa : pageTable_.translate(blockVa);
}

VAddr
CoherenceEngine::slcKeyOf(VAddr blockVa)
{
    return traits_.slcVirtual ? blockVa : pageTable_.translate(blockVa);
}

VAddr
CoherenceEngine::victimBlockVa(const AmLine &line) const
{
    return traits_.amVirtual ? line.key : pageTable_.reverse(line.key);
}

Cycles
CoherenceEngine::chargeTlb(Node &node, PageNum vpn, StreamClass cls, Tick t)
{
    PageNum evicted = Tlb::noVpn;
    const bool hit =
        node.accessTlb(vpn, cls, node.tlbSpill ? &evicted : nullptr);
    if (node.tlbSpill && evicted != Tlb::noVpn) {
        // Victima: the displaced entry spills into an SLC frame
        // instead of being discarded.
        node.tlbSpill->access(evicted, StreamClass::Writeback);
        ++tlbSpillFills;
    }
    if (hit)
        return 0;
    if (node.tlbSpill) {
        // TLB miss: probe the spilled entries in the SLC (one SLC
        // access) before paying the walk; a hit migrates the entry
        // back into the TLB (the access() above already filled it).
        ++tlbSpillProbes;
        const Cycles probe = cfg_.timedTranslation ? cfg_.timing.slcHit : 0;
        if (node.tlbSpill->contains(vpn)) {
            node.tlbSpill->invalidate(vpn);
            ++tlbSpillHits;
            return probe;
        }
        if (tracer_) {
            tracer_->instant("tlbFill", EventTracer::TrackTranslation,
                             node.id, t, vpn << layout_.pageBits());
        }
        return probe +
               (cfg_.timedTranslation ? cfg_.timing.translationMiss : 0);
    }
    if (tracer_) {
        tracer_->instant("tlbFill", EventTracer::TrackTranslation, node.id,
                         t, vpn << layout_.pageBits());
    }
    return cfg_.timedTranslation ? cfg_.timing.translationMiss : 0;
}

Cycles
CoherenceEngine::chargeDlb(Node &home, PageInfo &page, NodeId requester,
                           bool exclusiveReq, StreamClass cls, Tick t)
{
    const Cycles penalty =
        cfg_.timedTranslation ? cfg_.timing.translationMiss : 0;
    for (std::size_t k = 0; k < home.dlbLanes.size(); ++k) {
        if (!home.dlbLanes[k].lookup(page.vpn, requester, cls))
            dlbLaneFillLatency[k].sample(static_cast<double>(penalty));
    }
    if (!home.dlb || home.dlb->access(page, requester, exclusiveReq, cls))
        return 0;
    dlbFillLatency.sample(static_cast<double>(penalty));
    if (tracer_) {
        tracer_->instant("dlbFill", EventTracer::TrackTranslation, home.id,
                         t, page.vpn << layout_.pageBits());
    }
    return penalty;
}

void
CoherenceEngine::checkVersion(const BlockCtx &ctx, const AmLine *line,
                              unsigned level)
{
    if (cfg_.checkLevel < level)
        return;
    const DirectoryEntry &e =
        directory_.entryFor(ctx.page->vpn, ctx.blockIdx);
    if (!line)
        panic("coherence check: cached data without an AM copy, va ",
              ctx.blockVa);
    if (line->version != e.version)
        panic("coherence check: stale copy observed, va ", ctx.blockVa,
              " line v", line->version, " dir v", e.version);
}

namespace
{

/** Purge one AM block's sub-blocks from a node's SLC and FLC. */
void
purgeCachesRaw(Node &node, VAddr slcBase, VAddr flcBase,
               unsigned blockBytes, Counter &merges)
{
    unsigned dirty = 0;
    node.slc.invalidateRange(slcBase, blockBytes, dirty);
    if (dirty > 0)
        ++merges;
    unsigned dirtyF = 0;
    node.flc.invalidateRange(flcBase, blockBytes, dirtyF);
}

} // namespace

void
CoherenceEngine::invalidateAt(NodeId m, const BlockCtx &ctx, Tick t)
{
    Node &node = *nodes_[m];
    const AmState prior = node.am.invalidate(ctx.amKey);
    if (prior == AmState::Invalid)
        panic("invalidation at node ", m, " found no copy, va ",
              ctx.blockVa);
    purgeCachesRaw(node, slcKeyOf(ctx.blockVa), flcKeyOf(ctx.blockVa),
                   cfg_.am.blockBytes, writebackMerges);
    ++node.invalsReceived;
    if (tracer_) {
        tracer_->instant("invalidate", EventTracer::TrackInvalidation, m, t,
                         ctx.blockVa);
    }
}

void
CoherenceEngine::dropSharedVictim(Node &node, VAddr blockVa, Tick t)
{
    const PageNum vpn = layout_.vpn(blockVa);
    PageInfo *page = pageTable_.find(vpn);
    if (!page || !page->resident)
        panic("shared victim of a non-resident page, va ", blockVa);
    DirectoryEntry &e =
        directory_.entryFor(vpn, layout_.dirEntryIndex(blockVa));
    if (!e.holds(node.id) || e.owner == node.id) {
        panic("dropSharedVictim: node ", node.id, " va ", blockVa,
              " copyset ", e.copyset, " owner ", e.owner, " excl ",
              e.exclusive, " version ", e.version, " resident ",
              page->resident, " home ", page->home);
    }
    e.dropCopy(node.id);
    ++sharedDrops;
    ++node.am.sharedDrops;

    // Replacement notice to the home so the copyset stays exact
    // (background control message).
    const Tick arrive =
        network_.send(node.id, page->home, MsgSize::Request, t);
    Node &home = *nodes_[page->home];
    home.pe.acquire(arrive, cfg_.timing.peOccupancy);
    if (homeObserved_) {
        homeShadow(home).access(vpn, StreamClass::Writeback);
        chargeDlb(home, *page, node.id, false, StreamClass::Writeback,
                  arrive);
    }

    purgeCachesRaw(node, slcKeyOf(blockVa), flcKeyOf(blockVa),
                   cfg_.am.blockBytes, writebackMerges);
}

void
CoherenceEngine::injectBlock(Node &from, VAddr blockVa, AmState st,
                             std::uint32_t version, Tick t)
{
    VCOMA_ASSERT(isOwnerState(st));
    ++injections;
    ++from.injectionsIssued;
    if (tracer_) {
        tracer_->instant("inject", EventTracer::TrackCoherence, from.id, t,
                         blockVa);
    }

    const PageNum vpn = layout_.vpn(blockVa);
    PageInfo *page = pageTable_.find(vpn);
    if (!page || !page->resident)
        panic("injection of a non-resident page's block, va ", blockVa);
    PagePin pin(*this, vpn);
    DirectoryEntry &e =
        directory_.entryFor(vpn, layout_.dirEntryIndex(blockVa));
    VCOMA_ASSERT(e.owner == from.id);
    e.dropCopy(from.id);
    e.owner = invalidNode;

    // Node-exit TLBs (L3): the outbound injection is a local-node
    // departure and needs a virtual-to-physical translation
    // (write-back stream).
    if (exitObserved_) {
        exitShadow(from).access(vpn, StreamClass::Writeback);
        from.accessTlb(vpn, StreamClass::Writeback);
    }

    const VAddr key = amKeyOf(blockVa);
    const NodeId homeId = page->home;
    t = network_.send(from.id, homeId, MsgSize::Block, t);
    Node &home = *nodes_[homeId];
    const Tick s = home.pe.acquire(t, cfg_.timing.peOccupancy);
    t = s + cfg_.timing.directoryLookup;
    if (homeObserved_) {
        homeShadow(home).access(vpn, StreamClass::Writeback);
        t += chargeDlb(home, *page, from.id, false, StreamClass::Writeback,
                       s);
    }

    auto tryAccept = [&](Node &cand) -> bool {
        // If the candidate already holds a Shared copy of this very
        // block, the master copy merges into it — no frame needed.
        // (An Exclusive victim has no sharers, so st must be MS.)
        if (AmLine *existing = cand.am.find(key)) {
            VCOMA_ASSERT(existing->state == AmState::Shared);
            VCOMA_ASSERT(st == AmState::MasterShared);
            VCOMA_ASSERT(existing->version == version);
            existing->state = AmState::MasterShared;
            e.owner = cand.id;
            e.exclusive = false;
            ++cand.injectionsAccepted;
            return true;
        }
        VictimChoice v;
        if (!cand.am.chooseInjectionVictim(key, v))
            return false;
        AmLine &frame = cand.am.line(v.lineIndex);
        if (v.kind == VictimKind::Shared) {
            const VAddr sharedVa = victimBlockVa(frame);
            frame.state = AmState::Invalid;
            dropSharedVictim(cand, sharedVa, t);
        }
        cand.am.installAt(v.lineIndex, key, st, version);
        e.addCopy(cand.id);
        e.owner = cand.id;
        e.exclusive = (st == AmState::Exclusive);
        ++cand.injectionsAccepted;
        return true;
    };

    // The home absorbs the injection only into an Invalid frame of
    // the same set (Section 4.2); else forward to a random node which
    // may also consume a Shared frame. When the evicting node is
    // itself the home, its set is the one that just overflowed, so it
    // must forward immediately (and never re-absorb its own victim).
    if (homeId != from.id) {
        if (AmLine *existing = home.am.find(key)) {
            VCOMA_ASSERT(existing->state == AmState::Shared);
            VCOMA_ASSERT(st == AmState::MasterShared);
            existing->state = AmState::MasterShared;
            e.owner = home.id;
            e.exclusive = false;
            ++home.injectionsAccepted;
            return;
        }
        const VictimChoice choice = home.am.chooseVictim(key);
        if (choice.kind == VictimKind::Empty) {
            home.am.installAt(choice.lineIndex, key, st, version);
            e.addCopy(home.id);
            e.owner = home.id;
            e.exclusive = (st == AmState::Exclusive);
            ++home.injectionsAccepted;
            return;
        }
    }

    NodeId prev = homeId;
    const unsigned numNodes = cfg_.numNodes;
    const unsigned start = static_cast<unsigned>(rng_.below(numNodes));
    for (unsigned i = 0; i < numNodes; ++i) {
        const NodeId cand = static_cast<NodeId>((start + i) % numNodes);
        if (cand == from.id || cand == homeId)
            continue;
        t = network_.send(prev, cand, MsgSize::Block, t);
        ++injectionHops;
        prev = cand;
        Node &candNode = *nodes_[cand];
        candNode.pe.acquire(t, cfg_.timing.peOccupancy);
        if (tryAccept(candNode))
            return;
    }

    // Emergency: the whole global set is owned. The page daemon must
    // swap out resident pages of this colour until a frame frees up
    // (Section 4.3's pressure threshold normally prevents this).
    for (unsigned attempt = 0; attempt < 8; ++attempt) {
        if (!swapVictimPicker_)
            break;
        const PageNum victim = swapVictimPicker_(page->colour, vpn);
        if (victim == noPage)
            break;
        ++injectionSwaps;
        purgePage(victim);
        pageTable_.swapOut(victim);
        for (unsigned m = 0; m < numNodes; ++m) {
            if (m == from.id)
                continue;
            if (tryAccept(*nodes_[m]))
                return;
        }
    }
    panic("injection failed: global set exhausted for va ", blockVa);
}

void
CoherenceEngine::installBlock(Node &n, const BlockCtx &ctx, AmState st,
                              Tick t)
{
    DirectoryEntry &e = dirEntry(ctx);
    const VictimChoice v = n.am.chooseVictim(ctx.amKey);
    AmLine &frame = n.am.line(v.lineIndex);
    if (v.kind == VictimKind::Shared) {
        const VAddr victimVa = victimBlockVa(frame);
        frame.state = AmState::Invalid;
        dropSharedVictim(n, victimVa, t);
    } else if (v.kind == VictimKind::Owned) {
        const VAddr victimVa = victimBlockVa(frame);
        const AmState victimState = frame.state;
        const std::uint32_t victimVersion = frame.version;
        purgeCachesRaw(n, slcKeyOf(victimVa), flcKeyOf(victimVa),
                       cfg_.am.blockBytes, writebackMerges);
        frame.state = AmState::Invalid;
        injectBlock(n, victimVa, victimState, victimVersion, t);
    }
    n.am.installAt(v.lineIndex, ctx.amKey, st, e.version);
    e.addCopy(n.id);
}

Tick
CoherenceEngine::remoteRead(Node &n, const BlockCtx &ctx, Tick t,
                            Cycles &xlat)
{
    PageInfo &page = *ctx.page;
    Node &home = *nodes_[page.home];

    t = network_.send(n.id, page.home, MsgSize::Request, t);
    const Tick s = home.pe.acquire(t, cfg_.timing.peOccupancy);
    t = s + cfg_.timing.directoryLookup;

    if (homeObserved_) {
        homeShadow(home).access(page.vpn, StreamClass::Demand);
        const Cycles p =
            chargeDlb(home, page, n.id, false, StreamClass::Demand, s);
        xlat += p;
        t += p;
    }

    DirectoryEntry &e = dirEntry(ctx);
    if (!e.resident())
        panic("read request found a non-resident block, va ", ctx.blockVa);
    VCOMA_ASSERT(e.owner != n.id);

    const NodeId sup = e.owner;
    Node &supplier = *nodes_[sup];
    if (sup != page.home) {
        ++readForwards;
        t = network_.send(page.home, sup, MsgSize::Request, t);
        supplier.pe.acquire(t, cfg_.timing.peOccupancy);
    }

    t = supplier.amPort.acquire(t, cfg_.timing.amHit) + cfg_.timing.amHit;
    AmLine *supLine = supplier.am.find(ctx.amKey);
    if (!supLine || !isOwnerState(supLine->state))
        panic("directory owner has no owned copy, va ", ctx.blockVa);
    checkVersion(ctx, supLine, 1);
    supplier.am.touchLine(*supLine);
    if (supLine->state == AmState::Exclusive) {
        supLine->state = AmState::MasterShared;
        e.exclusive = false;
    }

    t = network_.send(sup, n.id, MsgSize::Block, t);
    installBlock(n, ctx, AmState::Shared, t);
    return t;
}

Tick
CoherenceEngine::remoteWrite(Node &n, const BlockCtx &ctx, bool hasData,
                             Tick t, Cycles &xlat)
{
    PageInfo &page = *ctx.page;
    Node &home = *nodes_[page.home];

    t = network_.send(n.id, page.home, MsgSize::Request, t);
    const Tick s = home.pe.acquire(t, cfg_.timing.peOccupancy);
    t = s + cfg_.timing.directoryLookup;

    if (homeObserved_) {
        homeShadow(home).access(page.vpn, StreamClass::Demand);
        const Cycles p =
            chargeDlb(home, page, n.id, true, StreamClass::Demand, s);
        xlat += p;
        t += p;
    }

    DirectoryEntry &e = dirEntry(ctx);
    if (!e.resident())
        panic("write request found a non-resident block, va ", ctx.blockVa);
    if (!hasData)
        VCOMA_ASSERT(e.owner != n.id);

    const NodeId owner = e.owner;
    Tick dataArrive = t;
    Tick maxAck = t;

    for (unsigned m = 0; m < cfg_.numNodes; ++m) {
        if (m == n.id || !e.holds(m))
            continue;
        const Tick ti = network_.send(page.home, m, MsgSize::Request, t);
        Node &tm = *nodes_[m];
        const Tick sm = tm.pe.acquire(ti, cfg_.timing.peOccupancy);
        if (m == owner && !hasData) {
            // The owner forwards the block directly to the requester
            // before invalidating its own copy.
            const Tick sa =
                tm.amPort.acquire(sm, cfg_.timing.amHit) +
                cfg_.timing.amHit;
            AmLine *ownLine = tm.am.find(ctx.amKey);
            if (!ownLine || !isOwnerState(ownLine->state))
                panic("write: owner lacks owned copy, va ", ctx.blockVa);
            checkVersion(ctx, ownLine, 1);
            dataArrive = network_.send(m, n.id, MsgSize::Block, sa);
        }
        invalidateAt(m, ctx, sm);
        e.dropCopy(m);
        ++invalidationsSent;
        const Tick ack = network_.send(m, page.home, MsgSize::Request,
                                       sm + 4);
        maxAck = std::max(maxAck, ack);
    }

    const Tick grant =
        network_.send(page.home, n.id, MsgSize::Request, maxAck);
    Tick done = std::max(grant, dataArrive);

    ++e.version;
    e.copyset = 0;
    e.addCopy(n.id);
    e.owner = n.id;
    e.exclusive = true;

    if (hasData) {
        AmLine *line = n.am.find(ctx.amKey);
        if (!line || !line->valid())
            panic("upgrade without a local copy, va ", ctx.blockVa);
        line->state = AmState::Exclusive;
        line->version = e.version;
        n.am.touchLine(*line);
    } else {
        installBlock(n, ctx, AmState::Exclusive, done);
    }
    return done;
}

AccessResult
CoherenceEngine::access(CpuId cpu, RefType type, VAddr va, Tick now)
{
    const AccessResult res = accessImpl(cpu, type, va, now);
    // Filtering effect: a reference served by the local hierarchy
    // never generated a home-directory (DLB) lookup.
    if (traits_.hasDlb && res.servedBy != ServedBy::Remote)
        ++dlbFilteredRefs;
    if (transitionHook_ && res.servedBy == ServedBy::Remote)
        transitionHook_();
    if (fastReads_)
        fillFastEntry(cpu, va);
    return res;
}

void
CoherenceEngine::fillFastEntry(CpuId cpu, VAddr va)
{
    const PageNum vpn = layout_.vpn(va);
    PageInfo *page = pageTable_.find(vpn);
    if (!page || !page->resident)
        return;
    DirectoryPage *dp = directory_.findPage(vpn);
    if (!dp)
        return;
    const VAddr blockVa = layout_.blockAlign(va);
    FastBlock &ent = fast_[fastSlot(cpu, blockVa)];
    ent.blockVa = blockVa;
    ent.epoch = xlatEpoch_;
    ent.page = page;
    ent.entry = &dp->entry(layout_.dirEntryIndex(va));
    ent.paBase =
        traits_.hasPhysicalAddresses()
            ? static_cast<VAddr>(page->frame) << layout_.pageBits()
            : 0;
    ent.amKey = traits_.amVirtual || !traits_.hasPhysicalAddresses()
                    ? blockVa
                    : ent.paBase | (blockVa & pageMask_);
    ent.amLine = nodes_[cpu]->am.find(ent.amKey);
}

bool
CoherenceEngine::fastWrite(CpuId cpu, VAddr va, Tick now, FastBlock &ent,
                           PageInfo &page, AccessResult &out)
{
    Node &node = *rawNodes_[cpu];
    const TimingConfig &tm = cfg_.timing;
    const VAddr pa = ent.paBase | (va & pageMask_);

    // Writes: only the silent store (block already Exclusive here)
    // with an SLC hit stays entirely local with flat timing.
    if (!fastWrites_)
        return false;
    if (!(page.protection & ProtWrite))
        return false;
    AmLine *line = ent.amLine;
    if (!line || line->key != ent.amKey ||
        line->state != AmState::Exclusive) {
        return false;
    }
    const VAddr slcKey = traits_.slcVirtual ? va : pa;
    const std::uint32_t sIdx = node.slc.lookup(slcKey);
    if (sIdx == Cache::npos)
        return false;
    DirectoryEntry &e = *ent.entry;
    VCOMA_ASSERT(e.owner == node.id && e.exclusive);

    // Commit: the FLC sees the write-through store exactly as in the
    // slow path (hit bookkeeping, or the configured miss behaviour).
    node.flc.access(traits_.flcVirtual ? va : pa, RefType::Write);
    node.slc.commitWriteHit(sIdx);
    ++e.version;
    line->version = e.version;
    node.am.touchLine(*line);
    page.referenced = true;
    if (!traits_.hasDlb)
        page.modified = true;
    out.done = now + tm.slcHit;
    out.local = tm.slcHit;
    out.remote = 0;
    out.xlat = 0;
    out.servedBy = ServedBy::Slc;
    if (traits_.hasDlb)
        ++dlbFilteredRefs;
    return true;
}

bool
CoherenceEngine::fastSlcRead(Node &node, VAddr va, Tick now,
                             const FastBlock &ent, PageInfo &page,
                             AccessResult &out)
{
    // A local AM copy means the read cannot leave the node, so no
    // node-exit translation is due; an SLC hit never reaches the AM,
    // so no SLC-to-AM translation is due either.
    if (!fastSlcReads_)
        return false;
    const AmLine *line = ent.amLine;
    if (!line || line->key != ent.amKey || !line->valid())
        return false;
    const VAddr pa = ent.paBase | (va & pageMask_);
    const std::uint32_t sIdx =
        node.slc.lookup(traits_.slcVirtual ? va : pa);
    if (sIdx == Cache::npos)
        return false;

    // Commit: the FLC takes its read-miss fill exactly as in the slow
    // path (which ignores its victim: the FLC is write-through).
    node.flc.access(traits_.flcVirtual ? va : pa, RefType::Read);
    node.slc.commitReadHit(sIdx);
    page.referenced = true;
    const Cycles lat = cfg_.timing.slcHit;
    out.done = now + lat;
    out.local = lat;
    out.remote = 0;
    out.xlat = 0;
    out.servedBy = ServedBy::Slc;
    if (traits_.hasDlb)
        ++dlbFilteredRefs;
    return true;
}

void
CoherenceEngine::verifyFastFilter() const
{
    for (std::size_t slot = 0; slot < fast_.size(); ++slot) {
        const std::size_t cpu = slot / fastBlocksPerCpu;
        const FastBlock &ent = fast_[slot];
        if (ent.blockVa == FastBlock::noBlock || ent.epoch != xlatEpoch_)
            continue;  // dead entry: fastAccess would reject it
        const PageNum vpn = layout_.vpn(ent.blockVa);
        const PageInfo *page = pageTable_.find(vpn);
        if (page != ent.page) {
            panic("fast filter: cpu ", cpu, " va ", ent.blockVa,
                  " caches a stale page pointer");
        }
        if (!page || !page->resident)
            continue;  // rejected live by fastAccess
        if (traits_.hasPhysicalAddresses() &&
            ent.paBase != (static_cast<VAddr>(page->frame)
                           << layout_.pageBits())) {
            panic("fast filter: cpu ", cpu, " va ", ent.blockVa,
                  " caches a stale translation");
        }
        DirectoryPage *dp = directory_.findPage(vpn);
        if (!dp ||
            ent.entry != &dp->entry(layout_.dirEntryIndex(ent.blockVa))) {
            panic("fast filter: cpu ", cpu, " va ", ent.blockVa,
                  " caches a stale directory entry");
        }
        // The AM pointer is only trusted when its key still matches;
        // when it does, it must be the authoritative line for that
        // key.
        if (ent.amLine && ent.amLine->key == ent.amKey &&
            ent.amLine->valid() &&
            ent.amLine != nodes_[cpu]->am.find(ent.amKey)) {
            panic("fast filter: cpu ", cpu, " va ", ent.blockVa,
                  " caches a stale AM line");
        }
    }
}

void
CoherenceEngine::addStats(StatGroup &g) const
{
    g.addCounter("remoteReads", remoteReads);
    g.addCounter("remoteWrites", remoteWrites);
    g.addCounter("upgrades", upgrades);
    g.addCounter("readForwards", readForwards);
    g.addCounter("invalidationsSent", invalidationsSent);
    g.addCounter("injections", injections);
    g.addCounter("injectionHops", injectionHops);
    g.addCounter("injectionSwaps", injectionSwaps);
    g.addCounter("sharedDrops", sharedDrops);
    g.addCounter("writebackMerges", writebackMerges);
    g.addCounter("tlbShootdowns", tlbShootdowns);
    g.addCounter("protectionFaults", protectionFaults);
    g.addCounter("dlbFilteredRefs", dlbFilteredRefs);
    // Spill counters only exist under slcTlbSpill schemes; keep the
    // legacy stat dump unchanged by registering them conditionally.
    if (traits_.slcTlbSpill) {
        g.addCounter("tlbSpillProbes", tlbSpillProbes);
        g.addCounter("tlbSpillHits", tlbSpillHits);
        g.addCounter("tlbSpillFills", tlbSpillFills);
    }
    g.addDistribution("remoteReadLatency", remoteReadLatency);
    g.addDistribution("remoteWriteLatency", remoteWriteLatency);
    g.addDistribution("dlbFillLatency", dlbFillLatency);
}

AccessResult
CoherenceEngine::accessImpl(CpuId cpu, RefType type, VAddr va, Tick now)
{
    Node &node = *nodes_[cpu];
    PageInfo &page = pageFor(va, type);
    // Directory references to this page live across the rest of the
    // access: it must not be swapped out by a nested emergency.
    PagePin pin(*this, page.vpn);
    BlockCtx ctx = resolve(va);
    ctx.page = &page;
    const PageNum vpn = page.vpn;
    const TimingConfig &tm = cfg_.timing;

    AccessResult res;
    Tick t = now;

    // ----- PreFlc (L0, VICTIMA): translation before the FLC -----
    if (traits_.tlbPoint == TlbPoint::PreFlc) {
        node.shadow.access(vpn, StreamClass::Demand);
        const Cycles p = chargeTlb(node, vpn, StreamClass::Demand, t);
        res.xlat += p;
        t += p;
    }

    // ----- FLC -----
    const CacheAccess flcRes = node.flc.access(ctx.flcKey, type);
    if (type == RefType::Read && flcRes.hit) {
        if (cfg_.checkLevel >= 2)
            checkVersion(ctx, node.am.find(ctx.amKey), 2);
        t += tm.flcHit;
        res.done = t;
        res.local = (t - now) - res.xlat;
        res.servedBy = ServedBy::Flc;
        return res;
    }

    // ----- FLC -> SLC transit: read miss fill or write-through store
    if (traits_.tlbPoint == TlbPoint::FlcToSlc) {
        node.shadow.access(vpn, StreamClass::Demand);
        const Cycles p = chargeTlb(node, vpn, StreamClass::Demand, t);
        res.xlat += p;
        t += p;
    }

    const CacheAccess slcRes = node.slc.access(ctx.slcKey, type);
    if (slcRes.hasVictim) {
        // SLC eviction: keep the FLC included and push dirty data
        // down (the write-back stream of Section 2.2.2).
        const VAddr victimKey = slcRes.victim;
        const VAddr victimVa =
            traits_.slcVirtual ? victimKey : pageTable_.reverse(victimKey);
        const VAddr victimFlcBase =
            traits_.flcVirtual ? victimVa : victimKey;
        unsigned dirtyF = 0;
        node.flc.invalidateRange(victimFlcBase, cfg_.slc.blockBytes,
                                 dirtyF);
        if (slcRes.victimDirty)
            handleSlcWriteback(node, victimVa, t);
    }

    // ----- local AM state -----
    AmLine *line = node.am.find(ctx.amKey);
    const AmState st = line ? line->state : AmState::Invalid;

    // Does this reference cross the SLC -> AM boundary?
    const bool crossesToAm =
        (type == RefType::Read && !slcRes.hit) ||
        (type == RefType::Write &&
         (!slcRes.hit || st != AmState::Exclusive));
    if (traits_.tlbPoint == TlbPoint::SlcToAm && crossesToAm) {
        node.shadow.access(vpn, StreamClass::Demand);
        const Cycles p = chargeTlb(node, vpn, StreamClass::Demand, t);
        res.xlat += p;
        t += p;
    }

    // Does it leave the local node entirely?
    const bool crossesNode =
        (type == RefType::Read && !line) ||
        (type == RefType::Write && st != AmState::Exclusive);
    if (exitObserved_ && crossesNode) {
        exitShadow(node).access(vpn, StreamClass::Demand);
        const Cycles p = chargeTlb(node, vpn, StreamClass::Demand, t);
        res.xlat += p;
        t += p;
    }

    if (type == RefType::Read) {
        if (slcRes.hit) {
            if (cfg_.checkLevel >= 2)
                checkVersion(ctx, line, 2);
            t += tm.slcHit;
            res.done = t;
            res.local = (t - now) - res.xlat;
            res.servedBy = ServedBy::Slc;
            return res;
        }
        if (line) {
            // Local attraction-memory hit.
            checkVersion(ctx, line, 1);
            node.am.touchLine(*line);
            ++node.am.hits;
            t = node.amPort.acquire(t, tm.amHit) + tm.amHit;
            res.done = t;
            res.local = (t - now) - res.xlat;
            res.servedBy = ServedBy::LocalAm;
            return res;
        }
        ++node.am.misses;
        ++remoteReads;
        const Tick start = t;
        const Cycles xlatBefore = res.xlat;
        t = remoteRead(node, ctx, t + tm.amTagCheck, res.xlat);
        res.remote = (t - start) - (res.xlat - xlatBefore);
        remoteReadLatency.sample(static_cast<double>(res.remote));
        if (tracer_) {
            tracer_->complete("remoteRead", EventTracer::TrackCoherence,
                              cpu, start, t, ctx.blockVa);
        }
        res.done = t;
        res.local = (t - now) - res.remote - res.xlat;
        res.servedBy = ServedBy::Remote;
        return res;
    }

    // ----- write path -----
    if (st == AmState::Exclusive) {
        // Silent store: ownership already held.
        DirectoryEntry &e = dirEntry(ctx);
        VCOMA_ASSERT(e.owner == node.id && e.exclusive);
        ++e.version;
        line->version = e.version;
        node.am.touchLine(*line);
        if (slcRes.hit) {
            t += tm.slcHit;
            res.servedBy = ServedBy::Slc;
        } else {
            // Fill the SLC from the local AM.
            ++node.am.hits;
            t = node.amPort.acquire(t, tm.amHit) + tm.amHit;
            res.servedBy = ServedBy::LocalAm;
        }
        res.done = t;
        res.local = (t - now) - res.xlat;
        return res;
    }

    const bool hasData = line != nullptr;
    if (!hasData)
        ++node.am.misses;
    if (hasData)
        ++upgrades;
    else
        ++remoteWrites;
    if (hasData)
        ++node.upgradesIssued;

    const Tick start = t;
    const Cycles xlatBefore = res.xlat;
    const Cycles tagCheck = hasData ? 0 : tm.amTagCheck;
    t = remoteWrite(node, ctx, hasData, t + tagCheck, res.xlat);
    res.remote = (t - start) - (res.xlat - xlatBefore);
    remoteWriteLatency.sample(static_cast<double>(res.remote));
    if (tracer_) {
        tracer_->complete(hasData ? "upgrade" : "remoteWrite",
                          EventTracer::TrackCoherence, cpu, start, t,
                          ctx.blockVa);
    }
    res.done = t;
    res.local = (t - now) - res.remote - res.xlat;
    res.servedBy = ServedBy::Remote;
    return res;
}

void
CoherenceEngine::handleSlcWriteback(Node &node, VAddr victimVa, Tick t)
{
    const PageNum vpn = layout_.vpn(victimVa);
    // SlcToAm TLBs (L2): the write-back leaves the (virtual) SLC
    // toward the physical AM and needs a translation, unless the
    // design keeps physical pointers in the SLC (no_wback variant).
    if (traits_.tlbPoint == TlbPoint::SlcToAm) {
        node.shadow.access(vpn, StreamClass::Writeback);
        if (node.tlb && cfg_.translation.writebacksAccessTlb)
            node.accessTlb(vpn, StreamClass::Writeback);
    }

    // The data folds into the node's AM copy; the version was already
    // advanced at store time, so this is pure occupancy.
    node.amPort.acquire(t, cfg_.timing.amHit);
    const VAddr blockVa = layout_.blockAlign(victimVa);
    const AmLine *line = node.am.find(amKeyOf(blockVa));
    if (!line)
        panic("SLC write-back without an AM copy, va ", victimVa);
}

void
CoherenceEngine::preloadPage(PageInfo &page)
{
    // The faulting page must not become an emergency swap victim of
    // its own block installs (its blocks share the colour that is
    // overflowing).
    PagePin pin(*this, page.vpn);
    Node &home = *nodes_[page.home];
    const unsigned blockBytes = cfg_.am.blockBytes;
    const VAddr base = page.vpn << layout_.pageBits();
    for (std::uint64_t i = 0; i < layout_.entriesPerDirPage(); ++i) {
        const VAddr blockVa = base + i * blockBytes;
        DirectoryEntry &e = directory_.entryFor(page.vpn, i);
        VCOMA_ASSERT(!e.resident());
        const VAddr key = amKeyOf(blockVa);
        const VictimChoice v = home.am.chooseVictim(key);
        AmLine &frame = home.am.line(v.lineIndex);
        if (v.kind == VictimKind::Shared) {
            const VAddr victimVa = victimBlockVa(frame);
            frame.state = AmState::Invalid;
            dropSharedVictim(home, victimVa, 0);
        } else if (v.kind == VictimKind::Owned) {
            const VAddr victimVa = victimBlockVa(frame);
            const AmState victimState = frame.state;
            const std::uint32_t victimVersion = frame.version;
            purgeCachesRaw(home, slcKeyOf(victimVa), flcKeyOf(victimVa),
                           blockBytes, writebackMerges);
            frame.state = AmState::Invalid;
            injectBlock(home, victimVa, victimState, victimVersion, 0);
        }
        home.am.installAt(v.lineIndex, key, AmState::MasterShared,
                          e.version);
        e.copyset = 0;
        e.addCopy(page.home);
        e.owner = page.home;
        e.exclusive = false;
    }
}

void
CoherenceEngine::purgePage(PageNum vpn)
{
    // Purging reclaims the directory page (dangling entry pointers)
    // and precedes any unmapping: advancing the epoch kills every
    // fast-filter and page-memo entry filled before this point.
    ++xlatEpoch_;
    PageInfo *page = pageTable_.find(vpn);
    if (!page || !page->resident)
        panic("purge of a non-resident page, vpn ", vpn);
    DirectoryPage *dp = directory_.findPage(vpn);
    const VAddr base = vpn << layout_.pageBits();
    if (dp) {
        for (std::uint64_t i = 0; i < dp->size(); ++i) {
            DirectoryEntry &e = dp->entry(i);
            const VAddr blockVa = base + i * cfg_.am.blockBytes;
            for (unsigned m = 0; m < cfg_.numNodes; ++m) {
                if (!e.holds(m))
                    continue;
                Node &nm = *nodes_[m];
                nm.am.invalidate(amKeyOf(blockVa));
                purgeCachesRaw(nm, slcKeyOf(blockVa), flcKeyOf(blockVa),
                               cfg_.am.blockBytes, writebackMerges);
            }
            e.copyset = 0;
            e.owner = invalidNode;
            e.exclusive = false;
        }
    }
    if (cfg_.checkLevel >= 1) {
        // Post-condition: no node retains any block of the page.
        for (std::uint64_t i = 0; i < layout_.entriesPerDirPage();
             ++i) {
            const VAddr blockVa = base + i * cfg_.am.blockBytes;
            for (auto &nodePtr : nodes_) {
                if (nodePtr->am.find(amKeyOf(blockVa))) {
                    panic("purge left a zombie copy of va ", blockVa,
                          " at node ", nodePtr->id);
                }
            }
        }
    }
    directory_.reclaim(vpn);

    // TLB consistency: private TLB entries for the demapped page must
    // be shot down everywhere (Section 2.2.1); in V-COMA only the
    // home's DLB holds a mapping.
    for (auto &nodePtr : nodes_) {
        if (nodePtr->tlb && nodePtr->tlb->invalidate(vpn))
            ++tlbShootdowns;
        if (nodePtr->tlbSpill && nodePtr->tlbSpill->invalidate(vpn))
            ++tlbShootdowns;
        if (nodePtr->dlb && nodePtr->dlb->invalidate(vpn))
            ++tlbShootdowns;
        if (nodePtr->tlbLanes) {
            for (auto held = nodePtr->tlbLanes->invalidate(vpn); held;
                 held &= held - 1)
                ++tlbLaneShootdowns[static_cast<unsigned>(
                    std::countr_zero(held))];
        }
        for (std::size_t k = 0; k < nodePtr->dlbLanes.size(); ++k) {
            if (nodePtr->dlbLanes[k].invalidate(vpn))
                ++dlbLaneShootdowns[k];
        }
    }
}

} // namespace vcoma
