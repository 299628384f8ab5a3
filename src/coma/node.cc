#include "coma/node.hh"

#include <string>

#include "common/bitops.hh"

namespace vcoma
{

namespace
{

std::string
nodeName(const char *unit, NodeId id)
{
    return std::string(unit) + std::to_string(id);
}

/** Both of a node's shadow banks draw on this seed. */
std::uint64_t
shadowSeed(const MachineConfig &cfg, NodeId id)
{
    return cfg.seed + 0x5bd1e995ULL * (id + 1);
}

/** All three caches virtually indexed, no spill (see siblingLanes()). */
bool
virtuallyIndexed(const SchemeTraits &t)
{
    return t.flcVirtual && t.slcVirtual && t.amVirtual && !t.slcTlbSpill;
}

} // namespace

std::vector<Lane>
siblingLanes(const MachineConfig &cfg)
{
    const TranslationConfig &tc = cfg.translation;
    const SchemeTraits traits = schemeTraits(tc.scheme);
    if (cfg.timedTranslation || traits.slcTlbSpill || tc.assoc > 1)
        return {};
    // V-COMA's DLB sets a page's reference bit at every directory
    // lookup, write-back notices and injections included. Once the
    // decay daemon clears the bits, the page daemon's victims (hence
    // the trajectory) differ from L3's, so the class needs it off.
    const bool classWide =
        virtuallyIndexed(traits) && cfg.refBitDecayPeriod == 0;
    std::vector<Lane> lanes;
    for (Scheme scheme : allRegisteredSchemes()) {
        const bool sibling =
            scheme == tc.scheme ||
            (classWide && virtuallyIndexed(schemeTraits(scheme)));
        if (!sibling)
            continue;
        for (unsigned entries : shadowSizes()) {
            if (scheme != tc.scheme || entries != tc.entries)
                lanes.push_back({scheme, entries});
        }
    }
    return lanes;
}

Node::Node(NodeId nodeId, const MachineConfig &cfg,
           const SchemeTraits &traits)
    : id(nodeId),
      flc(nodeName("flc", nodeId), cfg.flc),
      slc(nodeName("slc", nodeId), cfg.slc),
      am(nodeName("am", nodeId), cfg.am),
      shadow(shadowSeed(cfg, nodeId), shadowSizes(),
             traits.homeTranslation ? exactLog2(cfg.numNodes) : 0)
{
    const auto &tc = cfg.translation;
    const std::uint64_t tlbSeed = cfg.seed + 77 * (nodeId + 1);
    const std::uint64_t dlbSeed = cfg.seed + 99 * (nodeId + 1);
    // A home's DLB only sees pages whose low vpn bits equal the home
    // id: index with the bits above them (Figure 6).
    const unsigned dlbShift = exactLog2(cfg.numNodes);
    if (traits.perNodeTlb) {
        tlb = std::make_unique<Tlb>(tc.entries, tc.assoc, tlbSeed);
        if (traits.slcTlbSpill) {
            // One spilled translation entry per SLC frame, at the
            // SLC's associativity: the Victima model of PTEs living
            // in otherwise-underused SLC ways.
            tlbSpill = std::make_unique<Tlb>(
                static_cast<unsigned>(cfg.slc.numBlocks()), cfg.slc.assoc,
                cfg.seed + 55 * (nodeId + 1));
        }
    } else if (traits.hasDlb) {
        dlb = std::make_unique<Dlb>(tc.entries, tc.assoc, dlbSeed, dlbShift);
    }
    // NMT: neither — translation is computed at the home node.

    std::vector<unsigned> tlbSizes;
    bool otherPoint = false;
    for (const Lane &lane : siblingLanes(cfg)) {
        const SchemeTraits t = schemeTraits(lane.scheme);
        if (t.perNodeTlb)
            tlbSizes.push_back(lane.entries);
        else if (t.hasDlb)
            dlbLanes.emplace_back(lane.entries, tc.assoc, dlbSeed, dlbShift);
        otherPoint |= t.homeTranslation != traits.homeTranslation;
    }
    if (!tlbSizes.empty()) {
        tlbLanes = std::make_unique<ShadowBank>(
            ShadowBank::lanes(tlbSeed, tlbSizes, tc.assoc));
    }
    if (otherPoint) {
        siblingShadow = std::make_unique<ShadowBank>(
            shadowSeed(cfg, nodeId), shadowSizes(),
            traits.homeTranslation ? 0 : dlbShift);
    }
}

} // namespace vcoma
