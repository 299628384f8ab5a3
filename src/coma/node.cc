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

} // namespace

std::vector<unsigned>
laneSizes(const MachineConfig &cfg)
{
    const TranslationConfig &tc = cfg.translation;
    if (cfg.timedTranslation || schemeTraits(tc.scheme).slcTlbSpill ||
        tc.assoc > 1)
        return {};
    std::vector<unsigned> sizes;
    for (unsigned entries : shadowSizes()) {
        if (entries != tc.entries)
            sizes.push_back(entries);
    }
    return sizes;
}

Node::Node(NodeId nodeId, const MachineConfig &cfg,
           const SchemeTraits &traits)
    : id(nodeId),
      flc(nodeName("flc", nodeId), cfg.flc),
      slc(nodeName("slc", nodeId), cfg.slc),
      am(nodeName("am", nodeId), cfg.am),
      shadow(cfg.seed + 0x5bd1e995ULL * (nodeId + 1), shadowSizes(),
             traits.perNodeTlb ? 0 : exactLog2(cfg.numNodes))
{
    const auto &tc = cfg.translation;
    if (traits.perNodeTlb) {
        tlb = std::make_unique<Tlb>(tc.entries, tc.assoc,
                                    cfg.seed + 77 * (nodeId + 1));
        if (const auto lanes = laneSizes(cfg); !lanes.empty()) {
            tlbLanes = std::make_unique<ShadowBank>(ShadowBank::lanes(
                cfg.seed + 77 * (nodeId + 1), lanes, tc.assoc));
        }
        if (traits.slcTlbSpill) {
            // One spilled translation entry per SLC frame, at the
            // SLC's associativity: the Victima model of PTEs living
            // in otherwise-underused SLC ways.
            tlbSpill = std::make_unique<Tlb>(
                static_cast<unsigned>(cfg.slc.numBlocks()), cfg.slc.assoc,
                cfg.seed + 55 * (nodeId + 1));
        }
    } else if (traits.hasDlb) {
        // A home's DLB only sees pages whose low vpn bits equal the
        // home id: index with the bits above them (Figure 6).
        dlb = std::make_unique<Dlb>(tc.entries, tc.assoc,
                                    cfg.seed + 99 * (nodeId + 1),
                                    exactLog2(cfg.numNodes));
        const auto lanes = laneSizes(cfg);
        dlbLanes.reserve(lanes.size());
        for (unsigned entries : lanes) {
            dlbLanes.emplace_back(entries, tc.assoc,
                                  cfg.seed + 99 * (nodeId + 1),
                                  exactLog2(cfg.numNodes));
        }
    }
    // NMT: neither — translation is computed at the home node.
}

} // namespace vcoma
