#include "check/invariant_checker.hh"

#include <algorithm>
#include <sstream>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "sim/machine.hh"

namespace vcoma
{

namespace
{

std::string
hexVa(VAddr va)
{
    std::ostringstream os;
    os << "0x" << std::hex << va;
    return os.str();
}

void
report(std::vector<Violation> &out, const char *invariant,
       std::string detail)
{
    out.push_back({invariant, std::move(detail)});
}

} // namespace

VAddr
InvariantChecker::amKeyOf(const PageInfo &page, VAddr blockVa) const
{
    if (m_.traits().amVirtual)
        return blockVa;
    const unsigned pageBits = m_.layout().pageBits();
    return (page.frame << pageBits) | (blockVa & mask(pageBits));
}

std::vector<Violation>
InvariantChecker::checkAll() const
{
    ++sweeps_;
    std::vector<Violation> out;
    checkDirectory(out);
    checkOrphanLines(out);
    checkPressure(out);
    checkTranslationResidency(out);
    // The engine's hit-filter entries must agree with the structures
    // they shadow (panics internally on a stale pointer; a filter bug
    // shows up as a crash here rather than as silent divergence).
    m_.engine().verifyFastFilter();
    return out;
}

void
InvariantChecker::enforce() const
{
    const std::vector<Violation> violations = checkAll();
    if (violations.empty())
        return;
    std::ostringstream os;
    os << "coherence sanitizer: " << violations.size()
       << " invariant violation(s)";
    const std::size_t shown = std::min<std::size_t>(violations.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
        os << "\n  [" << violations[i].invariant << "] "
           << violations[i].detail;
    }
    if (shown < violations.size())
        os << "\n  ... " << (violations.size() - shown) << " more";
    panic(os.str());
}

void
InvariantChecker::checkDirectory(std::vector<Violation> &out) const
{
    const unsigned pageBits = m_.layout().pageBits();
    const unsigned blockBytes = m_.config().am.blockBytes;
    const unsigned numNodes = m_.numNodes();

    for (const auto &[vpn, dirPage] : m_.directory().pages()) {
        const PageInfo *page = m_.pageTable().find(vpn);
        if (!page) {
            report(out, "dir-page-orphan",
                   "directory page for vpn " + hexVa(vpn) +
                       " has no page-table entry");
            continue;
        }
        if (!page->resident) {
            report(out, "dir-page-orphan",
                   "swapped-out vpn " + hexVa(vpn) +
                       " still holds a directory page");
            continue;
        }
        for (std::uint64_t i = 0; i < dirPage.size(); ++i) {
            const DirectoryEntry &e = dirPage.entry(i);
            const VAddr blockVa =
                (static_cast<VAddr>(vpn) << pageBits) + i * blockBytes;
            if (!e.resident()) {
                // The block was never touched or was dropped whole;
                // either way no node may still hold a copy.
                if (e.copyset != 0) {
                    report(out, "lost-last-copy",
                           "block " + hexVa(blockVa) + " has copyset " +
                               hexVa(e.copyset) + " but no owner");
                }
                continue;
            }
            const VAddr amKey = amKeyOf(*page, blockVa);
            unsigned owners = 0;
            for (NodeId n = 0; n < numNodes; ++n) {
                const AmLine *line = m_.node(n).am.find(amKey);
                const bool hasCopy = line != nullptr && line->valid();
                if (hasCopy != e.holds(n)) {
                    report(out, "copyset-agreement",
                           "block " + hexVa(blockVa) + ": node " +
                               std::to_string(n) +
                               (hasCopy ? " holds a copy missing from"
                                        : " is in") +
                               " copyset " + hexVa(e.copyset));
                }
                if (!hasCopy)
                    continue;
                if (line->version != e.version) {
                    report(out, "version-agreement",
                           "block " + hexVa(blockVa) + ": node " +
                               std::to_string(n) + " holds version " +
                               std::to_string(line->version) +
                               ", directory says " +
                               std::to_string(e.version));
                }
                if (isOwnerState(line->state)) {
                    ++owners;
                    if (e.owner != n) {
                        report(out, "single-owner",
                               "block " + hexVa(blockVa) + ": node " +
                                   std::to_string(n) + " is " +
                                   amStateName(line->state) +
                                   " but the directory owner is " +
                                   std::to_string(e.owner));
                    }
                    if ((line->state == AmState::Exclusive) !=
                        e.exclusive) {
                        report(out, "exclusive-state",
                               "block " + hexVa(blockVa) +
                                   ": owner state " +
                                   amStateName(line->state) +
                                   " disagrees with directory "
                                   "exclusive=" +
                                   std::to_string(e.exclusive));
                    }
                } else if (e.owner == n) {
                    report(out, "single-owner",
                           "block " + hexVa(blockVa) +
                               ": directory owner " + std::to_string(n) +
                               " holds state " +
                               amStateName(line->state));
                }
            }
            if (owners != 1) {
                report(out, "single-owner",
                       "block " + hexVa(blockVa) + " has " +
                           std::to_string(owners) +
                           " master/owner copies (want exactly 1)");
            }
            if (e.exclusive && e.copies() != 1) {
                report(out, "exclusive-state",
                       "block " + hexVa(blockVa) + " is exclusive with " +
                           std::to_string(e.copies()) + " copies");
            }
        }
    }

    // The other direction of "no lost last copy": every block of a
    // resident page that any node caches must have directory state.
    // (Covered by checkOrphanLines via copyset membership.)
}

void
InvariantChecker::checkOrphanLines(std::vector<Violation> &out) const
{
    const unsigned numNodes = m_.numNodes();
    const bool amVirtual = m_.traits().amVirtual;
    const unsigned pageBits = m_.layout().pageBits();

    for (NodeId n = 0; n < numNodes; ++n) {
        const AttractionMemory &am = m_.node(n).am;
        for (std::size_t i = 0; i < am.numLines(); ++i) {
            const AmLine &line = am.line(i);
            if (!line.valid())
                continue;
            const PageInfo *page = nullptr;
            if (amVirtual) {
                page = m_.pageTable().find(line.key >> pageBits);
            } else {
                page = m_.pageTable().pageOfFrame(line.key >> pageBits);
            }
            if (!page || !page->resident) {
                report(out, "orphan-line",
                       "node " + std::to_string(n) +
                           " holds a valid line (key " + hexVa(line.key) +
                           ", state " + amStateName(line.state) +
                           ") of a non-resident page");
                continue;
            }
            DirectoryPage *dirPage = m_.directory().findPage(page->vpn);
            const std::uint64_t idx =
                (line.key & mask(pageBits)) /
                m_.config().am.blockBytes;
            if (!dirPage || !dirPage->entry(idx).holds(n)) {
                report(out, "orphan-line",
                       "node " + std::to_string(n) +
                           " holds a valid line (key " + hexVa(line.key) +
                           ") absent from the directory copyset");
            }
        }
    }
}

void
InvariantChecker::checkPressure(std::vector<Violation> &out) const
{
    const PressureTracker &pressure = m_.pressure();
    std::vector<std::uint64_t> counts(pressure.numSets(), 0);
    for (const auto &[vpn, page] : m_.pageTable().entries()) {
        if (!page.resident)
            continue;
        if (page.colour >= counts.size()) {
            report(out, "pressure-accounting",
                   "vpn " + hexVa(vpn) + " has colour " +
                       std::to_string(page.colour) + " but only " +
                       std::to_string(counts.size()) +
                       " global page sets exist");
            continue;
        }
        ++counts[page.colour];
    }
    for (std::uint64_t c = 0; c < counts.size(); ++c) {
        if (pressure.occupied(c) != counts[c]) {
            report(out, "pressure-accounting",
                   "colour " + std::to_string(c) + " tracks " +
                       std::to_string(pressure.occupied(c)) +
                       " resident pages but the page table has " +
                       std::to_string(counts[c]));
        }
    }
}

void
InvariantChecker::checkTranslationResidency(
    std::vector<Violation> &out) const
{
    // Shadow banks are observers that deliberately survive page
    // purges, so only the configured TLBs/DLBs (and their lanes) are
    // held to this.
    const unsigned numNodes = m_.numNodes();
    for (NodeId n = 0; n < numNodes; ++n) {
        const Node &node = m_.node(n);
        auto checkVpn = [&](const std::string &what, bool isDlb,
                            PageNum vpn) {
            const PageInfo *page = m_.pageTable().find(vpn);
            if (!page || !page->resident) {
                report(out, "stale-translation",
                       what + " at node " + std::to_string(n) +
                           " caches vpn " + hexVa(vpn) +
                           " of a non-resident page");
                return;
            }
            if (isDlb && page->home != n) {
                report(out, "stale-translation",
                       what + " at node " + std::to_string(n) +
                           " caches vpn " + hexVa(vpn) + " homed at node " +
                           std::to_string(page->home));
            }
        };
        auto check = [&](const Tlb &tlb, bool isDlb) {
            tlb.forEachEntry([&](PageNum vpn) {
                checkVpn(isDlb ? "DLB" : "TLB", isDlb, vpn);
            });
        };
        if (node.tlb)
            check(*node.tlb, /*isDlb=*/false);
        // VICTIMA's spill structure holds real translations too:
        // purgePage must shoot them down like any TLB entry.
        if (node.tlbSpill)
            check(*node.tlbSpill, /*isDlb=*/false);
        if (node.dlb)
            check(node.dlb->tlb(), /*isDlb=*/true);
        // Lanes are the sibling configs' TLBs and DLBs, whatever the
        // configured scheme: purgePage shoots them down too.
        if (node.tlbLanes) {
            node.tlbLanes->forEachEntry([&](unsigned entries, PageNum vpn) {
                checkVpn(std::to_string(entries) + "-entry TLB lane", false,
                         vpn);
            });
        }
        for (const Dlb &lane : node.dlbLanes) {
            lane.tlb().forEachEntry([&](PageNum vpn) {
                checkVpn(std::to_string(lane.tlb().entries()) +
                             "-entry DLB lane",
                         true, vpn);
            });
        }
    }
}

} // namespace vcoma
