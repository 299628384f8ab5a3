#include "tlb/shadow_bank.hh"

#include <bit>
#include <numeric>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace vcoma
{

const std::vector<unsigned> &
shadowSizes()
{
    static const std::vector<unsigned> sizes{8, 16, 32, 64, 128, 256, 512};
    return sizes;
}

ShadowBank::ShadowBank(std::uint64_t seed,
                       const std::vector<unsigned> &sizes,
                       unsigned indexShift)
    : sizes_(sizes), indexShift_(indexShift),
      index_(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}))
{
    if (sizes.size() > 8 * sizeof(Mask))
        fatal("a shadow bank holds at most ", 8 * sizeof(Mask), " sizes");
    // Member n (counting from 1, FA then DM per size) draws its
    // victims from Rng(seed + 31 * n), the stream a standalone
    // Tlb(entries, 0, seed + 31 * n) uses: every pinned sheet
    // depends on it.
    std::uint64_t n = 0;
    for (unsigned entries : sizes) {
        if (!isPowerOf2(entries))
            fatal("shadow TLB size ", entries, " is not a power of two");
        fa_.push_back(FaMember{entries, 0, faSlots_.size(),
                               Rng(seed + 31 * ++n)});
        faSlots_.resize(faSlots_.size() + entries, FlatIndex<Mask>::emptyKey);
        ++n;  // the DM member's seed: direct-mapped fills draw nothing
        dm_.push_back(DmMember{entries - 1, dmTags_.size()});
        dmTags_.resize(dmTags_.size() + entries, FlatIndex<Mask>::emptyKey);
    }
    allFa_ = static_cast<Mask>((std::uint64_t{1} << fa_.size()) - 1);
}

void
ShadowBank::evict(PageNum vpn, Mask bit)
{
    auto *e = index_.find(vpn);
    e->value &= ~bit;
    if (e->value == 0)
        index_.erase(e);
}

void
ShadowBank::access(PageNum vpn, StreamClass cls)
{
    const unsigned c = cls == StreamClass::Demand ? 0 : 1;
    ++accesses_[c];

    for (DmMember &m : dm_) {
        PageNum &tag = dmTags_[m.base + ((vpn >> indexShift_) & m.setMask)];
        if (tag != vpn) {
            tag = vpn;
            ++m.misses[c];
        }
    }

    // One probe decides every FA member; only the missing ones fill.
    auto *e = index_.find(vpn);
    const Mask held = e ? e->value : 0;
    if (held == allFa_)
        return;
    for (Mask missing = allFa_ & ~held; missing; missing &= missing - 1) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(missing));
        FaMember &m = fa_[k];
        ++m.misses[c];
        // An empty slot if one exists, else random replacement
        // (paper Section 5.1).
        unsigned slot;
        if (m.filled < m.entries) {
            slot = m.filled++;
        } else {
            slot = static_cast<unsigned>(m.rng.below(m.entries));
            evict(faSlots_[m.base + slot], Mask{1} << k);
        }
        faSlots_[m.base + slot] = vpn;
    }
    // Every FA member now holds vpn. Evictions may have shifted its
    // entry, so look it up again rather than reuse e.
    if (held)
        index_.find(vpn)->value = allFa_;
    else
        index_.insert(vpn, allFa_);
}

std::optional<ShadowTotals>
ShadowBank::find(unsigned entries, unsigned assoc) const
{
    for (std::size_t k = 0; k < sizes_.size(); ++k) {
        if (sizes_[k] != entries || assoc > 1)
            continue;
        const std::uint64_t *misses =
            assoc == 0 ? fa_[k].misses : dm_[k].misses;
        return ShadowTotals{accesses_[0], misses[0], accesses_[1],
                            misses[1]};
    }
    return std::nullopt;
}

ShadowTotals
sumShadow(const std::vector<ShadowBank> &banks, unsigned entries,
          unsigned assoc)
{
    ShadowTotals totals;
    for (const auto &bank : banks) {
        const auto member = bank.find(entries, assoc);
        if (!member)
            panic("shadow bank has no member with ", entries,
                  " entries, assoc ", assoc);
        totals.demandAccesses += member->demandAccesses;
        totals.demandMisses += member->demandMisses;
        totals.writebackAccesses += member->writebackAccesses;
        totals.writebackMisses += member->writebackMisses;
    }
    return totals;
}

} // namespace vcoma
