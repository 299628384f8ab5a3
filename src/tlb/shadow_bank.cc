#include "tlb/shadow_bank.hh"

#include <algorithm>
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

ShadowBank::ShadowBank(const std::vector<unsigned> &sizes,
                       unsigned indexShift, bool hasFa)
    : indexShift_(indexShift),
      index_(hasFa ? std::accumulate(sizes.begin(), sizes.end(),
                                     std::size_t{0})
                   : 0)
{
    if (sizes.size() > 8 * sizeof(Mask))
        fatal("a shadow bank holds at most ", 8 * sizeof(Mask), " sizes");
    for (unsigned entries : sizes) {
        if (!isPowerOf2(entries))
            fatal("shadow TLB size ", entries, " is not a power of two");
    }
}

ShadowBank::ShadowBank(std::uint64_t seed,
                       const std::vector<unsigned> &sizes,
                       unsigned indexShift)
    : ShadowBank(sizes, indexShift, /*hasFa=*/true)
{
    // Member n (counting from 1, FA then DM per size) draws its
    // victims from Rng(seed + 31 * n), the stream a standalone
    // Tlb(entries, 0, seed + 31 * n) uses: every pinned sheet
    // depends on it.
    std::uint64_t n = 0;
    for (unsigned entries : sizes) {
        addFa(entries, Rng(seed + 31 * ++n));
        ++n;  // the DM member's seed: direct-mapped fills draw nothing
        addDm(entries);
    }
}

ShadowBank
ShadowBank::lanes(std::uint64_t seed, const std::vector<unsigned> &sizes,
                  unsigned assoc, unsigned indexShift)
{
    if (assoc > 1)
        fatal("TLB lanes are fully associative or direct-mapped");
    ShadowBank bank(sizes, indexShift, /*hasFa=*/assoc == 0);
    for (unsigned entries : sizes) {
        if (assoc == 0)
            bank.addFa(entries, Rng(seed));
        else
            bank.addDm(entries);
    }
    return bank;
}

void
ShadowBank::addFa(unsigned entries, Rng rng)
{
    fa_.push_back(FaMember{entries, 0, faSlots_.size(), rng, {}, {}});
    faSlots_.resize(faSlots_.size() + entries, FlatIndex<Mask>::emptyKey);
    allFa_ = static_cast<Mask>((std::uint64_t{1} << fa_.size()) - 1);
}

void
ShadowBank::addDm(unsigned entries)
{
    dm_.push_back(DmMember{entries - 1, dmTags_.size()});
    dmTags_.resize(dmTags_.size() + entries, FlatIndex<Mask>::emptyKey);
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
ShadowBank::fill(PageNum vpn, unsigned c)
{
    last_ = vpn;

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
        // A free slot if one exists (the last one invalidated first,
        // then never-used slots in order), else random replacement
        // (paper Section 5.1): Tlb's order exactly.
        unsigned slot;
        if (!m.freed.empty()) {
            slot = m.freed.back();
            m.freed.pop_back();
        } else if (m.filled < m.entries) {
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

std::uint32_t
ShadowBank::invalidate(PageNum vpn)
{
    VCOMA_ASSERT(fa_.empty() || dm_.empty());
    last_ = FlatIndex<Mask>::emptyKey;
    Mask dropped = 0;
    for (std::size_t k = 0; k < dm_.size(); ++k) {
        const DmMember &m = dm_[k];
        PageNum &tag = dmTags_[m.base + ((vpn >> indexShift_) & m.setMask)];
        if (tag == vpn) {
            tag = FlatIndex<Mask>::emptyKey;
            dropped |= Mask{1} << k;
        }
    }
    auto *e = index_.find(vpn);
    if (!e)
        return dropped;
    for (Mask held = e->value; held; held &= held - 1) {
        const unsigned k = static_cast<unsigned>(std::countr_zero(held));
        FaMember &m = fa_[k];
        // Shoot-downs are rare (page swap-outs): a scan of the
        // member's slots beats keeping a per-member slot index.
        PageNum *first = faSlots_.data() + m.base;
        PageNum *slot = std::find(first, first + m.entries, vpn);
        *slot = FlatIndex<Mask>::emptyKey;
        m.freed.push_back(static_cast<unsigned>(slot - first));
    }
    dropped |= e->value;
    index_.erase(e);
    return dropped;
}

void
ShadowBank::forEachEntry(
    const std::function<void(unsigned entries, PageNum vpn)> &fn) const
{
    for (const FaMember &m : fa_) {
        for (unsigned i = 0; i < m.entries; ++i) {
            if (faSlots_[m.base + i] != FlatIndex<Mask>::emptyKey)
                fn(m.entries, faSlots_[m.base + i]);
        }
    }
    for (const DmMember &m : dm_) {
        for (PageNum i = 0; i <= m.setMask; ++i) {
            if (dmTags_[m.base + i] != FlatIndex<Mask>::emptyKey)
                fn(static_cast<unsigned>(m.setMask + 1),
                   dmTags_[m.base + i]);
        }
    }
}

std::optional<ShadowTotals>
ShadowBank::find(unsigned entries, unsigned assoc) const
{
    auto totals = [&](const std::uint64_t *misses) {
        return ShadowTotals{accesses_[0], misses[0], accesses_[1],
                            misses[1]};
    };
    if (assoc == 0) {
        for (const FaMember &m : fa_) {
            if (m.entries == entries)
                return totals(m.misses);
        }
    } else if (assoc == 1) {
        for (const DmMember &m : dm_) {
            if (m.setMask + 1 == entries)
                return totals(m.misses);
        }
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
