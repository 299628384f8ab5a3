#include "tlb/tlb.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace vcoma
{

Tlb::Tlb(unsigned entries, unsigned assoc, std::uint64_t seed,
         unsigned indexShift)
    : entries_(entries), assoc_(assoc), indexShift_(indexShift),
      rng_(seed), faIndex_(assoc == 0 ? entries : 0)
{
    if (entries_ == 0) {
        // A 0-entry TLB models software-managed translation: every
        // access traps (the paper's reading of Jacob & Mudge [15] as
        // "an L2-TLB scheme which has 0 entries", Section 3.3).
        return;
    }
    if (assoc_ == 0) {
        faSlots_.assign(entries_, noVpn);
        faFree_.reserve(entries_);
        for (unsigned i = 0; i < entries_; ++i)
            faFree_.push_back(entries_ - 1 - i);
    } else {
        if (entries_ % assoc_ != 0)
            fatal("TLB entries (", entries_, ") not divisible by assoc (",
                  assoc_, ")");
        numSets_ = entries_ / assoc_;
        if (!isPowerOf2(numSets_))
            fatal("TLB set count must be a power of two");
        saTags_.assign(entries_, noVpn);
    }
}

std::string
Tlb::organisation() const
{
    if (assoc_ == 0)
        return "FA";
    if (assoc_ == 1)
        return "DM";
    return std::to_string(assoc_) + "way";
}

bool
Tlb::lookupAndFill(PageNum vpn, PageNum *evictedOut)
{
    if (evictedOut)
        *evictedOut = noVpn;
    if (entries_ == 0)
        return false;
    if (vpn == last_)
        return true;
    last_ = vpn;
    if (assoc_ == 0) {
        if (faIndex_.find(vpn))
            return true;
        // Fill: an empty slot if one exists, else random replacement
        // (paper Section 5.1).
        unsigned slot;
        if (!faFree_.empty()) {
            slot = faFree_.back();
            faFree_.pop_back();
        } else {
            slot = static_cast<unsigned>(rng_.below(entries_));
            if (evictedOut)
                *evictedOut = faSlots_[slot];
            faIndex_.erase(faIndex_.find(faSlots_[slot]));
        }
        faSlots_[slot] = vpn;
        faIndex_.insert(vpn, slot);
        return false;
    }

    const unsigned set = static_cast<unsigned>(
        (vpn >> indexShift_) & (numSets_ - 1));
    PageNum *base = &saTags_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w] == vpn)
            return true;
    }
    // Fill an empty way if available, else a random victim.
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w] == noVpn) {
            base[w] = vpn;
            return false;
        }
    }
    const unsigned victim = static_cast<unsigned>(rng_.below(assoc_));
    if (evictedOut)
        *evictedOut = base[victim];
    base[victim] = vpn;
    return false;
}

bool
Tlb::access(PageNum vpn, StreamClass cls, PageNum *evictedOut)
{
    const bool hit = lookupAndFill(vpn, evictedOut);
    if (cls == StreamClass::Demand) {
        ++demandAccesses;
        if (!hit)
            ++demandMisses;
    } else {
        ++writebackAccesses;
        if (!hit)
            ++writebackMisses;
    }
    return hit;
}

bool
Tlb::contains(PageNum vpn) const
{
    if (entries_ == 0)
        return false;
    if (assoc_ == 0)
        return faIndex_.find(vpn) != nullptr;
    const unsigned set = static_cast<unsigned>(
        (vpn >> indexShift_) & (numSets_ - 1));
    const PageNum *base = &saTags_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w] == vpn)
            return true;
    }
    return false;
}

bool
Tlb::invalidate(PageNum vpn)
{
    if (entries_ == 0)
        return false;
    if (vpn == last_)
        last_ = noVpn;
    if (assoc_ == 0) {
        auto *e = faIndex_.find(vpn);
        if (!e)
            return false;
        faFree_.push_back(e->value);
        faSlots_[e->value] = noVpn;
        faIndex_.erase(e);
        return true;
    }
    const unsigned set = static_cast<unsigned>(
        (vpn >> indexShift_) & (numSets_ - 1));
    PageNum *base = &saTags_[static_cast<std::size_t>(set) * assoc_];
    for (unsigned w = 0; w < assoc_; ++w) {
        if (base[w] == vpn) {
            base[w] = noVpn;
            return true;
        }
    }
    return false;
}

void
Tlb::forEachEntry(const std::function<void(PageNum)> &fn) const
{
    if (entries_ == 0)
        return;
    if (assoc_ == 0) {
        for (PageNum vpn : faSlots_) {
            if (vpn != noVpn)
                fn(vpn);
        }
        return;
    }
    for (PageNum vpn : saTags_) {
        if (vpn != noVpn)
            fn(vpn);
    }
}

void
Tlb::addStats(StatGroup &g, const std::string &prefix) const
{
    g.addCounter(prefix + "demandAccesses", demandAccesses);
    g.addCounter(prefix + "demandMisses", demandMisses);
    g.addCounter(prefix + "writebackAccesses", writebackAccesses);
    g.addCounter(prefix + "writebackMisses", writebackMisses);
}

void
Tlb::flush()
{
    last_ = noVpn;
    if (entries_ == 0)
        return;
    if (assoc_ == 0) {
        faIndex_.clear();
        std::fill(faSlots_.begin(), faSlots_.end(), noVpn);
        faFree_.clear();
        for (unsigned i = 0; i < entries_; ++i)
            faFree_.push_back(entries_ - 1 - i);
    } else {
        std::fill(saTags_.begin(), saTags_.end(), noVpn);
    }
}

} // namespace vcoma
