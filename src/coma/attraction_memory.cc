#include "coma/attraction_memory.hh"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/bitops.hh"

namespace vcoma
{

const char *
amStateName(AmState s)
{
    switch (s) {
      case AmState::Invalid: return "I";
      case AmState::Shared: return "S";
      case AmState::MasterShared: return "MS";
      case AmState::Exclusive: return "E";
    }
    return "?";
}

AttractionMemory::AttractionMemory(std::string name, const CacheConfig &cfg)
    : name_(std::move(name)), cfg_(cfg)
{
    cfg_.validate(name_.c_str());
    blockBits_ = exactLog2(cfg_.blockBytes);
    setBits_ = exactLog2(cfg_.numSets());
    numLines_ = cfg_.numSets() * cfg_.assoc;
    // operator new aligns to 16 bytes; up to three spare lines reach
    // the next 64-byte boundary.
    constexpr std::size_t perHostLine = 64 / sizeof(AmLine);
    storage_.resize(numLines_ + perHostLine - 1);
    const auto addr = reinterpret_cast<std::uintptr_t>(storage_.data());
    lines_ = storage_.data() + (-addr % 64) / sizeof(AmLine);
}

std::uint64_t
AttractionMemory::setOf(VAddr addr) const
{
    return bits(addr, blockBits_, setBits_);
}

AmLine *
AttractionMemory::find(VAddr addr)
{
    const VAddr key = blockAlign(addr);
    AmLine *base = &lines_[setOf(addr) * cfg_.assoc];
    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        if (base[w].valid() && base[w].key == key)
            return &base[w];
    }
    return nullptr;
}

const AmLine *
AttractionMemory::find(VAddr addr) const
{
    return const_cast<AttractionMemory *>(this)->find(addr);
}

AmState
AttractionMemory::state(VAddr addr) const
{
    const AmLine *line = find(addr);
    return line ? line->state : AmState::Invalid;
}

VictimChoice
AttractionMemory::chooseVictim(VAddr addr) const
{
    const std::size_t base = setOf(addr) * cfg_.assoc;
    const AmLine *bestShared = nullptr;
    std::size_t bestSharedIdx = 0;
    const AmLine *bestOwned = nullptr;
    std::size_t bestOwnedIdx = 0;

    for (unsigned w = 0; w < cfg_.assoc; ++w) {
        const AmLine &line = lines_[base + w];
        if (!line.valid())
            return {VictimKind::Empty, base + w};
        if (line.state == AmState::Shared) {
            if (!bestShared || line.lastUse < bestShared->lastUse) {
                bestShared = &line;
                bestSharedIdx = base + w;
            }
        } else if (!bestOwned || line.lastUse < bestOwned->lastUse) {
            bestOwned = &line;
            bestOwnedIdx = base + w;
        }
    }
    if (bestShared)
        return {VictimKind::Shared, bestSharedIdx};
    return {VictimKind::Owned, bestOwnedIdx};
}

bool
AttractionMemory::chooseInjectionVictim(VAddr addr, VictimChoice &out) const
{
    const VictimChoice choice = chooseVictim(addr);
    if (choice.kind == VictimKind::Owned)
        return false;
    out = choice;
    return true;
}

AmLine &
AttractionMemory::installAt(std::size_t lineIndex, VAddr addr, AmState st,
                            std::uint32_t version)
{
    VCOMA_ASSERT(st != AmState::Invalid);
    AmLine &line = this->line(lineIndex);
    VCOMA_ASSERT(!line.valid());
    line.key = blockAlign(addr);
    VCOMA_ASSERT(setOf(line.key) * cfg_.assoc <= lineIndex &&
                 lineIndex < (setOf(line.key) + 1) * cfg_.assoc);
    line.state = st;
    line.version = version;
    line.lastUse = nextStamp();
    ++installs;
    return line;
}

AmState
AttractionMemory::invalidate(VAddr addr)
{
    AmLine *line = find(addr);
    if (!line)
        return AmState::Invalid;
    const AmState prior = line->state;
    line->state = AmState::Invalid;
    ++invalidations;
    return prior;
}

std::uint64_t
AttractionMemory::validLines() const
{
    std::uint64_t count = 0;
    for (std::size_t i = 0; i < numLines_; ++i) {
        if (lines_[i].valid())
            ++count;
    }
    return count;
}

void
AttractionMemory::renumberStamps()
{
    const unsigned assoc = cfg_.assoc;
    std::vector<unsigned> order(assoc);
    for (std::size_t base = 0; base < numLines_; base += assoc) {
        AmLine *set = &lines_[base];
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [set](unsigned a, unsigned b) {
                             return set[a].lastUse < set[b].lastUse;
                         });
        for (unsigned rank = 0; rank < assoc; ++rank)
            set[order[rank]].lastUse = rank + 1;
    }
    useClock_ = assoc;
}

} // namespace vcoma
