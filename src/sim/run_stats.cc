#include "sim/run_stats.hh"

#include "common/logging.hh"

namespace vcoma
{

void
clearTranslationFields(RunStats &stats)
{
    stats.scheme = Scheme{};
    stats.shadow.clear();
    stats.tlbAccesses = stats.tlbMisses = 0;
    stats.tlbWritebackAccesses = stats.tlbWritebackMisses = 0;
    stats.tlbShootdowns = 0;
    stats.tlbSpillProbes = stats.tlbSpillHits = stats.tlbSpillFills = 0;
    stats.dlbFilteredRefs = stats.dlbSharedHits = 0;
    stats.dlbPrefetchedFills = 0;
    stats.dlbRequestersPerEntry = {};
    stats.dlbFillLatency = {};
}

std::uint64_t
RunStats::totalRefs() const
{
    std::uint64_t total = 0;
    for (const auto &c : cpus)
        total += c.refs;
    return total;
}

std::uint64_t
RunStats::totalBusy() const
{
    std::uint64_t total = 0;
    for (const auto &c : cpus)
        total += c.busy;
    return total;
}

std::uint64_t
RunStats::totalSync() const
{
    std::uint64_t total = 0;
    for (const auto &c : cpus)
        total += c.sync;
    return total;
}

std::uint64_t
RunStats::totalLocStall() const
{
    std::uint64_t total = 0;
    for (const auto &c : cpus)
        total += c.locStall;
    return total;
}

std::uint64_t
RunStats::totalRemStall() const
{
    std::uint64_t total = 0;
    for (const auto &c : cpus)
        total += c.remStall;
    return total;
}

std::uint64_t
RunStats::totalXlatStall() const
{
    std::uint64_t total = 0;
    for (const auto &c : cpus)
        total += c.xlatStall;
    return total;
}

const ShadowPoint &
RunStats::shadowPoint(unsigned entries, unsigned assoc) const
{
    for (const auto &p : shadow) {
        if (p.entries == entries && p.assoc == assoc)
            return p;
    }
    fatal("no shadow point for ", entries, " entries, assoc ", assoc,
          " in run of ", workload);
}

double
RunStats::missesPerNode(unsigned entries, unsigned assoc,
                        bool includeWritebacks) const
{
    const ShadowPoint &p = shadowPoint(entries, assoc);
    const std::uint64_t misses =
        p.demandMisses + (includeWritebacks ? p.writebackMisses : 0);
    // A default-constructed RunStats has numNodes == 0; report 0
    // rather than dividing into inf/NaN (missRatePct guards the same
    // way on totalRefs()).
    return numNodes ? static_cast<double>(misses) / numNodes : 0.0;
}

double
RunStats::missRatePct(unsigned entries, unsigned assoc,
                      bool includeWritebacks) const
{
    const ShadowPoint &p = shadowPoint(entries, assoc);
    const std::uint64_t misses =
        p.demandMisses + (includeWritebacks ? p.writebackMisses : 0);
    const std::uint64_t refs = totalRefs();
    return refs ? 100.0 * static_cast<double>(misses) / refs : 0.0;
}

double
RunStats::xlatOverTotalStallPct() const
{
    const std::uint64_t stall = totalLocStall() + totalRemStall();
    if (stall == 0)
        return 0.0;
    return 100.0 * static_cast<double>(totalXlatStall()) / stall;
}

} // namespace vcoma
