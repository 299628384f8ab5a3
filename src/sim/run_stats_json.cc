#include "sim/run_stats_json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/json.hh"
#include "sim/run_stats.hh"
#include "translation/scheme.hh"

namespace vcoma
{

namespace
{

/// Shortest representation that round-trips a double through JSON.
void
putNumber(std::ostream &os, double v)
{
    // RFC 8259 has no representation for inf/nan ("%.17g" would print
    // them bare and the in-tree parser rejects the line); null is the
    // conventional lossy stand-in.
    if (!std::isfinite(v)) {
        os << "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    // Prefer a shorter form when it round-trips exactly.
    char shorter[32];
    for (int prec = 1; prec < 17; ++prec) {
        std::snprintf(shorter, sizeof shorter, "%.*g", prec, v);
        if (std::strtod(shorter, nullptr) == v) {
            os << shorter;
            return;
        }
    }
    os << buf;
}

void
putDist(std::ostream &os, const DistSummary &d)
{
    os << "{\"count\":" << d.count << ",\"sum\":";
    putNumber(os, d.sum);
    os << ",\"min\":";
    putNumber(os, d.min);
    os << ",\"max\":";
    putNumber(os, d.max);
    os << ",\"mean\":";
    putNumber(os, d.mean());
    os << "}";
}

} // namespace

void
writeRunStatsJson(std::ostream &os, const RunStats &s)
{
    os << "{\"schema\":1";
    os << ",\"workload\":\"" << jsonEscape(s.workload) << "\"";
    os << ",\"parameters\":\"" << jsonEscape(s.parameters) << "\"";
    os << ",\"scheme\":\"" << jsonEscape(schemeName(s.scheme)) << "\"";
    os << ",\"numNodes\":" << s.numNodes;
    os << ",\"sharedBytes\":" << s.sharedBytes;
    os << ",\"execTime\":" << s.execTime;

    os << ",\"totals\":{\"refs\":" << s.totalRefs()
       << ",\"busy\":" << s.totalBusy() << ",\"sync\":" << s.totalSync()
       << ",\"locStall\":" << s.totalLocStall()
       << ",\"remStall\":" << s.totalRemStall()
       << ",\"xlatStall\":" << s.totalXlatStall() << "}";

    os << ",\"xlatOverTotalStallPct\":";
    putNumber(os, s.xlatOverTotalStallPct());

    os << ",\"cpus\":[";
    for (std::size_t i = 0; i < s.cpus.size(); ++i) {
        const CpuStats &c = s.cpus[i];
        if (i)
            os << ",";
        os << "{\"refs\":" << c.refs << ",\"reads\":" << c.reads
           << ",\"writes\":" << c.writes << ",\"busy\":" << c.busy
           << ",\"sync\":" << c.sync << ",\"locStall\":" << c.locStall
           << ",\"remStall\":" << c.remStall
           << ",\"xlatStall\":" << c.xlatStall
           << ",\"finish\":" << c.finish
           << ",\"accounted\":" << c.accounted() << "}";
    }
    os << "]";

    os << ",\"shadow\":[";
    for (std::size_t i = 0; i < s.shadow.size(); ++i) {
        const ShadowPoint &p = s.shadow[i];
        if (i)
            os << ",";
        os << "{\"entries\":" << p.entries << ",\"assoc\":" << p.assoc
           << ",\"demandAccesses\":" << p.demandAccesses
           << ",\"demandMisses\":" << p.demandMisses
           << ",\"writebackAccesses\":" << p.writebackAccesses
           << ",\"writebackMisses\":" << p.writebackMisses << "}";
    }
    os << "]";

    os << ",\"tlb\":{\"accesses\":" << s.tlbAccesses
       << ",\"misses\":" << s.tlbMisses
       << ",\"writebackAccesses\":" << s.tlbWritebackAccesses
       << ",\"writebackMisses\":" << s.tlbWritebackMisses << "}";

    os << ",\"pressureProfile\":[";
    for (std::size_t i = 0; i < s.pressureProfile.size(); ++i) {
        if (i)
            os << ",";
        putNumber(os, s.pressureProfile[i]);
    }
    os << "]";

    os << ",\"caches\":{\"flcAccesses\":" << s.flcAccesses
       << ",\"flcMisses\":" << s.flcMisses
       << ",\"slcAccesses\":" << s.slcAccesses
       << ",\"slcMisses\":" << s.slcMisses << ",\"amHits\":" << s.amHits
       << ",\"amMisses\":" << s.amMisses << "}";

    os << ",\"protocol\":{\"remoteReads\":" << s.remoteReads
       << ",\"remoteWrites\":" << s.remoteWrites
       << ",\"upgrades\":" << s.upgrades
       << ",\"invalidations\":" << s.invalidations
       << ",\"injections\":" << s.injections
       << ",\"injectionHops\":" << s.injectionHops
       << ",\"sharedDrops\":" << s.sharedDrops
       << ",\"pageFaults\":" << s.pageFaults
       << ",\"swapOuts\":" << s.swapOuts
       << ",\"tlbShootdowns\":" << s.tlbShootdowns << "}";

    os << ",\"network\":{\"requestMessages\":" << s.requestMessages
       << ",\"blockMessages\":" << s.blockMessages << "}";

    os << ",\"dlb\":{\"filteredRefs\":" << s.dlbFilteredRefs
       << ",\"sharedHits\":" << s.dlbSharedHits
       << ",\"prefetchedFills\":" << s.dlbPrefetchedFills
       << ",\"requestersPerEntry\":";
    putDist(os, s.dlbRequestersPerEntry);
    os << "}";

    // Only slcTlbSpill schemes (VICTIMA) produce spill traffic; the
    // key is omitted otherwise so legacy exports are unchanged.
    if (s.tlbSpillProbes || s.tlbSpillHits || s.tlbSpillFills) {
        os << ",\"tlbSpill\":{\"probes\":" << s.tlbSpillProbes
           << ",\"hits\":" << s.tlbSpillHits
           << ",\"fills\":" << s.tlbSpillFills << "}";
    }

    os << ",\"latency\":{\"remoteRead\":";
    putDist(os, s.remoteReadLatency);
    os << ",\"remoteWrite\":";
    putDist(os, s.remoteWriteLatency);
    os << ",\"dlbFill\":";
    putDist(os, s.dlbFillLatency);
    os << "}";

    os << "}";
}

namespace
{

/// A sheet number: the writer spells a non-finite double as null.
double
numberOf(const JsonValue &v)
{
    return v.isNull() ? std::numeric_limits<double>::quiet_NaN()
                      : v.asNumber();
}

DistSummary
readDist(const JsonValue &v)
{
    return {v.at("count").asUint(), numberOf(v.at("sum")),
            numberOf(v.at("min")), numberOf(v.at("max"))};
}

} // namespace

std::optional<RunStats>
readRunStatsJson(std::string_view text)
{
    RunStats s;
    try {
        const JsonValue doc = JsonValue::parse(text);
        s.workload = doc.at("workload").asString();
        s.parameters = doc.at("parameters").asString();
        if (!tryParseScheme(doc.at("scheme").asString(), s.scheme))
            return std::nullopt;
        // Narrowing casts are safe: a value they truncate no longer
        // re-serialises to the input, so the entry is rejected below.
        s.numNodes = static_cast<unsigned>(doc.at("numNodes").asUint());
        s.sharedBytes = doc.at("sharedBytes").asUint();
        s.execTime = doc.at("execTime").asUint();

        for (const JsonValue &c : doc.at("cpus").asArray()) {
            s.cpus.push_back({c.at("refs").asUint(), c.at("reads").asUint(),
                              c.at("writes").asUint(), c.at("busy").asUint(),
                              c.at("sync").asUint(),
                              c.at("locStall").asUint(),
                              c.at("remStall").asUint(),
                              c.at("xlatStall").asUint(),
                              c.at("finish").asUint()});
        }
        for (const JsonValue &p : doc.at("shadow").asArray()) {
            s.shadow.push_back(
                {static_cast<unsigned>(p.at("entries").asUint()),
                 static_cast<unsigned>(p.at("assoc").asUint()),
                 p.at("demandAccesses").asUint(),
                 p.at("demandMisses").asUint(),
                 p.at("writebackAccesses").asUint(),
                 p.at("writebackMisses").asUint()});
        }

        const JsonValue &tlb = doc.at("tlb");
        s.tlbAccesses = tlb.at("accesses").asUint();
        s.tlbMisses = tlb.at("misses").asUint();
        s.tlbWritebackAccesses = tlb.at("writebackAccesses").asUint();
        s.tlbWritebackMisses = tlb.at("writebackMisses").asUint();

        for (const JsonValue &v : doc.at("pressureProfile").asArray())
            s.pressureProfile.push_back(numberOf(v));

        const JsonValue &caches = doc.at("caches");
        s.flcAccesses = caches.at("flcAccesses").asUint();
        s.flcMisses = caches.at("flcMisses").asUint();
        s.slcAccesses = caches.at("slcAccesses").asUint();
        s.slcMisses = caches.at("slcMisses").asUint();
        s.amHits = caches.at("amHits").asUint();
        s.amMisses = caches.at("amMisses").asUint();

        const JsonValue &proto = doc.at("protocol");
        s.remoteReads = proto.at("remoteReads").asUint();
        s.remoteWrites = proto.at("remoteWrites").asUint();
        s.upgrades = proto.at("upgrades").asUint();
        s.invalidations = proto.at("invalidations").asUint();
        s.injections = proto.at("injections").asUint();
        s.injectionHops = proto.at("injectionHops").asUint();
        s.sharedDrops = proto.at("sharedDrops").asUint();
        s.pageFaults = proto.at("pageFaults").asUint();
        s.swapOuts = proto.at("swapOuts").asUint();
        s.tlbShootdowns = proto.at("tlbShootdowns").asUint();

        const JsonValue &net = doc.at("network");
        s.requestMessages = net.at("requestMessages").asUint();
        s.blockMessages = net.at("blockMessages").asUint();

        const JsonValue &dlb = doc.at("dlb");
        s.dlbFilteredRefs = dlb.at("filteredRefs").asUint();
        s.dlbSharedHits = dlb.at("sharedHits").asUint();
        s.dlbPrefetchedFills = dlb.at("prefetchedFills").asUint();
        s.dlbRequestersPerEntry = readDist(dlb.at("requestersPerEntry"));

        if (const JsonValue *spill = doc.find("tlbSpill")) {
            s.tlbSpillProbes = spill->at("probes").asUint();
            s.tlbSpillHits = spill->at("hits").asUint();
            s.tlbSpillFills = spill->at("fills").asUint();
        }

        const JsonValue &lat = doc.at("latency");
        s.remoteReadLatency = readDist(lat.at("remoteRead"));
        s.remoteWriteLatency = readDist(lat.at("remoteWrite"));
        s.dlbFillLatency = readDist(lat.at("dlbFill"));
    } catch (const JsonError &) {
        return std::nullopt;
    }

    // The writer defines the format: anything it would not emit for
    // the parsed result is rejected, whatever the reader accepted.
    std::ostringstream again;
    writeRunStatsJson(again, s);
    if (again.str() != text)
        return std::nullopt;
    return s;
}

} // namespace vcoma
