#include "workloads/workload.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/logging.hh"
#include "workloads/factories.hh"
#include "workloads/replay.hh"

namespace vcoma
{

namespace
{

std::string
upperCased(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return s;
}

/**
 * Apply one inline knob list ("skew=1.2,read=0.5,ws=2") to @p params.
 * Knob names are case-insensitive; unknown names and malformed
 * numbers are fatal so a typoed sweep never silently runs with the
 * defaults.
 */
void
applyKnobs(const std::string &spelling, const std::string &knobs,
           WorkloadParams &params)
{
    std::size_t at = 0;
    while (at < knobs.size()) {
        std::size_t end = knobs.find(',', at);
        if (end == std::string::npos)
            end = knobs.size();
        const std::string item = knobs.substr(at, end - at);
        at = end + 1;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0 ||
            eq + 1 == item.size()) {
            fatal("workload '", spelling, "': knob '", item,
                  "' is not of the form name=value");
        }
        const std::string key = upperCased(item.substr(0, eq));
        const std::string value = item.substr(eq + 1);
        char *rest = nullptr;
        const double v = std::strtod(value.c_str(), &rest);
        if (rest == value.c_str() || *rest != '\0') {
            fatal("workload '", spelling, "': knob '", item,
                  "' has a malformed number");
        }
        if (key == "SKEW") {
            if (v < 0)
                fatal("workload '", spelling, "': skew must be >= 0");
            params.skew = v;
        } else if (key == "READ") {
            if (v < 0 || v > 1) {
                fatal("workload '", spelling,
                      "': read ratio must be in [0, 1]");
            }
            params.readRatio = v;
        } else if (key == "WS") {
            if (v <= 0)
                fatal("workload '", spelling, "': ws must be > 0");
            params.workingSet = v;
        } else {
            fatal("workload '", spelling, "': unknown knob '",
                  item.substr(0, eq), "' (expected skew/read/ws)");
        }
    }
}

} // namespace

std::span<const MemRef>
Workload::stream(unsigned tid)
{
    fatal("workload '", name(), "' has no materialised stream for "
          "thread ", tid, " (materialised() is false)");
}

Generator<MemRef>
replayStream(std::span<const MemRef> refs)
{
    for (const MemRef &ref : refs)
        co_yield ref;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "RADIX", "FFT", "FMM", "OCEAN", "RAYTRACE", "BARNES",
        "UNIFORM", "STRIDE", "HOTSPOT",
        "KVLOOKUP", "GRAPH", "STREAMJOIN",
    };
    return names;
}

bool
isTraceSpelling(const std::string &spelling)
{
    constexpr const char *prefix = "TRACE:";
    constexpr std::size_t len = 6;
    if (spelling.size() <= len)
        return false;
    for (std::size_t i = 0; i < len; ++i) {
        if (std::toupper(static_cast<unsigned char>(spelling[i])) !=
            prefix[i]) {
            return false;
        }
    }
    return true;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, const WorkloadParams &params)
{
    // External packed traces are first-class workloads: the path is
    // taken verbatim (case preserved), the trace supplies the thread
    // count, name, parameters and footprint. A corrupt or truncated
    // file throws TraceFormatError from the ReplayWorkload ctor.
    if (isTraceSpelling(name))
        return std::make_unique<ReplayWorkload>(name.substr(6));

    std::string base = name;
    WorkloadParams effective = params;
    if (const std::size_t colon = name.find(':');
        colon != std::string::npos) {
        base = name.substr(0, colon);
        applyKnobs(name, name.substr(colon + 1), effective);
    }

    const std::string upper = upperCased(base);
    if (upper == "RADIX")
        return makeRadix(effective);
    if (upper == "FFT")
        return makeFft(effective);
    if (upper == "FMM")
        return makeFmm(effective);
    if (upper == "OCEAN")
        return makeOcean(effective);
    if (upper == "RAYTRACE")
        return makeRaytrace(effective);
    if (upper == "BARNES")
        return makeBarnes(effective);
    if (upper == "UNIFORM")
        return makeUniform(effective);
    if (upper == "STRIDE")
        return makeStride(effective);
    if (upper == "HOTSPOT")
        return makeHotspot(effective);
    if (upper == "KVLOOKUP")
        return makeKvLookup(effective);
    if (upper == "GRAPH")
        return makeGraph(effective);
    if (upper == "STREAMJOIN")
        return makeStreamJoin(effective);
    fatal("unknown workload '", name, "'");
}

} // namespace vcoma
