#include "translation/scheme.hh"

#include "common/logging.hh"

namespace vcoma
{

namespace
{

SchemeTraits
makeTraits(Scheme s, bool flcV, bool slcV, bool amV, bool perNodeTlb,
           PlacementPolicy placement, TlbPoint point, bool hasDlb,
           bool homeXlat, bool spill, bool countsWb, bool fastR, bool fastW)
{
    SchemeTraits t;
    t.scheme = s;
    t.flcVirtual = flcV;
    t.slcVirtual = slcV;
    t.amVirtual = amV;
    t.perNodeTlb = perNodeTlb;
    t.placement = placement;
    t.tlbPoint = point;
    t.hasDlb = hasDlb;
    t.homeTranslation = homeXlat;
    t.slcTlbSpill = spill;
    t.countsWritebacks = countsWb;
    t.fastReadFilter = fastR;
    t.fastWriteFilter = fastW;
    return t;
}

std::vector<SchemeDescriptor>
buildRegistry()
{
    using P = PlacementPolicy;
    using T = TlbPoint;
    std::vector<SchemeDescriptor> r;

    r.push_back({Scheme::L0, "L0-TLB", "L0-TLB", {"L0"},
                 "classic TLB before the FLC; all levels physical",
                 makeTraits(Scheme::L0, false, false, false, true,
                            P::RoundRobin, T::PreFlc, false, false, false,
                            false, false, false),
                 /*legacy=*/true});

    r.push_back({Scheme::L1, "L1-TLB", "L1-TLB", {"L1"},
                 "TLB between virtual FLC and physical SLC",
                 makeTraits(Scheme::L1, true, false, false, true,
                            P::RoundRobin, T::FlcToSlc, false, false, false,
                            false, true, false),
                 /*legacy=*/true});

    r.push_back({Scheme::L2, "L2-TLB", "L2-TLB", {"L2"},
                 "TLB between virtual SLC and physical attraction memory",
                 makeTraits(Scheme::L2, true, true, false, true,
                            P::RoundRobin, T::SlcToAm, false, false, false,
                            true, true, true),
                 /*legacy=*/true});

    r.push_back({Scheme::L3, "L3-TLB", "L3-TLB", {"L3"},
                 "TLB on local-node (attraction memory) miss; "
                 "coloured placement",
                 makeTraits(Scheme::L3, true, true, true, true,
                            P::Coloured, T::NodeExit, false, false, false,
                            true, true, true),
                 /*legacy=*/true});

    r.push_back({Scheme::VCOMA, "V-COMA", "DLB", {"VCOMA"},
                 "no TLB; DLB at the home node inside the protocol",
                 makeTraits(Scheme::VCOMA, true, true, true, false,
                            P::Vcoma, T::None, true, true, false,
                            true, true, true),
                 /*legacy=*/true});

    r.push_back({Scheme::VICTIMA, "VICTIMA", "VICTIMA",
                 {"Victima", "VICTIMA-TLB"},
                 "L0-style TLB whose victims spill into SLC frames; "
                 "misses probe the spill before the walk "
                 "(Kanellopoulos et al., arXiv:2310.04158)",
                 makeTraits(Scheme::VICTIMA, false, false, false, true,
                            P::RoundRobin, T::PreFlc, false, false, true,
                            false, false, false),
                 /*legacy=*/false});

    r.push_back({Scheme::NMT, "NMT", "NMT",
                 {"NearMemory", "NEAR-MEMORY"},
                 "near-memory identity/range translation computed at the "
                 "home node; no per-node TLB, no lookup stall "
                 "(Picorel et al., arXiv:1612.00445)",
                 makeTraits(Scheme::NMT, true, true, true, false,
                            P::Vcoma, T::None, false, true, false,
                            true, true, true),
                 /*legacy=*/false});

    return r;
}

} // namespace

const std::vector<SchemeDescriptor> &
schemeRegistry()
{
    static const std::vector<SchemeDescriptor> registry = buildRegistry();
    return registry;
}

const SchemeDescriptor &
schemeDescriptor(Scheme scheme)
{
    const auto raw = static_cast<std::size_t>(scheme);
    const auto &registry = schemeRegistry();
    if (raw >= registry.size())
        fatal("unknown translation scheme value ", raw);
    const auto &d = registry[raw];
    if (d.id != scheme)
        fatal("scheme registry out of enum order at ", raw);
    return d;
}

const std::vector<Scheme> &
allRegisteredSchemes()
{
    static const std::vector<Scheme> all = [] {
        std::vector<Scheme> v;
        for (const auto &d : schemeRegistry())
            v.push_back(d.id);
        return v;
    }();
    return all;
}

const std::vector<Scheme> &
legacySchemes()
{
    static const std::vector<Scheme> v = [] {
        std::vector<Scheme> out;
        for (const auto &d : schemeRegistry())
            if (d.legacy)
                out.push_back(d.id);
        return out;
    }();
    return v;
}

const std::vector<Scheme> &
modernSchemes()
{
    static const std::vector<Scheme> v = [] {
        std::vector<Scheme> out;
        for (const auto &d : schemeRegistry())
            if (!d.legacy)
                out.push_back(d.id);
        return out;
    }();
    return v;
}

bool
tryParseScheme(const std::string &token, Scheme &out)
{
    for (const auto &d : schemeRegistry()) {
        if (token == d.name) {
            out = d.id;
            return true;
        }
        for (const auto &alias : d.aliases) {
            if (token == alias) {
                out = d.id;
                return true;
            }
        }
    }
    return false;
}

Scheme
parseScheme(const std::string &token)
{
    Scheme s;
    if (!tryParseScheme(token, s))
        fatal("unknown translation scheme '", token, "'");
    return s;
}

SchemeTraits
schemeTraits(Scheme scheme)
{
    return schemeDescriptor(scheme).traits;
}

const char *
schemeName(Scheme s)
{
    return schemeDescriptor(s).name;
}

bool
schemeUsesVirtualAm(Scheme s)
{
    return schemeDescriptor(s).traits.amVirtual;
}

} // namespace vcoma
