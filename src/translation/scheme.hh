/**
 * @file
 * The translation-scheme registry: every scheme the simulator knows —
 * the paper's five 1998 placements (Section 3) and the modern
 * proposals grafted onto the same grid — is a self-describing
 * SchemeDescriptor (name, parse aliases, static traits, fastpath
 * eligibility). Engine, harness, service and CLI code consult the
 * descriptor instead of switching on the Scheme enum, so adding a
 * scheme means adding one registry entry here and nothing elsewhere.
 */

#ifndef VCOMA_TRANSLATION_SCHEME_HH
#define VCOMA_TRANSLATION_SCHEME_HH

#include <string>
#include <vector>

#include "common/config.hh"

namespace vcoma
{

/** Placement policy implied by the scheme. */
enum class PlacementPolicy : std::uint8_t
{
    RoundRobin,  ///< physical frames round-robin (L0/L1/L2)
    Coloured,    ///< page colouring (L3, Figure 4)
    Vcoma,       ///< no frames; home from the VPN (V-COMA)
};

/**
 * Where a per-node TLB is charged on the timed path. The engine keys
 * its charge points off this instead of the scheme identity, so a new
 * scheme picks one of the existing hooks (or None) declaratively.
 */
enum class TlbPoint : std::uint8_t
{
    PreFlc,    ///< before every FLC access (L0-style)
    FlcToSlc,  ///< on FLC miss, before the SLC (L1-style)
    SlcToAm,   ///< on SLC miss, before the AM (L2-style)
    NodeExit,  ///< on local-node (AM) miss (L3-style)
    None,      ///< no per-node TLB at all (V-COMA's DLB, NMT)
};

/** Derived static traits of a scheme. */
struct SchemeTraits
{
    Scheme scheme = Scheme::L0;
    /** FLC virtually indexed and tagged. */
    bool flcVirtual = false;
    /** SLC virtually indexed and tagged. */
    bool slcVirtual = false;
    /** Attraction memory virtually indexed and tagged. */
    bool amVirtual = false;
    /** Scheme has a per-node TLB (false for V-COMA's DLB and NMT). */
    bool perNodeTlb = true;
    PlacementPolicy placement = PlacementPolicy::RoundRobin;
    /** Where the per-node TLB (if any) is charged. */
    TlbPoint tlbPoint = TlbPoint::PreFlc;
    /** Home nodes run a DLB inside the protocol engine (V-COMA). */
    bool hasDlb = false;
    /**
     * Translation is performed (or observed) at the home node: home
     * shadow banks sample the reference stream and, with hasDlb, the
     * DLB is charged there. True for V-COMA and NMT.
     */
    bool homeTranslation = false;
    /**
     * TLB victims spill into SLC frames and misses probe the spill
     * structure before paying the walk (VICTIMA, arXiv:2310.04158).
     */
    bool slcTlbSpill = false;
    /**
     * The scheme's translation structure sits below a write-back
     * cache and therefore sees write-back traffic (L2/L3/V-COMA/NMT);
     * miss-rate denominators include that stream (Tables 2/3).
     */
    bool countsWritebacks = false;
    /**
     * Per-CPU fast read filter may resolve FLC/SLC hits without the
     * full walk. False when the scheme charges a TLB on *every*
     * processor reference (PreFlc), which the filter cannot replay.
     */
    bool fastReadFilter = true;
    /** Same for the write side (L1 charges its TLB on FLC write-through). */
    bool fastWriteFilter = true;

    /** The machine has a physical address space at all. */
    bool
    hasPhysicalAddresses() const
    {
        return placement != PlacementPolicy::Vcoma;
    }
};

/**
 * One registered translation scheme. @c name is the paper-table
 * spelling and the Runner cache-key token; @c aliases are the extra
 * tokens the parsers accept (the name itself always parses).
 */
struct SchemeDescriptor
{
    Scheme id = Scheme::L0;
    /** Canonical name: table columns, cache keys, wire configs. */
    const char *name = "";
    /**
     * Label of the translation structure in timed tables ("L0-TLB/8"
     * vs "DLB/8"): the paper labels V-COMA rows by the DLB itself.
     */
    const char *timedLabel = "";
    /** Additional accepted parse spellings. */
    std::vector<std::string> aliases;
    /** One-line description for --help output and docs. */
    const char *summary = "";
    SchemeTraits traits;
    /** One of the paper's five 1998 placements. */
    bool legacy = false;
};

/** The full registry, in enum order. */
const std::vector<SchemeDescriptor> &schemeRegistry();

/** Descriptor for @p scheme; fatal() on a value outside the registry. */
const SchemeDescriptor &schemeDescriptor(Scheme scheme);

/** Every registered scheme, in enum order. */
const std::vector<Scheme> &allRegisteredSchemes();

/** The paper's five 1998 schemes, in enum (paper-table) order. */
const std::vector<Scheme> &legacySchemes();

/** The modern schemes grafted onto the grid, in enum order. */
const std::vector<Scheme> &modernSchemes();

/**
 * Strict parse: accepts each scheme's canonical name or aliases
 * (exact spelling); returns false on anything else. The round-trip
 * tryParseScheme(schemeName(s)) == s holds for every registered
 * scheme, so names written into cache keys and wire configs always
 * parse back.
 */
bool tryParseScheme(const std::string &token, Scheme &out);

/** As tryParseScheme, but fatal() on an unknown token. */
Scheme parseScheme(const std::string &token);

/** Traits for @p scheme (from its descriptor). */
SchemeTraits schemeTraits(Scheme scheme);

} // namespace vcoma

#endif // VCOMA_TRANSLATION_SCHEME_HH
