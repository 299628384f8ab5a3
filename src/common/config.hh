/**
 * @file
 * Machine configuration for the simulated COMA multiprocessor.
 *
 * Defaults reproduce the baseline architecture of Section 5.1 of the
 * paper: 32 nodes of 200 MHz processors, 16 KB direct-mapped
 * write-through FLC (32 B blocks), 64 KB 4-way write-back SLC (64 B
 * blocks), 4 MB 4-way attraction memory (128 B blocks), 4 KB pages,
 * an 8-bit 100 MHz crossbar (16-cycle requests, 272-cycle block
 * messages in processor cycles) and a 40-cycle TLB/DLB miss service.
 */

#ifndef VCOMA_COMMON_CONFIG_HH
#define VCOMA_COMMON_CONFIG_HH

#include <cstdint>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace vcoma
{

/** Geometry and policies of one cache level. */
struct CacheConfig
{
    /** Total capacity in bytes. */
    std::uint64_t sizeBytes = 0;
    /** Associativity (1 = direct mapped). */
    unsigned assoc = 1;
    /** Block size in bytes. */
    unsigned blockBytes = 32;
    /** Write-through (true) or write-back (false). */
    bool writeThrough = false;
    /** Allocate a block on a write miss. */
    bool writeAllocate = true;

    /** Number of sets. */
    std::uint64_t
    numSets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(assoc) * blockBytes);
    }

    /** Total number of block frames. */
    std::uint64_t
    numBlocks() const
    {
        return sizeBytes / blockBytes;
    }

    /** Sanity-check the geometry; fatal() on bad user input. */
    void
    validate(const char *name) const
    {
        if (sizeBytes == 0 || !isPowerOf2(sizeBytes))
            fatal(name, ": size must be a non-zero power of two");
        if (!isPowerOf2(blockBytes))
            fatal(name, ": block size must be a power of two");
        if (assoc == 0 || numSets() == 0 || !isPowerOf2(numSets()))
            fatal(name, ": sets must be a non-zero power of two");
    }
};

/** Latency/occupancy model (all values in 200 MHz processor cycles). */
struct TimingConfig
{
    /** FLC hit: no latency charge (Section 5.1). */
    Cycles flcHit = 0;
    /** SLC hit. */
    Cycles slcHit = 6;
    /** Attraction-memory access (hit at the local node). */
    Cycles amHit = 74;
    /** 8-byte request message on the crossbar. */
    Cycles requestMsg = 16;
    /** Message carrying a memory block. */
    Cycles blockMsg = 272;
    /** TLB or DLB miss service (page-table walk / refill). */
    Cycles translationMiss = 40;
    /** Directory lookup at the home node's protocol engine. */
    Cycles directoryLookup = 20;
    /** Protocol-engine occupancy per handled transaction. */
    Cycles peOccupancy = 16;
    /** Fixed cost charged per barrier episode once all have arrived. */
    Cycles barrierRelease = 100;
    /** Cost of an uncontended lock acquire/release pair. */
    Cycles lockTransfer = 40;
    /** AM tag check discovering a local-node miss. */
    Cycles amTagCheck = 20;
};

/** Where the dynamic address translation mechanism is placed. */
enum class Scheme : std::uint8_t
{
    L0,       ///< classic TLB before the FLC; all levels physical
    L1,       ///< TLB between virtual FLC and physical SLC
    L2,       ///< TLB between virtual SLC and physical attraction memory
    L3,       ///< TLB on local-node (attraction memory) miss
    VCOMA,    ///< no TLB; DLB at the home node inside the protocol
    VICTIMA,  ///< L0 TLB that spills victim entries into SLC frames
    NMT,      ///< near-memory translation computed at the home node
};

/**
 * Human-readable scheme name as used in the paper's tables and in
 * Runner cache keys. Defined by the scheme registry
 * (translation/scheme.cc); fatal() on a value outside the registry so
 * a corrupted or future-version config can never collide cache
 * entries or render "?" columns.
 */
const char *schemeName(Scheme s);

/**
 * True iff the scheme indexes the attraction memory virtually.
 * Answered by the registry's SchemeTraits (the single source of
 * truth); kept as a convenience wrapper for config-level callers.
 */
bool schemeUsesVirtualAm(Scheme s);

/** Configuration of the (single) configured TLB or DLB in timed runs. */
struct TranslationConfig
{
    Scheme scheme = Scheme::VCOMA;
    /** Entry count of the TLB (per node) or DLB (per home node). */
    unsigned entries = 8;
    /** Associativity; 0 means fully associative. */
    unsigned assoc = 0;
    /**
     * Whether SLC write-backs consult the L2 TLB. The paper's
     * "L2-TLB/no_wback" variant stores physical pointers in the
     * virtual SLC so write-backs bypass translation (Section 2.2.2).
     */
    bool writebacksAccessTlb = true;
};

/** Full machine description. */
struct MachineConfig
{
    /** Number of processing nodes (one processor per node). */
    unsigned numNodes = 32;
    /** Page size in bytes. */
    unsigned pageBytes = 4096;
    /** First-level cache. */
    CacheConfig flc{16 * 1024, 1, 32, /*writeThrough=*/true,
                    /*writeAllocate=*/false};
    /** Second-level cache. */
    CacheConfig slc{64 * 1024, 4, 64, /*writeThrough=*/false,
                    /*writeAllocate=*/true};
    /** Attraction memory (the COMA "main memory" cache). */
    CacheConfig am{4 * 1024 * 1024, 4, 128, /*writeThrough=*/false,
                   /*writeAllocate=*/true};
    /** Latency model. */
    TimingConfig timing{};
    /** Translation mechanism for timed runs. */
    TranslationConfig translation{};
    /** Seed for all derived deterministic RNG streams. */
    std::uint64_t seed = 1;
    /**
     * Charge the configured TLB/DLB's miss penalty on the timed path.
     * Miss-count studies (Figures 8/9, Tables 2/3) disable this so
     * every scheme sees identical interleavings; timed studies
     * (Table 4, Figure 10) enable it.
     */
    bool timedTranslation = true;
    /**
     * Coherence self-check level: 0 = off, 1 = verify versions at
     * attraction-memory/protocol touch points, 2 = verify on every
     * processor reference (slow; used by tests). Level 2 also turns
     * off the engine's hit fast filter, which makes
     * it the filter-off oracle the equivalence tests compare against:
     * its sheets equal the default run's byte for byte.
     */
    unsigned checkLevel = 1;
    /**
     * Multiplier applied to the busy cycles workloads attach to each
     * reference: models the instructions and private accesses between
     * shared references (the paper simulates shared accesses only).
     */
    Cycles busyScale = 10;
    /**
     * Period, in cycles, at which the protocol engines reset the
     * page reference bits (Section 4.1); 0 disables the daemon.
     */
    Cycles refBitDecayPeriod = 0;
    /**
     * Memory-pressure threshold above which the page daemon would
     * start swapping (Section 4.3). Data sets are preloaded in all
     * paper experiments, so this only gates allocation-time checks.
     */
    double pressureThreshold = 1.0;
    /**
     * Coherence-sanitizer sweep interval, in retired references
     * (protocol transitions are weighted in): the machine walks the
     * directory, attraction memories, translation structures and
     * pressure accounting and panics on any violated invariant.
     * 0 disables the sanitizer; a set VCOMA_CHECK environment
     * variable supplies the value when this field is 0.
     */
    std::uint64_t invariantCheckInterval = 0;
    /**
     * Forward-progress watchdog: Machine::run throws WatchdogError
     * with a diagnostic snapshot when no processor retires a memory
     * reference for this many simulated cycles while sync traffic
     * keeps time advancing (livelock). 0 disables the watchdog; a
     * set VCOMA_WATCHDOG environment variable supplies the value
     * when this field is 0.
     */
    Cycles watchdogCycles = 0;

    /** Log2 of the page size. */
    unsigned pageBits() const { return exactLog2(pageBytes); }

    /** Blocks (AM block size) per page: directory-page entry count. */
    unsigned
    blocksPerPage() const
    {
        return pageBytes / am.blockBytes;
    }

    /** Number of global page sets ("colours", Section 3.4). */
    std::uint64_t
    numGlobalPageSets() const
    {
        return am.numSets() * am.blockBytes / pageBytes;
    }

    /** Page slots per global page set: P * K (Section 6). */
    std::uint64_t
    globalPageSetCapacity() const
    {
        return static_cast<std::uint64_t>(numNodes) * am.assoc;
    }

    /** Sanity-check the whole configuration. */
    void
    validate() const
    {
        if (numNodes == 0 || !isPowerOf2(numNodes))
            fatal("numNodes must be a power of two (home-node bits)");
        if (!isPowerOf2(pageBytes))
            fatal("page size must be a power of two");
        flc.validate("FLC");
        slc.validate("SLC");
        am.validate("AM");
        if (flc.blockBytes > slc.blockBytes ||
            slc.blockBytes > am.blockBytes) {
            fatal("block sizes must not shrink down the hierarchy");
        }
        if (am.numSets() * am.blockBytes < pageBytes)
            fatal("a page must span at least one full stripe of AM sets");
    }
};

} // namespace vcoma

#endif // VCOMA_COMMON_CONFIG_HH
