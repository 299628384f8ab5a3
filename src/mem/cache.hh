/**
 * @file
 * A generic set-associative cache model used for the FLC and SLC.
 *
 * The model is address-space agnostic: callers feed it whichever
 * address the cache is indexed/tagged with (virtual for the virtual
 * caches of the L1/L2/L3/V-COMA schemes, physical otherwise). It
 * tracks presence and dirtiness only — data values live in the
 * workloads — and reports evictions so the hierarchy can propagate
 * write-backs and maintain inclusion.
 *
 * Storage is structure-of-arrays (tags, state bits, LRU stamps in
 * three contiguous vectors) and the probe API is index-based: the
 * simulation fast path looks a block up once, keeps the index, and
 * commits the hit bookkeeping separately, so the common FLC-hit case
 * never constructs a CacheAccess or touches cold way metadata.
 */

#ifndef VCOMA_MEM_CACHE_HH
#define VCOMA_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace vcoma
{

/** Result of a cache access (plain aggregate; no optional plumbing). */
struct CacheAccess
{
    /** Did the access hit? */
    bool hit = false;
    /**
     * Was a block allocated for this access (read miss, or write miss
     * with write-allocate)?
     */
    bool allocated = false;
    /** A valid victim block was evicted; its address is in victim. */
    bool hasVictim = false;
    /** The victim was dirty: it must be written back below. */
    bool victimDirty = false;
    /** Block-aligned address of the evicted victim (if hasVictim). */
    VAddr victim = 0;
};

/**
 * Set-associative cache with LRU replacement, configurable write
 * policy (write-through vs write-back) and write-allocation.
 */
class Cache
{
  public:
    /** Sentinel returned by lookup() when the block is absent. */
    static constexpr std::uint32_t npos = ~std::uint32_t{0};

    /**
     * @param name  diagnostic name
     * @param cfg   geometry and policies
     */
    Cache(std::string name, const CacheConfig &cfg);

    /**
     * Perform a read or write at @p addr.
     *
     * Write-through caches never mark blocks dirty (the store is
     * propagated below by the caller on every write). Write-back
     * caches mark on write hit and on allocated write miss.
     */
    CacheAccess access(VAddr addr, RefType type);

    /**
     * Find the line holding @p addr: global line index (set * assoc +
     * way), or npos. Pure probe — no LRU update, no counters.
     */
    std::uint32_t
    lookup(VAddr addr) const
    {
        const std::uint64_t set = setIndex(addr);
        const VAddr tag = tagOf(addr);
        const std::size_t base = set * cfg_.assoc;
        for (unsigned w = 0; w < cfg_.assoc; ++w) {
            const std::size_t i = base + w;
            if ((state_[i] & stValid) && tags_[i] == tag)
                return static_cast<std::uint32_t>(i);
        }
        return npos;
    }

    /**
     * Commit the bookkeeping of a read hit on line @p idx (from
     * lookup): exactly the counter and LRU effects access() would
     * have had.
     */
    void
    commitReadHit(std::uint32_t idx)
    {
        ++readHits;
        lastUse_[idx] = ++useClock_;
    }

    /** Commit a write hit on line @p idx (counter, LRU, dirty bit). */
    void
    commitWriteHit(std::uint32_t idx)
    {
        ++writeHits;
        lastUse_[idx] = ++useClock_;
        if (!cfg_.writeThrough)
            state_[idx] |= stDirty;
    }

    /** Presence check without LRU update or allocation. */
    bool contains(VAddr addr) const { return lookup(addr) != npos; }

    /**
     * Invalidate the block containing @p addr if present.
     * @param wasDirty set to true if the invalidated block was dirty.
     * @return true if a block was invalidated.
     */
    bool invalidateBlock(VAddr addr, bool &wasDirty);

    /**
     * Invalidate every block of this cache that falls inside
     * [@p addr, @p addr + @p bytes). Used to maintain inclusion when a
     * larger block is removed from the level below.
     * @param dirtyVictims incremented per dirty block invalidated.
     * @return number of blocks invalidated.
     */
    unsigned invalidateRange(VAddr addr, std::uint64_t bytes,
                             unsigned &dirtyVictims);

    /** Drop all contents and reset LRU state (stats preserved). */
    void flush();

    /**
     * Visit every valid block: fn(blockAddr, dirty). Used by the
     * coherence-invariant checkers in the test suite.
     */
    template <typename Fn>
    void
    forEachValid(Fn fn) const
    {
        for (std::size_t i = 0; i < tags_.size(); ++i) {
            if (state_[i] & stValid)
                fn(lineAddr(i / cfg_.assoc, tags_[i]),
                   (state_[i] & stDirty) != 0);
        }
    }

    /** Block-aligned address. */
    VAddr
    blockAlign(VAddr addr) const
    {
        return addr & ~static_cast<VAddr>(cfg_.blockBytes - 1);
    }

    const CacheConfig &config() const { return cfg_; }
    const std::string &name() const { return name_; }

    /** @{ @name Statistics */
    Counter readHits;
    Counter readMisses;
    Counter writeHits;
    Counter writeMisses;
    Counter writebacks;
    Counter invalidations;
    /** @} */

    /** Register the counters on @p g as <prefix>readHits etc. */
    void
    addStats(StatGroup &g, const std::string &prefix) const
    {
        g.addCounter(prefix + "readHits", readHits);
        g.addCounter(prefix + "readMisses", readMisses);
        g.addCounter(prefix + "writeHits", writeHits);
        g.addCounter(prefix + "writeMisses", writeMisses);
        g.addCounter(prefix + "writebacks", writebacks);
        g.addCounter(prefix + "invalidations", invalidations);
    }

    /** Total accesses. */
    std::uint64_t
    accesses() const
    {
        return readHits.value() + readMisses.value() + writeHits.value() +
               writeMisses.value();
    }

    /** Total misses. */
    std::uint64_t
    misses() const
    {
        return readMisses.value() + writeMisses.value();
    }

  private:
    static constexpr std::uint8_t stValid = 1;
    static constexpr std::uint8_t stDirty = 2;

    std::uint64_t
    setIndex(VAddr addr) const
    {
        return (addr >> blockBits_) & setMask_;
    }

    VAddr tagOf(VAddr addr) const { return addr >> (blockBits_ + setBits_); }

    /** Reconstruct a block address from a line's tag and set. */
    VAddr
    lineAddr(std::uint64_t set, VAddr tag) const
    {
        return (tag << (blockBits_ + setBits_)) | (set << blockBits_);
    }

    std::string name_;
    CacheConfig cfg_;
    unsigned blockBits_;
    unsigned setBits_;
    /** numSets() - 1, precomputed: setIndex is on the per-probe path. */
    std::uint64_t setMask_;
    /** @{ Parallel per-line arrays (structure-of-arrays layout). */
    std::vector<VAddr> tags_;
    std::vector<std::uint8_t> state_;
    std::vector<std::uint64_t> lastUse_;
    /** @} */
    std::uint64_t useClock_ = 0;
};

} // namespace vcoma

#endif // VCOMA_MEM_CACHE_HH
