/**
 * @file
 * Shadow TLB banks: observer TLBs of many sizes and organisations fed
 * with the same reference stream as the configured translation
 * structure.
 *
 * Translation-structure *contents* never change which references the
 * processor issues (only their timing), so one simulation pass can
 * measure the entire size sweep of Figure 8 and the direct-mapped
 * comparison of Figure 9 simultaneously. The banks have no timing
 * effect; Table 4 / Figure 10 use a dedicated configured TLB instead.
 */

#ifndef VCOMA_TLB_SHADOW_BANK_HH
#define VCOMA_TLB_SHADOW_BANK_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "tlb/flat_index.hh"

namespace vcoma
{

/** The TLB/DLB sizes swept by the paper's Figure 8. */
const std::vector<unsigned> &shadowSizes();

/**
 * Counters of one shadow member (or, summed, of one (size,
 * organisation) point across banks).
 */
struct ShadowTotals
{
    std::uint64_t demandAccesses = 0;
    std::uint64_t demandMisses = 0;
    std::uint64_t writebackAccesses = 0;
    std::uint64_t writebackMisses = 0;

    std::uint64_t
    misses() const
    {
        return demandMisses + writebackMisses;
    }

    std::uint64_t
    accesses() const
    {
        return demandAccesses + writebackAccesses;
    }
};

/**
 * One node's (or one home's) collection of shadow TLBs: every size in
 * shadowSizes(), each in fully associative and direct-mapped flavours.
 *
 * Every member sees every access, so the bank keeps one flat index
 * from vpn to the bitmask of fully associative members holding it:
 * one probe decides hit or miss for all of them. Each FA member keeps
 * its own slot array and random-replacement stream and behaves
 * exactly as a standalone Tlb(entries, 0, seed + 31 * n) would; each
 * DM member is a flat tag array, as a Tlb(entries, 1, ...) would be.
 *
 * After an access every member holds its vpn, and a hit changes no
 * member's state, so an access repeating the previous one is counted
 * without touching any member.
 *
 * lanes() builds the other kind of bank: one organisation only, every
 * member on the one seed a standalone Tlb of that size would get, and
 * with invalidate(). It carries a node's TLB lanes: the TLBs of its
 * sibling configs (see siblingLanes() in coma/node.hh).
 */
class ShadowBank
{
  public:
    /**
     * @param seed base seed (each member derives its own stream)
     * @param sizes entry counts to instantiate; defaults to
     *              shadowSizes()
     * @param indexShift low vpn bits the direct-mapped members skip
     *        when selecting the set (see Tlb)
     */
    explicit ShadowBank(std::uint64_t seed,
                        const std::vector<unsigned> &sizes = shadowSizes(),
                        unsigned indexShift = 0);

    /**
     * A bank of @p assoc members (0 = FA, 1 = DM), one per entry
     * count in @p sizes, each behaving exactly as a standalone
     * Tlb(entries, assoc, seed, indexShift) fed the same accesses and
     * invalidations.
     */
    static ShadowBank lanes(std::uint64_t seed,
                            const std::vector<unsigned> &sizes,
                            unsigned assoc, unsigned indexShift = 0);

    /** Feed one reference to every member TLB. */
    void
    access(PageNum vpn, StreamClass cls = StreamClass::Demand)
    {
        const unsigned c = cls == StreamClass::Demand ? 0 : 1;
        ++accesses_[c];
        if (vpn != last_)
            fill(vpn, c);
    }

    /**
     * Drop @p vpn from every member of a lanes() bank (a shoot-down).
     * @return bit k set iff the member of sizes[k] held it.
     */
    std::uint32_t invalidate(PageNum vpn);

    /** Visit every (member entry count, cached vpn) pair. */
    void forEachEntry(
        const std::function<void(unsigned entries, PageNum vpn)> &fn) const;

    /**
     * Counters of the member with @p entries and associativity
     * @p assoc (0 = FA, 1 = DM); nullopt when there is none.
     */
    std::optional<ShadowTotals> find(unsigned entries,
                                     unsigned assoc) const;

  private:
    using Mask = std::uint32_t;

    struct FaMember
    {
        unsigned entries;
        unsigned filled = 0;  ///< slots [0, filled) were ever used
        std::size_t base;     ///< first slot in faSlots_
        Rng rng;
        std::uint64_t misses[2] = {};  ///< by StreamClass
        /** Invalidated slots, reused last-freed first (as Tlb does). */
        std::vector<unsigned> freed;
    };

    struct DmMember
    {
        PageNum setMask;
        std::size_t base;  ///< first tag in dmTags_
        std::uint64_t misses[2] = {};
    };

    /**
     * A bank with no members yet; its index fits FA members of every
     * size in @p sizes when @p hasFa.
     */
    ShadowBank(const std::vector<unsigned> &sizes, unsigned indexShift,
               bool hasFa);
    void addFa(unsigned entries, Rng rng);
    void addDm(unsigned entries);
    /** The access path of a vpn other than the previous one. */
    void fill(PageNum vpn, unsigned c);
    void evict(PageNum vpn, Mask bit);

    unsigned indexShift_;
    std::vector<PageNum> faSlots_;
    std::vector<PageNum> dmTags_;
    std::vector<FaMember> fa_;
    std::vector<DmMember> dm_;
    /** vpn -> bit k set iff fa_[k] holds it. */
    FlatIndex<Mask> index_;
    Mask allFa_ = 0;
    /** Every member sees every access: one count per bank. */
    std::uint64_t accesses_[2] = {};
    /** The previous access's vpn: every member holds it. */
    PageNum last_ = FlatIndex<Mask>::emptyKey;
};

/** Sum the counters of every bank's member matching (entries, assoc). */
ShadowTotals sumShadow(const std::vector<ShadowBank> &banks,
                       unsigned entries, unsigned assoc);

} // namespace vcoma

#endif // VCOMA_TLB_SHADOW_BANK_HH
