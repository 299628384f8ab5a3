/**
 * @file
 * A small open-addressed hash index keyed by virtual page number: the
 * presence index behind fully associative TLBs and the shadow banks.
 *
 * Linear probing over a power-of-two table that is never more than
 * half full, Fibonacci hashing of the vpn, and backward-shift
 * deletion, so there are no tombstones and probe lengths do not
 * degrade over a long run of fills and evictions. The capacity is
 * fixed at construction from the most keys the owner can ever hold
 * (a TLB holds at most its entry count), so the table never grows.
 */

#ifndef VCOMA_TLB_FLAT_INDEX_HH
#define VCOMA_TLB_FLAT_INDEX_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace vcoma
{

template <typename V>
class FlatIndex
{
  public:
    /** The empty-slot key; it can never be stored. */
    static constexpr PageNum emptyKey = ~PageNum{0};

    struct Entry
    {
        PageNum key;
        V value;
    };

    /** @param maxKeys the most keys the index will ever hold at once */
    explicit FlatIndex(std::size_t maxKeys)
    {
        // At least 8 slots, so that even an index built for no keys
        // (the one of a set-associative Tlb) probes a real table.
        const unsigned bits =
            std::max(3u, maxKeys ? ceilLog2(2 * maxKeys) : 0u);
        shift_ = 64 - bits;
        mask_ = (std::size_t{1} << bits) - 1;
        table_.assign(mask_ + 1, Entry{emptyKey, V{}});
    }

    /** The entry for @p key, or nullptr when absent. */
    Entry *
    find(PageNum key)
    {
        for (std::size_t i = homeOf(key);; i = (i + 1) & mask_) {
            Entry &e = table_[i];
            if (e.key == key)
                return &e;
            if (e.key == emptyKey)
                return nullptr;
        }
    }

    const Entry *
    find(PageNum key) const
    {
        return const_cast<FlatIndex *>(this)->find(key);
    }

    /** Add @p key, which must be absent, mapped to @p value. */
    void
    insert(PageNum key, V value)
    {
        VCOMA_ASSERT(key != emptyKey);
        std::size_t i = homeOf(key);
        while (table_[i].key != emptyKey)
            i = (i + 1) & mask_;
        table_[i] = Entry{key, value};
    }

    /**
     * Remove @p e, an entry returned by find() with no insert or
     * erase since. Later entries of its probe run shift back into the
     * hole, so other Entry pointers are invalidated.
     */
    void
    erase(Entry *e)
    {
        std::size_t hole = static_cast<std::size_t>(e - table_.data());
        for (std::size_t i = (hole + 1) & mask_;; i = (i + 1) & mask_) {
            const PageNum key = table_[i].key;
            if (key == emptyKey)
                break;
            // The entry at i may fill the hole only if its home does
            // not lie cyclically in (hole, i]: otherwise moving it
            // would put it before its home and break its probe run.
            const std::size_t h = homeOf(key);
            const bool stays = hole <= i ? (hole < h && h <= i)
                                         : (hole < h || h <= i);
            if (!stays) {
                table_[hole] = table_[i];
                hole = i;
            }
        }
        table_[hole].key = emptyKey;
    }

    /** Drop every entry. */
    void
    clear()
    {
        std::fill(table_.begin(), table_.end(), Entry{emptyKey, V{}});
    }

    /** Number of slots (a power of two, at least twice maxKeys). */
    std::size_t capacity() const { return table_.size(); }

    /** The slot @p key's probe run starts at. */
    std::size_t
    homeOf(PageNum key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                        shift_);
    }

  private:
    std::vector<Entry> table_;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace vcoma

#endif // VCOMA_TLB_FLAT_INDEX_HH
