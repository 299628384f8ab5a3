/**
 * @file
 * The single global segmented virtual address space.
 *
 * The paper assumes a PowerPC-like segmented memory system in which
 * synonyms are neither needed nor allowed (Section 2.2.1): all
 * processes share one global virtual space and sharing happens at
 * segment granularity. Workloads allocate named segments here; the
 * segment records also drive the Table 1 footprint report and let the
 * RAYTRACE experiment control the alignment of its per-processor
 * ray-tree stacks (the DLB/8/V2 layout variant of Figure 10).
 */

#ifndef VCOMA_VM_ADDRESS_SPACE_HH
#define VCOMA_VM_ADDRESS_SPACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vcoma
{

/** One named allocation in the global virtual space. */
struct Segment
{
    std::string name;
    VAddr base = 0;
    std::uint64_t bytes = 0;
    std::uint64_t align = 0;

    VAddr end() const { return base + bytes; }
};

/**
 * Bump allocator over the global virtual space. Deallocation is not
 * supported: the paper's runs preload all data and simulate no paging
 * activity, and each experiment constructs a fresh space.
 */
class AddressSpace
{
  public:
    /** @param base first allocatable virtual address. */
    explicit AddressSpace(VAddr base = 0x10000000ULL) : next_(base) {}

    /**
     * Allocate @p bytes aligned to @p align (power of two).
     * @return base address of the new segment.
     */
    VAddr alloc(std::string name, std::uint64_t bytes,
                std::uint64_t align = 64);

    /** All segments allocated so far, in allocation order. */
    const std::vector<Segment> &segments() const { return segments_; }

    /** Total bytes allocated (the "Shared Memory" column of Table 1). */
    std::uint64_t totalBytes() const;

  private:
    VAddr next_;
    std::vector<Segment> segments_;
};

} // namespace vcoma

#endif // VCOMA_VM_ADDRESS_SPACE_HH
