/**
 * @file
 * Fundamental scalar types shared by every subsystem of the V-COMA
 * simulator: addresses, cycle counts, node identifiers and the small
 * enumerations that describe memory references.
 */

#ifndef VCOMA_COMMON_TYPES_HH
#define VCOMA_COMMON_TYPES_HH

#include <cstdint>
#include <limits>
#include <string>

namespace vcoma
{

/** A virtual address in the single global segmented address space. */
using VAddr = std::uint64_t;

/**
 * A physical address. Only meaningful in the L0/L1/L2/L3 schemes;
 * V-COMA eliminates the physical address space entirely.
 */
using PAddr = std::uint64_t;

/** A virtual or physical page number (address >> page bits). */
using PageNum = std::uint64_t;

/** Simulated processor clock cycles (200 MHz in the baseline). */
using Cycles = std::uint64_t;

/** A point in simulated time, in processor cycles since reset. */
using Tick = std::uint64_t;

/** Identifies one of the P processing nodes. */
using NodeId = std::uint32_t;

/** Identifies one simulated processor (== its node in this machine). */
using CpuId = std::uint32_t;

/** Most nodes (so CPUs, trace threads) a machine has: copysets are u64. */
constexpr unsigned maxNodes = 64;

/**
 * Saturating addition over the Tick/Cycles domain: a sum that would
 * wrap pins at the maximum instead. Time comparisons (resource
 * next-free times, scheduler deadlines) stay monotonic even when a
 * caller hands in a near-infinite operand, so a malformed huge value
 * can never wrap into the past.
 */
constexpr std::uint64_t
saturatingAdd(std::uint64_t a, std::uint64_t b)
{
    return a > std::numeric_limits<std::uint64_t>::max() - b
               ? std::numeric_limits<std::uint64_t>::max()
               : a + b;
}

/** Sentinel for "no node". */
constexpr NodeId invalidNode = std::numeric_limits<NodeId>::max();

/** Sentinel for "no address". */
constexpr VAddr invalidAddr = std::numeric_limits<VAddr>::max();

/** The kind of a memory reference issued by a workload thread. */
enum class RefType : std::uint8_t
{
    Read,
    Write,
};

/**
 * The class of the stream that reaches a translation structure.
 * Demand references are loads/stores filtered down from above;
 * write-backs are dirty evictions, which the paper shows have much
 * poorer locality (the L2-TLB "writeback impact").
 */
enum class StreamClass : std::uint8_t
{
    Demand,
    Writeback,
};

} // namespace vcoma

#endif // VCOMA_COMMON_TYPES_HH
