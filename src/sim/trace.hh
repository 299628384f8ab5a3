/**
 * @file
 * The text trace grammar: a human-readable spelling of per-thread
 * reference streams, one event per line:
 *
 *     vcoma-trace-v1
 *     threads <N>
 *     <tid> R <vaddr> <work>      read
 *     <tid> W <vaddr> <work>      write
 *     <tid> B <id>                barrier
 *     <tid> L <id>                lock acquire
 *     <tid> U <id>                lock release
 *
 * Events of one thread appear in program order; threads may be
 * interleaved arbitrarily. Addresses are decimal or 0x-prefixed hex
 * (never octal); blank lines and lines starting with '#' are
 * ignored, so hand-written and tool-exported traces can carry
 * comments.
 *
 * Text is an interchange format, never a replay path: `vcoma_trace
 * convert` (sim/trace_convert.hh) packs it for ReplayWorkload, and
 * `vcoma_trace dump` spells a packed trace back out.
 */

#ifndef VCOMA_SIM_TRACE_HH
#define VCOMA_SIM_TRACE_HH

#include <iosfwd>
#include <vector>

#include "common/types.hh"
#include "sim/memref.hh"

namespace vcoma
{

/** A parsed text trace. */
struct TextTrace
{
    /** Each thread's events in program order, indexed by tid. */
    std::vector<std::vector<MemRef>> streams;
    /**
     * Footprint: the lowest touched address and one past the last
     * byte of the highest 8-byte access; lo == hi when the trace
     * touches no memory.
     */
    VAddr lo = 0;
    VAddr hi = 0;
};

/**
 * Parse a text trace from @p is; fatal() with the offending line
 * number on malformed input, including a negative or out-of-range
 * number and an address whose 8-byte access would wrap past 2^64.
 */
TextTrace parseTextTrace(std::istream &is);

} // namespace vcoma

#endif // VCOMA_SIM_TRACE_HH
