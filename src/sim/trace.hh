/**
 * @file
 * Reference-trace recording and replay.
 *
 * The workload kernels are execution-driven, but a recorded trace is
 * often more convenient: it can be inspected, diffed, archived, or
 * replayed against many machine configurations without re-running the
 * algorithm. The text format is one event per line:
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
 * interleaved arbitrarily (the recorder interleaves them the way a
 * barrier-aware round-robin scheduler would). Addresses are decimal
 * or 0x-prefixed hex (never octal); blank lines and lines starting
 * with '#' are ignored, so hand-written and tool-exported traces can
 * carry comments.
 */

#ifndef VCOMA_SIM_TRACE_HH
#define VCOMA_SIM_TRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "sim/memref.hh"
#include "workloads/workload.hh"

namespace vcoma
{

/**
 * Drain @p workload with a barrier-aware round-robin interleaver and
 * write its trace to @p os.
 * @return total events recorded.
 */
std::uint64_t recordTrace(Workload &workload, std::ostream &os);

/**
 * A workload that replays a previously recorded text trace. The
 * parsed per-thread events are served as materialised streams, so a
 * text replay takes the same Machine::run path as a packed one.
 */
class TraceWorkload : public Workload
{
  public:
    /**
     * Parse a trace from @p is; fatal() on malformed input, including
     * a negative or out-of-range number and an address whose 8-byte
     * access would wrap past 2^64.
     */
    explicit TraceWorkload(std::istream &is, std::string name = "TRACE");

    std::string name() const override { return name_; }
    std::string parameters() const override;
    unsigned numThreads() const override;
    const AddressSpace &space() const override { return space_; }

    bool materialised() const override { return true; }
    std::span<const MemRef> stream(unsigned tid) override;

    /** Coroutine view of the same stream (recordTrace() and tools). */
    Generator<MemRef> thread(unsigned tid) override;

  private:
    std::string name_;
    AddressSpace space_;
    std::vector<std::vector<MemRef>> perThread_;
};

} // namespace vcoma

#endif // VCOMA_SIM_TRACE_HH
