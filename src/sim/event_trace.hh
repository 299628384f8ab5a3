/**
 * @file
 * Protocol event tracer emitting Chrome trace-event JSON (the format
 * chrome://tracing and Perfetto open directly). One trace "process"
 * per node; within a node, separate tracks for coherence
 * transactions, translation (TLB/DLB) fills and invalidations.
 *
 * Tracing is off unless VCOMA_TRACE_EVENTS=<path> is set, in which
 * case every Machine buffers its events in memory and writes the file
 * when the run finishes. Events are buffered rather than streamed so
 * the writer can sort them by timestamp: the execution kernel visits
 * processors in dispatch order, not time order, and trace viewers expect
 * per-track monotonic timestamps.
 *
 * When several simulations run concurrently (Runner::runAll) they
 * each flush the whole file under a process-wide lock; the last
 * finisher wins. Point the variable at a fresh path and run a single
 * config when a specific trace is wanted.
 */

#ifndef VCOMA_SIM_EVENT_TRACE_HH
#define VCOMA_SIM_EVENT_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace vcoma
{

class EventTracer
{
  public:
    /** Track ids within one node's process row. */
    enum Track : unsigned {
        TrackCoherence = 0,
        TrackTranslation = 1,
        TrackInvalidation = 2,
    };

    /** Environment variable naming the output file. */
    static constexpr const char *envVar = "VCOMA_TRACE_EVENTS";

    /** Tracer from $VCOMA_TRACE_EVENTS, or nullptr when unset/empty. */
    static std::unique_ptr<EventTracer> fromEnv();

    explicit EventTracer(std::string path) : path_(std::move(path)) {}
    ~EventTracer();

    EventTracer(const EventTracer &) = delete;
    EventTracer &operator=(const EventTracer &) = delete;

    /**
     * Record a duration ("complete") event on @p node's @p track
     * spanning [start, end] cycles, tagged with the virtual address
     * it concerns.
     */
    void
    complete(const char *name, unsigned track, NodeId node, Tick start,
             Tick end, std::uint64_t va)
    {
        events_.push_back(
            {name, start, end >= start ? end - start : 0, va, node,
             track, true});
    }

    /** Record a point-in-time ("instant") event. */
    void
    instant(const char *name, unsigned track, NodeId node, Tick ts,
            std::uint64_t va)
    {
        events_.push_back({name, ts, 0, va, node, track, false});
    }

    /** Sort and write the trace file; subsequent calls are no-ops. */
    void flush(unsigned numNodes);

    const std::string &path() const { return path_; }

  private:
    struct Event
    {
        const char *name;  ///< static string literal
        Tick ts;
        Tick dur;
        std::uint64_t va;
        NodeId node;
        unsigned track;
        bool complete;
    };

    std::string path_;
    std::vector<Event> events_;
    bool flushed_ = false;
};

} // namespace vcoma

#endif // VCOMA_SIM_EVENT_TRACE_HH
