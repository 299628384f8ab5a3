/**
 * @file
 * Record/replay Workloads over the packed memref trace format: the
 * one recorder and the one replayer.
 *
 * RecordingWorkload tees each per-thread Generator<MemRef> stream of
 * a live workload to a PackedTraceWriter while the simulation runs.
 * Lock grants and barriers decide what each thread yields, so only
 * the streams one Machine::run consumed describe that run; the
 * recorder keeps exactly those. ReplayWorkload (a "TRACE:<path>"
 * workload) maps a finished trace back in and serves the streams as
 * materialised arrays, so a replaying Machine::run skips both the
 * workload algorithm and the coroutine machinery: the hot loop walks
 * an mmapped MemRef array with software prefetch.
 */

#ifndef VCOMA_WORKLOADS_REPLAY_HH
#define VCOMA_WORKLOADS_REPLAY_HH

#include <memory>
#include <string>

#include "sim/memref_pack.hh"
#include "workloads/workload.hh"

namespace vcoma
{

/**
 * Replays a packed trace recorded by RecordingWorkload. Construction
 * validates the whole file (@throws TraceFormatError on a corrupt,
 * truncated or version-mismatched trace — never a crash, never a
 * silent partial replay). name(), parameters() and sharedBytes() are
 * the recorded workload's, so a replayed run's stats sheet is
 * byte-identical to the live run's.
 */
class ReplayWorkload : public Workload
{
  public:
    explicit ReplayWorkload(const std::string &path);

    std::string name() const override { return trace_.workloadName(); }
    std::string parameters() const override { return trace_.parameters(); }
    unsigned numThreads() const override { return trace_.threads(); }
    const AddressSpace &space() const override { return space_; }

    bool materialised() const override { return true; }
    std::span<const MemRef>
    stream(unsigned tid) override
    {
        return trace_.stream(tid);
    }

    /** Coroutine view of the same stream (the generic interface). */
    Generator<MemRef> thread(unsigned tid) override;

    /** Experiment cache key the trace was recorded under. */
    const std::string &recordedKey() const { return trace_.key(); }
    std::uint64_t totalEvents() const { return trace_.totalEvents(); }

  private:
    PackedTrace trace_;
    AddressSpace space_;
};

/**
 * Wraps a live workload and records every event each thread yields.
 * Drive it through a full Machine::run, then call finalize() — only a
 * run that drained every stream publishes a trace, so an aborted or
 * failed run never leaves a partial file behind.
 */
class RecordingWorkload : public Workload
{
  public:
    /**
     * @param inner the live workload (not owned; must outlive this)
     * @param tracePath where finalize() publishes the trace
     * @param key experiment cache key stored in the trace header
     * @throws std::runtime_error naming @p tracePath when the trace
     *         cannot be staged (see PackedTraceWriter)
     */
    RecordingWorkload(Workload &inner, const std::string &tracePath,
                      const std::string &key);

    std::string name() const override { return inner_.name(); }
    std::string parameters() const override
    {
        return inner_.parameters();
    }
    unsigned numThreads() const override { return inner_.numThreads(); }
    const AddressSpace &space() const override { return inner_.space(); }

    /** Tee of the inner thread's stream. Each tid records once. */
    Generator<MemRef> thread(unsigned tid) override;

    /**
     * Publish the recorded trace. @return false (and warns with the
     * reason) when a thread never ran or on I/O trouble; no file is
     * left at the trace path then.
     */
    bool finalize();

  private:
    Generator<MemRef> tee(unsigned tid);

    Workload &inner_;
    PackedTraceWriter writer_;
    std::vector<bool> recorded_;
};

} // namespace vcoma

#endif // VCOMA_WORKLOADS_REPLAY_HH
