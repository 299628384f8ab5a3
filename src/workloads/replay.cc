#include "workloads/replay.hh"

#include "common/logging.hh"

namespace vcoma
{

ReplayWorkload::ReplayWorkload(const std::string &path) : trace_(path)
{
    // One synthetic segment reproducing the recorded footprint, so
    // sharedBytes() (and with it the stats sheet) matches the live
    // workload byte for byte.
    if (trace_.sharedBytes() > 0)
        space_.alloc("replay.recorded", trace_.sharedBytes(), 1);
}

Generator<MemRef>
ReplayWorkload::thread(unsigned tid)
{
    if (tid >= trace_.threads())
        fatal("replay: no thread ", tid, " (trace has ",
              trace_.threads(), ")");
    return replayStream(trace_.stream(tid));
}

RecordingWorkload::RecordingWorkload(Workload &inner,
                                     const std::string &tracePath,
                                     const std::string &key)
    : inner_(inner),
      writer_(tracePath, inner.numThreads(), key, inner.name(),
              inner.parameters(), inner.sharedBytes()),
      recorded_(inner.numThreads(), false)
{
}

Generator<MemRef>
RecordingWorkload::thread(unsigned tid)
{
    if (tid >= recorded_.size())
        fatal("recording: no thread ", tid);
    if (recorded_[tid])
        fatal("recording: thread ", tid,
              " requested twice; a RecordingWorkload records exactly "
              "one run");
    recorded_[tid] = true;
    return tee(tid);
}

Generator<MemRef>
RecordingWorkload::tee(unsigned tid)
{
    // The inner generator lives in this coroutine's frame: destroying
    // the tee (even half-drained) destroys it exactly once.
    auto inner = inner_.thread(tid);
    while (const MemRef *ref = inner.nextPtr()) {
        writer_.append(tid, *ref);
        co_yield *ref;
    }
}

bool
RecordingWorkload::finalize()
{
    for (unsigned t = 0; t < recorded_.size(); ++t) {
        if (!recorded_[t]) {
            warn("trace recording dropped: thread ", t,
                 " was never run");
            return false;
        }
    }
    std::string error;
    if (!writer_.finalize(&error)) {
        warn("trace recording failed: ", error);
        return false;
    }
    return true;
}

} // namespace vcoma
