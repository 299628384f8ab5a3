#include "sim/event_trace.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "common/json.hh"
#include "common/logging.hh"

namespace vcoma
{

namespace
{

/// Serialises concurrent flushes from parallel Runner workers.
std::mutex traceFileMutex;

const char *
trackName(unsigned track)
{
    switch (track) {
      case EventTracer::TrackCoherence: return "coherence";
      case EventTracer::TrackTranslation: return "translation";
      case EventTracer::TrackInvalidation: return "invalidation";
      default: return "other";
    }
}

} // namespace

std::unique_ptr<EventTracer>
EventTracer::fromEnv()
{
    const char *path = std::getenv(envVar);
    if (!path || !*path)
        return nullptr;
    return std::make_unique<EventTracer>(path);
}

EventTracer::~EventTracer()
{
    if (!flushed_ && !events_.empty()) {
        // Machine::run flushes with the real node count; this path
        // only triggers when a run aborts part-way.
        NodeId maxNode = 0;
        for (const Event &e : events_)
            maxNode = std::max(maxNode, e.node);
        try {
            flush(maxNode + 1);
        } catch (...) {
            // Never throw from a destructor; the trace is best-effort.
        }
    }
}

void
EventTracer::flush(unsigned numNodes)
{
    if (flushed_)
        return;
    flushed_ = true;

    // Viewers want per-track monotonic timestamps; the simulation
    // kernel emits events in dispatch order, so sort before writing.
    // stable_sort keeps same-tick events in emission (causal) order.
    std::stable_sort(events_.begin(), events_.end(),
                     [](const Event &a, const Event &b) {
                         if (a.node != b.node)
                             return a.node < b.node;
                         if (a.track != b.track)
                             return a.track < b.track;
                         return a.ts < b.ts;
                     });

    std::lock_guard<std::mutex> lock(traceFileMutex);
    std::ofstream os(path_, std::ios::trunc);
    if (!os) {
        warn("event trace: cannot open ", path_, "; trace dropped");
        return;
    }

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    bool first = true;
    const auto sep = [&] {
        if (!first)
            os << ",\n";
        first = false;
    };

    // Metadata rows: name each node's process and each used track.
    for (unsigned n = 0; n < numNodes; ++n) {
        sep();
        os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << n
           << ",\"tid\":0,\"args\":{\"name\":\"node" << n << "\"}}";
        for (unsigned t = TrackCoherence; t <= TrackInvalidation; ++t) {
            sep();
            os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << n
               << ",\"tid\":" << t << ",\"args\":{\"name\":\""
               << trackName(t) << "\"}}";
        }
    }

    for (const Event &e : events_) {
        sep();
        os << "{\"ph\":\"" << (e.complete ? 'X' : 'i') << "\",\"name\":\""
           << jsonEscape(e.name) << "\",\"cat\":\"" << trackName(e.track)
           << "\",\"pid\":" << e.node << ",\"tid\":" << e.track
           << ",\"ts\":" << e.ts;
        if (e.complete)
            os << ",\"dur\":" << e.dur;
        else
            os << ",\"s\":\"t\"";
        os << ",\"args\":{\"va\":" << e.va << "}}";
    }
    os << "]}\n";
    if (!os)
        warn("event trace: write to ", path_, " failed");
    events_.clear();
    events_.shrink_to_fit();
}

} // namespace vcoma
