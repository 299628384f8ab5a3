#include "sim/trace_convert.hh"

#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/logging.hh"
#include "sim/memref_pack.hh"
#include "sim/trace.hh"

namespace vcoma
{

PackedTraceSummary
summarizePackedTrace(const std::string &path)
{
    const PackedTrace trace(path);
    PackedTraceSummary s;
    s.threads = trace.threads();
    s.totalEvents = trace.totalEvents();
    s.sharedBytes = trace.sharedBytes();
    s.key = trace.key();
    s.workloadName = trace.workloadName();
    s.parameters = trace.parameters();
    s.perThreadEvents.reserve(s.threads);
    for (unsigned t = 0; t < s.threads; ++t)
        s.perThreadEvents.push_back(trace.stream(t).size());
    return s;
}

std::uint64_t
convertTextTraceToPacked(std::istream &in, const std::string &outPath,
                         const std::string &name,
                         const std::string &key)
{
    // The text parser owns the grammar (and its line-numbered
    // diagnostics); the workload it yields carries the per-thread
    // streams and the footprint of every touched address.
    TraceWorkload text(in, name);
    PackedTraceWriter writer(outPath, text.numThreads(), key,
                             text.name(), text.parameters(),
                             text.sharedBytes());
    std::uint64_t events = 0;
    for (unsigned t = 0; t < text.numThreads(); ++t) {
        for (const MemRef &ref : text.stream(t)) {
            writer.append(t, ref);
            ++events;
        }
    }
    std::string error;
    if (!writer.finalize(&error))
        throw std::runtime_error("cannot publish '" + outPath +
                                 "': " + error);
    return events;
}

void
dumpPackedTraceAsText(const std::string &path, std::ostream &os)
{
    const PackedTrace trace(path);
    os << "vcoma-trace-v1\n";
    os << "threads " << trace.threads() << "\n";
    for (unsigned t = 0; t < trace.threads(); ++t) {
        for (const MemRef &ref : trace.stream(t)) {
            os << t << " ";
            switch (ref.kind) {
              case MemRef::Kind::Mem:
                os << (ref.type == RefType::Read ? 'R' : 'W') << " "
                   << ref.vaddr << " " << ref.work;
                break;
              case MemRef::Kind::Barrier:
                os << "B " << ref.syncId;
                break;
              case MemRef::Kind::LockAcquire:
                os << "L " << ref.syncId;
                break;
              case MemRef::Kind::LockRelease:
                os << "U " << ref.syncId;
                break;
            }
            os << "\n";
        }
    }
}

} // namespace vcoma
