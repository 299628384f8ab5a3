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
    // The parser owns the grammar and its line-numbered diagnostics.
    const TextTrace text = parseTextTrace(in);
    const unsigned threads = static_cast<unsigned>(text.streams.size());
    std::uint64_t events = 0;
    for (const auto &stream : text.streams)
        events += stream.size();
    PackedTraceWriter writer(outPath, threads, key, name,
                             std::to_string(events) + " events, " +
                                 std::to_string(threads) + " threads",
                             text.hi - text.lo);
    for (unsigned t = 0; t < threads; ++t) {
        for (const MemRef &ref : text.streams[t])
            writer.append(t, ref);
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
