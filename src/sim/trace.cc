#include "sim/trace.hh"

#include <algorithm>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <string_view>

#include "common/logging.hh"
#include "common/parse_number.hh"

namespace vcoma
{

namespace
{

constexpr const char *traceMagic = "vcoma-trace-v1";

char
kindChar(const MemRef &ref)
{
    switch (ref.kind) {
      case MemRef::Kind::Mem:
        return ref.type == RefType::Read ? 'R' : 'W';
      case MemRef::Kind::Barrier:
        return 'B';
      case MemRef::Kind::LockAcquire:
        return 'L';
      case MemRef::Kind::LockRelease:
        return 'U';
    }
    return '?';
}

/** Whitespace-separated fields of one trace line. */
std::vector<std::string>
fieldsOf(const std::string &line)
{
    std::istringstream ls(line);
    std::vector<std::string> fields;
    for (std::string field; ls >> field;)
        fields.push_back(field);
    return fields;
}

/**
 * A trace address: decimal, or hex with an explicit 0x prefix. Never
 * octal: a leading zero must not silently change the base.
 */
std::optional<VAddr>
parseAddress(std::string_view text)
{
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X'))
        return parseNumber<VAddr>(text.substr(2), 16);
    return parseNumber<VAddr>(text);
}

} // namespace

std::uint64_t
recordTrace(Workload &workload, std::ostream &os)
{
    const unsigned P = workload.numThreads();
    os << traceMagic << "\n";
    os << "threads " << P << "\n";

    std::vector<Generator<MemRef>> gens;
    gens.reserve(P);
    for (unsigned t = 0; t < P; ++t)
        gens.push_back(workload.thread(t));

    std::vector<bool> done(P, false);
    std::vector<int> parkedAt(P, -1);
    unsigned live = P;
    std::uint64_t events = 0;

    while (live > 0) {
        bool progressed = false;
        for (unsigned t = 0; t < P; ++t) {
            if (done[t] || parkedAt[t] >= 0)
                continue;
            auto ref = gens[t].next();
            progressed = true;
            if (!ref) {
                done[t] = true;
                --live;
                continue;
            }
            ++events;
            os << t << " " << kindChar(*ref);
            switch (ref->kind) {
              case MemRef::Kind::Mem:
                os << " " << ref->vaddr << " " << ref->work;
                break;
              case MemRef::Kind::Barrier:
              case MemRef::Kind::LockAcquire:
              case MemRef::Kind::LockRelease:
                os << " " << ref->syncId;
                break;
            }
            os << "\n";

            if (ref->kind == MemRef::Kind::Barrier) {
                parkedAt[t] = static_cast<int>(ref->syncId);
                unsigned waiting = 0;
                for (unsigned u = 0; u < P; ++u) {
                    if (!done[u] && parkedAt[u] == parkedAt[t])
                        ++waiting;
                }
                if (waiting == live) {
                    for (unsigned u = 0; u < P; ++u)
                        parkedAt[u] = -1;
                }
            }
        }
        if (!progressed && live > 0)
            panic("recordTrace: barrier deadlock in workload '",
                  workload.name(), "'");
    }
    return events;
}

TraceWorkload::TraceWorkload(std::istream &is, std::string name)
    : name_(std::move(name))
{
    // Parse line-by-line so every diagnostic can carry a line number,
    // and so garbage between or after events is an error rather than a
    // silent end of parsing.
    std::string line;
    std::uint64_t lineNo = 1;
    if (!std::getline(is, line) || line != traceMagic)
        fatal("trace: bad magic (expected '", traceMagic, "')");

    unsigned threads = 0;
    {
        ++lineNo;
        if (!std::getline(is, line))
            fatal("trace line ", lineNo, ": missing thread count");
        const std::vector<std::string> f = fieldsOf(line);
        const auto n = f.size() >= 2 && f[0] == "threads"
                           ? parseNumber<unsigned>(f[1])
                           : std::nullopt;
        if (!n || *n == 0)
            fatal("trace line ", lineNo, ": missing thread count");
        if (f.size() > 2)
            fatal("trace line ", lineNo, ": trailing garbage '", f[2],
                  "' after thread count");
        threads = *n;
    }
    perThread_.resize(threads);

    VAddr lo = std::numeric_limits<VAddr>::max();
    VAddr hi = 0;
    while (std::getline(is, line)) {
        ++lineNo;
        const std::vector<std::string> f = fieldsOf(line);
        if (f.empty() || f[0].front() == '#')
            continue;  // blank and comment lines stay tolerated
        const auto tid = parseNumber<unsigned>(f[0]);
        if (!tid || f.size() < 2 || f[1].size() != 1) {
            if (f[0] == "threads")
                fatal("trace line ", lineNo,
                      ": duplicate 'threads' header");
            fatal("trace line ", lineNo, ": malformed event '", line,
                  "'");
        }
        if (*tid >= threads)
            fatal("trace line ", lineNo, ": thread id ", *tid,
                  " out of range (trace declares ", threads,
                  " threads)");

        const char kind = f[1][0];
        const bool mem = kind == 'R' || kind == 'W';
        const char *family = mem           ? "memory"
                             : kind == 'B' ? "barrier"
                             : kind == 'L' ? "lock"
                             : kind == 'U' ? "unlock"
                                           : nullptr;
        if (!family)
            fatal("trace line ", lineNo, ": unknown event kind '",
                  kind, "'");
        const std::size_t arity = mem ? 4 : 3;
        if (f.size() < arity)
            fatal("trace line ", lineNo, ": truncated ", family,
                  " event");
        if (f.size() > arity)
            fatal("trace line ", lineNo, ": trailing garbage '",
                  f[arity], "' after event");

        MemRef ref;
        if (mem) {
            ref.kind = MemRef::Kind::Mem;
            ref.type = kind == 'R' ? RefType::Read : RefType::Write;
            const auto vaddr = parseAddress(f[2]);
            if (!vaddr)
                fatal("trace line ", lineNo, ": bad address '", f[2],
                      "'");
            // The footprint covers 8 bytes per reference; past
            // 2^64 - 8 that range would wrap.
            if (*vaddr > std::numeric_limits<VAddr>::max() - 8)
                fatal("trace line ", lineNo, ": address '", f[2],
                      "' leaves no room for an 8-byte access");
            const auto work = parseNumber<std::uint32_t>(f[3]);
            if (!work)
                fatal("trace line ", lineNo, ": bad work count '", f[3],
                      "'");
            ref.vaddr = *vaddr;
            ref.work = *work;
            lo = std::min(lo, ref.vaddr);
            hi = std::max(hi, ref.vaddr + 8);
        } else {
            ref.kind = kind == 'B'   ? MemRef::Kind::Barrier
                       : kind == 'L' ? MemRef::Kind::LockAcquire
                                     : MemRef::Kind::LockRelease;
            const auto id = parseNumber<std::uint32_t>(f[2]);
            if (!id)
                fatal("trace line ", lineNo, ": bad ", family, " id '",
                      f[2], "'");
            ref.syncId = *id;
        }
        perThread_[*tid].push_back(ref);
    }

    // One synthetic segment spanning every touched address, so
    // footprint reporting and bounds checks keep working.
    if (hi > lo) {
        space_ = AddressSpace(lo);
        space_.alloc("trace.data", hi - lo, 1);
    }
}

std::string
TraceWorkload::parameters() const
{
    std::uint64_t events = 0;
    for (const auto &v : perThread_)
        events += v.size();
    return std::to_string(events) + " events, " +
           std::to_string(perThread_.size()) + " threads";
}

unsigned
TraceWorkload::numThreads() const
{
    return static_cast<unsigned>(perThread_.size());
}

std::span<const MemRef>
TraceWorkload::stream(unsigned tid)
{
    if (tid >= perThread_.size())
        fatal("trace replay: no thread ", tid);
    return perThread_[tid];
}

Generator<MemRef>
TraceWorkload::thread(unsigned tid)
{
    return replayStream(stream(tid));
}

} // namespace vcoma
