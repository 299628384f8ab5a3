#include "sim/trace.hh"

#include <algorithm>
#include <istream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "common/parse_number.hh"

namespace vcoma
{

namespace
{

constexpr const char *traceMagic = "vcoma-trace-v1";

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

TextTrace
parseTextTrace(std::istream &is)
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
        // Checked before the streams grow: a hostile header must not
        // allocate billions of streams.
        if (*n > maxNodes)
            fatal("trace line ", lineNo, ": ", *n,
                  " threads exceed the machine's ", maxNodes, " nodes");
        threads = *n;
    }
    TextTrace trace;
    trace.streams.resize(threads);

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
            ref = MemRef::mem(kind == 'R' ? RefType::Read
                                          : RefType::Write,
                              *vaddr, *work);
            lo = std::min(lo, *vaddr);
            hi = std::max(hi, *vaddr + 8);
        } else {
            const auto id = parseNumber<std::uint32_t>(f[2]);
            if (!id)
                fatal("trace line ", lineNo, ": bad ", family, " id '",
                      f[2], "'");
            ref = MemRef::sync(kind == 'B'   ? MemRef::Kind::Barrier
                               : kind == 'L' ? MemRef::Kind::LockAcquire
                                             : MemRef::Kind::LockRelease,
                               *id, 0);
        }
        trace.streams[*tid].push_back(ref);
    }

    if (hi > lo) {
        trace.lo = lo;
        trace.hi = hi;
    }
    return trace;
}

} // namespace vcoma
