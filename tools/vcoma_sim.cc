/**
 * @file
 * vcoma_sim — the command-line front end of the simulator.
 *
 * Runs one workload (built-in kernel or recorded trace) on one machine
 * configuration and reports the stats sheet; can also record traces
 * and dump the full per-component statistics hierarchy.
 *
 *   vcoma_sim --workload FFT --scheme VCOMA --entries 8
 *   vcoma_sim --workload RADIX --scheme L0 --entries 16 --assoc 1
 *   vcoma_sim --workload BARNES --record barnes.trace
 *   vcoma_sim --replay barnes.trace --scheme L3 --dump-stats
 */

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <type_traits>

#include "common/parse_number.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "translation/scheme.hh"
#include "translation/system_builder.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

struct Options
{
    std::string workload = "RADIX";
    std::string replayPath;
    std::string recordPath;
    Scheme scheme = Scheme::VCOMA;
    unsigned entries = 8;
    unsigned assoc = 0;
    unsigned nodes = 32;
    double scale = 1.0;
    std::uint64_t seed = 1;
    bool timed = true;
    bool dumpStats = false;
    bool raytraceV2 = false;
    std::string statsJsonPath;
    std::string traceEventsPath;
};

/** Accepted --scheme spellings, straight from the registry. */
std::string
schemeTokenList()
{
    std::string out;
    for (const auto &d : schemeRegistry()) {
        // The shortest accepted spelling per scheme ("L0" rather
        // than "L0-TLB"); the canonical name wins ties.
        std::string token = d.name;
        for (const std::string &alias : d.aliases)
            if (alias.size() < token.size())
                token = alias;
        if (!out.empty())
            out += " ";
        out += token;
    }
    return out;
}

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: vcoma_sim [options]\n"
        "  --workload NAME   RADIX FFT FMM OCEAN RAYTRACE BARNES\n"
        "                    UNIFORM STRIDE HOTSPOT (default RADIX)\n"
        "                    KVLOOKUP GRAPH STREAMJOIN, with optional\n"
        "                    inline knobs (KVLOOKUP:skew=1.2,read=0.5)\n"
        "                    or TRACE:FILE to replay a packed trace\n"
        "                    (see vcoma_trace; nodes must match it)\n"
        "  --scheme S        translation scheme (default VCOMA); one\n"
        "                    of: " + schemeTokenList() + "\n"
        "  --entries N       TLB/DLB entries; 0 = software-managed\n"
        "  --assoc N         TLB/DLB associativity; 0 = fully assoc.\n"
        "  --nodes N         processing nodes (power of two, <= 64)\n"
        "  --scale X         problem-size scale (default 1.0)\n"
        "  --seed N          deterministic seed\n"
        "  --untimed         do not charge translation-miss penalties\n"
        "  --raytrace-v2     page-aligned ray stacks (Figure 10 V2)\n"
        "  --record FILE     write the reference trace and exit\n"
        "  --replay FILE     simulate a recorded trace\n"
        "  --dump-stats      print the per-component stats hierarchy\n"
        "  --stats-json FILE append the stats sheet as one JSONL line\n"
        "                    (same as VCOMA_STATS_JSON=FILE)\n"
        "  --trace-events FILE write a Chrome trace of the run\n"
        "                    (same as VCOMA_TRACE_EVENTS=FILE)\n"
        "  --help\n";
    std::exit(code);
}

Scheme
parseScheme(const std::string &s)
{
    // Strict registry parse: an unknown token is fatal (never a
    // silent default), with the accepted spellings spelled out.
    Scheme out;
    if (!vcoma::tryParseScheme(s, out)) {
        std::cerr << "unknown scheme '" << s << "'; accepted: "
                  << schemeTokenList() << "\n";
        usage(2);
    }
    return out;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    auto value = [&](int &i) -> std::string {
        if (i + 1 >= argc) {
            std::cerr << "missing value for " << argv[i] << "\n";
            usage(2);
        }
        return argv[++i];
    };
    // Every numeric flag parses strictly: a malformed or out-of-range
    // value is a usage error naming the flag, never a different number.
    auto number = [&](int &i, auto &out) {
        const char *flag = argv[i];
        const std::string text = value(i);
        const auto v =
            parseNumber<std::remove_reference_t<decltype(out)>>(text);
        if (!v) {
            std::cerr << "vcoma_sim: invalid value '" << text << "' for "
                      << flag << "\n";
            usage(2);
        }
        out = *v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload")
            opt.workload = value(i);
        else if (arg == "--scheme")
            opt.scheme = parseScheme(value(i));
        else if (arg == "--entries")
            number(i, opt.entries);
        else if (arg == "--assoc")
            number(i, opt.assoc);
        else if (arg == "--nodes")
            number(i, opt.nodes);
        else if (arg == "--scale")
            number(i, opt.scale);
        else if (arg == "--seed")
            number(i, opt.seed);
        else if (arg == "--untimed")
            opt.timed = false;
        else if (arg == "--raytrace-v2")
            opt.raytraceV2 = true;
        else if (arg == "--record")
            opt.recordPath = value(i);
        else if (arg == "--replay")
            opt.replayPath = value(i);
        else if (arg == "--dump-stats")
            opt.dumpStats = true;
        else if (arg == "--stats-json")
            opt.statsJsonPath = value(i);
        else if (arg == "--trace-events")
            opt.traceEventsPath = value(i);
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else {
            std::cerr << "vcoma_sim: unknown option '" << arg
                      << "' (flags are never ignored; see --help)\n";
            usage(2);
        }
    }
    return opt;
}

std::unique_ptr<Workload>
buildWorkload(const Options &opt)
{
    if (!opt.replayPath.empty()) {
        std::ifstream in(opt.replayPath);
        if (!in) {
            std::cerr << "cannot open trace '" << opt.replayPath
                      << "'\n";
            std::exit(1);
        }
        return std::make_unique<TraceWorkload>(in);
    }
    WorkloadParams params;
    params.threads = opt.nodes;
    params.scale = opt.scale;
    params.seed = opt.seed;
    params.raytraceV2Layout = opt.raytraceV2;
    return makeWorkload(opt.workload, params);
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parse(argc, argv);
    auto workload = buildWorkload(opt);

    if (!opt.recordPath.empty()) {
        std::ofstream out(opt.recordPath);
        if (!out) {
            std::cerr << "cannot write '" << opt.recordPath << "'\n";
            return 1;
        }
        const std::uint64_t events = recordTrace(*workload, out);
        std::cout << "recorded " << events << " events from "
                  << workload->name() << " to " << opt.recordPath
                  << "\n";
        return 0;
    }

    // The exporters are wired to the environment (so every consumer —
    // bench binaries, the service — shares one switch); the CLI flags
    // are sugar over the same mechanism and must precede Machine
    // construction, which opens the tracer.
    if (!opt.statsJsonPath.empty())
        ::setenv("VCOMA_STATS_JSON", opt.statsJsonPath.c_str(), 1);
    if (!opt.traceEventsPath.empty())
        ::setenv("VCOMA_TRACE_EVENTS", opt.traceEventsPath.c_str(), 1);

    MachineConfig cfg =
        baselineConfig(opt.scheme, opt.entries, opt.assoc);
    cfg.numNodes = opt.nodes;
    cfg.timedTranslation = opt.timed;
    cfg.seed = opt.seed;
    Machine machine(cfg);

    const RunStats stats = machine.run(*workload);

    std::cout << "workload     : " << stats.workload << " ("
              << stats.parameters << ")\n"
              << "scheme       : " << schemeName(stats.scheme)
              << ", TLB/DLB " << opt.entries << " entries, "
              << (opt.assoc == 0 ? std::string("fully associative")
                                 : std::to_string(opt.assoc) + "-way")
              << "\n"
              << "nodes        : " << stats.numNodes << "\n"
              << "references   : " << stats.totalRefs() << "\n"
              << "exec time    : " << stats.execTime << " cycles\n";
    const double total = static_cast<double>(
        stats.totalBusy() + stats.totalSync() + stats.totalLocStall() +
        stats.totalRemStall() + stats.totalXlatStall());
    auto pct = [&](double v) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f%%", 100.0 * v / total);
        return std::string(buf);
    };
    std::cout << "breakdown    : busy " << pct(stats.totalBusy())
              << ", sync " << pct(stats.totalSync()) << ", local "
              << pct(stats.totalLocStall()) << ", remote "
              << pct(stats.totalRemStall()) << ", translation "
              << pct(stats.totalXlatStall()) << "\n"
              << "translation  : " << stats.tlbMisses << "/"
              << stats.tlbAccesses << " demand misses/accesses\n"
              << "protocol     : " << stats.remoteReads
              << " remote reads, " << stats.remoteWrites
              << " remote writes, " << stats.upgrades << " upgrades, "
              << stats.injections << " injections\n"
              << "network      : " << stats.requestMessages
              << " requests, " << stats.blockMessages
              << " block messages\n";

    if (opt.dumpStats) {
        std::cout << "\n";
        machine.dumpStats(std::cout);
    }
    return 0;
} catch (const std::exception &e) {
    std::cerr << e.what() << "\n";
    return 1;
}
