/**
 * @file
 * vcoma_sim — the command-line front end of the simulator.
 *
 * Runs one workload (built-in kernel or packed trace) on one machine
 * configuration and reports the stats sheet; can also record the
 * packed trace of exactly what the run consumed, and dump the full
 * per-component statistics hierarchy.
 *
 *   vcoma_sim --workload FFT --scheme VCOMA --entries 8
 *   vcoma_sim --workload RADIX --scheme L0 --entries 16 --assoc 1
 *   vcoma_sim --workload BARNES --record barnes.vctrace
 *   vcoma_sim --workload TRACE:barnes.vctrace --scheme L3 --dump-stats
 */

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <type_traits>

#include "common/parse_number.hh"
#include "harness/runner.hh"
#include "sim/machine.hh"
#include "translation/scheme.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

struct Options
{
    /** The run, as the Runner would key it; timed unless --untimed. */
    ExperimentConfig run;
    std::string recordPath;
    bool dumpStats = false;
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
        "  --record FILE     also publish the run's packed trace\n"
        "                    (replay it with --workload TRACE:FILE)\n"
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
    opt.run.timedTranslation = true;
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
            opt.run.workload = value(i);
        else if (arg == "--scheme")
            opt.run.scheme = parseScheme(value(i));
        else if (arg == "--entries")
            number(i, opt.run.tlbEntries);
        else if (arg == "--assoc")
            number(i, opt.run.tlbAssoc);
        else if (arg == "--nodes")
            number(i, opt.run.nodes);
        else if (arg == "--scale")
            number(i, opt.run.scale);
        else if (arg == "--seed")
            number(i, opt.run.seed);
        else if (arg == "--untimed")
            opt.run.timedTranslation = false;
        else if (arg == "--raytrace-v2")
            opt.run.raytraceV2 = true;
        else if (arg == "--record")
            opt.recordPath = value(i);
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

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parse(argc, argv);
    const ExperimentConfig &run = opt.run;
    const std::unique_ptr<Workload> workload =
        makeWorkload(run.workload, run.workloadParams());

    // The exporters are wired to the environment (so every consumer —
    // bench binaries, the service — shares one switch); the CLI flags
    // are sugar over the same mechanism and must precede Machine
    // construction, which opens the tracer.
    if (!opt.statsJsonPath.empty())
        ::setenv("VCOMA_STATS_JSON", opt.statsJsonPath.c_str(), 1);
    if (!opt.traceEventsPath.empty())
        ::setenv("VCOMA_TRACE_EVENTS", opt.traceEventsPath.c_str(), 1);

    Machine machine(run.machine());

    std::optional<RecordingWorkload> recording;
    if (!opt.recordPath.empty())
        recording.emplace(*workload, opt.recordPath, run.key());
    const RunStats stats =
        machine.run(recording ? *recording : *workload);
    if (recording && !recording->finalize()) {
        std::cerr << "vcoma_sim: cannot record trace '" << opt.recordPath
                  << "'\n";
        return 1;
    }

    std::cout << "workload     : " << stats.workload << " ("
              << stats.parameters << ")\n"
              << "scheme       : " << schemeName(stats.scheme)
              << ", TLB/DLB " << run.tlbEntries << " entries, "
              << (run.tlbAssoc == 0 ? std::string("fully associative")
                                    : std::to_string(run.tlbAssoc) + "-way")
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
