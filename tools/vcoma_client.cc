/**
 * @file
 * vcoma_client — the simulator's command-line front end. Its two
 * commands read one flag table: a config flag sets the same
 * ExperimentConfig field in both, and a flag left out keeps that
 * struct's default (so both are untimed unless --timed).
 *
 *   vcoma_client direct --workloads RADIX,FFT --schemes L0,VCOMA \
 *                      --scale 0.1 --jsonl direct.jsonl
 *   vcoma_client run --workload BARNES --scheme L3 --entries 16
 *   vcoma_client run --workload BARNES --record barnes.vctrace
 *   vcoma_client run --workload TRACE:barnes.vctrace --dump-stats
 *
 * `direct` runs the configs (workloads outer, schemes inner) as one
 * Runner::runAll batch on $VCOMA_JOBS threads. Stderr carries one
 * provenance line per config, "(cached)" or "(simulated)", and a last
 * line counting the simulations the batch ran.
 *
 * `run` simulates exactly one config live through a Machine, past the
 * result cache, and prints a human summary. `--record FILE` also
 * publishes the packed trace of exactly what the run consumed (replay
 * it as --workload TRACE:FILE); `--dump-stats` prints the
 * per-component stats hierarchy.
 *
 * `--jsonl FILE` is the one way a sheet leaves the process (`direct`
 * requires it): one line per config, the exact writeRunStatsJson()
 * bytes plus a newline, in submission order, which is what
 * tools/vcoma_sweep reads. A `direct` config that fails appends a
 * {"schema":1,"key":...,"error":...} placeholder line so the file
 * always lines up 1:1 with the submitted configs; a failed `run`
 * (including a trace that did not publish) appends nothing. The file
 * is appended to, never truncated; remove it first for a fresh sweep.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "common/parse_number.hh"
#include "harness/runner.hh"
#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "translation/scheme.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

struct Options
{
    std::string command;
    /** Every config flag sets a field here; the rest keep defaults. */
    ExperimentConfig base;
    std::vector<std::string> workloads{base.workload};
    std::vector<Scheme> schemes{base.scheme};
    std::string jsonlFile;
    std::string recordPath;
    bool dumpStats = false;
};

/** The commands a flag applies to (a bit set). */
enum : unsigned { Direct = 1, Run = 2, Both = Direct | Run };

/** One command-line flag: its spelling, its help and its effect. */
struct Flag
{
    const char *name;
    /** Value placeholder; nullptr for a switch. */
    const char *meta;
    unsigned commands;
    const char *help;
    void (*set)(Options &, const char *flag, const std::string &value);
};

void printUsage(std::ostream &os);

[[noreturn]] void
usageError(const std::string &message)
{
    std::cerr << "vcoma_client: " << message << "\n";
    printUsage(std::cerr);
    std::exit(2);
}

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

Scheme
schemeToken(const std::string &token)
{
    // Strict registry parse: an unknown token is a usage error (never
    // a silent default), with the accepted spellings spelled out.
    Scheme out;
    if (!tryParseScheme(token, out))
        usageError("unknown scheme '" + token + "'; accepted: " +
                   schemeTokenList());
    return out;
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::istringstream is(s);
    std::string item;
    while (std::getline(is, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

/**
 * Every numeric flag parses strictly: a malformed or out-of-range
 * value is a usage error naming the flag, never a different number.
 */
template <auto Field>
void
setNumber(Options &opt, const char *flag, const std::string &text)
{
    auto &out = opt.base.*Field;
    const auto v = parseNumber<std::remove_reference_t<decltype(out)>>(text);
    if (!v)
        usageError("invalid value '" + text + "' for " + flag);
    out = *v;
}

template <auto Field, bool Value>
void
setSwitch(Options &opt, const char *, const std::string &)
{
    opt.base.*Field = Value;
}

using Text = const std::string &;

/** The one map from flags to ExperimentConfig fields and outputs. */
const Flag flagTable[] = {
    {"--workload", "NAME", Both,
     "RADIX FFT FMM OCEAN RAYTRACE BARNES UNIFORM STRIDE\n"
     "HOTSPOT KVLOOKUP GRAPH STREAMJOIN, with optional\n"
     "inline knobs (KVLOOKUP:skew=1.2,read=0.5), or\n"
     "TRACE:FILE to replay a packed trace (see\n"
     "vcoma_trace; nodes must match it)",
     [](Options &o, const char *, Text v) { o.workloads = {v}; }},
    {"--workloads", "A,B,...", Both, "several workloads",
     [](Options &o, const char *, Text v) { o.workloads = splitList(v); }},
    {"--scheme", "S", Both, nullptr,  // help: the registry's spellings
     [](Options &o, const char *, Text v) { o.schemes = {schemeToken(v)}; }},
    {"--schemes", "S1,S2,...", Both, "several schemes",
     [](Options &o, const char *, Text v) {
         o.schemes.clear();
         for (const std::string &token : splitList(v))
             o.schemes.push_back(schemeToken(token));
     }},
    {"--entries", "N", Both, "TLB/DLB entries; 0 = software-managed",
     setNumber<&ExperimentConfig::tlbEntries>},
    {"--assoc", "N", Both, "TLB/DLB associativity; 0 = fully assoc.",
     setNumber<&ExperimentConfig::tlbAssoc>},
    {"--nodes", "N", Both, "processing nodes (power of two, <= 64)",
     setNumber<&ExperimentConfig::nodes>},
    {"--scale", "X", Both, "problem-size scale",
     setNumber<&ExperimentConfig::scale>},
    {"--seed", "N", Both, "deterministic seed",
     setNumber<&ExperimentConfig::seed>},
    {"--timed", nullptr, Both, "charge translation-miss penalties",
     setSwitch<&ExperimentConfig::timedTranslation, true>},
    {"--untimed", nullptr, Both, "do not charge them",
     setSwitch<&ExperimentConfig::timedTranslation, false>},
    {"--no-wback-tlb", nullptr, Both, "L2-TLB: write-backs skip the TLB",
     setSwitch<&ExperimentConfig::writebacksAccessTlb, false>},
    {"--raytrace-v2", nullptr, Both, "page-aligned ray stacks (Fig. 10 V2)",
     setSwitch<&ExperimentConfig::raytraceV2, true>},
    {"--am-assoc", "N", Both, "attraction-memory associativity",
     setNumber<&ExperimentConfig::amAssoc>},
    {"--xlat-penalty", "N", Both, "TLB/DLB miss service cycles",
     setNumber<&ExperimentConfig::xlatPenalty>},
    {"--inject-fault", "CLASS", Both, "poison the finished run (tests)",
     [](Options &o, const char *, Text v) { o.base.injectFault = v; }},
    {"--jsonl", "FILE", Both, "append one stats line per config",
     [](Options &o, const char *, Text v) { o.jsonlFile = v; }},
    {"--record", "FILE", Run, "also publish the run's packed trace",
     [](Options &o, const char *, Text v) { o.recordPath = v; }},
    {"--dump-stats", nullptr, Run, "print the per-component stats",
     [](Options &o, const char *, Text) { o.dumpStats = true; }},
};

void
printUsage(std::ostream &os)
{
    os << "usage: vcoma_client direct [flags] --jsonl F\n"
          "         run the configs through a local Runner\n"
          "       vcoma_client run [flags]\n"
          "         simulate one config live, uncached, and summarise it\n"
          "flags (r = run only):\n";
    for (const Flag &f : flagTable) {
        std::string head = std::string("  ") + f.name;
        if (f.meta)
            head += std::string(" ") + f.meta;
        if (f.commands == Run)
            head += " (r)";
        const std::string help =
            f.help ? f.help : "one of: " + schemeTokenList();
        std::istringstream lines(help);
        std::string line;
        while (std::getline(lines, line)) {
            head.resize(std::max<std::size_t>(head.size() + 1, 28), ' ');
            os << head << line << "\n";
            head.clear();
        }
    }
    os << "an unset flag keeps the default in this key:\n  "
       << ExperimentConfig{}.key() << "\n";
}

Options
parse(int argc, char **argv)
{
    Options opt;
    std::vector<const Flag *> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(std::cout);
            std::exit(0);
        }
        if (arg.empty() || arg[0] != '-') {
            if (!opt.command.empty())
                usageError("unexpected argument '" + arg + "'");
            opt.command = arg;
            continue;
        }
        const Flag *flag = nullptr;
        for (const Flag &f : flagTable)
            if (arg == f.name)
                flag = &f;
        if (!flag)
            usageError("unknown option '" + arg +
                       "' (flags are never ignored; see --help)");
        std::string value;
        if (flag->meta) {
            if (i + 1 >= argc)
                usageError("missing value for " + arg);
            value = argv[++i];
        }
        flag->set(opt, flag->name, value);
        seen.push_back(flag);
    }
    unsigned command = 0;
    if (opt.command == "direct")
        command = Direct;
    else if (opt.command == "run")
        command = Run;
    else
        usageError(opt.command.empty() ? "missing command"
                   : "unknown command '" + opt.command + "'");
    for (const Flag *f : seen)
        if (!(f->commands & command))
            usageError(std::string(f->name) + " does not apply to " +
                       opt.command);
    if (command == Direct && opt.jsonlFile.empty())
        usageError("direct needs --jsonl");
    if (command == Run &&
        opt.workloads.size() * opt.schemes.size() != 1)
        usageError("run simulates one config: give one workload and "
                   "one scheme");
    return opt;
}

std::vector<ExperimentConfig>
sweepConfigs(const Options &opt)
{
    std::vector<ExperimentConfig> cfgs;
    for (const std::string &w : opt.workloads) {
        for (Scheme s : opt.schemes) {
            ExperimentConfig cfg = opt.base;
            cfg.workload = w;
            cfg.scheme = s;
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

/**
 * The --jsonl file, opened for appending (never truncating) so several
 * invocations can share it; closed (and so written to by no one) when
 * the flag is absent.
 */
std::ofstream
openJsonl(const std::string &path)
{
    std::ofstream out;
    if (!path.empty()) {
        out.open(path, std::ios::app);
        if (!out) {
            std::cerr << "cannot append to '" << path << "'\n";
            std::exit(1);
        }
    }
    return out;
}

/**
 * The --jsonl file is the only copy of the sheets: false, with a
 * message, when its lines did not reach it.
 */
bool
jsonlWritten(std::ofstream &jsonl, const std::string &path)
{
    if (path.empty() || jsonl.flush())
        return true;
    std::cerr << "cannot write '" << path << "'\n";
    return false;
}

std::string
statsJson(const RunStats &stats)
{
    std::ostringstream sheet;
    writeRunStatsJson(sheet, stats);
    return sheet.str();
}

int
runDirect(const Options &opt)
{
    std::ofstream jsonl = openJsonl(opt.jsonlFile);
    const std::vector<ExperimentConfig> cfgs = sweepConfigs(opt);
    Runner runner;
    std::vector<bool> fresh;
    const std::vector<const RunStats *> results = runner.runAll(cfgs, &fresh);
    int rc = 0;
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        const ExperimentConfig &cfg = cfgs[i];
        const RunStats *stats = results[i];
        if (!stats) {
            std::cerr << "vcoma_client: " << cfg.key() << ": failed: "
                      << runner.failureMessage(cfg.key()) << "\n";
            jsonl << "{\"schema\":1,\"key\":\"" << jsonEscape(cfg.key())
                  << "\",\"error\":\""
                  << jsonEscape(runner.failureMessage(cfg.key())) << "\"}\n";
            rc = 1;
            continue;
        }
        // Provenance goes to stderr; stdout stays machine-clean.
        std::cerr << "vcoma_client: " << cfg.key()
                  << (fresh[i] ? " (simulated)" : " (cached)") << "\n";
        jsonl << statsJson(*stats) << "\n";
    }
    // One simulation serves every TLB/DLB size of an untimed config,
    // and L3-TLB, V-COMA and NMT alike, so this can be fewer than the
    // configs reported simulated.
    std::cerr << "vcoma_client: " << runner.executed()
              << " simulation(s) for " << cfgs.size() << " config(s)\n";
    return jsonlWritten(jsonl, opt.jsonlFile) ? rc : 1;
}

void
printSummary(const ExperimentConfig &run, const RunStats &stats)
{
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
}

int
runOne(const Options &opt)
{
    const ExperimentConfig run = sweepConfigs(opt).front();
    const std::unique_ptr<Workload> workload =
        makeWorkload(run.workload, run.workloadParams());
    // A trace that cannot be staged throws here, before the run.
    std::optional<RecordingWorkload> recording;
    if (!opt.recordPath.empty())
        recording.emplace(*workload, opt.recordPath, run.key());
    std::ofstream jsonl = openJsonl(opt.jsonlFile);
    Machine machine(run.machine());
    const RunStats stats =
        machine.run(recording ? *recording : *workload);
    if (!run.injectFault.empty())
        applyConfiguredFault(machine, run);
    if (recording && !recording->finalize()) {
        std::cerr << "vcoma_client: cannot record trace '"
                  << opt.recordPath << "'\n";
        return 1;
    }
    // Only a run whose trace (if any) published yields a sheet.
    jsonl << statsJson(stats) << "\n";
    if (!jsonlWritten(jsonl, opt.jsonlFile))
        return 1;
    printSummary(run, stats);
    if (opt.dumpStats) {
        std::cout << "\n";
        machine.dumpStats(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
try {
    const Options opt = parse(argc, argv);
    return opt.command == "run" ? runOne(opt) : runDirect(opt);
} catch (const std::exception &e) {
    std::cerr << e.what() << "\n";
    return 1;
}
