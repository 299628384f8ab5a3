/**
 * @file
 * vcoma_client — runs a sweep through a local Runner, one sheet per
 * config:
 *
 *   vcoma_client direct --workloads RADIX,FFT --schemes L0,VCOMA \
 *                      --scale 0.1 --out-dir direct/
 *
 * The configs (workloads outer, schemes inner) run as one
 * Runner::runAll batch on $VCOMA_JOBS threads. Sheets are the exact
 * writeRunStatsJson() output plus one newline. Stderr carries one
 * provenance line per config, "(cached)" or "(simulated)", and a last
 * line counting the simulations the batch ran.
 *
 * `--jsonl FILE` additionally appends one stats record
 * per config — the exact writeRunStatsJson() bytes, i.e. the same
 * schema $VCOMA_STATS_JSON produces — in submission order, so
 * machine consumers (tools/vcoma_sweep) read one stable JSONL
 * interface instead of scraping sheet files. A config that fails
 * appends a {"schema":1,"key":...,"error":...} placeholder line so
 * the file always lines up 1:1 with the submitted configs. The file
 * is appended to (like $VCOMA_STATS_JSON), never truncated; remove
 * it first for a fresh sweep.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "common/parse_number.hh"
#include "harness/runner.hh"
#include "sim/run_stats_json.hh"
#include "translation/scheme.hh"

using namespace vcoma;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: vcoma_client direct [sweep] --out-dir D\n"
        "  run the sweep through a local Runner, one sheet per file\n"
        "config options:\n"
        "  --workload NAME --scheme S --entries N --assoc N --nodes N\n"
        "  --scale X --seed N --untimed --no-wback-tlb --raytrace-v2\n"
        "  --am-assoc N --xlat-penalty N --inject-fault CLASS\n"
        "sweep options: config options, plus\n"
        "  --workloads A,B,...        instead of --workload\n"
        "  --schemes S1,S2,...        instead of --scheme\n"
        "  --jsonl FILE               append one stats record per\n"
        "                             config (VCOMA_STATS_JSON schema,\n"
        "                             submission order); may replace\n"
        "                             --out-dir\n";
    std::exit(code);
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

struct Options
{
    std::string command;
    std::string outDir;
    std::string jsonlFile;
    std::vector<std::string> workloads{"RADIX"};
    std::vector<std::string> schemes{"VCOMA"};
    ExperimentConfig base;
};

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
            std::cerr << "vcoma_client: invalid value '" << text << "' for "
                      << flag << "\n";
            usage(2);
        }
        out = *v;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out-dir")
            opt.outDir = value(i);
        else if (arg == "--jsonl")
            opt.jsonlFile = value(i);
        else if (arg == "--workload")
            opt.workloads = {value(i)};
        else if (arg == "--workloads")
            opt.workloads = splitList(value(i));
        else if (arg == "--scheme")
            opt.schemes = {value(i)};
        else if (arg == "--schemes")
            opt.schemes = splitList(value(i));
        else if (arg == "--entries")
            number(i, opt.base.tlbEntries);
        else if (arg == "--assoc")
            number(i, opt.base.tlbAssoc);
        else if (arg == "--nodes")
            number(i, opt.base.nodes);
        else if (arg == "--scale")
            number(i, opt.base.scale);
        else if (arg == "--seed")
            number(i, opt.base.seed);
        else if (arg == "--untimed")
            opt.base.timedTranslation = false;
        else if (arg == "--timed")
            opt.base.timedTranslation = true;
        else if (arg == "--no-wback-tlb")
            opt.base.writebacksAccessTlb = false;
        else if (arg == "--raytrace-v2")
            opt.base.raytraceV2 = true;
        else if (arg == "--am-assoc")
            number(i, opt.base.amAssoc);
        else if (arg == "--xlat-penalty")
            number(i, opt.base.xlatPenalty);
        else if (arg == "--inject-fault")
            opt.base.injectFault = value(i);
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else if (!arg.empty() && arg[0] == '-') {
            std::cerr << "unknown option '" << arg << "'\n";
            usage(2);
        } else if (opt.command.empty()) {
            opt.command = arg;
        } else {
            std::cerr << "unexpected argument '" << arg << "'\n";
            usage(2);
        }
    }
    if (opt.command.empty()) {
        std::cerr << "missing command\n";
        usage(2);
    }
    return opt;
}

std::vector<ExperimentConfig>
sweepConfigs(const Options &opt)
{
    std::vector<ExperimentConfig> cfgs;
    for (const std::string &w : opt.workloads) {
        for (const std::string &s : opt.schemes) {
            ExperimentConfig cfg = opt.base;
            cfg.workload = w;
            cfg.scheme = parseScheme(s);
            cfgs.push_back(cfg);
        }
    }
    return cfgs;
}

void
writeSheet(const std::string &path, const std::string &statsJson)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write '" << path << "'\n";
        std::exit(1);
    }
    out << statsJson << "\n";
}

/**
 * Machine-readable sweep output: one JSONL line per submitted config,
 * in submission order, appended (never truncated) so several client
 * invocations can share one file. Successful configs append the
 * exact stats-sheet bytes; failures append a placeholder line so the
 * file always aligns 1:1 with the configs.
 */
class JsonlSink
{
  public:
    explicit JsonlSink(const std::string &path)
    {
        if (path.empty())
            return;
        out_.open(path, std::ios::app);
        if (!out_) {
            std::cerr << "cannot append to '" << path << "'\n";
            std::exit(1);
        }
    }

    void
    record(const std::string &statsJson)
    {
        if (out_.is_open())
            out_ << statsJson << "\n";
    }

    void
    failure(const std::string &key, const std::string &error)
    {
        if (out_.is_open())
            out_ << "{\"schema\":1,\"key\":\"" << jsonEscape(key)
                 << "\",\"error\":\"" << jsonEscape(error) << "\"}\n";
    }

  private:
    std::ofstream out_;
};

/** Per-config provenance line (stderr; stdout stays machine-clean). */
void
reportConfig(const std::string &key, bool cached)
{
    std::cerr << "vcoma_client: " << key
              << (cached ? " (cached)" : " (simulated)") << "\n";
}

int
runDirect(Options &opt)
{
    if (opt.outDir.empty() && opt.jsonlFile.empty()) {
        std::cerr << "direct needs --out-dir and/or --jsonl\n";
        usage(2);
    }
    if (!opt.outDir.empty())
        std::filesystem::create_directories(opt.outDir);
    JsonlSink jsonl(opt.jsonlFile);
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
            jsonl.failure(cfg.key(),
                          runner.failureMessage(cfg.key()));
            rc = 1;
            continue;
        }
        reportConfig(cfg.key(), !fresh[i]);
        std::ostringstream sheet;
        writeRunStatsJson(sheet, *stats);
        jsonl.record(sheet.str());
        if (!opt.outDir.empty())
            writeSheet(opt.outDir + "/" + cfg.key() + ".json",
                       sheet.str());
    }
    // One simulation serves every TLB/DLB size of an untimed config,
    // and L3-TLB, V-COMA and NMT alike, so this can be fewer than the
    // configs reported simulated.
    std::cerr << "vcoma_client: " << runner.executed()
              << " simulation(s) for " << cfgs.size() << " config(s)\n";
    return rc;
}

} // namespace

int
main(int argc, char **argv)
try {
    Options opt = parse(argc, argv);
    if (opt.command == "direct")
        return runDirect(opt);
    std::cerr << "unknown command '" << opt.command << "'\n";
    usage(2);
} catch (const std::exception &e) {
    std::cerr << e.what() << "\n";
    return 1;
}
