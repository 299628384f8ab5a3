/**
 * @file
 * vcoma_trace — inspect, validate and convert reference traces.
 *
 * The packed binary format (mmapped by ReplayWorkload and the
 * "TRACE:<path>" workload spelling) is write-once and checksummed;
 * this tool is the doorway for streams that were captured elsewhere
 * or written by hand in the text grammar of sim/trace.hh:
 *
 *   vcoma_trace inspect  trace.vctrace
 *   vcoma_trace validate trace.vctrace
 *   vcoma_trace convert  refs.txt trace.vctrace --name KVTRACE
 *   vcoma_trace dump     trace.vctrace > refs.txt
 *
 * validate exits 0 on a fully valid trace and 1 otherwise, so CI
 * jobs can gate on it. convert reads "-" as stdin.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common/logging.hh"
#include "sim/memref_pack.hh"
#include "sim/trace_convert.hh"

using namespace vcoma;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::cout <<
        "usage: vcoma_trace <command> [args]\n"
        "  inspect  FILE              print header + per-thread counts\n"
        "  validate FILE              full validation; exit 0 iff valid\n"
        "  convert  IN OUT [options]  text trace -> packed trace\n"
        "     --name NAME             workload name stored in the header\n"
        "                             (default TRACE)\n"
        "     --key KEY               provenance key stored in the header\n"
        "                             (default external)\n"
        "     IN may be '-' for stdin\n"
        "  dump     FILE              packed trace -> text trace on stdout\n"
        "  --help\n";
    std::exit(code);
}

void
printSummary(const PackedTraceSummary &s)
{
    std::cout << "format:       packed v" << packedTraceVersion << ", "
              << packedRecordBytes << " bytes per record\n"
              << "workload:     " << s.workloadName << "\n"
              << "parameters:   " << s.parameters << "\n"
              << "key:          " << s.key << "\n"
              << "threads:      " << s.threads << "\n"
              << "events:       " << s.totalEvents << "\n"
              << "shared bytes: " << s.sharedBytes << "\n";
}

int
cmdInspect(const std::string &path)
{
    const PackedTraceSummary s = summarizePackedTrace(path);
    printSummary(s);
    for (unsigned t = 0; t < s.threads; ++t) {
        std::cout << "  thread " << t << ": "
                  << s.perThreadEvents[t] << " events\n";
    }
    return 0;
}

int
cmdValidate(const std::string &path)
{
    const PackedTraceSummary s = summarizePackedTrace(path);
    printSummary(s);
    std::cout << "valid\n";
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 2)
        usage(2);
    const std::string inPath = argv[0];
    const std::string outPath = argv[1];
    std::string name = "TRACE";
    std::string key = "external";
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--name" && i + 1 < argc) {
            name = argv[++i];
        } else if (arg == "--key" && i + 1 < argc) {
            key = argv[++i];
        } else {
            std::cerr << "vcoma_trace: unknown convert option '" << arg
                      << "'\n";
            usage(2);
        }
    }
    std::uint64_t events = 0;
    if (inPath == "-") {
        events = convertTextTraceToPacked(std::cin, outPath, name, key);
    } else {
        std::ifstream in(inPath);
        if (!in) {
            std::cerr << "vcoma_trace: cannot open '" << inPath
                      << "'\n";
            return 1;
        }
        events = convertTextTraceToPacked(in, outPath, name, key);
    }
    std::cout << "wrote " << outPath << " (" << events
              << " events)\n";
    return 0;
}

int
cmdDump(const std::string &path)
{
    dumpPackedTraceAsText(path, std::cout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2 || std::strcmp(argv[1], "--help") == 0 ||
        std::strcmp(argv[1], "-h") == 0) {
        usage(argc < 2 ? 2 : 0);
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "inspect" && argc == 3)
            return cmdInspect(argv[2]);
        if (cmd == "validate" && argc == 3)
            return cmdValidate(argv[2]);
        if (cmd == "convert")
            return cmdConvert(argc - 2, argv + 2);
        if (cmd == "dump" && argc == 3)
            return cmdDump(argv[2]);
        usage(2);
    } catch (const std::exception &e) {
        std::cerr << "vcoma_trace: " << e.what() << "\n";
        return 1;
    }
}
