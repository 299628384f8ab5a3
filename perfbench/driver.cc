/**
 * @file
 * perfbench_driver — the C++ half of the benchmark (see README.md).
 *
 * Three modes, each reading a JSON config list written by run.py and
 * writing a JSON result (and, where sheets exist, one JSONL line per
 * stats sheet: the exact writeRunStatsJson() bytes):
 *
 *   run     the untraced timed phase through Runner::runAll on a cold
 *           result cache, one config at a time, repeated as whole
 *           batches, with a host-speed probe reading around every
 *           config; set-up is creating an empty result cache and one
 *           warm-up run on it.
 *   record  set-up of the trace-replay workload: record each live
 *           config's packed trace through RecordingWorkload.
 *   trace   the per-layer split. Phase A runs every config through
 *           Machine::run on --jobs workers; phase B runs it again, one
 *           config at a time, through the benchmark's own copy of the
 *           pristine dispatch loop with a span around every call into
 *           workloads, coma and sim/sync, and fails the config unless
 *           Machine::dumpStats matches phase A. Phase C replays
 *           recorded VPN streams through ShadowBank and Tlb
 *           standalone; phase D reloads every config from a warm
 *           result cache with a fresh Runner.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "harness/runner.hh"
#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "sim/sync.hh"
#include "tlb/shadow_bank.hh"
#include "tlb/tlb.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"

using namespace vcoma;
namespace fs = std::filesystem;

namespace
{

using Ns = std::int64_t;

Ns
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
seconds(Ns ns)
{
    return static_cast<double>(ns) * 1e-9;
}

struct Args
{
    std::string mode;
    std::string configs;
    std::string result;
    std::string sheets;
    std::string work;
    std::string warmCache;
    double seconds = 0;
    unsigned setupReps = 1;
    unsigned jobs = 1;
    bool traced = true;
    bool keepCache = false;
};

[[noreturn]] void
usage()
{
    std::cerr << "usage: perfbench_driver run|record|trace --configs F "
                 "--result R [--sheets S] [--work DIR] [--seconds N] "
                 "[--setup-reps K] [--jobs N] "
                 "[--warm-cache DIR] [--traced 0|1] [--keep-cache 0|1]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage();
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage();
        const std::string value = argv[++i];
        if (flag == "--configs")
            a.configs = value;
        else if (flag == "--result")
            a.result = value;
        else if (flag == "--sheets")
            a.sheets = value;
        else if (flag == "--work")
            a.work = value;
        else if (flag == "--warm-cache")
            a.warmCache = value;
        else if (flag == "--seconds")
            a.seconds = std::stod(value);
        else if (flag == "--setup-reps")
            a.setupReps = static_cast<unsigned>(std::stoul(value));
        else if (flag == "--jobs")
            a.jobs = static_cast<unsigned>(std::stoul(value));
        else if (flag == "--traced")
            a.traced = value != "0";
        else if (flag == "--keep-cache")
            a.keepCache = value != "0";
        else
            usage();
    }
    if (a.configs.empty() || a.result.empty() || a.jobs == 0)
        usage();
    return a;
}

/** One entry of the config list: the experiment plus run.py's extras. */
struct BenchConfig
{
    ExperimentConfig cfg;
    /** record mode: where the packed trace is published. */
    std::string tracePath;
    /** trace mode: run phase A only (a live baseline for replay). */
    bool reference = false;
};

std::vector<BenchConfig>
loadConfigs(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue doc = JsonValue::parse(text.str());
    std::vector<BenchConfig> out;
    for (const JsonValue &c : doc.at("configs").asArray()) {
        BenchConfig b;
        ExperimentConfig &e = b.cfg;
        e.workload = c.at("workload").asString();
        e.scheme = parseScheme(c.at("scheme").asString());
        e.tlbEntries = static_cast<unsigned>(c.at("entries").asUint());
        e.tlbAssoc = static_cast<unsigned>(c.at("assoc").asUint());
        e.timedTranslation = c.at("timed").asBool();
        e.writebacksAccessTlb = c.at("wback_tlb").asBool();
        e.raytraceV2 = c.at("raytrace_v2").asBool();
        e.nodes = static_cast<unsigned>(c.at("nodes").asUint());
        e.scale = c.at("scale").asNumber();
        e.seed = c.at("seed").asUint();
        e.amAssoc = static_cast<unsigned>(c.at("am_assoc").asUint());
        e.xlatPenalty = c.at("xlat_penalty").asUint();
        if (const JsonValue *t = c.find("trace"))
            b.tracePath = t->asString();
        if (const JsonValue *r = c.find("reference"))
            b.reference = r->asBool();
        // run.py mirrors ExperimentConfig::key(); a mismatch means the
        // two disagree on what is being run.
        const std::string &key = c.at("key").asString();
        if (key != e.key()) {
            throw std::runtime_error("config key " + key +
                                     " does not match the simulator's " +
                                     e.key());
        }
        out.push_back(std::move(b));
    }
    return out;
}

/** The Runner's own ExperimentConfig -> MachineConfig mapping. */
MachineConfig
machineConfigFor(const ExperimentConfig &cfg)
{
    MachineConfig mc =
        baselineConfig(cfg.scheme, cfg.tlbEntries, cfg.tlbAssoc);
    mc.numNodes = cfg.nodes;
    mc.timedTranslation = cfg.timedTranslation;
    mc.translation.writebacksAccessTlb = cfg.writebacksAccessTlb;
    mc.seed = cfg.seed;
    mc.am.assoc = cfg.amAssoc;
    mc.timing.translationMiss = cfg.xlatPenalty;
    return mc;
}

WorkloadParams
workloadParamsFor(const ExperimentConfig &cfg)
{
    WorkloadParams wp;
    wp.threads = cfg.nodes;
    wp.scale = cfg.scale;
    wp.seed = cfg.seed;
    wp.raytraceV2Layout = cfg.raytraceV2;
    return wp;
}

/**
 * Closed loop over @p count tasks on @p jobs threads: a worker takes
 * the next task as soon as it finishes one. @p task must not throw.
 * @return the wall time of the whole batch.
 */
Ns
runPool(std::size_t count, unsigned jobs,
        const std::function<void(std::size_t)> &task)
{
    std::atomic<std::size_t> next{0};
    const Ns start = nowNs();
    std::vector<std::thread> workers;
    const unsigned n =
        static_cast<unsigned>(std::min<std::size_t>(jobs, count));
    for (unsigned w = 0; w < n; ++w) {
        workers.emplace_back([&] {
            for (std::size_t i = next++; i < count; i = next++)
                task(i);
        });
    }
    for (auto &t : workers)
        t.join();
    return nowNs() - start;
}

/** Keeps the probe's result alive, so its loop is not optimised out. */
volatile std::uint32_t probeSink;

/**
 * The host-speed probe: a fixed kernel of the benchmark's own -- 4M
 * pseudo-random read-modify-writes over an 8 MiB table, a mix of
 * arithmetic and cache misses like the simulator's -- timed alone.
 * The table is allocated (and its pages touched) before the clock
 * starts. @return the kernel's wall seconds.
 */
double
probeS()
{
    constexpr std::size_t mask = (std::size_t(1) << 21) - 1;
    std::vector<std::uint32_t> table(mask + 1);
    const Ns t0 = nowNs();
    std::uint64_t x = 88172645463325252ull;
    std::uint32_t acc = 0;
    for (unsigned i = 0; i < 4000000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::size_t idx = x & mask;
        table[idx] += static_cast<std::uint32_t>(x);
        acc += table[(idx * 31) & mask];
    }
    const Ns t1 = nowNs();
    probeSink = acc;
    return seconds(t1 - t0);
}

/**
 * Runs probeS() on request in a child process of its own while this
 * one waits, so nothing else runs during a probe and the probe's table
 * never counts towards this process's memory high-water mark. The
 * child is started before any thread and reaped on destruction.
 */
class Prober
{
  public:
    Prober()
    {
        int req[2], rep[2];
        if (pipe(req) != 0 || pipe(rep) != 0)
            throw std::runtime_error("cannot create the probe's pipes");
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("cannot start the probe");
        if (pid_ == 0) {
            close(req[1]);
            close(rep[0]);
            char c;
            while (read(req[0], &c, 1) == 1) {
                const double s = probeS();
                if (write(rep[1], &s, sizeof s) != sizeof s)
                    break;
            }
            _exit(0);
        }
        close(req[0]);
        close(rep[1]);
        to_ = req[1];
        from_ = rep[0];
    }

    ~Prober()
    {
        close(to_);
        close(from_);
        waitpid(pid_, nullptr, 0);
    }

    Prober(const Prober &) = delete;
    Prober &operator=(const Prober &) = delete;

    /** One probe reading, in seconds. */
    double
    operator()()
    {
        const char c = 1;
        double s = 0;
        if (write(to_, &c, 1) != 1 || read(from_, &s, sizeof s) != sizeof s)
            throw std::runtime_error("the probe failed");
        return s;
    }

  private:
    pid_t pid_ = -1;
    int to_ = -1;
    int from_ = -1;
};

long
maxRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

std::string
sheetJson(const RunStats &stats)
{
    std::ostringstream os;
    writeRunStatsJson(os, stats);
    return os.str();
}

std::string
failureJson(const std::string &key, const std::string &error)
{
    return "{\"key\":\"" + jsonEscape(key) + "\",\"error\":\"" +
           jsonEscape(error) + "\"}";
}

void
writeLines(const std::string &path, const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::app);
    for (const std::string &l : lines)
        out << l << "\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

std::string
numbers(const std::vector<double> &v)
{
    std::ostringstream os;
    os.precision(17);
    os << "[";
    for (std::size_t i = 0; i < v.size(); ++i)
        os << (i ? "," : "") << v[i];
    os << "]";
    return os.str();
}

/* ------------------------------------------------------------------ */
/* run: the untraced timed phase                                        */
/* ------------------------------------------------------------------ */

/** Configs of the run mode's warm-up set-up. */
constexpr std::size_t kWarmupConfigs = 5;

int
modeRun(const Args &a, const std::vector<BenchConfig> &bench)
{
    std::vector<ExperimentConfig> cfgs;
    for (const auto &b : bench)
        cfgs.push_back(b.cfg);
    Prober probeS;

    // Set-up, --setup-reps times: creating an empty result cache and
    // warming up on it with the batch's first kWarmupConfigs configs in
    // key order (the same configs whatever the order of the batch),
    // between two probe readings. Several configs, so that one set-up
    // spans several probe lengths.
    std::vector<ExperimentConfig> warmup = cfgs;
    std::sort(warmup.begin(), warmup.end(),
              [](const auto &x, const auto &y) { return x.key() < y.key(); });
    warmup.resize(std::min<std::size_t>(warmup.size(), kWarmupConfigs));
    std::vector<double> setup, setupProbe{probeS()};
    for (unsigned r = 0; r < a.setupReps; ++r) {
        const std::string dir = a.work + "/setup";
        const Ns t0 = nowNs();
        fs::create_directories(dir);
        {
            Runner runner(dir);
            for (const ExperimentConfig &cfg : warmup) {
                if (!runner.runAll(std::span(&cfg, 1))[0])
                    throw std::runtime_error("warm-up run of " + cfg.key() +
                                             " failed");
            }
        }
        setup.push_back(seconds(nowNs() - t0));
        setupProbe.push_back(probeS());
        fs::remove_all(dir);
    }

    // Timed phase: whole batches from a cold cache, as many as fit in
    // --seconds (at least one). Each config is submitted to the Runner
    // on its own and timed, so run.py can take per-config medians
    // across batches. The probe runs before every config and after the
    // last, so each config has a host-speed reading on either side.
    // With --keep-cache the last batch's cache stays for a later warm
    // reload.
    std::vector<std::vector<double>> reps, probes;
    std::size_t failed = 0;
    double elapsed = 0;
    bool done = false;
    while (!done) {
        const std::string dir =
            a.work + "/cache-" + std::to_string(reps.size());
        fs::create_directories(dir);
        std::vector<std::string> lines;
        std::vector<double> times, probe;
        {
            Runner runner(dir);
            for (const ExperimentConfig &cfg : cfgs) {
                probe.push_back(probeS());
                const Ns t0 = nowNs();
                const std::vector<const RunStats *> out =
                    runner.runAll(std::span(&cfg, 1));
                times.push_back(seconds(nowNs() - t0));
                if (out[0]) {
                    lines.push_back(sheetJson(*out[0]));
                } else {
                    ++failed;
                    lines.push_back(failureJson(
                        cfg.key(), runner.failureMessage(cfg.key())));
                }
            }
            probe.push_back(probeS());
        }
        double batch = 0;
        for (double t : times)
            batch += t;
        elapsed += batch;
        reps.push_back(std::move(times));
        probes.push_back(std::move(probe));
        done = elapsed + batch > a.seconds;
        writeLines(a.sheets, lines);
        if (!(done && a.keepCache))
            fs::remove_all(dir);
    }

    std::ofstream out(a.result);
    out << "{\"setup_s\":" << numbers(setup)
        << ",\"setup_probe_s\":" << numbers(setupProbe) << ",\"config_s\":[";
    for (std::size_t r = 0; r < reps.size(); ++r)
        out << (r ? "," : "") << numbers(reps[r]);
    out << "],\"probe_s\":[";
    for (std::size_t r = 0; r < probes.size(); ++r)
        out << (r ? "," : "") << numbers(probes[r]);
    out << "],\"cache\":\""
        << jsonEscape(a.work + "/cache-" + std::to_string(reps.size() - 1))
        << "\",\"failed\":" << failed
        << ",\"maxrss_kb\":" << maxRssKb() << "}\n";
    return out ? 0 : 1;
}

/* ------------------------------------------------------------------ */
/* record: trace-replay set-up                                          */
/* ------------------------------------------------------------------ */

void
recordOne(const BenchConfig &b)
{
    const ExperimentConfig &cfg = b.cfg;
    Machine machine(machineConfigFor(cfg));
    std::unique_ptr<Workload> live =
        makeWorkload(cfg.workload, workloadParamsFor(cfg));
    RecordingWorkload recording(*live, b.tracePath, cfg.key());
    machine.run(recording);
    if (!recording.finalize())
        throw std::runtime_error("could not publish " + b.tracePath);
}

int
modeRecord(const Args &a, const std::vector<BenchConfig> &bench)
{
    Prober probeS;
    std::vector<double> setup, setupProbe{probeS()};
    std::vector<std::string> errors(bench.size());
    for (unsigned r = 0; r < a.setupReps; ++r) {
        const Ns wall = runPool(bench.size(), a.jobs, [&](std::size_t i) {
            try {
                recordOne(bench[i]);
            } catch (const std::exception &e) {
                errors[i] = e.what();
            }
        });
        setup.push_back(seconds(wall));
        setupProbe.push_back(probeS());
    }
    std::size_t failed = 0;
    for (const auto &b : bench) {
        if (!fs::exists(b.tracePath))
            ++failed;
    }
    for (const auto &e : errors) {
        if (!e.empty())
            std::cerr << "perfbench_driver: record failed: " << e << "\n";
    }
    std::ofstream out(a.result);
    out << "{\"setup_s\":" << numbers(setup)
        << ",\"setup_probe_s\":" << numbers(setupProbe)
        << ",\"failed\":" << failed
        << ",\"maxrss_kb\":" << maxRssKb() << "}\n";
    return out ? 0 : 1;
}

/* ------------------------------------------------------------------ */
/* trace: the per-layer split                                           */
/* ------------------------------------------------------------------ */

/** Host time spent in each layer by one traced run. */
struct LoopSplit
{
    Ns loopNs = 0;
    Ns genNs = 0;
    Ns fastHitNs = 0;
    Ns fastMissNs = 0;
    Ns slowReadNs = 0;
    Ns slowWriteNs = 0;
    Ns syncNs = 0;
    std::uint64_t genEvents = 0;
    std::uint64_t refs = 0;
    std::uint64_t fastHits = 0;
    std::uint64_t slowReads = 0;
    std::uint64_t slowWrites = 0;
    std::uint64_t syncEvents = 0;
};

/**
 * The pristine dispatch loop of Machine::run (no event batching, no
 * materialised drain, watchdog and sanitizer off), with a span around
 * every call into the workload, the coherence engine and the sync
 * manager. Reference streams do not depend on which loop drives them,
 * so the machine ends in exactly the state Machine::run leaves.
 * When @p vpns is non-null it receives each CPU's VPN stream.
 */
LoopSplit
tracedRun(Machine &machine, Workload &workload,
          std::vector<std::vector<PageNum>> *vpns)
{
    const unsigned numCpus = workload.numThreads();
    if (numCpus != machine.numNodes())
        throw std::runtime_error("thread count does not match the nodes");

    struct Proc
    {
        Generator<MemRef> program;
        const MemRef *cur = nullptr;
        const MemRef *end = nullptr;
        Tick readyAt = 0;
    };
    const bool materialised = workload.materialised();
    std::vector<Proc> procs(numCpus);
    for (unsigned i = 0; i < numCpus; ++i) {
        if (materialised) {
            const std::span<const MemRef> s = workload.stream(i);
            procs[i].cur = s.data();
            procs[i].end = s.data() + s.size();
        } else {
            procs[i].program = workload.thread(i);
        }
    }
    if (vpns)
        vpns->assign(numCpus, {});

    const MachineConfig &cfg = machine.config();
    SyncManager sync(numCpus, cfg.timing);
    CoherenceEngine &engine = machine.engine();
    PageTable &pageTable = machine.pageTable();
    const VAddrLayout &layout = machine.layout();
    const Cycles busyScale = cfg.busyScale;
    const Cycles decayPeriod = cfg.refBitDecayPeriod;
    Tick nextDecay = decayPeriod ? decayPeriod : ~Tick{0};

    using Entry = std::pair<Tick, CpuId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ready;
    for (unsigned i = 0; i < numCpus; ++i)
        ready.emplace(0, i);
    unsigned live = numCpus;

    LoopSplit s;
    const Ns loopStart = nowNs();
    while (!ready.empty()) {
        const auto [when, cpu] = ready.top();
        ready.pop();
        Proc &proc = procs[cpu];

        if (when >= nextDecay) {
            pageTable.clearReferenceBits();
            nextDecay +=
                ((when - nextDecay) / decayPeriod + 1) * decayPeriod;
        }

        const Ns g0 = nowNs();
        const MemRef *next;
        if (materialised)
            next = proc.cur != proc.end ? proc.cur++ : nullptr;
        else
            next = proc.program.nextPtr();
        const Ns g1 = nowNs();
        s.genNs += g1 - g0;
        ++s.genEvents;
        if (!next) {
            --live;
            continue;
        }

        const MemRef &ref = *next;
        const Tick t = proc.readyAt + ref.work * busyScale;
        switch (ref.kind) {
          case MemRef::Kind::Mem: {
            if (vpns)
                (*vpns)[cpu].push_back(layout.vpn(ref.vaddr));
            AccessResult res;
            const Ns f0 = nowNs();
            const bool hit =
                engine.fastAccess(cpu, ref.type, ref.vaddr, t, res);
            const Ns f1 = nowNs();
            if (hit) {
                s.fastHitNs += f1 - f0;
                ++s.fastHits;
            } else {
                s.fastMissNs += f1 - f0;
                res = engine.access(cpu, ref.type, ref.vaddr, t);
                const Ns f2 = nowNs();
                if (ref.type == RefType::Read) {
                    s.slowReadNs += f2 - f1;
                    ++s.slowReads;
                } else {
                    s.slowWriteNs += f2 - f1;
                    ++s.slowWrites;
                }
            }
            ++s.refs;
            proc.readyAt = res.done;
            ready.emplace(proc.readyAt, cpu);
            break;
          }
          case MemRef::Kind::Barrier: {
            const Ns y0 = nowNs();
            auto release = sync.arriveBarrier(ref.syncId, cpu, t);
            s.syncNs += nowNs() - y0;
            ++s.syncEvents;
            if (release) {
                for (const auto &[waiter, arrived] : release->waiters) {
                    procs[waiter].readyAt = release->releaseAt;
                    ready.emplace(release->releaseAt, waiter);
                }
            }
            break;
          }
          case MemRef::Kind::LockAcquire: {
            const Ns y0 = nowNs();
            auto grant = sync.acquireLock(ref.syncId, cpu, t);
            s.syncNs += nowNs() - y0;
            ++s.syncEvents;
            if (grant) {
                proc.readyAt = *grant;
                ready.emplace(proc.readyAt, cpu);
            }
            break;
          }
          case MemRef::Kind::LockRelease: {
            const Ns y0 = nowNs();
            auto grant = sync.releaseLock(ref.syncId, cpu, t);
            s.syncNs += nowNs() - y0;
            ++s.syncEvents;
            proc.readyAt = t;
            ready.emplace(proc.readyAt, cpu);
            if (grant) {
                procs[grant->cpu].readyAt = grant->grantedAt;
                ready.emplace(grant->grantedAt, grant->cpu);
            }
            break;
          }
        }
    }
    s.loopNs = nowNs() - loopStart;
    if (sync.parked() != 0 || live != 0)
        throw std::runtime_error("traced loop ended with parked CPUs");
    return s;
}

/** Machine::dumpStats after a run, as collect() leaves the machine. */
std::string
dumpAfterRun(Machine &machine, bool finalizeDlbs)
{
    if (finalizeDlbs) {
        for (unsigned n = 0; n < machine.numNodes(); ++n) {
            if (machine.node(n).dlb)
                machine.node(n).dlb->finalizeEntryStats();
        }
    }
    std::ostringstream os;
    machine.dumpStats(os);
    return os.str();
}

/**
 * The first line where two dumps differ, ignoring the reference-bit
 * decay count (the kernel's private counter); empty when they match.
 */
std::string
dumpDifference(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    for (;;) {
        const bool ga = static_cast<bool>(std::getline(sa, la));
        const bool gb = static_cast<bool>(std::getline(sb, lb));
        if (!ga && !gb)
            return "";
        if (ga != gb)
            return "dumps differ in length";
        if (la == lb || (la.find(".refBitDecays") != std::string::npos &&
                         lb.find(".refBitDecays") != std::string::npos))
            continue;
        return "untraced '" + la + "' vs traced '" + lb + "'";
    }
}

/** One config's measurements across the trace phases. */
struct TraceRecord
{
    std::string error;
    // Phase A (untraced Machine::run).
    Ns aBuildNs = 0;
    Ns aRunNs = 0;
    Ns jsonNs = 0;
    std::string dump;
    // Phase B (traced loop).
    Ns workloadNs = 0;
    Ns machineNs = 0;
    Ns dumpNs = 0;
    LoopSplit split;
    std::string mismatch;
    // Phase D (warm cache).
    Ns warmNs = 0;
    bool warmHit = false;
};

struct TlbReplay
{
    Ns shadowNs = 0;
    std::uint64_t shadowAccesses = 0;
    Ns tlbNs = 0;
    std::uint64_t tlbAccesses = 0;
};

/** Feed each CPU's VPN stream to its own ShadowBank and 8-entry Tlb. */
void
replayTranslation(const std::vector<std::vector<PageNum>> &vpns,
                  std::uint64_t seed, TlbReplay &out)
{
    for (std::size_t cpu = 0; cpu < vpns.size(); ++cpu) {
        const std::vector<PageNum> &stream = vpns[cpu];
        ShadowBank bank(seed + cpu);
        const Ns s0 = nowNs();
        for (const PageNum vpn : stream)
            bank.access(vpn);
        const Ns s1 = nowNs();
        Tlb tlb(8, 0, seed + cpu);
        for (const PageNum vpn : stream)
            tlb.access(vpn);
        const Ns s2 = nowNs();
        out.shadowNs += s1 - s0;
        out.tlbNs += s2 - s1;
        out.shadowAccesses += stream.size();
        out.tlbAccesses += stream.size();
    }
}

/** The translation structures L0 and VICTIMA consult on every reference. */
bool
everyRefTranslates(Scheme scheme)
{
    return scheme == Scheme::L0 || scheme == Scheme::VICTIMA;
}

int
modeTrace(const Args &a, const std::vector<BenchConfig> &bench)
{
    const std::size_t n = bench.size();
    std::vector<TraceRecord> recs(n);
    std::vector<std::string> sheets(n);

    // Phase A: untraced Machine::run, as Runner::execute does it.
    const Ns aWall = runPool(n, a.jobs, [&](std::size_t i) {
        const ExperimentConfig &cfg = bench[i].cfg;
        TraceRecord &r = recs[i];
        try {
            const Ns t0 = nowNs();
            Machine machine(machineConfigFor(cfg));
            std::unique_ptr<Workload> workload =
                makeWorkload(cfg.workload, workloadParamsFor(cfg));
            const Ns t1 = nowNs();
            const RunStats stats = machine.run(*workload);
            const Ns t2 = nowNs();
            std::ostringstream os;
            writeRunStatsJson(os, stats);
            const Ns t3 = nowNs();
            r.aBuildNs = t1 - t0;
            r.aRunNs = t2 - t1;
            r.jsonNs = t3 - t2;
            sheets[i] = os.str();
            r.dump = dumpAfterRun(machine, false);
        } catch (const std::exception &e) {
            r.error = e.what();
            sheets[i] = failureJson(cfg.key(), r.error);
        }
    });
    writeLines(a.sheets, sheets);

    // The first L0/VICTIMA cell of each reference stream records its
    // VPNs for the standalone translation replay (phase C). Streams do
    // not depend on the scheme, so one recording per stream suffices.
    std::vector<bool> recordVpns(n, false);
    {
        std::set<std::string> seen;
        for (std::size_t i = 0; i < n; ++i) {
            ExperimentConfig stream = bench[i].cfg;
            stream.scheme = Scheme::L0;
            stream.tlbEntries = 8;
            stream.timedTranslation = false;
            if (!bench[i].reference &&
                everyRefTranslates(bench[i].cfg.scheme) &&
                seen.insert(stream.key()).second)
                recordVpns[i] = true;
        }
    }
    std::vector<std::vector<std::vector<PageNum>>> vpnStreams(n);

    // Phase B: the traced loop, one config at a time so that the
    // layer times add up to the phase's wall time.
    Ns bWall = 0;
    if (a.traced) {
        bWall = runPool(n, 1, [&](std::size_t i) {
            const ExperimentConfig &cfg = bench[i].cfg;
            TraceRecord &r = recs[i];
            if (!r.error.empty() || bench[i].reference)
                return;
            try {
                const Ns t0 = nowNs();
                Machine machine(machineConfigFor(cfg));
                const Ns t1 = nowNs();
                std::unique_ptr<Workload> workload =
                    makeWorkload(cfg.workload, workloadParamsFor(cfg));
                const Ns t2 = nowNs();
                r.split = tracedRun(machine, *workload,
                                    recordVpns[i] ? &vpnStreams[i]
                                                  : nullptr);
                const Ns t3 = nowNs();
                const std::string dump = dumpAfterRun(machine, true);
                r.dumpNs = nowNs() - t3;
                r.machineNs = t1 - t0;
                r.workloadNs = t2 - t1;
                r.mismatch = dumpDifference(r.dump, dump);
            } catch (const std::exception &e) {
                r.error = e.what();
            }
        });
    }

    // Phase C: standalone translation-structure replay.
    TlbReplay tlb;
    for (std::size_t i = 0; i < n; ++i) {
        if (!vpnStreams[i].empty())
            replayTranslation(vpnStreams[i], bench[i].cfg.seed, tlb);
        vpnStreams[i].clear();
    }

    // Phase D: a fresh Runner per config on the warm result cache.
    if (!a.warmCache.empty()) {
        for (std::size_t i = 0; i < n; ++i) {
            if (bench[i].reference)
                continue;
            Runner runner(a.warmCache);
            bool fresh = true;
            const Ns t0 = nowNs();
            const RunStats *stats = runner.tryRun(bench[i].cfg, &fresh);
            recs[i].warmNs = nowNs() - t0;
            recs[i].warmHit = stats && !fresh;
        }
    }

    std::ofstream out(a.result);
    out.precision(17);
    out << "{\"a_wall_s\":" << seconds(aWall)
        << ",\"b_wall_s\":" << seconds(bWall) << ",\"jobs\":" << a.jobs
        << ",\"maxrss_kb\":" << maxRssKb()
        << ",\"tlb\":{\"shadow_s\":" << seconds(tlb.shadowNs)
        << ",\"shadow_accesses\":" << tlb.shadowAccesses
        << ",\"configured_s\":" << seconds(tlb.tlbNs)
        << ",\"configured_accesses\":" << tlb.tlbAccesses << "}"
        << ",\"configs\":[";
    for (std::size_t i = 0; i < n; ++i) {
        const TraceRecord &r = recs[i];
        const LoopSplit &s = r.split;
        out << (i ? ",\n" : "\n") << "{\"key\":\""
            << jsonEscape(bench[i].cfg.key()) << "\",\"error\":\""
            << jsonEscape(r.error) << "\",\"mismatch\":\""
            << jsonEscape(r.mismatch) << "\",\"a_build_s\":"
            << seconds(r.aBuildNs) << ",\"a_run_s\":" << seconds(r.aRunNs)
            << ",\"json_s\":" << seconds(r.jsonNs)
            << ",\"machine_s\":" << seconds(r.machineNs)
            << ",\"workload_s\":" << seconds(r.workloadNs)
            << ",\"dump_s\":" << seconds(r.dumpNs)
            << ",\"loop_s\":" << seconds(s.loopNs)
            << ",\"gen_s\":" << seconds(s.genNs)
            << ",\"fast_hit_s\":" << seconds(s.fastHitNs)
            << ",\"fast_miss_s\":" << seconds(s.fastMissNs)
            << ",\"slow_read_s\":" << seconds(s.slowReadNs)
            << ",\"slow_write_s\":" << seconds(s.slowWriteNs)
            << ",\"sync_s\":" << seconds(s.syncNs)
            << ",\"gen_events\":" << s.genEvents << ",\"refs\":" << s.refs
            << ",\"fast_hits\":" << s.fastHits
            << ",\"slow_reads\":" << s.slowReads
            << ",\"slow_writes\":" << s.slowWrites
            << ",\"sync_events\":" << s.syncEvents
            << ",\"warm_s\":" << seconds(r.warmNs)
            << ",\"warm_hit\":" << (r.warmHit ? "true" : "false") << "}";
    }
    out << "]}\n";
    return out ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
try {
    const Args a = parseArgs(argc, argv);
    const std::vector<BenchConfig> bench = loadConfigs(a.configs);
    if (bench.empty())
        throw std::runtime_error("empty config list");
    if (a.mode == "run")
        return modeRun(a, bench);
    if (a.mode == "record")
        return modeRecord(a, bench);
    if (a.mode == "trace")
        return modeTrace(a, bench);
    usage();
} catch (const std::exception &e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
}
