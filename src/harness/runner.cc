#include "harness/runner.hh"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iomanip>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "check/fault_injector.hh"
#include "check/invariant_checker.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "sim/machine.hh"
#include "sim/memref_pack.hh"
#include "sim/run_stats_json.hh"
#include "translation/scheme.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

namespace vcoma
{

namespace
{

/**
 * First line of every cache entry; the rest is the JSON sheet. v5:
 * the entry became the sheet itself (v4 was a private text codec,
 * which a v5 reader must never half-parse as a sheet).
 */
constexpr std::string_view cacheMagic = "vcoma-cache-v5";

/**
 * Make one key component safe to embed in a file name. Plain
 * workload names pass through byte-identical; a component carrying
 * '/', ':' or other non-portable characters (a "TRACE:/path/to.vctrace"
 * spelling, inline knob lists) has them replaced with '_' and gains
 * an 8-hex-digit FNV-1a suffix of the original spelling, so distinct
 * spellings can never collapse onto one cache entry.
 */
std::string
sanitizeKeyComponent(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    bool dirty = false;
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (std::isalnum(u) || c == '.' || c == '_' || c == '-' ||
            c == '=' || c == ',') {
            out += c;
        } else {
            out += '_';
            dirty = true;
        }
    }
    if (!dirty)
        return out;
    std::uint64_t h = 1469598103934665603ULL;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    std::ostringstream os;
    os << out << "-h" << std::hex << std::setw(8) << std::setfill('0')
       << static_cast<std::uint32_t>(h ^ (h >> 32));
    return os.str();
}

/**
 * Poison a finished machine the way ExperimentConfig::injectFault
 * asks: corrupt one seeded target of the named fault class, then run
 * a full invariant sweep, which is guaranteed to throw (the injector
 * test suite proves every class is detected). Unknown class names and
 * machines without a suitable target also throw, so a poisoned
 * config never silently succeeds.
 */
void
applyConfiguredFault(Machine &machine, const ExperimentConfig &cfg)
{
    const FaultClass *match = nullptr;
    for (const FaultClass &c : allFaultClasses()) {
        if (cfg.injectFault == faultClassName(c)) {
            match = &c;
            break;
        }
    }
    if (!match)
        throw SimulationError(detail::concat(
            "unknown injectFault class '", cfg.injectFault, "'"));
    FaultInjector injector(machine, cfg.seed);
    const auto what = injector.inject(*match);
    if (!what)
        throw SimulationError(detail::concat(
            "injectFault '", cfg.injectFault,
            "' found no target to corrupt"));
    InvariantChecker(machine).enforce();
    throw SimulationError(detail::concat(
        "injectFault '", cfg.injectFault, "' corrupted ", *what,
        " but the invariant sweep did not detect it"));
}

} // namespace

std::string
ExperimentConfig::key() const
{
    std::ostringstream os;
    os << sanitizeKeyComponent(workload) << "-" << schemeName(scheme)
       << "-e" << tlbEntries
       << "-a" << tlbAssoc << "-t" << timedTranslation << "-w"
       << writebacksAccessTlb << "-v2_" << raytraceV2 << "-n" << nodes
       << "-s" << scale << "-r" << seed << "-k" << amAssoc << "-p"
       << xlatPenalty;
    // Only poisoned configs carry the suffix: every key minted before
    // fault injection existed is still minted byte-for-byte.
    if (!injectFault.empty())
        os << "-f" << injectFault;
    return os.str();
}

Runner::Runner(std::string cacheDir)
    : cacheDir_(std::move(cacheDir)), traceDir_(envTraceDir())
{
    if (!cacheDir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cacheDir_, ec);
        if (ec) {
            warn("cannot create cache dir '", cacheDir_,
                 "': caching disabled");
            cacheDir_.clear();
        }
    }
    if (!cacheDir_.empty()) {
        if (const std::uint64_t maxBytes = envCacheMaxBytes())
            pruneCache(cacheDir_, maxBytes);
    }
    if (!traceDir_.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(traceDir_, ec);
        if (ec) {
            warn("cannot create trace dir '", traceDir_,
                 "': record/replay disabled");
            traceDir_.clear();
        }
    }
    if (!traceDir_.empty()) {
        if (const std::uint64_t maxBytes = envTraceMaxBytes())
            pruneTraces(traceDir_, maxBytes);
    }
}

double
Runner::envScale()
{
    const char *s = std::getenv("VCOMA_SCALE");
    if (!s || !*s)
        return 1.0;
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v) || v <= 0) {
        warn("unparsable VCOMA_SCALE='", s, "': using scale 1.0");
        return 1.0;
    }
    return v;
}

std::string
Runner::defaultCacheDir()
{
    if (envTruthy("VCOMA_NO_CACHE"))
        return "";
    if (const char *s = std::getenv("VCOMA_CACHE_DIR"))
        return s;
    return ".vcoma_cache";
}

unsigned
Runner::envJobs()
{
    return ThreadPool::defaultThreads();
}

namespace
{

/** Parse a megabyte budget env var into bytes; 0 = unlimited. */
std::uint64_t
envMegabytes(const char *name)
{
    const char *s = std::getenv(name);
    if (!s || !*s)
        return 0;
    const char *p = s;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    char *end = nullptr;
    const unsigned long long mb = std::strtoull(p, &end, 10);
    if (*p == '-' || end == p || *end != '\0') {
        warn("unparsable ", name, "='", s, "': left unbounded");
        return 0;
    }
    constexpr std::uint64_t mib = 1024 * 1024;
    if (mb > std::numeric_limits<std::uint64_t>::max() / mib)
        return std::numeric_limits<std::uint64_t>::max();
    return mb * mib;
}

/**
 * Shared pruning policy for the result cache and the trace dir:
 * delete oldest-mtime `*<extension>` files until the survivors fit
 * the budget. Equal mtimes — the common case inside one batch sweep,
 * where many entries land within the filesystem's timestamp
 * granularity — are ordered by file name so the victim choice is
 * deterministic and never depends on directory iteration order.
 */
unsigned
pruneOldest(const std::string &dir, std::uint64_t maxBytes,
            const char *extension, const char *what)
{
    namespace fs = std::filesystem;
    struct Entry
    {
        fs::file_time_type mtime;
        std::uint64_t size;
        fs::path path;
    };
    std::vector<Entry> entries;
    std::uint64_t total = 0;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(dir, ec)) {
        if (!de.is_regular_file(ec) ||
            de.path().extension() != extension)
            continue;
        const auto mtime = de.last_write_time(ec);
        if (ec)
            continue;
        const std::uint64_t size = de.file_size(ec);
        if (ec)
            continue;
        total += size;
        entries.push_back({mtime, size, de.path()});
    }
    if (total <= maxBytes)
        return 0;

    // Newest first; file name as the deterministic tie-break for
    // equal mtimes.
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  if (a.mtime != b.mtime)
                      return a.mtime > b.mtime;
                  return a.path.filename() < b.path.filename();
              });
    unsigned removed = 0;
    std::uint64_t kept = 0;
    for (const Entry &e : entries) {
        if (saturatingAdd(kept, e.size) <= maxBytes) {
            kept += e.size;
            continue;
        }
        if (fs::remove(e.path, ec))
            ++removed;
        else if (ec)
            warn("cannot prune ", what, " '", e.path.string(), "': ",
                 ec.message());
    }
    if (removed)
        inform("pruned ", removed, " ", what, removed == 1 ? "" : "s",
               " from '", dir, "' (budget ", maxBytes, " bytes)");
    return removed;
}

} // namespace

std::uint64_t
Runner::envCacheMaxBytes()
{
    return envMegabytes("VCOMA_CACHE_MAX_MB");
}

std::string
Runner::envTraceDir()
{
    const char *s = std::getenv("VCOMA_TRACE_DIR");
    return s ? s : "";
}

std::uint64_t
Runner::envTraceMaxBytes()
{
    return envMegabytes("VCOMA_TRACE_MAX_MB");
}

unsigned
Runner::pruneCache(const std::string &dir, std::uint64_t maxBytes)
{
    return pruneOldest(dir, maxBytes, ".json", "cache entry");
}

unsigned
Runner::pruneTraces(const std::string &dir, std::uint64_t maxBytes)
{
    return pruneOldest(dir, maxBytes, ".vctrace", "recorded trace");
}

const RunStats &
Runner::run(const ExperimentConfig &cfg)
{
    if (const RunStats *stats = tryRun(cfg))
        return *stats;
    std::lock_guard<std::mutex> lock(mutex_);
    throw SimulationError(failed_.at(cfg.key()).error);
}

const RunStats *
Runner::tryRun(const ExperimentConfig &cfg, bool *freshlyExecuted)
{
    if (freshlyExecuted)
        *freshlyExecuted = false;
    const std::string key = cfg.key();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = memo_.find(key);
        if (it != memo_.end())
            return &it->second;
        if (failed_.count(key))
            return nullptr;
    }

    RunStats stats;
    const std::string path = cachePath(cfg);
    if (path.empty() || !load(path, stats)) {
        try {
            stats = execute(cfg);
        } catch (const std::exception &e) {
            recordFailure(cfg, key, e.what());
            return nullptr;
        }
        if (freshlyExecuted)
            *freshlyExecuted = true;
        if (!path.empty())
            store(path, stats);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    return &memo_.emplace(key, std::move(stats)).first->second;
}

void
Runner::executeAndMemoise(const ExperimentConfig &cfg,
                          const std::string &key)
{
    RunStats stats;
    try {
        stats = execute(cfg);
    } catch (const std::exception &e) {
        recordFailure(cfg, key, e.what());
        if (envTruthy("VCOMA_STRICT"))
            throw;
        return;
    }
    const std::string path = cachePath(cfg);
    if (!path.empty())
        store(path, stats);
    std::lock_guard<std::mutex> lock(mutex_);
    memo_.emplace(key, std::move(stats));
}

void
Runner::recordFailure(const ExperimentConfig &cfg, const std::string &key,
                      const std::string &error)
{
    warn("config ", key, " failed: ", error);
    std::lock_guard<std::mutex> lock(mutex_);
    failed_.emplace(key, FailedRun{cfg, key, error});
}

std::string
Runner::failureMessage(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = failed_.find(key);
    return it != failed_.end() ? it->second.error : "";
}

std::vector<FailedRun>
Runner::failures() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<FailedRun> out;
    out.reserve(failed_.size());
    for (const auto &[key, f] : failed_)
        out.push_back(f);
    return out;
}

std::vector<const RunStats *>
Runner::runAll(std::span<const ExperimentConfig> cfgs,
               std::vector<bool> *freshlyExecuted)
{
    std::vector<std::string> keys;
    keys.reserve(cfgs.size());
    for (const auto &cfg : cfgs)
        keys.push_back(cfg.key());

    // Single-threaded triage: satisfy what the memo or the disk cache
    // already has, and collect the first occurrence of every unique
    // key that still needs a simulation.
    std::vector<std::size_t> toRun;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::unordered_set<std::string> scheduled;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            if (memo_.count(keys[i]) || failed_.count(keys[i]) ||
                scheduled.count(keys[i]))
                continue;
            RunStats stats;
            const std::string path = cachePath(cfgs[i]);
            if (!path.empty() && load(path, stats)) {
                memo_.emplace(keys[i], std::move(stats));
                continue;
            }
            scheduled.insert(keys[i]);
            toRun.push_back(i);
        }
    }

    const unsigned jobs = static_cast<unsigned>(
        std::min<std::size_t>(envJobs(), toRun.size()));
    if (jobs > 1) {
        ThreadPool pool(jobs);
        std::vector<std::future<void>> done;
        done.reserve(toRun.size());
        for (std::size_t i : toRun) {
            done.push_back(pool.submit([this, cfg = cfgs[i],
                                        key = keys[i]] {
                executeAndMemoise(cfg, key);
            }));
        }
        // Collect in submission order. Failures are recorded inside
        // the job, so get() only rethrows under $VCOMA_STRICT; the
        // pool's destructor still drains the queue if one does.
        for (auto &f : done)
            f.get();
    } else {
        for (std::size_t i : toRun)
            executeAndMemoise(cfgs[i], keys[i]);
    }

    std::vector<const RunStats *> results;
    results.reserve(cfgs.size());
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &key : keys) {
        auto it = memo_.find(key);
        results.push_back(it != memo_.end() ? &it->second : nullptr);
    }
    if (freshlyExecuted) {
        freshlyExecuted->assign(cfgs.size(), false);
        for (std::size_t i : toRun)
            (*freshlyExecuted)[i] = results[i] != nullptr;
    }
    return results;
}

RunStats
Runner::execute(const ExperimentConfig &cfg)
{
    ++executed_;
    MachineConfig mc = baselineConfig(cfg.scheme, cfg.tlbEntries,
                                      cfg.tlbAssoc);
    mc.numNodes = cfg.nodes;
    mc.timedTranslation = cfg.timedTranslation;
    mc.translation.writebacksAccessTlb = cfg.writebacksAccessTlb;
    mc.seed = cfg.seed;
    mc.am.assoc = cfg.amAssoc;
    mc.timing.translationMiss = cfg.xlatPenalty;

    WorkloadParams wp;
    wp.threads = cfg.nodes;
    wp.scale = cfg.scale;
    wp.seed = cfg.seed;
    wp.raytraceV2Layout = cfg.raytraceV2;

    // Record/replay ($VCOMA_TRACE_DIR): the first execution of a
    // config records the packed memref streams its workload produced;
    // later executions mmap and replay them, skipping the workload
    // algorithm entirely. An unusable trace (corrupt, truncated,
    // version- or key-mismatched) is rejected with a warning and the
    // run falls back to live generation, re-recording over it —
    // never a crash, never a silent partial replay.
    // "TRACE:<path>" workloads already replay an external packed
    // trace; recording them again (or shadowing them with a
    // trace-dir entry whose recorded key can never match) would be
    // circular, so they bypass the machinery entirely.
    std::string tracePath;
    if (!traceDir_.empty() && !isTraceSpelling(cfg.workload))
        tracePath = traceDir_ + "/" + cfg.key() + ".vctrace";

    try {
        Machine machine(mc);
        std::unique_ptr<Workload> workload;
        if (!tracePath.empty() &&
            std::filesystem::exists(tracePath)) {
            try {
                auto replay = std::make_unique<ReplayWorkload>(tracePath);
                if (replay->recordedKey() != cfg.key()) {
                    warn("trace '", tracePath, "' was recorded for key ",
                         replay->recordedKey(), ", not ", cfg.key(),
                         ": regenerating");
                } else {
                    workload = std::move(replay);
                }
            } catch (const TraceFormatError &e) {
                warn(e.what(), ": regenerating");
            }
        }
        std::unique_ptr<RecordingWorkload> recording;
        if (!workload) {
            workload = makeWorkload(cfg.workload, wp);
            if (!tracePath.empty()) {
                recording = std::make_unique<RecordingWorkload>(
                    *workload, tracePath, cfg.key());
            }
        }
        RunStats stats =
            machine.run(recording ? *recording : *workload);
        if (recording)
            recording->finalize();
        if (!cfg.injectFault.empty())
            applyConfiguredFault(machine, cfg);
        return stats;
    } catch (const SimulationError &) {
        throw;
    } catch (const std::exception &e) {
        throw SimulationError(detail::concat(
            "simulation of workload ", cfg.workload, " under ",
            schemeName(cfg.scheme), " (config ", cfg.key(),
            ") failed: ", e.what()));
    }
}

std::string
Runner::cachePath(const ExperimentConfig &cfg) const
{
    if (cacheDir_.empty())
        return "";
    return cacheDir_ + "/" + cfg.key() + ".json";
}

bool
Runner::load(const std::string &path, RunStats &stats) const
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    const std::string entry{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    // The magic line, the sheet, one newline; anything else (an
    // older format, a torn write, a hand edit) is a miss.
    const std::size_t head = cacheMagic.size() + 1;
    if (entry.size() <= head || !entry.starts_with(cacheMagic) ||
        entry[head - 1] != '\n' || entry.back() != '\n')
        return false;
    std::optional<RunStats> parsed = readRunStatsJson(
        std::string_view(entry).substr(head, entry.size() - head - 1));
    if (!parsed)
        return false;
    stats = std::move(*parsed);
    return true;
}

void
Runner::store(const std::string &path, const RunStats &stats) const
{
    // The cache is an optimisation, so failing to write it is never
    // fatal; but transient filesystem trouble (a concurrently pruned
    // cache directory, a momentary ENOSPC) deserves a couple of
    // retries with a short backoff before we give up.
    std::string error;
    for (int attempt = 0; attempt < 3; ++attempt) {
        if (attempt != 0)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10 << (attempt - 1)));
        if (storeOnce(path, stats, error))
            return;
    }
    warn("cannot write cache file '", path, "' after 3 attempts: ",
         error);
}

bool
Runner::storeOnce(const std::string &path, const RunStats &stats,
                  std::string &error) const
{
    // Stage into a temp name unique across processes (pid) and across
    // threads within one process (a shared counter), then publish with
    // an atomic rename: concurrent writers of the same key each
    // produce a complete file and the last rename wins.
    static std::atomic<unsigned> seq{0};
    std::ostringstream tmpName;
    tmpName << path << ".tmp." << ::getpid() << "." << seq.fetch_add(1);
    const std::string tmp = tmpName.str();
    std::ofstream out(tmp);
    if (!out) {
        error = "cannot create '" + tmp + "'";
        return false;
    }
    out << cacheMagic << "\n";
    writeRunStatsJson(out, stats);
    out << "\n";
    out.close();
    std::error_code ec;
    if (!out) {
        error = "short write to '" + tmp + "'";
        std::filesystem::remove(tmp, ec);
        return false;
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        error = "cannot publish: " + ec.message();
        std::filesystem::remove(tmp, ec);
        return false;
    }
    return true;
}

const std::vector<std::string> &
paperBenchmarks()
{
    static const std::vector<std::string> names{
        "RADIX", "FFT", "FMM", "RAYTRACE", "BARNES", "OCEAN",
    };
    return names;
}

const std::vector<std::string> &
datacenterBenchmarks()
{
    static const std::vector<std::string> names{
        "KVLOOKUP", "GRAPH", "STREAMJOIN",
    };
    return names;
}

} // namespace vcoma
