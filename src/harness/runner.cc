#include "harness/runner.hh"

#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <optional>
#include <sstream>
#include <string_view>
#include <thread>
#include <unordered_set>

#include "check/fault_injector.hh"
#include "check/invariant_checker.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "translation/scheme.hh"
#include "translation/system_builder.hh"
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

/** The key of @p cfg under @p scheme with the TLB/DLB at @p entries. */
std::string
siblingKey(ExperimentConfig cfg, Scheme scheme, unsigned entries)
{
    cfg.scheme = scheme;
    cfg.tlbEntries = entries;
    return cfg.key();
}

} // namespace

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

MachineConfig
ExperimentConfig::machine() const
{
    MachineConfig mc = baselineConfig(scheme, tlbEntries, tlbAssoc);
    mc.numNodes = nodes;
    mc.timedTranslation = timedTranslation;
    mc.translation.writebacksAccessTlb = writebacksAccessTlb;
    mc.seed = seed;
    mc.am.assoc = amAssoc;
    mc.timing.translationMiss = xlatPenalty;
    return mc;
}

WorkloadParams
ExperimentConfig::workloadParams() const
{
    WorkloadParams wp;
    wp.threads = nodes;
    wp.scale = scale;
    wp.seed = seed;
    wp.raytraceV2Layout = raytraceV2;
    return wp;
}

Runner::Runner(std::string cacheDir)
    : cacheDir_(std::move(cacheDir))
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
Runner::jobCount()
{
    const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
    const char *s = std::getenv("VCOMA_JOBS");
    if (!s)
        return hw;
    // strtoul accepts a leading '-' and wraps it modulo 2^32/2^64,
    // so VCOMA_JOBS=-1 would become the 1024-thread clamp instead of
    // an error. Treat any negative value as unparsable.
    const char *p = s;
    while (std::isspace(static_cast<unsigned char>(*p)))
        ++p;
    char *end = nullptr;
    const unsigned long v = std::strtoul(s, &end, 10);
    if (end == s || *end != '\0' || *p == '-') {
        // runAll() consults this on every batch; warn only once.
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("unparsable VCOMA_JOBS='", s, "': using ", hw,
                 " hardware thread(s)");
        return hw;
    }
    if (v == 0)
        return hw;
    return static_cast<unsigned>(std::min<unsigned long>(v, 1024));
}

const RunStats &
Runner::run(const ExperimentConfig &cfg)
{
    if (const RunStats *stats = tryRun(cfg))
        return *stats;
    throw SimulationError(failureMessage(cfg.key()));
}

const RunStats *
Runner::tryRun(const ExperimentConfig &cfg, bool *freshlyExecuted)
{
    std::vector<bool> fresh;
    const RunStats *stats = runAll(std::span(&cfg, 1), &fresh)[0];
    if (freshlyExecuted)
        *freshlyExecuted = fresh[0];
    return stats;
}

void
Runner::publish(Sheets sheets)
{
    for (const auto &[key, stats] : sheets) {
        const std::string path = cachePath(key);
        if (!path.empty())
            store(path, stats);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[key, stats] : sheets)
        memo_.emplace(key, std::move(stats));
}

std::string
Runner::failureMessage(const std::string &key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = failed_.find(key);
    return it != failed_.end() ? it->second : "";
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
    // already has, and schedule one simulation per trajectory: the
    // first occurrence of a key no scheduled simulation serves. A
    // simulation serves its own key and its siblings' keys.
    std::vector<std::size_t> toRun;
    // Slots this call serves fresh: the first of each key it
    // simulates or serves from a lane.
    std::vector<std::size_t> served;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::unordered_set<std::string> covered, claimed;
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            const std::string &key = keys[i];
            if (memo_.count(key) || failed_.count(key))
                continue;
            if (covered.count(key)) {
                if (claimed.insert(key).second)
                    served.push_back(i);
                continue;
            }
            RunStats stats;
            const std::string path = cachePath(key);
            if (!path.empty() && load(path, stats)) {
                memo_.emplace(key, std::move(stats));
                continue;
            }
            covered.insert(key);
            for (const Lane &l : siblingLanes(cfgs[i].machine()))
                covered.insert(siblingKey(cfgs[i], l.scheme, l.entries));
            claimed.insert(key);
            toRun.push_back(i);
            served.push_back(i);
        }
    }
    executeAll(cfgs, toRun);

    // A sibling whose simulation failed publishes nothing: it runs on
    // its own, so any failure it records is its own.
    std::vector<std::size_t> orphans;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i : served) {
            if (!memo_.count(keys[i]) && !failed_.count(keys[i]))
                orphans.push_back(i);
        }
    }
    executeAll(cfgs, orphans);

    std::vector<const RunStats *> results;
    results.reserve(cfgs.size());
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &key : keys) {
        auto it = memo_.find(key);
        results.push_back(it != memo_.end() ? &it->second : nullptr);
    }
    if (freshlyExecuted) {
        freshlyExecuted->assign(cfgs.size(), false);
        for (std::size_t i : served)
            (*freshlyExecuted)[i] = results[i] != nullptr;
    }
    return results;
}

void
Runner::executeAll(std::span<const ExperimentConfig> cfgs,
                   const std::vector<std::size_t> &slots)
{
    // A plain parallel-for: the calling thread and jobs - 1 others
    // take slots from one counter, so slots start in order.
    std::atomic<std::size_t> next{0};
    const auto drain = [&] {
        for (std::size_t n; (n = next.fetch_add(1)) < slots.size();) {
            const ExperimentConfig &cfg = cfgs[slots[n]];
            try {
                publish(execute(cfg));
            } catch (const std::exception &e) {
                warn("config ", cfg.key(), " failed: ", e.what());
                std::lock_guard<std::mutex> lock(mutex_);
                failed_.emplace(cfg.key(), e.what());
            }
        }
    };
    const std::size_t jobs = std::min<std::size_t>(jobCount(), slots.size());
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < jobs; ++t)
        helpers.emplace_back(drain);
    drain();
}

Runner::Sheets
Runner::execute(const ExperimentConfig &cfg)
{
    ++executed_;
    const MachineConfig mc = cfg.machine();
    try {
        Machine machine(mc);
        const std::unique_ptr<Workload> workload =
            makeWorkload(cfg.workload, cfg.workloadParams());
        Sheets sheets;
        sheets.emplace_back(cfg.key(), machine.run(*workload));
        if (!cfg.injectFault.empty())
            applyConfiguredFault(machine, cfg);
        for (const LaneSheet &lane : machine.laneSheets()) {
            sheets.emplace_back(siblingKey(cfg, lane.scheme, lane.entries),
                                lane.stats);
        }
        return sheets;
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
Runner::cachePath(const std::string &key) const
{
    if (cacheDir_.empty())
        return "";
    return cacheDir_ + "/" + key + ".json";
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
    // fatal; but transient filesystem trouble (a cache directory
    // removed underneath us, a momentary ENOSPC) deserves a couple of
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

} // namespace vcoma
