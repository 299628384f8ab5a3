/**
 * @file
 * The experiment runner: builds a machine and a workload from an
 * ExperimentConfig, runs the simulation, and caches the resulting
 * stats sheet both in memory and on disk, so that every client
 * (vcoma_client, the sweep specs behind the paper tables and
 * figures, the tests) shares simulation runs.
 *
 * runAll() is the one place a config is probed, simulated and
 * published; run() and tryRun() are one-config batches. A batch's
 * simulations run on up to $VCOMA_JOBS threads. Each simulation is
 * single-threaded and fully deterministic, so a parallel batch is
 * bit-identical to the same configs run serially; only the wall
 * clock changes.
 */

#ifndef VCOMA_HARNESS_RUNNER_HH
#define VCOMA_HARNESS_RUNNER_HH

#include <atomic>
#include <map>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "sim/run_stats.hh"
#include "workloads/workload.hh"

namespace vcoma
{

class Machine;

/**
 * Thrown when a simulation fails: wraps whatever escaped the machine
 * (a ProtectionFault, PanicError, FatalError, WatchdogError, ...)
 * with the workload, scheme and config key so sweep failure reports
 * are actionable.
 */
class SimulationError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** Everything that identifies one simulation run. */
struct ExperimentConfig
{
    std::string workload = "RADIX";
    Scheme scheme = Scheme::VCOMA;
    /** Configured (timed) TLB/DLB geometry. */
    unsigned tlbEntries = 8;
    unsigned tlbAssoc = 0;
    /** Charge translation-miss penalties on the critical path. */
    bool timedTranslation = false;
    /** L2-TLB: whether SLC write-backs consult the TLB. */
    bool writebacksAccessTlb = true;
    /** RAYTRACE layout variant (Figure 10's DLB/8/V2). */
    bool raytraceV2 = false;
    unsigned nodes = 32;
    double scale = 1.0;
    std::uint64_t seed = 1;
    /** Attraction-memory associativity (ablations; paper uses 4). */
    unsigned amAssoc = 4;
    /** TLB/DLB miss service time (ablations; paper uses 40). */
    Cycles xlatPenalty = 40;
    /**
     * Name of a FaultClass to inject after the run (see
     * check/fault_injector.hh), empty for a normal simulation. A
     * poisoned config deterministically corrupts coherence state and
     * fails its invariant sweep, so failure paths (graceful runAll
     * sweeps, the client's per-config failure lines) can be exercised
     * end to end. Appears in key() only when set, so ordinary cache
     * keys are unchanged.
     */
    std::string injectFault;

    /** Stable cache key. */
    std::string key() const;

    /** The machine this config simulates. */
    MachineConfig machine() const;

    /** The parameters its workload is built with. */
    WorkloadParams workloadParams() const;
};

/**
 * Poison a finished machine the way @p cfg.injectFault asks: corrupt
 * one seeded target of the named fault class, then run a full
 * invariant sweep, which is guaranteed to throw (the injector test
 * suite proves every class is detected). Unknown class names and
 * machines without a suitable target also throw SimulationError, so
 * a poisoned config never silently succeeds.
 */
[[noreturn]] void applyConfiguredFault(Machine &machine,
                                       const ExperimentConfig &cfg);

/**
 * Runs experiments with in-memory + on-disk caching.
 *
 * A disk entry, `<cacheDir>/<key>.json`, is the line "vcoma-cache-v5",
 * then the writeRunStatsJson() sheet and a newline. An entry that
 * readRunStatsJson() rejects is a miss: the config simulates again.
 *
 * A simulation publishes more than its own config's sheet: an untimed
 * config's TLB/DLB runs at every standard size in lanes, and under
 * every scheme of its class (L3-TLB, V-COMA and NMT share one
 * trajectory; see siblingLanes() in coma/node.hh). Each lane's sheet
 * is memoised and stored under the key of that sibling config: up to
 * 21 sheets from one simulation.
 *
 * Thread safety: run() and runAll() may be called from any thread;
 * the memo map and execution counter are internally synchronised.
 * Returned references stay valid for the Runner's lifetime (the memo
 * is a node-based map). The disk cache is also safe across processes:
 * writers stage into unique temp files and publish with an atomic
 * rename, so concurrent bench binaries sharing one cache directory
 * never observe partial entries.
 */
class Runner
{
  public:
    /**
     * @param cacheDir directory for cached results; empty string
     *        disables the disk cache. Defaults to $VCOMA_CACHE_DIR or
     *        ".vcoma_cache".
     */
    explicit Runner(std::string cacheDir = defaultCacheDir());

    /**
     * tryRun(), throwing SimulationError with the recorded message
     * when the simulation fails (including a failure recorded by an
     * earlier run/tryRun/runAll of the same config; those do not
     * re-execute).
     */
    const RunStats &run(const ExperimentConfig &cfg);

    /**
     * runAll() of the one config @p cfg: nullptr when its simulation
     * fails, with the failure under failureMessage().
     *
     * When @p freshlyExecuted is non-null it is set to true iff this
     * call actually simulated (a miss in both the memo and the disk
     * cache).
     */
    const RunStats *tryRun(const ExperimentConfig &cfg,
                           bool *freshlyExecuted = nullptr);

    /**
     * Run a batch: configs not already memoised or on disk execute
     * concurrently on up to min(jobCount(), batch) threads, started
     * in submission order; duplicates within the batch run once.
     * Results come back in submission order and are bit-identical to
     * serial execution.
     *
     * A config whose simulation fails does not abort the sweep: its
     * slot comes back as nullptr, the failure is recorded under
     * failureMessage(), and every other config still runs.
     *
     * Each simulation scheduled also serves its config's lane
     * siblings, so configs differing only in TLB/DLB size, or in the
     * scheme within L3-TLB/V-COMA/NMT, simulate once (never side by
     * side on two workers).
     *
     * When @p freshlyExecuted is non-null, slot i is set to true iff
     * this call simulated config i or served it from a lane of a
     * simulation it ran; a key repeated within the batch simulates
     * once, so only its first slot reads true.
     */
    std::vector<const RunStats *>
    runAll(std::span<const ExperimentConfig> cfgs,
           std::vector<bool> *freshlyExecuted = nullptr);

    /**
     * Recorded failure text (exception text with workload, scheme
     * and config context) for @p key, or empty when none.
     */
    std::string failureMessage(const std::string &key) const;

    /** $VCOMA_CACHE_DIR, or ".vcoma_cache"; truthy $VCOMA_NO_CACHE -> "". */
    static std::string defaultCacheDir();

    /**
     * Thread count from $VCOMA_JOBS: a positive integer is taken as
     * is (at most 1024), 0 or an unset variable means "one per
     * hardware thread", and anything unparsable warns and falls back
     * to the hardware count.
     */
    static unsigned jobCount();

    /**
     * Simulations actually executed. One simulation of an untimed
     * config serves all its siblings (siblingLanes() in
     * coma/node.hh), so this can be less than the configs served
     * without the cache.
     */
    unsigned executed() const { return executed_.load(); }

  private:
    /** One simulation's sheets under their keys, the config's first. */
    using Sheets = std::vector<std::pair<std::string, RunStats>>;

    /**
     * Simulate @p cfg. Its sheet comes with one per lane
     * (siblingLanes()), keyed as that sibling config.
     */
    Sheets execute(const ExperimentConfig &cfg);
    std::string cachePath(const std::string &key) const;
    bool load(const std::string &path, RunStats &stats) const;
    /** Store every sheet on disk and in the memo: the one store path. */
    void publish(Sheets sheets);
    void store(const std::string &path, const RunStats &stats) const;
    bool storeOnce(const std::string &path, const RunStats &stats,
                   std::string &error) const;
    /**
     * Execute and publish configs @p slots of @p cfgs on up to
     * jobCount() threads, recording each failure.
     */
    void executeAll(std::span<const ExperimentConfig> cfgs,
                    const std::vector<std::size_t> &slots);

    std::string cacheDir_;
    mutable std::mutex mutex_; ///< guards memo_ and failed_
    std::map<std::string, RunStats> memo_;
    /** Failure text by config key. */
    std::map<std::string, std::string> failed_;
    std::atomic<unsigned> executed_{0};
};

/** The six paper benchmarks in Table 2's row order. */
const std::vector<std::string> &paperBenchmarks();

} // namespace vcoma

#endif // VCOMA_HARNESS_RUNNER_HH
