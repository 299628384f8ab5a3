/**
 * @file
 * Perf smoke test for the per-reference simulation core: one fixed,
 * FLC-hit-heavy configuration simulated three ways — hit fast filter
 * off (checkLevel 2, every reference through the full protocol walk),
 * filter on (the default), and packed-trace replay (record once, then
 * mmap the reference stream back instead of re-running the workload
 * coroutines) — reporting host refs/sec for all three and asserting
 * that every mode produces identical statistics (speed layers, never
 * model knobs). The modes run interleaved, one trial of each in turn,
 * and every reported figure is a median over the trials; each ratio
 * is the median of the per-trial ratios.
 *
 * The exit status reflects only output identity: a perf regression
 * shows up in BENCH_perf_core.json (refs_per_sec_* and speedup
 * metrics) without failing the binary, so CI archives the numbers but
 * gates merges only on correctness. The perf-trajectory workflow
 * separately compares the recorded ratios against the committed
 * baseline (bench/perf_baseline.json).
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

/**
 * The measurement workload: each thread re-sweeps a private buffer
 * that fits its FLC, so after the first iteration nearly every read
 * is an FLC hit and nearly every write a silent store (AM Exclusive,
 * SLC hit) — the two cases the fast filter accelerates. Threads carry
 * widely different compute phases (work grows with the thread id), so
 * event dispatch sees the asymmetric timing of real programs instead
 * of artificial lockstep.
 */
class FlcResweepWorkload : public Workload
{
  public:
    FlcResweepWorkload(unsigned threads, unsigned iterations)
        : threads_(threads), iterations_(iterations)
    {
        bases_.reserve(threads);
        for (unsigned t = 0; t < threads; ++t) {
            bases_.push_back(space_.alloc(
                "resweep.buf" + std::to_string(t), bufBytes,
                /*align=*/4096));
        }
    }

    std::string name() const override { return "FLC-RESWEEP"; }

    std::string
    parameters() const override
    {
        return std::to_string(iterations_) + " sweeps of " +
               std::to_string(bufBytes) + " B per thread";
    }

    unsigned numThreads() const override { return threads_; }
    const AddressSpace &space() const override { return space_; }
    Generator<MemRef> thread(unsigned tid) override { return body(tid); }

  private:
    static constexpr unsigned bufBytes = 2048;

    Generator<MemRef>
    body(unsigned tid)
    {
        const VAddr base = bases_[tid];
        const std::uint32_t work = 2u << (2 * tid);
        for (unsigned it = 0; it < iterations_; ++it) {
            for (unsigned off = 0; off < bufBytes; off += 32) {
                co_yield MemRef::read(base + off, work);
                if (off % 256 == 0)
                    co_yield MemRef::write(base + off, work);
            }
        }
    }

    unsigned threads_;
    unsigned iterations_;
    AddressSpace space_;
    std::vector<VAddr> bases_;
};

/**
 * The fixed machine: tiny geometry with an FLC the buffer fits; with
 * @p filter false, checkLevel 2 turns the fast filter off.
 */
MachineConfig
perfConfig(bool filter)
{
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.flc.sizeBytes = 8 * 1024;  // covers the 2 KB per-thread buffer
    cfg.slc.sizeBytes = 32 * 1024;
    cfg.checkLevel = filter ? 1 : 2;
    return cfg;
}

/**
 * Host refs/sec of one trial, with the trial duration clamped to a
 * floor: an otherwise sub-resolution trial would divide by ~0 and
 * yield an infinite rate, which BENCH_perf_core.json serialises as
 * null (the non-finite rule) — silently corrupting the perf
 * trajectory CI tracks. A trial of exactly zero measured length is a
 * broken clock or an empty run and fails the bench loudly instead.
 */
double
trialRate(std::uint64_t refs, double seconds)
{
    constexpr double minTrialSeconds = 1e-6;
    if (seconds <= 0.0 || refs == 0) {
        std::cerr << "FAIL: perf trial retired " << refs << " refs in "
                  << seconds
                  << " measured seconds; a zero-length trial cannot "
                     "produce a meaningful rate\n";
        std::exit(1);
    }
    return static_cast<double>(refs) / std::max(seconds, minTrialSeconds);
}

/** The two sheets a mode's first trial keeps for the identity check. */
struct Sheets
{
    std::string json;  ///< writeRunStatsJson() of the final RunStats
    std::string dump;  ///< full component stats hierarchy
};

/**
 * One trial: run @p workload on a fresh machine for @p cfg and return
 * its host refs/sec; when @p sheets is non-null, keep its sheets.
 */
double
trial(const MachineConfig &cfg, Workload &workload, Sheets *sheets)
{
    Machine machine(cfg);
    const auto t0 = std::chrono::steady_clock::now();
    const RunStats stats = machine.run(workload);
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (sheets) {
        std::ostringstream json;
        writeRunStatsJson(json, stats);
        sheets->json = json.str();
        std::ostringstream dump;
        machine.dumpStats(dump);
        sheets->dump = dump.str();
    }
    return trialRate(stats.totalRefs(), dt.count());
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * Record @p live's reference streams on @p cfg into @p path (the
 * replay modes' input). @return false when the trace was not written.
 */
bool
recordStreams(const MachineConfig &cfg, Workload &live,
              const std::string &path, const std::string &label)
{
    RecordingWorkload recorder(live, path, label);
    Machine machine(cfg);
    machine.run(recorder);
    return recorder.finalize();
}

std::string
tracePath(const std::string &stem)
{
    return (std::filesystem::temp_directory_path() /
            (stem + "." + std::to_string(::getpid()) + ".vctrace"))
        .string();
}

} // namespace

int
main()
{
    vcoma_bench::BenchReport report("perf_core");
    std::cout << "V-COMA reproduction - perf smoke (per-reference "
                 "core)\n"
              << "(fixed FLC-hit-heavy config; host timing, so the "
                 "numbers vary run to run — only statistics identity "
                 "is pass/fail)\n\n";

    constexpr unsigned iterations = 1500;
    constexpr unsigned trials = 5;

    // The replay modes' inputs: each workload's reference streams,
    // recorded once. A replay maps the packed array back instead of
    // running the workload algorithm and resuming its coroutines.
    const MachineConfig slowCfg = perfConfig(false);
    const MachineConfig cfg = perfConfig(true);
    const std::string traceFile = tracePath("vcoma_perf_core");
    {
        FlcResweepWorkload live(cfg.numNodes, iterations);
        if (!recordStreams(cfg, live, traceFile, "perf_core")) {
            std::cerr << "FAIL: could not record the perf-core trace\n";
            return 1;
        }
    }
    // The pointer-chasing regime: KVLOOKUP's dependent hash-chain
    // chases are the opposite of the FLC-resweep's hit-heavy loop —
    // mostly remote traffic the fast filter cannot resolve — so its
    // live-vs-replay ratio tracks the replay cursor's worth on
    // datacenter streams specifically.
    WorkloadParams kvParams;
    kvParams.threads = cfg.numNodes;
    kvParams.scale = 0.5;
    const std::string kvTraceFile = tracePath("vcoma_perf_kv");
    if (!recordStreams(cfg, *makeWorkload("KVLOOKUP", kvParams),
                       kvTraceFile, "perf_core_kvlookup")) {
        std::cerr << "FAIL: could not record the KVLOOKUP trace\n";
        std::filesystem::remove(traceFile);
        return 1;
    }

    // Each trial runs every mode back to back, and each gated ratio is
    // the median of its per-trial ratios: a host slowdown that lasts
    // a trial lands on both sides of that trial's ratio instead of on
    // one mode's best-of-N.
    Sheets slow, fast, replay, kvLive, kvReplay;
    std::vector<double> slowRate, fastRate, replayRate, kvLiveRate,
        kvReplayRate, speedup, replaySpeedup, kvReplaySpeedup;
    {
        ReplayWorkload replayed(traceFile);
        ReplayWorkload kvReplayed(kvTraceFile);
        for (unsigned t = 0; t < trials; ++t) {
            const bool keep = t == 0;
            // A fresh live workload per trial: the coroutines are
            // one-shot.
            FlcResweepWorkload liveSlow(cfg.numNodes, iterations);
            FlcResweepWorkload liveFast(cfg.numNodes, iterations);
            const auto kv = makeWorkload("KVLOOKUP", kvParams);
            slowRate.push_back(
                trial(slowCfg, liveSlow, keep ? &slow : nullptr));
            fastRate.push_back(
                trial(cfg, liveFast, keep ? &fast : nullptr));
            replayRate.push_back(
                trial(cfg, replayed, keep ? &replay : nullptr));
            kvLiveRate.push_back(trial(cfg, *kv, keep ? &kvLive : nullptr));
            kvReplayRate.push_back(
                trial(cfg, kvReplayed, keep ? &kvReplay : nullptr));
            speedup.push_back(fastRate.back() / slowRate.back());
            replaySpeedup.push_back(replayRate.back() / fastRate.back());
            kvReplaySpeedup.push_back(kvReplayRate.back() /
                                      kvLiveRate.back());
        }
    }
    std::filesystem::remove(traceFile);
    std::filesystem::remove(kvTraceFile);

    auto rate = [](const std::vector<double> &v) {
        return static_cast<std::uint64_t>(median(v));
    };
    std::cout << "medians of " << trials << " interleaved trials\n"
              << "filter off:    " << rate(slowRate)
              << " refs/sec (checkLevel 2)\n"
              << "filter on:     " << rate(fastRate) << " refs/sec\n"
              << "trace replay:  " << rate(replayRate) << " refs/sec\n"
              << "speedup:       " << median(speedup)
              << "x (fast/slow), " << median(replaySpeedup)
              << "x (replay/fast)\n"
              << "kvlookup live:   " << rate(kvLiveRate) << " refs/sec\n"
              << "kvlookup replay: " << rate(kvReplayRate) << " refs/sec ("
              << median(kvReplaySpeedup) << "x)\n";

    report.metric("refs_per_sec_slow", median(slowRate));
    report.metric("refs_per_sec_fast", median(fastRate));
    report.metric("refs_per_sec_replay", median(replayRate));
    report.metric("speedup", median(speedup));
    report.metric("replay_speedup", median(replaySpeedup));
    report.metric("kvlookup_refs_per_sec_live", median(kvLiveRate));
    report.metric("kvlookup_refs_per_sec_replay", median(kvReplayRate));
    report.metric("kvlookup_replay_speedup", median(kvReplaySpeedup));
    report.finish();

    bool ok = true;
    if (fast.json != slow.json || fast.dump != slow.dump) {
        std::cerr << "FAIL: filter-on run diverged from the filter-off "
                     "(checkLevel 2) run\n";
        if (fast.json != slow.json)
            std::cerr << "RunStats JSON differs:\n  slow: " << slow.json
                      << "\n  fast: " << fast.json << "\n";
        ok = false;
    }
    if (replay.json != fast.json || replay.dump != fast.dump) {
        std::cerr << "FAIL: replay run diverged from the live run\n";
        if (replay.json != fast.json)
            std::cerr << "RunStats JSON differs:\n  live:   "
                      << fast.json << "\n  replay: " << replay.json
                      << "\n";
        ok = false;
    }
    if (kvReplay.json != kvLive.json || kvReplay.dump != kvLive.dump) {
        std::cerr << "FAIL: KVLOOKUP replay diverged from the live "
                     "run\n";
        if (kvReplay.json != kvLive.json)
            std::cerr << "RunStats JSON differs:\n  live:   "
                      << kvLive.json << "\n  replay: " << kvReplay.json
                      << "\n";
        ok = false;
    }
    if (!ok)
        return 1;
    std::cout << "\n[statistics identical across filter off, filter on "
                 "and trace replay, live and replayed KVLOOKUP]\n";
    return 0;
}
