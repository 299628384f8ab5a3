/**
 * @file
 * Perf smoke test for the per-reference simulation core: one fixed,
 * FLC-hit-heavy configuration simulated three ways — hit fast filter
 * off (checkLevel 2, every reference through the full protocol walk),
 * filter on (the default), and packed-trace replay (record once, then
 * mmap the reference stream back instead of re-running the workload
 * coroutines) — reporting host refs/sec for all three and asserting
 * that every mode produces identical statistics (speed layers, never
 * model knobs).
 *
 * The exit status reflects only output identity: a perf regression
 * shows up in BENCH_perf_core.json (refs_per_sec_* and speedup
 * metrics) without failing the binary, so CI archives the numbers but
 * gates merges only on correctness. The perf-trajectory workflow
 * separately compares the recorded ratios against the committed
 * baseline (bench/perf_baseline.json).
 */

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

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

struct Measurement
{
    double refsPerSec = 0;
    std::string json;  ///< writeRunStatsJson() of the final RunStats
    std::string dump;  ///< full component stats hierarchy
};

/** Run @p workload @p reps times on @p cfg, keeping the best rate. */
Measurement
measureRuns(const MachineConfig &cfg, Workload &workload, unsigned reps)
{
    Measurement best;
    for (unsigned rep = 0; rep < reps; ++rep) {
        Machine machine(cfg);
        const auto t0 = std::chrono::steady_clock::now();
        const RunStats stats = machine.run(workload);
        const std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        const double rate = trialRate(stats.totalRefs(), dt.count());
        best.refsPerSec = std::max(best.refsPerSec, rate);
        if (rep == 0) {
            std::ostringstream json;
            writeRunStatsJson(json, stats);
            best.json = json.str();
            std::ostringstream dump;
            machine.dumpStats(dump);
            best.dump = dump.str();
        }
    }
    return best;
}

Measurement
measureLive(bool filter, unsigned iterations, unsigned reps)
{
    Measurement best;
    const MachineConfig cfg = perfConfig(filter);
    for (unsigned rep = 0; rep < reps; ++rep) {
        // A fresh workload per rep: the coroutines are one-shot.
        FlcResweepWorkload w(cfg.numNodes, iterations);
        const Measurement m = measureRuns(cfg, w, 1);
        best.refsPerSec = std::max(best.refsPerSec, m.refsPerSec);
        if (rep == 0) {
            best.json = m.json;
            best.dump = m.dump;
        }
    }
    return best;
}

/** Live KVLOOKUP, a fresh workload per rep (one-shot coroutines). */
Measurement
measureKvLive(const MachineConfig &cfg, const WorkloadParams &wp,
              unsigned reps)
{
    Measurement best;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto w = makeWorkload("KVLOOKUP", wp);
        const Measurement m = measureRuns(cfg, *w, 1);
        best.refsPerSec = std::max(best.refsPerSec, m.refsPerSec);
        if (rep == 0) {
            best.json = m.json;
            best.dump = m.dump;
        }
    }
    return best;
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
    constexpr unsigned reps = 3;
    const Measurement slow = measureLive(false, iterations, reps);
    const Measurement fast = measureLive(true, iterations, reps);

    // Third mode: record the reference streams once, then replay the
    // packed trace — the mmapped array replaces both the workload
    // algorithm and the per-reference coroutine machinery.
    const std::string traceFile =
        (std::filesystem::temp_directory_path() /
         ("vcoma_perf_core." + std::to_string(::getpid()) + ".vctrace"))
            .string();
    Measurement replay;
    {
        const MachineConfig cfg = perfConfig(true);
        FlcResweepWorkload live(cfg.numNodes, iterations);
        RecordingWorkload recorder(live, traceFile, "perf_core");
        Machine machine(cfg);
        machine.run(recorder);
        if (!recorder.finalize()) {
            std::cerr << "FAIL: could not record the perf-core trace\n";
            return 1;
        }
        ReplayWorkload replayed(traceFile);
        replay = measureRuns(cfg, replayed, reps);
    }
    std::filesystem::remove(traceFile);

    // Fourth mode: the pointer-chasing regime. KVLOOKUP's dependent
    // hash-chain chases are the opposite of the FLC-resweep's
    // hit-heavy loop — mostly remote traffic the fast filter cannot
    // resolve — so its live-vs-replay ratio tracks the batch-drain
    // replay loop's worth on datacenter streams specifically.
    Measurement kvLive;
    Measurement kvReplay;
    {
        const MachineConfig cfg = perfConfig(true);
        WorkloadParams wp;
        wp.threads = cfg.numNodes;
        wp.scale = 0.5;
        kvLive = measureKvLive(cfg, wp, reps);
        const std::string kvTraceFile =
            (std::filesystem::temp_directory_path() /
             ("vcoma_perf_kv." + std::to_string(::getpid()) +
              ".vctrace"))
                .string();
        const auto live = makeWorkload("KVLOOKUP", wp);
        RecordingWorkload recorder(*live, kvTraceFile,
                                   "perf_core_kvlookup");
        Machine machine(cfg);
        machine.run(recorder);
        if (!recorder.finalize()) {
            std::cerr << "FAIL: could not record the KVLOOKUP trace\n";
            return 1;
        }
        ReplayWorkload replayed(kvTraceFile);
        kvReplay = measureRuns(cfg, replayed, reps);
        std::filesystem::remove(kvTraceFile);
    }

    std::cout << "filter off:    " << static_cast<std::uint64_t>(
                     slow.refsPerSec) << " refs/sec (checkLevel 2)\n"
              << "filter on:     " << static_cast<std::uint64_t>(
                     fast.refsPerSec) << " refs/sec\n"
              << "trace replay:  " << static_cast<std::uint64_t>(
                     replay.refsPerSec) << " refs/sec\n"
              << "speedup:       " << fast.refsPerSec / slow.refsPerSec
              << "x (fast/slow), "
              << replay.refsPerSec / fast.refsPerSec
              << "x (replay/fast)\n"
              << "kvlookup live:   " << static_cast<std::uint64_t>(
                     kvLive.refsPerSec) << " refs/sec\n"
              << "kvlookup replay: " << static_cast<std::uint64_t>(
                     kvReplay.refsPerSec) << " refs/sec ("
              << kvReplay.refsPerSec / kvLive.refsPerSec
              << "x)\n";

    report.metric("refs_per_sec_slow", slow.refsPerSec);
    report.metric("refs_per_sec_fast", fast.refsPerSec);
    report.metric("refs_per_sec_replay", replay.refsPerSec);
    report.metric("speedup", fast.refsPerSec / slow.refsPerSec);
    report.metric("replay_speedup",
                  replay.refsPerSec / fast.refsPerSec);
    report.metric("kvlookup_refs_per_sec_live", kvLive.refsPerSec);
    report.metric("kvlookup_refs_per_sec_replay", kvReplay.refsPerSec);
    report.metric("kvlookup_replay_speedup",
                  kvReplay.refsPerSec / kvLive.refsPerSec);
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
