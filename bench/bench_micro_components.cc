/**
 * @file
 * Google-benchmark micro-benchmarks of the simulator's hot
 * components: cache lookups, TLB lookups (FA flat index vs DM
 * array, and the repeat memo), shadow-bank accesses, winner-tree event dispatch,
 * attraction-memory searches, the coherence fast path, and
 * end-to-end simulated-reference throughput. These bound the wall
 * clock of the paper-reproduction runs.
 */

#include <benchmark/benchmark.h>

#include "bench_util.hh"
#include "coma/attraction_memory.hh"
#include "common/rng.hh"
#include "mem/cache.hh"
#include "sim/dispatch_queue.hh"
#include "sim/machine.hh"
#include "tlb/shadow_bank.hh"
#include "tlb/tlb.hh"
#include "translation/system_builder.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache("bm", CacheConfig{64 * 1024, 4, 64, false, true});
    Rng rng(1);
    std::vector<VAddr> addrs(4096);
    for (auto &a : addrs)
        a = rng.below(1 << 20);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i++ & 4095], RefType::Read));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_TlbLookupFullyAssociative(benchmark::State &state)
{
    Tlb tlb(static_cast<unsigned>(state.range(0)), 0, 1);
    Rng rng(2);
    std::vector<PageNum> vpns(4096);
    for (auto &v : vpns)
        v = rng.below(1024);
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.access(vpns[i++ & 4095]));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupFullyAssociative)->Arg(8)->Arg(128)->Arg(512);

void
BM_TlbLookupDirectMapped(benchmark::State &state)
{
    Tlb tlb(static_cast<unsigned>(state.range(0)), 1, 1);
    Rng rng(2);
    std::vector<PageNum> vpns(4096);
    for (auto &v : vpns)
        v = rng.below(1024);
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.access(vpns[i++ & 4095]));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbLookupDirectMapped)->Arg(8)->Arg(128)->Arg(512);

/**
 * An 8-entry TLB (FA, or DM with arg 1) on a stream where each vpn
 * repeats 1 to 8 times in a row, as an L0 TLB sees consecutive
 * references to one page: repeats take the TLB's repeat memo.
 */
void
BM_TlbRepeat(benchmark::State &state)
{
    Tlb tlb(8, static_cast<unsigned>(state.range(0)), 1);
    Rng rng(2);
    std::vector<PageNum> vpns;
    while (vpns.size() < 4096) {
        const PageNum vpn = rng.below(1024);
        for (auto n = rng.below(8) + 1; n > 0 && vpns.size() < 4096; --n)
            vpns.push_back(vpn);
    }
    std::size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(tlb.access(vpns[i++ & 4095]));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TlbRepeat)->Arg(0)->Arg(1);

void
BM_ShadowBankAccess(benchmark::State &state)
{
    ShadowBank bank(3);
    Rng rng(4);
    std::vector<PageNum> vpns(4096);
    for (auto &v : vpns)
        v = rng.below(2048);
    std::size_t i = 0;
    for (auto _ : state)
        bank.access(vpns[i++ & 4095]);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowBankAccess);

/**
 * The same bank on a stream where each vpn repeats 1 to 8 times in a
 * row, as consecutive references to one page do: repeats take the
 * bank's repeat fast path.
 */
void
BM_ShadowBankRepeat(benchmark::State &state)
{
    ShadowBank bank(3);
    Rng rng(4);
    std::vector<PageNum> vpns;
    while (vpns.size() < 4096) {
        const PageNum vpn = rng.below(2048);
        for (auto n = rng.below(8) + 1; n > 0 && vpns.size() < 4096; --n)
            vpns.push_back(vpn);
    }
    std::size_t i = 0;
    for (auto _ : state)
        bank.access(vpns[i++ & 4095]);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShadowBankRepeat);

/**
 * One dispatched event of Machine::run's loop at 32 CPUs: take the
 * minimum (readyAt, cpu) and re-key that CPU by its next latency.
 * The latencies are one seeded stream, mostly FLC-hit short with some
 * remote-miss long.
 */
void
BM_DispatchTree(benchmark::State &state)
{
    constexpr unsigned numCpus = 32;
    Rng rng(5);
    std::vector<Cycles> latency(4096);
    for (auto &l : latency)
        l = rng.below(5) == 0 ? 100 + rng.below(400) : 1 + rng.below(8);
    DispatchTree ready(numCpus);
    for (CpuId c = 0; c < numCpus; ++c)
        ready.schedule(c, 0);
    std::size_t i = 0;
    for (auto _ : state) {
        const auto [when, cpu] = ready.next();
        ready.schedule(cpu, when + latency[i++ & 4095]);
    }
    benchmark::DoNotOptimize(ready.next());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DispatchTree);

/**
 * One AttractionMemory::find in one of 32 full attraction memories of
 * the baseline geometry (4 MB, 4-way, 128 B blocks), at a seeded
 * random node and block: like the simulator's probes, nearly every
 * one misses the host cache. Half the probed blocks are resident.
 */
void
BM_AttractionMemoryFind(benchmark::State &state)
{
    constexpr unsigned numAms = 32;
    const CacheConfig geom = MachineConfig{}.am;
    const std::uint64_t frames = geom.numSets() * geom.assoc;
    std::vector<std::unique_ptr<AttractionMemory>> ams;
    for (unsigned n = 0; n < numAms; ++n) {
        auto &am = *ams.emplace_back(
            std::make_unique<AttractionMemory>("am", geom));
        for (std::uint64_t b = 0; b < frames; ++b) {
            const VAddr addr = b * geom.blockBytes;
            am.installAt(am.chooseVictim(addr).lineIndex, addr,
                         AmState::Shared, 0);
        }
    }
    Rng rng(6);
    std::vector<std::pair<AttractionMemory *, VAddr>> probes(1 << 16);
    for (auto &[am, addr] : probes) {
        am = ams[rng.below(numAms)].get();
        addr = rng.below(2 * frames) * geom.blockBytes;
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const auto &[am, addr] = probes[i++ & 0xFFFF];
        benchmark::DoNotOptimize(am->find(addr));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AttractionMemoryFind);

void
BM_LocalHitPath(benchmark::State &state)
{
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.checkLevel = 0;
    Machine machine(cfg);
    machine.access(0, RefType::Read, 0x40000, 0);
    Tick t = 1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            machine.access(0, RefType::Read, 0x40000, t));
        t += 10;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LocalHitPath);

void
BM_SimulatedRefThroughput(benchmark::State &state)
{
    // End-to-end references per second of a full UNIFORM run.
    for (auto _ : state) {
        MachineConfig cfg = tinyConfig(Scheme::VCOMA);
        cfg.checkLevel = 0;
        Machine machine(cfg);
        WorkloadParams wp;
        wp.threads = cfg.numNodes;
        wp.scale = 0.2;
        auto w = makeWorkload("UNIFORM", wp);
        const RunStats stats = machine.run(*w);
        state.SetItemsProcessed(state.items_processed() +
                                static_cast<std::int64_t>(
                                    stats.totalRefs()));
    }
}
BENCHMARK(BM_SimulatedRefThroughput)->Unit(benchmark::kMillisecond);

/**
 * The console reporter, also recording every run into the BenchReport:
 * <benchmark>.ns_per_op (real time per iteration) and, where the
 * benchmark sets items processed, <benchmark>.items_per_s.
 */
class RecordingReporter : public benchmark::ConsoleReporter
{
  public:
    explicit RecordingReporter(vcoma_bench::BenchReport &report)
        : report_(report)
    {
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            // A run that skipped or errored has no iterations to time.
            // (Its flag is error_occurred before google-benchmark 1.8
            // and skipped after, so test what both versions share.)
            if (run.iterations == 0)
                continue;
            const std::string name = run.benchmark_name();
            report_.metric(name + ".ns_per_op",
                           run.GetAdjustedRealTime() * 1e9 /
                               benchmark::GetTimeUnitMultiplier(
                                   run.time_unit));
            const auto items = run.counters.find("items_per_second");
            if (items != run.counters.end())
                report_.metric(name + ".items_per_s", items->second.value);
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    vcoma_bench::BenchReport &report_;
};

} // namespace

// Expanded BENCHMARK_MAIN() so the run also leaves a BENCH_*.json
// report like every other bench binary, with every run's numbers.
int
main(int argc, char **argv)
{
    vcoma_bench::BenchReport report("micro_components");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    RecordingReporter reporter(report);
    benchmark::RunSpecifiedBenchmarks(&reporter);
    benchmark::Shutdown();
    report.finish();
    return 0;
}
