/**
 * @file
 * Oracle tests for the per-reference core's speed layers: the fast
 * filter (FLC and SLC read hits, silent stores), winner-tree
 * dispatch, the page memo and the TLB/DLB lanes. None of them may
 * move a sheet byte.
 *
 * The filter is pinned at run time: every case's
 * default run must match a checkLevel 2 run, which turns the filter
 * off and sends every reference through CoherenceEngine::access().
 * The layers checkLevel 2 keeps are pinned by the digest manifest
 * (tests/golden/digests.txt): each kernel x scheme x {timed, untimed}
 * case's default-run writeRunStatsJson() sheet and dumpStats() text
 * must hash to the recorded FNV-1a/64 digests. A moved case prints
 * its old and new digests and the replacement line; with
 * VCOMA_UPDATE_GOLDENS set the case rewrites its line instead.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>

#include "checkers.hh"
#include "sim/machine.hh"
#include "sim/run_stats_json.hh"
#include "sim/trace_convert.hh"
#include "translation/scheme.hh"
#include "translation/system_builder.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

using namespace vcoma;

namespace
{

struct RunResult
{
    RunStats stats;
    /** Full stats sheet (every component counter). */
    std::string dump;
    /** writeRunStatsJson() output (every RunStats field). */
    std::string json;
    bool fastPathActive = false;
};

/** The check level that turns the fast filter off (the oracle run). */
constexpr unsigned deepCheck = 2;

/**
 * The tiny test machine on @p nodes CPUs. Past 16 nodes the
 * attraction memories grow with the node count so every home node
 * still owns a page colour; they stay small enough to keep the
 * machine contended. An untimed machine runs its TLB/DLB in lanes.
 */
MachineConfig
testConfig(Scheme scheme, unsigned nodes, bool timed = true,
           unsigned checkLevel = 1)
{
    MachineConfig cfg = tinyConfig(scheme);
    cfg.numNodes = nodes;
    if (nodes > 16)
        cfg.am.sizeBytes *= nodes / 16;
    cfg.timedTranslation = timed;
    cfg.checkLevel = checkLevel;
    return cfg;
}

/** Run @p workload on @p cfg and keep both sheets. */
RunResult
sheet(const MachineConfig &cfg, Workload &workload)
{
    Machine machine(cfg);
    RunResult r;
    r.stats = machine.run(workload);
    std::ostringstream dump;
    machine.dumpStats(dump);
    r.dump = dump.str();
    std::ostringstream json;
    writeRunStatsJson(json, r.stats);
    r.json = json.str();
    r.fastPathActive = machine.fastPathActive();
    return r;
}

RunResult
runOnce(const MachineConfig &cfg, const std::string &workload)
{
    WorkloadParams p;
    p.threads = cfg.numNodes;
    p.scale = 0.02;
    auto w = makeWorkload(workload, p);
    return sheet(cfg, *w);
}

/** FNV-1a/64 of @p bytes, as 16 hex digits. */
std::string
fnv1a64(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Parse manifest text: "# ..." comment lines, then one
 * "<case> <json digest> <dump digest>" line per case.
 */
std::map<std::string, std::string>
parseManifest(std::istream &is, std::string *comments = nullptr)
{
    std::map<std::string, std::string> cases;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#') {
            if (comments)
                *comments += line + "\n";
            continue;
        }
        const auto sp = line.find(' ');
        cases[line.substr(0, sp)] =
            sp == std::string::npos ? "" : line.substr(sp + 1);
    }
    return cases;
}

const std::map<std::string, std::string> &
manifest()
{
    static const std::map<std::string, std::string> cases = [] {
        std::ifstream is(VCOMA_DIGEST_MANIFEST);
        return parseManifest(is);
    }();
    return cases;
}

/**
 * Set @p name's line to @p digests in the manifest file. ctest runs
 * the cases as parallel processes, so the read-modify-write holds an
 * exclusive lock on the file; lines stay sorted by case name.
 */
void
rewriteManifestLine(const std::string &name, const std::string &digests)
{
    const int fd = ::open(VCOMA_DIGEST_MANIFEST, O_RDWR | O_CREAT, 0644);
    ASSERT_GE(fd, 0) << VCOMA_DIGEST_MANIFEST;
    ASSERT_EQ(::flock(fd, LOCK_EX), 0);
    std::string comments;
    std::ifstream is(VCOMA_DIGEST_MANIFEST);
    auto cases = parseManifest(is, &comments);
    cases[name] = digests;
    std::string text = comments;
    for (const auto &[c, d] : cases)
        text += c + " " + d + "\n";
    EXPECT_EQ(::ftruncate(fd, 0), 0);
    EXPECT_EQ(::pwrite(fd, text.data(), text.size(), 0),
              static_cast<ssize_t>(text.size()));
    ::close(fd);
}

/** @p r's sheets must hash to case @p name's manifest digests. */
void
expectManifestDigests(const std::string &name, const RunResult &r)
{
    const std::string got = fnv1a64(r.json) + " " + fnv1a64(r.dump);
    const auto it = manifest().find(name);
    if (it != manifest().end() && it->second == got)
        return;
    if (std::getenv("VCOMA_UPDATE_GOLDENS")) {
        rewriteManifestLine(name, got);
        return;
    }
    ADD_FAILURE() << "case " << name << " moved in "
                  << VCOMA_DIGEST_MANIFEST << "\n  old: "
                  << (it == manifest().end() ? "(missing)" : it->second)
                  << "\n  new: " << got << "\nreplacement line:\n"
                  << name << " " << got
                  << "\n(VCOMA_UPDATE_GOLDENS=1 rewrites it)";
}

/** Field-by-field comparison with readable failure messages. */
void
expectSameStats(const RunStats &fast, const RunStats &slow)
{
    EXPECT_EQ(fast.workload, slow.workload);
    EXPECT_EQ(fast.parameters, slow.parameters);
    EXPECT_EQ(fast.scheme, slow.scheme);
    EXPECT_EQ(fast.numNodes, slow.numNodes);
    EXPECT_EQ(fast.sharedBytes, slow.sharedBytes);
    EXPECT_EQ(fast.execTime, slow.execTime);
    EXPECT_EQ(fast.tlbAccesses, slow.tlbAccesses);
    EXPECT_EQ(fast.tlbMisses, slow.tlbMisses);
    EXPECT_EQ(fast.flcAccesses, slow.flcAccesses);
    EXPECT_EQ(fast.flcMisses, slow.flcMisses);
    EXPECT_EQ(fast.slcAccesses, slow.slcAccesses);
    EXPECT_EQ(fast.slcMisses, slow.slcMisses);
    EXPECT_EQ(fast.amHits, slow.amHits);
    EXPECT_EQ(fast.amMisses, slow.amMisses);
    EXPECT_EQ(fast.remoteReads, slow.remoteReads);
    EXPECT_EQ(fast.remoteWrites, slow.remoteWrites);
    EXPECT_EQ(fast.upgrades, slow.upgrades);
    EXPECT_EQ(fast.invalidations, slow.invalidations);
    EXPECT_EQ(fast.pageFaults, slow.pageFaults);
    ASSERT_EQ(fast.cpus.size(), slow.cpus.size());
    for (std::size_t i = 0; i < fast.cpus.size(); ++i) {
        EXPECT_EQ(fast.cpus[i].reads, slow.cpus[i].reads) << "cpu " << i;
        EXPECT_EQ(fast.cpus[i].writes, slow.cpus[i].writes)
            << "cpu " << i;
        EXPECT_EQ(fast.cpus[i].finish, slow.cpus[i].finish)
            << "cpu " << i;
    }
}
/**
 * The default run (fast filter on where the scheme allows it) against
 * the checkLevel 2 run (filter off) of @p workload on @p nodes CPUs:
 * every sheet byte must match, and the default sheets must hash to
 * the manifest's digests for the case.
 */
void
expectFastPathEquivalence(Scheme scheme, const std::string &workload,
                          unsigned nodes, bool timed)
{
    const RunResult fast =
        runOnce(testConfig(scheme, nodes, timed), workload);
    const RunResult deep =
        runOnce(testConfig(scheme, nodes, timed, deepCheck), workload);

    // The check level must actually gate the filter (schemes
    // translating before the FLC, L0 and VICTIMA, are structurally
    // excluded: their per-reference TLB charge leaves no pure hit).
    EXPECT_FALSE(deep.fastPathActive);
    EXPECT_EQ(fast.fastPathActive, schemeTraits(scheme).fastReadFilter);

    expectSameStats(fast.stats, deep.stats);
    // The JSON line carries every RunStats field (shadow sweep,
    // pressure profile, latency summaries): require exact identity,
    // which is also what `vcoma_client --jsonl` consumers would diff.
    EXPECT_EQ(fast.json, deep.json);
    // And the full component hierarchy: per-node cache/AM/TLB/network
    // counters must match, not just the aggregated sheet.
    EXPECT_EQ(fast.dump, deep.dump);

    expectManifestDigests(std::to_string(nodes) + "/" +
                              std::string(schemeName(scheme)) + "/" +
                              workload + (timed ? "/timed" : "/untimed"),
                          fast);
}

std::string
caseName(Scheme scheme, const std::string &workload)
{
    std::string n = std::string(schemeName(scheme)) + "_" + workload;
    n.erase(std::remove_if(n.begin(), n.end(),
                           [](char c) {
                               return !std::isalnum(
                                          static_cast<unsigned char>(c)) &&
                                      c != '_';
                           }),
            n.end());
    return n;
}

} // namespace

using Case = std::tuple<Scheme, std::string>;
using TimedCase = std::tuple<Scheme, std::string, bool>;

class FastPathEquivalence : public ::testing::TestWithParam<TimedCase>
{
};

TEST_P(FastPathEquivalence, IdenticalStatsOnAndOff)
{
    const auto [scheme, workload, timed] = GetParam();
    expectFastPathEquivalence(scheme, workload, 4, timed);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllWorkloads, FastPathEquivalence,
    ::testing::Combine(::testing::ValuesIn(allRegisteredSchemes()),
                       ::testing::Values("RADIX", "FFT", "FMM", "OCEAN",
                                         "RAYTRACE", "BARNES", "UNIFORM",
                                         "STRIDE", "HOTSPOT", "KVLOOKUP",
                                         "GRAPH", "STREAMJOIN"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<TimedCase> &info) {
        return caseName(std::get<0>(info.param), std::get<1>(info.param)) +
               (std::get<2>(info.param) ? "" : "_untimed");
    });

/**
 * The same oracle at the paper's 32-node width, where the winner tree
 * has five levels. RAYTRACE hands out tiles (nextTile_++) under a lock
 * grant, so its sheet depends on dispatch order; OCEAN and BARNES are
 * barrier-heavy.
 */
class FastPathEquivalence32 : public ::testing::TestWithParam<Case>
{
};

TEST_P(FastPathEquivalence32, IdenticalStatsOnAndOff)
{
    const auto [scheme, workload] = GetParam();
    expectFastPathEquivalence(scheme, workload, 32, true);
}

INSTANTIATE_TEST_SUITE_P(
    ThirtyTwoNodes, FastPathEquivalence32,
    ::testing::Combine(::testing::Values(Scheme::L0, Scheme::L3,
                                         Scheme::VCOMA),
                       ::testing::Values("RAYTRACE", "OCEAN", "BARNES")),
    [](const ::testing::TestParamInfo<Case> &info) {
        return caseName(std::get<0>(info.param), std::get<1>(info.param));
    });

TEST(FastPathTrace, RecordReplayRoundTripIsIdentical)
{
    // Record a live run, spell its trace as text and convert it back,
    // then replay it twice — filter on and off (checkLevel 2) — and
    // require identical stats sheets with the live run's timing. This
    // round-trips the text format on a recorded trace; its streams
    // are materialised, so the default run also covers the replay
    // cursor.
    WorkloadParams p;
    p.threads = 4;
    p.scale = 0.02;
    auto live = makeWorkload("HOTSPOT", p);
    const std::string packed =
        (std::filesystem::temp_directory_path() /
         ("vcoma_test_roundtrip_" + std::to_string(::getpid()) +
          ".vctrace"))
            .string();
    RecordingWorkload recorder(*live, packed, "fastpath-test");
    const RunResult recorded = sheet(testConfig(Scheme::VCOMA, 4), recorder);
    ASSERT_TRUE(recorder.finalize());
    std::ostringstream text;
    dumpPackedTraceAsText(packed, text);
    std::filesystem::remove(packed);

    auto replayOnce = [&](unsigned checkLevel) {
        const auto w = replayText(text.str());
        EXPECT_TRUE(w->materialised());
        return sheet(testConfig(Scheme::VCOMA, 4, true, checkLevel), *w);
    };
    const RunResult fast = replayOnce(1);
    const RunResult deep = replayOnce(deepCheck);
    expectSameStats(fast.stats, deep.stats);
    EXPECT_EQ(fast.json, deep.json);
    EXPECT_EQ(fast.dump, deep.dump);
    EXPECT_EQ(fast.stats.execTime, recorded.stats.execTime);
}

TEST(FastPathTrace, PackedReplayAt32NodesIsIdentical)
{
    // Record a packed trace of a live 32-node run, then replay it
    // filter on and off (checkLevel 2): both replays must reproduce
    // the live sheet byte for byte. RAYTRACE's tiles follow
    // lock grants; OCEAN and BARNES are barrier-heavy.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() /
        ("vcoma_test_fastpath_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir);
    for (const std::string workload : {"RAYTRACE", "OCEAN", "BARNES"}) {
        SCOPED_TRACE(workload);
        const std::string trace = (dir / (workload + ".vctrace")).string();

        WorkloadParams p;
        p.threads = 32;
        p.scale = 0.02;
        auto live = makeWorkload(workload, p);
        RecordingWorkload recorder(*live, trace, "fastpath-test");
        const RunResult recorded =
            sheet(testConfig(Scheme::VCOMA, 32), recorder);
        ASSERT_TRUE(recorder.finalize());

        for (const unsigned checkLevel : {1u, deepCheck}) {
            ReplayWorkload replay(trace);
            const RunResult r = sheet(
                testConfig(Scheme::VCOMA, 32, true, checkLevel), replay);
            expectSameStats(r.stats, recorded.stats);
            EXPECT_EQ(r.json, recorded.json) << "checkLevel " << checkLevel;
            EXPECT_EQ(r.dump, recorded.dump) << "checkLevel " << checkLevel;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(FastPathTrace, DrainYieldsTickTiesToLowerCpu)
{
    // After a barrier, CPU 1 retires FLC read hits of block X, one
    // tick each (busyScale 1, flcHit 0), while CPU 0 spends exactly
    // `pairs` uncontended lock round trips before writing X. CPU 1's
    // last read lands on CPU 0's write tick, and the tie belongs to
    // CPU 0: its write invalidates X first, so that read must miss.
    // Any batching of CPU 1's filter hits past the tie turns it into
    // a hit.
    constexpr unsigned pairs = 50;
    constexpr Cycles lockTransfer = 40;
    std::ostringstream trace;
    trace << "vcoma-trace-v1\nthreads 2\n"
          << "1 R 0x1000 0\n0 B 1\n1 B 1\n";
    for (unsigned i = 0; i < pairs; ++i)
        trace << "0 L 1\n0 U 1\n";
    trace << "0 W 0x1000 0\n";
    for (Cycles i = 0; i <= pairs * lockTransfer; ++i)
        trace << "1 R 0x1000 1\n";

    auto replayOnce = [&](unsigned checkLevel) {
        MachineConfig cfg = testConfig(Scheme::VCOMA, 2, true, checkLevel);
        cfg.busyScale = 1;
        cfg.timing.flcHit = 0;
        cfg.timing.lockTransfer = lockTransfer;
        return sheet(cfg, *replayText(trace.str()));
    };
    const RunResult fast = replayOnce(1);
    const RunResult deep = replayOnce(deepCheck);
    expectSameStats(fast.stats, deep.stats);
    EXPECT_EQ(fast.json, deep.json);
    EXPECT_EQ(fast.dump, deep.dump);
}

TEST(FastPathDecay, FastHitsKeepReferenceBits)
{
    // The reference-bit decay daemon (off by default, so the
    // equivalence grid never runs it) clears every page's bit; a page
    // touched afterwards only through fast-filter hits must be marked
    // referenced again, or the page daemon's next swap victim moves.
    // FMM and OCEAN swap pages out on the tiny machine.
    for (const std::string workload : {"FMM", "OCEAN"}) {
        SCOPED_TRACE(workload);
        auto decaying = [](unsigned checkLevel) {
            MachineConfig cfg = testConfig(Scheme::VCOMA, 4, true, checkLevel);
            cfg.refBitDecayPeriod = 20000;
            return cfg;
        };
        const RunResult fast = runOnce(decaying(1), workload);
        const RunResult deep = runOnce(decaying(deepCheck), workload);
        EXPECT_GT(fast.stats.swapOuts, 0u);
        expectSameStats(fast.stats, deep.stats);
        EXPECT_EQ(fast.json, deep.json);
        EXPECT_EQ(fast.dump, deep.dump);
    }
}

TEST(FastPathCheckLevel, DeepCheckingDisablesFastPath)
{
    // checkLevel >= 2 runs checkVersion on FLC read hits; the fast
    // path must step aside rather than skip the check.
    MachineConfig cfg = tinyConfig(Scheme::VCOMA);
    cfg.checkLevel = 2;
    Machine machine(cfg);
    EXPECT_FALSE(machine.fastPathActive());
}

namespace
{

/** Every component counter of @p m, as dumpStats() prints it. */
std::string
dumpOf(const Machine &m)
{
    std::ostringstream os;
    m.dumpStats(os);
    return os.str();
}

/**
 * Retire one reference the way Machine::run does: the fast filter
 * first, access() on a decline. @return whether the filter took it.
 */
bool
retire(Machine &m, CpuId cpu, RefType type, VAddr va, Tick now,
       AccessResult &res)
{
    if (m.engine().fastAccess(cpu, type, va, now, res))
        return true;
    res = m.access(cpu, type, va, now);
    return false;
}

} // namespace

TEST(FastPathSlcRead, FlcMissSlcHitRetiresInTheFilter)
{
    // tinyConfig's FLC blocks are 32 bytes and its SLC blocks 64: a
    // read of the second FLC block of an SLC block the first read
    // brought in misses the FLC and hits the SLC, with the AM block
    // held locally. Every scheme without a TLB between the FLC and
    // the SLC retires it in the filter; L1 charges its TLB on that
    // FLC miss, so it must decline.
    constexpr VAddr va = 0x1000;
    for (const Scheme scheme : {Scheme::L1, Scheme::L2, Scheme::L3,
                                Scheme::VCOMA, Scheme::NMT}) {
        SCOPED_TRACE(schemeName(scheme));
        Machine fast(testConfig(scheme, 4));
        Machine deep(testConfig(scheme, 4, true, deepCheck));
        ASSERT_TRUE(fast.fastPathActive());
        AccessResult f, d;
        EXPECT_FALSE(retire(fast, 0, RefType::Read, va, 0, f));
        d = deep.access(0, RefType::Read, va, 0);

        const bool took = retire(fast, 0, RefType::Read, va + 32, 1000, f);
        EXPECT_EQ(took, scheme != Scheme::L1);
        d = deep.access(0, RefType::Read, va + 32, 1000);
        EXPECT_EQ(d.servedBy, ServedBy::Slc);
        EXPECT_EQ(f.servedBy, d.servedBy);
        EXPECT_EQ(f.done, d.done);
        EXPECT_EQ(f.local, d.local);
        EXPECT_EQ(f.remote, d.remote);
        EXPECT_EQ(f.xlat, d.xlat);
        EXPECT_EQ(dumpOf(fast), dumpOf(deep));

        // The same references as a run: every sheet byte must match
        // the checkLevel 2 run's.
        std::ostringstream trace;
        trace << "vcoma-trace-v1\nthreads 4\n"
              << "0 R 0x1000 0\n0 R 0x1020 5\n0 R 0x1020 5\n"
              << "1 R 0x1000 0\n1 R 0x1020 5\n";
        auto replayOnce = [&](unsigned checkLevel) {
            return sheet(testConfig(scheme, 4, true, checkLevel),
                         *replayText(trace.str()));
        };
        const RunResult on = replayOnce(1);
        const RunResult off = replayOnce(deepCheck);
        expectSameStats(on.stats, off.stats);
        EXPECT_EQ(on.json, off.json);
        EXPECT_EQ(on.dump, off.dump);
    }
}

TEST(FastPathSlcRead, StaleAmLineFallsBackToAccess)
{
    // The SLC branch trusts the filter entry's cached AM line only
    // while its key still matches and it is valid. Re-key or
    // invalidate that line behind the filter's back: the read must be
    // declined with nothing touched, and taken again once restored.
    constexpr VAddr va = 0x1000;
    for (const Scheme scheme : {Scheme::L3, Scheme::VCOMA}) {
        SCOPED_TRACE(schemeName(scheme));
        Machine m(testConfig(scheme, 4));
        AccessResult res;
        ASSERT_FALSE(retire(m, 0, RefType::Read, va, 0, res));
        const VAddr blockVa = m.node(0).am.blockAlign(va);
        const VAddr key = m.traits().amVirtual ||
                                  !m.traits().hasPhysicalAddresses()
                              ? blockVa
                              : m.pageTable().translate(blockVa);
        AmLine *line = m.node(0).am.find(key);
        ASSERT_NE(line, nullptr);
        const AmLine saved = *line;
        const std::string before = dumpOf(m);

        line->key = key + m.config().am.blockBytes;
        EXPECT_FALSE(
            m.engine().fastAccess(0, RefType::Read, va + 32, 1000, res));
        *line = saved;
        line->state = AmState::Invalid;
        EXPECT_FALSE(
            m.engine().fastAccess(0, RefType::Read, va + 32, 1000, res));
        *line = saved;
        EXPECT_EQ(dumpOf(m), before);

        EXPECT_TRUE(
            m.engine().fastAccess(0, RefType::Read, va + 32, 1000, res));
        EXPECT_EQ(res.servedBy, ServedBy::Slc);
    }
}
