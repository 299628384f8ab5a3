/**
 * @file
 * Helpers shared across the test suites.
 *
 * checkInclusion(): every valid FLC/SLC block lies under a valid AM
 * block of its node. The coherence invariants (directory/AM
 * agreement, single ownership, version currency) are
 * InvariantChecker's (check/invariant_checker.hh); the tests call
 * EXPECT_NO_THROW(InvariantChecker(m).enforce()).
 *
 * replayText() and recordExperiment() put hand-written and recorded
 * streams on the one record/replay path: RecordingWorkload records,
 * ReplayWorkload replays.
 */

#ifndef VCOMA_TESTS_CHECKERS_HH
#define VCOMA_TESTS_CHECKERS_HH

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>

#include "harness/runner.hh"
#include "sim/machine.hh"
#include "sim/trace_convert.hh"
#include "workloads/replay.hh"
#include "workloads/workload.hh"

namespace vcoma
{

inline void
checkInclusion(Machine &m)
{
    for (unsigned n = 0; n < m.numNodes(); ++n) {
        Node &node = m.node(n);
        node.slc.forEachValid([&](VAddr addr, bool) {
            const AmLine *line = node.am.find(
                m.traits().amVirtual == m.traits().slcVirtual
                    ? addr
                    : (m.traits().amVirtual
                           ? m.pageTable().reverse(addr)
                           : m.pageTable().translate(addr)));
            ASSERT_NE(line, nullptr)
                << "SLC block without AM parent at node " << n;
        });
        node.flc.forEachValid([&](VAddr addr, bool dirty) {
            ASSERT_FALSE(dirty) << "write-through FLC is never dirty";
            const bool sameSpace =
                m.traits().flcVirtual == m.traits().slcVirtual;
            const VAddr slcAddr =
                sameSpace ? addr
                          : (m.traits().slcVirtual
                                 ? m.pageTable().reverse(addr)
                                 : m.pageTable().translate(addr));
            ASSERT_TRUE(node.slc.contains(slcAddr))
                << "FLC block without SLC parent at node " << n;
        });
    }
}

/**
 * Replay a text trace (the sim/trace.hh grammar) the way every trace
 * replays: convert it to a packed trace and map that back in. The
 * temp file is unlinked at once; the mapping outlives it.
 */
inline std::unique_ptr<ReplayWorkload>
replayText(const std::string &text)
{
    static std::atomic<unsigned> seq{0};
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("vcoma_text_" + std::to_string(::getpid()) + "_" +
         std::to_string(seq++) + ".vctrace");
    std::istringstream in(text);
    convertTextTraceToPacked(in, path.string());
    auto replay = std::make_unique<ReplayWorkload>(path.string());
    std::filesystem::remove(path);
    return replay;
}

/**
 * Simulate @p cfg once, as the Runner would, through a
 * RecordingWorkload that publishes the packed trace of exactly what
 * the run consumed at @p tracePath. @return the run's sheet.
 */
inline RunStats
recordExperiment(const ExperimentConfig &cfg, const std::string &tracePath)
{
    const std::unique_ptr<Workload> live =
        makeWorkload(cfg.workload, cfg.workloadParams());
    RecordingWorkload recording(*live, tracePath, cfg.key());
    Machine machine(cfg.machine());
    const RunStats stats = machine.run(recording);
    EXPECT_TRUE(recording.finalize()) << tracePath;
    return stats;
}

} // namespace vcoma

#endif // VCOMA_TESTS_CHECKERS_HH
