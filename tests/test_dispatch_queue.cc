/**
 * @file
 * Machine::run's dispatch queue. The winner tree is pinned to a
 * std::set model of (readyAt, cpu), both under random re-key, park
 * and unpark sequences and under the event loop's own protocol.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.hh"
#include "sim/dispatch_queue.hh"

using namespace vcoma;

namespace
{

/** A key drawn to make ties and saturated ticks common. */
Tick
drawKey(Rng &rng)
{
    switch (rng.below(4)) {
      case 0:
        return rng.below(4);  // tie-heavy: few distinct ticks
      case 1:
        return ~Tick{0} - rng.below(2);  // at or just below saturation
      default:
        return rng.below(1000);
    }
}

} // namespace

class DispatchTreeModel : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DispatchTreeModel, TopMatchesAnOrderedSet)
{
    const unsigned n = GetParam();
    DispatchTree tree(n);
    std::set<DispatchEntry> model;
    std::vector<Tick> key(n, 0);
    std::vector<bool> present(n, false);
    Rng rng(1000 + n);

    for (int step = 0; step < 20000; ++step) {
        const CpuId cpu = static_cast<CpuId>(rng.below(n));
        if (present[cpu])
            model.erase({key[cpu], cpu});
        if (present[cpu] && rng.below(4) == 0) {
            // park
            present[cpu] = false;
            tree.park(cpu);
        } else {
            // re-key a present CPU, or unpark an absent one
            key[cpu] = drawKey(rng);
            present[cpu] = true;
            model.insert({key[cpu], cpu});
            tree.schedule(cpu, key[cpu]);
        }

        ASSERT_EQ(tree.empty(), model.empty()) << "step " << step;
        if (!model.empty()) {
            ASSERT_EQ(tree.next(), *model.begin()) << "step " << step;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, DispatchTreeModel,
                         ::testing::Values(1u, 2u, 4u, 32u, 64u));

TEST(DispatchTree, SaturatedTickStillDispatchesInCpuOrder)
{
    // Resource::acquire saturates at ~Tick{0}: such a CPU is present,
    // not parked, and ties at the top break to the lower cpu.
    DispatchTree tree(3);
    tree.schedule(2, ~Tick{0});
    tree.schedule(1, ~Tick{0});
    EXPECT_EQ(tree.next(), DispatchEntry(~Tick{0}, 1));
    tree.park(1);
    EXPECT_EQ(tree.next(), DispatchEntry(~Tick{0}, 2));
    tree.park(2);
    EXPECT_TRUE(tree.empty());
}

TEST(DispatchQueues, TreeDispatchesInOrderedSetOrder)
{
    // Drive the tree through the event loop's protocol (dispatch the
    // minimum, then re-key or park it, waking parked CPUs now and
    // then) against a std::set of the present (readyAt, cpu) pairs,
    // and require the same event sequence.
    constexpr unsigned n = 32;
    DispatchTree tree(n);
    std::set<DispatchEntry> model;
    for (CpuId c = 0; c < n; ++c) {
        model.insert({0, c});
        tree.schedule(c, 0);
    }
    std::vector<CpuId> parked;
    Rng rng(7);
    for (int step = 0; step < 50000 && !model.empty(); ++step) {
        ASSERT_FALSE(tree.empty());
        const DispatchEntry e = *model.begin();
        ASSERT_EQ(tree.next(), e) << "step " << step;
        model.erase(model.begin());
        const auto [when, cpu] = e;
        if (rng.below(8) == 0) {
            tree.park(cpu);
            parked.push_back(cpu);
        } else {
            const Tick t = when + rng.below(3);
            model.insert({t, cpu});
            tree.schedule(cpu, t);
        }
        if (!parked.empty() && rng.below(4) == 0) {
            const CpuId w = parked.back();
            parked.pop_back();
            const Tick t = when + rng.below(5);
            model.insert({t, w});
            tree.schedule(w, t);
        }
    }
    EXPECT_EQ(tree.empty(), model.empty());
}
