/** @file Tests for the coroutine generator. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/generator.hh"

using namespace vcoma;

namespace
{

Generator<int>
countTo(int n)
{
    for (int i = 0; i < n; ++i)
        co_yield i;
}

Generator<int>
throwsMidway()
{
    co_yield 1;
    throw std::runtime_error("boom");
}

Generator<int>
empty()
{
    co_return;
}

/**
 * Yields forever while counting frame destructions through a local
 * probe: the probe lives in the coroutine frame, so its destructor
 * runs exactly when the frame is destroyed. Run under ASan (the
 * sanitize CI job) a double-destroy or leak of the handle shows up as
 * a hard error; the counters below catch the same bugs portably.
 */
Generator<int>
counted(int &frameDtors)
{
    struct Probe
    {
        int &count;
        ~Probe() { ++count; }
    } probe{frameDtors};
    for (int i = 0;; ++i)
        co_yield i;
}

} // namespace

TEST(Generator, YieldsAllValuesThenEnds)
{
    auto gen = countTo(5);
    for (int i = 0; i < 5; ++i) {
        auto v = gen.next();
        ASSERT_TRUE(v.has_value());
        EXPECT_EQ(*v, i);
    }
    EXPECT_FALSE(gen.next().has_value());
    EXPECT_FALSE(gen.next().has_value());  // stays exhausted
    EXPECT_FALSE(gen.alive());
}

TEST(Generator, NextPtrSeesEachYieldedObjectUntilTheNextAdvance)
{
    // nextPtr() points at the yielded object itself, a local the body
    // changes once resumed or a temporary, not at a copy.
    auto make = []() -> Generator<int> {
        int local = 10;
        co_yield local;
        local = 11;
        co_yield local;
        co_yield local * 2;
    };
    auto gen = make();
    const int *p = gen.nextPtr();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 10);
    p = gen.nextPtr();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 11);
    p = gen.nextPtr();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, 22);
    EXPECT_EQ(gen.nextPtr(), nullptr);
}

TEST(Generator, EmptyGenerator)
{
    auto gen = empty();
    EXPECT_FALSE(gen.next().has_value());
}

TEST(Generator, LazyUntilFirstNext)
{
    bool started = false;
    auto make = [&]() -> Generator<int> {
        started = true;
        co_yield 7;
    };
    auto gen = make();
    EXPECT_FALSE(started);
    EXPECT_EQ(*gen.next(), 7);
    EXPECT_TRUE(started);
}

TEST(Generator, PropagatesExceptions)
{
    auto gen = throwsMidway();
    EXPECT_EQ(*gen.next(), 1);
    EXPECT_THROW(gen.next(), std::runtime_error);
}

TEST(Generator, MoveTransfersOwnership)
{
    auto a = countTo(3);
    EXPECT_EQ(*a.next(), 0);
    Generator<int> b = std::move(a);
    EXPECT_FALSE(a.alive());
    EXPECT_EQ(*b.next(), 1);
    Generator<int> c;
    c = std::move(b);
    EXPECT_EQ(*c.next(), 2);
    EXPECT_FALSE(c.next().has_value());
}

TEST(Generator, DefaultConstructedIsEmpty)
{
    Generator<int> gen;
    EXPECT_FALSE(gen.alive());
    EXPECT_FALSE(gen.next().has_value());
}

TEST(Generator, MoveAssignDestroysReplacedFrameExactlyOnce)
{
    // Move-assigning over a live generator must destroy the old
    // coroutine frame once — not zero times (leak) and not twice
    // (double-destroy when the assignee later goes out of scope).
    int a = 0;
    int b = 0;
    {
        auto g = counted(a);
        EXPECT_EQ(*g.next(), 0);  // start the frame: the probe exists
        auto h = counted(b);
        EXPECT_EQ(*h.next(), 0);
        g = std::move(h);
        EXPECT_EQ(a, 1) << "replaced frame must be destroyed";
        EXPECT_EQ(b, 0) << "adopted frame must stay alive";
        EXPECT_FALSE(h.alive());
        EXPECT_EQ(*g.next(), 1);  // and keep producing
    }
    EXPECT_EQ(a, 1) << "replaced frame destroyed again at scope exit";
    EXPECT_EQ(b, 1);
}

TEST(Generator, MoveAssignFromEmptyReleasesOldFrame)
{
    int d = 0;
    {
        auto g = counted(d);
        EXPECT_EQ(*g.next(), 0);
        g = Generator<int>{};
        EXPECT_EQ(d, 1);
        EXPECT_FALSE(g.alive());
        EXPECT_FALSE(g.next().has_value());
    }
    EXPECT_EQ(d, 1);
}

TEST(Generator, SelfMoveAssignKeepsFrameAlive)
{
    int d = 0;
    {
        auto g = counted(d);
        EXPECT_EQ(*g.next(), 0);
        // Through a reference so the self-move is not optimised away
        // (and not diagnosed) at compile time.
        Generator<int> &alias = g;
        g = std::move(alias);
        EXPECT_EQ(d, 0) << "self-move must not destroy the frame";
        EXPECT_TRUE(g.alive());
        EXPECT_EQ(*g.next(), 1);
    }
    EXPECT_EQ(d, 1) << "frame destroyed exactly once at scope exit";
}

TEST(Generator, MoveConstructedVectorGrowthDestroysEachFrameOnce)
{
    // vector reallocation move-constructs generators in bulk — the
    // pattern Machine::run and ReplayWorkload adoption rely on.
    int d = 0;
    {
        std::vector<Generator<int>> gens;
        for (int i = 0; i < 64; ++i) {
            gens.push_back(counted(d));
            EXPECT_EQ(*gens.back().next(), 0);
        }
        EXPECT_EQ(d, 0) << "reallocation must move frames, not "
                           "destroy them";
        for (auto &g : gens)
            EXPECT_EQ(*g.next(), 1);
    }
    EXPECT_EQ(d, 64);
}

TEST(Generator, ManyConcurrentGenerators)
{
    std::vector<Generator<int>> gens;
    for (int i = 0; i < 100; ++i)
        gens.push_back(countTo(10));
    // Interleave them round-robin.
    for (int round = 0; round < 10; ++round) {
        for (auto &g : gens) {
            auto v = g.next();
            ASSERT_TRUE(v.has_value());
            EXPECT_EQ(*v, round);
        }
    }
}
