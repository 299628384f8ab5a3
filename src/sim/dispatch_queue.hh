/**
 * @file
 * Event dispatch for Machine::run: which blocked processor runs next.
 * DispatchTree yields CPUs in lexicographic (readyAt, cpu) order, the
 * simulator's determinism contract (DESIGN.md decision 1).
 *
 * The loop protocol: next() names the minimum, and before the
 * following next() the loop must either schedule() that CPU again or
 * park() it (barrier, lock queue, done). schedule() also wakes parked
 * CPUs. The tree is a fixed winner tree over the CPUs, so re-keying
 * the CPU just dispatched is one leaf-to-root walk and a CPU that
 * stays the minimum simply stays on top. Its reference is a
 * std::set<DispatchEntry> (tests/test_dispatch_queue.cc).
 */

#ifndef VCOMA_SIM_DISPATCH_QUEUE_HH
#define VCOMA_SIM_DISPATCH_QUEUE_HH

#include <utility>
#include <vector>

#include "common/types.hh"

namespace vcoma
{

/** A dispatch event: (readyAt, cpu), compared lexicographically. */
using DispatchEntry = std::pair<Tick, CpuId>;

/**
 * Winner (tournament) tree over a fixed set of CPUs. Leaves sit in cpu
 * order; each internal node holds a copy of its subtree's winning
 * (readyAt, cpu). Every cpu in a left subtree is lower than every cpu
 * in its right sibling, so resolving a key tie to the left child is
 * exactly the (readyAt, cpu) tie-break: one Tick compare per level.
 *
 * A parked or finished CPU is absent: its presence bit is clear and
 * it loses to any present CPU. Absence is never encoded in the key,
 * so a CPU whose readyAt saturated at ~Tick{0} still dispatches.
 */
class DispatchTree
{
  public:
    /** A tree of @p numCpus leaves, all absent. */
    explicit DispatchTree(unsigned numCpus)
    {
        while (width_ < numCpus)
            width_ *= 2;
        node_.resize(2 * width_);
        for (CpuId i = 0; i < width_; ++i)
            node_[width_ + i].cpu = i;
        for (unsigned k = width_ - 1; k != 0; --k)
            node_[k] = node_[2 * k];
    }

    bool empty() const { return !node_[1].present; }

    /** The minimum (readyAt, cpu); the tree is not empty. */
    DispatchEntry next() const { return {node_[1].key, node_[1].cpu}; }

    /** Insert @p cpu at @p readyAt, or re-key it if present. */
    void
    schedule(CpuId cpu, Tick readyAt)
    {
        node_[width_ + cpu] = Slot{readyAt, cpu, true};
        replay(cpu);
    }

    /** Remove @p cpu until the next schedule(). */
    void
    park(CpuId cpu)
    {
        node_[width_ + cpu].present = false;
        replay(cpu);
    }

  private:
    struct Slot
    {
        Tick key = 0;
        CpuId cpu = 0;
        bool present = false;
    };

    /**
     * Replay @p cpu's matches up its leaf-to-root path. The running
     * winner stays in registers and each sibling is one slot load
     * whose address does not depend on the earlier matches.
     */
    void
    replay(CpuId cpu)
    {
        unsigned k = width_ + cpu;
        Slot w = node_[k];
        for (; k > 1; k >>= 1) {
            const Slot s = node_[k ^ 1];
            // A tie goes to the left (lower) subtree: to the sibling
            // when the running winner is a right child (odd k). The
            // match outcome is data-dependent, so it selects through
            // masks rather than a branch the predictor would miss.
            const bool sLeft = k & 1;
            const bool sWins = s.present & (!w.present | (s.key < w.key) |
                                            (sLeft & (s.key == w.key)));
            const Tick mask = Tick{0} - sWins;
            w.key ^= (w.key ^ s.key) & mask;
            w.cpu ^= (w.cpu ^ s.cpu) & static_cast<CpuId>(mask);
            w.present |= sWins;
            node_[k >> 1] = w;
        }
    }

    /** Leaves: the CPU count rounded up to a power of two. */
    unsigned width_ = 1;
    /** Heap-numbered: root at 1, leaf i at width_ + i. */
    std::vector<Slot> node_;
};

} // namespace vcoma

#endif // VCOMA_SIM_DISPATCH_QUEUE_HH
