/**
 * @file
 * Cache inclusion checker shared by the protocol, machine, paging,
 * geometry and integration tests: every valid FLC/SLC block lies
 * under a valid AM block of its node. The coherence invariants
 * (directory/AM agreement, single ownership, version currency) are
 * InvariantChecker's (check/invariant_checker.hh); the tests call
 * EXPECT_NO_THROW(InvariantChecker(m).enforce()).
 */

#ifndef VCOMA_TESTS_CHECKERS_HH
#define VCOMA_TESTS_CHECKERS_HH

#include <gtest/gtest.h>

#include "sim/machine.hh"

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

} // namespace vcoma

#endif // VCOMA_TESTS_CHECKERS_HH
