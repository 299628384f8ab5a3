/**
 * @file
 * The simulated COMA multiprocessor and its execution kernel.
 *
 * Processors are blocking (the paper uses sequential consistency), so
 * the kernel keeps one coroutine per processor and always advances
 * the processor with the smallest local clock; each reference
 * executes atomically against global coherence state at its
 * timestamp. This yields a deterministic, causally consistent
 * interleaving without a general event queue; queueing at shared
 * resources (protocol engines, AM ports, network ports) is captured
 * by next-free-time reservations.
 */

#ifndef VCOMA_SIM_MACHINE_HH
#define VCOMA_SIM_MACHINE_HH

#include <memory>
#include <vector>

#include "coma/directory.hh"
#include "coma/node.hh"
#include "coma/protocol.hh"
#include "common/config.hh"
#include "core/protection.hh"
#include "core/vaddr_layout.hh"
#include "net/network.hh"
#include "sim/run_stats.hh"
#include "translation/scheme.hh"
#include "vm/page_allocator.hh"
#include "vm/page_table.hh"
#include "vm/pressure.hh"
#include "workloads/workload.hh"

namespace vcoma
{

class InvariantChecker;
class EventTracer;

/** One lane's stats sheet (see siblingLanes()). */
struct LaneSheet
{
    Scheme scheme;
    unsigned entries;
    RunStats stats;
};

/** A fully assembled machine for one translation scheme. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);
    ~Machine();

    /** Run @p workload to completion and collect the stats sheet. */
    RunStats run(Workload &workload);

    /**
     * After run(): one sheet per lane, in siblingLanes() order, each
     * byte-identical to the sheet of that (scheme, size) config's own
     * run. Empty when the config has no lanes.
     */
    const std::vector<LaneSheet> &laneSheets() const { return laneSheets_; }

    /**
     * Execute a single reference directly (unit tests and examples
     * that drive the machine by hand rather than via a workload).
     */
    AccessResult access(CpuId cpu, RefType type, VAddr va, Tick now);

    /**
     * Dump every component's statistics as a gem5-style hierarchy
     * (nodes, caches, TLB/DLBs, protocol, network, VM).
     */
    void dumpStats(std::ostream &os) const;

    /** Reference-bit decay sweeps performed (Section 4.1 daemon). */
    std::uint64_t refBitDecays() const { return refBitDecays_.value(); }

    /** The coherence sanitizer, or nullptr when checking is off. */
    InvariantChecker *checker() { return checker_.get(); }

    /** The event tracer ($VCOMA_TRACE_EVENTS), or nullptr when off. */
    EventTracer *tracer() { return tracer_.get(); }

    /** Effective sanitizer interval (config or $VCOMA_CHECK); 0=off. */
    std::uint64_t invariantCheckInterval() const { return checkInterval_; }

    /**
     * Is the engine's hit fast filter active for this machine? The
     * scheme's structural gate decides, and checkLevel >= 2 turns it
     * off (the filter-off oracle run).
     */
    bool fastPathActive() const { return engine_.fastPathEnabled(); }

    /** Effective watchdog limit (config or $VCOMA_WATCHDOG); 0=off. */
    Cycles watchdogCycles() const { return watchdogCycles_; }

    /** @{ @name Component access */
    const MachineConfig &config() const { return cfg_; }
    const SchemeTraits &traits() const { return traits_; }
    const VAddrLayout &layout() const { return layout_; }
    PageTable &pageTable() { return pageTable_; }
    Directory &directory() { return directory_; }
    Network &network() { return network_; }
    CoherenceEngine &engine() { return engine_; }
    ProtectionManager &protection() { return protection_; }
    PressureTracker &pressure() { return pressure_; }
    Node &node(NodeId id) { return *nodes_.at(id); }
    unsigned numNodes() const { return cfg_.numNodes; }
    /** @} */

  private:
    /** Page-daemon victim: another resident page of @p colour. */
    PageNum pickSwapVictim(std::uint64_t colour, PageNum protect);

    /**
     * Add @p weight to the sanitizer's sweep budget and run a full
     * sweep once it reaches the configured interval.
     */
    void creditInvariantSweep(std::uint64_t weight);

    /**
     * The shadow sweep summed over nodes: of Node::shadow, or of
     * Node::siblingShadow when @p sibling.
     */
    std::vector<ShadowPoint> shadowSweep(bool sibling) const;

    /** Gather the stats sheet after a run. */
    RunStats collect(Workload &workload, std::vector<CpuStats> cpus,
                     Tick execTime);

    MachineConfig cfg_;
    SchemeTraits traits_;
    VAddrLayout layout_;
    PressureTracker pressure_;
    std::unique_ptr<PageAllocator> allocator_;
    PageTable pageTable_;
    Directory directory_;
    Network network_;
    std::vector<std::unique_ptr<Node>> nodes_;
    CoherenceEngine engine_;
    ProtectionManager protection_;
    Counter refBitDecays_;
    /** Present only when $VCOMA_TRACE_EVENTS names an output file. */
    std::unique_ptr<EventTracer> tracer_;
    /** Present only when the sanitizer is enabled for this run. */
    std::unique_ptr<InvariantChecker> checker_;
    std::vector<LaneSheet> laneSheets_;
    std::uint64_t checkInterval_ = 0;
    std::uint64_t checkCredit_ = 0;
    Cycles watchdogCycles_ = 0;
};

} // namespace vcoma

#endif // VCOMA_SIM_MACHINE_HH
