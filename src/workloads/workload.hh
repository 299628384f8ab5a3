/**
 * @file
 * Workload interface: a parallel program whose threads emit their
 * shared-memory reference streams as coroutines.
 *
 * The six SPLASH-2 benchmarks of the paper (Table 1) are implemented
 * as algorithmic kernels: they really execute their algorithm over
 * host data structures and yield a MemRef for every shared load and
 * store the real program would perform, with barrier and lock events
 * where the original synchronises. Private/stack accesses appear as
 * busy cycles on the next reference, matching the paper's
 * "we only simulate shared data accesses" methodology.
 */

#ifndef VCOMA_WORKLOADS_WORKLOAD_HH
#define VCOMA_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "sim/generator.hh"
#include "sim/memref.hh"
#include "vm/address_space.hh"

namespace vcoma
{

/** A shared array living in the simulated virtual address space. */
template <typename T>
class SharedArray
{
  public:
    SharedArray() = default;

    /** Allocate @p count elements in @p space. */
    SharedArray(AddressSpace &space, std::string name, std::uint64_t count,
                std::uint64_t align = 64)
        : base_(space.alloc(std::move(name), count * sizeof(T), align)),
          count_(count)
    {
    }

    /** Simulated address of element @p i. */
    VAddr
    addr(std::uint64_t i) const
    {
        return base_ + i * sizeof(T);
    }

    VAddr base() const { return base_; }
    std::uint64_t count() const { return count_; }
    std::uint64_t bytes() const { return count_ * sizeof(T); }

  private:
    VAddr base_ = 0;
    std::uint64_t count_ = 0;
};

/** Abstract parallel workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Benchmark name as used in the paper's tables. */
    virtual std::string name() const = 0;

    /** Parameter string (the Table 1 "Parameters" column). */
    virtual std::string parameters() const = 0;

    /** Number of threads == number of simulated processors. */
    virtual unsigned numThreads() const = 0;

    /**
     * The reference stream of thread @p tid. Every thread must pass
     * every barrier the workload issues; all threads are created
     * before the run starts.
     */
    virtual Generator<MemRef> thread(unsigned tid) = 0;

    /** The workload's virtual address space (footprint, layout). */
    virtual const AddressSpace &space() const = 0;

    /**
     * True when the per-thread streams exist as materialised arrays
     * served by stream(). The simulation kernel then walks the array
     * directly — no coroutine per reference — which is what makes
     * trace replay fast. Execution-driven workloads return false.
     */
    virtual bool materialised() const { return false; }

    /**
     * Materialised stream of thread @p tid, valid for this object's
     * lifetime. Only meaningful when materialised() is true; the
     * default fatal()s.
     */
    virtual std::span<const MemRef> stream(unsigned tid);

    /** Total shared bytes (Table 1's "Shared Memory" column). */
    std::uint64_t sharedBytes() const { return space().totalBytes(); }
};

/**
 * Coroutine view of a materialised stream: yields each event of
 * @p refs in order. @p refs must outlive the generator.
 */
Generator<MemRef> replayStream(std::span<const MemRef> refs);

/** Scaling/seeding knobs shared by all workload factories. */
struct WorkloadParams
{
    unsigned threads = 32;
    /**
     * Problem-size scale: 1.0 is the repository default (fast);
     * larger values approach the paper's data-set sizes.
     */
    double scale = 1.0;
    std::uint64_t seed = 1;
    /**
     * RAYTRACE only: align the per-processor ray-tree stacks to one
     * page (the DLB/8/V2 layout of Figure 10) instead of the original
     * 32 KB padding.
     */
    bool raytraceV2Layout = false;
    /**
     * Datacenter kernels (KVLOOKUP/GRAPH/STREAMJOIN): Zipf exponent
     * of the key/hub popularity distribution. 0 is uniform, 0.99 the
     * YCSB default, > 1 concentrates traffic on a handful of ranks.
     */
    double skew = 0.99;
    /** Datacenter kernels: fraction of operations that only read. */
    double readRatio = 0.9;
    /**
     * Datacenter kernels: working-set multiplier applied on top of
     * scale (grows the table/graph without issuing more references).
     */
    double workingSet = 1.0;
};

/** Names accepted by makeWorkload(). */
const std::vector<std::string> &workloadNames();

/**
 * Does @p spelling name an external packed trace ("TRACE:<path>",
 * prefix case-insensitive)? Such workloads replay a recorded stream
 * and never re-record.
 */
bool isTraceSpelling(const std::string &spelling);

/**
 * Construct a workload by paper name (RADIX, FFT, FMM, OCEAN,
 * RAYTRACE, BARNES), by synthetic-generator name (UNIFORM, STRIDE,
 * HOTSPOT), by datacenter-kernel name (KVLOOKUP, GRAPH, STREAMJOIN),
 * or as "TRACE:<path>" to replay an external packed trace as a
 * first-class workload. Names are case-insensitive (a TRACE path's
 * case is preserved). The datacenter kernels accept inline knobs
 * appended to the name — "KVLOOKUP:skew=1.2,read=0.5,ws=2" —
 * overriding WorkloadParams::skew/readRatio/workingSet, so a knobbed
 * spelling flows through config keys, the CLI and the service wire
 * protocol unchanged. fatal() on unknown names or malformed knobs.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       const WorkloadParams &params);

} // namespace vcoma

#endif // VCOMA_WORKLOADS_WORKLOAD_HH
