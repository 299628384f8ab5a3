/**
 * @file
 * The event vocabulary emitted by workload threads: shared-memory
 * references, synchronisation events and interleaved busy time.
 *
 * Following the paper's methodology (Section 5.1) only *shared* data
 * accesses are simulated; instruction fetches and private accesses
 * appear as busy cycles attached to the next event.
 */

#ifndef VCOMA_SIM_MEMREF_HH
#define VCOMA_SIM_MEMREF_HH

#include <cstdint>

#include "common/types.hh"

namespace vcoma
{

/**
 * One event in a simulated thread's execution stream: 16 bytes, laid
 * out exactly as one packed trace record (sim/memref_pack.hh).
 */
struct MemRef
{
    /** What kind of event this is. */
    enum class Kind : std::uint8_t
    {
        Mem,          ///< shared-memory read or write at @ref vaddr
        Barrier,      ///< global barrier identified by @ref syncId
        LockAcquire,  ///< acquire lock @ref syncId
        LockRelease,  ///< release lock @ref syncId
    };

    Kind kind = Kind::Mem;
    /** Read or write (Kind::Mem only). */
    RefType type = RefType::Read;
    /** Busy (compute) cycles preceding this event. */
    std::uint32_t work = 0;
    /**
     * The operand: one 8-byte word read through the member @ref kind
     * names. A sync event holds its id zero-extended, so read
     * @ref vaddr only for Kind::Mem and @ref syncId only otherwise.
     */
    union
    {
        /** Virtual address of the access (Kind::Mem only). */
        VAddr vaddr = 0;
        /** Barrier or lock identifier (synchronisation kinds only). */
        std::uint32_t syncId;
    };

    /** Convenience constructors. */
    static MemRef
    read(VAddr a, std::uint32_t work = 1)
    {
        return mem(RefType::Read, a, work);
    }

    static MemRef
    write(VAddr a, std::uint32_t work = 1)
    {
        return mem(RefType::Write, a, work);
    }

    static MemRef
    barrier(std::uint32_t id, std::uint32_t work = 0)
    {
        return sync(Kind::Barrier, id, work);
    }

    static MemRef
    lock(std::uint32_t id, std::uint32_t work = 0)
    {
        return sync(Kind::LockAcquire, id, work);
    }

    static MemRef
    unlock(std::uint32_t id, std::uint32_t work = 0)
    {
        return sync(Kind::LockRelease, id, work);
    }

    static MemRef
    mem(RefType type, VAddr a, std::uint32_t work)
    {
        MemRef r;
        r.type = type;
        r.work = work;
        r.vaddr = a;
        return r;
    }

    /** A @p kind sync event; the operand word's upper half stays 0. */
    static MemRef
    sync(Kind kind, std::uint32_t id, std::uint32_t work)
    {
        MemRef r;
        r.kind = kind;
        r.work = work;
        r.syncId = id;
        return r;
    }

    /** Same event: the operand compares as the member kind names. */
    friend bool
    operator==(const MemRef &a, const MemRef &b)
    {
        return a.kind == b.kind && a.type == b.type && a.work == b.work &&
               (a.kind == Kind::Mem ? a.vaddr == b.vaddr
                                    : a.syncId == b.syncId);
    }
};

} // namespace vcoma

#endif // VCOMA_SIM_MEMREF_HH
