/**
 * @file
 * The synchronization runtime library.
 *
 * One SyncLib instance per simulated system provides mutexes,
 * barriers, and condition variables to workload code, in one of
 * several flavors:
 *
 * - PthreadSw: glibc-like software implementations (TTAS mutex with
 *   futex-style backoff, generation barrier, ticket condition
 *   variable). The paper's baseline.
 * - SpinSw:    raw test-and-set spinlock (locks only; barrier/cond
 *   fall back to the pthread algorithms).
 * - McsTourSw: MCS queue locks + tournament barrier (the paper's
 *   "advanced software" MCS-Tour configuration).
 * - TicketDissemSw: ticket locks + dissemination barrier (a second
 *   classic scalable-software point for the algorithm ablation).
 * - Hw:        the paper's hybrid Algorithms 1-3 — try the MiSAR
 *   instruction first, fall back to the pthread software path (and
 *   issue FINISH where required). Used for MSA-0 / MSA/OMU-N /
 *   MSA-inf / Ideal runs; with MSA-0 every instruction FAILs and
 *   this measures pure fallback overhead.
 *
 * Auxiliary state for software algorithms (MCS queue nodes,
 * tournament flags, condvar tickets) lives at an address that is a
 * pure function of the object (see the aux-addressing notes below),
 * each field in its own cache block.
 */

#ifndef MISAR_SYNC_SYNC_LIB_HH
#define MISAR_SYNC_SYNC_LIB_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "cpu/subtask.hh"
#include "cpu/thread_api.hh"

namespace misar {
namespace sync {

using cpu::SubTask;
using cpu::ThreadApi;

/**
 * @name Auxiliary-region addressing
 *
 * Software algorithms need per-object scratch memory (MCS queue
 * nodes, tournament flags, condvar tickets). The region address must
 * be a pure function of the object — a first-use bump allocator
 * would hand out addresses in discovery order, so any change to the
 * order in which threads first touch their objects would shift home
 * tiles and cache behavior.
 *
 * Layout: bit 62 tags the aux space (workloads never allocate
 * there); each object owns a 2^auxSlabShift-byte slab at
 * tag | (obj << auxSlabShift). Slabs of distinct objects are
 * disjoint by construction; the slab is sized for the largest user
 * (tournament barrier: (rounds + 1) * goal blocks) at the 1024-core
 * x SMT ceiling, and aux() panics on anything bigger. Memory is
 * sparse (FunctionalMem maps touched words only), so the wide
 * spacing costs nothing.
 * @{
 */
constexpr unsigned auxSlabShift = 23;
constexpr Addr auxSlabBytes = Addr{1} << auxSlabShift;
constexpr Addr auxSpaceTag = Addr{1} << 62;
/** @} */

/** Synchronization runtime facade. */
class SyncLib
{
  public:
    enum class Flavor
    {
        PthreadSw,
        SpinSw,
        McsTourSw,
        TicketDissemSw,
        Hw,
    };

    SyncLib(Flavor flavor, unsigned num_cores);

    /** @name Public API used by workloads (Algorithms 1-3 for Hw). @{ */
    SubTask<> mutexLock(ThreadApi t, Addr m);
    SubTask<> mutexUnlock(ThreadApi t, Addr m);
    /** Non-blocking acquire; true if the lock was taken. */
    SubTask<bool> mutexTryLock(ThreadApi t, Addr m);
    SubTask<> barrierWait(ThreadApi t, Addr b, std::uint32_t goal);
    /** @name Reader-writer lock extension (hybrid like Alg. 1). @{ */
    SubTask<> rwRdLock(ThreadApi t, Addr l);
    SubTask<> rwWrLock(ThreadApi t, Addr l);
    SubTask<> rwUnlock(ThreadApi t, Addr l);
    /** @} */

    SubTask<> condWait(ThreadApi t, Addr c, Addr m);
    SubTask<> condSignal(ThreadApi t, Addr c);
    SubTask<> condBroadcast(ThreadApi t, Addr c);
    /** @} */

    Flavor flavor() const { return _flavor; }

    static const char *flavorName(Flavor f);

    /**
     * Dead-participant query for the core fault campaign: true once
     * the failure detector has declared @p core dead. When set, the
     * software barriers stop waiting for corpses — the centralized
     * barrier counts declared-dead participants toward its quorum
     * (approximate: it cannot tell whether a corpse arrived before
     * dying, so a core that dies *after* arriving can cause one
     * early release; the hardware path tracks arrival masks and is
     * exact), and the tournament/dissemination barriers skip a dead
     * peer's flags. Unset (the default), every path is bit-identical
     * to a build without the feature. Software *locks* stay
     * unrecoverable: a corpse holding a plain-memory mutex wedges
     * its waiters (see docs/PROTOCOL.md).
     */
    using DeadQuery = std::function<bool(CoreId)>;
    void setDeadQuery(DeadQuery q) { isDeadFn = std::move(q); }

  private:
    /** @name Software mutexes @{ */
    SubTask<> pthreadLock(ThreadApi t, Addr m);
    SubTask<> pthreadUnlock(ThreadApi t, Addr m);
    SubTask<bool> swTryLock(ThreadApi t, Addr m);
    SubTask<> spinLock(ThreadApi t, Addr m);
    SubTask<> spinUnlock(ThreadApi t, Addr m);
    SubTask<> mcsLock(ThreadApi t, Addr m);
    SubTask<> mcsUnlock(ThreadApi t, Addr m);
    SubTask<> ticketLock(ThreadApi t, Addr m);
    SubTask<> ticketUnlock(ThreadApi t, Addr m);
    SubTask<> swRdLock(ThreadApi t, Addr l);
    SubTask<> swWrLock(ThreadApi t, Addr l);
    SubTask<> swRwUnlockReader(ThreadApi t, Addr l);
    SubTask<> swRwUnlockWriter(ThreadApi t, Addr l);
    /** @} */

    /** @name Software barriers @{ */
    SubTask<> centralBarrier(ThreadApi t, Addr b, std::uint32_t goal);
    SubTask<> tournamentBarrier(ThreadApi t, Addr b, std::uint32_t goal);
    SubTask<> disseminationBarrier(ThreadApi t, Addr b,
                                   std::uint32_t goal);
    /** @} */

    /** @name Software condition variables (ticket-based) @{ */
    SubTask<> swCondWait(ThreadApi t, Addr c, Addr m);
    SubTask<> swCondSignal(ThreadApi t, Addr c);
    SubTask<> swCondBroadcast(ThreadApi t, Addr c);
    /** @} */

    /** Dispatch to the flavor's software lock. */
    SubTask<> swLock(ThreadApi t, Addr m);
    SubTask<> swUnlock(ThreadApi t, Addr m);
    SubTask<> swBarrier(ThreadApi t, Addr b, std::uint32_t goal);

    /** Per-object auxiliary memory region (pure address function). */
    Addr aux(Addr obj, unsigned bytes);

    /** MCS queue node of @p core for lock @p m. */
    Addr mcsNode(Addr m, CoreId core);

    /** How each (core, rwlock) pair currently holds it. */
    enum class RwHold : std::uint8_t { None, Hw, SwReader, SwWriter };

    RwHold &rwHold(CoreId core, Addr l);

    /** True if @p core is declared dead (false with no query set). */
    bool
    deadParticipant(CoreId core) const
    {
        return isDeadFn && isDeadFn(core);
    }

    /** Declared-dead participants with id below @p goal. */
    unsigned deadBelow(std::uint32_t goal) const;

    Flavor _flavor;
    unsigned numCores;
    /** Indexed [core][lock], so core ids of any width key apart. */
    std::vector<std::unordered_map<Addr, RwHold>> rwHoldsByCore;
    DeadQuery isDeadFn;
};

} // namespace sync
} // namespace misar

#endif // MISAR_SYNC_SYNC_LIB_HH
