/**
 * @file
 * Shared task-queue primitives for the server subsystem.
 *
 * Two building blocks, both living in *simulated* memory and
 * synchronized through SyncLib locks and condition variables — so the
 * queues themselves exercise the MSA (or the software fallback), and
 * queue hand-off latency shows up in request latency:
 *
 *  - DispatchQueue: a bounded MPSC ring. Producers (dispatchers)
 *    tryPush and get `false` when the ring is full — that is the
 *    admission-control / shed-on-saturate point. One consumer (the
 *    drainer) pops in batches and blocks on a condvar while empty.
 *
 *  - LocalDeque: a bounded per-worker deque. The owner pushes/pops at
 *    the front (FIFO service order, which is what tail latency wants);
 *    thieves steal from the back.
 *
 * Values must be non-zero (store id+1); 0 means "empty". All state —
 * lock words, condvars, indices, slots — is in simulated memory, one
 * cache block apart, so cross-core access is mediated entirely by the
 * simulated memory system.
 */

#ifndef MISAR_SRV_TASK_QUEUE_HH
#define MISAR_SRV_TASK_QUEUE_HH

#include <cstdint>

#include "cpu/thread_api.hh"
#include "sync/sync_lib.hh"

namespace misar {
namespace srv {

/** Simulated-memory block granularity (matches AppLayout usage). */
constexpr Addr srvBlock = 64;

/** Bounded multi-producer single-consumer ring in simulated memory. */
struct DispatchQueue
{
    Addr base = 0;
    std::uint64_t cap = 0;

    Addr lockAddr() const { return base; }
    Addr notEmptyAddr() const { return base + srvBlock; }
    Addr headAddr() const { return base + 2 * srvBlock; }
    Addr tailAddr() const { return base + 3 * srvBlock; }
    Addr slotAddr(std::uint64_t i) const
    {
        return base + (4 + i % cap) * srvBlock;
    }
    /** Bytes of simulated address space one ring occupies. */
    static Addr span(std::uint64_t cap) { return (4 + cap) * srvBlock; }

    /**
     * Append @p value; returns false (shed) when the ring is full.
     * Signals the consumer when the push made the ring non-empty.
     */
    cpu::SubTask<bool> tryPush(cpu::ThreadApi t, sync::SyncLib *lib,
                               std::uint64_t value) const;

    /**
     * Pop up to @p max values into @p out. Blocks on the not-empty
     * condvar while the ring is empty and the word at @p stop_addr
     * still reads 0; returns 0 only when stopped *and* drained.
     */
    cpu::SubTask<unsigned> popBatch(cpu::ThreadApi t, sync::SyncLib *lib,
                                    Addr stop_addr, std::uint64_t *out,
                                    unsigned max) const;

    /** Wake a consumer blocked in popBatch (after raising stop). */
    cpu::SubTask<> wakeAll(cpu::ThreadApi t, sync::SyncLib *lib) const;

    /**
     * Unlocked occupancy probe: reads head and tail without taking
     * the ring lock, so the answer can be momentarily stale — fine
     * for admission heuristics (SLO-aware shedding), wrong for
     * anything that needs an exact count. Staleness is itself
     * deterministic: the reads are ordinary simulated-memory loads.
     */
    cpu::SubTask<std::uint64_t> depth(cpu::ThreadApi t) const;
};

/** Bounded per-worker deque: owner at the front, thieves at the back. */
struct LocalDeque
{
    Addr base = 0;
    std::uint64_t cap = 0;

    Addr lockAddr() const { return base; }
    Addr topAddr() const { return base + srvBlock; }
    Addr botAddr() const { return base + 2 * srvBlock; }
    Addr slotAddr(std::uint64_t i) const
    {
        return base + (3 + i % cap) * srvBlock;
    }
    static Addr span(std::uint64_t cap) { return (3 + cap) * srvBlock; }

    /** Append at the back; false when full (caller runs it inline). */
    cpu::SubTask<bool> pushBack(cpu::ThreadApi t, sync::SyncLib *lib,
                                std::uint64_t value) const;

    /** Owner: take the oldest entry; 0 when empty. */
    cpu::SubTask<std::uint64_t> popFront(cpu::ThreadApi t,
                                         sync::SyncLib *lib) const;

    /** Thief: take the newest entry; 0 when empty. */
    cpu::SubTask<std::uint64_t> stealBack(cpu::ThreadApi t,
                                          sync::SyncLib *lib) const;
};

} // namespace srv
} // namespace misar

#endif // MISAR_SRV_TASK_QUEUE_HH
