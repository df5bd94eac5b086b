/**
 * @file
 * Conservative parallel discrete-event engine (PDES) for the tile
 * mesh.
 *
 * The mesh is split into `--threads N` contiguous tile groups; each
 * group owns a private EventQueue holding the lanes of its tiles.
 * Lane 0 (the global lane: watchdog, samplers, fault injectors,
 * run-control lambdas) stays on the System's shared queue and is
 * executed only by the master thread, with every worker parked — so
 * master-lane code may freely touch any tile's state, exactly like
 * the serial kernel.
 *
 * Synchronization is bucket-synchronous with a lookahead of one tick,
 * the minimum cross-partition NoC latency (a credit return crosses a
 * partition boundary in one tick; flit hops take routerLatency +
 * linkLatency >= 2). Each round executes exactly one simulated tick:
 *
 *   master: drain global inbox, pick T = min next tick over every
 *           queue and mailbox, align all clocks to T, run global
 *           lane-0 events at T (workers parked), then release;
 *   workers (master doubles as partition 0's worker): drain inbound
 *           mailboxes in deterministic (source partition, send order)
 *           order, run the local lanes of tick T, appending
 *           cross-partition sends to outbound mailboxes; barrier.
 *
 * Mailboxes are double-buffered by round parity: round k appends to
 * generation k&1 while draining generation (k&1)^1, so no buffer is
 * ever written and read concurrently. All cross-thread visibility is
 * by the two sense-reversing barriers per round — no locks, no
 * atomics on the data path — which also makes the engine clean under
 * ThreadSanitizer.
 *
 * Determinism: every event executes at the same (tick, lane,
 * sendTick, senderLane, per-sender FIFO) position regardless of N,
 * because the receiving queue files mailbox deliveries under the
 * sender's key (EventQueue::insertForeign) and the per-tick scatter
 * re-sorts any cell that received one. `--threads 1` does not
 * instantiate this engine at all.
 */

#ifndef MISAR_SIM_PARALLEL_HH
#define MISAR_SIM_PARALLEL_HH

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace misar {

/** Sense-reversing spin barrier (TSan-clean, no syscalls when hot). */
class SpinBarrier
{
  public:
    explicit SpinBarrier(unsigned parties) : parties(parties) {}

    void
    arriveAndWait()
    {
        const unsigned s = sense.load(std::memory_order_relaxed);
        if (count.fetch_add(1, std::memory_order_acq_rel) + 1 == parties) {
            count.store(0, std::memory_order_relaxed);
            sense.store(s ^ 1, std::memory_order_release);
        } else {
            unsigned spins = 0;
            while (sense.load(std::memory_order_acquire) == s)
                if (++spins > 4096) {
                    std::this_thread::yield();
                    spins = 0;
                }
        }
    }

  private:
    const unsigned parties;
    std::atomic<unsigned> count{0};
    std::atomic<unsigned> sense{0};
};

/**
 * The parallel tick engine. Constructed by System::runDetailed for
 * `--threads N >= 2` runs; the constructing thread is the master and
 * doubles as partition 0's worker. Destroying the engine parks and
 * joins the worker threads.
 */
class ParallelEngine
{
  public:
    /**
     * @p global   lane-0 queue (master-only).
     * @p parts    one queue per partition, each owning the lanes
     *             [1 + tileBase, 1 + tileEnd) of its tile group.
     * @p laneToPart partition index per lane; lane 0 maps to
     *             parts.size() (the global inbox).
     *
     * Installs the cross-partition hook on every partition queue.
     */
    ParallelEngine(EventQueue &global, std::vector<EventQueue *> parts,
                   std::vector<unsigned> laneToPart);
    ~ParallelEngine();
    ParallelEngine(const ParallelEngine &) = delete;
    ParallelEngine &operator=(const ParallelEngine &) = delete;

    /** Execute every event with tick <= @p until; clocks end at
     *  max(now, until). Master thread only. */
    void runUntil(Tick until);

    /** Execute until every queue and mailbox is empty (quiesce). */
    void drainAll();

    /** Pending events over all queues plus undelivered mail. */
    std::size_t pending() const;

    /** Earliest pending tick anywhere, or maxTick. */
    Tick minNextTick() const;

    /** Park and join the workers, then file undelivered mail in its
     *  destination queue (idempotent; dtor calls it). */
    void shutdown();

    /** Rounds executed (one simulated tick each) — test visibility. */
    std::uint64_t rounds() const { return roundCount; }

    /** Cross-partition deliveries routed — test visibility. */
    std::uint64_t crossEvents() const;

  private:
    struct MailItem
    {
        Tick when;
        Tick sendTick;
        LaneId dstLane;
        LaneId senderLane;
        EventQueue::Callback fn;
    };

    /** One direction of one src->dst pair, double-buffered. */
    struct alignas(64) Mailbox
    {
        std::vector<MailItem> gen[2];
    };

    /** crossHook context: identifies the sending partition. Also
     *  carries that partition's private send counter (summed by the
     *  master for crossEvents(), so workers never share a cell). */
    struct alignas(64) Handle
    {
        ParallelEngine *engine;
        unsigned src;
        std::uint64_t sent = 0;
    };

    static void hook(void *ctx, LaneId dstLane, Tick when, Tick sendTick,
                     LaneId senderLane, EventQueue::Callback fn);

    Mailbox &
    box(unsigned src, unsigned dst)
    {
        return mailboxes[src * (numParts + 1) + dst];
    }

    const Mailbox &
    box(unsigned src, unsigned dst) const
    {
        return mailboxes[src * (numParts + 1) + dst];
    }

    /** Execute one simulated tick @p t across all partitions. */
    void round(Tick t);

    /** Advance by one tick if one is pending at <= @p until. */
    bool step(Tick until);

    /** Partition-local work of one round (drain inbox, run tick). */
    void workerBody(unsigned p);

    /** Spawned-thread loop for partitions 1..P-1. */
    void workerLoop(unsigned p);

    /** Deliver all mail queued for partition @p dst (numParts = the
     *  global inbox) into its queue @p q. Workers must be parked. */
    void deliverMail(unsigned dst, EventQueue &q);


    EventQueue &global;
    std::vector<EventQueue *> parts;
    std::vector<unsigned> laneToPart;
    const unsigned numParts;

    std::vector<Handle> handles;
    std::vector<Mailbox> mailboxes;

    SpinBarrier barRelease;
    SpinBarrier barDone;

    /** Round control, written by the master before barRelease. */
    Tick ctlTick = 0;
    unsigned ctlGen = 0;
    bool ctlStop = false;

    std::vector<std::thread> threads;
    bool joined = false;

    std::uint64_t roundCount = 0;
};

} // namespace misar

#endif // MISAR_SIM_PARALLEL_HH
