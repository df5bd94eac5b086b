/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A calendar queue of lane-ordered callbacks. Every event belongs to
 * a *lane*: lane 0 is the global lane (watchdog, samplers, fault
 * injectors, run-control lambdas) and lane 1+t is tile t (its core,
 * L1, router, NI, and MSA slice). Within one tick, lanes execute in
 * ascending order; within one (tick, lane) cell, events execute in
 * the order they were scheduled.
 *
 * Implementation: a three-level calendar queue tuned for the
 * host-side hot path. Events due within `nearTicks` (8) ticks of now
 * go straight into per-(tick, lane) FIFO chains: slot tick % 8 of
 * their lane, with a lane-occupancy bitmap per slot and an 8-bit mask
 * of occupied slots, so executing a tick walks its occupied lanes in
 * order and nothing is re-filed on the way. 96-99% of all events are
 * due 0-3 ticks ahead. Events due later, up to `window` (4096) ticks,
 * wait in a ring of per-tick FIFO buckets with an occupancy bitmap;
 * far-future events (watchdog sweeps, invariant checks, samplers) wait
 * in a min-heap. As the clock advances, promote() moves heap events
 * into the ring, then each ring bucket whose tick enters the near
 * window into its lane chains — before anything can append there, so
 * an earlier-scheduled event always lands ahead of a later one and
 * every chain stays in issue order without a sort. Event records
 * come from a free-list pool and store their callback inline in a
 * small buffer, so the steady-state event loop performs no heap
 * allocation at all (see poolStats()).
 *
 * Determinism contract: execution order is exactly ascending
 * (tick, lane, issue order). A single-lane queue (the default:
 * numLanes == 1) degenerates to plain (tick, issue order).
 */

#ifndef MISAR_SIM_EVENT_QUEUE_HH
#define MISAR_SIM_EVENT_QUEUE_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace misar {

/**
 * The simulation event queue and clock.
 *
 * All simulated components of one System share one EventQueue.
 * Components schedule callbacks at absolute or relative ticks;
 * run() drains the queue in (tick, lane, issue order).
 */
class EventQueue
{
  public:
    /** Why drain() returned. */
    enum class DrainResult
    {
        Drained,  ///< queue empty: the simulation quiesced cleanly
        LimitHit, ///< tick limit reached with events still pending
    };

    /** Host-side counters of the event machinery (run reports). */
    struct PoolStats
    {
        /** Total events ever executed. */
        std::uint64_t executed = 0;
        /** Event records carved out of pool chunks so far. */
        std::uint64_t recordCapacity = 0;
        /** Pool chunk heap allocations (stable once warmed up). */
        std::uint64_t chunkAllocs = 0;
        /** Callbacks too large for the inline buffer (heap boxed). */
        std::uint64_t heapCallbacks = 0;
        /** Total events ever scheduled. */
        std::uint64_t scheduled = 0;
        /** High-water mark of simultaneously pending events. */
        std::uint64_t maxPending = 0;
    };

    EventQueue();
    ~EventQueue();
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Declare the lane id space [0, n). Grows only; pending events
     * keep their place. Single-lane queues (never calling this)
     * behave exactly like the pre-lane kernel.
     */
    void setNumLanes(LaneId n);

    /** Number of configured lanes. */
    LaneId laneCount() const { return numLanes; }

    /** Lane of the event currently executing (0 outside a drain). */
    LaneId currentLane() const { return curLane; }

    /** Schedule @p f on the *current* lane @p delay ticks from now. */
    template <typename F>
    void
    schedule(Tick delay, F &&f)
    {
        scheduleAtL(curLane, _now + delay, std::forward<F>(f));
    }

    /** Schedule @p f on the current lane at absolute tick @p when. */
    template <typename F>
    void
    scheduleAt(Tick when, F &&f)
    {
        scheduleAtL(curLane, when, std::forward<F>(f));
    }

    /** Schedule @p f on lane @p lane, @p delay ticks from now. */
    template <typename F>
    void
    scheduleL(LaneId lane, Tick delay, F &&f)
    {
        scheduleAtL(lane, _now + delay, std::forward<F>(f));
    }

    /**
     * Schedule @p f on lane @p lane at absolute tick @p when.
     * @pre when >= now() — enforced with a panic.
     * @pre when > now() or lane >= currentLane() — an event cannot be
     *      scheduled into a same-tick lane that already ran.
     */
    template <typename F>
    void
    scheduleAtL(LaneId lane, Tick when, F &&f)
    {
        EventRecord *r = prepareRecord(lane, when);
        storeCallable(r, std::forward<F>(f));
        insert(r);
    }

    /** True when no events remain. */
    bool empty() const { return numPending == 0; }

    /** Number of pending events. */
    std::size_t pending() const { return numPending; }

    /**
     * Run until the queue drains or @p limit ticks elapse. Returns
     * why it stopped, so callers can tell clean termination from a
     * livelock/deadlock (events still pending at the limit).
     */
    DrainResult drain(Tick limit = maxTick);

    /** Compatibility wrapper: true iff the queue drained. */
    bool
    run(Tick limit = maxTick)
    {
        return drain(limit) == DrainResult::Drained;
    }

    /** Run until now() would exceed @p until (events at @p until run). */
    void runUntil(Tick until);

    /** Earliest pending tick, or maxTick when empty. */
    Tick
    nextEventTick() const
    {
        if (!numPending)
            return maxTick;
        if (nearSlots) {
            // Rotate slot (now % nearTicks) to bit 0: the lowest set
            // bit is then the earliest occupied near tick.
            const unsigned s = static_cast<unsigned>(_now) & nearMask;
            const unsigned rot =
                ((nearSlots >> s) | (nearSlots << (nearTicks - s))) &
                allNearSlots;
            return _now + static_cast<Tick>(std::countr_zero(rot));
        }
        return ringCount ? nextRingTick() : overflow.front()->when;
    }

    /** Total number of events executed so far. */
    std::uint64_t executedEvents() const { return pstats.executed; }

    /** Kernel counters (zero steady-state allocation evidence). */
    const PoolStats &poolStats() const { return pstats; }

  private:
    /** log2 of the near window (ticks filed straight into lanes). */
    static constexpr unsigned nearBits = 3;
    /** Near window: one lane-chain slot per tick in [now, now+8).
     *  Scheduling delays of 0-3 ticks cover 96-99% of all events and
     *  4-7 almost none, so a wider window would only add empty slots. */
    static constexpr unsigned nearTicks = 1u << nearBits;
    static constexpr unsigned nearMask = nearTicks - 1;
    static constexpr unsigned allNearSlots = (1u << nearTicks) - 1;
    static_assert(nearTicks < 32, "nearSlots is one unsigned word");
    /** log2 of the ring size in ticks. */
    static constexpr unsigned bucketBits = 12;
    /** Ring horizon: one bucket per tick in [now+nearTicks,
     *  now+window); later events wait in the overflow heap. */
    static constexpr Tick window = Tick{1} << bucketBits;
    static constexpr std::size_t numBuckets = std::size_t{1} << bucketBits;
    static constexpr std::size_t bucketMask = numBuckets - 1;
    static constexpr std::size_t numWords = numBuckets / 64;
    /** Inline callback buffer: sized for the fattest hot-path lambda
     *  (L1 atomic: this + addr + op + 2 operands + block + bound
     *  std::function callback) with headroom. */
    static constexpr std::size_t inlineBytes = 96;
    /** Event records per pool chunk. */
    static constexpr std::size_t chunkSize = 512;

    struct EventRecord
    {
        Tick when;
        std::uint64_t seq;
        LaneId lane;
        EventRecord *next;
        /** Run (and destroy) or just destroy the stored callable. */
        void (*op)(EventRecord *, bool run);
        alignas(std::max_align_t) unsigned char storage[inlineBytes];
    };

    /** FIFO chain of records: one (near tick, lane) cell or one
     *  ring bucket. */
    struct Chain
    {
        EventRecord *head = nullptr;
        EventRecord *tail = nullptr;
    };

    template <typename Fn>
    static void
    opInline(EventRecord *r, bool run)
    {
        Fn *f = std::launder(reinterpret_cast<Fn *>(r->storage));
        if (run)
            (*f)();
        f->~Fn();
    }

    template <typename Fn>
    static void
    opBoxed(EventRecord *r, bool run)
    {
        Fn **p = std::launder(reinterpret_cast<Fn **>(r->storage));
        if (run)
            (**p)();
        delete *p;
    }

    /** Min-heap order for the far-future overflow heap. */
    static bool
    later(const EventRecord *a, const EventRecord *b)
    {
        if (a->when != b->when)
            return a->when > b->when;
        return a->seq > b->seq;
    }

    /** Allocate and key a record. */
    EventRecord *
    prepareRecord(LaneId lane, Tick when)
    {
        if (when < _now)
            panic("event scheduled in the past (%llu < %llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(_now));
        if (lane >= numLanes)
            panic("event on lane %u but only %u lanes configured",
                  lane, numLanes);
        EventRecord *r = allocRecord();
        r->when = when;
        r->seq = nextSeq++;
        r->lane = lane;
        return r;
    }

    template <typename F>
    void
    storeCallable(EventRecord *r, F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= inlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(r->storage))
                Fn(std::forward<F>(f));
            r->op = &opInline<Fn>;
        } else {
            ::new (static_cast<void *>(r->storage))
                (Fn *)(new Fn(std::forward<F>(f)));
            r->op = &opBoxed<Fn>;
            ++pstats.heapCallbacks;
        }
    }

    EventRecord *
    allocRecord()
    {
        if (!freeHead)
            growPool();
        EventRecord *r = freeHead;
        freeHead = r->next;
        return r;
    }

    void growPool();

    void
    freeRecord(EventRecord *r)
    {
        r->next = freeHead;
        freeHead = r;
    }

    /** File @p r into its lane chain, ring bucket, or overflow heap. */
    void
    insert(EventRecord *r)
    {
        const Tick ahead = r->when - _now;
        if (ahead < nearTicks) {
            // A same-tick event may feed the executing lane (FIFO
            // append, picked up by the drain loop) or any later lane;
            // a lane that already ran is gone for this tick. Outside
            // a drain curLane is 0, so any lane is fine.
            if (ahead == 0 && r->lane < curLane)
                panic("same-tick event into lane %u from lane %u "
                      "(already ran)", r->lane, curLane);
            appendNear(r);
        } else if (ahead < window) {
            appendBucket(r);
        } else {
            pushOverflow(r);
        }
        ++numPending;
        ++pstats.scheduled;
        if (numPending > pstats.maxPending)
            pstats.maxPending = numPending;
    }

    /** Chain of lane @p lane for near tick @p when. */
    Chain &
    nearLane(LaneId lane, Tick when)
    {
        return nearLanes[(static_cast<std::size_t>(lane) << nearBits) |
                         (static_cast<std::size_t>(when) & nearMask)];
    }

    /** Index in nearOcc of near slot @p slot's occupancy word for
     *  lanes [64w, 64w+64). */
    static std::size_t
    nearOccIndex(std::size_t w, unsigned slot)
    {
        return (w << nearBits) | slot;
    }

    /** Append @p r to its (tick, lane) chain; r->when must be in
     *  [now, now+nearTicks). */
    void
    appendNear(EventRecord *r)
    {
        Chain &l = nearLane(r->lane, r->when);
        r->next = nullptr;
        if (l.tail) {
            l.tail->next = r;
        } else {
            l.head = r;
            const unsigned slot = static_cast<unsigned>(r->when) & nearMask;
            nearOcc[nearOccIndex(r->lane >> 6, slot)] |=
                std::uint64_t{1} << (r->lane & 63);
            nearSlots |= 1u << slot;
        }
        l.tail = r;
    }

    /** Append to the FIFO bucket for r->when (must be in the ring). */
    void appendBucket(EventRecord *r);

    /** Push @p r onto the far-future overflow heap. */
    void pushOverflow(EventRecord *r);

    /** Execute every event at tick @p t. @pre t == now(). */
    void runTick(Tick t);

    /** Move overflow events now inside the ring horizon into the
     *  ring, then ring buckets of ticks now inside the near window
     *  into their lane chains. Called whenever the clock advances. */
    void promote();

    /** Earliest ring tick; ring must be non-empty. */
    Tick nextRingTick() const;

    /** Lowest occupied lane >= @p from in near slot @p slot, or
     *  numLanes when none. */
    LaneId
    nextOccupiedLane(unsigned slot, LaneId from) const
    {
        std::size_t w = from >> 6;
        const std::size_t words = nearOcc.size() >> nearBits;
        if (w >= words)
            return numLanes;
        std::uint64_t word = nearOcc[nearOccIndex(w, slot)] &
                             (~std::uint64_t{0} << (from & 63));
        while (true) {
            if (word)
                return static_cast<LaneId>(
                    (w << 6) | static_cast<std::size_t>(
                                   std::countr_zero(word)));
            if (++w >= words)
                return numLanes;
            word = nearOcc[nearOccIndex(w, slot)];
        }
    }

    /** Near-window chains, lane-major (see nearLane()), so growing
     *  the lane count keeps every pending chain in place. */
    LaneId numLanes = 1;
    std::vector<Chain> nearLanes = std::vector<Chain>(nearTicks);
    /** Lane occupancy per near slot (see nearOccIndex()). */
    std::vector<std::uint64_t> nearOcc =
        std::vector<std::uint64_t>(nearTicks, 0);
    /** One bit per near slot holding any event. */
    unsigned nearSlots = 0;
    /** First tick whose ring bucket is not yet promoted into the near
     *  window (now + nearTicks after each promote()). */
    Tick nearEnd = nearTicks;

    std::vector<Chain> buckets{numBuckets};
    /** One occupancy bit per bucket. */
    std::vector<std::uint64_t> occ = std::vector<std::uint64_t>(numWords, 0);
    /** Far-future events as a (when, seq) min-heap. */
    std::vector<EventRecord *> overflow;
    std::size_t ringCount = 0;
    std::size_t numPending = 0;

    /** Free-list over pool chunk records. */
    EventRecord *freeHead = nullptr;
    std::vector<std::unique_ptr<EventRecord[]>> chunks;
    PoolStats pstats;

    Tick _now = 0;
    std::uint64_t nextSeq = 0;
    LaneId curLane = 0;
};

} // namespace misar

#endif // MISAR_SIM_EVENT_QUEUE_HH
