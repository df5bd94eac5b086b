/**
 * @file
 * Timing core model: drives one simulated thread (a coroutine) and
 * executes its compute, memory, and synchronization operations.
 */

#ifndef MISAR_CPU_CORE_HH
#define MISAR_CPU_CORE_HH

#include <coroutine>
#include <functional>
#include <memory>
#include <utility>

#include "cpu/op.hh"
#include "mem/l1_cache.hh"
#include "obs/tracer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace misar {
namespace cpu {

class Core;

/**
 * Interface the core uses to execute synchronization instructions.
 * Implemented by the MSA client (hardware), the always-FAIL unit
 * (MSA-0), and the zero-latency oracle (Ideal).
 */
class SyncUnit
{
  public:
    using Cb = std::function<void(SyncResult)>;

    virtual ~SyncUnit();

    /** Execute sync instruction @p op for @p core; reply via @p cb. */
    virtual void execute(CoreId core, const Op &op, Cb cb) = 0;

    /**
     * OS interrupt delivered to @p core while it is blocked in a
     * sync instruction (thread suspension, paper §4.x.2).
     */
    virtual void interrupt(CoreId core);
};

/** Leaf awaitable: one operation executed by the core. */
struct OpAwaiter
{
    Core &core;
    Op op;
    std::uint64_t result = 0;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h);
    std::uint64_t await_resume() const noexcept { return result; }
};

/** Root coroutine type for a simulated thread body. */
class ThreadTask
{
  public:
    struct promise_type
    {
        Core *core = nullptr;

        ThreadTask
        get_return_object()
        {
            return ThreadTask{
                std::coroutine_handle<promise_type>::from_promise(*this)};
        }

        std::suspend_always initial_suspend() noexcept { return {}; }

        struct FinalAwaiter
        {
            bool await_ready() noexcept { return false; }
            void await_suspend(
                std::coroutine_handle<promise_type> h) noexcept;
            void await_resume() noexcept {}
        };

        FinalAwaiter final_suspend() noexcept { return {}; }
        void return_void() {}
        void unhandled_exception();
    };

    ThreadTask() = default;
    ThreadTask(ThreadTask &&other) noexcept
        : handle(std::exchange(other.handle, nullptr))
    {}
    ThreadTask &operator=(ThreadTask &&other) noexcept;
    ThreadTask(const ThreadTask &) = delete;
    ThreadTask &operator=(const ThreadTask &) = delete;
    ~ThreadTask();

  private:
    friend class Core;
    explicit ThreadTask(std::coroutine_handle<promise_type> h) : handle(h) {}
    std::coroutine_handle<promise_type> handle;
};

/**
 * One core of the tiled CMP. Runs a single thread (as in the paper;
 * the HWQueue is one bit per core).
 */
class Core
{
  public:
    Core(EventQueue &eq, const CoreConfig &cfg, CoreId id, mem::L1Cache &l1,
         StatRegistry &stats);

    /** Attach the synchronization unit (not owned). */
    void setSyncUnit(SyncUnit *unit) { syncUnit = unit; }

    /**
     * Pin this core's events to its tile's lane. start() and
     * interrupt-driven resumes are invoked from the global lane, so
     * the pin (not lane inheritance) is what keeps core events on the
     * tile lane.
     */
    void setLane(LaneId l) { _lane = l; }
    LaneId lane() const { return _lane; }

    /**
     * Attach a shared forward-progress counter (not owned; may be
     * null). The core bumps it whenever a sync instruction retires or
     * the thread finishes; the liveness watchdog samples it to detect
     * system-wide stalls.
     */
    void setProgressCell(std::uint64_t *cell) { progressCell = cell; }

    /**
     * Attach the observability tracer: every operation the thread
     * executes (compute, memory access, sync instruction) becomes a
     * slice on @p track, this hardware thread's trace row.
     */
    void
    attachTracer(obs::Tracer *t, obs::TrackId track)
    {
        tracer = t;
        _track = track;
    }

    /** Begin executing @p body at the current tick. */
    void start(ThreadTask body);

    /**
     * Halt the core dead, mid-whatever it was doing (fault
     * injection). The thread body is never resumed again: callbacks
     * for its in-flight operation fire into a corpse and are
     * discarded. The dead thread counts as finished so a recovered
     * run can still quiesce, and its own finish/progress signals stop
     * (a corpse must not feed the watchdog).
     */
    void kill();

    /** True when the core was halted by fault injection. */
    bool killed() const { return _killed; }

    /** True once the thread body has returned (or none started). */
    bool finished() const { return !_started || _finished || _killed; }

    /** Tick at which the thread body returned. */
    Tick finishTick() const { return _finishTick; }

    /**
     * Deliver an OS interrupt: if the core is blocked in a sync
     * instruction, the sync unit is told to SUSPEND it (paper
     * §4.1.2/4.2.2/4.3.2).
     */
    void interrupt();

    CoreId id() const { return _id; }
    EventQueue &eventQueue() { return eq; }
    mem::L1Cache &l1() { return _l1; }
    StatRegistry &statRegistry() { return stats; }

  private:
    friend struct OpAwaiter;
    friend struct ThreadTask::promise_type;

    /** Execute @p op, then set @p aw->result and resume @p h. */
    void issue(const Op &op, OpAwaiter *aw, std::coroutine_handle<> h);

    void threadFinished();

    /** Trace the operation issued at @p t0 that completes now. */
    void
    traceOp(Tick t0, const char *name, Addr addr = 0)
    {
        if (tracer)
            tracer->complete(_track, t0, eq.now(), name, addr);
    }

    EventQueue &eq;
    const CoreConfig &cfg;
    CoreId _id;
    LaneId _lane = 0;
    mem::L1Cache &_l1;
    StatRegistry &stats;
    std::string statPrefix;
    /** @name Per-op stats. @{ */
    StatHandle computeCycles;
    StatHandle loads;
    StatHandle stores;
    StatHandle atomics;
    StatHandle syncInstrs;
    /** @} */
    SyncUnit *syncUnit = nullptr;

    obs::Tracer *tracer = nullptr;
    obs::TrackId _track = 0;
    ThreadTask body;
    bool _started = false;
    bool _finished = false;
    bool _killed = false;
    Tick _finishTick = 0;
    bool syncOutstanding = false;
    std::uint64_t *progressCell = nullptr;
};

} // namespace cpu
} // namespace misar

#endif // MISAR_CPU_CORE_HH
