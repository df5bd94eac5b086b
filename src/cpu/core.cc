#include "cpu/core.hh"

#include "sim/logging.hh"

namespace misar {
namespace cpu {

SyncUnit::~SyncUnit() = default;

void
SyncUnit::interrupt(CoreId)
{
    // Default: the unit has nothing blocked to suspend.
}

void
OpAwaiter::await_suspend(std::coroutine_handle<> h)
{
    core.issue(op, this, h);
}

void
ThreadTask::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept
{
    if (h.promise().core)
        h.promise().core->threadFinished();
}

void
ThreadTask::promise_type::unhandled_exception()
{
    panic("exception escaped a thread body");
}

ThreadTask &
ThreadTask::operator=(ThreadTask &&other) noexcept
{
    if (this != &other) {
        if (handle)
            handle.destroy();
        handle = std::exchange(other.handle, nullptr);
    }
    return *this;
}

ThreadTask::~ThreadTask()
{
    if (handle)
        handle.destroy();
}

Core::Core(EventQueue &eq, const CoreConfig &cfg, CoreId id,
           mem::L1Cache &l1, StatRegistry &stats)
    : eq(eq), cfg(cfg), _id(id), _l1(l1), stats(stats),
      statPrefix("core" + std::to_string(id) + "."),
      computeCycles(stats, statPrefix, "computeCycles"),
      loads(stats, statPrefix, "loads"), stores(stats, statPrefix, "stores"),
      atomics(stats, statPrefix, "atomics"),
      syncInstrs(stats, statPrefix, "syncInstrs")
{}

void
Core::start(ThreadTask b)
{
    if (!b.handle)
        panic("core %u: started with an empty thread body", _id);
    body = std::move(b);
    body.handle.promise().core = this;
    _started = true;
    _finished = false;
    eq.scheduleL(_lane, 0, [this] {
        if (!_killed)
            body.handle.resume();
    });
}

void
Core::threadFinished()
{
    _finished = true;
    _finishTick = eq.now();
    if (progressCell)
        ++*progressCell;
    stats.counter(statPrefix + "threadsFinished").inc();
}

void
Core::kill()
{
    if (_killed || finished())
        return;
    _killed = true;
    _finishTick = eq.now();
    stats.counter(statPrefix + "killed").inc();
}

void
Core::interrupt()
{
    if (syncOutstanding && syncUnit)
        syncUnit->interrupt(_id);
}

void
Core::issue(const Op &op, OpAwaiter *aw, std::coroutine_handle<> h)
{
    const Tick t0 = eq.now();
    switch (op.type) {
      case OpType::Compute:
        computeCycles.inc(op.cycles);
        eq.scheduleL(_lane, op.cycles, [this, t0, h] {
            if (_killed)
                return; // the corpse never resumes
            traceOp(t0, "compute");
            h.resume();
        });
        break;

      case OpType::Read:
        loads.inc();
        _l1.read(op.addr, [this, t0, a = op.addr, aw,
                           h](std::uint64_t v) {
            if (_killed)
                return;
            traceOp(t0, "read", a);
            aw->result = v;
            h.resume();
        });
        break;

      case OpType::Write:
        stores.inc();
        _l1.write(op.addr, op.value, [this, t0, a = op.addr, aw,
                                      h](std::uint64_t old) {
            if (_killed)
                return;
            traceOp(t0, "write", a);
            aw->result = old;
            h.resume();
        });
        break;

      case OpType::Atomic:
        atomics.inc();
        _l1.atomic(op.addr, op.aop, op.value, op.value2,
                   [this, t0, a = op.addr, aw, h](std::uint64_t old) {
            if (_killed)
                return;
            traceOp(t0, "atomic", a);
            aw->result = old;
            h.resume();
        });
        break;

      case OpType::Sync: {
        if (!syncUnit)
            panic("core %u: sync instruction with no sync unit", _id);
        syncInstrs.inc();
        // The instruction acts as a memory fence and its actual
        // synchronization activity begins only when the instruction
        // is the next to commit (paper §3): charge the pipeline-drain
        // cost up front.
        syncOutstanding = true;
        // The awaiter owns the Op and outlives the resumption, so the
        // callbacks reach the core and the op through @p aw instead of
        // capturing them — keeping both lambdas inside the event
        // queue's inline callback buffer.
        eq.scheduleL(_lane, cfg.syncFenceLatency, [t0, aw, h] {
            Core &c = aw->core;
            if (c._killed)
                return; // died in the fence: the op is never issued
            c.syncUnit->execute(c._id, aw->op,
                                [t0, aw, h](SyncResult r) {
                Core &core = aw->core;
                if (core._killed)
                    return; // a reply addressed to a corpse
                core.syncOutstanding = false;
                if (core.progressCell)
                    ++*core.progressCell;
                core.traceOp(t0, syncInstrName(aw->op.instr),
                             aw->op.addr);
                aw->result = static_cast<std::uint64_t>(r);
                h.resume();
            });
        });
        break;
      }
    }
}

} // namespace cpu
} // namespace misar
