#include "msa/ideal_sync.hh"

#include "sim/logging.hh"

namespace misar {
namespace msa {

void
IdealSyncUnit::lockAcquire(Addr a, Waiter w)
{
    LockState &l = locks[a];
    if (!l.held) {
        l.held = true;
        l.owner = w.core;
        w.cb(cpu::SyncResult::Success);
    } else {
        l.queue.push_back(std::move(w));
    }
}

void
IdealSyncUnit::lockRelease(Addr a, CoreId core)
{
    LockState &l = locks[a];
    if (!l.held || l.owner != core)
        panic("ideal: core %u releasing a lock it does not hold", core);
    if (l.queue.empty()) {
        l.held = false;
        l.owner = invalidCore;
        return;
    }
    Waiter next = std::move(l.queue.front());
    l.queue.pop_front();
    l.owner = next.core;
    next.cb(cpu::SyncResult::Success);
}

void
IdealSyncUnit::execute(CoreId core, const cpu::Op &op, Cb cb)
{
    hwOps.inc();
    switch (op.instr) {
      case cpu::SyncInstr::Lock:
        lockAcquire(op.addr, Waiter{core, std::move(cb)});
        break;

      case cpu::SyncInstr::TryLock: {
        LockState &l = locks[op.addr];
        if (!l.held) {
            l.held = true;
            l.owner = core;
            cb(cpu::SyncResult::Success);
        } else {
            cb(cpu::SyncResult::Busy);
        }
        break;
      }

      case cpu::SyncInstr::Unlock:
        lockRelease(op.addr, core);
        cb(cpu::SyncResult::Success);
        break;

      case cpu::SyncInstr::RdLock:
      case cpu::SyncInstr::WrLock: {
        RwState &rw = rwlocks[op.addr];
        const bool writer = op.instr == cpu::SyncInstr::WrLock;
        bool writer_waiting = false;
        for (auto &[w, isw] : rw.queue)
            writer_waiting |= isw;
        if (writer ? (rw.writer == invalidCore && rw.readers == 0 &&
                      rw.queue.empty())
                   : (rw.writer == invalidCore && !writer_waiting)) {
            if (writer)
                rw.writer = core;
            else
                ++rw.readers;
            cb(cpu::SyncResult::Success);
        } else {
            rw.queue.emplace_back(Waiter{core, std::move(cb)}, writer);
        }
        break;
      }

      case cpu::SyncInstr::RwUnlock: {
        RwState &rw = rwlocks[op.addr];
        if (rw.writer == core)
            rw.writer = invalidCore;
        else if (rw.readers > 0)
            --rw.readers;
        else
            panic("ideal: RW_UNLOCK by non-holder");
        while (!rw.queue.empty() && rw.writer == invalidCore) {
            auto &[w, isw] = rw.queue.front();
            if (isw) {
                if (rw.readers > 0)
                    break;
                rw.writer = w.core;
                Waiter next = std::move(w);
                rw.queue.pop_front();
                next.cb(cpu::SyncResult::Success);
                break;
            }
            ++rw.readers;
            Waiter next = std::move(w);
            rw.queue.pop_front();
            next.cb(cpu::SyncResult::Success);
        }
        cb(cpu::SyncResult::Success);
        break;
      }

      case cpu::SyncInstr::Barrier: {
        BarrierState &b = barriers[op.addr];
        b.arrived.push_back(Waiter{core, std::move(cb)});
        if (b.arrived.size() >= op.goal) {
            std::vector<Waiter> rel = std::move(b.arrived);
            barriers.erase(op.addr);
            for (auto &w : rel)
                w.cb(cpu::SyncResult::Success);
        }
        break;
      }

      case cpu::SyncInstr::CondWait: {
        CondState &c = conds[op.addr];
        c.lockAddr = op.addr2;
        lockRelease(op.addr2, core);
        c.waiters.push_back(Waiter{core, std::move(cb)});
        break;
      }

      case cpu::SyncInstr::CondSignal:
      case cpu::SyncInstr::CondBcast: {
        auto it = conds.find(op.addr);
        if (it != conds.end() && !it->second.waiters.empty()) {
            const bool bcast = (op.instr == cpu::SyncInstr::CondBcast);
            CondState &c = it->second;
            std::size_t n = bcast ? c.waiters.size() : 1;
            for (std::size_t i = 0; i < n; ++i) {
                Waiter w = std::move(c.waiters.front());
                c.waiters.pop_front();
                // The waiter re-acquires the associated lock before
                // its COND_WAIT completes.
                lockAcquire(c.lockAddr, std::move(w));
            }
            if (c.waiters.empty())
                conds.erase(it);
        }
        cb(cpu::SyncResult::Success);
        break;
      }

      case cpu::SyncInstr::Finish:
        cb(cpu::SyncResult::Success);
        break;
    }
}

} // namespace msa
} // namespace misar
