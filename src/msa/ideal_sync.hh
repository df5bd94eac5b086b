/**
 * @file
 * Ideal (zero-latency) synchronization oracle — the paper's upper
 * bound. All semantics are maintained instantly in a global table;
 * only the *necessary* waiting time remains.
 */

#ifndef MISAR_MSA_IDEAL_SYNC_HH
#define MISAR_MSA_IDEAL_SYNC_HH

#include <deque>
#include <map>
#include <vector>

#include "cpu/core.hh"
#include "sim/stats.hh"

namespace misar {
namespace msa {

/** Zero-latency global SyncUnit. */
class IdealSyncUnit : public cpu::SyncUnit
{
  public:
    explicit IdealSyncUnit(StatRegistry &stats)
        : hwOps(stats, "sync.hwOps")
    {}

    void execute(CoreId core, const cpu::Op &op, Cb cb) override;

  private:
    struct Waiter
    {
        CoreId core;
        Cb cb;
    };

    struct LockState
    {
        bool held = false;
        CoreId owner = invalidCore;
        std::deque<Waiter> queue;
    };

    struct BarrierState
    {
        std::vector<Waiter> arrived;
    };

    struct CondState
    {
        std::deque<Waiter> waiters;
        Addr lockAddr = invalidAddr;
    };

    struct RwState
    {
        CoreId writer = invalidCore;
        unsigned readers = 0;
        std::deque<std::pair<Waiter, bool>> queue; // (waiter, isWriter)
    };

    void lockAcquire(Addr a, Waiter w);
    void lockRelease(Addr a, CoreId core);

    std::map<Addr, LockState> locks;
    std::map<Addr, BarrierState> barriers;
    std::map<Addr, CondState> conds;
    std::map<Addr, RwState> rwlocks;
    StatHandle hwOps;
};

} // namespace msa
} // namespace misar

#endif // MISAR_MSA_IDEAL_SYNC_HH
