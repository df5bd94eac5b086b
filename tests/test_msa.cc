/**
 * @file
 * Tests for the MSA/OMU accelerator: lock grant/handoff/fairness,
 * entry allocation and eviction, OMU steering and balance, barrier
 * and condition-variable protocols, pinning, the entry-less HWSync
 * silent re-acquire path, suspension, and the MSA-0 and Ideal
 * configurations.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/subtask.hh"
#include "cpu/thread_api.hh"
#include "system/system.hh"

namespace misar {
namespace msa {
namespace {

using cpu::SyncResult;
using cpu::ThreadApi;
using cpu::ThreadTask;
using cpu::toSyncResult;

SystemConfig
msaCfg(unsigned cores, unsigned entries, bool hwsync = true)
{
    SystemConfig cfg = makeConfig(cores, AccelMode::MsaOmu, entries);
    cfg.msa.hwSyncBitOpt = hwsync;
    return cfg;
}

/** Body: lock, record order, compute, unlock; all in hardware. */
ThreadTask
lockWorker(ThreadApi t, Addr lock, std::vector<CoreId> *order,
           std::vector<SyncResult> *results)
{
    SyncResult r = toSyncResult(co_await t.lockInstr(lock));
    if (results)
        results->push_back(r);
    if (r == SyncResult::Success) {
        order->push_back(t.id());
        co_await t.compute(50);
        co_await t.unlockInstr(lock);
    } else {
        order->push_back(t.id() + 1000); // mark software fallback
    }
}

TEST(MsaLock, SingleAcquireRelease)
{
    sys::System s(msaCfg(16, 2));
    std::vector<CoreId> order;
    std::vector<SyncResult> res;
    s.start(0, lockWorker(s.api(0), 0x1000, &order, &res));
    ASSERT_TRUE(s.run(1000000));
    ASSERT_EQ(res.size(), 1u);
    EXPECT_EQ(res[0], SyncResult::Success);
    EXPECT_EQ(order, (std::vector<CoreId>{0}));
}

TEST(MsaLock, MutualExclusionAndHandoff)
{
    sys::System s(msaCfg(16, 2));
    std::vector<CoreId> order;
    for (CoreId c = 0; c < 8; ++c)
        s.start(c, lockWorker(s.api(c), 0x1000, &order, nullptr));
    ASSERT_TRUE(s.run(10000000));
    EXPECT_EQ(order.size(), 8u);
    for (CoreId c : order)
        EXPECT_LT(c, 1000u) << "a lock request fell back to software";
}

TEST(MsaLock, EntryEvictedAfterRelease)
{
    // Without the HWSync optimization the entry frees when the
    // queue empties.
    sys::System s(msaCfg(16, 2, false));
    std::vector<CoreId> order;
    s.start(0, lockWorker(s.api(0), 0x1000, &order, nullptr));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(s.msaSlice(mem::homeTile(0x1000, 16)).validEntries(), 0u);
}

TEST(MsaLock, EntryEvictedButPrivilegeRetained)
{
    // With the HWSync optimization the entry is still evicted when
    // the queue empties; the silent privilege lives in the L1.
    sys::System s(msaCfg(16, 2, true));
    std::vector<CoreId> order;
    s.start(0, lockWorker(s.api(0), 0x1000, &order, nullptr));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(s.msaSlice(mem::homeTile(0x1000, 16)).validEntries(), 0u);
    EXPECT_TRUE(s.mem().l1(0).hasWritableHwSync(0x1000));
}

ThreadTask
nLocksWorker(ThreadApi t, std::vector<Addr> locks,
             std::vector<SyncResult> *results)
{
    for (Addr a : locks) {
        SyncResult r = toSyncResult(co_await t.lockInstr(a));
        results->push_back(r);
        if (r == SyncResult::Success)
            co_await t.unlockInstr(a);
        else
            co_await t.unlockInstr(a); // software pair: UNLOCK also FAILs
    }
}

TEST(MsaLock, OverflowFailsGracefully)
{
    // 1 entry per tile, 3 distinct locks homed on the same tile and
    // held concurrently: at most one can be in hardware.
    sys::System s(msaCfg(16, 1, false));
    const Addr l0 = 0x0, l1 = 16 * 64, l2 = 2 * 16 * 64; // same home (0)
    std::vector<SyncResult> r0, r1, r2;

    // Three different cores each take a different lock and hold it.
    auto holder = [](ThreadApi t, Addr a,
                     std::vector<SyncResult> *res) -> ThreadTask {
        SyncResult r = toSyncResult(co_await t.lockInstr(a));
        res->push_back(r);
        co_await t.compute(2000);
        co_await t.unlockInstr(a);
    };
    s.start(1, holder(s.api(1), l0, &r0));
    s.start(2, holder(s.api(2), l1, &r1));
    s.start(3, holder(s.api(3), l2, &r2));
    ASSERT_TRUE(s.run(1000000));
    unsigned hw = (r0[0] == SyncResult::Success) +
                  (r1[0] == SyncResult::Success) +
                  (r2[0] == SyncResult::Success);
    EXPECT_EQ(hw, 1u);
}

TEST(MsaOmu, FailIncrementsAndUnlockFailDecrements)
{
    sys::System s(msaCfg(16, 1, false));
    // Force overflow: core 1 holds lock A (hardware, home tile 0);
    // core 2 then locks B (same home) -> FAIL -> OMU count 1.
    const Addr a = 0x0, b = 16 * 64;
    std::vector<SyncResult> ra, rb;
    auto seq = [](ThreadApi t, Addr l, std::vector<SyncResult> *res,
                  Tick hold) -> ThreadTask {
        res->push_back(toSyncResult(co_await t.lockInstr(l)));
        co_await t.compute(hold);
        res->push_back(toSyncResult(co_await t.unlockInstr(l)));
    };
    s.start(1, seq(s.api(1), a, &ra, 3000));
    s.start(2, seq(s.api(2), b, &rb, 1000));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(ra[0], SyncResult::Success);
    EXPECT_EQ(rb[0], SyncResult::Fail);
    EXPECT_EQ(rb[1], SyncResult::Fail); // release defaults to software
    // Balanced in the end:
    EXPECT_EQ(s.msaSlice(0).omu().count(b), 0u);
}

TEST(MsaOmu, SoftwareActivityBlocksAllocation)
{
    // While a lock is software-active (counter > 0), a new request
    // for it must not get an MSA entry even if one is free.
    sys::System s(msaCfg(16, 1, false));
    const Addr a = 0x0, b = 16 * 64;
    std::vector<SyncResult> ra, rb, rc;
    auto hold_long = [](ThreadApi t, Addr l,
                        std::vector<SyncResult> *res) -> ThreadTask {
        res->push_back(toSyncResult(co_await t.lockInstr(l)));
        co_await t.compute(5000);
        res->push_back(toSyncResult(co_await t.unlockInstr(l)));
    };
    // Core 1: takes the only entry (lock a), holds 5000 cycles.
    s.start(1, hold_long(s.api(1), a, &ra));
    // Core 2: lock b -> FAIL (entry taken); holds "in software" by
    // simply not unlocking for a long time.
    auto sw_holder = [](ThreadApi t, Addr l,
                        std::vector<SyncResult> *res) -> ThreadTask {
        co_await t.compute(200); // let core 1 win the entry
        res->push_back(toSyncResult(co_await t.lockInstr(l)));
        co_await t.compute(20000);
        res->push_back(toSyncResult(co_await t.unlockInstr(l)));
    };
    s.start(2, sw_holder(s.api(2), b, &rb));
    // Core 3: after core 1 released (entry free), tries lock b. The
    // OMU must steer it to software even though an entry is free.
    auto late = [](ThreadApi t, Addr l,
                   std::vector<SyncResult> *res) -> ThreadTask {
        co_await t.compute(10000);
        res->push_back(toSyncResult(co_await t.lockInstr(l)));
        res->push_back(toSyncResult(co_await t.unlockInstr(l)));
    };
    s.start(3, late(s.api(3), b, &rc));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(rb[0], SyncResult::Fail);
    EXPECT_EQ(rc[0], SyncResult::Fail) << "OMU failed to steer to software";
}

TEST(MsaLock, NbtcFairnessRoundRobin)
{
    // All cores contend; with NBTC the grant order must cycle
    // round-robin rather than favour low-numbered cores.
    sys::System s(msaCfg(16, 2));
    std::vector<CoreId> order;
    for (CoreId c = 0; c < 16; ++c)
        s.start(c, lockWorker(s.api(c), 0x2000, &order, nullptr));
    ASSERT_TRUE(s.run(10000000));
    ASSERT_EQ(order.size(), 16u);
    // Each core appears exactly once.
    std::vector<bool> seen(16, false);
    for (CoreId c : order) {
        ASSERT_LT(c, 16u);
        EXPECT_FALSE(seen[c]);
        seen[c] = true;
    }
}

ThreadTask
barrierWorker(ThreadApi t, Addr bar, std::uint32_t goal, Tick skew,
              std::vector<SyncResult> *results, std::vector<Tick> *exits)
{
    co_await t.compute(skew);
    SyncResult r = toSyncResult(co_await t.barrierInstr(bar, goal));
    results->push_back(r);
    if (exits)
        exits->push_back(t.now());
}

TEST(MsaBarrier, ReleasesAllAtGoal)
{
    sys::System s(msaCfg(16, 2));
    std::vector<SyncResult> res;
    std::vector<Tick> exits;
    for (CoreId c = 0; c < 16; ++c)
        s.start(c, barrierWorker(s.api(c), 0x3000, 16, c * 37, &res,
                                 &exits));
    ASSERT_TRUE(s.run(10000000));
    ASSERT_EQ(res.size(), 16u);
    for (auto r : res)
        EXPECT_EQ(r, SyncResult::Success);
    // All exits happen after the last arrival (c=15, skew 555).
    for (Tick e : exits)
        EXPECT_GE(e, 15u * 37u);
    // Entry is gone after release.
    EXPECT_EQ(s.msaSlice(mem::homeTile(0x3000, 16)).validEntries(), 0u);
}

TEST(MsaBarrier, SubsetGoal)
{
    sys::System s(msaCfg(16, 2));
    std::vector<SyncResult> res;
    for (CoreId c = 0; c < 4; ++c)
        s.start(c, barrierWorker(s.api(c), 0x3000, 4, c, &res, nullptr));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(res.size(), 4u);
}

TEST(MsaBarrier, OverflowFailsAndFinishBalances)
{
    // Fill both entries of the barrier's home tile with held locks,
    // then run a barrier homed there: it must FAIL for every core.
    sys::System s(msaCfg(16, 1, false));
    const Addr lockA = 0x0;           // home 0
    const Addr bar = 16 * 64;         // home 0
    auto holder = [](ThreadApi t, Addr l) -> ThreadTask {
        co_await t.lockInstr(l);
        co_await t.compute(30000);
        co_await t.unlockInstr(l);
    };
    s.start(15, holder(s.api(15), lockA));

    std::vector<SyncResult> res;
    // Software-barrier emulation: on FAIL, each participant counts
    // arrival with an atomic and spins; then FINISHes.
    auto sw_barrier = [](ThreadApi t, Addr bar, Addr cnt,
                         std::uint32_t goal,
                         std::vector<SyncResult> *res) -> ThreadTask {
        co_await t.compute(100);
        SyncResult r = toSyncResult(co_await t.barrierInstr(bar, goal));
        res->push_back(r);
        if (r != SyncResult::Success) {
            co_await t.fetchAdd(cnt, 1);
            for (;;) {
                std::uint64_t v = co_await t.read(cnt);
                if (v >= goal)
                    break;
                co_await t.compute(20);
            }
            co_await t.finishInstr(bar);
        }
    };
    for (CoreId c = 0; c < 4; ++c)
        s.start(c, sw_barrier(s.api(c), bar, 0x9000, 4, &res));
    ASSERT_TRUE(s.run(10000000));
    ASSERT_EQ(res.size(), 4u);
    for (auto r : res)
        EXPECT_EQ(r, SyncResult::Fail);
    // FINISHes balanced the OMU.
    EXPECT_EQ(s.msaSlice(0).omu().count(bar), 0u);
}

TEST(MsaHwSync, SilentReacquire)
{
    sys::System s(msaCfg(16, 2, true));
    std::vector<SyncResult> res;
    auto relock = [](ThreadApi t, Addr l, int n,
                     std::vector<SyncResult> *res) -> ThreadTask {
        for (int i = 0; i < n; ++i) {
            res->push_back(toSyncResult(co_await t.lockInstr(l)));
            co_await t.compute(10);
            co_await t.unlockInstr(l);
            co_await t.compute(10);
        }
    };
    s.start(5, relock(s.api(5), 0x4000, 5, &res));
    ASSERT_TRUE(s.run(1000000));
    for (auto r : res)
        EXPECT_EQ(r, SyncResult::Success);
    // Re-acquires 2..5 must use the silent path.
    EXPECT_EQ(s.stats().counter("sync.silentLocks").value(), 4u);
}

TEST(MsaHwSync, SilentPathFasterThanRemote)
{
    // Measure one lock+unlock by the same core twice: the second
    // acquire (silent) must be much faster than the first.
    auto run_pair = [](bool hwsync) {
        sys::System s(msaCfg(16, 2, hwsync));
        std::vector<Tick> lat;
        auto body = [](ThreadApi t, Addr l,
                       std::vector<Tick> *lat) -> ThreadTask {
            for (int i = 0; i < 2; ++i) {
                Tick t0 = t.now();
                co_await t.lockInstr(l);
                lat->push_back(t.now() - t0);
                co_await t.unlockInstr(l);
                co_await t.compute(5);
            }
        };
        // Lock homed far from core 0 (tile 15).
        s.start(0, body(s.api(0), 15 * 64, &lat));
        s.run(1000000);
        return lat;
    };
    auto with = run_pair(true);
    auto without = run_pair(false);
    ASSERT_EQ(with.size(), 2u);
    EXPECT_LT(with[1] * 3, with[0]);        // silent ~local
    EXPECT_GT(without[1] * 3, without[0]);  // non-silent stays remote
}

TEST(MsaHwSync, GrantToOtherCoreStripsPrivilege)
{
    sys::System s(msaCfg(16, 2, true));
    std::vector<CoreId> order;
    auto first = [](ThreadApi t, Addr l,
                    std::vector<CoreId> *order) -> ThreadTask {
        co_await t.lockInstr(l);
        order->push_back(t.id());
        co_await t.compute(10);
        co_await t.unlockInstr(l);
        // Keep the block cached: the silent privilege exists now.
        co_await t.compute(5000);
    };
    auto second = [](ThreadApi t, Addr l,
                     std::vector<CoreId> *order) -> ThreadTask {
        co_await t.compute(1000); // after core 0 released
        SyncResult r = toSyncResult(co_await t.lockInstr(l));
        EXPECT_EQ(r, SyncResult::Success);
        order->push_back(t.id());
        co_await t.unlockInstr(l);
    };
    s.start(0, first(s.api(0), 0x4000, &order));
    s.start(1, second(s.api(1), 0x4000, &order));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(order, (std::vector<CoreId>{0, 1}));
    // Core 1's grant invalidated core 0's block: no silent re-acquire.
    EXPECT_FALSE(s.mem().l1(0).hasWritableHwSync(0x4000));
}

TEST(MsaHwSync, SilentThenContention)
{
    // Core 0 silently re-acquires and holds; core 1 requests: the
    // revoke must find the lock held and queue core 1 behind it.
    sys::System s(msaCfg(16, 2, true));
    std::vector<CoreId> order;
    auto holder = [](ThreadApi t, Addr l,
                     std::vector<CoreId> *order) -> ThreadTask {
        co_await t.lockInstr(l);
        co_await t.compute(10);
        co_await t.unlockInstr(l);
        co_await t.compute(10);
        co_await t.lockInstr(l); // silent
        order->push_back(t.id());
        co_await t.compute(3000);
        co_await t.unlockInstr(l);
    };
    auto contender = [](ThreadApi t, Addr l,
                        std::vector<CoreId> *order) -> ThreadTask {
        co_await t.compute(500); // while core 0 silently holds
        co_await t.lockInstr(l);
        order->push_back(t.id());
        co_await t.unlockInstr(l);
    };
    s.start(0, holder(s.api(0), 0x4000, &order));
    s.start(1, contender(s.api(1), 0x4000, &order));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(order, (std::vector<CoreId>{0, 1}));
}

TEST(MsaHwSync, EntryFreedForNewAddressWhilePrivilegeLives)
{
    // One entry; lock A frees its entry on unlock (privilege stays in
    // the L1), so lock B (same home) can use the entry in hardware,
    // and A can still be silently re-acquired afterwards.
    sys::System s(msaCfg(16, 1, true));
    const Addr a = 0x0, b = 16 * 64;
    std::vector<SyncResult> res;
    auto seq = [](ThreadApi t, Addr a, Addr b,
                  std::vector<SyncResult> *res) -> ThreadTask {
        res->push_back(toSyncResult(co_await t.lockInstr(a)));
        co_await t.unlockInstr(a);
        co_await t.compute(100);
        res->push_back(toSyncResult(co_await t.lockInstr(b)));
        co_await t.unlockInstr(b);
        res->push_back(toSyncResult(co_await t.lockInstr(a))); // silent
        co_await t.unlockInstr(a);
    };
    s.start(3, seq(s.api(3), a, b, &res));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(res[0], SyncResult::Success);
    EXPECT_EQ(res[1], SyncResult::Success);
    EXPECT_EQ(res[2], SyncResult::Success);
    EXPECT_GT(s.stats().counter("sync.silentLocks").value(), 0u);
}

// --- Condition variables -------------------------------------------------

ThreadTask
condWaiter(ThreadApi t, Addr cond, Addr lock, std::vector<int> *log,
           std::vector<SyncResult> *res)
{
    SyncResult r = toSyncResult(co_await t.lockInstr(lock));
    EXPECT_EQ(r, SyncResult::Success);
    r = toSyncResult(co_await t.condWaitInstr(cond, lock));
    res->push_back(r);
    if (r == SyncResult::Success) {
        log->push_back(100 + static_cast<int>(t.id()));
        co_await t.unlockInstr(lock);
    }
}

ThreadTask
condSignaler(ThreadApi t, Addr cond, Tick delay, bool bcast,
             std::vector<SyncResult> *res)
{
    co_await t.compute(delay);
    // Note: co_await inside a conditional expression miscompiles on
    // GCC 12 (both branches issue); keep the branches separate.
    SyncResult r;
    if (bcast)
        r = toSyncResult(co_await t.condBcastInstr(cond));
    else
        r = toSyncResult(co_await t.condSignalInstr(cond));
    res->push_back(r);
}

TEST(MsaCond, WaitAndSignal)
{
    sys::System s(msaCfg(16, 2));
    std::vector<int> log;
    std::vector<SyncResult> wres, sres;
    s.start(1, condWaiter(s.api(1), 0x5000, 0x6000, &log, &wres));
    s.start(2, condSignaler(s.api(2), 0x5000, 2000, false, &sres));
    ASSERT_TRUE(s.run(1000000));
    ASSERT_EQ(wres.size(), 1u);
    EXPECT_EQ(wres[0], SyncResult::Success);
    EXPECT_EQ(sres[0], SyncResult::Success);
    EXPECT_EQ(log, (std::vector<int>{101}));
}

TEST(MsaCond, BroadcastWakesAll)
{
    sys::System s(msaCfg(16, 4));
    std::vector<int> log;
    std::vector<SyncResult> wres, sres;
    for (CoreId c = 1; c <= 5; ++c)
        s.start(c, condWaiter(s.api(c), 0x5000, 0x6000, &log, &wres));
    s.start(10, condSignaler(s.api(10), 0x5000, 5000, true, &sres));
    ASSERT_TRUE(s.run(10000000));
    ASSERT_EQ(wres.size(), 5u);
    for (auto r : wres)
        EXPECT_EQ(r, SyncResult::Success);
    EXPECT_EQ(log.size(), 5u);
}

TEST(MsaCond, SignalWithNoWaitersFails)
{
    sys::System s(msaCfg(16, 2));
    std::vector<SyncResult> sres;
    s.start(0, condSignaler(s.api(0), 0x5000, 10, false, &sres));
    ASSERT_TRUE(s.run(100000));
    EXPECT_EQ(sres[0], SyncResult::Fail);
}

TEST(MsaCond, LockEntryPinnedWhileWaiting)
{
    sys::System s(msaCfg(16, 4));
    std::vector<int> log;
    std::vector<SyncResult> wres, sres;
    s.start(1, condWaiter(s.api(1), 0x5000, 0x6000, &log, &wres));
    // While the waiter sits on the cond var, the lock entry must
    // stay allocated (pinned) even though its queue is empty.
    s.start(2, condSignaler(s.api(2), 0x5000, 8000, false, &sres));
    s.eventQueue().runUntil(4000);
    const MsaSlice &lock_home = s.msaSlice(mem::homeTile(0x6000, 16));
    const MsaEntry *e = lock_home.findEntry(0x6000);
    ASSERT_NE(e, nullptr);
    EXPECT_GT(e->pinCount, 0u);
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(wres[0], SyncResult::Success);
}

TEST(MsaCond, CondFailsWhenLockInSoftware)
{
    // Lock held in software (entry miss + OMU active): COND_WAIT
    // must FAIL (cond handled in hardware only if lock is).
    sys::System s(msaCfg(16, 1, false));
    const Addr lockA = 0x0, lockB = 16 * 64, cond = 0x5000;
    std::vector<SyncResult> res;
    auto blocker = [](ThreadApi t, Addr l) -> ThreadTask {
        co_await t.lockInstr(l); // takes the only entry at home 0
        co_await t.compute(30000);
        co_await t.unlockInstr(l);
    };
    auto sw_then_wait = [](ThreadApi t, Addr l, Addr cond,
                           std::vector<SyncResult> *res) -> ThreadTask {
        co_await t.compute(200);
        SyncResult r = toSyncResult(co_await t.lockInstr(l));
        res->push_back(r); // FAIL: lock in software
        r = toSyncResult(co_await t.condWaitInstr(cond, l));
        res->push_back(r); // must FAIL: its lock is software-held
        // Software-side cleanup: release the "software" lock.
        co_await t.finishInstr(cond);
        co_await t.unlockInstr(l);
    };
    s.start(1, blocker(s.api(1), lockA));
    s.start(2, sw_then_wait(s.api(2), lockB, cond, &res));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(res[0], SyncResult::Fail);
    EXPECT_EQ(res[1], SyncResult::Fail);
}

// --- Suspension ----------------------------------------------------------

TEST(MsaSuspend, LockWaiterRequeues)
{
    sys::System s(msaCfg(16, 2));
    std::vector<CoreId> order;
    auto holder = [](ThreadApi t, Addr l,
                     std::vector<CoreId> *order) -> ThreadTask {
        co_await t.lockInstr(l);
        order->push_back(t.id());
        co_await t.compute(4000);
        co_await t.unlockInstr(l);
    };
    s.start(0, holder(s.api(0), 0x7000, &order));
    s.start(1, lockWorker(s.api(1), 0x7000, &order, nullptr));
    // Interrupt core 1 while it waits for the lock.
    s.eventQueue().schedule(1000, [&] { s.core(1).interrupt(); });
    ASSERT_TRUE(s.run(1000000));
    // Core 1 still eventually gets the lock in hardware (re-executed).
    EXPECT_EQ(order, (std::vector<CoreId>{0, 1}));
    EXPECT_EQ(s.stats().counter("sync.suspends").value(), 1u);
}

TEST(MsaSuspend, BarrierForcedToSoftware)
{
    sys::System s(msaCfg(16, 2));
    std::vector<SyncResult> res;
    const Addr bar = 0x8000, cnt = 0x8100;
    auto sw_barrier = [](ThreadApi t, Addr bar, Addr cnt,
                         std::uint32_t goal, Tick skew,
                         std::vector<SyncResult> *res) -> ThreadTask {
        co_await t.compute(skew);
        SyncResult r = toSyncResult(co_await t.barrierInstr(bar, goal));
        res->push_back(r);
        if (r != SyncResult::Success) {
            co_await t.fetchAdd(cnt, 1);
            for (;;) {
                std::uint64_t v = co_await t.read(cnt);
                if (v >= goal)
                    break;
                co_await t.compute(20);
            }
            co_await t.finishInstr(bar);
        }
    };
    for (CoreId c = 0; c < 4; ++c)
        s.start(c, sw_barrier(s.api(c), bar, cnt, 4, c * 10, &res));
    // Interrupt core 2 while it waits at the barrier (core 3 has not
    // arrived yet at tick 15).
    s.eventQueue().schedule(26, [&] { s.core(2).interrupt(); });
    ASSERT_TRUE(s.run(10000000));
    ASSERT_EQ(res.size(), 4u);
    unsigned aborts = 0;
    for (auto r : res)
        aborts += (r != SyncResult::Success);
    EXPECT_GT(aborts, 0u);
    EXPECT_EQ(s.msaSlice(mem::homeTile(bar, 16)).omu().count(bar), 0u);
}

// --- Alternative configurations ------------------------------------------

TEST(MsaModes, Msa0AlwaysFails)
{
    sys::System s(makeConfig(16, AccelMode::None));
    std::vector<SyncResult> res;
    s.start(0, nLocksWorker(s.api(0), {0x100, 0x200}, &res));
    ASSERT_TRUE(s.run(100000));
    for (auto r : res)
        EXPECT_EQ(r, SyncResult::Fail);
}

TEST(MsaModes, InfiniteNeverFails)
{
    sys::System s(makeConfig(16, AccelMode::MsaInfinite));
    std::vector<SyncResult> res;
    std::vector<Addr> locks;
    for (int i = 0; i < 40; ++i)
        locks.push_back(0x10000 + static_cast<Addr>(i) * 8);
    s.start(0, nLocksWorker(s.api(0), locks, &res));
    ASSERT_TRUE(s.run(10000000));
    for (auto r : res)
        EXPECT_EQ(r, SyncResult::Success);
}

TEST(MsaModes, IdealLockBarrierCond)
{
    sys::System s(makeConfig(16, AccelMode::Ideal));
    std::vector<CoreId> order;
    std::vector<SyncResult> bres;
    for (CoreId c = 0; c < 8; ++c)
        s.start(c, lockWorker(s.api(c), 0x1000, &order, nullptr));
    for (CoreId c = 8; c < 12; ++c)
        s.start(c, barrierWorker(s.api(c), 0x2000, 4, c, &bres, nullptr));
    ASSERT_TRUE(s.run(10000000));
    EXPECT_EQ(order.size(), 8u);
    EXPECT_EQ(bres.size(), 4u);
    for (auto r : bres)
        EXPECT_EQ(r, SyncResult::Success);
}

TEST(MsaModes, LockOnlySupportFailsBarriers)
{
    SystemConfig cfg = msaCfg(16, 2);
    cfg.msa.support.barriers = false;
    cfg.msa.support.condVars = false;
    sys::System s(cfg);
    std::vector<SyncResult> res;
    const Addr bar = 0x3000, cnt = 0x3100;
    auto sw_barrier = [](ThreadApi t, Addr bar, Addr cnt,
                         std::uint32_t goal,
                         std::vector<SyncResult> *res) -> ThreadTask {
        SyncResult r = toSyncResult(co_await t.barrierInstr(bar, goal));
        res->push_back(r);
        if (r != SyncResult::Success) {
            co_await t.fetchAdd(cnt, 1);
            for (;;) {
                std::uint64_t v = co_await t.read(cnt);
                if (v >= goal)
                    break;
                co_await t.compute(20);
            }
            co_await t.finishInstr(bar);
        }
    };
    for (CoreId c = 0; c < 4; ++c)
        s.start(c, sw_barrier(s.api(c), bar, cnt, 4, &res));
    ASSERT_TRUE(s.run(10000000));
    for (auto r : res)
        EXPECT_EQ(r, SyncResult::Fail);
    // Locks still work in hardware.
    std::vector<CoreId> order;
    s.start(5, lockWorker(s.api(5), 0x9000, &order, nullptr));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(order, (std::vector<CoreId>{5}));
}

// --- Acquire gate ------------------------------------------------------

/** After a short delay, issue one acquire-class @p instr on @p a (a
 *  cond wait names @p lock) and record its result. */
ThreadTask
acquireOnce(ThreadApi t, cpu::SyncInstr instr, Addr a, Addr lock,
            SyncResult *res)
{
    co_await t.compute(500); // an entry holder goes first
    switch (instr) {
      case cpu::SyncInstr::Lock:
        *res = toSyncResult(co_await t.lockInstr(a));
        break;
      case cpu::SyncInstr::TryLock:
        *res = toSyncResult(co_await t.tryLockInstr(a));
        break;
      case cpu::SyncInstr::RdLock:
        *res = toSyncResult(co_await t.rdLockInstr(a));
        break;
      case cpu::SyncInstr::WrLock:
        *res = toSyncResult(co_await t.wrLockInstr(a));
        break;
      case cpu::SyncInstr::Barrier:
        *res = toSyncResult(co_await t.barrierInstr(a, 2));
        break;
      default:
        *res = toSyncResult(co_await t.condWaitInstr(a, lock));
        break;
    }
}

TEST(MsaGate, AcquireFailsToSoftwareWithoutAllocating)
{
    // Every acquire-class op meets one gate: an unsupported type, a
    // live OMU counter or a full MSA FAILs it to software, raises the
    // address's OMU counter (when there is an OMU) and makes no entry.
    enum class Why { Unsupported, OmuLive, NoFreeEntry };
    const Addr a = 16 * 64, held = 0x0, lock = 2 * 16 * 64; // home 0
    auto holder = [](ThreadApi t, Addr l, SyncResult *res) -> ThreadTask {
        *res = toSyncResult(co_await t.lockInstr(l));
        co_await t.compute(5000);
        co_await t.unlockInstr(l);
    };
    for (cpu::SyncInstr instr :
         {cpu::SyncInstr::Lock, cpu::SyncInstr::TryLock,
          cpu::SyncInstr::RdLock, cpu::SyncInstr::WrLock,
          cpu::SyncInstr::Barrier, cpu::SyncInstr::CondWait}) {
        for (Why why : {Why::Unsupported, Why::OmuLive, Why::NoFreeEntry}) {
            for (bool omu : {true, false}) {
                if (why == Why::OmuLive && !omu)
                    continue; // no OMU, no counter to be live
                SCOPED_TRACE(::testing::Message()
                             << cpu::syncInstrName(instr) << " case "
                             << static_cast<int>(why) << " omu " << omu);
                SystemConfig cfg = msaCfg(16, 1, false);
                cfg.msa.omuEnabled = omu;
                if (why == Why::Unsupported) {
                    if (instr == cpu::SyncInstr::Barrier)
                        cfg.msa.support.barriers = false;
                    else if (instr == cpu::SyncInstr::CondWait)
                        cfg.msa.support.condVars = false;
                    else
                        cfg.msa.support.locks = false;
                }
                sys::System s(cfg);
                MsaSlice &home = s.msaSlice(mem::homeTile(a, 16));
                std::uint32_t before = 0;
                if (why == Why::OmuLive) {
                    home.omu().increment(a);
                    before = 1;
                }
                SyncResult held_res = SyncResult::Fail;
                if (why == Why::NoFreeEntry)
                    s.start(1, holder(s.api(1), held, &held_res));
                SyncResult res = SyncResult::Success;
                s.start(0, acquireOnce(s.api(0), instr, a, lock, &res));
                ASSERT_TRUE(s.run(1000000));
                if (why == Why::NoFreeEntry) {
                    EXPECT_EQ(held_res, SyncResult::Success);
                }
                EXPECT_EQ(res, SyncResult::Fail);
                EXPECT_EQ(home.omu().count(a), before + (omu ? 1u : 0u));
                EXPECT_EQ(home.findEntry(a), nullptr);
            }
        }
    }
}

TEST(MsaGateDeathTest, UnlockOnAnotherTypePanics)
{
    // Core 0 waits at a 2-party BARRIER on 0x3000 when core 1 issues
    // UNLOCK on the same address: the release gate meets a live entry
    // of another type and panics, as the acquire gate does.
    auto waiter = [](ThreadApi t, Addr a) -> ThreadTask {
        co_await t.barrierInstr(a, 2);
    };
    auto unlocker = [](ThreadApi t, Addr a) -> ThreadTask {
        co_await t.compute(500);
        co_await t.unlockInstr(a);
    };
    EXPECT_DEATH(
        {
            sys::System s(msaCfg(16, 2));
            s.start(0, waiter(s.api(0), 0x3000));
            s.start(1, unlocker(s.api(1), 0x3000));
            s.run(1000000);
        },
        "UNLOCK on an active entry of another type");
}

TEST(MsaCoverage, CountersTrackHwAndSw)
{
    sys::System s(msaCfg(16, 2));
    std::vector<CoreId> order;
    s.start(0, lockWorker(s.api(0), 0x1000, &order, nullptr));
    ASSERT_TRUE(s.run(1000000));
    EXPECT_EQ(s.stats().counter("sync.hwOps").value(), 2u); // lock+unlock
    EXPECT_EQ(s.stats().counter("sync.swOps").value(), 0u);
    EXPECT_DOUBLE_EQ(s.hwCoverage(), 1.0);
}

} // namespace
} // namespace msa
} // namespace misar
