#include "sync/sync_lib.hh"

#include "cpu/op.hh"
#include "sim/logging.hh"
#include "sync/spin.hh"

namespace misar {
namespace sync {

using cpu::SyncResult;
using cpu::toSyncResult;

SyncLib::SyncLib(Flavor flavor, unsigned num_cores)
    : _flavor(flavor), numCores(num_cores), rwHoldsByCore(num_cores)
{}

const char *
SyncLib::flavorName(Flavor f)
{
    switch (f) {
      case Flavor::PthreadSw:
        return "pthread";
      case Flavor::SpinSw:
        return "spinlock";
      case Flavor::McsTourSw:
        return "MCS-Tour";
      case Flavor::TicketDissemSw:
        return "Ticket-Dissem";
      case Flavor::Hw:
        return "hw-hybrid";
    }
    return "?";
}

unsigned
SyncLib::deadBelow(std::uint32_t goal) const
{
    if (!isDeadFn)
        return 0;
    unsigned n = 0;
    for (CoreId c = 0; c < goal; ++c)
        if (isDeadFn(c))
            ++n;
    return n;
}

Addr
SyncLib::aux(Addr obj, unsigned bytes)
{
    // Pure function of the object: no allocator state, so the region
    // address (and thus its home tile and cache behavior) is the same
    // no matter which thread interleaving discovers the object first.
    if (bytes > auxSlabBytes)
        panic("sync aux region for %llx needs %u bytes > %llu slab",
              (unsigned long long)obj, bytes,
              (unsigned long long)auxSlabBytes);
    if (obj >> (62 - auxSlabShift))
        panic("sync object address %llx too large for aux addressing",
              (unsigned long long)obj);
    return auxSpaceTag | (obj << auxSlabShift);
}

Addr
SyncLib::mcsNode(Addr m, CoreId core)
{
    // One queue node per (lock, core), each in its own block.
    return aux(m, numCores * blockBytes) + core * blockBytes;
}

// --- Public API (Algorithms 1-3 in the Hw flavor) -------------------------

SubTask<>
SyncLib::mutexLock(ThreadApi t, Addr m)
{
    if (_flavor == Flavor::Hw) {
        SyncResult r = toSyncResult(co_await t.lockInstr(m));
        if (r == SyncResult::Success)
            co_return;
        // FAIL or ABORT: fall back to the software lock (Alg. 1).
        co_await pthreadLock(t, m);
        co_return;
    }
    co_await swLock(t, m);
}

SubTask<>
SyncLib::mutexUnlock(ThreadApi t, Addr m)
{
    if (_flavor == Flavor::Hw) {
        SyncResult r = toSyncResult(co_await t.unlockInstr(m));
        if (r == SyncResult::Success)
            co_return;
        co_await pthreadUnlock(t, m);
        co_return;
    }
    co_await swUnlock(t, m);
}

SubTask<bool>
SyncLib::mutexTryLock(ThreadApi t, Addr m)
{
    if (_flavor == Flavor::Hw) {
        SyncResult r = toSyncResult(co_await t.tryLockInstr(m));
        if (r == SyncResult::Success)
            co_return true;
        if (r == SyncResult::Busy)
            co_return false;
        // FAIL: the home pre-counted us as software-active; try the
        // word, and cancel the OMU increment if we lose.
        bool got = co_await swTryLock(t, m);
        if (!got)
            co_await t.finishInstr(m); // no-op value, decrements OMU
        co_return got;
    }
    co_return co_await swTryLock(t, m);
}

SubTask<bool>
SyncLib::swTryLock(ThreadApi t, Addr m)
{
    co_await t.compute(12);
    std::uint64_t old = co_await t.compareSwap(m, 0, 1);
    co_return old == 0;
}

SubTask<>
SyncLib::barrierWait(ThreadApi t, Addr b, std::uint32_t goal)
{
    if (_flavor == Flavor::Hw) {
        SyncResult r = toSyncResult(co_await t.barrierInstr(b, goal));
        if (r == SyncResult::Success)
            co_return;
        // FAIL or ABORT: software barrier, then tell the OMU the
        // software operation is over (Alg. 2).
        co_await centralBarrier(t, b, goal);
        co_await t.finishInstr(b);
        co_return;
    }
    co_await swBarrier(t, b, goal);
}

SyncLib::RwHold &
SyncLib::rwHold(CoreId core, Addr l)
{
    // Per-core maps: core ids of any width fit (the old
    // (l << 8 | core) key silently aliased cores 256 apart).
    return rwHoldsByCore[core][l];
}

SubTask<>
SyncLib::rwRdLock(ThreadApi t, Addr l)
{
    if (_flavor == Flavor::Hw) {
        SyncResult r = toSyncResult(co_await t.rdLockInstr(l));
        if (r == SyncResult::Success) {
            rwHold(t.id(), l) = RwHold::Hw;
            co_return;
        }
    }
    co_await swRdLock(t, l);
    rwHold(t.id(), l) = RwHold::SwReader;
}

SubTask<>
SyncLib::rwWrLock(ThreadApi t, Addr l)
{
    if (_flavor == Flavor::Hw) {
        SyncResult r = toSyncResult(co_await t.wrLockInstr(l));
        if (r == SyncResult::Success) {
            rwHold(t.id(), l) = RwHold::Hw;
            co_return;
        }
    }
    co_await swWrLock(t, l);
    rwHold(t.id(), l) = RwHold::SwWriter;
}

SubTask<>
SyncLib::rwUnlock(ThreadApi t, Addr l)
{
    RwHold &h = rwHold(t.id(), l);
    const RwHold mode = h;
    h = RwHold::None;
    switch (mode) {
      case RwHold::Hw:
        co_await t.rwUnlockInstr(l); // guaranteed hardware hit
        break;
      case RwHold::SwReader:
        if (_flavor == Flavor::Hw)
            co_await t.rwUnlockInstr(l); // FAIL path decrements OMU
        co_await swRwUnlockReader(t, l);
        break;
      case RwHold::SwWriter:
        if (_flavor == Flavor::Hw)
            co_await t.rwUnlockInstr(l);
        co_await swRwUnlockWriter(t, l);
        break;
      case RwHold::None:
        panic("rwUnlock of a lock core %u does not hold", t.id());
    }
}

// Software reader-writer lock. Word layout at the lock address:
// bit 0 = writer held, bits 1.. = reader count (x2 increments).

SubTask<>
SyncLib::swRdLock(ThreadApi t, Addr l)
{
    co_await t.compute(15);
    for (;;) {
        std::uint64_t v = co_await t.read(l);
        if (!(v & 1)) {
            std::uint64_t got = co_await t.compareSwap(l, v, v + 2);
            if (got == v)
                co_return;
            continue; // lost a race to another reader: retry now
        }
        co_await futexWait(t, l,
                           [](std::uint64_t w) { return !(w & 1); });
    }
}

SubTask<>
SyncLib::swWrLock(ThreadApi t, Addr l)
{
    co_await t.compute(15);
    for (;;) {
        std::uint64_t got = co_await t.compareSwap(l, 0, 1);
        if (got == 0)
            co_return;
        co_await futexWait(t, l,
                           [](std::uint64_t w) { return w == 0; });
    }
}

SubTask<>
SyncLib::swRwUnlockReader(ThreadApi t, Addr l)
{
    co_await t.fetchAdd(l, static_cast<std::uint64_t>(-2));
}

SubTask<>
SyncLib::swRwUnlockWriter(ThreadApi t, Addr l)
{
    co_await t.write(l, 0);
}

SubTask<>
SyncLib::condWait(ThreadApi t, Addr c, Addr m)
{
    if (_flavor == Flavor::Hw) {
        SyncResult r = toSyncResult(co_await t.condWaitInstr(c, m));
        if (r == SyncResult::Success)
            co_return; // woken and lock re-acquired in hardware
        if (r == SyncResult::Fail) {
            co_await swCondWait(t, c, m);
            co_await t.finishInstr(c);
        } else { // Abort: re-acquire the lock, possibly spuriously
            co_await mutexLock(t, m);
            co_await t.finishInstr(c);
        }
        co_return;
    }
    co_await swCondWait(t, c, m);
}

SubTask<>
SyncLib::condSignal(ThreadApi t, Addr c)
{
    if (_flavor == Flavor::Hw) {
        SyncResult r = toSyncResult(co_await t.condSignalInstr(c));
        if (r != SyncResult::Success)
            co_await swCondSignal(t, c);
        co_return;
    }
    co_await swCondSignal(t, c);
}

SubTask<>
SyncLib::condBroadcast(ThreadApi t, Addr c)
{
    if (_flavor == Flavor::Hw) {
        SyncResult r = toSyncResult(co_await t.condBcastInstr(c));
        if (r != SyncResult::Success)
            co_await swCondBroadcast(t, c);
        co_return;
    }
    co_await swCondBroadcast(t, c);
}

// --- Flavor dispatch -------------------------------------------------------

SubTask<>
SyncLib::swLock(ThreadApi t, Addr m)
{
    switch (_flavor) {
      case Flavor::SpinSw:
        co_await spinLock(t, m);
        break;
      case Flavor::McsTourSw:
        co_await mcsLock(t, m);
        break;
      case Flavor::TicketDissemSw:
        co_await ticketLock(t, m);
        break;
      default:
        co_await pthreadLock(t, m);
        break;
    }
}

SubTask<>
SyncLib::swUnlock(ThreadApi t, Addr m)
{
    switch (_flavor) {
      case Flavor::SpinSw:
        co_await spinUnlock(t, m);
        break;
      case Flavor::McsTourSw:
        co_await mcsUnlock(t, m);
        break;
      case Flavor::TicketDissemSw:
        co_await ticketUnlock(t, m);
        break;
      default:
        co_await pthreadUnlock(t, m);
        break;
    }
}

SubTask<>
SyncLib::swBarrier(ThreadApi t, Addr b, std::uint32_t goal)
{
    if (_flavor == Flavor::McsTourSw)
        co_await tournamentBarrier(t, b, goal);
    else if (_flavor == Flavor::TicketDissemSw)
        co_await disseminationBarrier(t, b, goal);
    else
        co_await centralBarrier(t, b, goal);
}

// --- pthread-like mutex (TTAS + futex-style backoff) -----------------------

SubTask<>
SyncLib::pthreadLock(ThreadApi t, Addr m)
{
    // Library-call overhead (glibc entry, checks, barriers).
    co_await t.compute(20);
    // Fast path: uncontended CAS 0 -> 1.
    std::uint64_t old = co_await t.compareSwap(m, 0, 1);
    if (old == 0)
        co_return;
    // Slow path: mark contended (2) and wait. The growing poll
    // interval models the latency of a futex sleep/wake round trip.
    for (;;) {
        old = co_await t.swap(m, 2);
        if (old == 0)
            co_return;
        co_await futexWait(t, m,
                          [](std::uint64_t v) { return v == 0; });
    }
}

SubTask<>
SyncLib::pthreadUnlock(ThreadApi t, Addr m)
{
    co_await t.compute(12);
    co_await t.swap(m, 0);
}

// --- Test-and-set spinlock --------------------------------------------------

SubTask<>
SyncLib::spinLock(ThreadApi t, Addr m)
{
    co_await t.compute(2);
    for (;;) {
        std::uint64_t old = co_await t.testAndSet(m);
        if (old == 0)
            co_return;
        co_await spinUntil(t, m, [](std::uint64_t v) { return v == 0; }, 8);
    }
}

SubTask<>
SyncLib::spinUnlock(ThreadApi t, Addr m)
{
    co_await t.write(m, 0);
}

// --- MCS queue lock ---------------------------------------------------------

SubTask<>
SyncLib::mcsLock(ThreadApi t, Addr m)
{
    co_await t.compute(8); // call overhead + node address setup
    const Addr node = mcsNode(m, t.id());
    co_await t.write(node + 0, 0); // next = null
    co_await t.write(node + 8, 1); // locked = true
    std::uint64_t pred = co_await t.swap(m, node);
    if (pred != 0) {
        co_await t.write(pred + 0, node); // pred->next = node
        // Local spin on our own flag.
        co_await spinUntil(t, node + 8,
                           [](std::uint64_t v) { return v == 0; }, 8);
    }
}

SubTask<>
SyncLib::mcsUnlock(ThreadApi t, Addr m)
{
    co_await t.compute(6);
    const Addr node = mcsNode(m, t.id());
    std::uint64_t next = co_await t.read(node + 0);
    if (next == 0) {
        std::uint64_t old = co_await t.compareSwap(m, node, 0);
        if (old == node)
            co_return; // no successor
        // A successor is enqueueing; wait for it to link itself.
        next = co_await spinUntil(t, node + 0,
                                  [](std::uint64_t v) { return v != 0; },
                                  8);
    }
    co_await t.write(next + 8, 0); // successor->locked = false
}

namespace {

unsigned
ceilLog2(std::uint32_t n)
{
    unsigned k = 0;
    while ((1u << k) < n)
        ++k;
    return k;
}

} // namespace

// --- Ticket lock ------------------------------------------------------------

SubTask<>
SyncLib::ticketLock(ThreadApi t, Addr m)
{
    // Aux layout: next-ticket at m (user word), now-serving in aux.
    const Addr serving = aux(m, blockBytes);
    co_await t.compute(6);
    std::uint64_t ticket = co_await t.fetchAdd(m, 1);
    for (;;) {
        std::uint64_t s = co_await t.read(serving);
        if (s == ticket)
            co_return;
        // Proportional backoff: wait roughly our queue distance.
        Tick gap = static_cast<Tick>(ticket - s);
        co_await t.compute(16 * std::max<Tick>(1, gap));
    }
}

SubTask<>
SyncLib::ticketUnlock(ThreadApi t, Addr m)
{
    const Addr serving = aux(m, blockBytes);
    std::uint64_t s = co_await t.read(serving);
    co_await t.write(serving, s + 1);
}

// --- Dissemination barrier ----------------------------------------------------

SubTask<>
SyncLib::disseminationBarrier(ThreadApi t, Addr b, std::uint32_t goal)
{
    // Round-stamped flags: flag[round][core] holds the episode number,
    // so no reset phase is needed across episodes.
    co_await t.compute(8);
    const unsigned rounds = ceilLog2(goal);
    const unsigned id = t.id();
    if (id >= goal)
        panic("dissemination barrier: core %u outside range", id);
    // Layout: episode word per core, then flags[round][core].
    const Addr base = aux(b, (rounds + 1) * goal * blockBytes);
    const Addr my_episode = base + id * blockBytes;
    std::uint64_t episode = (co_await t.read(my_episode)) + 1;
    co_await t.write(my_episode, episode);
    for (unsigned k = 0; k < rounds; ++k) {
        const unsigned peer = (id + (1u << k)) % goal;
        // The round-k notification we *receive* comes from the core
        // (id - 2^k) mod goal; if it died, its episode stamp will
        // never advance — waive the wait (approximate, like the
        // centralized barrier: information from behind the corpse is
        // lost for this episode).
        const unsigned in_peer = (id + goal - (1u << k) % goal) % goal;
        const Addr out =
            base + ((k + 1) * goal + peer) * blockBytes;
        const Addr in = base + ((k + 1) * goal + id) * blockBytes;
        co_await t.write(out, episode);
        co_await spinUntil(t, in,
                           [this, episode, in_peer](std::uint64_t v) {
                               return v >= episode ||
                                      deadParticipant(in_peer);
                           },
                           8);
    }
}

// --- Centralized (pthread-like) barrier -------------------------------------

SubTask<>
SyncLib::centralBarrier(ThreadApi t, Addr b, std::uint32_t goal)
{
    // One packed word: generation in the high 32 bits, arrival count
    // in the low 32. Single-word atomicity avoids epoch races.
    co_await t.compute(10); // library-call overhead
    std::uint64_t v = co_await t.fetchAdd(b, 1);
    std::uint64_t gen = v >> 32;
    std::uint32_t cnt = static_cast<std::uint32_t>(v) + 1;
    if (cnt + deadBelow(goal) >= goal) {
        // Quorum (all live participants): advance the generation,
        // reset the count. Without dead participants this is exactly
        // the classic last-arrival (cnt == goal) release.
        co_await t.write(b, (gen + 1) << 32);
        co_return;
    }
    if (!isDeadFn) {
        // Futex-style wait models the sleep/wake round-trip cost.
        co_await futexWait(
            t, b, [gen](std::uint64_t w) { return (w >> 32) != gen; });
        co_return;
    }
    // Dead-aware wait: also wake when deaths declared *after* our
    // arrival bring the quorum within reach — the release write the
    // last arrival would have done must then come from a waiter. CAS
    // (not a blind store) so a racing release or a new arrival for
    // the next episode is never clobbered.
    for (;;) {
        std::uint64_t w = co_await futexWait(
            t, b, [this, gen, goal](std::uint64_t w) {
                return (w >> 32) != gen ||
                       static_cast<std::uint32_t>(w) + deadBelow(goal) >=
                           goal;
            });
        if ((w >> 32) != gen)
            co_return; // released normally
        std::uint64_t old = co_await t.compareSwap(b, w, (gen + 1) << 32);
        if (old == w || (old >> 32) != gen)
            co_return; // we released, or a racing waiter did
        // Lost the race to a concurrent arrival; re-evaluate.
    }
}

// --- Tournament barrier (MCS-style) ------------------------------------------

SubTask<>
SyncLib::tournamentBarrier(ThreadApi t, Addr b, std::uint32_t goal)
{
    co_await t.compute(8); // call overhead
    const unsigned rounds = ceilLog2(goal);
    if (rounds == 0)
        co_return; // single participant
    const unsigned i = t.id();
    if (i >= goal)
        panic("tournament barrier: core %u outside participant range", i);
    // Layout: arrival flags [round][core], then wakeup flags [core].
    const Addr base =
        aux(b, (rounds + 1) * goal * blockBytes);
    auto arrive_flag = [&](unsigned k, unsigned who) {
        return base + ((k - 1) * goal + who) * blockBytes;
    };
    auto wake_flag = [&](unsigned who) {
        return base + (rounds * goal + who) * blockBytes;
    };

    // Arrival tournament: losers notify winners and drop out. A
    // declared-dead loser's arrival is waived (it will never signal);
    // a flag it set *before* dying is consumed normally.
    unsigned lost_round = rounds + 1;
    for (unsigned k = 1; k <= rounds; ++k) {
        const unsigned step = 1u << k;
        const unsigned half = 1u << (k - 1);
        if (i % step == half) {
            co_await t.write(arrive_flag(k, i - half), 1);
            lost_round = k;
            break;
        }
        if (i % step == 0 && i + half < goal) {
            // Winner: wait for the partner, then reset the flag.
            const unsigned peer = i + half;
            std::uint64_t v = co_await spinUntil(
                t, arrive_flag(k, i),
                [this, peer](std::uint64_t v) {
                    return v != 0 || deadParticipant(peer);
                },
                8);
            if (v != 0)
                co_await t.write(arrive_flag(k, i), 0);
        }
        // else: bye — advance without a partner.
    }

    // Wakeup tree: the champion starts the release wave. A loser
    // whose round-winner died self-wakes (nobody will signal it) and
    // then runs its own wake wave below, so the release still
    // propagates through the corpse's subtree.
    if (i != 0) {
        const unsigned waker =
            lost_round <= rounds ? i - (1u << (lost_round - 1)) : 0;
        std::uint64_t v = co_await spinUntil(
            t, wake_flag(i),
            [this, waker](std::uint64_t v) {
                return v != 0 || deadParticipant(waker);
            },
            8);
        if (v != 0)
            co_await t.write(wake_flag(i), 0);
    }
    for (unsigned k = lost_round - 1; k >= 1; --k) {
        const unsigned half = 1u << (k - 1);
        if (i % (1u << k) == 0 && i + half < goal)
            co_await t.write(wake_flag(i + half), 1);
    }
}

// --- Ticket-based condition variable -----------------------------------------

SubTask<>
SyncLib::swCondWait(ThreadApi t, Addr c, Addr m)
{
    const Addr a = aux(c, 3 * blockBytes);
    const Addr ilock = a, enq = a + blockBytes, served = a + 2 * blockBytes;

    co_await spinLock(t, ilock);
    std::uint64_t ticket = co_await t.read(enq);
    co_await t.write(enq, ticket + 1);
    co_await spinUnlock(t, ilock);

    // Release the user mutex while waiting (through the public API:
    // in the Hw flavor this uses the hybrid unlock, as the paper's
    // sw_cond_wait requires).
    co_await mutexUnlock(t, m);
    co_await futexWait(
        t, served, [ticket](std::uint64_t v) { return v > ticket; });
    co_await mutexLock(t, m);
}

SubTask<>
SyncLib::swCondSignal(ThreadApi t, Addr c)
{
    const Addr a = aux(c, 3 * blockBytes);
    const Addr ilock = a, enq = a + blockBytes, served = a + 2 * blockBytes;
    co_await spinLock(t, ilock);
    std::uint64_t e = co_await t.read(enq);
    std::uint64_t s = co_await t.read(served);
    if (s < e)
        co_await t.write(served, s + 1);
    co_await spinUnlock(t, ilock);
}

SubTask<>
SyncLib::swCondBroadcast(ThreadApi t, Addr c)
{
    const Addr a = aux(c, 3 * blockBytes);
    const Addr ilock = a, enq = a + blockBytes, served = a + 2 * blockBytes;
    co_await spinLock(t, ilock);
    std::uint64_t e = co_await t.read(enq);
    co_await t.write(served, e);
    co_await spinUnlock(t, ilock);
}

} // namespace sync
} // namespace misar
