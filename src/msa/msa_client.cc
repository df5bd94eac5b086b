#include "msa/msa_client.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace misar {
namespace msa {

namespace {

/** Number of sync instructions that count as operations (all but
 *  Finish, the last). */
constexpr unsigned countedInstrs =
    static_cast<unsigned>(cpu::SyncInstr::Finish);

/** "sync.<INSTR>." for every counted instruction, by its value. */
const std::vector<std::string> &
instrStatPrefixes()
{
    static const std::vector<std::string> v = [] {
        std::vector<std::string> p;
        for (unsigned i = 0; i < countedInstrs; ++i)
            p.push_back(std::string("sync.") +
                        cpu::syncInstrName(static_cast<cpu::SyncInstr>(i)) +
                        ".");
        return p;
    }();
    return v;
}

} // namespace

MsaClientHub::MsaClientHub(EventQueue &eq, const SystemConfig &cfg,
                           mem::MemSystem &ms, StatRegistry &stats)
    : eq(eq), cfg(cfg), ms(ms), stats(stats), cores(cfg.numThreads()),
      swOps(stats, "sync.swOps"), hwOps(stats, "sync.hwOps"),
      silentLocks(stats, "sync.silentLocks"),
      homeUnreachable(cfg.numCores, false)
{
    opsByInstr.reserve(2 * countedInstrs);
    for (const std::string &prefix : instrStatPrefixes()) {
        opsByInstr.emplace_back(stats, prefix, "sw");
        opsByInstr.emplace_back(stats, prefix, "hw");
    }

    // Let every L1 ask "is this block a silently-held lock?" so it
    // can pin the line and defer snoops while the lock is held. The
    // cache is per tile: check every hardware thread living there.
    for (CoreId t = 0; t < cfg.numCores; ++t) {
        ms.l1(t).setHoldQuery([this, t, ways = cfg.smtWays](Addr block) {
            for (unsigned w = 0; w < ways; ++w) {
                for (Addr a : cores[t * ways + w].silentHeld)
                    if (blockAlign(a) == block)
                        return true;
            }
            return false;
        });
    }
}

CoreId
MsaClientHub::homeOf(Addr a) const
{
    return mem::homeTile(blockAlign(a), cfg.numCores);
}

void
MsaClientHub::markHomeUnreachable(CoreId home)
{
    if (home >= homeUnreachable.size() || homeUnreachable[home])
        return;
    homeUnreachable[home] = true;
    anyUnreachable = true;
}

void
MsaClientHub::attachObservers(obs::Tracer *t, obs::SyncProfiler *p)
{
    tracer = t;
    profiler = p;
    if (tracer) {
        coreTrack.reserve(cores.size());
        for (std::size_t c = 0; c < cores.size(); ++c)
            coreTrack.push_back(
                tracer->addTrack(obs::pidCores, static_cast<unsigned>(c),
                                 "core " + std::to_string(c)));
    }
}

void
MsaClientHub::countOp(const cpu::Op &op, bool hw)
{
    if (op.instr == cpu::SyncInstr::Finish)
        return; // bookkeeping, not a synchronization operation
    (hw ? hwOps : swOps).inc();
    opsByInstr[2 * static_cast<unsigned>(op.instr) + hw].inc();
}

void
MsaClientHub::sendRequest(CoreId core, const cpu::Op &op)
{
    MsaOp mop;
    switch (op.instr) {
      case cpu::SyncInstr::Lock:
        mop = MsaOp::Lock;
        break;
      case cpu::SyncInstr::TryLock:
        mop = MsaOp::TryLock;
        break;
      case cpu::SyncInstr::Unlock:
        mop = MsaOp::Unlock;
        break;
      case cpu::SyncInstr::RdLock:
        mop = MsaOp::RdLock;
        break;
      case cpu::SyncInstr::WrLock:
        mop = MsaOp::WrLock;
        break;
      case cpu::SyncInstr::RwUnlock:
        mop = MsaOp::RwUnlock;
        break;
      case cpu::SyncInstr::Barrier:
        mop = MsaOp::Barrier;
        break;
      case cpu::SyncInstr::CondWait:
        mop = MsaOp::CondWait;
        break;
      case cpu::SyncInstr::CondSignal:
        mop = MsaOp::CondSignal;
        break;
      case cpu::SyncInstr::CondBcast:
        mop = MsaOp::CondBcast;
        break;
      case cpu::SyncInstr::Finish:
        mop = MsaOp::Finish;
        break;
      default:
        panic("client %u: bad sync instruction", core);
    }
    auto m = std::make_shared<MsaMsg>(cfg.tileOf(core),
                                      homeOf(op.addr), mop, op.addr);
    m->addr2 = op.addr2;
    m->goal = op.goal;
    m->requester = core;
    // Transaction id: lets the slice deduplicate retransmissions and
    // lets us discard stale responses. opSeq is never 0 here (it is
    // pre-incremented before the first send).
    m->txn = cores[core].opSeq;
    m->flowId = cores[core].flowId;
    if (mop == MsaOp::Unlock || mop == MsaOp::RwUnlock) {
        // Echo the grant's wire epoch so a release overtaken by a
        // lease revocation is fenced at the home (missing entry =>
        // epoch 0 => never fenced: the lock was not granted to us).
        auto it = cores[core].heldEpoch.find(op.addr);
        if (it != cores[core].heldEpoch.end())
            m->epoch = it->second;
    }
    if (op.instr == cpu::SyncInstr::CondWait) {
        PerCore &pc = cores[core];
        if (pc.silentHeld.count(op.addr2))
            m->lockHeldSilently = true;
        // COND_WAIT releases the lock on our behalf, and marks the
        // lock cond-associated so it skips the silent path from now
        // on (see PerCore::condAssociated).
        pc.hwHeld.erase(op.addr2);
        pc.condAssociated.insert(op.addr2);
        pc.silentAddrOfBlock.erase(blockAlign(op.addr2));
    }
    ms.send(std::move(m));
}

void
MsaClientHub::execute(CoreId core, const cpu::Op &op, Cb cb)
{
    PerCore &pc = cores[core];
    if (pc.active)
        panic("client %u: second outstanding sync instruction", core);

    auto silent_eligible = [&](Addr a) {
        // The silent fast path relies on exclusive per-thread block
        // ownership; SMT siblings share the L1 line, so a sibling's
        // access could not be deferred. A real design would tag the
        // HWSync bit with the hardware-thread id; we disable the
        // optimization under SMT instead.
        if (cfg.smtWays > 1)
            return false;
        if (!cfg.msa.hwSyncBitOpt ||
            !ms.l1(cfg.tileOf(core)).hasWritableHwSync(a))
            return false;
        auto it = pc.silentAddrOfBlock.find(blockAlign(a));
        return it != pc.silentAddrOfBlock.end() && it->second == a;
    };

    if ((op.instr == cpu::SyncInstr::Lock ||
         op.instr == cpu::SyncInstr::TryLock) &&
        silent_eligible(op.addr)) {
        // §5 fast path: re-acquire locally; notify the home without
        // waiting. The L1 defers snoops on this block from now on.
        pc.silentHeld.insert(op.addr);
        auto m = std::make_shared<MsaMsg>(cfg.tileOf(core),
                                          homeOf(op.addr),
                                          MsaOp::LockSilent, op.addr);
        m->requester = core;
        ms.send(std::move(m));
        silentLocks.inc();
        countOp(op, true);
        if (profiler)
            profiler->onSilentAcquire(core, op.addr, eq.now());
        if (tracer)
            tracer->instant(coreTrack[core], eq.now(), "LOCK_SILENT",
                            op.addr);
        cb(cpu::SyncResult::Success);
        return;
    }

    if (op.instr == cpu::SyncInstr::RwUnlock &&
        pc.hwHeld.count(op.addr)) {
        // Hardware-held RW locks release like regular ones: the
        // entry cannot vanish while held, so complete locally.
        pc.hwHeld.erase(op.addr);
        auto m = std::make_shared<MsaMsg>(cfg.tileOf(core),
                                          homeOf(op.addr),
                                          MsaOp::RwUnlock, op.addr);
        m->requester = core;
        m->noReply = true;
        if (auto it = pc.heldEpoch.find(op.addr);
            it != pc.heldEpoch.end()) {
            m->epoch = it->second;
            pc.heldEpoch.erase(it);
        }
        ms.send(std::move(m));
        pc.releaseSent[op.addr] = eq.now();
        countOp(op, true);
        if (profiler)
            profiler->onHwRelease(core, op.addr, eq.now());
        cb(cpu::SyncResult::Success);
        return;
    }

    if (op.instr == cpu::SyncInstr::Unlock && pc.hwHeld.count(op.addr)) {
        // The lock is hardware-held: its entry cannot vanish while
        // owned, so UNLOCK is guaranteed to succeed. Complete the
        // instruction now (release semantics) and let the home hand
        // the lock off asynchronously.
        pc.hwHeld.erase(op.addr);
        auto m = std::make_shared<MsaMsg>(cfg.tileOf(core),
                                          homeOf(op.addr),
                                          MsaOp::Unlock, op.addr);
        m->requester = core;
        m->noReply = true;
        if (auto it = pc.heldEpoch.find(op.addr);
            it != pc.heldEpoch.end()) {
            m->epoch = it->second;
            pc.heldEpoch.erase(it);
        }
        ms.send(std::move(m));
        pc.releaseSent[op.addr] = eq.now();
        countOp(op, true);
        if (profiler)
            profiler->onHwRelease(core, op.addr, eq.now());
        cb(cpu::SyncResult::Success);
        return;
    }

    if (op.instr == cpu::SyncInstr::Unlock &&
        pc.silentHeld.count(op.addr)) {
        // Silent release: drop the hold, let any stalled snoop
        // proceed, and notify the home without waiting.
        pc.silentHeld.erase(op.addr);
        ms.l1(cfg.tileOf(core)).flushDeferred(op.addr);
        auto m = std::make_shared<MsaMsg>(cfg.tileOf(core),
                                          homeOf(op.addr),
                                          MsaOp::UnlockSilent, op.addr);
        m->requester = core;
        ms.send(std::move(m));
        pc.releaseSent[op.addr] = eq.now();
        countOp(op, true);
        if (profiler)
            profiler->onHwRelease(core, op.addr, eq.now());
        if (tracer)
            tracer->instant(coreTrack[core], eq.now(), "UNLOCK_SILENT",
                            op.addr);
        cb(cpu::SyncResult::Success);
        return;
    }

    if (anyUnreachable && homeUnreachable[homeOf(op.addr)]) {
        // The home tile is partitioned off: the request could only
        // time out and abandon. Fail fast so Algorithms 1-3 route
        // the op straight to software.
        stats.counter("resil.unreachableFastFails").inc();
        countOp(op, false);
        cb(cpu::SyncResult::Fail);
        return;
    }

    pc.active = true;
    pc.op = op;
    pc.cb = std::move(cb);
    pc.interrupted = false;
    ++pc.opSeq;
    pc.retries = 0;
    pc.issuedAt = eq.now();
    pc.flowId = tracer ? tracer->newFlowId() : 0;
    pc.respFlowId = 0;
    if (tracer)
        tracer->flow(coreTrack[core], obs::FlowPhase::Start, pc.flowId,
                     eq.now(), op.addr);
    sendRequest(core, op);
    armTimeout(core);
}

bool
MsaClientHub::boundedRetry(cpu::SyncInstr k)
{
    switch (k) {
      case cpu::SyncInstr::Unlock:
      case cpu::SyncInstr::RwUnlock:
      case cpu::SyncInstr::CondSignal:
      case cpu::SyncInstr::CondBcast:
      case cpu::SyncInstr::Finish:
        return true;
      default:
        // Blocking acquires (LOCK/RDLOCK/WRLOCK/BARRIER/COND_WAIT)
        // and TRYLOCK retry indefinitely: a locally-invented FAIL
        // would race the software fallback against live hardware
        // ownership (mutual-exclusion loss) or strand barrier peers.
        return false;
    }
}

void
MsaClientHub::armTimeout(CoreId core)
{
    const Tick base = cfg.resil.timeoutTicks;
    if (base == 0)
        return;
    PerCore &pc = cores[core];
    const unsigned shift = std::min(pc.retries, 16u);
    Tick d = base << shift;
    if ((d >> shift) != base || d > cfg.resil.timeoutCap)
        d = cfg.resil.timeoutCap;
    eq.scheduleL(laneOf(core), d,
                 [this, core, seq = pc.opSeq] { onTimeout(core, seq); });
}

void
MsaClientHub::onTimeout(CoreId core, std::uint64_t seq)
{
    PerCore &pc = cores[core];
    if (!pc.active || pc.opSeq != seq)
        return; // the op completed; this deadline is stale
    stats.counter("resil.timeouts").inc();
    if (boundedRetry(pc.op.instr) && pc.retries >= cfg.resil.maxRetries) {
        // Give up: ask the home to reconcile OMU accounting for
        // whatever it saw of this transaction, and resolve FAIL so
        // Algorithms 1-3 route the op to software.
        auto m = std::make_shared<MsaMsg>(cfg.tileOf(core),
                                          homeOf(pc.op.addr),
                                          MsaOp::FailNotice, pc.op.addr);
        m->requester = core;
        m->txn = seq;
        m->suspendKind = pc.op.instr;
        ms.send(std::move(m));
        stats.counter("resil.abandonedOps").inc();
        complete(core, cpu::SyncResult::Fail);
        return;
    }
    ++pc.retries;
    stats.counter("resil.retries").inc();
    // While suspended (interrupted/resendPending) the op is
    // deliberately not enqueued at the home; keep the deadline chain
    // alive but do not retransmit until the thread resumes.
    if (!pc.interrupted && !pc.resendPending)
        sendRequest(core, pc.op);
    armTimeout(core);
}

void
MsaClientHub::complete(CoreId core, cpu::SyncResult result, bool no_silent)
{
    PerCore &pc = cores[core];
    if (!pc.active)
        return; // stale response (op already completed)
    pc.active = false;
    if (profiler)
        profiler->onComplete(core, pc.op, result, pc.issuedAt, eq.now());
    if (tracer) {
        // End the flow with the id the completing response carried
        // when it has one: a held grant arrives on the *releaser's*
        // flow, which stitches the lock handoff chain end-to-end.
        const std::uint64_t fid = pc.respFlowId ? pc.respFlowId
                                                : pc.flowId;
        if (fid)
            tracer->flow(coreTrack[core], obs::FlowPhase::End, fid,
                         eq.now(), pc.op.addr);
    }
    pc.flowId = 0;
    pc.respFlowId = 0;
    // BUSY is a hardware-performed outcome (TRYLOCK observed a held
    // lock at the MSA); only FAIL/ABORT mean the software path ran.
    countOp(pc.op, result == cpu::SyncResult::Success ||
                   result == cpu::SyncResult::Busy);
    if (pc.op.instr == cpu::SyncInstr::Unlock ||
        pc.op.instr == cpu::SyncInstr::RwUnlock)
        pc.heldEpoch.erase(pc.op.addr); // the grant's epoch is spent
    if (result == cpu::SyncResult::Success) {
        // Track hardware-held locks (their unlocks complete locally).
        if (pc.op.instr == cpu::SyncInstr::Lock ||
            pc.op.instr == cpu::SyncInstr::TryLock ||
            pc.op.instr == cpu::SyncInstr::RdLock ||
            pc.op.instr == cpu::SyncInstr::WrLock)
            pc.hwHeld.insert(pc.op.addr);
        else if (pc.op.instr == cpu::SyncInstr::CondWait)
            pc.hwHeld.insert(pc.op.addr2);
        const bool is_lock = pc.op.instr == cpu::SyncInstr::Lock ||
                             pc.op.instr == cpu::SyncInstr::TryLock;
        if (cfg.msa.hwSyncBitOpt && !no_silent &&
            !pc.condAssociated.count(is_lock ? pc.op.addr
                                             : pc.op.addr2)) {
            // A lock grant ships the block with the HWSync bit (paper
            // §5): record which address the bit vouches for. A
            // COND_WAIT success re-acquired the lock the same way.
            if (is_lock)
                pc.silentAddrOfBlock[blockAlign(pc.op.addr)] = pc.op.addr;
            else if (pc.op.instr == cpu::SyncInstr::CondWait)
                pc.silentAddrOfBlock[blockAlign(pc.op.addr2)] =
                    pc.op.addr2;
        }
    }
    if (result == cpu::SyncResult::Abort) {
        // Degraded-mode observability: an ABORT sends the op to the
        // software path with re-acquire semantics (migrated unlocks,
        // suspend-forced demotions, offline-slice shedding).
        stats.counter("sync.abortedOps").inc();
        if (pc.op.instr == cpu::SyncInstr::Barrier)
            stats.counter("sync.barrierDemotions").inc();
    }
    Cb cb = std::move(pc.cb);
    if (pc.interrupted) {
        // The thread was descheduled; it observes the result only
        // after it is scheduled back in.
        pc.interrupted = false;
        eq.scheduleL(laneOf(core), cfg.core.suspendResumeDelay,
                     [cb = std::move(cb), result] { cb(result); });
    } else {
        cb(result);
    }
}

void
MsaClientHub::interrupt(CoreId core)
{
    PerCore &pc = cores[core];
    if (!pc.active || pc.interrupted || pc.resendPending)
        return; // idle, already suspending, or already descheduled
    const cpu::SyncInstr k = pc.op.instr;
    if (k != cpu::SyncInstr::Lock && k != cpu::SyncInstr::Barrier &&
        k != cpu::SyncInstr::CondWait && k != cpu::SyncInstr::RdLock &&
        k != cpu::SyncInstr::WrLock) {
        return; // non-blocking instructions need no SUSPEND
    }
    pc.interrupted = true;
    stats.counter("sync.suspends").inc();
    auto m = std::make_shared<MsaMsg>(cfg.tileOf(core),
                                      homeOf(pc.op.addr), MsaOp::Suspend,
                                      pc.op.addr);
    m->requester = core;
    m->suspendKind = k;
    ms.send(std::move(m));
}

void
MsaClientHub::handleMessage(CoreId core, const std::shared_ptr<MsaMsg> &msg)
{
    PerCore &pc = cores[core];
    if (pc.dead) {
        // A corpse answers nothing — not even a lease probe. The
        // silence is what lets the home's lease expire and revoke.
        stats.counter("resil.deadClientDrops").inc();
        return;
    }
    if (msg->op == MsaOp::LeaseProbe) {
        // Liveness heartbeat answered by the hub hardware on the
        // core's behalf: a live owner renews even while its thread
        // is blocked or descheduled.
        stats.counter("resil.leaseRenewals").inc();
        auto r = std::make_shared<MsaMsg>(cfg.tileOf(core), msg->src(),
                                          MsaOp::LeaseRenew, msg->addr);
        r->requester = core;
        ms.send(std::move(r));
        return;
    }
    if (msg->txn != 0 && (!pc.active || msg->txn != pc.opSeq)) {
        // Response for a transaction we already resolved (e.g. a
        // delayed duplicate racing a cache re-response). Only ever
        // non-zero under fault injection.
        stats.counter("resil.staleResponses").inc();
        return;
    }
    if (isReplyOp(msg->op) && msg->op != MsaOp::UnlockDone &&
        msg->op != MsaOp::SuspendAck) {
        // Remember which flow delivered the (potential) completion.
        pc.respFlowId = msg->flowId;
    }
    switch (msg->op) {
      case MsaOp::UnlockDone:
      case MsaOp::RespSuccess:
        if (msg->handoff) {
            // An unlock of ours handed the lock to a waiter: the
            // silent privilege is gone (the grant's invalidation may
            // still be in flight; dropping the record now closes the
            // re-acquire window, and at worst costs an optimization).
            pc.silentAddrOfBlock.erase(blockAlign(msg->addr));
            ms.l1(cfg.tileOf(core)).clearHwSync(msg->addr);
        }
        if (msg->op == MsaOp::RespSuccess) {
            if (msg->epoch != 0) {
                // Grant epoch: echoed on the matching release so the
                // home can fence it if a revocation intervenes.
                pc.heldEpoch[msg->addr] = msg->epoch;
            }
            complete(core, cpu::SyncResult::Success, msg->noSilent);
        }
        break;
      case MsaOp::RespFail:
        complete(core, cpu::SyncResult::Fail);
        break;
      case MsaOp::RespAbort:
        complete(core, cpu::SyncResult::Abort);
        break;
      case MsaOp::RespBusy:
        complete(core, cpu::SyncResult::Busy);
        break;

      case MsaOp::SuspendAck:
        // Lock-waiter dequeue acknowledged: the squashed LOCK
        // re-executes once the thread is scheduled back (paper
        // §4.1.2). Ignore if the grant crossed in flight and already
        // completed the instruction.
        if (pc.active && pc.interrupted &&
            (pc.op.instr == cpu::SyncInstr::Lock ||
             pc.op.instr == cpu::SyncInstr::RdLock ||
             pc.op.instr == cpu::SyncInstr::WrLock)) {
            pc.interrupted = false;
            pc.resendPending = true;
            eq.scheduleL(laneOf(core), cfg.core.suspendResumeDelay,
                         [this, core, seq = pc.opSeq] {
                PerCore &p = cores[core];
                p.resendPending = false;
                // Only re-send if the suspended LOCK is still the
                // outstanding operation (not a later one).
                if (p.active && p.opSeq == seq &&
                    (p.op.instr == cpu::SyncInstr::Lock ||
                     p.op.instr == cpu::SyncInstr::RdLock ||
                     p.op.instr == cpu::SyncInstr::WrLock))
                    sendRequest(core, p.op);
            });
        }
        break;

      default:
        panic("client %u: unexpected MSA message op %d", core,
              static_cast<int>(msg->op));
    }
}

MsaClientHub::OpSnapshot
MsaClientHub::snapshot(CoreId core) const
{
    const PerCore &pc = cores[core];
    OpSnapshot s;
    s.active = pc.active;
    s.interrupted = pc.interrupted || pc.resendPending;
    s.retries = pc.retries;
    s.issuedAt = pc.issuedAt;
    if (pc.active) {
        s.instr = pc.op.instr;
        s.addr = pc.op.addr;
        s.addr2 = pc.op.addr2;
    }
    return s;
}

bool
MsaClientHub::holdsHw(CoreId core, Addr a) const
{
    const PerCore &pc = cores[core];
    return pc.hwHeld.count(a) != 0 || pc.silentHeld.count(a) != 0;
}

Tick
MsaClientHub::releaseSentAt(CoreId core, Addr a) const
{
    const auto &rs = cores[core].releaseSent;
    auto it = rs.find(a);
    return it == rs.end() ? 0 : it->second;
}

void
MsaClientHub::killCore(CoreId core)
{
    PerCore &pc = cores[core];
    if (pc.dead)
        return;
    pc.dead = true;
    stats.counter("resil.clientKills").inc();
    // The outstanding op's callback targets a corpse: drop it. Stale
    // timeouts see active == false and die quietly.
    pc.active = false;
    pc.cb = nullptr;
    pc.interrupted = false;
    pc.resendPending = false;
    // Release silent holds at the L1: a silently-held lock block
    // defers snoops until release, and the corpse never releases.
    // Flushing re-enables invalidations, so the pending grant or
    // software atomic serializes after the abandoned hold — silent
    // locks recover through coherence alone, no lease involved.
    for (Addr a : pc.silentHeld)
        ms.l1(cfg.tileOf(core)).flushDeferred(a);
    pc.silentHeld.clear();
    pc.silentAddrOfBlock.clear();
    // pc.hwHeld is kept: it mirrors grants the slices still record
    // for the corpse, which the invariant checker cross-checks until
    // the lease machinery revokes them.
}

} // namespace msa
} // namespace misar
