#include "msa/msa_slice.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace misar {
namespace msa {

MsaSlice::MsaSlice(EventQueue &eq, const SystemConfig &cfg, CoreId tile,
                   mem::HomeSlice &home, SendFn send, StatRegistry &stats)
    : eq(eq), cfg(cfg), tile(tile), home(home), send(std::move(send)),
      stats(stats), statPrefix("tile" + std::to_string(tile) + ".msa."),
      requests(stats, statPrefix, "requests"),
      deferrals(stats, statPrefix, "deferred"),
      allocations(stats, statPrefix, "allocations"),
      evictions(stats, statPrefix, "evictions"),
      lockGrants(stats, statPrefix, "lockGrants"),
      lockAborts(stats, statPrefix, "lockAborts"),
      lockSuspends(stats, statPrefix, "lockSuspends"),
      migratedUnlocks(stats, statPrefix, "migratedUnlocks"),
      silentLocks(stats, statPrefix, "silentLocks"),
      silentUnlocks(stats, statPrefix, "silentUnlocks"),
      barrierReleases(stats, statPrefix, "barrierReleases"),
      barrierAborts(stats, statPrefix, "barrierAborts"),
      barrierSuspendsDeferred(stats, statPrefix, "barrierSuspendsDeferred"),
      condSignals(stats, statPrefix, "condSignals"),
      condBroadcasts(stats, statPrefix, "condBroadcasts"),
      condAborts(stats, statPrefix, "condAborts"),
      infinite(cfg.msa.mode == AccelMode::MsaInfinite),
      _omu(cfg.msa.omuCounters, stats, statPrefix),
      txns(cfg.numThreads())
{
    if (!infinite)
        entries.resize(cfg.msa.msaEntries);
}

void
MsaSlice::attachObservers(obs::Tracer *t, obs::SyncProfiler *p)
{
    tracer = t;
    profiler = p;
    if (tracer)
        track = tracer->addTrack(obs::pidMsa, tile,
                                 "slice " + std::to_string(tile));
}

void
MsaSlice::attachMonitor(obs::ResourceMonitor *m)
{
    monitor = m;
}

void
MsaSlice::traceInstant(const char *name, Addr a, std::uint64_t value,
                       bool has_value)
{
    if (tracer)
        tracer->instant(track, eq.now(), name, a, value, has_value);
}

void
MsaSlice::forEachEntry(const std::function<void(const MsaEntry &)> &fn) const
{
    for (const auto &e : entries)
        if (e.valid)
            fn(e);
}

unsigned
MsaSlice::validEntries() const
{
    unsigned n = 0;
    for (const auto &e : entries)
        n += e.valid;
    return n;
}

unsigned
MsaSlice::freeEntries() const
{
    return static_cast<unsigned>(entries.size()) - validEntries();
}

const MsaEntry *
MsaSlice::findEntry(Addr addr) const
{
    const std::uint32_t *slot = entryIndex.find(addr);
    if (!slot)
        return nullptr;
    const MsaEntry &e = entries[*slot];
    if (!e.valid || e.addr != addr)
        panic("MSA %u: entry index out of sync for %llx", tile,
              static_cast<unsigned long long>(addr));
    return &e;
}

MsaEntry *
MsaSlice::find(Addr addr)
{
    return const_cast<MsaEntry *>(
        static_cast<const MsaSlice *>(this)->findEntry(addr));
}

bool
MsaSlice::typeSupported(SyncType t) const
{
    switch (t) {
      case SyncType::Lock:
      case SyncType::RwLock: // rides the lock flag (Fig 9 study)
        return cfg.msa.support.locks;
      case SyncType::Barrier:
        return cfg.msa.support.barriers;
      case SyncType::Cond:
        return cfg.msa.support.condVars;
    }
    return false;
}

void
MsaSlice::omuInc(Addr a, std::uint32_t n)
{
    if (!cfg.msa.omuEnabled)
        return;
    _omu.increment(a, n);
    traceInstant("OMU_INC", a, _omu.count(a), true);
    if (monitor)
        monitor->omuUpdate(tile, _omu.activeCounters(), _omu.count(a),
                           eq.now());
}

void
MsaSlice::omuDec(Addr a, std::uint32_t n)
{
    if (!cfg.msa.omuEnabled)
        return;
    _omu.decrement(a, n);
    traceInstant("OMU_DEC", a, _omu.count(a), true);
    if (monitor)
        monitor->omuUpdate(tile, _omu.activeCounters(), _omu.count(a),
                           eq.now());
}

bool
MsaSlice::omuActive(Addr a) const
{
    return cfg.msa.omuEnabled && _omu.active(a);
}

void
MsaSlice::freeEntry(MsaEntry &e)
{
    entryIndex.erase(e.addr);
    e.reset();
}

void
MsaSlice::freeCondEntry(MsaEntry &e)
{
    // The cond entry's pin on its lock entry goes with it.
    const Addr lock = e.lockAddr;
    send(std::make_shared<MsaMsg>(
        tile, mem::homeTile(blockAlign(lock), cfg.numCores), MsaOp::Unpin,
        lock));
    freeEntry(e);
}

void
MsaSlice::retireEntry(MsaEntry &e)
{
    if (cfg.msa.omuEnabled) {
        traceInstant("EVICT", e.addr);
        freeEntry(e);
        evictions.inc();
        return;
    }
    // Without the OMU, deallocation is unsafe (paper §3.2): park the
    // entry; the address keeps it forever.
    e.hwQueue.reset();
    e.owner = invalidCore;
    e.busy = false;
}

std::shared_ptr<MsaMsg>
MsaSlice::makeClientResp(CoreId core, MsaOp op, Addr addr)
{
    auto m = std::make_shared<MsaMsg>(tile, cfg.tileOf(core), op, addr);
    m->requester = core;
    m->flowId = curFlowId;
    if (op == MsaOp::RespSuccess || op == MsaOp::RespFail ||
        op == MsaOp::RespAbort || op == MsaOp::RespBusy) {
        // Which transaction does this answer? The one being
        // dispatched right now if it is this core's own request;
        // otherwise the core's latest tracked request (held replies:
        // lock/barrier/RW grants delivered long after arrival).
        // On-behalf wake-ups (cond grants from the lock home) have
        // id <= done and stay untracked (txn 0), which the client
        // accepts unconditionally.
        ClientTxn &ct = txns[core];
        const std::uint64_t id = ct.cur ? ct.cur : ct.seen;
        if (id > ct.done) {
            ct.done = id;
            ct.doneOp = op;
            ct.doneHandoff = false;
            m->txn = id;
        }
    }
    return m;
}

void
MsaSlice::respond(CoreId core, MsaOp op, Addr addr)
{
    send(makeClientResp(core, op, addr));
}

void
MsaSlice::respondFinal(CoreId core, MsaOp op, Addr addr, bool handoff,
                       bool no_silent)
{
    auto m = makeClientResp(core, op, addr);
    m->handoff = handoff;
    m->noSilent = no_silent;
    if (m->txn != 0)
        txns[core].doneHandoff = handoff;
    send(std::move(m));
}

void
MsaSlice::defer(const std::shared_ptr<MsaMsg> &msg)
{
    deferred.push_back(msg);
    deferrals.inc();
}

void
MsaSlice::drainDeferred()
{
    std::deque<std::shared_ptr<MsaMsg>> drained;
    drained.swap(deferred);
    for (auto &m : drained) {
        // Re-enter below the dedup gate: a deferred original must
        // not be mistaken for a retransmission of itself.
        eq.scheduleL(_lane, cfg.msa.msaLatency,
                    [this, m = std::move(m)] { dispatch(m); });
    }
}

void
MsaSlice::handleMessage(std::shared_ptr<MsaMsg> msg)
{
    eq.scheduleL(_lane, cfg.msa.msaLatency,
                [this, m = std::move(msg)] { process(m); });
}

void
MsaSlice::process(const std::shared_ptr<MsaMsg> &msg)
{
    requests.inc();
    if (buddy != invalidCore) {
        // Failed over: this slice is only a forwarding shell. Every
        // message — requests, retransmissions, even in-flight acks —
        // goes to the buddy, which holds the merged dedup state.
        forwardToBuddy(msg);
        return;
    }
    if (awaitingHandoff && msg->op != MsaOp::SliceHandoff) {
        // Buddy side of a failover: hold all traffic until the
        // handed-off state is merged, then re-enter it through this
        // same gate in arrival order.
        awaitingQueue.push_back(msg);
        return;
    }
    if (msg->txn != 0 && msg->op != MsaOp::FailNotice) {
        // Transaction-tracked client request: deduplicate against
        // retransmissions (at-most-once execution).
        ClientTxn &ct = txns[msg->requester];
        if (msg->txn == ct.done) {
            // Completed already — the final response was lost or
            // outrun; re-answer from the completion cache.
            stats.counter(statPrefix + "dupCompleted").inc();
            auto r = std::make_shared<MsaMsg>(
                tile, cfg.tileOf(msg->requester), ct.doneOp, msg->addr);
            r->requester = msg->requester;
            r->txn = ct.done;
            r->handoff = ct.doneHandoff;
            r->noSilent = true;
            r->flowId = msg->flowId;
            send(std::move(r));
            return;
        }
        if (msg->txn <= ct.seen) {
            // Duplicate of a transaction still in progress (queued,
            // deferred, or already superseded); drop it.
            stats.counter(statPrefix + "dupInProgress").inc();
            return;
        }
        ct.seen = msg->txn;
    }
    dispatch(msg);
}

void
MsaSlice::dispatch(const std::shared_ptr<MsaMsg> &msg)
{
    const bool tracked = msg->txn != 0 && msg->op != MsaOp::FailNotice &&
                         msg->requester != invalidCore;
    if (tracked)
        txns[msg->requester].cur = msg->txn;
    curFlowId = msg->flowId;
    if (tracer) {
        // A 1-tick slice on this row per dispatched request; the flow
        // step at the same tick binds inside it, linking the issuing
        // core's flow through this slice to the eventual response.
        tracer->complete(track, eq.now(), eq.now() + 1,
                         msaOpName(msg->op), msg->addr);
        if (curFlowId)
            tracer->flow(track, obs::FlowPhase::Step, curFlowId, eq.now(),
                         msg->addr);
    }
    switch (msg->op) {
      case MsaOp::Lock:
        doLock(msg);
        break;
      case MsaOp::TryLock:
        doTryLock(msg);
        break;
      case MsaOp::Unlock:
        doUnlock(msg);
        break;
      case MsaOp::RdLock:
        doRwLock(msg, false);
        break;
      case MsaOp::WrLock:
        doRwLock(msg, true);
        break;
      case MsaOp::RwUnlock:
        doRwUnlock(msg);
        break;
      case MsaOp::Barrier:
        doBarrier(msg);
        break;
      case MsaOp::CondWait:
        doCondWait(msg);
        break;
      case MsaOp::CondSignal:
        doCondSignal(msg, false);
        break;
      case MsaOp::CondBcast:
        doCondSignal(msg, true);
        break;
      case MsaOp::Finish:
        doFinish(msg);
        break;
      case MsaOp::Suspend:
        doSuspend(msg);
        break;
      case MsaOp::LockSilent:
        // Entry-less notification: the silent holder re-acquired.
        silentLocks.inc();
        break;
      case MsaOp::UnlockSilent:
        silentUnlocks.inc();
        break;
      case MsaOp::UnlockPin:
        doUnlockPin(msg);
        break;
      case MsaOp::UnlockOnBehalf:
        doUnlockOnBehalf(msg);
        break;
      case MsaOp::LockOnBehalf:
        doLockOnBehalf(msg, false);
        break;
      case MsaOp::LockUnpin:
        doLockOnBehalf(msg, true);
        break;
      case MsaOp::Unpin:
        doUnpin(msg);
        break;
      case MsaOp::UnlockPinAck:
        doUnlockPinResp(msg, true);
        break;
      case MsaOp::UnlockPinNack:
        doUnlockPinResp(msg, false);
        break;
      case MsaOp::FailNotice:
        doFailNotice(msg);
        break;
      case MsaOp::LeaseRenew:
        doLeaseRenew(msg);
        break;
      case MsaOp::SliceHandoff:
        doHandoff(msg);
        break;
      default:
        panic("MSA %u: unexpected message op %d", tile,
              static_cast<int>(msg->op));
    }
    if (tracked)
        txns[msg->requester].cur = 0;
    curFlowId = 0;
}

MsaEntry *
MsaSlice::claimSlot(Addr addr, bool grow)
{
    auto it = std::find_if(entries.begin(), entries.end(),
                           [](const MsaEntry &e) { return !e.valid; });
    if (it == entries.end()) {
        if (!grow)
            return nullptr;
        it = entries.emplace(it);
    }
    it->reset();
    it->valid = true;
    it->addr = addr;
    entryIndex.insert(addr, static_cast<std::uint32_t>(it - entries.begin()));
    return &*it;
}

MsaEntry *
MsaSlice::allocate(Addr addr)
{
    if (offline) {
        // Decommissioned: every miss is denied, so the acquire
        // gate's FAIL (omuInc + RespFail) routes the address to
        // software.
        stats.counter(statPrefix + "offlineDenied").inc();
        traceInstant("OFFLINE_DENY", addr);
        return nullptr;
    }
    // Only MSA-inf grows past its configured entries.
    if (MsaEntry *e = claimSlot(addr, infinite)) {
        allocations.inc();
        traceInstant("ALLOC", addr);
        return e;
    }
    traceInstant("OVERFLOW", addr);
    if (monitor)
        monitor->onOverflow(tile, eq.now());
    return nullptr;
}

void
MsaSlice::release(MsaEntry &e)
{
    if (e.hwQueue.any())
        panic("MSA %u: releasing entry with a non-empty HWQueue", tile);
    e.owner = invalidCore;
    if (e.pinCount > 0)
        return; // pinned by condition variables; keep the entry
    retireEntry(e);
}

CoreId
MsaSlice::pickNext(MsaEntry &e)
{
    const unsigned n = cfg.numThreads();
    for (unsigned i = 0; i < n; ++i) {
        CoreId c = (nbtc + i) % n;
        if (e.hwQueue.test(c)) {
            nbtc = (c + 1) % n;
            return c;
        }
    }
    panic("MSA %u: pickNext on an empty HWQueue", tile);
}

void
MsaSlice::grantLock(MsaEntry &e, CoreId core)
{
    e.owner = core;
    const Addr addr = e.addr;
    lockGrants.inc();
    if (profiler)
        profiler->onGrant(addr, core);

    // The HWSync privilege (paper §5) only pays off when the grantee
    // is likely the next acquirer, so do not push the block when
    // other waiters are queued, when the lock is pinned by condition
    // variables (a silent hold has no MSA entry, which would break
    // the cond-in-HW => lock-in-HW invariant), or when the
    // optimization is off.
    const bool contended = e.hwQueue.count() > 1;
    // An offline slice keeps serving pinned/live entries until they
    // drain, but must not mint new silent privileges: the entry will
    // be shed at release, and a dangling privilege would outlive it.
    const bool want_push =
        cfg.msa.hwSyncBitOpt && e.pinCount == 0 && !contended && !offline;
    // A copy pushed to some *other* core earlier may still carry the
    // silent privilege; it must be revoked (invalidated, ack-gated)
    // before this grant completes. Freshly allocated entries always
    // take the gated path (want_push) because a privilege from a
    // previous entry generation may be outstanding.
    const bool need_revoke =
        e.pushedTo != invalidCore && e.pushedTo != core;

    // The push/revoke paths respond from an asynchronous coherence
    // callback, outside the dispatch window of the request that
    // triggered this grant: carry its flow id across the gap so the
    // response still closes (or hands off) the right flow.
    auto respond_grant = [this, core, addr, fid = curFlowId](
                             bool no_silent) {
        const std::uint64_t saved = curFlowId;
        curFlowId = fid;
        auto m = makeClientResp(core, MsaOp::RespSuccess, addr);
        m->noSilent = no_silent;
        m->epoch = wireEpoch(addr);
        send(std::move(m));
        curFlowId = saved;
    };

    // Arm the lease on the fresh grant: if the owner dies without
    // releasing, the missed renewals let this slice revoke the
    // orphaned lock instead of deadlocking its waiters.
    if (leasesEnabled())
        scheduleLease(e);

    // A variable re-homed here by a slice failover keeps its cache
    // home on the original (still-alive) tile: push/revoke through
    // the directory that actually owns the block.
    mem::HomeSlice &dir =
        homeLookup ? homeLookup(blockAlign(addr)) : home;

    // The block lives in the thread's tile-level L1; pushedTo tracks
    // the thread (its tile's cache holds the privilege copy).
    if (want_push) {
        // Ship the block in E state with the HWSync bit set along
        // with the SUCCESS response (paper §5).
        e.pushedTo = core;
        dir.grantExclusive(blockAlign(addr), cfg.tileOf(core), true,
                           [respond_grant] { respond_grant(false); });
    } else if (need_revoke) {
        // Strip the stale copy; push without the bit.
        e.pushedTo = invalidCore;
        dir.grantExclusive(blockAlign(addr), cfg.tileOf(core), false,
                           [respond_grant] { respond_grant(true); });
    } else {
        respond_grant(true);
    }
}

void
MsaSlice::passLock(MsaEntry &e)
{
    e.hwQueue.reset(e.owner);
    e.owner = invalidCore;
    if (e.hwQueue.any())
        grantLock(e, pickNext(e));
    else
        release(e);
}

bool
MsaSlice::unlockCommon(MsaEntry &e, CoreId core)
{
    if (e.owner != core || !e.hwQueue.test(core))
        return false;
    passLock(e);
    return true;
}

MsaSlice::Gated
MsaSlice::acquireGate(const std::shared_ptr<MsaMsg> &msg, SyncType type)
{
    const Addr addr = msg->addr;
    if (typeSupported(type)) {
        MsaEntry *e = find(addr);
        if (!e) {
            // Miss: allocate only while no software episode is live.
            if (!omuActive(addr) && (e = allocate(addr))) {
                e->type = type;
                return {e, true};
            }
        } else if (!e->tombstone) {
            return {settledEntry(msg, *e, type), false};
        }
    }
    // Unsupported type, tombstone, live OMU counter or no free entry:
    // the request runs in software, and the OMU counts it from now on.
    omuInc(addr);
    respond(msg->requester, MsaOp::RespFail, addr);
    return {};
}

MsaEntry *
MsaSlice::releaseGate(const std::shared_ptr<MsaMsg> &msg, SyncType type)
{
    const Addr addr = msg->addr;
    if (typeSupported(type)) {
        MsaEntry *e = find(addr);
        if (!e && msg->noReply)
            panic("MSA %u: fire-and-forget %s missed entry %llx", tile,
                  msaOpName(msg->op), static_cast<unsigned long long>(addr));
        if (e && !e->tombstone)
            return settledEntry(msg, *e, type);
    }
    // Default-to-software: the matching acquire FAILed too, and this
    // release ends the software episode that FAIL opened.
    omuDec(addr);
    respond(msg->requester, MsaOp::RespFail, addr);
    return nullptr;
}

MsaEntry *
MsaSlice::settledEntry(const std::shared_ptr<MsaMsg> &msg, MsaEntry &e,
                       SyncType type)
{
    if (e.busy) {
        defer(msg);
        return nullptr;
    }
    if (e.type != type)
        panic("MSA %u: %s on an active entry of another type at %llx", tile,
              msaOpName(msg->op), static_cast<unsigned long long>(e.addr));
    return &e;
}

MsaEntry *
MsaSlice::pinnedLockEntry(const std::shared_ptr<MsaMsg> &msg)
{
    MsaEntry *e = find(msg->addr);
    if (!e || e->type != SyncType::Lock)
        panic("MSA %u: %s for unpinned lock %llx", tile, msaOpName(msg->op),
              static_cast<unsigned long long>(msg->addr));
    if (e->busy) {
        defer(msg);
        return nullptr;
    }
    return e;
}

void
MsaSlice::doLock(const std::shared_ptr<MsaMsg> &msg)
{
    const CoreId core = msg->requester;
    MsaEntry *e = acquireGate(msg, SyncType::Lock).entry;
    if (!e)
        return;
    if (e->hwQueue.test(core))
        panic("MSA %u: recursive LOCK by core %u on %llx", tile, core,
              static_cast<unsigned long long>(e->addr));
    e->hwQueue.set(core);
    if (e->hwQueue.count() == 1)
        grantLock(*e, core);
    // else: hold the reply until the lock is handed to us.
}

void
MsaSlice::doTryLock(const std::shared_ptr<MsaMsg> &msg)
{
    // A FAIL from the gate pre-increments the OMU: the requester's
    // software CAS must be ordered after the address becomes
    // software-active, or a concurrent LOCK could win an MSA entry
    // against a software holder. If the software attempt loses, the
    // client cancels the increment with a no-reply FINISH.
    const CoreId core = msg->requester;
    MsaEntry *e = acquireGate(msg, SyncType::Lock).entry;
    if (!e)
        return;
    if (e->hwQueue.any()) {
        // Held (or waited on): report busy without enqueueing.
        respond(core, MsaOp::RespBusy, e->addr);
        return;
    }
    e->hwQueue.set(core);
    grantLock(*e, core);
}

void
MsaSlice::doUnlock(const std::shared_ptr<MsaMsg> &msg)
{
    const Addr addr = msg->addr;
    const CoreId core = msg->requester;

    if (msg->epoch != 0 && msg->epoch < wireEpoch(addr)) {
        // Stale release from a revoked grant generation: the lease
        // machinery already reassigned (or freed) this lock after
        // declaring its owner dead. Fence the release — acting on it
        // would unlock the *new* owner's critical section. handoff
        // revokes any silent-privilege record at the (dead) client.
        // Only a grant gives a release an epoch, so the fence never
        // fires ahead of the gate's unsupported-type FAIL.
        stats.counter(statPrefix + "fencedReleases").inc();
        traceInstant("FENCED_RELEASE", addr, msg->epoch, true);
        respondFinal(core,
                     msg->noReply ? MsaOp::UnlockDone : MsaOp::RespSuccess,
                     addr, /*handoff=*/true);
        return;
    }
    MsaEntry *e = releaseGate(msg, SyncType::Lock);
    if (!e)
        return;
    if (e->owner == core) {
        bool handoff = e->hwQueue.count() > 1;
        if (shedding() && e->pinCount == 0) {
            // Graceful decommission: instead of handing the lock to
            // the next hardware waiter, abort every waiter to
            // software and retire the entry. handoff=true revokes
            // the releaser's silent-privilege record — the word
            // belongs to software acquirers from here on.
            e->hwQueue.reset(core);
            e->owner = invalidCore;
            if (const std::uint32_t n = abortToSoftware(*e))
                stats.counter(statPrefix + "offlineLockAborts").inc(n);
            retireEntry(*e);
            handoff = true;
        } else {
            unlockCommon(*e, core);
        }
        respondFinal(core,
                     msg->noReply ? MsaOp::UnlockDone : MsaOp::RespSuccess,
                     addr, handoff);
        return;
    }

    // UNLOCK from a core that is not the recorded owner: the owning
    // thread migrated (paper §4.1.2).
    migratedUnlocks.inc();
    if (e->pinCount == 0 && cfg.msa.omuEnabled) {
        // Paper behaviour: reply SUCCESS, abort every waiter to
        // software, free the entry, bump the OMU by the abort count.
        respond(core, MsaOp::RespSuccess, addr);
        lockAborts.inc(abortToSoftware(*e));
        freeEntry(*e);
        return;
    }
    // Pinned lock (freeing it would strand its condition variables)
    // or no OMU (an entry cannot be freed safely, paper §3.2): use
    // the tracked owner for a precise handoff instead (see header
    // comment).
    if (e->owner == invalidCore) {
        respond(core, MsaOp::RespFail, addr);
        return;
    }
    unlockCommon(*e, e->owner);
    respond(core, MsaOp::RespSuccess, addr);
}

void
MsaSlice::rwDrain(MsaEntry &e)
{
    // Offline: no new grants; doRwUnlock sheds the waiters once the
    // current holders fully release.
    if (shedding())
        return;
    // Nothing to grant while a writer holds or waiters are absent.
    if (e.owner != invalidCore || !e.hwQueue.any())
        return;
    CoreId next = pickNext(e);
    if (e.waitIsWriter.test(next)) {
        // Writers need full exclusivity.
        if (e.readersHeld.any())
            return;
        e.hwQueue.reset(next);
        e.waitIsWriter.reset(next);
        e.owner = next;
        respondRwGrant(next, e.addr);
        return;
    }
    // Reader at the head: batch-grant every queued reader.
    for (unsigned c = 0; c < cfg.numThreads(); ++c) {
        if (e.hwQueue.test(c) && !e.waitIsWriter.test(c)) {
            e.hwQueue.reset(c);
            e.readersHeld.set(c);
            respondRwGrant(c, e.addr);
        }
    }
}

void
MsaSlice::rwDrainOrRetire(MsaEntry &e)
{
    rwDrain(e);
    if (e.owner == invalidCore && !e.readersHeld.any() && !e.hwQueue.any())
        retireEntry(e);
}

void
MsaSlice::respondRwGrant(CoreId core, Addr addr)
{
    auto m = makeClientResp(core, MsaOp::RespSuccess, addr);
    m->epoch = wireEpoch(addr);
    send(std::move(m));
}

void
MsaSlice::doRwLock(const std::shared_ptr<MsaMsg> &msg, bool writer)
{
    const Addr addr = msg->addr;
    const CoreId core = msg->requester;
    MsaEntry *e = acquireGate(msg, SyncType::RwLock).entry;
    if (!e)
        return;
    if (e->readersHeld.test(core) || e->owner == core ||
        e->hwQueue.test(core))
        panic("MSA %u: recursive RW acquire by core %u on %llx", tile,
              core, static_cast<unsigned long long>(addr));

    if (writer) {
        if (e->owner == invalidCore && !e->readersHeld.any() &&
            !e->hwQueue.any()) {
            e->owner = core;
            respondRwGrant(core, addr);
            return;
        }
    } else {
        // Readers may join unless a writer holds or waits (writer
        // preference prevents starvation).
        const bool writer_waiting = (e->hwQueue & e->waitIsWriter).any();
        if (e->owner == invalidCore && !writer_waiting) {
            e->readersHeld.set(core);
            respondRwGrant(core, addr);
            return;
        }
    }
    // Hold the reply: enqueue.
    e->hwQueue.set(core);
    if (writer)
        e->waitIsWriter.set(core);
    else
        e->waitIsWriter.reset(core);
}

void
MsaSlice::doRwUnlock(const std::shared_ptr<MsaMsg> &msg)
{
    const Addr addr = msg->addr;
    const CoreId core = msg->requester;

    if (msg->epoch != 0 && msg->epoch < wireEpoch(addr)) {
        // Stale release from before a dead-writer revocation (as in
        // doUnlock, it never precedes an unsupported-type FAIL).
        stats.counter(statPrefix + "fencedReleases").inc();
        traceInstant("FENCED_RELEASE", addr, msg->epoch, true);
        if (!msg->noReply)
            respond(core, MsaOp::RespSuccess, addr);
        return;
    }
    MsaEntry *e = releaseGate(msg, SyncType::RwLock);
    if (!e)
        return;

    if (e->owner == core) {
        e->owner = invalidCore;
    } else if (e->readersHeld.test(core)) {
        e->readersHeld.reset(core);
    } else if (cfg.resil.coreFaultsEnabled() && msg->epoch != 0) {
        // A declared-dead reader was already dropped from readersHeld
        // (reader removal does not bump the epoch, so the top-of-
        // function fence cannot catch this): tolerate the stale
        // release instead of panicking.
        stats.counter(statPrefix + "fencedReleases").inc();
        if (!msg->noReply)
            respond(core, MsaOp::RespSuccess, addr);
        return;
    } else {
        panic("MSA %u: RW_UNLOCK by non-holder core %u on %llx", tile,
              core, static_cast<unsigned long long>(addr));
    }

    if (!msg->noReply)
        respond(core, MsaOp::RespSuccess, addr);
    if (shedding()) {
        // Shed only at full release: aborting waiters to software
        // while hardware holders remain would let a software writer
        // acquire the word concurrently with them.
        if (e->owner == invalidCore && !e->readersHeld.any()) {
            if (const std::uint32_t n = abortToSoftware(*e))
                stats.counter(statPrefix + "offlineRwAborts").inc(n);
            retireEntry(*e);
        }
        return;
    }
    rwDrainOrRetire(*e);
}

void
MsaSlice::doBarrier(const std::shared_ptr<MsaMsg> &msg)
{
    const Addr addr = msg->addr;
    const CoreId core = msg->requester;
    const auto [e, fresh] = acquireGate(msg, SyncType::Barrier);
    if (!e)
        return;
    if (fresh)
        e->goal = msg->goal;
    else if (e->goal != msg->goal)
        panic("MSA %u: BARRIER goal mismatch on %llx (%u vs %u)", tile,
              static_cast<unsigned long long>(addr), e->goal, msg->goal);

    if (e->hwQueue.test(core))
        panic("MSA %u: duplicate BARRIER arrival of core %u", tile, core);
    e->hwQueue.set(core);
    if (profiler)
        profiler->onBarrierArrive(addr, eq.now());
    if (barrierQuorumMet(*e))
        releaseBarrier(*e);
}

bool
MsaSlice::barrierQuorumMet(const MsaEntry &e) const
{
    std::uint32_t arrived = static_cast<std::uint32_t>(e.hwQueue.count());
    // Membership reconfiguration (full-participation barriers only —
    // the per-entry goal carries no membership set, so a subset
    // barrier cannot know whether a dead core belongs to it): dead
    // members that have not arrived never will; count them toward
    // the quorum so the live waiters are released.
    if (cfg.resil.coreFaultsEnabled() && deadThreads.any() &&
        e.goal == cfg.numThreads())
        arrived +=
            static_cast<std::uint32_t>((deadThreads & ~e.hwQueue).count());
    return arrived >= e.goal;
}

void
MsaSlice::releaseBarrier(MsaEntry &e)
{
    for (unsigned c = 0; c < cfg.numThreads(); ++c)
        if (e.hwQueue.test(c))
            respond(c, MsaOp::RespSuccess, e.addr);
    barrierReleases.inc();
    traceInstant("BARRIER_RELEASE", e.addr, e.goal, true);
    if (profiler)
        profiler->onBarrierRelease(e.addr, eq.now());
    retireEntry(e);
}

void
MsaSlice::doCondWait(const std::shared_ptr<MsaMsg> &msg)
{
    const Addr cond = msg->addr;
    const Addr lock = msg->addr2;
    const CoreId core = msg->requester;

    // Two FAILs of COND_WAIT's own, sent as the gate sends its FAILs.
    // A waiter that holds the lock via a silent acquire leaves the
    // lock without an MSA entry, so the cond var must go to software
    // (whose unlock path handles the silent hold correctly). An
    // offline slice shed all its cond entries (or aborts them at
    // UnlockPinResp settle), so sending the wait to software keeps
    // every waiter of a condvar in a single (software) domain.
    if (msg->lockHeldSilently || shedding()) {
        omuInc(cond);
        respond(core, MsaOp::RespFail, cond);
        return;
    }
    const auto [e, fresh] = acquireGate(msg, SyncType::Cond);
    if (!e)
        return;
    if (!fresh) {
        if (e->lockAddr != lock)
            panic("MSA %u: COND_WAIT with mismatched lock on %llx", tile,
                  static_cast<unsigned long long>(cond));
        e->hwQueue.set(core);
        // Release the lock the waiter holds (paper §4.3): plain
        // unlock on the waiter's behalf; the pin already exists.
        auto u = std::make_shared<MsaMsg>(
            tile, mem::homeTile(blockAlign(lock), cfg.numCores),
            MsaOp::UnlockOnBehalf, lock);
        u->requester = core;
        send(std::move(u));
        return; // reply held until signal/broadcast
    }
    // Reserve the entry and ask the lock's home to UNLOCK&PIN.
    e->lockAddr = lock;
    e->busy = true;
    auto up = std::make_shared<MsaMsg>(
        tile, mem::homeTile(blockAlign(lock), cfg.numCores),
        MsaOp::UnlockPin, lock);
    up->addr2 = cond;
    up->requester = core;
    send(std::move(up));
}

void
MsaSlice::doUnlockPin(const std::shared_ptr<MsaMsg> &msg)
{
    const Addr lock = msg->addr;
    const Addr cond = msg->addr2;
    const CoreId waiter = msg->requester;
    // Recompute the cond var's home from its address rather than
    // trusting msg->src(): a request forwarded by a failed-over slice
    // carries the forwarder as source, and the reply must reach the
    // cond home (whose own forwarding shell re-routes it if that
    // slice failed over too).
    const CoreId cond_home = mem::homeTile(blockAlign(cond), cfg.numCores);

    auto nack = [&] {
        auto r = std::make_shared<MsaMsg>(tile, cond_home,
                                          MsaOp::UnlockPinNack, cond);
        r->addr2 = lock;
        r->requester = waiter;
        send(std::move(r));
    };

    MsaEntry *e = find(lock);
    if (!e || e->type != SyncType::Lock) {
        nack(); // lock is (or must stay) in software
        return;
    }
    if (e->busy) {
        defer(msg);
        return;
    }
    if (e->owner != waiter || !e->hwQueue.test(waiter)) {
        nack();
        return;
    }
    // Pin before unlocking so the entry cannot be evicted.
    ++e->pinCount;
    unlockCommon(*e, waiter);
    auto r = std::make_shared<MsaMsg>(tile, cond_home, MsaOp::UnlockPinAck,
                                      cond);
    r->addr2 = lock;
    r->requester = waiter;
    send(std::move(r));
}

void
MsaSlice::doUnlockPinResp(const std::shared_ptr<MsaMsg> &msg, bool ok)
{
    const Addr cond = msg->addr;
    const CoreId waiter = msg->requester;
    MsaEntry *e = find(cond);
    if (!e || !e->busy || e->type != SyncType::Cond)
        panic("MSA %u: stray UNLOCK&PIN response for %llx", tile,
              static_cast<unsigned long long>(cond));
    e->busy = false;
    if (ok) {
        if (shedding()) {
            // The slice went offline while this reserve was in
            // flight (busy entries are skipped by shedEntries):
            // abort the waiter to the software path now. The lock
            // was already unlocked-and-pinned on its behalf; drop
            // the pin again.
            stats.counter(statPrefix + "offlineCondAborts").inc();
            respond(waiter, MsaOp::RespAbort, cond);
            omuInc(cond);
            freeCondEntry(*e);
            drainDeferred();
            return;
        }
        e->hwQueue.set(waiter);
    } else {
        if (cfg.msa.omuEnabled) {
            freeEntry(*e);
        } else {
            // Without the OMU the entry cannot be freed safely; park
            // it as a tombstone so the address stays software-handled.
            e->tombstone = true;
            e->hwQueue.reset();
        }
        omuInc(cond);
        respond(waiter, MsaOp::RespFail, cond);
    }
    drainDeferred();
}

void
MsaSlice::doUnlockOnBehalf(const std::shared_ptr<MsaMsg> &msg)
{
    MsaEntry *e = pinnedLockEntry(msg);
    if (e && !unlockCommon(*e, msg->requester))
        panic("MSA %u: COND_WAIT by core %u not holding lock %llx", tile,
              msg->requester, static_cast<unsigned long long>(msg->addr));
}

void
MsaSlice::doCondSignal(const std::shared_ptr<MsaMsg> &msg, bool broadcast)
{
    const Addr cond = msg->addr;
    const CoreId signaler = msg->requester;

    if (!typeSupported(SyncType::Cond)) {
        respond(signaler, MsaOp::RespFail, cond);
        return;
    }
    MsaEntry *e = find(cond);
    if (!e || e->tombstone) {
        respond(signaler, MsaOp::RespFail, cond);
        return;
    }
    if (e->busy) {
        defer(msg);
        return;
    }
    if (e->type != SyncType::Cond)
        panic("MSA %u: COND_SIGNAL on active non-cond addr %llx", tile,
              static_cast<unsigned long long>(cond));
    if (!e->hwQueue.any()) {
        // Parked entry (OMU disabled) with no waiters: no-op signal.
        respond(signaler, MsaOp::RespFail, cond);
        return;
    }

    respond(signaler, MsaOp::RespSuccess, cond);
    (broadcast ? condBroadcasts : condSignals).inc();

    const Addr lock = e->lockAddr;
    const CoreId lock_home = mem::homeTile(blockAlign(lock), cfg.numCores);
    // Without the OMU the cond entry is never freed, so its pin on
    // the lock entry must be kept across "releases" as well.
    const bool can_unpin = cfg.msa.omuEnabled;
    auto wake = [&](CoreId w, bool last) {
        auto m = std::make_shared<MsaMsg>(
            tile, lock_home,
            (last && can_unpin) ? MsaOp::LockUnpin : MsaOp::LockOnBehalf,
            lock);
        m->addr2 = cond;
        m->requester = w;
        send(std::move(m));
    };

    if (broadcast) {
        std::vector<CoreId> waiters;
        for (unsigned i = 0; i < cfg.numThreads(); ++i) {
            CoreId c = (nbtc + i) % cfg.numThreads();
            if (e->hwQueue.test(c))
                waiters.push_back(c);
        }
        for (std::size_t i = 0; i < waiters.size(); ++i) {
            e->hwQueue.reset(waiters[i]);
            wake(waiters[i], i + 1 == waiters.size());
        }
        retireEntry(*e);
    } else {
        CoreId w = pickNext(*e);
        e->hwQueue.reset(w);
        const bool last = !e->hwQueue.any();
        wake(w, last);
        if (last)
            retireEntry(*e);
    }
}

void
MsaSlice::doLockOnBehalf(const std::shared_ptr<MsaMsg> &msg, bool unpin)
{
    const CoreId waiter = msg->requester;
    MsaEntry *e = pinnedLockEntry(msg);
    if (!e)
        return;
    if (unpin) {
        if (e->pinCount == 0)
            panic("MSA %u: LOCK&UNPIN with zero pin count on %llx", tile,
                  static_cast<unsigned long long>(e->addr));
        --e->pinCount;
    }
    e->hwQueue.set(waiter);
    if (e->hwQueue.count() == 1)
        grantLock(*e, waiter);
}

void
MsaSlice::doUnpin(const std::shared_ptr<MsaMsg> &msg)
{
    MsaEntry *e = pinnedLockEntry(msg);
    if (!e)
        return;
    if (e->pinCount == 0)
        panic("MSA %u: Unpin with zero pin count on %llx", tile,
              static_cast<unsigned long long>(e->addr));
    --e->pinCount;
    if (e->pinCount == 0 && !e->hwQueue.any() && e->owner == invalidCore)
        retireEntry(*e);
}

void
MsaSlice::doFinish(const std::shared_ptr<MsaMsg> &msg)
{
    omuDec(msg->addr);
    if (!msg->noReply)
        respond(msg->requester, MsaOp::RespFail, msg->addr);
}

void
MsaSlice::doSuspend(const std::shared_ptr<MsaMsg> &msg)
{
    const Addr addr = msg->addr;
    const CoreId core = msg->requester;
    MsaEntry *e = find(addr);

    switch (msg->suspendKind) {
      case cpu::SyncInstr::RdLock:
      case cpu::SyncInstr::WrLock:
        if (e && !e->busy && e->type == SyncType::RwLock &&
            e->hwQueue.test(core)) {
            e->hwQueue.reset(core);
            e->waitIsWriter.reset(core);
            // The dequeued transaction leaves the slice; the client
            // re-sends it (same txn) after the resume delay, and that
            // re-send must pass the dedup gate.
            txns[core].seen = txns[core].done;
            lockSuspends.inc();
            rwDrain(*e); // a parked reader batch may now be eligible
        }
        respond(core, MsaOp::SuspendAck, addr);
        break;

      case cpu::SyncInstr::Lock:
        if (e && !e->busy && e->type == SyncType::Lock &&
            e->hwQueue.test(core) && e->owner != core) {
            // Dequeue the waiter (paper §4.1.2); let the post-resume
            // re-send (same txn) pass the dedup gate.
            e->hwQueue.reset(core);
            txns[core].seen = txns[core].done;
            lockSuspends.inc();
        }
        // Ack in all cases; if a grant crossed in flight it reaches
        // the client first (FIFO) and the ack is ignored there.
        respond(core, MsaOp::SuspendAck, addr);
        break;

      case cpu::SyncInstr::Barrier:
        if (cfg.msa.barrierSuspendOpt) {
            // §4.2.2 alternative: the suspended thread's arrival
            // stays counted; its release notice is simply consumed
            // when the thread is scheduled back in (the client
            // delays delivery by the resume latency). No software
            // fallback, no OMU traffic.
            barrierSuspendsDeferred.inc();
            break;
        }
        if (e && !e->busy && e->type == SyncType::Barrier &&
            e->hwQueue.test(core) && cfg.msa.omuEnabled) {
            // Force the whole barrier to software (paper §4.2.2).
            abortToSoftware(*e);
            barrierAborts.inc();
            freeEntry(*e);
        }
        break;

      case cpu::SyncInstr::CondWait:
        if (e && !e->busy && e->type == SyncType::Cond &&
            e->hwQueue.test(core) && cfg.msa.omuEnabled) {
            e->hwQueue.reset(core);
            respond(core, MsaOp::RespAbort, addr);
            omuInc(addr);
            condAborts.inc();
            if (!e->hwQueue.any())
                freeCondEntry(*e); // last waiter left, no re-acquire
        }
        break;

      default:
        panic("MSA %u: SUSPEND of non-blocking instruction", tile);
    }
}

std::uint32_t
MsaSlice::abortToSoftware(MsaEntry &e)
{
    std::uint32_t n = 0;
    for (unsigned c = 0; c < cfg.numThreads(); ++c) {
        if (e.hwQueue.test(c)) {
            e.hwQueue.reset(c);
            respond(c, MsaOp::RespAbort, e.addr);
            ++n;
        }
    }
    if (n) {
        omuInc(e.addr, n);
        traceInstant("ABORT", e.addr, n, true);
    }
    return n;
}

void
MsaSlice::shedEntries()
{
    for (auto &e : entries) {
        if (!e.valid || e.tombstone || e.busy)
            continue;
        switch (e.type) {
          case SyncType::Barrier:
            if (const std::uint32_t n = abortToSoftware(e))
                stats.counter(statPrefix + "offlineBarrierAborts").inc(n);
            freeEntry(e);
            break;
          case SyncType::Cond:
            // Aborted waiters re-run the wait in software; the cond
            // entry's pin on its lock entry is no longer needed.
            if (const std::uint32_t n = abortToSoftware(e))
                stats.counter(statPrefix + "offlineCondAborts").inc(n);
            freeCondEntry(e);
            break;
          default:
            // Locks and RW locks shed at their next full release
            // (doUnlock / doRwUnlock): aborting their waiters while a
            // hardware holder remains would race software acquirers
            // against it.
            break;
        }
    }
}

void
MsaSlice::goOffline()
{
    if (offline)
        return;
    offline = true;
    stats.counter(statPrefix + "offlineEvents").inc();
    traceInstant("OFFLINE", 0);
    if (shedding())
        shedEntries();
}

// ---------------------------------------------------------------------
// Lease-based lock recovery (docs/PROTOCOL.md "Participant failure
// semantics").

bool
MsaSlice::leasesEnabled() const
{
    return cfg.resil.leaseTicks > 0;
}

std::uint32_t
MsaSlice::epochOf(Addr addr) const
{
    auto it = varEpoch.find(addr);
    return it == varEpoch.end() ? 0 : it->second;
}

std::uint32_t
MsaSlice::wireEpoch(Addr addr) const
{
    // Offset by one so 0 stays the "no epoch info" wire sentinel
    // (migrated unlocks and pre-lease traffic must never be fenced).
    return epochOf(addr) + 1;
}

void
MsaSlice::bumpEpoch(Addr addr)
{
    ++varEpoch[addr];
}

void
MsaSlice::scheduleLease(MsaEntry &e)
{
    // A slice-global stamp, not a per-entry generation: a stale
    // lease event can never mistake a re-used entry (or a re-grant
    // of the same address) for the grant it was armed against.
    e.leaseStamp = ++leaseSeq;
    eq.scheduleL(_lane, cfg.resil.leaseTicks,
                [this, addr = e.addr, stamp = e.leaseStamp] {
                    onLeaseCheck(addr, stamp);
                });
}

void
MsaSlice::onLeaseCheck(Addr addr, std::uint64_t stamp)
{
    if (buddy != invalidCore)
        return; // failed over: the buddy re-armed its own leases
    MsaEntry *e = find(addr);
    if (!e || e->type != SyncType::Lock || e->leaseStamp != stamp ||
        e->owner == invalidCore)
        return; // released, revoked, or re-granted since armed
    // Probe the recorded owner's client hub. The hub answers for the
    // core (renewal is hardware heartbeat, not thread progress), so
    // only a genuinely dead core stays silent.
    stats.counter(statPrefix + "leaseProbes").inc();
    auto p = std::make_shared<MsaMsg>(tile, cfg.tileOf(e->owner),
                                      MsaOp::LeaseProbe, addr);
    p->requester = e->owner;
    send(std::move(p));
    eq.scheduleL(_lane, cfg.resil.leaseProbeTimeout,
                [this, addr, stamp] { onLeaseVerdict(addr, stamp); });
}

void
MsaSlice::onLeaseVerdict(Addr addr, std::uint64_t stamp)
{
    if (buddy != invalidCore)
        return;
    MsaEntry *e = find(addr);
    if (!e || e->type != SyncType::Lock || e->leaseStamp != stamp ||
        e->owner == invalidCore)
        return; // renewed (re-stamped), released, or re-granted
    if (e->busy) {
        // Mid-reserve: revoking under a multi-step operation would
        // corrupt it. Re-check once the entry settles.
        eq.scheduleL(_lane, cfg.resil.leaseProbeTimeout,
                    [this, addr, stamp] { onLeaseVerdict(addr, stamp); });
        return;
    }
    warn("MSA %u: lease expired on %llx (owner core %u unresponsive), "
         "revoking",
         tile, static_cast<unsigned long long>(addr), e->owner);
    revokeOwner(*e);
}

void
MsaSlice::doLeaseRenew(const std::shared_ptr<MsaMsg> &msg)
{
    MsaEntry *e = find(msg->addr);
    if (!e || e->type != SyncType::Lock || e->owner != msg->requester)
        return; // released or revoked while the renewal was in flight
    stats.counter(statPrefix + "leaseRenewals").inc();
    scheduleLease(*e); // re-stamp: the pending verdict dies with it
}

void
MsaSlice::revokeOwner(MsaEntry &e)
{
    const Addr addr = e.addr;
    // Fence the dead owner's release generation *before* the next
    // grant: any UNLOCK it still has in flight carries the old wire
    // epoch and bounces off doUnlock's fence instead of releasing
    // the new owner's critical section.
    bumpEpoch(addr);
    stats.counter(statPrefix + "lockRevocations").inc();
    traceInstant("LEASE_REVOKE", addr, e.owner, true);
    // e.pushedTo may still name the corpse; the next grant strips
    // that stale privilege copy through the need_revoke path.
    passLock(e);
}

// ---------------------------------------------------------------------
// Dead-participant reconfiguration (failure-detector declarations).

void
MsaSlice::coreDeclaredDead(CoreId core)
{
    if (deadThreads.test(core))
        return;
    deadThreads.set(core);
    // One reconfiguration event per slice per declaration: barrier
    // membership masks now exclude the corpse for good.
    stats.counter(statPrefix + "barrierReconfigs").inc();
    traceInstant("DEAD_DECLARED", 0, core, true);
    if (buddy != invalidCore)
        return; // no local entries; the buddy reconfigures its copies
    reconfigureEntriesFor(core);
}

void
MsaSlice::reconfigureEntriesFor(CoreId core)
{
    // Reconfiguration can free entries (and, for MSA-inf, grow the
    // vector through a re-grant): walk by address, not by reference.
    std::vector<Addr> addrs;
    for (const auto &e : entries)
        if (e.valid && !e.tombstone)
            addrs.push_back(e.addr);

    for (Addr a : addrs) {
        MsaEntry *e = find(a);
        if (!e)
            continue;
        switch (e->type) {
          case SyncType::Lock:
            if (e->busy)
                break; // settles soon; the armed lease catches it
            if (e->owner == core) {
                revokeOwner(*e);
                break;
            }
            if (e->hwQueue.test(core)) {
                // A dead waiter never takes a grant: drop it now.
                e->hwQueue.reset(core);
                stats.counter(statPrefix + "deadWaiterDrops").inc();
                if (!e->hwQueue.any() && e->owner == invalidCore)
                    release(*e);
            }
            break;

          case SyncType::RwLock: {
            bool changed = false;
            if (e->owner == core) {
                // Dead writer: exclusive revocation, epoch-fenced
                // (no live holder exists, so the bump fences only
                // the corpse's stale release).
                bumpEpoch(a);
                e->owner = invalidCore;
                stats.counter(statPrefix + "lockRevocations").inc();
                traceInstant("LEASE_REVOKE", a, core, true);
                changed = true;
            }
            if (e->readersHeld.test(core)) {
                // Dead reader: drop the hold but do NOT bump the
                // epoch — live concurrent readers' releases carry
                // the same grant epoch and must not be fenced.
                e->readersHeld.reset(core);
                stats.counter(statPrefix + "lockRevocations").inc();
                changed = true;
            }
            if (e->hwQueue.test(core)) {
                e->hwQueue.reset(core);
                e->waitIsWriter.reset(core);
                stats.counter(statPrefix + "deadWaiterDrops").inc();
                changed = true;
            }
            if (changed)
                rwDrainOrRetire(*e);
            break;
          }

          case SyncType::Barrier:
            // The dead member's arrival will never come; if the live
            // arrivals plus dead members now meet the goal, release.
            if (barrierQuorumMet(*e))
                releaseBarrier(*e);
            break;

          case SyncType::Cond:
            if (e->busy)
                break;
            if (e->hwQueue.test(core)) {
                e->hwQueue.reset(core);
                stats.counter(statPrefix + "deadWaiterDrops").inc();
                if (!e->hwQueue.any())
                    freeCondEntry(*e);
            }
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Slice failover (decommission with state re-homing).

void
MsaSlice::failoverTo(CoreId b)
{
    if (offline || buddy != invalidCore)
        return;
    offline = true;
    buddy = b;
    stats.counter(statPrefix + "offlineEvents").inc();
    stats.counter(statPrefix + "failovers").inc();
    traceInstant("FAILOVER", 0, b, true);

    // Deferred originals are forwarded below as first deliveries, but
    // their txns were already marked seen here — and that mark rides
    // the handoff. Rewind to the completed watermark (the SUSPEND
    // dequeue trick) so the forwarded copies pass the buddy's gate.
    for (const auto &m : deferred)
        if (m->txn != 0 && m->requester != invalidCore)
            txns[m->requester].seen = txns[m->requester].done;

    auto st = std::make_shared<SliceHandoffState>();
    for (auto &e : entries) {
        if (!e.valid || e.tombstone)
            continue;
        st->entries.push_back(e);
        freeEntry(e);
    }
    st->txns = txns;
    if (cfg.msa.omuEnabled) {
        // Both OMUs hash identically, so software-episode counts
        // transfer slot-for-slot — each exactly once (zeroed here,
        // added there).
        st->omuCounts.resize(_omu.numCounters());
        for (unsigned i = 0; i < _omu.numCounters(); ++i) {
            st->omuCounts[i] = _omu.countAt(i);
            _omu.clearAt(i);
        }
    }
    st->epochs = varEpoch;

    stats.counter(statPrefix + "rehomedVars").inc(st->entries.size());
    auto m = std::make_shared<MsaMsg>(tile, b, MsaOp::SliceHandoff, 0);
    m->handoffState = std::move(st);
    send(std::move(m));

    // Forward the deferred originals behind the handoff message.
    std::deque<std::shared_ptr<MsaMsg>> fwd;
    fwd.swap(deferred);
    for (auto &d : fwd)
        forwardToBuddy(d);
}

void
MsaSlice::expectHandoff(CoreId from)
{
    (void)from;
    awaitingHandoff = true;
    traceInstant("AWAIT_HANDOFF", 0);
}

void
MsaSlice::forwardToBuddy(const std::shared_ptr<MsaMsg> &msg)
{
    stats.counter(statPrefix + "forwardedToBuddy").inc();
    // Re-address to the buddy; src becomes this tile (the NoC's
    // reliable-delivery streams are per source NI). Replies that
    // depended on msg->src() recompute their destination from the
    // synchronization address instead (see doUnlockPin).
    auto f = std::make_shared<MsaMsg>(tile, buddy, msg->op, msg->addr);
    f->addr2 = msg->addr2;
    f->goal = msg->goal;
    f->requester = msg->requester;
    f->suspendKind = msg->suspendKind;
    f->lockHeldSilently = msg->lockHeldSilently;
    f->noSilent = msg->noSilent;
    f->handoff = msg->handoff;
    f->noReply = msg->noReply;
    f->txn = msg->txn;
    f->flowId = msg->flowId;
    f->epoch = msg->epoch;
    f->handoffState = msg->handoffState;
    send(std::move(f));
}

void
MsaSlice::doHandoff(const std::shared_ptr<MsaMsg> &msg)
{
    if (!msg->handoffState)
        panic("MSA %u: SliceHandoff without state payload", tile);
    const SliceHandoffState &st = *msg->handoffState;
    stats.counter(statPrefix + "handoffsApplied").inc();
    traceInstant("HANDOFF_APPLY", 0,
                 static_cast<std::uint64_t>(st.entries.size()), true);

    // Per-client dedup state: adopt the newer completion, keep the
    // higher seen watermark, so retransmissions of requests the
    // dying slice answered are re-answered, not re-executed (an
    // all-zero record changes nothing).
    for (std::size_t c = 0; c < st.txns.size(); ++c) {
        const ClientTxn &t = st.txns[c];
        ClientTxn &ct = txns[c];
        if (t.done > ct.done) {
            ct.done = t.done;
            ct.doneOp = t.doneOp;
            ct.doneHandoff = t.doneHandoff;
        }
        if (t.seen > ct.seen)
            ct.seen = t.seen;
    }
    // Variable epochs only grow: max-merge.
    for (const auto &[a, ep] : st.epochs) {
        auto &mine = varEpoch[a];
        if (ep > mine)
            mine = ep;
    }
    if (cfg.msa.omuEnabled) {
        const unsigned n = std::min<unsigned>(
            static_cast<unsigned>(st.omuCounts.size()),
            _omu.numCounters());
        for (unsigned i = 0; i < n; ++i)
            if (st.omuCounts[i])
                _omu.addAt(i, st.omuCounts[i]);
    }
    for (const MsaEntry &se : st.entries) {
        if (find(se.addr))
            panic("MSA %u: handoff entry %llx collides with a live entry",
                  tile, static_cast<unsigned long long>(se.addr));
        // Hosting two tiles' worth of variables after a failover may
        // exceed msaEntries; grow rather than drop live waiter state.
        // New allocations still respect the bound via allocate().
        MsaEntry &e = *claimSlot(se.addr, true);
        e = se;
        e.leaseStamp = 0;
        // Owned locks get fresh leases here: the old slice's pending
        // lease events die with its buddy-forwarding shell.
        if (e.type == SyncType::Lock && e.owner != invalidCore &&
            leasesEnabled())
            scheduleLease(e);
    }

    awaitingHandoff = false;
    // Declarations that raced the handoff: reconfigure the adopted
    // entries around every already-declared corpse (idempotent for
    // entries the dying slice reconfigured before snapshotting).
    for (unsigned c = 0; c < cfg.numThreads(); ++c)
        if (deadThreads.test(c))
            reconfigureEntriesFor(c);

    // Release the held-back traffic through the full dedup gate, in
    // arrival order.
    std::deque<std::shared_ptr<MsaMsg>> q;
    q.swap(awaitingQueue);
    for (auto &m : q)
        process(m);
}

void
MsaSlice::doFailNotice(const std::shared_ptr<MsaMsg> &msg)
{
    const CoreId core = msg->requester;
    ClientTxn &ct = txns[core];
    stats.counter(statPrefix + "failNotices").inc();

    if (msg->txn <= ct.done) {
        // The transaction executed here and completed (its response
        // was lost). For the bounded (release/notify) class both the
        // executed outcome and the client's local FAIL leave the
        // accounting consistent — nothing to undo.
        return;
    }
    if (msg->txn <= ct.seen) {
        // The request arrived but is still pending (deferred behind
        // a busy entry). Only CondSignal/CondBcast can be in this
        // state, and executing the signal later is benign (condvars
        // tolerate spurious signals); its completion will settle the
        // cache and the client drops the stale response.
        return;
    }

    // The request never arrived (every copy was lost): reconcile the
    // OMU for the op the client resolved FAIL locally.
    switch (msg->suspendKind) {
      case cpu::SyncInstr::Unlock:
      case cpu::SyncInstr::RwUnlock:
        // FAIL contract: "the matching acquire failed too" — the
        // software release ends an episode opened by the acquire's
        // FAIL-time increment.
        omuDec(msg->addr);
        break;
      case cpu::SyncInstr::Finish:
        omuDec(msg->addr);
        break;
      case cpu::SyncInstr::CondSignal:
      case cpu::SyncInstr::CondBcast:
        break; // no OMU side effects on the FAIL path
      default:
        panic("MSA %u: FailNotice for unbounded op kind %d", tile,
              static_cast<int>(msg->suspendKind));
    }
    // Poison the transaction in the dedup cache: a delayed duplicate
    // of the abandoned request must answer from the cache, never
    // execute.
    ct.seen = msg->txn;
    ct.done = msg->txn;
    ct.doneOp = MsaOp::RespFail;
    ct.doneHandoff = false;
}

} // namespace msa
} // namespace misar
