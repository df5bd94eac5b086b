/**
 * @file
 * Minimalistic Synchronization Accelerator slice (paper §3-5).
 *
 * One slice lives in each tile and holds the MSA entries for the
 * synchronization addresses homed there, the per-tile OMU, and the
 * per-slice NBTC fairness register.
 *
 * Entry life cycle notes (design decisions beyond the paper text):
 *
 * - Entry-less HWSync privilege (§5). The silent re-acquire fast
 *   path does not require a live MSA entry: when a lock's HWQueue
 *   empties the entry is evicted normally, and the last owner's
 *   privilege lives entirely in its L1 (HWSync bit + client record).
 *   LOCK_SILENT / UNLOCK_SILENT are fire-and-forget notifications.
 *   Mutual exclusion against a concurrent hardware grant or software
 *   test-and-set is enforced at the holder's L1, which defers
 *   incoming invalidations of a silently-held lock block until the
 *   lock is released (the grant's or the atomic's completion is
 *   thereby serialized after the silent critical section).
 *
 * - Owner tracking. The paper's HWQueue does not record which bit is
 *   the owner; we track it (a log2(N)-bit cost) because it is needed
 *   to distinguish a suspended waiter from a just-granted owner when
 *   a SUSPEND crosses a grant in flight, and to handle the
 *   migrated-UNLOCK of a *pinned* lock precisely (the paper's
 *   abort-all-and-free would strand its condition variables).
 *   Unpinned locks keep the paper's abort-all behaviour.
 *
 * - One path per way an entry enters or leaves its current use: one
 *   slot claim, retire, abort-to-software, tombstone and failover
 *   re-home (docs/PROTOCOL.md "Entry lifecycle").
 */

#ifndef MISAR_MSA_MSA_SLICE_HH
#define MISAR_MSA_MSA_SLICE_HH

#include <bitset>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "mem/home_slice.hh"
#include "msa/msa_msg.hh"
#include "msa/omu.hh"
#include "obs/heatmap.hh"
#include "obs/sync_profiler.hh"
#include "obs/tracer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"

namespace misar {
namespace msa {

/** What a valid MSA entry is currently used for (2-bit Type field). */
enum class SyncType : std::uint8_t { Lock, Barrier, Cond, RwLock };

/** One MSA entry (paper Figure 1). */
struct MsaEntry
{
    bool valid = false;
    SyncType type = SyncType::Lock;
    Addr addr = invalidAddr;
    /** One bit per core: waiters, plus the owner for locks. */
    std::bitset<mem::maxCores> hwQueue;

    // Lock state
    /** Core that currently owns the lock (see file comment). */
    CoreId owner = invalidCore;
    /** AuxInfo for locks: condition variables pinning this entry. */
    std::uint32_t pinCount = 0;
    /**
     * Core that last received the lock block with the HWSync bit (a
     * push). A later grant to a different core must revoke that copy
     * (gated on its invalidation ack) before completing, or a stale
     * silent privilege could race the new owner.
     */
    CoreId pushedTo = invalidCore;

    /** Multi-step operation in progress (revoke or cond reserve). */
    bool busy = false;

    /**
     * OMU-disabled mode only: the entry is a permanent marker that
     * this address is handled in software; every request FAILs.
     */
    bool tombstone = false;

    // Reader-writer lock state (AuxInfo; owner doubles as the
    // current writer, invalidCore when reader-held or free)
    std::bitset<mem::maxCores> readersHeld;
    std::bitset<mem::maxCores> waitIsWriter;

    // Barrier state (AuxInfo)
    std::uint32_t goal = 0;

    // Condition-variable state (AuxInfo)
    Addr lockAddr = invalidAddr;

    /**
     * Lease generation stamp of the current grant (0 = no lease
     * armed). A monotonically increasing slice-global sequence, not a
     * per-entry counter, so a stale lease-check event can never
     * confuse a re-used entry for the grant it was armed against.
     */
    std::uint64_t leaseStamp = 0;

    void
    reset()
    {
        *this = MsaEntry{};
    }
};

/**
 * A slice's per-client transaction state: retransmission dedup plus a
 * one-deep completed-response cache (at-most-once execution).
 */
struct ClientTxn
{
    /** Highest txn received from this core. */
    std::uint64_t seen = 0;
    /** Txn of the cached final response. */
    std::uint64_t done = 0;
    /** Txn of the request currently being dispatched (0 outside a
     *  request's dispatch window). */
    std::uint64_t cur = 0;
    MsaOp doneOp = MsaOp::RespFail;
    bool doneHandoff = false;
};

/**
 * Snapshot of a dying slice's live state, carried by a SliceHandoff
 * message to the buddy slice. One modeled transfer burst re-homes the
 * variables instead of shedding them. Entries and transaction records
 * travel whole, so failover cannot drop a field of either.
 */
struct SliceHandoffState
{
    /** Every valid entry except tombstones. */
    std::vector<MsaEntry> entries;
    /** Per-client transaction state, indexed by thread id. */
    std::vector<ClientTxn> txns;
    /** Per-slot OMU counter values (same hash across slices). */
    std::vector<std::uint32_t> omuCounts;
    /** Per-variable revocation epochs. */
    std::map<Addr, std::uint32_t> epochs;
};

/** The MSA slice + OMU of one tile. */
class MsaSlice
{
  public:
    using SendFn = std::function<void(std::shared_ptr<MsaMsg>)>;

    MsaSlice(EventQueue &eq, const SystemConfig &cfg, CoreId tile,
             mem::HomeSlice &home, SendFn send, StatRegistry &stats);

    /** Incoming MSA message from the NoC. */
    void handleMessage(std::shared_ptr<MsaMsg> msg);

    /**
     * Pin this slice's events to its tile's lane. Offline shedding
     * and dead-core sweeps are driven from the global lane, so the
     * pin (not lane inheritance) keeps slice events on the tile lane.
     */
    void setLane(LaneId l) { _lane = l; }

    /** Tests/debug: number of valid entries. */
    unsigned validEntries() const;

    /** Allocatable entry slots currently free (heatmap gauge). */
    unsigned freeEntries() const;

    /** Tests/debug: entry for @p addr, or nullptr. */
    const MsaEntry *findEntry(Addr addr) const;

    /** Tests only: mutable entry access (invariant-checker tests
     *  corrupt state through this hook). */
    MsaEntry *mutableEntry(Addr addr) { return find(addr); }

    /** Visit every valid entry (invariant checker / watchdog). */
    void forEachEntry(const std::function<void(const MsaEntry &)> &fn) const;

    /**
     * Take the slice offline (graceful decommission): stop
     * allocating entries, shed barrier/cond entries immediately
     * (ABORT waiters to software with OMU accounting), and shed each
     * lock/RW entry at its next full release. Front-end accounting
     * (OMU, dedup cache) stays alive so in-flight software episodes
     * settle correctly. See docs/PROTOCOL.md "Failure semantics".
     */
    void goOffline();

    bool isOffline() const { return offline; }

    /**
     * Decommission with failover instead of shedding: snapshot every
     * live entry, OMU slot, dedup record and variable epoch into one
     * SliceHandoff message for @p buddy, then go offline forwarding
     * all subsequent traffic there. Deferred requests are forwarded
     * with their dedup marks rewound so the buddy accepts them.
     */
    void failoverTo(CoreId buddy);

    /**
     * Buddy side of a failover: queue every incoming message until
     * the SliceHandoff from @p from arrives and its state is merged,
     * preserving arrival order across the handoff.
     */
    void expectHandoff(CoreId from);

    /**
     * The failure detector declared @p core dead: revoke its lock
     * ownership (epoch-fenced), drop it from every wait queue and
     * barrier membership, and release barriers it can no longer
     * reach. See docs/PROTOCOL.md "Participant failure semantics".
     */
    void coreDeclaredDead(CoreId core);

    /** Current revocation epoch of @p addr (tests/invariants). */
    std::uint32_t epochOf(Addr addr) const;

    /**
     * Home-slice lookup by address, for pushes/revokes of variables
     * re-homed here by failover (their cache home stays remote).
     * Defaults to this tile's own home slice when unset.
     */
    void setHomeLookup(std::function<mem::HomeSlice &(Addr)> fn)
    {
        homeLookup = std::move(fn);
    }

    Omu &omu() { return _omu; }

    /**
     * Attach the observability layer (either pointer may be null).
     * With a tracer the slice gets its own trace row (pid 1) showing
     * dispatched requests, overflow/shed/abort instants, and flow
     * steps linking requests to their responses; with a profiler,
     * grant handoffs and barrier episodes are recorded.
     */
    void attachObservers(obs::Tracer *tracer, obs::SyncProfiler *profiler);

    /**
     * Attach the resource-pressure monitor (may be null). Feeds it
     * OMU activity transitions (episode spans + high-water marks) and
     * entry-overflow events; gauges (occupancy, free depth, counter
     * values) are sampled from the outside via the accessors.
     */
    void attachMonitor(obs::ResourceMonitor *monitor);

  private:
    /** Process @p msg after the MSA pipeline latency. */
    void process(const std::shared_ptr<MsaMsg> &msg);

    /** Dedup-gated by process(); deferred messages re-enter here. */
    void dispatch(const std::shared_ptr<MsaMsg> &msg);

    /** What acquireGate() hands its handler. */
    struct Gated
    {
        MsaEntry *entry = nullptr; ///< null: the gate answered
        bool fresh = false;        ///< allocated for this request
    };

    /**
     * Acquire gate (LOCK, TRYLOCK, RDLOCK, WRLOCK, BARRIER, COND_WAIT;
     * docs/PROTOCOL.md "Request gates"): msg->addr's settled entry of
     * @p type, or a fresh one allocated with that type. An unsupported
     * type, a tombstone, a live OMU counter or no free entry FAILs the
     * request with omuInc, a busy entry defers it, and a live entry of
     * another type panics; the first two return no entry.
     */
    Gated acquireGate(const std::shared_ptr<MsaMsg> &msg, SyncType type);

    /**
     * Release gate (UNLOCK, RW_UNLOCK): msg->addr's settled entry. It
     * never allocates: an unsupported @p type, a miss or a tombstone
     * FAILs with omuDec (a fire-and-forget release that misses
     * panics), a busy entry defers, and a live entry of another type
     * panics.
     */
    MsaEntry *releaseGate(const std::shared_ptr<MsaMsg> &msg, SyncType type);

    /** Both gates' hit on a live entry: @p e, or null after deferring
     *  behind a busy entry; a live entry of another type panics. */
    MsaEntry *settledEntry(const std::shared_ptr<MsaMsg> &msg, MsaEntry &e,
                           SyncType type);

    /**
     * The lock entry that a cond-variable on-behalf op (UnlockOnBehalf,
     * LockOnBehalf, LockUnpin, Unpin) names; it must exist, because
     * the cond entry pins it. Null after deferring behind a busy entry.
     */
    MsaEntry *pinnedLockEntry(const std::shared_ptr<MsaMsg> &msg);

    void doLock(const std::shared_ptr<MsaMsg> &msg);
    void doTryLock(const std::shared_ptr<MsaMsg> &msg);
    void doRwLock(const std::shared_ptr<MsaMsg> &msg, bool writer);
    void doRwUnlock(const std::shared_ptr<MsaMsg> &msg);
    /** Grant queued RW waiters after a release (batch readers). */
    void rwDrain(MsaEntry &e);
    /** rwDrain(), then retire @p e when no holder or waiter remains. */
    void rwDrainOrRetire(MsaEntry &e);
    void doUnlock(const std::shared_ptr<MsaMsg> &msg);
    void doBarrier(const std::shared_ptr<MsaMsg> &msg);
    void doCondWait(const std::shared_ptr<MsaMsg> &msg);
    void doCondSignal(const std::shared_ptr<MsaMsg> &msg, bool broadcast);
    void doFinish(const std::shared_ptr<MsaMsg> &msg);
    void doSuspend(const std::shared_ptr<MsaMsg> &msg);
    void doUnlockPin(const std::shared_ptr<MsaMsg> &msg);
    void doLockOnBehalf(const std::shared_ptr<MsaMsg> &msg, bool unpin);
    void doUnlockOnBehalf(const std::shared_ptr<MsaMsg> &msg);
    void doUnpin(const std::shared_ptr<MsaMsg> &msg);
    void doUnlockPinResp(const std::shared_ptr<MsaMsg> &msg, bool ok);
    void doFailNotice(const std::shared_ptr<MsaMsg> &msg);
    void doLeaseRenew(const std::shared_ptr<MsaMsg> &msg);
    void doHandoff(const std::shared_ptr<MsaMsg> &msg);

    /** @name Lease-based lock recovery (resil.leaseTicks > 0). @{ */
    bool leasesEnabled() const;
    /** Arm/re-arm the lease on a freshly (re-)granted lock entry. */
    void scheduleLease(MsaEntry &e);
    /** Lease expiry: probe the recorded owner's client hub. */
    void onLeaseCheck(Addr addr, std::uint64_t stamp);
    /** Probe verdict: no renewal arrived — revoke the orphan. */
    void onLeaseVerdict(Addr addr, std::uint64_t stamp);
    /**
     * Revoke @p e's dead owner: bump the variable epoch (fencing any
     * stale release still in flight), then passLock().
     */
    void revokeOwner(MsaEntry &e);
    /** @} */

    /** Wire epoch of @p addr (what grants/fences compare against). */
    std::uint32_t wireEpoch(Addr addr) const;
    /** Bump @p addr's epoch after an exclusive-owner revocation. */
    void bumpEpoch(Addr addr);

    /** Barrier @p e reached its (possibly reconfigured) quorum. */
    void releaseBarrier(MsaEntry &e);
    /** Live arrivals + dead members reach the goal? */
    bool barrierQuorumMet(const MsaEntry &e) const;

    /** Drop dead @p core from every entry's queues/membership. */
    void reconfigureEntriesFor(CoreId core);

    /** RW grant response carrying the wire epoch. */
    void respondRwGrant(CoreId core, Addr addr);

    /** Post-failover: forward @p msg to the buddy slice verbatim. */
    void forwardToBuddy(const std::shared_ptr<MsaMsg> &msg);

    MsaEntry *find(Addr addr);

    /**
     * Slot claim: reset the first free slot, else (when @p grow) a new
     * one, make it @p addr's valid, indexed entry and return it;
     * nullptr when full. Callers hold the pointer only within the
     * current event, so growing the vector is safe.
     */
    MsaEntry *claimSlot(Addr addr, bool grow);

    /** Allocate an entry for @p addr; nullptr if none is free. */
    MsaEntry *allocate(Addr addr);

    /**
     * Free a valid entry: drop it from the address index, then
     * reset. Every site that invalidates an entry must go through
     * here (or retireEntry) so the index stays authoritative.
     */
    void freeEntry(MsaEntry &e);

    /** Free cond entry @p e and send its lock's home the Unpin. */
    void freeCondEntry(MsaEntry &e);

    /** A lock's HWQueue emptied: free the entry unless pinned. */
    void release(MsaEntry &e);

    /** Grant the lock of @p e to @p core (block push + SUCCESS). */
    void grantLock(MsaEntry &e, CoreId core);

    /** Pick the next waiter via the NBTC register; clears its bit. */
    CoreId pickNext(MsaEntry &e);

    /**
     * The owner gives up (or loses) @p e's lock: clear its bit, then
     * grant the next waiter, or release() when none is queued.
     */
    void passLock(MsaEntry &e);

    /** Perform an unlock by @p core on @p e; true on success. */
    bool unlockCommon(MsaEntry &e, CoreId core);

    /**
     * Build a client-bound response. Final instruction responses
     * (Success/Fail/Abort/Busy) are stamped with the transaction id
     * they answer and recorded in the per-client completion cache so
     * retransmissions can be re-answered without re-execution.
     */
    std::shared_ptr<MsaMsg> makeClientResp(CoreId core, MsaOp op,
                                           Addr addr);

    void respond(CoreId core, MsaOp op, Addr addr);

    /** respond() with handoff/noSilent flags (also cached). */
    void respondFinal(CoreId core, MsaOp op, Addr addr,
                      bool handoff = false, bool no_silent = false);

    /**
     * Abort-to-software: clear each queued core's bit and send it
     * RespAbort; when any were queued, count them in the OMU and
     * trace an ABORT instant. Returns the number aborted (callers
     * record their own counter).
     */
    std::uint32_t abortToSoftware(MsaEntry &e);

    /** Shed barrier/cond entries when going offline. */
    void shedEntries();

    /** Tracer instant on this slice's row (no-op when untraced). */
    void traceInstant(const char *name, Addr a, std::uint64_t value = 0,
                      bool has_value = false);

    /** Queue @p msg until a busy entry settles. */
    void defer(const std::shared_ptr<MsaMsg> &msg);

    /** Re-inject deferred messages (after a busy entry settled). */
    void drainDeferred();

    bool typeSupported(SyncType t) const;

    /** Offline with an OMU: entries shed to software, no new grants. */
    bool shedding() const { return offline && cfg.msa.omuEnabled; }

    /** @name OMU accessors that no-op when the OMU is disabled. @{ */
    void omuInc(Addr a, std::uint32_t n = 1);
    void omuDec(Addr a, std::uint32_t n = 1);
    bool omuActive(Addr a) const;
    /** @} */

    /**
     * Entry is done with its current use: free it (OMU enabled) or
     * keep it parked forever (OMU disabled, Fig 7 "Without OMU").
     */
    void retireEntry(MsaEntry &e);

    EventQueue &eq;
    const SystemConfig &cfg;
    CoreId tile;
    LaneId _lane = 0;
    mem::HomeSlice &home;
    SendFn send;
    StatRegistry &stats;
    std::string statPrefix;
    /** @name Per-request stats (fault counters use stats directly). @{ */
    StatHandle requests;
    StatHandle deferrals;
    StatHandle allocations;
    StatHandle evictions;
    StatHandle lockGrants;
    StatHandle lockAborts;
    StatHandle lockSuspends;
    StatHandle migratedUnlocks;
    StatHandle silentLocks;
    StatHandle silentUnlocks;
    StatHandle barrierReleases;
    StatHandle barrierAborts;
    StatHandle barrierSuspendsDeferred;
    StatHandle condSignals;
    StatHandle condBroadcasts;
    StatHandle condAborts;
    /** @} */

    std::vector<MsaEntry> entries;
    /**
     * Flat index: sync address -> slot in `entries`, maintained by
     * allocate()/freeEntry(). Lookups on the request dispatch path
     * are O(1) instead of a linear entry scan, which matters for the
     * unbounded MSA-inf configuration.
     */
    FlatMap<Addr, std::uint32_t> entryIndex;
    bool infinite;
    Omu _omu;
    /** Next-bit-to-check fairness register (one per slice). */
    CoreId nbtc = 0;
    std::deque<std::shared_ptr<MsaMsg>> deferred;
    /** Per-client transaction dedup state (indexed by thread id). */
    std::vector<ClientTxn> txns;
    /** Offline (decommissioned) — see goOffline(). */
    bool offline = false;

    /**
     * Per-variable revocation epoch (ordered map: the failover
     * snapshot enumerates it deterministically). Grants carry
     * epoch + 1 on the wire; see MsaMsg::epoch.
     */
    std::map<Addr, std::uint32_t> varEpoch;
    /** Slice-global lease generation sequence (see leaseStamp). */
    std::uint64_t leaseSeq = 0;
    /** Cores declared dead by the failure detector. */
    std::bitset<mem::maxCores> deadThreads;
    /** Failed over: all traffic forwards to this slice (invalidCore
     *  when not failed over). */
    CoreId buddy = invalidCore;
    /** Buddy side: a SliceHandoff is expected but not yet applied. */
    bool awaitingHandoff = false;
    /** Messages held back while awaiting the handoff. */
    std::deque<std::shared_ptr<MsaMsg>> awaitingQueue;
    /** Home-slice lookup for re-homed variables (see setHomeLookup). */
    std::function<mem::HomeSlice &(Addr)> homeLookup;

    obs::Tracer *tracer = nullptr;
    obs::SyncProfiler *profiler = nullptr;
    obs::ResourceMonitor *monitor = nullptr;
    /** This slice's trace row (pid 1), valid when tracer != null. */
    obs::TrackId track = 0;
    /**
     * Flow id of the request currently being dispatched (0 outside a
     * dispatch window). Stamped onto every client-bound response so
     * the requester's trace row can close the flow; grantLock's
     * asynchronous push/revoke callbacks capture and restore it.
     */
    std::uint64_t curFlowId = 0;
};

} // namespace msa
} // namespace misar

#endif // MISAR_MSA_MSA_SLICE_HH
