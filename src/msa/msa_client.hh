/**
 * @file
 * Client side of the MSA: executes the synchronization ISA for every
 * core, talking to the MSA slices over the NoC.
 *
 * Implements the HWSync-bit fast path (paper §5): a LOCK whose block
 * is still writable in the local L1 with the HWSync bit set returns
 * SUCCESS immediately and only notifies the home with LOCK_SILENT.
 */

#ifndef MISAR_MSA_MSA_CLIENT_HH
#define MISAR_MSA_MSA_CLIENT_HH

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "cpu/core.hh"
#include "mem/mem_system.hh"
#include "msa/msa_msg.hh"
#include "obs/sync_profiler.hh"
#include "obs/tracer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/tile_runtime.hh"

namespace misar {
namespace msa {

/** True for MSA messages consumed by the client hub (not a slice). */
inline bool
isClientBound(MsaOp op)
{
    switch (op) {
      case MsaOp::RespSuccess:
      case MsaOp::RespFail:
      case MsaOp::RespAbort:
      case MsaOp::RespBusy:
      case MsaOp::SuspendAck:
      case MsaOp::UnlockDone:
      case MsaOp::LeaseProbe:
        return true;
      default:
        return false;
    }
}

/** SyncUnit implementation for MSA/OMU and MSA-inf configurations. */
class MsaClientHub : public cpu::SyncUnit
{
  public:
    /**
     * @p rt (optional, must outlive the hub) routes each client
     * core's timers, lane, and stat counts to its tile — required
     * whenever per-tile lanes are on, so that a core's timeout and
     * resume events replay identically under any partitioning.
     */
    MsaClientHub(EventQueue &eq, const SystemConfig &cfg,
                 mem::MemSystem &ms, StatRegistry &stats,
                 const TileRuntime *rt = nullptr);

    void execute(CoreId core, const cpu::Op &op, Cb cb) override;
    void interrupt(CoreId core) override;

    /** Incoming client-bound MSA message (addressed to @p core). */
    void handleMessage(CoreId core, const std::shared_ptr<MsaMsg> &msg);

    /**
     * Read-only view of a core's outstanding operation, for the
     * liveness watchdog and invariant checker.
     */
    struct OpSnapshot
    {
        bool active = false;
        bool interrupted = false;
        unsigned retries = 0;
        Tick issuedAt = 0;
        cpu::SyncInstr instr = cpu::SyncInstr::Lock;
        Addr addr = invalidAddr;
        Addr addr2 = invalidAddr;
    };

    OpSnapshot snapshot(CoreId core) const;

    /** True while @p core holds @p a in hardware (grant or silent). */
    bool holdsHw(CoreId core, Addr a) const;

    /**
     * Tick @p core last sent a (fire-and-forget) hardware release for
     * @p a, or 0 if never. A released lock stays attributed to the
     * old owner at the home until the Unlock message lands; the
     * invariant checker uses this to excuse that bounded in-flight
     * window instead of flagging a live protocol state.
     */
    Tick releaseSentAt(CoreId core, Addr a) const;

    /**
     * Core fault injection: @p core died. Drop its outstanding op
     * (the completion callback targets a corpse), stop answering
     * lease probes for it, and release its silent holds at the L1 so
     * deferred snoops proceed — a silently-held lock is recovered by
     * coherence alone, no lease needed. Its hardware-granted holds
     * stay recorded: they mirror what the slices still believe until
     * the lease machinery revokes those grants.
     */
    void killCore(CoreId core);

    /** True when @p core was killed by fault injection. */
    bool isDead(CoreId core) const { return cores[core].dead; }

    /**
     * Mark @p home's tile as permanently unreachable (mesh
     * partition): new ops homed there fast-fail to the software path
     * instead of burning the whole timeout/retry ladder. The home's
     * slice has been taken offline by the same partition event, so
     * routing its ops to software is exactly the offline contract.
     */
    void markHomeUnreachable(CoreId home);

    /**
     * Ops whose retries are bounded: their FAIL contract is safe to
     * apply locally after giving up (the home reconciles accounting
     * via FailNotice). Blocking acquires retry indefinitely — see
     * docs/PROTOCOL.md "Failure semantics".
     */
    static bool boundedRetry(cpu::SyncInstr k);

    /**
     * Attach the observability layer (either pointer may be null).
     * With a tracer, every issued sync op starts a flow on its core's
     * trace row and requests are stamped with the flow id; with a
     * profiler, per-variable contention statistics are collected.
     */
    void attachObservers(obs::Tracer *tracer, obs::SyncProfiler *profiler);

  private:
    struct PerCore
    {
        bool active = false;
        cpu::Op op;
        Cb cb;
        /** An OS interrupt arrived while this op was outstanding. */
        bool interrupted = false;
        /** A suspended LOCK is waiting out the resume delay before
         *  re-executing; further interrupts are no-ops meanwhile. */
        bool resendPending = false;
        /** Generation counter: stale resume callbacks for an earlier
         *  operation must not re-send the current one. Doubles as the
         *  transaction id stamped on the op's request messages. */
        std::uint64_t opSeq = 0;
        /** Timeout retransmissions of the current op. */
        unsigned retries = 0;
        /** Tick the current op was issued (watchdog reporting). */
        Tick issuedAt = 0;
        /** Trace flow id of the outstanding op (0 = untraced). */
        std::uint64_t flowId = 0;
        /** Flow id carried by the message completing the op (held
         *  grants arrive on the releaser's flow — handoff chains). */
        std::uint64_t respFlowId = 0;

        /** Locks held via a silent acquire, not yet unlocked. */
        std::set<Addr> silentHeld;
        /**
         * Locks this core acquired through the MSA (normal grants).
         * Their UNLOCK is guaranteed to hit the entry, so it can
         * complete immediately and release the home asynchronously.
         */
        std::set<Addr> hwHeld;
        /**
         * Which sync address each cached block's HWSync bit vouches
         * for. The L1 bit is per line; two locks in one block must
         * not share the privilege (only the recorded one was granted
         * by the MSA).
         */
        std::map<Addr, Addr> silentAddrOfBlock;
        /**
         * Locks observed as the mutex of a COND_WAIT. A silent hold
         * has no MSA entry, which would force the cond var to
         * software (cond-in-HW requires lock-in-HW), so these locks
         * stop using the silent fast path.
         */
        std::set<Addr> condAssociated;

        /** Killed by core fault injection (see killCore()). */
        bool dead = false;
        /**
         * Wire epoch each hardware grant arrived with, echoed on the
         * matching Unlock/RwUnlock so the home can fence releases
         * from before a revocation (see MsaMsg::epoch).
         */
        std::map<Addr, std::uint32_t> heldEpoch;
        /** Send tick of the latest fire-and-forget release per lock
         *  (Unlock/RwUnlock/UnlockSilent) — see releaseSentAt(). */
        std::map<Addr, Tick> releaseSent;
    };

    /** Send @p op's request message to its home MSA slice. */
    void sendRequest(CoreId core, const cpu::Op &op);

    /** Arm the (backed-off) retransmission timeout for @p core. */
    void armTimeout(CoreId core);

    /** Timeout fired for op generation @p seq of @p core. */
    void onTimeout(CoreId core, std::uint64_t seq);

    /** Complete the pending op of @p core with @p result. */
    void complete(CoreId core, cpu::SyncResult result,
                  bool no_silent = false);

    /** Count one finished operation for coverage statistics. */
    void countOp(CoreId core, const cpu::Op &op, bool hw);

    /** The op counters of one stat registry. Their names carry no
     *  tile, so every thread counting into a registry shares one. */
    struct OpStats
    {
        StatHandle swOps;
        StatHandle hwOps;
        StatHandle silentLocks;
        /** sync.<INSTR>.sw and .hw, at 2 * instruction + hw. */
        std::vector<StatHandle> byInstr;
    };

    /** The op counters @p core counts into. */
    OpStats &
    opStatsOf(CoreId core)
    {
        return opStats[opStats.size() == 1 ? 0 : cfg.tileOf(core)];
    }

    CoreId homeOf(Addr a) const;

    /** @name Per-client routing (identity when rt is null). @{ */
    EventQueue &
    eqOf(CoreId core)
    {
        return rt ? rt->eqFor(cfg.tileOf(core), eq) : eq;
    }

    StatRegistry &
    statsOf(CoreId core)
    {
        return rt ? rt->statsFor(cfg.tileOf(core), stats) : stats;
    }

    LaneId
    laneOf(CoreId core) const
    {
        return rt ? rt->laneOf(cfg.tileOf(core)) : 0;
    }
    /** @} */

    EventQueue &eq;
    const SystemConfig &cfg;
    mem::MemSystem &ms;
    StatRegistry &stats;
    const TileRuntime *rt;
    std::vector<PerCore> cores;
    /** One per tile stat shard, or one for the shared registry. */
    std::vector<OpStats> opStats;

    /** Homes cut off by a mesh partition (fast-fail new ops). */
    std::vector<bool> homeUnreachable;
    bool anyUnreachable = false;

    obs::Tracer *tracer = nullptr;
    obs::SyncProfiler *profiler = nullptr;
    /** One pid-0 tracer row per hardware thread (flow endpoints). */
    std::vector<obs::TrackId> coreTrack;
};

} // namespace msa
} // namespace misar

#endif // MISAR_MSA_MSA_CLIENT_HH
