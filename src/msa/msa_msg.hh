/**
 * @file
 * MSA protocol messages between per-core clients and per-tile MSA
 * slices, and between MSA slices (condition-variable pinning).
 */

#ifndef MISAR_MSA_MSA_MSG_HH
#define MISAR_MSA_MSA_MSG_HH

#include <cstdint>
#include <memory>

#include "cpu/op.hh"
#include "noc/packet.hh"
#include "sim/types.hh"

namespace misar {
namespace msa {

/** MSA message opcodes. */
enum class MsaOp : std::uint8_t
{
    // client -> home MSA (vnet 0)
    Lock,
    TryLock,
    Unlock,
    RdLock,
    WrLock,
    RwUnlock,
    Barrier,
    CondWait,
    CondSignal,
    CondBcast,
    Finish,
    /** Interrupt while blocked in a sync instruction (paper §4.x.2). */
    Suspend,
    /** HWSync-bit fast re-acquire notification (paper §5). */
    LockSilent,
    /** Release notification for a silently-held lock (paper §5). */
    UnlockSilent,
    /**
     * Timeout abandonment notice: the client gave up retrying txn
     * (a bounded-retry op) and resolved it to FAIL locally. The home
     * reconciles OMU accounting for whatever it did or did not see
     * of that transaction. Never fault-injected.
     */
    FailNotice,
    /**
     * Lease renewal from a holder's client hub (fire-and-forget,
     * answers a LeaseProbe). Sent by the hub hardware, so a live
     * holder renews even while its thread is blocked or descheduled;
     * only a dead core stays silent. Never fault-injected (txn 0).
     */
    LeaseRenew,

    // home MSA -> client (vnet 1)
    RespSuccess,
    RespFail,
    RespAbort,
    /** TRYLOCK handled in hardware but the lock is held. */
    RespBusy,
    /** Lock-waiter suspend acknowledged; client re-executes LOCK. */
    SuspendAck,
    /**
     * Completion notice for a fire-and-forget UNLOCK of a
     * hardware-held lock: carries the handoff flag for silent-
     * privilege cleanup but never completes an instruction.
     */
    UnlockDone,
    /**
     * Lease-expiry liveness probe for the recorded owner of a lock
     * entry. The owner's client hub answers with LeaseRenew if the
     * core is alive; no answer within leaseProbeTimeout convicts it.
     */
    LeaseProbe,

    // cond-var home -> lock home (vnet 0)
    /** UNLOCK&PIN: unlock on behalf of requester, pin lock entry. */
    UnlockPin,
    /** Plain unlock on behalf of requester (COND_WAIT on a hit). */
    UnlockOnBehalf,
    /** LOCK on behalf of requester (cond signal wake-up). */
    LockOnBehalf,
    /** LOCK&UNPIN: last cond waiter; also unpin the lock entry. */
    LockUnpin,
    /** Unpin only (cond entry died without a lock re-acquire). */
    Unpin,

    // lock home -> cond-var home (vnet 1)
    UnlockPinAck,
    UnlockPinNack,

    // dying slice -> buddy slice (vnet 0)
    /**
     * Slice-failover state transfer: the whole decommissioned
     * slice's live state (entries, OMU counters, per-client dedup
     * state, variable epochs) re-homes to the buddy in one modeled
     * transfer burst. Never fault-injected (txn 0).
     */
    SliceHandoff,
};

/** True for messages travelling on the reply virtual network. */
inline bool
isReplyOp(MsaOp op)
{
    switch (op) {
      case MsaOp::RespSuccess:
      case MsaOp::RespFail:
      case MsaOp::RespAbort:
      case MsaOp::RespBusy:
      case MsaOp::SuspendAck:
      case MsaOp::UnlockDone:
      case MsaOp::LeaseProbe:
      case MsaOp::UnlockPinAck:
      case MsaOp::UnlockPinNack:
        return true;
      default:
        return false;
    }
}

/** Short opcode mnemonic (trace/debug labels). */
inline const char *
msaOpName(MsaOp op)
{
    switch (op) {
      case MsaOp::Lock: return "LOCK";
      case MsaOp::TryLock: return "TRYLOCK";
      case MsaOp::Unlock: return "UNLOCK";
      case MsaOp::RdLock: return "RDLOCK";
      case MsaOp::WrLock: return "WRLOCK";
      case MsaOp::RwUnlock: return "RWUNLOCK";
      case MsaOp::Barrier: return "BARRIER";
      case MsaOp::CondWait: return "COND_WAIT";
      case MsaOp::CondSignal: return "COND_SIGNAL";
      case MsaOp::CondBcast: return "COND_BCAST";
      case MsaOp::Finish: return "FINISH";
      case MsaOp::Suspend: return "SUSPEND";
      case MsaOp::LockSilent: return "LOCK_SILENT";
      case MsaOp::UnlockSilent: return "UNLOCK_SILENT";
      case MsaOp::FailNotice: return "FAIL_NOTICE";
      case MsaOp::LeaseRenew: return "LEASE_RENEW";
      case MsaOp::RespSuccess: return "RESP_SUCCESS";
      case MsaOp::RespFail: return "RESP_FAIL";
      case MsaOp::RespAbort: return "RESP_ABORT";
      case MsaOp::RespBusy: return "RESP_BUSY";
      case MsaOp::SuspendAck: return "SUSPEND_ACK";
      case MsaOp::UnlockDone: return "UNLOCK_DONE";
      case MsaOp::LeaseProbe: return "LEASE_PROBE";
      case MsaOp::UnlockPin: return "UNLOCK_PIN";
      case MsaOp::UnlockOnBehalf: return "UNLOCK_ON_BEHALF";
      case MsaOp::LockOnBehalf: return "LOCK_ON_BEHALF";
      case MsaOp::LockUnpin: return "LOCK_UNPIN";
      case MsaOp::Unpin: return "UNPIN";
      case MsaOp::UnlockPinAck: return "UNLOCK_PIN_ACK";
      case MsaOp::UnlockPinNack: return "UNLOCK_PIN_NACK";
      case MsaOp::SliceHandoff: return "SLICE_HANDOFF";
    }
    return "?";
}

/** A dying slice's live state (defined in msa/msa_slice.hh). */
struct SliceHandoffState;

/** One MSA protocol message (always control-sized). */
class MsaMsg : public noc::Packet
{
  public:
    MsaMsg(CoreId src, CoreId dst, MsaOp op, Addr addr)
        : Packet(src, dst, noc::ctrlBytes), op(op), addr(addr)
    {
        vnet = isReplyOp(op) ? 1u : 0u;
    }

    MsaOp op;
    /** Primary synchronization address. */
    Addr addr;
    /** Associated lock address (COND_WAIT and cond->lock traffic). */
    Addr addr2 = invalidAddr;
    /** Barrier goal count. */
    std::uint32_t goal = 0;
    /**
     * Core the operation is performed for. For client requests this
     * equals src; for cond->lock traffic it is the waiting core.
     */
    CoreId requester = invalidCore;
    /** For Suspend: which instruction is being suspended. */
    cpu::SyncInstr suspendKind = cpu::SyncInstr::Lock;
    /** For COND_WAIT: the requester holds the lock via a silent
     *  acquire (no MSA entry); the cond var must go to software. */
    bool lockHeldSilently = false;
    /** For lock-grant RespSuccess: pinned lock, do not record the
     *  silent privilege. */
    bool noSilent = false;
    /**
     * For UNLOCK RespSuccess: the lock was handed to a waiter. The
     * releaser is still blocked in its UNLOCK when this arrives, so
     * its client can revoke the local silent privilege before the
     * core can issue another LOCK — closing the race between a
     * silent re-acquire and the in-flight handoff invalidation.
     */
    bool handoff = false;
    /** For UNLOCK: the sender already completed the instruction and
     *  expects an UnlockDone notice, not a RespSuccess. */
    bool noReply = false;
    /**
     * Transaction id for at-most-once delivery under retransmission
     * (0 = untracked). Clients stamp their per-core op sequence
     * number on transactional requests; slices echo it on the final
     * response so stale/duplicate responses can be discarded.
     * Fire-and-forget, silent, suspend and slice-to-slice traffic
     * stays untracked.
     */
    std::uint64_t txn = 0;
    /**
     * Observability flow id stitching one sync operation end-to-end
     * across the trace (core issue -> slice decision -> completion).
     * 0 = untraced; only stamped when the tracer is enabled, so it
     * never influences protocol behaviour.
     */
    std::uint64_t flowId = 0;
    /**
     * Wire epoch for lease-based revocation fencing. Grants carry
     * varEpoch + 1 for the granted variable; the client echoes the
     * recorded value on Unlock/RwUnlock. 0 means "no epoch info"
     * (pre-lease traffic, migrated unlocks) and is never fenced; a
     * nonzero value smaller than the variable's current wire epoch
     * identifies a stale release from a revoked (dead) owner.
     */
    std::uint32_t epoch = 0;
    /** SliceHandoff payload (shared so MsaMsg stays copyable). */
    std::shared_ptr<SliceHandoffState> handoffState;
};

} // namespace msa
} // namespace misar

#endif // MISAR_MSA_MSA_MSG_HH
