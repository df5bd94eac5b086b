/**
 * @file
 * System configuration: every tunable knob of the simulated chip.
 */

#ifndef MISAR_SIM_CONFIG_HH
#define MISAR_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace misar {

/** Which synchronization-acceleration hardware a run models. */
enum class AccelMode
{
    /**
     * No hardware: all sync instructions return FAIL locally with no
     * message (the paper's MSA-0 compatibility configuration).
     */
    None,
    /** MSA with msaEntries entries per tile, managed by the OMU. */
    MsaOmu,
    /** MSA with unbounded entries; the OMU is never consulted. */
    MsaInfinite,
    /** Zero-latency oracle synchronization (paper's "Ideal"). */
    Ideal,
};

/** Which primitive types the MSA accepts (Fig 9 breakdown study). */
struct MsaTypeSupport
{
    bool locks = true;
    bool barriers = true;
    bool condVars = true;

    bool operator==(const MsaTypeSupport &) const = default;
};

/** NoC parameters. */
struct NocConfig
{
    /** Cycles a flit spends in a router (pipeline depth). */
    unsigned routerLatency = 2;
    /** Cycles per inter-router link traversal. */
    unsigned linkLatency = 1;
    /** Input buffer depth per port, in flits. */
    unsigned bufferDepth = 8;
    /** Flit payload width in bytes. */
    unsigned flitBytes = 16;
    /**
     * End-to-end reliable delivery in the network interfaces:
     * per-(destination, vnet) sequence numbers, cumulative acks on
     * the control vnet, timeout-driven retransmission, and in-order
     * at-most-once delivery at the receiver. Off by default: the
     * fault-free presets pay nothing. See docs/PROTOCOL.md "NoC
     * failure semantics".
     */
    bool reliable = false;
    /** Base retransmission timeout (doubles per retry, capped). */
    Tick retransmitTimeout = 600;
    /** Upper bound on the backed-off retransmission timeout. */
    Tick retransmitCap = 1u << 15;
    /** Resends before a pending packet is abandoned (the layers
     *  above — MSA retry/abandon, watchdog — take over). */
    unsigned retransmitLimit = 32;
    /**
     * Ack coalescing window: in-order deliveries schedule one
     * cumulative ack this many ticks out instead of acking every
     * packet, halving control traffic under bursts. Must stay well
     * under retransmitTimeout. Dups and gaps still ack immediately
     * (the sender is actively retransmitting there).
     */
    Tick ackDelay = 16;

    bool operator==(const NocConfig &) const = default;
};

/** Cache hierarchy parameters. */
struct MemConfig
{
    unsigned l1Sets = 128;        ///< 32KB: 128 sets x 4 ways x 64B
    unsigned l1Ways = 4;
    Tick l1HitLatency = 2;
    unsigned llcSliceSets = 1024; ///< 512KB/slice: 1024 x 8 x 64B
    unsigned llcWays = 8;
    Tick llcHitLatency = 10;
    Tick memLatency = 120;        ///< DRAM access behind the LLC

    bool operator==(const MemConfig &) const = default;
};

/** MSA/OMU parameters. */
struct MsaConfig
{
    AccelMode mode = AccelMode::MsaOmu;
    /** MSA entries per tile (paper evaluates 1 and 2). */
    unsigned msaEntries = 2;
    /** OMU counters per tile (paper uses four). */
    unsigned omuCounters = 4;
    /**
     * Disable the OMU (Figure 7's "Without OMU" bars): entries are
     * allocated on first use and never deallocated, because without
     * software-activity tracking deallocation would be unsafe. An
     * address is then handled forever in hardware (if it won an
     * entry) or forever in software.
     */
    bool omuEnabled = true;
    /** Enable the HWSync-bit LOCK_SILENT optimization (paper §5). */
    bool hwSyncBitOpt = true;
    /**
     * Paper §4.2.2 discusses (and rejects, for hardware complexity)
     * a barrier-suspension scheme that counts inactive-but-arrived
     * threads and tracks release notification, instead of forcing
     * the whole barrier to software. This implements that scheme:
     * a suspended barrier waiter's arrival stays counted and the
     * release notification is delivered when the thread resumes.
     * Default off = the paper's chosen force-to-software behaviour.
     */
    bool barrierSuspendOpt = false;
    /** Which primitive types the accelerator handles (Fig 9). */
    MsaTypeSupport support;
    /** Cycles the MSA pipeline takes to process one request. */
    Tick msaLatency = 1;

    bool operator==(const MsaConfig &) const = default;
};

/** One scheduled NoC link kill: the bidirectional link between two
 *  adjacent routers goes dead at a tick. */
struct LinkKill
{
    unsigned a = 0;
    unsigned b = 0;
    Tick atTick = 0;

    bool operator==(const LinkKill &) const = default;
};

/** One scheduled NoC router kill: the router (and with it the whole
 *  tile's network attachment) goes dead at a tick. */
struct RouterKill
{
    unsigned router = 0;
    Tick atTick = 0;

    bool operator==(const RouterKill &) const = default;
};

/** One scheduled core kill: the core halts at a tick, mid-whatever
 *  it was doing — possibly inside a critical section or a barrier. */
struct CoreKill
{
    unsigned core = 0;
    Tick atTick = 0;

    bool operator==(const CoreKill &) const = default;
};

/**
 * Resilience / fault-injection parameters. All defaults are "off":
 * a default ResilConfig adds no events, no messages and no stat
 * activity, so zero-fault runs are bit-identical to a build without
 * the subsystem.
 */
struct ResilConfig
{
    /** Probability a faultable MSA message is silently dropped. */
    double dropProb = 0.0;
    /** Probability a faultable MSA message is duplicated. */
    double dupProb = 0.0;
    /** Probability a faultable MSA message is delayed. */
    double delayProb = 0.0;
    /** Extra ticks a delayed (or duplicated) message waits. */
    Tick delayTicks = 200;
    /** Tick at which message faults start firing (0 = immediately). */
    Tick faultsFromTick = 0;
    /** Seed for the injector's private RNG stream. */
    std::uint64_t faultSeed = 0x5eedULL;
    /** Tile whose MSA slice goes offline (-1 = never). */
    int offlineTile = -1;
    /** Tick at which the slice goes offline. */
    Tick offlineAtTick = 0;
    /**
     * Client-side timeout for an outstanding transactional sync op
     * (0 = timeouts disabled). Retries back off exponentially from
     * this base, capped at timeoutCap.
     */
    Tick timeoutTicks = 0;
    /** Retries before a bounded-retry op gives up and FAILs. */
    unsigned maxRetries = 8;
    /** Upper bound on the backed-off retry timeout. */
    Tick timeoutCap = 1u << 17;
    /**
     * Liveness watchdog window (0 = disabled): if no thread retires
     * a sync op or finishes within this many ticks, dump a waits-for
     * report and abort.
     */
    Tick watchdogInterval = 0;
    /** Enable periodic + quiesce-time invariant checking. */
    bool invariantChecks = false;
    /** Ticks between periodic invariant sweeps. */
    Tick invariantInterval = 50000;

    /** @name NoC fault campaign (see docs/PROTOCOL.md). @{ */
    /** Links to kill (bidirectional, between adjacent routers). */
    std::vector<LinkKill> linkKills;
    /** Routers to kill (drops the whole tile off the mesh). */
    std::vector<RouterKill> routerKills;
    /**
     * Probability a packet is corrupted on a link traversal and
     * discarded whole by the receiver's CRC check (transient fault;
     * recovered transparently by the NI reliable-delivery layer).
     * Rolled once per packet per link, on the head flit.
     */
    double flitCorruptProb = 0.0;
    /**
     * Ticks between a topology fault and the reconfiguration
     * broadcast taking effect mesh-wide (models fault detection plus
     * the lightweight status-network broadcast). Packets caught on
     * the dead hardware in this window are lost and recovered
     * end-to-end.
     */
    Tick nocDetectDelay = 64;
    /** @} */

    /** @name Participant (core) fault campaign. @{ */
    /** Cores to halt mid-run (the thread stops dead, replies to
     *  nothing, and never reaches its join/finish). */
    std::vector<CoreKill> coreKills;
    /**
     * Lease duration for MSA hardware lock grants, in ticks
     * (0 = leases disabled, grants are forever). While armed, a
     * slice probes a holder whose lease expired; a live holder's
     * hardware renews instantly, a dead one is revoked: the variable
     * epoch is bumped (fencing any stale release still in flight)
     * and the next waiter is granted. Off by default so fault-free
     * runs schedule no lease events at all.
     */
    Tick leaseTicks = 0;
    /** Ticks the slice waits for a lease-probe answer before it
     *  declares the holder dead and revokes. */
    Tick leaseProbeTimeout = 2000;
    /**
     * Ticks between a core kill and the watchdog-style declaration
     * that propagates to every MSA slice (barrier membership drops
     * the corpse, its locks are revoked, sw-fallback barriers stop
     * waiting for it). Models detection latency.
     */
    Tick coreDetectDelay = 5000;
    /**
     * Re-home a decommissioned slice's live variables to this tile's
     * slice instead of shedding them to software (-1 = shed, the
     * PR 1 behaviour). The dying slice serializes each entry into a
     * state-handoff message; clients chase forwarded traffic under
     * epoch fencing.
     */
    int failoverBuddy = -1;
    /** @} */

    /** True when any message fault or the offline event is armed. */
    bool
    messageFaultsEnabled() const
    {
        return dropProb > 0.0 || dupProb > 0.0 || delayProb > 0.0;
    }

    /** True when any NoC topology or transport fault is armed. */
    bool
    nocFaultsEnabled() const
    {
        return !linkKills.empty() || !routerKills.empty() ||
               flitCorruptProb > 0.0;
    }

    /** True when any participant kill is scheduled. */
    bool
    coreFaultsEnabled() const
    {
        return !coreKills.empty();
    }

    bool operator==(const ResilConfig &) const = default;
};

/**
 * Observability parameters. All defaults are "off": a default
 * ObsConfig adds no events, allocates no buffers, and leaves every
 * simulated schedule bit-identical to a build without the subsystem.
 * Stat counters are always live (they never affect timing).
 */
struct ObsConfig
{
    /**
     * Enable the multi-component tracer: per-core op timelines, MSA
     * slice activity, NoC packet rows, and cross-component sync-op
     * flow events, exported as Chrome trace-event JSON.
     */
    bool traceEnabled = false;
    /** Per-track event cap; excess events are counted as dropped. */
    std::size_t traceMaxEvents = 1u << 20;
    /** Enable the per-sync-variable contention profiler. */
    bool profileSync = false;
    /** Entries shown in the "hottest sync variables" report. */
    unsigned profileTopN = 16;
    /** Ticks between stat snapshots (0 = sampler off). */
    Tick sampleInterval = 0;
    /**
     * Enable the resource-pressure monitor (occupancy/queue-depth
     * timelines, OMU episodes, heatmap.json). Timelines are sampled
     * on the stat sampler's schedule, so a zero sampleInterval leaves
     * only the event-driven episode tracking.
     */
    bool heatmapEnabled = false;

    /**
     * Output paths consumed by the workload runner after a run
     * (empty = do not write). The System itself never touches the
     * filesystem.
     */
    std::string traceOutPath;
    std::string statsJsonPath;
    std::string sampleCsvPath;
    std::string heatmapJsonPath;

    /** True when any observability instrument is armed. */
    bool
    anyEnabled() const
    {
        return traceEnabled || profileSync || sampleInterval > 0 ||
               heatmapEnabled;
    }

    bool operator==(const ObsConfig &) const = default;
};

/** Core timing parameters. */
struct CoreConfig
{
    /**
     * Extra commit-fence cycles charged by each synchronization
     * instruction (models the "acts as a memory fence, begins at
     * commit" pipeline stall; the paper reports it is negligible).
     */
    Tick syncFenceLatency = 2;

    /**
     * Cycles a thread is descheduled after an OS interrupt before a
     * squashed LOCK instruction re-executes (paper §4.1.2).
     */
    Tick suspendResumeDelay = 500;

    bool operator==(const CoreConfig &) const = default;
};

/** Top-level configuration for one simulated system. */
struct SystemConfig
{
    unsigned numCores = 16;   ///< must be a perfect square (mesh)
    /**
     * Host threads of the simulation kernel, which is serial:
     * validate() accepts only 1. The field stays for
     * perfbench/perfbench.cc, its last reader.
     */
    unsigned simThreads = 1;
    /**
     * Hardware threads per core (paper §3: "to support hardware
     * multithreading, the HWQueue would be augmented to have 1-bit
     * per hardware thread"). SMT threads share their tile's L1 and
     * network interface; each runs its own thread program.
     */
    unsigned smtWays = 1;
    /**
     * Unread: the workload seed reaches a run as
     * workload::runAppWithConfig's argument. The field stays for
     * perfbench/perfbench.cc, its last writer.
     */
    std::uint64_t seed = 1;
    NocConfig noc;
    MemConfig mem;
    MsaConfig msa;
    CoreConfig core;
    ResilConfig resil;
    ObsConfig obs;

    /** Mesh edge length (sqrt of numCores). */
    unsigned meshDim() const;

    /** Total hardware threads on the chip. */
    unsigned numThreads() const { return numCores * smtWays; }

    /** Tile (core) a hardware thread lives on. */
    CoreId tileOf(CoreId thread) const { return thread / smtWays; }

    /**
     * Whether components get per-tile event-queue lanes. The Ideal
     * oracle performs same-tick cross-core wakeups through a global
     * table, so it keeps everything on lane 0; every real mode
     * isolates tiles behind NoC latency.
     */
    bool tileLanes() const { return msa.mode != AccelMode::Ideal; }

    /** Event-queue lane of tile @p tile (0 when lanes are off). */
    LaneId laneOf(CoreId tile) const { return tileLanes() ? 1 + tile : 0; }

    /** Total lanes: the global lane plus one per tile. */
    LaneId laneCount() const { return tileLanes() ? numCores + 1 : 1; }

    /** Validate invariants; fatal() on user error. */
    void validate() const;

    /** Human-readable name of the accel configuration. */
    std::string accelName() const;

    bool operator==(const SystemConfig &) const = default;
};

/** Convenience builders for the paper's configurations. */
SystemConfig makeConfig(unsigned cores, AccelMode mode,
                        unsigned msa_entries = 2);

} // namespace misar

#endif // MISAR_SIM_CONFIG_HH
