/**
 * @file
 * Top-level simulated system: tiles (core + L1 + LLC/directory slice
 * + MSA slice + router) assembled per a SystemConfig.
 */

#ifndef MISAR_SYSTEM_SYSTEM_HH
#define MISAR_SYSTEM_SYSTEM_HH

#include <memory>
#include <ostream>
#include <vector>

#include "cpu/core.hh"
#include "cpu/thread_api.hh"
#include "mem/mem_system.hh"
#include "msa/ideal_sync.hh"
#include "msa/msa_client.hh"
#include "msa/msa_slice.hh"
#include "msa/null_sync.hh"
#include "obs/heatmap.hh"
#include "obs/sampler.hh"
#include "obs/sync_profiler.hh"
#include "obs/tracer.hh"
#include "resil/core_fault_injector.hh"
#include "resil/fault_injector.hh"
#include "resil/invariants.hh"
#include "resil/noc_fault_injector.hh"
#include "resil/watchdog.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace misar {
namespace sys {

/** How a run() ended. */
enum class RunOutcome
{
    Finished,     ///< every started thread completed
    Deadlock,     ///< event queue drained with threads still blocked
    LimitReached, ///< tick budget exhausted (livelock or just slow)
};

/** Stable string form of @p o (run reports, logs). */
inline const char *
runOutcomeName(RunOutcome o)
{
    switch (o) {
      case RunOutcome::Finished:
        return "finished";
      case RunOutcome::Deadlock:
        return "deadlock";
      case RunOutcome::LimitReached:
        return "limit-reached";
    }
    return "?";
}

/**
 * A complete simulated chip. Construct, start one thread body per
 * core, then run().
 */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    /** Start @p body on core @p c at the current tick. */
    void
    start(CoreId c, cpu::ThreadTask body)
    {
        cores[c]->start(std::move(body));
    }

    /** Run until every started thread finishes (or @p limit ticks).
     *  @return true if all threads finished. */
    bool run(Tick limit = maxTick)
    {
        return runDetailed(limit) == RunOutcome::Finished;
    }

    /**
     * run() distinguishing clean termination from a drained-but-
     * blocked event queue (deadlock) and from an exhausted tick
     * budget (livelock or long run). On deadlock the waits-for
     * report is logged before returning.
     */
    RunOutcome runDetailed(Tick limit = maxTick);

    cpu::ThreadApi api(CoreId c) { return cpu::ThreadApi(*cores[c]); }
    cpu::Core &core(CoreId c) { return *cores[c]; }
    msa::MsaSlice &msaSlice(CoreId t) { return *slices[t]; }
    mem::MemSystem &mem() { return *ms; }
    EventQueue &eventQueue() { return eq; }
    StatRegistry &stats() { return _stats; }
    const SystemConfig &config() const { return cfg; }
    unsigned numCores() const { return cfg.numCores; }
    /** Total hardware threads (== numCores unless SMT is enabled). */
    unsigned numThreads() const { return cfg.numThreads(); }

    /** True once every started thread has finished. */
    bool allFinished() const;

    /**
     * Human-readable stall report: per-thread outstanding operations,
     * per-slice entry state, and the waits-for edges between blocked
     * threads and lock owners (cycles flagged). Used by the liveness
     * watchdog and the deadlock path of runDetailed().
     */
    std::string buildStallReport() const;

    /** MSA client hub, or nullptr outside MSA modes. */
    msa::MsaClientHub *clientHub() { return hub; }
    const msa::MsaClientHub *clientHub() const { return hub; }

    /** Liveness watchdog, or nullptr when not configured. */
    resil::Watchdog *watchdog() { return wdog.get(); }

    /** NoC fault injector, or nullptr when no NoC faults are armed. */
    resil::NocFaultInjector *nocFaultInjector() { return nocInjector.get(); }

    /** Core fault injector, or nullptr when no kills are armed. */
    resil::CoreFaultInjector *coreFaultInjector() { return coreInjector.get(); }

    /**
     * True once the failure detector has declared @p thread dead
     * (kill tick + coreDetectDelay elapsed). The software sync
     * library's dead-participant query and the stall-report
     * attribution both key off this.
     */
    bool
    isDeclaredDead(CoreId thread) const
    {
        return thread < declaredDead.size() && declaredDead[thread];
    }

    /** Invariant checker, or nullptr when not configured. */
    resil::InvariantChecker *invariantChecker() { return checker.get(); }

    /** Latest finish tick over all cores (the parallel makespan). */
    Tick makespan() const;

    /** Fraction of sync operations handled in hardware [0, 1]. */
    double hwCoverage() const;

    /**
     * Write the multi-component trace (cores + MSA slices + NoC, with
     * sync flows) as Chrome trace-event JSON; nothing unless
     * cfg.obs.traceEnabled.
     */
    void writeTrace(std::ostream &os) const;

    /** @name Observability components (null when not configured). @{ */
    obs::Tracer *tracer() { return _tracer.get(); }
    const obs::SyncProfiler *syncProfiler() const { return profiler.get(); }
    obs::StatSampler *sampler() { return _sampler.get(); }
    const obs::StatSampler *sampler() const { return _sampler.get(); }
    obs::ResourceMonitor *monitor() { return _monitor.get(); }
    const obs::ResourceMonitor *monitor() const { return _monitor.get(); }
    /** @} */

  private:
    /** Construct + wire cfg.obs-enabled components (ctor tail). */
    void applyObservability();

    SystemConfig cfg;
    EventQueue eq;
    StatRegistry _stats;
    std::unique_ptr<mem::MemSystem> ms;
    std::vector<std::unique_ptr<cpu::Core>> cores;
    std::vector<std::unique_ptr<msa::MsaSlice>> slices;
    std::unique_ptr<cpu::SyncUnit> syncUnit;
    msa::MsaClientHub *hub = nullptr; // owned via syncUnit when MSA
    std::unique_ptr<resil::FaultInjector> injector;
    std::unique_ptr<resil::NocFaultInjector> nocInjector;
    std::unique_ptr<resil::CoreFaultInjector> coreInjector;
    /** Threads declared dead by the failure detector (by thread id). */
    std::vector<bool> declaredDead;
    std::unique_ptr<resil::Watchdog> wdog;
    std::unique_ptr<resil::InvariantChecker> checker;
    std::unique_ptr<obs::Tracer> _tracer;
    std::unique_ptr<obs::SyncProfiler> profiler;
    std::unique_ptr<obs::StatSampler> _sampler;
    std::unique_ptr<obs::ResourceMonitor> _monitor;
};

} // namespace sys
} // namespace misar

#endif // MISAR_SYSTEM_SYSTEM_HH
