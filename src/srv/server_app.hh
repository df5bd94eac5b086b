/**
 * @file
 * The open-loop task server: request generation, dispatch, work
 * stealing, and per-request latency accounting.
 *
 * Topology on an N-thread system (open-loop modes):
 *
 *   cores 0..D-1      dispatchers — sleep until each request's
 *                     scheduled arrival tick, then push it into one of
 *                     the D MPSC dispatch rings (full ring = request
 *                     shed / rejected);
 *   cores D..D+D-1    drainers — each owns one dispatch ring, pulls
 *                     batches into its local deque and serves them;
 *   remaining cores   workers — serve by stealing from drainer deques.
 *
 * D is 2 on systems with >= 8 threads, else 1. Closed mode instead
 * makes every core a worker that seeds its own deque with
 * `tasksPerWorker` tasks and work-steals until everything is done
 * (the taskqueue app).
 *
 * Determinism: all randomness (arrival gaps, service times, steal
 * victim rotation) comes from seed-derived Rng streams generated
 * either before the run or per-core inside the coroutine; cross-core
 * coordination happens only through simulated memory. Host-side
 * recording is per-core slots merged in core order at finalize(), so
 * runs are bit-identical at a fixed seed.
 */

#ifndef MISAR_SRV_SERVER_APP_HH
#define MISAR_SRV_SERVER_APP_HH

#include <cstdint>
#include <vector>

#include "cpu/thread_api.hh"
#include "sim/stats.hh"
#include "srv/arrival.hh"
#include "srv/server_stats.hh"
#include "srv/task_queue.hh"
#include "sync/sync_lib.hh"

namespace misar {
namespace srv {

/** Parameters of one server workload (part of workload::AppSpec). */
struct ServerSpec
{
    /** Off by default: ordinary closed-loop apps ignore this block. */
    bool enabled = false;

    ArrivalMode mode = ArrivalMode::Poisson;

    /** Offered load in requests per kilotick (open-loop modes). */
    double arrivalRate = 2.0;

    ServiceDist serviceDist = ServiceDist::Exp;

    /** Mean request service cost in compute cycles. */
    Tick serviceMean = 300;

    /** Total requests generated per run (open-loop modes). */
    unsigned requests = 1500;

    /** Tasks each worker seeds for itself (closed mode). */
    unsigned tasksPerWorker = 64;

    /** Dispatch-ring capacity: the admission-control bound. */
    std::uint64_t queueCap = 64;

    /** Local-deque capacity (overflow is served inline). */
    std::uint64_t dequeCap = 32;

    /** Mean dwell ticks per MMPP phase (burst mode). */
    Tick burstDwell = 20000;

    // --- Overload control (all inert at their defaults) ------------

    /**
     * Per-request latency SLO in ticks; 0 disables SLO-aware
     * admission. When set, the dispatcher sheds a request at
     * admission if predicted wait (ring depth x per-queue EWMA of
     * observed service intervals) exceeds the SLO, and completions
     * within the SLO count toward goodput.
     */
    Tick sloTicks = 0;

    /** What a shed request's client does next. */
    RetryPolicy retryPolicy = RetryPolicy::None;

    /** First retry backoff in ticks; doubles per attempt. */
    Tick retryBackoffBase = 400;

    /** Backoff ceiling in ticks. */
    Tick retryBackoffCap = 6400;

    /** Maximum retry attempts per request beyond the first try. */
    unsigned retryLimit = 3;

    /**
     * Budgeted policy: the retry bucket holds retryBurst tokens up
     * front plus retryBudgetRatio tokens per completed request, so
     * sustained retry volume is capped at a fraction of successes.
     */
    double retryBudgetRatio = 0.1;
    std::uint64_t retryBurst = 8;

    /**
     * Two-tenant mix in requests per kilotick; both zero (the
     * default) serves a single anonymous tenant. When set, they must
     * sum to arrivalRate, tenant 0 ("hi") arrives Poisson at
     * tenantHiRate, tenant 1 ("lo") uses the app's arrival mode at
     * tenantLoRate.
     */
    double tenantHiRate = 0.0;
    double tenantLoRate = 0.0;

    /**
     * Brownout: fraction of the SLO the *low* tenant's predicted
     * wait may consume before it is shed. 1.0 means no priority
     * (both tenants shed at the full SLO); 0.5 sheds low-priority
     * load at half the headroom, which is what holds the high
     * tenant's p99 through a low-tenant burst.
     */
    double brownoutRatio = 0.5;

    bool tenantsEnabled() const
    {
        return tenantHiRate > 0.0 && tenantLoRate > 0.0;
    }
};

/**
 * Shared state of one server run. Construct once, start `thread(t)`
 * on every core, run the system, then `finalize(makespan)`. The
 * harness must outlive the run (coroutines keep a pointer to it).
 */
class ServerHarness
{
  public:
    ServerHarness(const ServerSpec &spec, unsigned num_threads,
                  std::uint64_t seed);

    /** Thread body for core `t.id()`; role is derived from the id. */
    cpu::ThreadTask thread(cpu::ThreadApi t, sync::SyncLib *lib);

    /** Merge per-core slots (in core order) into the run's stats. */
    ServerStats finalize(Tick makespan) const;

    const ServerSpec &spec() const { return spec_; }

    /** Dispatcher count for an @p num_threads system. */
    static unsigned dispatchers(unsigned num_threads);

  private:
    /** Per-tenant recording slice inside a PerCore slot. */
    struct TenantSlot
    {
        obs::LogHistogram lat;
        std::uint64_t generated = 0;
        std::uint64_t completed = 0;
        std::uint64_t rejected = 0;
        std::uint64_t rejectedSlo = 0;
        std::uint64_t sloMet = 0;
    };

    /** Per-core recording slot; core i touches only slot i. */
    struct PerCore
    {
        obs::LogHistogram lat;
        std::uint64_t generated = 0;
        std::uint64_t completed = 0;
        std::uint64_t rejected = 0;
        std::uint64_t steals = 0;
        std::uint64_t rejectedSlo = 0;
        std::uint64_t retries = 0;
        std::uint64_t retryDenied = 0;
        std::uint64_t sloMet = 0;
        TenantSlot tenant[2]; ///< touched only in multi-tenant runs
    };

    /** One pending client retry inside a dispatcher's timer heap. */
    struct PendingRetry
    {
        Tick due = 0;
        std::uint64_t id = 0;
        unsigned attempt = 0; ///< admission tries already made
    };

    unsigned tenantOf(std::uint64_t id) const
    {
        return sched.tenant.empty() ? 0 : sched.tenant[id];
    }

    /** Which dispatch ring serves request @p id (open loop only). */
    unsigned ringOf(std::uint64_t id) const
    {
        return static_cast<unsigned>((id / numDisp) % queues.size());
    }

    /** EWMA word of ring @p q's observed service interval. */
    Addr ewmaAddr(unsigned q) const
    {
        return ctrlBase + (2 + 2 * q) * srvBlock;
    }
    /** Last-completion tick of ring @p q (EWMA sampling clock). */
    Addr lastDoneAddr(unsigned q) const
    {
        return ctrlBase + (3 + 2 * q) * srvBlock;
    }

    /** Deterministic backoff + jitter before attempt @p attempt + 1. */
    Tick retryDelay(std::uint64_t id, unsigned attempt) const;

    /** Take a retry token; false when the budget is exhausted. */
    cpu::SubTask<bool> claimRetryToken(cpu::ThreadApi t);

    /** Serve request @p id, counting it in @p completed. */
    cpu::SubTask<> execRequest(cpu::ThreadApi t, std::uint64_t id,
                               StatHandle &completed);
    cpu::ThreadTask dispatcherThread(cpu::ThreadApi t,
                                     sync::SyncLib *lib);
    cpu::ThreadTask workerThread(cpu::ThreadApi t, sync::SyncLib *lib);
    cpu::ThreadTask closedWorkerThread(cpu::ThreadApi t,
                                       sync::SyncLib *lib);

    ServerSpec spec_;
    unsigned numThreads;
    unsigned numDisp; ///< dispatchers == dispatch rings (0 if closed)
    std::uint64_t seed;
    RequestSchedule sched;

    Addr stopAddr;
    Addr producersDoneAddr;
    /** Base of the overload-control words (EWMAs, retry budget). */
    Addr ctrlBase;
    Addr successesAddr;  ///< completions, feeds the retry budget
    Addr retrySpentAddr; ///< retry tokens claimed so far
    std::vector<DispatchQueue> queues;
    std::vector<LocalDeque> deques; ///< indexed by core id

    std::vector<PerCore> perCore;
};

} // namespace srv
} // namespace misar

#endif // MISAR_SRV_SERVER_APP_HH
