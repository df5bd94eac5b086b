/**
 * @file
 * A job's three stages, each implemented once: resolveJob() turns a
 * JobSpec into the configuration it runs (misar_sim and the
 * in-process executor both call it), workload::runAppWithConfig()
 * runs it and writes its JSON run report, and the engine fills the
 * JobRecord the aggregator consumes by parsing that report text —
 * read back from disk for a misar_campaign subprocess job, handed
 * over in memory for an in-process one. Both executors therefore
 * run the same code on the same configuration and record the same
 * values, which is what makes parallel campaigns byte-reproducible
 * against the serial harnesses.
 */

#ifndef MISAR_ORCH_JOB_HH
#define MISAR_ORCH_JOB_HH

#include <cstdint>
#include <map>
#include <string>

#include "obs/histogram.hh"
#include "obs/run_report.hh"
#include "orch/campaign_spec.hh"
#include "sim/config.hh"
#include "sim/types.hh"
#include "sync/sync_lib.hh"
#include "workload/synthetic_app.hh"

namespace misar {
namespace orch {

/** What one job runs: the simulated system, its sync library flavor
 *  and the workload. */
struct JobRun
{
    SystemConfig cfg;
    sync::SyncLib::Flavor flavor = sync::SyncLib::Flavor::Hw;
    workload::AppSpec app;
};

/**
 * Resolve @p j, plus a campaign's @p server overrides, into what the
 * job runs: the preset's SystemConfig at the job's core count, MSA
 * entries, SMT ways, kernel threads, HWSync/OMU switches and seed,
 * and the catalog app with the job's arrival rate, retry policy and
 * tenant mix and the overrides applied. Observability settings stay
 * at their defaults. Front ends check names and value combinations
 * with their own messages first; an unknown preset, app, service
 * distribution, retry policy or tenant mix here is fatal().
 */
JobRun resolveJob(const JobSpec &j, const CampaignSpec::ServerSweep &server);

/** How a job ended (superset of sys::RunOutcome: adds host failures). */
enum class JobOutcome
{
    Finished,   ///< simulator exit 0
    Deadlock,   ///< simulator reported a sync deadlock (exit 40)
    TickLimit,  ///< simulated-tick budget exhausted (exit 41)
    Error,      ///< fatal(): bad config/flags (exit 1, never retried)
    Crash,      ///< killed by a signal / abnormal exit (retried)
    Timeout,    ///< wall-clock deadline hit, SIGKILLed (retried)
    SpawnError, ///< binary missing / exec failed (exit 127)
    Missing,    ///< never ran (campaign stopped before this job)
};

const char *jobOutcomeName(JobOutcome o);

/** Parse a jobOutcomeName() string; Missing for anything unknown. */
JobOutcome jobOutcomeFromName(const std::string &name);

/** True for outcomes another attempt could plausibly change. */
inline bool
jobOutcomeRetryable(JobOutcome o)
{
    return o == JobOutcome::Crash || o == JobOutcome::Timeout;
}

/** One job's aggregation-ready results. */
struct JobRecord
{
    JobSpec job;
    JobOutcome outcome = JobOutcome::Missing;

    Tick makespan = 0;
    double hwCoverage = 0.0;
    std::uint64_t hwOps = 0;
    std::uint64_t swOps = 0;
    std::uint64_t silentLocks = 0;

    /** The run report's "resilience" block. */
    obs::ResilienceSummary resilience;

    /** Spec-selected StatRegistry counters. */
    std::map<std::string, std::uint64_t> counters;

    /**
     * Run-level sync-wait distribution (run report "latency" block).
     * Mergeable across reps; empty when the job's report predates
     * schema v2 or the profiler did not run.
     */
    obs::LogHistogram syncWait;

    /** @name Resource-pressure summary (report "heatmap" block). @{ */
    /** True when the job's report carried a heatmap summary. */
    bool hasPressure = false;
    std::uint64_t overflowEvents = 0;
    std::uint64_t omuEpisodes = 0;
    std::uint64_t omuEpisodeTicks = 0;
    std::uint64_t omuHighWater = 0;
    double maxSliceOccupancy = 0.0;
    double maxNiQueueDepth = 0.0;
    /** @} */

    /** @name Server-run accounting (report "server" block). @{ */
    /** True when the job's report carried a server block. */
    bool hasServer = false;
    double offeredRate = 0.0;
    std::uint64_t srvGenerated = 0;
    std::uint64_t srvCompleted = 0;
    std::uint64_t srvRejected = 0;
    std::uint64_t srvStranded = 0;
    double srvThroughput = 0.0;
    bool srvKnee = false;
    /** Per-request latency; mergeable across reps like syncWait. */
    obs::LogHistogram srvLatency;
    /** Final SLO-admission sheds (schema v4; 0 in older reports). */
    std::uint64_t srvRejectedSlo = 0;
    /** Retry attempts beyond first tries (schema v4). */
    std::uint64_t srvRetries = 0;
    /** SLO-met completions per kilotick; == srvThroughput when the
     *  job ran without an SLO (or predates schema v4). */
    double srvGoodput = 0.0;

    /** Per-tenant slice (schema v4 "tenants"; empty single-tenant). */
    struct TenantRecord
    {
        std::string name;
        std::uint64_t generated = 0;
        std::uint64_t completed = 0;
        std::uint64_t rejected = 0; ///< full-ring + SLO final sheds
        double goodput = 0.0;
        obs::LogHistogram latency;
    };
    std::vector<TenantRecord> srvTenants;
    /** @} */

    /** Failure context (log tail) for non-Finished outcomes. */
    std::string note;
};

} // namespace orch
} // namespace misar

#endif // MISAR_ORCH_JOB_HH
