/**
 * @file
 * A job's three stages, each implemented once: resolveJob() turns a
 * JobSpec into the configuration it runs (misar_sim and the
 * in-process executor both call it), workload::runAppWithConfig()
 * runs it and writes its JSON run report, and ingestReport()
 * (aggregate.hh) fills the JobRecord the aggregator consumes from that
 * report text — read back from disk for a job a forked worker ran,
 * handed over in memory for an in-process one. Both executors therefore
 * run the same code on the same configuration and record the same
 * values, which is what makes parallel campaigns byte-reproducible
 * against the serial harnesses.
 */

#ifndef MISAR_ORCH_JOB_HH
#define MISAR_ORCH_JOB_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

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
 * entries, SMT ways, HWSync/OMU switches and seed, and the catalog
 * app with the job's arrival rate, retry policy and tenant mix and
 * the overrides applied. Observability settings stay at their
 * defaults. Front ends check names and value combinations with their
 * own messages first; an unknown preset, app, service distribution,
 * retry policy or tenant mix here is fatal().
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
    SpawnError, ///< never produced; reports keep its key
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

/** One job's value of one campaign-report column (aggregate.hh). */
struct ColumnValue
{
    /** An Agg or Count column's value; NaN when the job's run report
     *  lacks the column's block. */
    double num = std::numeric_limits<double>::quiet_NaN();
    /** A Hist column's value. */
    obs::LogHistogram hist;
};

/** One job's aggregation-ready results. */
struct JobRecord
{
    JobSpec job;
    JobOutcome outcome = JobOutcome::Missing;

    /** The "makespan" column's value. */
    Tick makespan = 0;

    /** The run report's "resilience" block. */
    obs::ResilienceSummary resilience;

    /** The "syncWait" column's value: the run-level sync-wait
     *  distribution, empty when the profiler did not run. */
    obs::LogHistogram syncWait;

    /** One value per report column, in the table's order. */
    std::vector<ColumnValue> values;

    /** Failure context (log tail) for non-Finished outcomes. */
    std::string note;
};

} // namespace orch
} // namespace misar

#endif // MISAR_ORCH_JOB_HH
