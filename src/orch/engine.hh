/**
 * @file
 * Campaign engine: expands a CampaignSpec and executes the job list.
 *
 * Two executors differ only in where a job runs; what it runs and
 * how it is recorded is shared (see orch/job.hh). Both run a job
 * through one function: resolveJob(), the spec's obs directives,
 * then workload::runAppWithConfig().
 *
 *  - runCampaign(): a fork worker pool runs each job in a child of
 *    this process, which calls the job function, writes the job's
 *    durable run report (and heatmap) under jobs/, and exits with
 *    the outcome's exit code (see orch/exit_codes.hh). The engine
 *    enforces wall-clock timeouts (kill + bounded retry), journals
 *    every terminal job to the append-only manifest (resume
 *    support), and re-reads each job's JSON run report for
 *    aggregation. A finished job's log is empty; nothing produces
 *    "spawn-error".
 *
 *  - runCampaignInProcess(): the same grid executed serially in
 *    this process, ingesting the report text the run hands back.
 *    Used by unit tests, the fig6/resil bench harnesses and the
 *    reproduction benchmark.
 *
 * Either way a job's meta.preset is its preset's name, and for
 * identical seeds both executors produce byte-identical reports.
 */

#ifndef MISAR_ORCH_ENGINE_HH
#define MISAR_ORCH_ENGINE_HH

#include <functional>
#include <string>
#include <vector>

#include "orch/job.hh"
#include "sim/config.hh"

namespace misar {
namespace orch {

/** Options for the worker-pool executor. */
struct EngineOptions
{
    std::string outDir = "campaign-out";
    /** Parallel worker processes (0 = hardware concurrency). */
    unsigned workers = 0;
    /** Skip jobs already journaled in the manifest. */
    bool resume = false;
    /** Print per-job progress lines. */
    bool verbose = true;
    /**
     * Live single-line stderr ticker (done/running/failed counts,
     * EWMA job rate, ETA). The same numbers are always written to
     * <outDir>/status.json regardless of this flag.
     */
    bool progress = false;

    /** @name Failure-injection hooks (CI / tests). @{ */
    /** SIGKILL this job id's first attempt right after spawn. */
    int chaosKillJob = -1;
    /** Stop dispatching after this many jobs complete (resumable). */
    int stopAfter = -1;
    /** @} */
};

/** Host-side execution measurements for one engine invocation. */
struct CampaignRunStats
{
    unsigned workers = 0;
    unsigned jobsTotal = 0;   ///< grid size
    unsigned jobsRun = 0;     ///< executed by this invocation
    unsigned jobsSkipped = 0; ///< satisfied from the manifest
    unsigned attempts = 0;    ///< spawns, including retries
    double wallSec = 0.0;
    double busySec = 0.0; ///< summed child wall time
    bool complete = false;

    double
    workerUtilization() const
    {
        return workers && wallSec > 0.0
                   ? busySec / (workers * wallSec)
                   : 0.0;
    }
};

/**
 * Run @p spec (validate() it first) under the process pool. On
 * success @p out holds one record per grid job in id order (outcome
 * Missing for jobs an early stop never ran). Returns false on setup
 * errors (unusable out-dir, resume mismatch) with @p err set.
 */
bool runCampaign(const CampaignSpec &spec, const EngineOptions &opts,
                 std::vector<JobRecord> &out, CampaignRunStats &stats,
                 std::string &err);

/** Per-job config customization hook for the in-process engine,
 *  applied after resolveJob() and the spec's obs directives (the
 *  worker-pool executor uses one to place each job's artifacts). */
struct InProcessHooks
{
    std::function<void(const JobSpec &, SystemConfig &)> tweak;
};

/** Serial in-process execution of the full grid (id order). */
std::vector<JobRecord> runCampaignInProcess(
    const CampaignSpec &spec, const InProcessHooks &hooks = {});

/** The per-job run-report path, relative to the out-dir. */
std::string jobReportRelPath(unsigned jobId);

} // namespace orch
} // namespace misar

#endif // MISAR_ORCH_ENGINE_HH
