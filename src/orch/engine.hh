/**
 * @file
 * Campaign engine: expands a CampaignSpec and executes the job list.
 *
 * Two executors differ only in where a job runs; what it runs and
 * how it is recorded is shared (see orch/job.hh):
 *
 *  - runCampaign(): a fork/exec worker pool runs each job as an
 *    isolated misar_sim process, enforcing wall-clock timeouts
 *    (kill + bounded retry), classifying outcomes from exit codes
 *    (see orch/exit_codes.hh), journaling every terminal job to the
 *    append-only manifest (resume support), and re-reading each
 *    job's JSON run report for aggregation. misar_sim turns the
 *    job's flags back into a JobSpec and runs it like the
 *    in-process executor does.
 *
 *  - runCampaignInProcess(): the same grid executed serially in
 *    this process: resolveJob(), workload::runAppWithConfig(), and
 *    the same report ingestion over the report text the run hands
 *    back. Used by unit tests, the fig6/resil bench harnesses and
 *    the reproduction benchmark. For identical seeds both executors
 *    produce byte-identical campaign reports.
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

/** Options for the subprocess executor. */
struct EngineOptions
{
    std::string outDir = "campaign-out";
    /** Parallel worker processes (0 = hardware concurrency). */
    unsigned workers = 0;
    /** Skip jobs already journaled in the manifest. */
    bool resume = false;
    /** Path to the misar_sim binary. */
    std::string simPath = "misar_sim";
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
 *  applied after resolveJob() and the spec's obs directives. */
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
