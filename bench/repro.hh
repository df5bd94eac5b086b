/**
 * @file
 * The figures of `repro`, the one program that regenerates results/.
 *
 * `repro OUTDIR [FIGURE...]` writes OUTDIR/<figure>.txt for each
 * figure (all of them by default). A figure is one of two kinds:
 *
 *  - A grid figure declares its simulations as Jobs and reads their
 *    results by calling a Runner. The runner calls it twice. In the
 *    plan pass the call records the job and returns a stand-in result
 *    (finished, makespan 1, every counter 0), and the figure's output
 *    is discarded. Once a fork pool has run every distinct job once,
 *    the render pass calls the figure again with stdout going to its
 *    file, and the call returns what the job's run report says. A
 *    figure whose job list depended on its results would ask for a
 *    job it never declared, and the runner panics.
 *  - A whole-figure task builds its own System, or needs in-memory
 *    server stats, and runs whole in one forked worker.
 *
 * Either kind returns 1 when one of its own checks fails.
 */

#ifndef MISAR_BENCH_REPRO_HH
#define MISAR_BENCH_REPRO_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "obs/run_report.hh"
#include "orch/campaign_spec.hh"
#include "sim/config.hh"
#include "sync/sync_lib.hh"
#include "workload/synthetic_app.hh"

namespace misar {
namespace bench {

/** One simulation. Two jobs are the same job when every member is
 *  equal; each distinct job runs once, with the default ObsConfig. */
struct Job
{
    workload::AppSpec app;
    SystemConfig cfg;
    sync::SyncLib::Flavor flavor = sync::SyncLib::Flavor::Hw;
    std::uint64_t seed = 1;
    Tick tickLimit = 2000000000ULL;

    bool operator==(const Job &) const = default;
};

/** What a grid figure reads of a job: its run report. The defaults
 *  are the plan pass's stand-in result. */
struct JobResult
{
    bool finished = true;
    Tick makespan = 1;
    obs::ResilienceSummary resilience;
    /** The report's stats.counters. */
    std::map<std::string, std::uint64_t> counters;

    /** Counter @p name; 0 when the report lacks it. */
    std::uint64_t counter(const std::string &name) const;

    /** Fraction of sync ops the MSA handled, as System::hwCoverage(). */
    double hwCoverage() const;
};

/** Records a grid figure's jobs, then hands back their results. */
struct Runner
{
    const JobResult &operator()(const Job &job);

    /** @name Driven by repro's main(). @{ */
    std::vector<Job> jobs;          ///< distinct, in declaration order
    std::vector<JobResult> results; ///< per job; empty in the plan pass
    unsigned declared = 0;          ///< plan-pass calls
    /** @} */
};

/** The campaign spec bench/campaigns/@p file, validated. */
orch::CampaignSpec loadSpec(const std::string &file);

/** A campaign spec's results: (preset, app, cores) -> seed -> result. */
using SpecResults =
    std::map<std::tuple<std::string, std::string, unsigned>,
             std::map<std::uint64_t, const JobResult *>>;

/** Run every job of @p spec, resolved as misar_campaign does. */
SpecResults runSpec(Runner &run, const orch::CampaignSpec &spec);

/** The result of (@p preset, @p app, @p cores) at @p seed in
 *  @p results; fatal() unless that job finished. */
const JobResult &finished(const SpecResults &results,
                          const std::string &preset, const std::string &app,
                          unsigned cores, std::uint64_t seed);

/** Geometric mean of a vector of ratios. */
inline double
geoMean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

/** Print a figure's header banner. */
inline void
banner(const char *fig, const char *title)
{
    std::printf("==============================================================="
                "=================\n");
    std::printf("%s: %s\n", fig, title);
    std::printf("==============================================================="
                "=================\n");
}

/** @name Grid figures. @{ */
int fig6Speedup(Runner &run);
int fig7Coverage(Runner &run);
int fig8HwsyncOpt(Runner &run);
int fig9Breakdown(Runner &run);
int ablationMsaEntries(Runner &run);
int ablationOmuCounters(Runner &run);
int ablationNocLatency(Runner &run);
int resilDegradation(Runner &run);
/** @} */

/** @name Whole-figure tasks. @{ */
int fig5RawLatency();
int ablationSwAlgos();
int ablationSuspend();
int multiprogram();
int extRwlock();
int serverTail();
int serverOverload();
/** @} */

} // namespace bench
} // namespace misar

#endif // MISAR_BENCH_REPRO_HH
