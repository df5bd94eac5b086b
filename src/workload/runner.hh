/**
 * @file
 * Experiment runner: executes one application on one configuration
 * and reports makespan, hardware coverage, and key statistics.
 */

#ifndef MISAR_WORKLOAD_RUNNER_HH
#define MISAR_WORKLOAD_RUNNER_HH

#include <memory>
#include <string>

#include "obs/run_report.hh"
#include "system/presets.hh"
#include "system/system.hh"
#include "workload/synthetic_app.hh"

namespace misar {
namespace workload {

/** Result of one application run. */
struct RunResult
{
    Tick makespan = 0;       ///< finish tick of the slowest thread
    double hwCoverage = 0.0; ///< fraction of sync ops handled by MSA
    std::uint64_t hwOps = 0;
    std::uint64_t swOps = 0;
    std::uint64_t silentLocks = 0;
    bool finished = false;
    /** Why the run stopped (deadlock vs tick-budget exhaustion). */
    sys::RunOutcome outcome = sys::RunOutcome::LimitReached;

    /** The run report's "resilience" block. */
    obs::ResilienceSummary resilience;

    /** @name Server-run accounting (spec.server.enabled only). @{ */
    bool hasServer = false;
    srv::ServerStats server;
    /** @} */
};

/** Per-run execution knobs (misar_sim, campaign engine, ablation
 *  harnesses). */
struct RunOptions
{
    /** Simulated-tick budget handed to System::runDetailed. */
    Tick tickLimit = 2000000000ULL;
    /** When set, receives the finished System (registry, profiler)
     *  for reporting after the run; only for reading, since the
     *  run's sync library and workload are gone. */
    std::unique_ptr<sys::System> *system = nullptr;
    /** When set, receives the run report's JSON text — the bytes
     *  cfg.obs.statsJsonPath gets when that is set too. */
    std::string *report = nullptr;
};

/** Run @p spec on @p cores cores under configuration @p pc. */
RunResult runApp(const AppSpec &spec, unsigned cores, sys::PaperConfig pc,
                 std::uint64_t seed = 1);

/**
 * Same, but with an explicit SystemConfig (for ablations). One
 * thread runs per hardware thread (cfg.numThreads()). When cfg.obs
 * names output files (traceOutPath / sampleCsvPath /
 * heatmapJsonPath / statsJsonPath) they are written after the run,
 * and one that cannot be written is fatal(); while the run is in
 * flight a panic()/fatal() still leaves a statsJsonPath report.
 * @p preset labels the run report's metadata block.
 */
RunResult runAppWithConfig(const AppSpec &spec, const SystemConfig &cfg,
                           sync::SyncLib::Flavor flavor,
                           std::uint64_t seed = 1,
                           const std::string &preset = "");

/** Same, with explicit execution options. */
RunResult runAppWithConfig(const AppSpec &spec, const SystemConfig &cfg,
                           sync::SyncLib::Flavor flavor,
                           std::uint64_t seed, const std::string &preset,
                           const RunOptions &opts);

} // namespace workload
} // namespace misar

#endif // MISAR_WORKLOAD_RUNNER_HH
