#include "workload/runner.hh"

#include <fstream>
#include <memory>
#include <sstream>

#include "obs/run_report.hh"
#include "sim/logging.hh"
#include "system/system.hh"
#include "workload/app_catalog.hh"

namespace misar {
namespace workload {

namespace {

/** Pre-run metadata for the report (normal and crash paths). */
obs::RunMeta
buildMeta(const AppSpec &spec, const SystemConfig &cfg,
          const std::string &preset, sync::SyncLib::Flavor flavor,
          std::uint64_t seed)
{
    obs::RunMeta meta;
    meta.app = spec.name;
    meta.preset = preset;
    meta.accel = cfg.accelName();
    meta.flavor = sync::SyncLib::flavorName(flavor);
    meta.cores = cfg.numCores;
    meta.smtWays = cfg.smtWays;
    meta.msaEntries = cfg.msa.msaEntries;
    meta.omuCounters = cfg.msa.omuCounters;
    meta.omuEnabled = cfg.msa.omuEnabled;
    meta.hwSyncBitOpt = cfg.msa.hwSyncBitOpt;
    meta.seed = seed;
    return meta;
}

/** Write @p write's output to @p path; fatal() when it cannot. */
template <typename Write>
void
writeOutput(const std::string &path, const char *what, Write write)
{
    std::ofstream f(path);
    if (!f)
        fatal("cannot open %s file %s", what, path.c_str());
    write(f);
}

/**
 * Write the cfg.obs-requested output files of a finished run and,
 * when @p report is set, hand back the run report's text.
 */
void
writeObsOutputs(sys::System &s, const AppSpec &spec,
                const std::string &preset, sync::SyncLib::Flavor flavor,
                std::uint64_t seed, const RunResult &r,
                const srv::ServerStats *server, std::string *report)
{
    const ObsConfig &o = s.config().obs;
    if (s.sampler())
        s.sampler()->sampleNow(); // close the time series at quiesce
    if (s.monitor())
        s.monitor()->finalize(s.eventQueue().now());

    if (!o.heatmapJsonPath.empty() && s.monitor())
        writeOutput(o.heatmapJsonPath, "heatmap",
                    [&](std::ostream &f) { s.monitor()->writeJson(f); });
    if (!o.traceOutPath.empty() && s.tracer())
        writeOutput(o.traceOutPath, "trace",
                    [&](std::ostream &f) { s.writeTrace(f); });
    if (!o.sampleCsvPath.empty() && s.sampler())
        writeOutput(o.sampleCsvPath, "sample",
                    [&](std::ostream &f) { s.sampler()->writeCsv(f); });
    if (o.statsJsonPath.empty() && !report)
        return;
    obs::RunMeta meta = buildMeta(spec, s.config(), preset, flavor, seed);
    meta.outcome = sys::runOutcomeName(r.outcome);
    meta.makespan = r.makespan;
    meta.hwCoverage = r.hwCoverage;
    std::ostringstream os;
    obs::writeRunReport(os, meta, s.stats(), s.syncProfiler(),
                        o.profileTopN, s.sampler(), s.eventStats(),
                        s.monitor(), server);
    const std::string text = os.str();
    // Durable (fsync'd) so a panic in a later run of the same
    // process — or the orchestrator killing us right after the run —
    // cannot lose the completed job's report.
    if (!o.statsJsonPath.empty() &&
        !obs::writeFileDurable(o.statsJsonPath, text))
        fatal("cannot write stats file %s", o.statsJsonPath.c_str());
    if (report)
        *report = text;
}

} // namespace

RunResult
runAppWithConfig(const AppSpec &spec, const SystemConfig &cfg,
                 sync::SyncLib::Flavor flavor, std::uint64_t seed,
                 const std::string &preset, const RunOptions &opts)
{
    auto system = std::make_unique<sys::System>(cfg);
    sys::System &s = *system;
    const unsigned threads = cfg.numThreads();
    sync::SyncLib lib(flavor, threads);
    if (cfg.resil.coreFaultsEnabled())
        lib.setDeadQuery(
            [&s](CoreId c) { return s.isDeclaredDead(c); });
    AppLayout layout;

    // Server workloads run through the srv harness (which owns the
    // request schedule and per-thread recording); everything else is
    // a synthetic-signature appThread.
    std::unique_ptr<srv::ServerHarness> harness;
    if (spec.server.enabled)
        harness = std::make_unique<srv::ServerHarness>(spec.server,
                                                       threads, seed);
    for (CoreId t = 0; t < threads; ++t)
        s.start(t, harness
                       ? harness->thread(s.api(t), &lib)
                       : appThread(s.api(t), spec, layout, &lib, threads,
                                   seed));

    // If the run dies in panic()/fatal() mid-flight, still flush a
    // report whose outcome says so (campaign jobs must always leave
    // an ingestible artifact).
    std::unique_ptr<obs::CrashReportGuard> guard;
    if (!cfg.obs.statsJsonPath.empty())
        guard = std::make_unique<obs::CrashReportGuard>(
            cfg.obs.statsJsonPath, s,
            buildMeta(spec, cfg, preset, flavor, seed),
            cfg.obs.profileTopN);

    RunResult r;
    r.outcome = s.runDetailed(opts.tickLimit);
    r.finished = r.outcome == sys::RunOutcome::Finished;
    if (r.outcome == sys::RunOutcome::Deadlock)
        warn("app %s DEADLOCKED on %s (see stall report above)",
             spec.name.c_str(), cfg.accelName().c_str());
    else if (r.outcome == sys::RunOutcome::LimitReached)
        warn("app %s hit the tick budget on %s (livelock or slow run)",
             spec.name.c_str(), cfg.accelName().c_str());
    r.makespan = s.makespan();
    r.hwCoverage = s.hwCoverage();
    // counterValue(), not counter(): reading must not register a
    // zero counter, or the run report would depend on who read it.
    r.hwOps = s.stats().counterValue("sync.hwOps");
    r.swOps = s.stats().counterValue("sync.swOps");
    r.silentLocks = s.stats().counterValue("sync.silentLocks");
    r.resilience = obs::resilienceSummary(s.stats());
    if (harness) {
        r.hasServer = true;
        r.server = harness->finalize(r.makespan);
    }

    writeObsOutputs(s, spec, preset, flavor, seed, r,
                    r.hasServer ? &r.server : nullptr, opts.report);
    if (guard)
        guard->disarm();
    if (opts.system)
        *opts.system = std::move(system);
    return r;
}

RunResult
runAppWithConfig(const AppSpec &spec, const SystemConfig &cfg,
                 sync::SyncLib::Flavor flavor, std::uint64_t seed,
                 const std::string &preset)
{
    return runAppWithConfig(spec, cfg, flavor, seed, preset,
                            RunOptions{});
}

RunResult
runApp(const AppSpec &spec, unsigned cores, sys::PaperConfig pc,
       std::uint64_t seed)
{
    return runAppWithConfig(spec, sys::configFor(pc, cores),
                            sys::flavorFor(pc), seed,
                            sys::paperConfigName(pc));
}

} // namespace workload
} // namespace misar
