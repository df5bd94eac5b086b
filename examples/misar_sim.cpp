/**
 * @file
 * misar_sim: command-line simulator driver.
 *
 * Runs any catalog application (or lists them) on a chosen core
 * count and accelerator configuration, and prints a run report.
 * The flags describe one campaign job: after checking them,
 * misar_sim runs it through orch::resolveJob() and
 * workload::runAppWithConfig(), as a campaign job runs. Campaigns
 * do not call misar_sim; their forked workers call the job function
 * directly. Run with the flags that match a spec job, misar_sim
 * writes that job's report byte for byte, except that meta.preset
 * holds the --config name where a campaign job's holds the preset
 * name (OrchEngine.SimFlagsReproduceSpecJobs pins this).
 *
 *   misar_sim --list-apps | --list-presets
 *   misar_sim --app streamcluster --cores 64 --config msa-omu \
 *             --entries 2 [--no-hwsync] [--no-omu] [--seed N] [--stats]
 *
 * Configs: baseline | msa0 | mcs-tour | spinlock | msa-omu | msa-inf |
 *          ideal | msa-omu-faults (the resilience campaign preset:
 *          message drops/dups/delays plus tile 0 decommissioned) |
 *          msa-omu2-nocfaults (NoC fault campaign: flit corruption,
 *          one link killed mid-run, reliable delivery + rerouting) |
 *          msa-omu2-corefaults (participant fault campaign: one core
 *          halted dead mid-run, lease-based lock recovery, barrier
 *          membership reconfiguration)
 *
 * Exit codes (the campaign workers' too, see orch/exit_codes.hh):
 * 0 finished, 40 deadlock, 41 tick-limit, 1 fatal error.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli_args.hh"
#include "orch/exit_codes.hh"
#include "orch/job.hh"
#include "sim/logging.hh"
#include "srv/arrival.hh"
#include "system/presets.hh"
#include "workload/app_catalog.hh"
#include "workload/runner.hh"

using namespace misar;
using namespace misar::cli;
using namespace misar::workload;

namespace {

void
usage()
{
    std::printf(
        "usage: misar_sim --app NAME [options]\n"
        "       misar_sim --list-apps | --list-presets\n"
        "options:\n"
        "  --cores N       core count, perfect square (default 16)\n"
        "  --config C      baseline|msa0|mcs-tour|spinlock|msa-omu|\n"
        "                  msa-inf|ideal|msa-omu-faults|\n"
        "                  msa-omu2-nocfaults|msa-omu2-corefaults\n"
        "                  (default msa-omu)\n"
        "  --entries N     MSA entries per tile (default 2)\n"
        "  --smt N         hardware threads per core (default 1)\n"
        "  --threads N     host worker threads for the simulation\n"
        "                  kernel (default 1 = serial; N > 1 runs the\n"
        "                  conservative PDES scheme — any N yields the\n"
        "                  same trajectory and statistics, and N = 1 is\n"
        "                  bit-identical to the serial kernel)\n"
        "  --no-hwsync     disable the HWSync-bit optimization\n"
        "  --no-omu        disable the OMU (entries never freed)\n"
        "  --seed N        workload seed (default 1)\n"
        "  --tick-limit N  simulated-tick budget (default 5000000000)\n"
        "  --stats         dump the full statistics registry\n"
        "  --kill-link SRC:DST@TICK\n"
        "                  kill the mesh link between adjacent routers\n"
        "                  SRC and DST at TICK (repeatable; implies\n"
        "                  NI end-to-end reliable delivery)\n"
        "  --kill-router R@TICK\n"
        "                  kill router R (its whole tile drops off the\n"
        "                  mesh) at TICK (repeatable; implies reliable\n"
        "                  delivery)\n"
        "  --kill-core C@TICK\n"
        "                  halt core C dead at TICK, wherever it is —\n"
        "                  possibly holding a lock or mid-barrier\n"
        "                  (repeatable; arms lease-based lock recovery\n"
        "                  if the preset has not already)\n"
        "server workloads (server-* / taskqueue apps only):\n"
        "  --arrival-rate R   offered load in requests per kilotick\n"
        "                     (positive, open-loop server apps only)\n"
        "  --service-dist D   request service-time distribution:\n"
        "                     fixed | exp | pareto\n"
        "  --queue-cap N      dispatch-queue capacity (admission\n"
        "                     control bound; overflow is shed)\n"
        "  --slo N            per-request latency SLO in ticks; arms\n"
        "                     SLO-aware admission (shed when predicted\n"
        "                     wait would bust it) and goodput\n"
        "                     accounting (open-loop server apps only)\n"
        "  --retry-policy P   what shed requests do next:\n"
        "                     none | naive | budgeted (default none)\n"
        "  --retry-budget R   budgeted policy: retry tokens added per\n"
        "                     success (default 0.1)\n"
        "  --tenants HI:LO    serve two priority tenants at these\n"
        "                     rates (requests per kilotick; must sum\n"
        "                     to --arrival-rate when both are given).\n"
        "                     'hi' is steady Poisson, 'lo' follows the\n"
        "                     app's arrival mode; under SLO pressure\n"
        "                     brownout sheds 'lo' first\n"
        "exit codes: 0 finished, 40 deadlock, 41 tick-limit, 1 error\n"
        "observability:\n"
        "  --trace-out FILE   write a multi-component Chrome trace\n"
        "                     (cores + MSA slices + NoC, sync-op flow\n"
        "                     events; open in ui.perfetto.dev).\n"
        "                     --trace is accepted as an alias\n"
        "  --stats-json FILE  write a machine-readable JSON run report\n"
        "                     (config, seed, outcome, full stats,\n"
        "                     resilience summary, sync-var profile)\n"
        "  --profile-sync     per-sync-variable contention profiler;\n"
        "                     prints the top-N table and feeds the\n"
        "                     run report's syncVars section\n"
        "  --top N            sync variables in the report (default 16)\n"
        "  --sample-interval K  snapshot key stats every K ticks\n"
        "  --sample-out FILE  write the sampled time series as CSV\n"
        "  --heatmap-out FILE write per-resource utilization timelines\n"
        "                     (MSA occupancy/free entries, OMU counters\n"
        "                     + episodes, NoC link flits, NI queues) as\n"
        "                     heatmap.json; samples on the\n"
        "                     --sample-interval cadence (default 10000)\n");
}

/** Strict positive-real option value (arrival rates). */
double
parsePositiveRealArg(const char *opt, const char *v)
{
    char *end = nullptr;
    const double val = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(val) || val <= 0)
        fatal("%s expects a positive number, got '%s'", opt, v);
    return val;
}

} // namespace

int
main(int argc, char **argv)
{
    // The run flags fill one campaign job (its defaults are the
    // CLI's) plus the campaign-wide server overrides, where 0 or ""
    // keeps the app's default.
    orch::JobSpec job;
    job.preset.config = "msa-omu";
    orch::CampaignSpec::ServerSweep server;
    bool dump_stats = false, profile_sync = false;
    unsigned top_n = 16;
    std::uint64_t sample_interval = 0;
    std::uint64_t tick_limit = 5000000000ULL;
    std::string trace_path, stats_json_path, sample_csv_path;
    std::string heatmap_path;
    std::vector<LinkKill> link_kills;
    std::vector<RouterKill> router_kills;
    std::vector<CoreKill> core_kills;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        if (a == "--list" || a == "--list-apps") {
            for (const AppSpec &s : appCatalog())
                std::printf("%s\n", s.name.c_str());
            for (const AppSpec &s : serverCatalog())
                std::printf("%s\n", s.name.c_str());
            return 0;
        } else if (a == "--list-presets") {
            for (const std::string &p : sys::cliPresetNames())
                std::printf("%s\n", p.c_str());
            return 0;
        } else if (a == "--app") {
            job.app = next();
        } else if (a == "--cores") {
            job.cores = parseUnsignedArg("--cores", next());
        } else if (a == "--config") {
            job.preset.config = next();
        } else if (a == "--entries") {
            job.preset.entries = parseUnsignedArg("--entries", next(),
                                                  /*allow_zero=*/true);
        } else if (a == "--smt") {
            job.preset.smt = parseUnsignedArg("--smt", next());
        } else if (a == "--threads") {
            job.preset.threads = parseUnsignedArg("--threads", next());
        } else if (a == "--no-hwsync") {
            job.preset.hwsync = false;
        } else if (a == "--no-omu") {
            job.preset.omu = false;
        } else if (a == "--seed") {
            job.seed = parseDecimalArg("--seed", next(), /*allow_zero=*/true);
        } else if (a == "--tick-limit") {
            tick_limit = parseDecimalArg("--tick-limit", next());
        } else if (a == "--kill-link") {
            const char *v = next();
            std::uint64_t f[3];
            if (!parseKillFields(v, ":@", f, 3))
                fatal("--kill-link expects SRC:DST@TICK (plain decimal "
                      "fields), got '%s'", v);
            link_kills.push_back({static_cast<unsigned>(f[0]),
                                  static_cast<unsigned>(f[1]),
                                  static_cast<Tick>(f[2])});
        } else if (a == "--kill-router") {
            const char *v = next();
            std::uint64_t f[2];
            if (!parseKillFields(v, "@", f, 2))
                fatal("--kill-router expects R@TICK (plain decimal "
                      "fields), got '%s'", v);
            router_kills.push_back({static_cast<unsigned>(f[0]),
                                    static_cast<Tick>(f[1])});
        } else if (a == "--kill-core") {
            const char *v = next();
            std::uint64_t f[2];
            if (!parseKillFields(v, "@", f, 2))
                fatal("--kill-core expects C@TICK (plain decimal "
                      "fields), got '%s'", v);
            core_kills.push_back({static_cast<unsigned>(f[0]),
                                  static_cast<Tick>(f[1])});
        } else if (a == "--stats") {
            dump_stats = true;
        } else if (a == "--trace" || a == "--trace-out") {
            trace_path = next();
        } else if (a == "--stats-json") {
            stats_json_path = next();
        } else if (a == "--profile-sync") {
            profile_sync = true;
        } else if (a == "--top") {
            top_n = parseUnsignedArg("--top", next());
        } else if (a == "--sample-interval") {
            sample_interval = parseDecimalArg("--sample-interval", next());
        } else if (a == "--arrival-rate") {
            job.arrivalRate = parsePositiveRealArg("--arrival-rate", next());
        } else if (a == "--service-dist") {
            server.serviceDist = next();
        } else if (a == "--queue-cap") {
            server.queueCap = parseDecimalArg("--queue-cap", next());
        } else if (a == "--slo") {
            server.slo = parseDecimalArg("--slo", next());
        } else if (a == "--retry-policy") {
            job.retryPolicy = next();
        } else if (a == "--retry-budget") {
            server.retryBudget =
                parsePositiveRealArg("--retry-budget", next());
        } else if (a == "--tenants") {
            job.tenantMix = next();
        } else if (a == "--sample-out") {
            sample_csv_path = next();
        } else if (a == "--heatmap-out") {
            heatmap_path = next();
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option %s", a.c_str());
        }
    }
    if (job.app.empty()) {
        usage();
        return 1;
    }

    // Check the job with the CLI's own messages before
    // orch::resolveJob() builds it.
    const srv::ServerSpec &app_server = appByName(job.app).server;
    const bool overload_knobs = server.slo > 0 || !job.retryPolicy.empty() ||
                                server.retryBudget > 0 ||
                                !job.tenantMix.empty();
    const bool server_knobs = job.arrivalRate > 0 ||
                              !server.serviceDist.empty() ||
                              server.queueCap > 0 || overload_knobs;
    if (server_knobs && !app_server.enabled)
        fatal("--arrival-rate/--service-dist/--queue-cap/--slo/"
              "--retry-policy/--retry-budget/--tenants only apply to "
              "server workloads, and '%s' is not one", job.app.c_str());
    if (job.arrivalRate > 0 && app_server.mode == srv::ArrivalMode::Closed)
        fatal("--arrival-rate does not apply to the closed-loop "
              "'%s' app", job.app.c_str());
    if (overload_knobs && app_server.mode == srv::ArrivalMode::Closed)
        fatal("--slo/--retry-policy/--retry-budget/--tenants do not "
              "apply to the closed-loop '%s' app", job.app.c_str());
    srv::ServiceDist dist;
    if (!server.serviceDist.empty() &&
        !srv::parseServiceDist(server.serviceDist, dist))
        fatal("unknown --service-dist '%s' (expected one of: %s)",
              server.serviceDist.c_str(), srv::serviceDistNames().c_str());
    srv::RetryPolicy policy = app_server.retryPolicy;
    if (!job.retryPolicy.empty() &&
        !srv::parseRetryPolicy(job.retryPolicy, policy))
        fatal("unknown --retry-policy '%s' (expected one of: %s)",
              job.retryPolicy.c_str(), srv::retryPolicyNames().c_str());
    if (server.retryBudget > 0 && policy != srv::RetryPolicy::Budgeted)
        fatal("--retry-budget only applies with --retry-policy budgeted");
    if (!job.tenantMix.empty()) {
        double hi = 0, lo = 0;
        if (!srv::parseTenantMix(job.tenantMix, hi, lo))
            fatal("--tenants expects HI:LO (two positive rates in "
                  "requests per kilotick), got '%s'", job.tenantMix.c_str());
        if (job.arrivalRate > 0 &&
            std::fabs(hi + lo - job.arrivalRate) > 1e-9 * (hi + lo))
            fatal("--tenants %s sums to %g, not the --arrival-rate %g",
                  job.tenantMix.c_str(), hi + lo, job.arrivalRate);
    }
    const std::string &config = job.preset.config;
    const std::vector<std::string> &presets = sys::cliPresetNames();
    if (std::find(presets.begin(), presets.end(), config) == presets.end())
        fatal("unknown config '%s'", config.c_str());
    if (config == "msa-omu-faults" && !job.preset.omu)
        fatal("--no-omu is incompatible with msa-omu-faults (the "
              "offline slice sheds waiters to software)");

    orch::JobRun run = orch::resolveJob(job, server);
    SystemConfig &cfg = run.cfg;
    cfg.validate();
    // Scale presets (msa256/msa1024) pin their own core count.
    const unsigned cores = cfg.numCores;

    // Validate kill targets against the actual topology up front:
    // a typo'd tile id should die here with a usable message, not
    // deep inside system construction.
    for (const LinkKill &lk : link_kills)
        if (lk.a >= cores || lk.b >= cores)
            fatal("--kill-link %u:%u out of range for %u tiles",
                  lk.a, lk.b, cores);
    for (const RouterKill &rk : router_kills)
        if (rk.router >= cores)
            fatal("--kill-router %u out of range for %u tiles",
                  rk.router, cores);
    for (const CoreKill &ck : core_kills)
        if (ck.core >= cores)
            fatal("--kill-core %u out of range for %u cores",
                  ck.core, cores);
    if (!link_kills.empty() || !router_kills.empty()) {
        // CLI kills stack on top of whatever the preset armed.
        // Losing unprotected coherence or memory traffic wedges the
        // chip, so the kills imply end-to-end reliable delivery.
        for (const LinkKill &lk : link_kills)
            cfg.resil.linkKills.push_back(lk);
        for (const RouterKill &rk : router_kills)
            cfg.resil.routerKills.push_back(rk);
        cfg.noc.reliable = true;
    }
    if (!core_kills.empty()) {
        for (const CoreKill &ck : core_kills)
            cfg.resil.coreKills.push_back(ck);
        // A corpse's hardware locks are recovered by lease expiry;
        // without leases they would be orphaned forever, so CLI core
        // kills arm the corefaults preset's lease parameters unless
        // the preset already chose its own.
        if (cfg.resil.leaseTicks == 0 &&
            cfg.msa.mode != AccelMode::None) {
            cfg.resil.leaseTicks = 4000;
            cfg.resil.leaseProbeTimeout = 1500;
        }
        if (cfg.resil.timeoutTicks == 0)
            cfg.resil.timeoutTicks = 1000;
    }

    // Observability is configured before the system is built so the
    // constructor can wire tracer/profiler/sampler into every layer.
    if ((!sample_csv_path.empty() || !heatmap_path.empty()) &&
        sample_interval == 0)
        sample_interval = 10000; // sampled outputs imply a default rate
    cfg.obs.traceEnabled = !trace_path.empty();
    cfg.obs.traceOutPath = trace_path;
    // --stats-json implies the profiler so the report carries the
    // syncVars section — but the profiler is serial-only, so threaded
    // runs only get it on explicit request (and then fail validation
    // with the real reason instead of silently dropping it).
    cfg.obs.profileSync =
        profile_sync ||
        (!stats_json_path.empty() && job.preset.threads == 1);
    cfg.obs.profileTopN = top_n;
    cfg.obs.sampleInterval = sample_interval;
    cfg.obs.sampleCsvPath = sample_csv_path;
    cfg.obs.statsJsonPath = stats_json_path;
    cfg.obs.heatmapEnabled = !heatmap_path.empty();
    cfg.obs.heatmapJsonPath = heatmap_path;

    // The run writes every requested artifact — even for a deadlocked
    // or runaway run, whose report's "outcome" says what happened —
    // and a panic()/fatal() mid-run still leaves the report.
    std::unique_ptr<sys::System> system;
    workload::RunOptions opts;
    opts.tickLimit = tick_limit;
    opts.system = &system;
    const workload::RunResult r = workload::runAppWithConfig(
        run.app, cfg, run.flavor, job.seed, config, opts);
    if (r.outcome != sys::RunOutcome::Finished)
        return orch::exitCodeFor(r.outcome);

    sys::System &s = *system;
    std::printf("app            : %s\n", run.app.name.c_str());
    std::printf("cores          : %u (%ux%u mesh, %u threads)\n",
                cores, cfg.meshDim(), cfg.meshDim(), cfg.numThreads());
    std::printf("config         : %s + %s library\n",
                cfg.accelName().c_str(),
                sync::SyncLib::flavorName(run.flavor));
    std::printf("makespan       : %llu cycles\n",
                static_cast<unsigned long long>(r.makespan));
    // Runs that never reach the sync unit (pthread, spinlock and
    // MCS-Tour libraries) have no coverage to report.
    char coverage[32] = "coverage n/a";
    if (r.hwOps + r.swOps)
        std::snprintf(coverage, sizeof coverage, "%.1f%% coverage",
                      100.0 * r.hwCoverage);
    std::printf("sync ops       : %llu hardware / %llu software (%s)\n",
                static_cast<unsigned long long>(r.hwOps),
                static_cast<unsigned long long>(r.swOps), coverage);
    std::printf("silent locks   : %llu\n",
                static_cast<unsigned long long>(r.silentLocks));
    const obs::ResilienceSummary &resil = r.resilience;
    if (cfg.resil.messageFaultsEnabled() || cfg.resil.offlineTile >= 0)
        std::printf("resilience     : %llu drops / %llu timeouts / "
                    "%llu retries / %llu abandoned\n",
                    static_cast<unsigned long long>(
                        resil["injectedDrops"]),
                    static_cast<unsigned long long>(resil["timeouts"]),
                    static_cast<unsigned long long>(resil["retries"]),
                    static_cast<unsigned long long>(
                        resil["abandonedOps"]));
    if (cfg.resil.nocFaultsEnabled())
        std::printf("noc resilience : %llu retransmits / %llu dedups / "
                    "%llu detour hops / %llu dead links / "
                    "%llu dead routers\n",
                    static_cast<unsigned long long>(
                        resil["nocRetransmits"]),
                    static_cast<unsigned long long>(resil["nocDedups"]),
                    static_cast<unsigned long long>(resil["detourHops"]),
                    static_cast<unsigned long long>(resil["deadLinks"]),
                    static_cast<unsigned long long>(
                        resil["deadRouters"]));
    if (cfg.resil.coreFaultsEnabled())
        std::printf("core faults    : %llu kills / %llu revocations / "
                    "%llu reconfigs / %llu fenced releases\n",
                    static_cast<unsigned long long>(resil["coreKills"]),
                    static_cast<unsigned long long>(
                        resil["lockRevocations"]),
                    static_cast<unsigned long long>(
                        resil["barrierReconfigs"]),
                    static_cast<unsigned long long>(
                        resil["fencedReleases"]));
    if (r.hasServer) {
        const srv::ServerStats &server_stats = r.server;
        std::printf("server         : offered %.2f/ktick, achieved "
                    "%.2f/ktick, knee=%s\n",
                    server_stats.offeredRate, server_stats.throughput,
                    server_stats.knee ? "yes" : "no");
        std::printf("requests       : %llu generated / %llu completed / "
                    "%llu rejected / %llu stranded / %llu steals\n",
                    static_cast<unsigned long long>(server_stats.generated),
                    static_cast<unsigned long long>(server_stats.completed),
                    static_cast<unsigned long long>(server_stats.rejected),
                    static_cast<unsigned long long>(server_stats.stranded),
                    static_cast<unsigned long long>(server_stats.steals));
        if (!server_stats.latency.empty())
            std::printf("req latency    : p50 %llu / p99 %llu / "
                        "p999 %llu cycles\n",
                        static_cast<unsigned long long>(
                            server_stats.latency.p50()),
                        static_cast<unsigned long long>(
                            server_stats.latency.p99()),
                        static_cast<unsigned long long>(
                            server_stats.latency.p999()));
        if (server_stats.sloTicks > 0)
            std::printf("slo            : %llu ticks, met %llu/%llu, "
                        "goodput %.2f/ktick, sloRejected %llu\n",
                        static_cast<unsigned long long>(
                            server_stats.sloTicks),
                        static_cast<unsigned long long>(
                            server_stats.sloMet),
                        static_cast<unsigned long long>(
                            server_stats.completed),
                        server_stats.goodput,
                        static_cast<unsigned long long>(
                            server_stats.rejectedSlo));
        if (server_stats.retryPolicy != srv::RetryPolicy::None)
            std::printf("retries        : policy %s, %llu attempts, "
                        "%llu budget-denied\n",
                        srv::retryPolicyName(server_stats.retryPolicy),
                        static_cast<unsigned long long>(
                            server_stats.retries),
                        static_cast<unsigned long long>(
                            server_stats.retryBudgetDenied));
        for (const srv::TenantStats &ts : server_stats.tenants)
            std::printf("tenant %-8s: offered %.2f/ktick, %llu done / "
                        "%llu shed, goodput %.2f/ktick, p99 %llu\n",
                        ts.name.c_str(), ts.offeredRate,
                        static_cast<unsigned long long>(ts.completed),
                        static_cast<unsigned long long>(
                            ts.rejected + ts.rejectedSlo),
                        ts.goodput,
                        static_cast<unsigned long long>(
                            ts.latency.empty() ? 0 : ts.latency.p99()));
    }
    std::printf("noc packets    : %llu (avg latency %.1f cycles)\n",
                static_cast<unsigned long long>(
                    s.stats().counterValue("noc.packetsSent")),
                s.stats().pooledMean("noc.packetLatency"));
    if (!trace_path.empty())
        std::printf("trace          : %s\n", trace_path.c_str());
    if (!stats_json_path.empty())
        std::printf("stats json     : %s\n", stats_json_path.c_str());
    if (!sample_csv_path.empty())
        std::printf("sample csv     : %s\n", sample_csv_path.c_str());
    if (!heatmap_path.empty())
        std::printf("heatmap json   : %s\n", heatmap_path.c_str());
    if (profile_sync && s.syncProfiler()) {
        std::printf("\n");
        s.syncProfiler()->writeReport(std::cout, top_n);
    }
    if (dump_stats) {
        std::printf("\n--- full statistics ---\n");
        s.stats().dump(std::cout);
    }
    return 0;
}
