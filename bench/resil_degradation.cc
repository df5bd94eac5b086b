/**
 * @file
 * Resilience degradation study: how much of the MSA/OMU-2 speedup
 * survives a hostile fault campaign (message drops, duplicates and
 * delays on every MSA message, plus tile 0's slice decommissioned
 * mid-run). The headline applications run under the pthread
 * baseline, MSA-0, clean MSA/OMU-2, and the faulted MSA/OMU-2
 * preset; the faulted column must retain a speedup at least as good
 * as MSA-0 (degraded, never worse than having no accelerator state
 * to lose).
 *
 * The sweep is described by bench/campaigns/resil.json and executed
 * through the campaign engine's in-process path (the same spec runs
 * in parallel under misar_campaign). The faulted runs are stochastic,
 * so the spec gives the faulted preset — and the baseline it is
 * ratioed against — three seeds each; the aggregator matches each
 * faulted run to the baseline run with the same seed.
 *
 * The faulted runs also feed the observability layer: their
 * resilience counters (timeouts, retries, aborted ops, offline
 * sheds, crossed snoops) are tabulated per app, and with
 * MISAR_RESIL_REPORT=DIR set in the environment each faulted run
 * writes its machine-readable JSON run report into DIR.
 *
 * A second section measures mesh degradation: each headline app runs
 * on a healthy mesh, with the NI reliable-delivery layer armed but
 * no faults (its fault-free cost), with one link killed mid-run
 * (rerouted, must still finish), and with one router killed mid-run.
 * The router row is reported honestly: killing a router strands its
 * tile's threads and home-directory data, so those runs end in a
 * partition outcome rather than "finished" — the gate is that the
 * outcome is detected and attributed, not hidden.
 *
 * A third section measures dead-participant degradation: each app
 * runs clean, with one core killed early (barrier reconfiguration),
 * with one core killed in steady state (lease-expiry lock
 * revocation), and with tile 0's MSA slice failed over to its buddy.
 * Every row must finish — losing a participant costs cycles, never
 * the run.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "orch/aggregate.hh"
#include "orch/campaign_spec.hh"
#include "orch/engine.hh"
#include "sim/logging.hh"
#include "workload/app_catalog.hh"
#include "workload/runner.hh"

using namespace misar;
using namespace misar::workload;
using namespace misar::orch;

namespace {

/** Degraded-mesh variants of the clean MSA/OMU-2 configuration. */
enum class MeshVariant
{
    Clean,     ///< healthy mesh, reliable delivery off
    Reliable,  ///< healthy mesh, NI end-to-end layer armed
    OneLink,   ///< link 0-1 killed mid-run (reroute + retransmit)
    OneRouter, ///< router 5 killed mid-run (tile stranded)
};

SystemConfig
meshVariantConfig(MeshVariant v, unsigned cores)
{
    SystemConfig cfg = makeConfig(cores, AccelMode::MsaOmu, 2);
    if (v != MeshVariant::Clean)
        cfg.noc.reliable = true;
    if (v == MeshVariant::OneLink)
        cfg.resil.linkKills.push_back({0, 1, 30000});
    if (v == MeshVariant::OneRouter)
        cfg.resil.routerKills.push_back({5, 30000});
    cfg.validate();
    return cfg;
}

/**
 * Degraded-mesh section. Returns false when a gating row misbehaves:
 * clean/reliable/1-link must finish, the reliable layer's fault-free
 * makespan overhead must stay within 2% in geomean (individual apps
 * are chaotic — a shifted ack can swing a lock race either way — so
 * per-app the bound is 5%), and the 1-router run must be
 * *classified* (finished or a detected partition, never a silent
 * tick-limit runaway with no shed).
 */
bool
degradedMeshSection(unsigned cores)
{
    std::printf("\nDegraded-mesh rows (MSA/OMU-2, %u cores; makespans "
                "in cycles):\n", cores);
    std::printf("%-14s %9s %9s %7s %9s %8s %9s %8s\n", "App", "Clean",
                "Reliable", "RelOvh", "1-Link", "Retx", "Detours",
                "1-Router");
    bool ok = true;
    std::vector<double> ovh_ratios;
    for (const std::string &app : headlineApps()) {
        const AppSpec &spec = appByName(app);
        RunOptions opts;
        opts.tickLimit = 100000000ULL;

        RunResult rr[3];
        const MeshVariant vs[3] = {MeshVariant::Clean,
                                   MeshVariant::Reliable,
                                   MeshVariant::OneLink};
        for (int i = 0; i < 3; ++i) {
            rr[i] = runAppWithConfig(spec, meshVariantConfig(vs[i], cores),
                                     sync::SyncLib::Flavor::Hw, 1, app,
                                     opts);
            if (!rr[i].finished)
                ok = false;
        }
        const double ratio =
            rr[0].makespan ? static_cast<double>(rr[1].makespan) /
                                 static_cast<double>(rr[0].makespan)
                           : 1.0;
        const double ovh = 100.0 * (ratio - 1.0);
        ovh_ratios.push_back(ratio);
        if (ovh > 5.0)
            ok = false; // per-app outlier: a real regression

        // The stranded-tile row: honest outcome, never a fatal.
        RunResult rt = runAppWithConfig(
            spec, meshVariantConfig(MeshVariant::OneRouter, cores),
            sync::SyncLib::Flavor::Hw, 1, app, opts);
        const bool shed = rt.resilience["partitionSheds"] > 0;
        const char *router_outcome =
            rt.finished ? "finished" : (shed ? "partition" : "UNSHED");
        if (!rt.finished && !shed)
            ok = false;

        std::printf("%-14s %9llu %9llu %6.2f%% %9llu %8llu %9llu %8s\n",
                    app.c_str(),
                    static_cast<unsigned long long>(rr[0].makespan),
                    static_cast<unsigned long long>(rr[1].makespan), ovh,
                    static_cast<unsigned long long>(rr[2].makespan),
                    static_cast<unsigned long long>(
                        rr[2].resilience["nocRetransmits"]),
                    static_cast<unsigned long long>(
                        rr[2].resilience["detourHops"]),
                    router_outcome);
    }
    const double geo_ovh = 100.0 * (bench::geoMean(ovh_ratios) - 1.0);
    std::printf("%-14s %9s %9s %6.2f%%\n", "GeoMean", "-", "-", geo_ovh);
    if (geo_ovh > 2.0)
        ok = false; // aggregate fault-free cost of the e2e layer
    std::printf("(Reliable = healthy mesh with the NI end-to-end layer "
                "on; RelOvh is its\nfault-free makespan cost — gated at "
                "2%% in geomean, 5%% per app. 1-Link\nkills link 0-1 at "
                "tick 30000 and must still finish. 1-Router kills "
                "router 5:\nits tile is stranded, so \"partition\" — "
                "detected, slice shed, attributed —\nis the expected "
                "outcome.)\n");
    return ok;
}

/** Dead-participant variants of the clean MSA/OMU-2 configuration. */
enum class CoreVariant
{
    Clean,           ///< every participant lives
    OneCore,         ///< core 5 killed early (tick 5000), likely
                     ///< computing: barrier reconfiguration path
    CoreHoldingLock, ///< core 5 killed in steady state (tick 25000),
                     ///< often mid-lock/mid-barrier: lease revocation
    SliceFailover,   ///< tile 0's slice re-homes to tile 1 mid-run
};

SystemConfig
coreVariantConfig(CoreVariant v, unsigned cores)
{
    SystemConfig cfg = makeConfig(cores, AccelMode::MsaOmu, 2);
    if (v == CoreVariant::OneCore || v == CoreVariant::CoreHoldingLock) {
        cfg.resil.coreKills.push_back(
            {5, v == CoreVariant::OneCore ? Tick(5000) : Tick(25000)});
        cfg.resil.leaseTicks = 4000;
        cfg.resil.leaseProbeTimeout = 1500;
        cfg.resil.coreDetectDelay = 6000;
        cfg.resil.timeoutTicks = 1000;
        cfg.resil.maxRetries = 8;
    }
    if (v == CoreVariant::SliceFailover) {
        cfg.resil.offlineTile = 0;
        cfg.resil.offlineAtTick = 30000;
        cfg.resil.failoverBuddy = 1;
    }
    cfg.validate();
    return cfg;
}

/**
 * Dead-participant section. Gating rules: every row must FINISH —
 * a corpse must cost latency, never the run. Both kill rows must
 * show barrier reconfiguration work (the declaration always strikes
 * the corpse from every slice's membership), and the failover row
 * must actually fail over (one handoff applied at the buddy).
 * Revocations are reported, not gated per app: whether the victim
 * holds a hardware lock at the kill tick is workload-dependent.
 */
bool
deadCoreSection(unsigned cores)
{
    std::printf("\nDead-participant rows (MSA/OMU-2, %u cores; "
                "makespans in cycles):\n", cores);
    std::printf("%-14s %9s %9s %10s %6s %7s %9s %8s\n", "App", "Clean",
                "1-Core", "Core+Lock", "Revoc", "Reconf", "Failover",
                "Rehomed");
    bool ok = true;
    bool any_revocation = false;
    for (const std::string &app : headlineApps()) {
        const AppSpec &spec = appByName(app);
        RunResult rr[4];
        std::unique_ptr<sys::System> failover;
        const CoreVariant vs[4] = {CoreVariant::Clean,
                                   CoreVariant::OneCore,
                                   CoreVariant::CoreHoldingLock,
                                   CoreVariant::SliceFailover};
        for (int i = 0; i < 4; ++i) {
            RunOptions opts;
            opts.tickLimit = 100000000ULL;
            if (vs[i] == CoreVariant::SliceFailover)
                opts.system = &failover;
            rr[i] = runAppWithConfig(spec,
                                     coreVariantConfig(vs[i], cores),
                                     sync::SyncLib::Flavor::Hw, 1, app,
                                     opts);
            if (!rr[i].finished)
                ok = false;
        }
        // Both kill rows: exactly one corpse, struck from membership.
        for (int i = 1; i <= 2; ++i)
            if (rr[i].resilience["coreKills"] != 1 ||
                rr[i].resilience["barrierReconfigs"] == 0)
                ok = false;
        any_revocation |= rr[2].resilience["lockRevocations"] > 0;
        // The failover row: the slice moved, nothing was shed.
        const StatRegistry &fs = failover->stats();
        if (fs.counterValue("tile0.msa.failovers") != 1 ||
            fs.counterValue("tile1.msa.handoffsApplied") != 1)
            ok = false;

        std::printf("%-14s %9llu %9llu %10llu %6llu %7llu %9llu "
                    "%8llu\n",
                    app.c_str(),
                    static_cast<unsigned long long>(rr[0].makespan),
                    static_cast<unsigned long long>(rr[1].makespan),
                    static_cast<unsigned long long>(rr[2].makespan),
                    static_cast<unsigned long long>(
                        rr[2].resilience["lockRevocations"]),
                    static_cast<unsigned long long>(
                        rr[2].resilience["barrierReconfigs"]),
                    static_cast<unsigned long long>(rr[3].makespan),
                    static_cast<unsigned long long>(
                        rr[3].resilience["rehomedVars"]));
    }
    // Steady-state kills must orphan a hardware lock somewhere in the
    // suite — otherwise the revocation column proves nothing.
    if (!any_revocation)
        ok = false;
    std::printf("(1-Core kills core 5 at tick 5000, Core+Lock at "
                "25000 — both must finish\nwith the corpse struck "
                "from barrier membership; Revoc counts lease-expiry\n"
                "lock revocations in the Core+Lock run. Failover "
                "re-homes tile 0's slice\nstate to tile 1 at 30000; "
                "Rehomed counts transferred live entries.)\n");
    return ok;
}

} // namespace

int
main()
{
    setVerbose(false);
    bench::banner("Resilience degradation",
                  "MSA/OMU-2 speedup retained under the fault campaign");

    const char *dir = std::getenv("MISAR_CAMPAIGN_SPEC_DIR");
    const std::string spec_path =
        std::string(dir ? dir : MISAR_CAMPAIGN_SPEC_DIR) + "/resil.json";
    CampaignSpec spec;
    std::string err;
    if (!CampaignSpec::parseFile(spec_path, spec, err))
        fatal("%s: %s", spec_path.c_str(), err.c_str());
    err = spec.validate();
    if (!err.empty())
        fatal("%s: %s", spec_path.c_str(), err.c_str());

    const char *faulted = "MSA/OMU-2+faults";
    const char *columns[3] = {"MSA-0", "MSA/OMU-2", faulted};

    // With MISAR_RESIL_REPORT=DIR each faulted run leaves its JSON
    // run report in DIR (exercises the obs::writeRunReport path).
    const char *report_dir = std::getenv("MISAR_RESIL_REPORT");
    InProcessHooks hooks;
    if (report_dir)
        hooks.tweak = [&](const JobSpec &j, SystemConfig &cfg) {
            if (j.preset.config == "msa-omu-faults" && j.seed == 1)
                cfg.obs.statsJsonPath = std::string(report_dir) + "/" +
                                        j.app + "_" +
                                        std::to_string(j.cores) +
                                        ".json";
        };

    const std::vector<JobRecord> records =
        runCampaignInProcess(spec, hooks);
    const CampaignReport report(spec, records);

    std::printf("%-14s %-6s %9s %10s %10s %10s %9s\n", "App", "Cores",
                "BaseCyc", "MSA-0", "MSA/OMU-2", "+faults", "Retained");

    // speedups[config][cores] for the GeoMean rows.
    std::vector<double> speedups[3][2];
    bool all_retained = true;

    // Per-app resilience totals accumulated over the faulted runs,
    // straight from the job records' observability fields.
    struct ResilRow
    {
        std::string app;
        unsigned cores = 0;
        std::uint64_t timeouts = 0, retries = 0, aborted = 0;
        std::uint64_t sheds = 0, snoops = 0;
    };
    std::vector<ResilRow> resil_rows;

    const auto &headline = headlineApps();
    for (const AppSpec &aspec : appCatalog()) {
        bool is_headline = false;
        for (const auto &h : headline)
            is_headline |= (h == aspec.name);
        if (!is_headline)
            continue;
        for (std::size_t ni = 0; ni < spec.cores.size(); ++ni) {
            const unsigned cores = spec.cores[ni];
            const Cell *base = report.cell(spec.baseline, aspec.name,
                                           cores);
            if (!base || base->recs.empty() ||
                base->recs[0]->outcome != JobOutcome::Finished)
                fatal("baseline run of %s did not finish",
                      aspec.name.c_str());
            std::printf("%-14s %-6u %9llu", aspec.name.c_str(), cores,
                        static_cast<unsigned long long>(
                            base->recs[0]->makespan));
            double sp[3] = {0, 0, 0};
            for (unsigned ci = 0; ci < 3; ++ci) {
                const Cell *cell = report.cell(columns[ci], aspec.name,
                                               cores);
                if (cell)
                    for (const JobRecord *r : cell->recs)
                        if (r->outcome != JobOutcome::Finished)
                            fatal("%s on %s (seed %llu) did not finish",
                                  aspec.name.c_str(), columns[ci],
                                  static_cast<unsigned long long>(
                                      r->job.seed));
                const std::vector<double> per_seed = report.speedups(
                    columns[ci], aspec.name, cores);
                if (per_seed.empty())
                    fatal("%s on %s did not finish", aspec.name.c_str(),
                          columns[ci]);
                sp[ci] = bench::geoMean(per_seed);
                speedups[ci][ni].push_back(sp[ci]);
                std::printf(" %10.2f", sp[ci]);
            }
            const Cell *fcell = report.cell(faulted, aspec.name, cores);
            ResilRow row;
            row.app = aspec.name;
            row.cores = cores;
            for (const JobRecord *r : fcell->recs) {
                row.timeouts += r->resilience["timeouts"];
                row.retries += r->resilience["retries"];
                row.aborted += r->resilience["abortedOps"];
                row.sheds += r->resilience["offlineSheds"];
                row.snoops += r->resilience["crossedSnoops"];
            }
            resil_rows.push_back(row);
            // Fraction of the clean MSA/OMU-2 speedup the faulted
            // configuration keeps.
            std::printf(" %8.0f%%", 100.0 * sp[2] / sp[1]);
            if (sp[2] < sp[0]) {
                std::printf("  [below MSA-0]");
                all_retained = false;
            }
            std::printf("\n");
        }
    }

    for (std::size_t ni = 0; ni < spec.cores.size(); ++ni) {
        double g[3];
        for (unsigned ci = 0; ci < 3; ++ci)
            g[ci] = bench::geoMean(speedups[ci][ni]);
        std::printf("%-14s %-6u %9s %10.2f %10.2f %10.2f %8.0f%%\n",
                    "GeoMean", spec.cores[ni], "-", g[0], g[1], g[2],
                    100.0 * g[2] / g[1]);
    }

    std::printf("\nFault-campaign resilience counters (summed over the "
                "3 fault seeds):\n");
    std::printf("%-14s %-6s %9s %9s %9s %9s %9s\n", "App", "Cores",
                "Timeouts", "Retries", "Aborted", "Sheds", "XSnoops");
    for (const auto &row : resil_rows)
        std::printf("%-14s %-6u %9llu %9llu %9llu %9llu %9llu\n",
                    row.app.c_str(), row.cores,
                    static_cast<unsigned long long>(row.timeouts),
                    static_cast<unsigned long long>(row.retries),
                    static_cast<unsigned long long>(row.aborted),
                    static_cast<unsigned long long>(row.sheds),
                    static_cast<unsigned long long>(row.snoops));
    if (report_dir)
        std::printf("(JSON run reports written to %s)\n", report_dir);

    std::printf("\nExpectation: the faulted config pays for retries, "
                "timeouts and the software\nfallback after tile 0 goes "
                "offline, but every run completes and its speedup\n"
                "stays at or above MSA-0 (pure software handling).\n");
    std::printf(all_retained
                    ? "RESULT: faulted speedup >= MSA-0 on every row.\n"
                    : "RESULT: REGRESSION - a faulted row fell below "
                      "MSA-0.\n");

    const bool mesh_ok = degradedMeshSection(16);
    std::printf(mesh_ok
                    ? "RESULT: degraded-mesh rows within bounds "
                      "(reliable overhead <= 2%%, 1-link finishes, "
                      "1-router classified).\n"
                    : "RESULT: REGRESSION - a degraded-mesh row "
                      "misbehaved.\n");
    const bool core_ok = deadCoreSection(16);
    std::printf(core_ok
                    ? "RESULT: dead-participant rows all finish "
                      "(reconfigs on every kill, revocations "
                      "somewhere, failovers applied).\n"
                    : "RESULT: REGRESSION - a dead-participant row "
                      "misbehaved.\n");
    return all_retained && mesh_ok && core_ok ? 0 : 1;
}
