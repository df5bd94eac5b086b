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
 * The sweep is described by bench/campaigns/resil.json (the same
 * spec runs under misar_campaign). The faulted runs are stochastic,
 * so the spec gives the faulted preset — and the baseline it is
 * ratioed against — three seeds each; each faulted run is ratioed
 * against the baseline run with the same seed.
 *
 * The faulted runs also feed the observability layer: their
 * resilience counters (timeouts, retries, aborted ops, offline
 * sheds, crossed snoops) are tabulated per app from the run reports
 * that repro leaves under OUTDIR/jobs/.
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
#include <string>
#include <vector>

#include "bench/repro.hh"
#include "workload/app_catalog.hh"

using namespace misar;
using namespace misar::bench;
using namespace misar::workload;

namespace {

/** Seed 1 of @p cfg with the degradation sections' 100M-tick budget. */
const JobResult &
runDegraded(Runner &run, const std::string &app, const SystemConfig &cfg)
{
    return run({appByName(app), cfg, sync::SyncLib::Flavor::Hw, 1,
                100000000ULL});
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
degradedMeshSection(Runner &run, unsigned cores)
{
    std::printf("\nDegraded-mesh rows (MSA/OMU-2, %u cores; makespans "
                "in cycles):\n", cores);
    std::printf("%-14s %9s %9s %7s %9s %8s %9s %8s\n", "App", "Clean",
                "Reliable", "RelOvh", "1-Link", "Retx", "Detours",
                "1-Router");
    // Clean MSA/OMU-2; the NI end-to-end layer armed on a healthy
    // mesh; link 0-1 killed mid-run (reroute + retransmit); router 5
    // killed mid-run (tile stranded).
    SystemConfig variants[4];
    variants[0] = makeConfig(cores, AccelMode::MsaOmu, 2);
    variants[1] = variants[0];
    variants[1].noc.reliable = true;
    variants[2] = variants[3] = variants[1];
    variants[2].resil.linkKills.push_back({0, 1, 30000});
    variants[3].resil.routerKills.push_back({5, 30000});
    bool ok = true;
    std::vector<double> ovh_ratios;
    for (const std::string &app : headlineApps()) {
        const JobResult *rr[3];
        for (int i = 0; i < 3; ++i) {
            rr[i] = &runDegraded(run, app, variants[i]);
            if (!rr[i]->finished)
                ok = false;
        }
        const double ratio =
            rr[0]->makespan ? static_cast<double>(rr[1]->makespan) /
                                  static_cast<double>(rr[0]->makespan)
                            : 1.0;
        const double ovh = 100.0 * (ratio - 1.0);
        ovh_ratios.push_back(ratio);
        if (ovh > 5.0)
            ok = false; // per-app outlier: a real regression

        // The stranded-tile row: honest outcome, never a fatal.
        const JobResult &rt = runDegraded(run, app, variants[3]);
        const bool shed = rt.resilience["partitionSheds"] > 0;
        const char *router_outcome =
            rt.finished ? "finished" : (shed ? "partition" : "UNSHED");
        if (!rt.finished && !shed)
            ok = false;

        std::printf("%-14s %9llu %9llu %6.2f%% %9llu %8llu %9llu %8s\n",
                    app.c_str(),
                    static_cast<unsigned long long>(rr[0]->makespan),
                    static_cast<unsigned long long>(rr[1]->makespan), ovh,
                    static_cast<unsigned long long>(rr[2]->makespan),
                    static_cast<unsigned long long>(
                        rr[2]->resilience["nocRetransmits"]),
                    static_cast<unsigned long long>(
                        rr[2]->resilience["detourHops"]),
                    router_outcome);
    }
    const double geo_ovh = 100.0 * (geoMean(ovh_ratios) - 1.0);
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
deadCoreSection(Runner &run, unsigned cores)
{
    std::printf("\nDead-participant rows (MSA/OMU-2, %u cores; "
                "makespans in cycles):\n", cores);
    std::printf("%-14s %9s %9s %10s %6s %7s %9s %8s\n", "App", "Clean",
                "1-Core", "Core+Lock", "Revoc", "Reconf", "Failover",
                "Rehomed");
    // Clean MSA/OMU-2; core 5 killed early (tick 5000, likely
    // computing: the barrier reconfiguration path); core 5 killed in
    // steady state (tick 25000, often mid-lock or mid-barrier: lease
    // revocation); tile 0's slice re-homed to tile 1 mid-run.
    SystemConfig variants[4];
    variants[0] = variants[3] = makeConfig(cores, AccelMode::MsaOmu, 2);
    for (int i : {1, 2}) {
        variants[i] = variants[0];
        variants[i].resil.coreKills.push_back({5, i == 1 ? 5000u : 25000u});
        variants[i].resil.leaseTicks = 4000;
        variants[i].resil.leaseProbeTimeout = 1500;
        variants[i].resil.coreDetectDelay = 6000;
        variants[i].resil.timeoutTicks = 1000;
        variants[i].resil.maxRetries = 8;
    }
    variants[3].resil.offlineTile = 0;
    variants[3].resil.offlineAtTick = 30000;
    variants[3].resil.failoverBuddy = 1;
    bool ok = true;
    bool any_revocation = false;
    for (const std::string &app : headlineApps()) {
        const JobResult *rr[4];
        for (int i = 0; i < 4; ++i) {
            rr[i] = &runDegraded(run, app, variants[i]);
            if (!rr[i]->finished)
                ok = false;
        }
        // Both kill rows: exactly one corpse, struck from membership.
        for (int i = 1; i <= 2; ++i)
            if (rr[i]->resilience["coreKills"] != 1 ||
                rr[i]->resilience["barrierReconfigs"] == 0)
                ok = false;
        any_revocation |= rr[2]->resilience["lockRevocations"] > 0;
        // The failover row: the slice moved, nothing was shed.
        if (rr[3]->counter("tile0.msa.failovers") != 1 ||
            rr[3]->counter("tile1.msa.handoffsApplied") != 1)
            ok = false;

        std::printf("%-14s %9llu %9llu %10llu %6llu %7llu %9llu "
                    "%8llu\n",
                    app.c_str(),
                    static_cast<unsigned long long>(rr[0]->makespan),
                    static_cast<unsigned long long>(rr[1]->makespan),
                    static_cast<unsigned long long>(rr[2]->makespan),
                    static_cast<unsigned long long>(
                        rr[2]->resilience["lockRevocations"]),
                    static_cast<unsigned long long>(
                        rr[2]->resilience["barrierReconfigs"]),
                    static_cast<unsigned long long>(rr[3]->makespan),
                    static_cast<unsigned long long>(
                        rr[3]->resilience["rehomedVars"]));
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
bench::resilDegradation(Runner &run)
{
    banner("Resilience degradation",
           "MSA/OMU-2 speedup retained under the fault campaign");

    const orch::CampaignSpec spec = loadSpec("resil.json");
    const SpecResults results = runSpec(run, spec);
    const char *faulted = "MSA/OMU-2+faults";
    const char *columns[3] = {"MSA-0", "MSA/OMU-2", faulted};
    std::printf("%-14s %-6s %9s %10s %10s %10s %9s\n", "App", "Cores",
                "BaseCyc", "MSA-0", "MSA/OMU-2", "+faults", "Retained");

    // speedups[config][cores] for the GeoMean rows.
    std::vector<double> speedups[3][2];
    bool all_retained = true;

    // The spec's apps (the headline ones), in catalog order.
    std::vector<std::string> apps;
    for (const AppSpec &a : appCatalog())
        if (results.count({spec.baseline, a.name, spec.cores[0]}))
            apps.push_back(a.name);

    for (const std::string &app : apps) {
        for (std::size_t ni = 0; ni < spec.cores.size(); ++ni) {
            const unsigned cores = spec.cores[ni];
            const JobResult &base =
                finished(results, spec.baseline, app, cores, 1);
            std::printf("%-14s %-6u %9llu", app.c_str(), cores,
                        static_cast<unsigned long long>(base.makespan));
            double sp[3] = {0, 0, 0};
            for (unsigned ci = 0; ci < 3; ++ci) {
                // Each seed's run against the baseline run of its seed.
                std::vector<double> per_seed;
                for (const auto &[seed, r] :
                     results.at({columns[ci], app, cores})) {
                    const JobResult &b =
                        finished(results, spec.baseline, app, cores, seed);
                    const JobResult &c =
                        finished(results, columns[ci], app, cores, seed);
                    per_seed.push_back(static_cast<double>(b.makespan) /
                                       static_cast<double>(c.makespan));
                }
                sp[ci] = geoMean(per_seed);
                speedups[ci][ni].push_back(sp[ci]);
                std::printf(" %10.2f", sp[ci]);
            }
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
            g[ci] = geoMean(speedups[ci][ni]);
        std::printf("%-14s %-6u %9s %10.2f %10.2f %10.2f %8.0f%%\n",
                    "GeoMean", spec.cores[ni], "-", g[0], g[1], g[2],
                    100.0 * g[2] / g[1]);
    }

    std::printf("\nFault-campaign resilience counters (summed over the "
                "3 fault seeds):\n");
    std::printf("%-14s %-6s %9s %9s %9s %9s %9s\n", "App", "Cores",
                "Timeouts", "Retries", "Aborted", "Sheds", "XSnoops");
    const char *keys[5] = {"timeouts", "retries", "abortedOps",
                           "offlineSheds", "crossedSnoops"};
    for (const std::string &app : apps) {
        for (unsigned cores : spec.cores) {
            std::printf("%-14s %-6u", app.c_str(), cores);
            for (const char *key : keys) {
                unsigned long long sum = 0;
                for (const auto &[seed, r] : results.at({faulted, app, cores}))
                    sum += r->resilience[key];
                std::printf(" %9llu", sum);
            }
            std::printf("\n");
        }
    }

    std::printf("\nExpectation: the faulted config pays for retries, "
                "timeouts and the software\nfallback after tile 0 goes "
                "offline, but every run completes and its speedup\n"
                "stays at or above MSA-0 (pure software handling).\n");
    std::printf(all_retained
                    ? "RESULT: faulted speedup >= MSA-0 on every row.\n"
                    : "RESULT: REGRESSION - a faulted row fell below "
                      "MSA-0.\n");

    const bool mesh_ok = degradedMeshSection(run, 16);
    std::printf(mesh_ok
                    ? "RESULT: degraded-mesh rows within bounds "
                      "(reliable overhead <= 2%%, 1-link finishes, "
                      "1-router classified).\n"
                    : "RESULT: REGRESSION - a degraded-mesh row "
                      "misbehaved.\n");
    const bool core_ok = deadCoreSection(run, 16);
    std::printf(core_ok
                    ? "RESULT: dead-participant rows all finish "
                      "(reconfigs on every kill, revocations "
                      "somewhere, failovers applied).\n"
                    : "RESULT: REGRESSION - a dead-participant row "
                      "misbehaved.\n");
    return all_retained && mesh_ok && core_ok ? 0 : 1;
}
