/**
 * @file
 * Figure 6 reproduction: overall application speedup relative to the
 * pthread baseline, for 16- and 64-core systems, across MSA-0,
 * MCS-Tour, MSA/OMU-1, MSA/OMU-2, MSA-inf, and Ideal. Individual
 * rows for the paper's headline applications plus the GeoMean over
 * all 26 Splash-2 + PARSEC workloads.
 *
 * The sweep is described by bench/campaigns/fig6.json: `misar_campaign
 * --spec bench/campaigns/fig6.json` runs the same jobs and reports
 * the same speedups.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/repro.hh"
#include "workload/app_catalog.hh"

using namespace misar;
using namespace misar::bench;
using namespace misar::workload;

int
bench::fig6Speedup(Runner &run)
{
    banner("Figure 6", "Application speedup vs pthread baseline");

    const orch::CampaignSpec spec = loadSpec("fig6.json");
    const SpecResults results = runSpec(run, spec);
    // The report columns: every non-baseline preset, in spec order.
    std::vector<std::string> cols;
    for (const orch::PresetSpec &p : spec.presets)
        if (p.name != spec.baseline)
            cols.push_back(p.name);

    std::printf("%-14s %-6s %9s", "App", "Cores", "BaseCyc");
    for (const std::string &c : cols)
        std::printf(" %10s", c.c_str());
    std::printf("\n");

    // speedups[column][cores] across all apps, for the GeoMean.
    std::vector<std::vector<std::vector<double>>> speedups(
        cols.size(), std::vector<std::vector<double>>(spec.cores.size()));

    const auto &headline = headlineApps();
    for (const std::string &app : spec.apps) {
        const bool print = std::find(headline.begin(), headline.end(),
                                     app) != headline.end();
        for (std::size_t ni = 0; ni < spec.cores.size(); ++ni) {
            const unsigned cores = spec.cores[ni];
            // The spec runs seed 1 only.
            const Tick base =
                finished(results, spec.baseline, app, cores, 1).makespan;
            if (print)
                std::printf("%-14s %-6u %9llu", app.c_str(), cores,
                            static_cast<unsigned long long>(base));
            for (std::size_t ci = 0; ci < cols.size(); ++ci) {
                const double sp =
                    static_cast<double>(base) /
                    finished(results, cols[ci], app, cores, 1).makespan;
                speedups[ci][ni].push_back(sp);
                if (print)
                    std::printf(" %10.2f", sp);
            }
            if (print)
                std::printf("\n");
        }
    }

    for (std::size_t ni = 0; ni < spec.cores.size(); ++ni) {
        std::printf("%-14s %-6u %9s", "GeoMean", spec.cores[ni], "-");
        for (std::size_t ci = 0; ci < cols.size(); ++ci)
            std::printf(" %10.2f", geoMean(speedups[ci][ni]));
        std::printf("\n");
    }

    std::printf("\nPaper shape checks (§6.2): MSA/OMU-2 ~1.43X average, "
                "within a few %% of MSA-inf/Ideal;\nMSA-0 within ~1%% of "
                "baseline; MCS-Tour in between.\n");
    return 0;
}
