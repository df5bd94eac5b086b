/**
 * @file
 * Ablation: MSA entries per tile swept from 1 to unbounded, 64-core
 * GeoMean speedup and coverage over the headline applications. Shows
 * the paper's core claim from a different angle: with the OMU, the
 * curve saturates almost immediately (2 entries ~ infinite).
 */

#include <cstdio>

#include "bench/repro.hh"
#include "workload/app_catalog.hh"

using namespace misar;
using namespace misar::bench;
using namespace misar::workload;

int
bench::ablationMsaEntries(Runner &run)
{
    banner("Ablation", "MSA entries per tile (64 cores)");

    std::printf("%-10s %12s %12s\n", "Entries", "GeoMeanSpdup",
                "MeanCoverage");

    const unsigned cores = 64;
    std::vector<std::pair<const char *, SystemConfig>> sweeps;
    for (unsigned e : {1u, 2u, 4u, 8u})
        sweeps.emplace_back(nullptr, makeConfig(cores, AccelMode::MsaOmu,
                                                e));
    sweeps.emplace_back("inf", makeConfig(cores, AccelMode::MsaInfinite));

    for (auto &[label, cfg] : sweeps) {
        std::vector<double> sp;
        double cov = 0;
        unsigned n = 0;
        for (const auto &name : headlineApps()) {
            const AppSpec &spec = appByName(name);
            const JobResult &base =
                run({spec, makeConfig(cores, AccelMode::None),
                     sync::SyncLib::Flavor::PthreadSw});
            const JobResult &r = run({spec, cfg});
            sp.push_back(static_cast<double>(base.makespan) /
                         r.makespan);
            cov += r.hwCoverage();
            ++n;
        }
        if (label)
            std::printf("%-10s", label);
        else
            std::printf("%-10u", cfg.msa.msaEntries);
        std::printf(" %11.2fx %11.1f%%\n", geoMean(sp), 100.0 * cov / n);
    }
    std::printf("\nExpected: saturation by 2 entries (the paper's "
                "minimalism claim).\n");
    return 0;
}
