/**
 * @file
 * Figure 9 reproduction: 64-core speedup when the MSA supports only
 * locks or only barriers, versus the full MSA/OMU-2, for the
 * headline applications plus the suite GeoMean. Paper shape:
 * barrier-intensive apps (ocean, ocean-nc, streamcluster) lose their
 * speedup under MSA-LockOnly; lock-intensive apps (radiosity,
 * fluidanimate) lose it under MSA-BarrierOnly.
 */

#include <algorithm>
#include <cstdio>

#include "bench/repro.hh"
#include "workload/app_catalog.hh"

using namespace misar;
using namespace misar::bench;
using namespace misar::workload;

namespace {

const JobResult &
runWithSupport(Runner &run, const AppSpec &spec, unsigned cores,
               bool locks, bool barriers, bool conds)
{
    SystemConfig cfg = makeConfig(cores, AccelMode::MsaOmu, 2);
    cfg.msa.support.locks = locks;
    cfg.msa.support.barriers = barriers;
    cfg.msa.support.condVars = conds;
    return run({spec, cfg});
}

} // namespace

int
bench::fig9Breakdown(Runner &run)
{
    banner("Figure 9", "64-core speedup: lock-only vs barrier-only MSA");

    const unsigned cores = 64;
    std::printf("%-14s %12s %14s %16s\n", "App", "MSA/OMU-2",
                "MSA-LockOnly", "MSA-BarrierOnly");

    std::vector<double> sp_full, sp_lock, sp_barrier;
    const auto &headline = headlineApps();
    for (const AppSpec &spec : appCatalog()) {
        const JobResult &base =
            run({spec, makeConfig(cores, AccelMode::None),
                 sync::SyncLib::Flavor::PthreadSw});
        const JobResult &full =
            runWithSupport(run, spec, cores, true, true, true);
        const JobResult &lock_only =
            runWithSupport(run, spec, cores, true, false, false);
        const JobResult &barrier_only =
            runWithSupport(run, spec, cores, false, true, false);
        double b = static_cast<double>(base.makespan);
        sp_full.push_back(b / full.makespan);
        sp_lock.push_back(b / lock_only.makespan);
        sp_barrier.push_back(b / barrier_only.makespan);
        if (std::find(headline.begin(), headline.end(), spec.name) !=
            headline.end()) {
            std::printf("%-14s %11.2fx %13.2fx %15.2fx\n",
                        spec.name.c_str(), b / full.makespan,
                        b / lock_only.makespan, b / barrier_only.makespan);
        }
    }
    std::printf("%-14s %11.2fx %13.2fx %15.2fx\n", "GeoMean",
                geoMean(sp_full), geoMean(sp_lock), geoMean(sp_barrier));

    std::printf("\nPaper shape check: streamcluster/ocean speedups "
                "vanish with MSA-LockOnly;\nradiosity/fluidanimate "
                "speedups vanish with MSA-BarrierOnly.\n");
    return 0;
}
