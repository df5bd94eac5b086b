/**
 * @file
 * Figure 7 reproduction: percentage of synchronization operations
 * handled by the MSA, with and without the OMU, for 1- and 2-entry
 * MSAs on 16- and 64-core systems, averaged across all 26 workloads.
 * Paper headline: 64-core MSA-2 coverage is 93% with the OMU vs 56%
 * without.
 */

#include <cstdio>

#include "bench/repro.hh"
#include "sim/logging.hh"
#include "workload/app_catalog.hh"

using namespace misar;
using namespace misar::bench;
using namespace misar::workload;

namespace {

double
meanCoverage(Runner &run, unsigned cores, unsigned entries, bool omu)
{
    double sum = 0.0;
    unsigned n = 0;
    for (const AppSpec &spec : appCatalog()) {
        SystemConfig cfg = makeConfig(cores, AccelMode::MsaOmu, entries);
        cfg.msa.omuEnabled = omu;
        const JobResult &r = run({spec, cfg});
        if (!r.finished)
            fatal("%s did not finish (entries=%u omu=%d)",
                  spec.name.c_str(), entries, omu);
        if (r.counter("sync.hwOps") + r.counter("sync.swOps") == 0)
            continue; // pure-compute workload: no sync ops to cover
        sum += r.hwCoverage();
        ++n;
    }
    return n ? 100.0 * sum / n : 0.0;
}

} // namespace

int
bench::fig7Coverage(Runner &run)
{
    banner("Figure 7", "Coverage of synchronization operations (%)");

    std::printf("%-10s %-8s %12s %12s\n", "MSA size", "Cores",
                "Without OMU", "With OMU");
    for (unsigned entries : {1u, 2u}) {
        for (unsigned cores : {16u, 64u}) {
            double without = meanCoverage(run, cores, entries, false);
            double with = meanCoverage(run, cores, entries, true);
            std::printf("MSA-%-6u %-8u %11.1f%% %11.1f%%\n", entries,
                        cores, without, with);
        }
    }
    std::printf("\nPaper shape check: with-OMU coverage far above "
                "without-OMU (64-core MSA-2: 93%% vs 56%%).\n");
    return 0;
}
