/**
 * @file
 * Ablation: OMU counter count (aliasing sensitivity). Fewer untagged
 * counters mean more aliasing, which can only steer operations to
 * software unnecessarily (coverage loss), never break correctness —
 * measured here as coverage and speedup on the lock-heavy apps.
 */

#include <cstdio>

#include "bench/repro.hh"
#include "sim/logging.hh"
#include "workload/app_catalog.hh"

using namespace misar;
using namespace misar::bench;
using namespace misar::workload;

int
bench::ablationOmuCounters(Runner &run)
{
    banner("Ablation", "OMU counters per tile (64 cores)");

    const unsigned cores = 64;
    const char *apps[] = {"radiosity", "fluidanimate", "cholesky",
                          "canneal"};

    std::printf("%-10s", "Counters");
    for (const char *a : apps)
        std::printf(" %13s", a);
    std::printf("\n");

    for (unsigned counters : {1u, 2u, 4u, 8u, 16u}) {
        std::printf("%-10u", counters);
        for (const char *name : apps) {
            SystemConfig cfg = makeConfig(cores, AccelMode::MsaOmu, 2);
            cfg.msa.omuCounters = counters;
            const JobResult &r = run({appByName(name), cfg});
            if (!r.finished)
                fatal("%s did not finish with %u counters", name,
                      counters);
            std::printf("   %5.1f%% cov", 100.0 * r.hwCoverage());
        }
        std::printf("\n");
    }
    std::printf("\nExpected: coverage grows (or holds) with counter "
                "count; correctness never depends on it.\n");
    return 0;
}
