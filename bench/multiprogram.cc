/**
 * @file
 * Multiprogramming study (paper §3.2's motivation for the OMU):
 * two applications co-run on disjoint halves of a 64-core chip,
 * sharing the per-tile MSA slices. With the OMU, entries recycle
 * across both programs; without it, whichever program initializes
 * first occupies entries forever and starves the other.
 */

#include <cstdio>

#include "bench/repro.hh"
#include "sim/logging.hh"
#include "sync/sync_lib.hh"
#include "system/system.hh"
#include "workload/app_catalog.hh"
#include "workload/synthetic_app.hh"

using namespace misar;
using namespace misar::workload;

namespace {

struct CoRunResult
{
    Tick makespanA, makespanB;
    double coverage;
};

CoRunResult
coRun(const AppSpec &a, const AppSpec &b, bool omu)
{
    const unsigned cores = 64, half = 32;
    SystemConfig cfg = makeConfig(cores, AccelMode::MsaOmu, 2);
    cfg.msa.omuEnabled = omu;
    sys::System s(cfg);
    sync::SyncLib lib(sync::SyncLib::Flavor::Hw, cores);

    AppLayout la;
    la.firstCore = 0;
    AppLayout lb;
    lb.relocate(1);
    lb.firstCore = half;

    for (CoreId c = 0; c < half; ++c)
        s.start(c, appThread(s.api(c), a, la, &lib, half, 1));
    for (CoreId c = half; c < cores; ++c)
        s.start(c, appThread(s.api(c), b, lb, &lib, half, 2));
    if (!s.run(2000000000ULL))
        fatal("co-run did not finish");

    CoRunResult r;
    r.makespanA = r.makespanB = 0;
    for (CoreId c = 0; c < half; ++c)
        r.makespanA = std::max(r.makespanA, s.core(c).finishTick());
    for (CoreId c = half; c < cores; ++c)
        r.makespanB = std::max(r.makespanB, s.core(c).finishTick());
    r.coverage = s.hwCoverage();
    return r;
}

} // namespace

int
bench::multiprogram()
{
    banner("Multiprogramming",
           "two apps sharing one chip (32+32 of 64 cores)");

    struct Pair
    {
        const char *a, *b;
    };
    const Pair pairs[] = {
        {"fluidanimate", "streamcluster"},
        {"radiosity", "ocean"},
    };

    std::printf("%-30s %14s %14s %10s\n", "Per-app runtime",
                "WithOMU(cyc)", "NoOMU(cyc)", "OMU gain");
    for (const Pair &p : pairs) {
        const AppSpec &a = appByName(p.a);
        const AppSpec &b = appByName(p.b);
        CoRunResult with = coRun(a, b, true);
        CoRunResult without = coRun(a, b, false);
        std::printf("%-30s %14llu %14llu %9.2fx\n", p.a,
                    static_cast<unsigned long long>(with.makespanA),
                    static_cast<unsigned long long>(without.makespanA),
                    static_cast<double>(without.makespanA) /
                        with.makespanA);
        std::printf("%-30s %14llu %14llu %9.2fx\n", p.b,
                    static_cast<unsigned long long>(with.makespanB),
                    static_cast<unsigned long long>(without.makespanB),
                    static_cast<double>(without.makespanB) /
                        with.makespanB);
        std::printf("%-30s %13.1f%% %13.1f%%\n", "  chip sync coverage",
                    100.0 * with.coverage, 100.0 * without.coverage);
    }
    std::printf("\nExpected: the OMU lets both co-running programs "
                "share the tiny MSA; without it,\ncoverage collapses "
                "and the co-run slows down.\n");
    return 0;
}
