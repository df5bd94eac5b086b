/**
 * @file
 * Ablation: NoC router latency sensitivity. The MSA's benefit is a
 * round-trip-latency trade (one message pair vs a coherence storm);
 * this sweep shows how the speedup of a lock-heavy and a
 * barrier-heavy app responds as the mesh gets slower.
 */

#include <cstdio>

#include "bench/repro.hh"
#include "workload/app_catalog.hh"

using namespace misar;
using namespace misar::bench;
using namespace misar::workload;

int
bench::ablationNocLatency(Runner &run)
{
    banner("Ablation", "Router pipeline latency (64 cores)");

    const unsigned cores = 64;
    std::printf("%-14s %14s %16s\n", "RouterCycles", "radiosity",
                "streamcluster");

    for (unsigned rl : {1u, 2u, 4u, 8u}) {
        std::printf("%-14u", rl);
        for (const char *name : {"radiosity", "streamcluster"}) {
            const AppSpec &spec = appByName(name);
            SystemConfig base_cfg = makeConfig(cores, AccelMode::None);
            base_cfg.noc.routerLatency = rl;
            SystemConfig msa_cfg = makeConfig(cores, AccelMode::MsaOmu, 2);
            msa_cfg.noc.routerLatency = rl;
            const JobResult &base = run(
                {spec, base_cfg, sync::SyncLib::Flavor::PthreadSw});
            const JobResult &msa = run({spec, msa_cfg});
            std::printf("         %5.2fx",
                        static_cast<double>(base.makespan) /
                            msa.makespan);
        }
        std::printf("\n");
    }
    std::printf("\nExpected: barrier-heavy speedup persists as the mesh "
                "slows (both sides pay);\nlock-heavy speedup erodes "
                "(the MSA round trip is the whole cost).\n");
    return 0;
}
