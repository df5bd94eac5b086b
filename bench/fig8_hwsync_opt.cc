/**
 * @file
 * Figure 8 reproduction: effect of the HWSync-bit optimization on
 * fluidanimate (speedup vs the pthread baseline, with and without
 * the optimization, on 16 and 64 cores). Paper shape: without the
 * optimization the 64-core run is a slowdown; with it, a speedup
 * that grows with core count.
 */

#include <cstdio>

#include "bench/repro.hh"
#include "workload/app_catalog.hh"

using namespace misar;
using namespace misar::bench;
using namespace misar::workload;

int
bench::fig8HwsyncOpt(Runner &run)
{
    banner("Figure 8", "Effect of HWSync-bit optimization on fluidanimate");

    const AppSpec &spec = appByName("fluidanimate");
    const std::uint64_t seeds[] = {1, 7, 1234};
    std::printf("%-8s %18s %18s %18s\n", "Cores", "WithOptimization",
                "WithoutOptimization", "SilentLockRate");
    for (unsigned cores : {16u, 64u}) {
        double sp_with = 0, sp_without = 0, silent_rate = 0;
        for (std::uint64_t seed : seeds) {
            const JobResult &base =
                run({spec, makeConfig(cores, AccelMode::None),
                     sync::SyncLib::Flavor::PthreadSw, seed});

            SystemConfig with_cfg = makeConfig(cores, AccelMode::MsaOmu,
                                               2);
            with_cfg.msa.hwSyncBitOpt = true;
            const JobResult &with =
                run({spec, with_cfg, sync::SyncLib::Flavor::Hw, seed});

            SystemConfig wo_cfg = with_cfg;
            wo_cfg.msa.hwSyncBitOpt = false;
            const JobResult &without =
                run({spec, wo_cfg, sync::SyncLib::Flavor::Hw, seed});

            sp_with += static_cast<double>(base.makespan) / with.makespan;
            sp_without +=
                static_cast<double>(base.makespan) / without.makespan;
            const std::uint64_t ops =
                with.counter("sync.hwOps") + with.counter("sync.swOps");
            if (ops) {
                silent_rate +=
                    static_cast<double>(with.counter("sync.silentLocks")) /
                    (static_cast<double>(ops) / 2.0);
            }
        }
        const double n = static_cast<double>(std::size(seeds));
        std::printf("%-8u %17.2fx %17.2fx %17.0f%%\n", cores,
                    sp_with / n, sp_without / n,
                    100.0 * silent_rate / n);
    }
    std::printf("\nPaper shape check: WithOptimization > 1 and rising "
                "with cores; WithoutOptimization\ndegrades toward (or "
                "below) 1 at 64 cores; ~90%% of lock acquires are "
                "silent.\n");
    return 0;
}
