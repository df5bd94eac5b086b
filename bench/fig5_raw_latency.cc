/**
 * @file
 * Figure 5 reproduction: raw synchronization latency (cycles) for
 * LockAcquire (no contention), LockHandoff (high contention),
 * BarrierHandoff, CondSignal, and CondBroadcast, on 16- and 64-core
 * systems, across Baseline (pthread), MSA-0, MSA/OMU-2, MCS-Tour,
 * and Spinlock. The paper plots these on a log scale; we print the
 * table the plot is drawn from.
 */

#include <cstdio>

#include "bench/repro.hh"
#include "workload/microbench.hh"

using namespace misar;
using workload::RawLatencies;
using sys::PaperConfig;

int
bench::fig5RawLatency()
{
    banner("Figure 5", "Raw Synchronization Latency (cycles)");

    const PaperConfig configs[] = {
        PaperConfig::Baseline, PaperConfig::Msa0, PaperConfig::MsaOmu2,
        PaperConfig::McsTour,  PaperConfig::Spinlock,
    };
    const unsigned core_counts[] = {16, 64};

    struct Row
    {
        const char *name;
        double RawLatencies::*field;
    };
    const Row rows[] = {
        {"LockAcquire", &RawLatencies::lockAcquire},
        {"LockHandoff", &RawLatencies::lockHandoff},
        {"BarrierHandoff", &RawLatencies::barrierHandoff},
        {"CondSignal", &RawLatencies::condSignal},
        {"CondBroadcast", &RawLatencies::condBroadcast},
    };

    // measure[config][cores]
    RawLatencies lat[5][2];
    for (unsigned ci = 0; ci < 5; ++ci)
        for (unsigned ni = 0; ni < 2; ++ni)
            lat[ci][ni] =
                workload::measureRawLatency(core_counts[ni], configs[ci]);

    std::printf("%-16s %-8s", "Operation", "Cores");
    for (PaperConfig pc : configs)
        std::printf(" %18s", sys::paperConfigName(pc));
    std::printf("\n");

    for (const Row &row : rows) {
        for (unsigned ni = 0; ni < 2; ++ni) {
            std::printf("%-16s %-8u", row.name, core_counts[ni]);
            for (unsigned ci = 0; ci < 5; ++ci)
                std::printf(" %18.0f", lat[ci][ni].*row.field);
            std::printf("\n");
        }
    }

    std::printf("\nPaper shape checks (§6.1):\n");
    auto &msa16 = lat[2][0];
    auto &msa64 = lat[2][1];
    auto &pth16 = lat[0][0];
    auto &pth64 = lat[0][1];
    auto &mcs64 = lat[3][1];
    bool ok = true;
    auto check = [&ok](bool holds) {
        ok = ok && holds;
        return holds ? "YES" : "NO";
    };
    std::printf("  MSA/OMU-2 no-contention acquire beats pthread: "
                "%s (%.0f vs %.0f)\n",
                check(msa16.lockAcquire < pth16.lockAcquire),
                msa16.lockAcquire, pth16.lockAcquire);
    std::printf("  MSA/OMU-2 lowest 64-core lock handoff:          "
                "%s (%.0f vs pthread %.0f, MCS %.0f)\n",
                check(msa64.lockHandoff < pth64.lockHandoff &&
                      msa64.lockHandoff < mcs64.lockHandoff),
                msa64.lockHandoff, pth64.lockHandoff, mcs64.lockHandoff);
    std::printf("  MSA barrier ~order-of-magnitude under tournament: "
                "%s (%.0f vs %.0f)\n",
                check(msa64.barrierHandoff * 4 < mcs64.barrierHandoff),
                msa64.barrierHandoff, mcs64.barrierHandoff);
    std::printf("  pthread handoff scales poorly 16->64:            "
                "%s (%.0f -> %.0f)\n",
                check(pth64.lockHandoff > pth16.lockHandoff),
                pth16.lockHandoff, pth64.lockHandoff);
    return ok ? 0 : 1;
}
