/**
 * @file
 * Ablation: software synchronization algorithm comparison. Extends
 * Figure 5's baseline set with ticket locks and the dissemination
 * barrier, isolating how much of MiSAR's win could be had in
 * software alone — and how much only direct notification delivers.
 */

#include <cstdio>

#include "bench/repro.hh"
#include "sync/sync_lib.hh"
#include "workload/microbench.hh"

using namespace misar;
using workload::RawLatencies;

int
bench::ablationSwAlgos()
{
    banner("Ablation",
           "software algorithms vs the MSA (64 cores)");

    using F = sync::SyncLib::Flavor;
    struct Row
    {
        const char *name;
        F flavor;
        AccelMode mode;
    };
    const Row rows[] = {
        {"pthread", F::PthreadSw, AccelMode::None},
        {"spinlock", F::SpinSw, AccelMode::None},
        {"MCS-Tour", F::McsTourSw, AccelMode::None},
        {"Ticket-Dissem", F::TicketDissemSw, AccelMode::None},
        {"MSA/OMU-2", F::Hw, AccelMode::MsaOmu},
    };

    std::printf("%-14s %12s %12s %14s\n", "Library", "LockHandoff",
                "BarrierHand.", "LockAcquire");
    for (const Row &row : rows) {
        const RawLatencies lat =
            workload::measureRawLatencyFlavor(64, row.flavor, row.mode);
        std::printf("%-14s %12.0f %12.0f %14.0f\n", row.name,
                    lat.lockHandoff, lat.barrierHandoff,
                    lat.lockAcquire);
    }
    std::printf("\nExpected: scalable software (MCS, ticket, "
                "dissemination) narrows the gap to the\nMSA but direct "
                "notification keeps an order-of-magnitude handoff "
                "advantage.\n");
    return 0;
}
