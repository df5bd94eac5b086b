/**
 * @file
 * Seeded fault injector for the MSA message path.
 *
 * Installed as the MemSystem send interceptor, it rolls one uniform
 * per faultable message and either drops it, duplicates it (forward
 * now + deliver a copy after delayTicks), or delays it. Only
 * transaction-tracked MSA traffic is faultable: the txn/dedup layer
 * in msa_client/msa_slice makes retransmission of exactly that
 * traffic safe, while fire-and-forget notices, silent-privilege
 * messages, suspend handshakes and slice-to-slice condition-variable
 * plumbing are delivered faithfully (faulting those would require a
 * much heavier recovery protocol than the paper's hardware carries).
 *
 * The injector owns one private RNG stream per source tile, so a
 * given (seed, fault config, workload) triple replays with identical
 * cycle counts, and each stream's rolls depend only on that tile's
 * own send order.
 */

#ifndef MISAR_RESIL_FAULT_INJECTOR_HH
#define MISAR_RESIL_FAULT_INJECTOR_HH

#include <functional>
#include <memory>
#include <vector>

#include "noc/packet.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace misar {
namespace resil {

/** Drops/delays/duplicates faultable MSA messages. */
class FaultInjector
{
  public:
    using ForwardFn = std::function<void(std::shared_ptr<noc::Packet>)>;

    FaultInjector(EventQueue &eq, const ResilConfig &cfg,
                  unsigned numTiles, StatRegistry &stats,
                  ForwardFn forward);

    /**
     * Interceptor entry point: returns true when the packet was
     * consumed (dropped, or re-scheduled for later delivery).
     * Executes on the sending tile's lane.
     */
    bool intercept(const std::shared_ptr<noc::Packet> &pkt);

  private:
    EventQueue &eq;
    const ResilConfig cfg;
    StatRegistry &stats;
    ForwardFn forward;
    /** One stream per source tile (see file comment). */
    std::vector<Rng> rngs;
};

} // namespace resil
} // namespace misar

#endif // MISAR_RESIL_FAULT_INJECTOR_HH
