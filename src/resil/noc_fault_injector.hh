/**
 * @file
 * Seeded NoC fault injector: topology kills and transient corruption.
 *
 * Scheduled from ResilConfig, it kills links and routers at their
 * configured ticks and, nocDetectDelay later, models the completion
 * of the reconfiguration broadcast: new up-down routing tables are
 * computed over the live topology and installed mesh-wide atomically
 * (see noc/routing.hh). Packets caught on the dead hardware in the
 * detection window are lost and recovered by the NI reliable-delivery
 * layer; tiles cut off from the main connected component are reported
 * up so the system can decommission their MSA slices.
 *
 * Transient faults are modelled as per-link packet corruption: an
 * independent seeded RNG stream rolls once per packet per link
 * traversal, and a corrupted packet is discarded whole (the
 * downstream CRC check fails), again recovered end-to-end.
 */

#ifndef MISAR_RESIL_NOC_FAULT_INJECTOR_HH
#define MISAR_RESIL_NOC_FAULT_INJECTOR_HH

#include <functional>
#include <vector>

#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace misar {
namespace resil {

/** Kills NoC links/routers on schedule and drives reconfiguration. */
class NocFaultInjector
{
  public:
    /** Called once per tile newly cut off from the main component. */
    using PartitionFn = std::function<void(unsigned tile)>;

    NocFaultInjector(EventQueue &eq, const ResilConfig &cfg,
                     noc::Mesh &mesh, StatRegistry &stats);

    void setPartitionFn(PartitionFn fn) { partitionFn = std::move(fn); }

    /** Arm the mesh fault paths and schedule the configured kills. */
    void start();

  private:
    /** Reconfiguration broadcast completed: recompute and install
     *  routing tables, then report newly-stranded tiles. */
    void reconfigure();

    EventQueue &eq;
    const ResilConfig cfg;
    noc::Mesh &mesh;
    StatRegistry &stats;
    /**
     * One corruption stream per router. A single shared stream would
     * interleave rolls from every tile, making each roll's value
     * depend on the global packet order; a per-router stream depends
     * only on that router's own traversal count.
     */
    std::vector<Rng> routerRngs;
    PartitionFn partitionFn;
    /** Tiles already reported as stranded (report each once). */
    std::vector<bool> stranded;
};

} // namespace resil
} // namespace misar

#endif // MISAR_RESIL_NOC_FAULT_INJECTOR_HH
