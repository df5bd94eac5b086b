/**
 * @file
 * 2D-mesh network assembly: routers, links, and per-tile interfaces.
 */

#ifndef MISAR_NOC_MESH_HH
#define MISAR_NOC_MESH_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "noc/network_interface.hh"
#include "noc/router.hh"
#include "noc/routing.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace misar {
namespace noc {

/**
 * The on-chip network: dim x dim routers wired as a 2D mesh, one
 * NetworkInterface per tile. Tiles are numbered row-major; tile i
 * sits at (i % dim, i / dim). Routers and NIs start on lane 0; a
 * System moves each onto its tile's lane.
 */
class Mesh
{
  public:
    Mesh(EventQueue &eq, const NocConfig &cfg, unsigned dim,
         StatRegistry &stats);

    /** Inject @p pkt at its source tile. */
    void send(std::shared_ptr<Packet> pkt);

    /** Install tile @p t's delivery callback. */
    void setSink(CoreId t, NetworkInterface::Sink sink);

    unsigned dim() const { return _dim; }
    unsigned numTiles() const { return _dim * _dim; }

    /** Manhattan hop distance between two tiles. */
    unsigned hopDistance(CoreId a, CoreId b) const;

    /** Tile @p t's network interface (observability wiring). */
    NetworkInterface &ni(CoreId t) { return *nis[t]; }

    /** @name Fault support (driven by resil::NocFaultInjector). @{ */

    /** Enable the fault-handling paths in every router and NI. */
    void armFaults();

    /**
     * Install the transient-corruption roll in every router. The
     * hook receives the rolling router's id so the injector can keep
     * one RNG stream per router.
     */
    void setCorruptFn(const std::function<bool(unsigned router)> &fn);

    /** Kill the bidirectional link between adjacent routers a, b. */
    void markLinkDead(unsigned a, unsigned b);

    /** Kill router @p r: its tile (NI included) drops off the mesh
     *  and every neighbouring link towards it goes dead. */
    void markRouterDead(unsigned r);

    bool routerDead(unsigned r) const { return routers[r]->dead(); }

    Router &router(unsigned r) { return *routers[r]; }

    /** Current dead-link/dead-router map for table computation. */
    Topology liveTopology() const;

    /**
     * Atomically replace every router's routing table (the modelled
     * reconfiguration-broadcast completion) and flush wormhole
     * ownerships severed by dead hardware.
     */
    void installTables(RouteTables t);

    /** In-flight census (buffered flits, unacked packets) appended
     *  to the liveness watchdog's stall report. */
    void buildReport(std::ostream &os) const;

    /** @} */

  private:
    EventQueue &eq;
    StatRegistry &stats;
    unsigned _dim;
    std::vector<std::unique_ptr<Router>> routers;
    std::vector<std::unique_ptr<NetworkInterface>> nis;
    /** Master storage for installed route tables; routers hold raw
     *  slab pointers into it. */
    RouteTables tables;

    /** Output port of @p a towards adjacent router @p b. */
    Port portToward(unsigned a, unsigned b) const;
};

} // namespace noc
} // namespace misar

#endif // MISAR_NOC_MESH_HH
