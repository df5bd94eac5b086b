/**
 * @file
 * Cycle-level input-queued wormhole mesh router.
 *
 * Five ports (Local, N, E, S, W), XY dimension-order routing,
 * credit-based flow control, and per-port virtual channels used as
 * virtual networks (request vs. reply vs. control) to avoid protocol
 * deadlock. Routers are event-driven: they tick only while flits are
 * buffered.
 *
 * Fault support (all of it gated behind armFaults(), so fault-free
 * runs execute the original hot path): output links and whole routers
 * can be marked dead, a per-(router, input-port, destination) routing
 * table can replace XY after reconfiguration, and flits that cannot
 * make progress (dead output, no legal route, orphaned wormhole body)
 * are dropped with credit bookkeeping intact — recovery is end-to-end
 * in the network interfaces.
 */

#ifndef MISAR_NOC_ROUTER_HH
#define MISAR_NOC_ROUTER_HH

#include <array>
#include <functional>
#include <vector>

#include "noc/packet.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"

namespace misar {

class StatRegistry;

namespace noc {

/**
 * Fixed-capacity FIFO of flits with recycled slots. Input buffers
 * are credit-bounded to the router's bufferDepth, so the ring never
 * grows and the hot enqueue/dequeue path never allocates (popped
 * slots release their packet shared_ptr but keep the storage).
 */
class FlitRing
{
  public:
    /** Size the ring once at construction (cfg.bufferDepth). */
    void init(unsigned capacity) { slots.resize(capacity); }

    bool empty() const { return count == 0; }
    unsigned size() const { return static_cast<unsigned>(count); }
    bool full() const { return count == slots.size(); }

    Flit &front() { return slots[head]; }
    const Flit &front() const { return slots[head]; }

    /** Random read access (0 = front); for reporting only. */
    const Flit &at(unsigned i) const { return slots[wrap(head + i)]; }

    void
    push_back(Flit f)
    {
        slots[wrap(head + count)] = std::move(f);
        ++count;
    }

    void
    pop_front()
    {
        slots[head] = Flit{}; // drop the packet reference, keep the slot
        head = wrap(head + 1);
        --count;
    }

    void
    clear()
    {
        while (count)
            pop_front();
    }

  private:
    /** Index @p i (< 2 * capacity) into the ring, without a divide. */
    std::size_t
    wrap(std::size_t i) const
    {
        return i < slots.size() ? i : i - slots.size();
    }

    std::vector<Flit> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

/** Router port indices. */
enum Port : unsigned
{
    portLocal = 0,
    portNorth = 1,
    portEast = 2,
    portSouth = 3,
    portWest = 4,
    numPorts = 5,
};

/**
 * Number of virtual networks (0 = requests, 1 = replies/data,
 * 2 = NoC-internal control; see Packet::vnet).
 */
constexpr unsigned numVnets = 3;

/**
 * One mesh router.
 *
 * Each (input port, vnet) has a FIFO flit buffer. Each cycle, every
 * output port forwards at most one flit, selected round-robin over
 * (vnet, input) pairs; wormhole allocation holds an output/vnet for
 * a packet from head to tail flit.
 */
class Router
{
  public:
    Router(EventQueue &eq, const NocConfig &cfg, unsigned id, unsigned x,
           unsigned y, unsigned dim);

    /** Connect output port @p out to neighbour @p next (its @p in). */
    void connect(Port out, Router *next, Port in);

    /** Install the ejection callback for the Local output. */
    void setEjectFn(std::function<void(Flit)> fn) { ejectFn = std::move(fn); }

    /**
     * Install the credit-return callback for the Local input (wakes
     * the network interface when an injection buffer slot frees).
     */
    void
    setLocalCreditFn(std::function<void(unsigned)> fn)
    {
        localCreditFn = std::move(fn);
    }

    /** Accept a flit into input @p in on virtual network @p vnet. */
    void acceptFlit(Port in, unsigned vnet, Flit flit);

    /** Credit returned by the downstream hop of output @p out. */
    void returnCredit(Port out, unsigned vnet);

    unsigned id() const { return _id; }

    /** Mesh edge length (for Manhattan-distance accounting). */
    unsigned meshDim() const { return dim; }

    /**
     * Pin this router's events to a lane. Self-schedules (ticks,
     * severed-ownership retries) stay on the lane even when invoked
     * from the global lane (reconfiguration, fault injection); flit
     * and credit handoffs target the neighbour's lane so partition
     * boundaries route through the cross hook.
     */
    void setLane(LaneId l) { _lane = l; }
    LaneId lane() const { return _lane; }

    /** @name Fault support (Mesh-level API). @{ */

    /** Enable the fault-handling paths (stats must be set first). */
    void armFaults(StatRegistry *s) { stats = s; faultsArmed = true; }

    /**
     * Replace XY routing with a reconfigured table. @p slab is this
     * router's [inPort][dst] slab inside a RouteTables whose storage
     * outlives the router's use of it; nullptr reverts to XY.
     */
    void
    setRouteTable(const std::uint8_t *slab, unsigned num_tiles)
    {
        table = slab;
        tableTiles = num_tiles;
    }

    /** Mark the outgoing link via @p p dead (flits to it drop). */
    void killOutputLink(Port p) { linkDead[p] = true; }

    /** Kill the whole router: buffers are discarded, future flits
     *  are dropped on arrival, tick() becomes a no-op. */
    void kill();

    bool dead() const { return isDead; }
    bool outputDead(Port p) const { return linkDead[p]; }

    /**
     * Reconfiguration fence: release wormhole output ownership held
     * by inputs with empty buffers (their remaining flits were lost
     * on dead hardware and will never arrive). Stragglers that do
     * arrive later are dropped as orphans.
     */
    void flushSeveredOwnership();

    /**
     * Install the transient-corruption hook, rolled once per head
     * flit per link traversal; true = discard the whole packet (the
     * downstream CRC check fails).
     */
    void setCorruptFn(std::function<bool()> fn) { corruptFn = std::move(fn); }

    /** Visit every buffered flit (stall-report census). */
    void forEachBufferedFlit(
        const std::function<void(Port in, unsigned vnet,
                                 const Flit &)> &fn) const;

    /** @} */

    /**
     * Cumulative flits forwarded out of @p p to the neighbouring
     * router (locally-ejected flits excluded). A plain member counter
     * — not a StatRegistry stat — so per-link heat is observable
     * without changing registry dumps; the resource monitor samples
     * it into the heatmap timeline.
     */
    std::uint64_t forwardedFlits(Port p) const { return fwdFlits[p]; }

  private:
    /** XY route: output port towards @p dst. */
    Port route(CoreId dst) const;

    /**
     * Routing decision for a head flit that arrived on @p in: table
     * lookup when a reconfigured table is installed, XY otherwise.
     * Returns numPorts when the table has no legal route.
     */
    Port
    routeFor(Port in, CoreId dst) const
    {
        if (!table)
            return route(dst);
        const std::uint8_t e = table[in * tableTiles + dst];
        return e >= numPorts ? numPorts : static_cast<Port>(e);
    }

    /**
     * Fault pre-pass: drop front flits that can never be forwarded
     * (dead output, unroutable destination, severed wormhole body).
     * Returns true when anything was dropped; dropped inputs count
     * as served for this cycle (their bits are set in @p served, in
     * the layout of #occupied).
     */
    bool faultDrops(unsigned &served);

    /** Drop the front flit of (in, vnet): credit bookkeeping as if
     *  forwarded, dropUntilTail tracking, flit-drop stat. */
    void dropFront(Port in, unsigned vnet);

    /** Return one buffer credit upstream for input @p in. */
    void creditUpstream(Port in, unsigned vnet);

    /** True when some output's wormhole channel is owned by @p in. */
    bool ownedByAny(Port in, unsigned vnet) const;

    /**
     * Run one cycle of switch allocation and traversal. Costs one
     * pass over the occupied inputs, which builds a request mask per
     * output, plus a bit scan per requested output.
     */
    void tick();

    /** Schedule a tick next cycle unless one is already pending. */
    void scheduleTick();

    /** Bit of input buffer (in, vnet) in #occupied and request masks. */
    static unsigned
    slotBit(unsigned in, unsigned vnet)
    {
        return 1u << (vnet * numPorts + in);
    }

    EventQueue &eq;
    const NocConfig &cfg;
    unsigned _id;
    unsigned x, y, dim;
    LaneId _lane = 0;

    /** inBuf[port][vnet] */
    std::array<std::array<FlitRing, numVnets>, numPorts> inBuf;
    /** slotBit(in, vnet) is set while inBuf[in][vnet] holds a flit. */
    unsigned occupied = 0;
    /** Input (port) currently owning each (output, vnet); -1 = free. */
    std::array<std::array<int, numVnets>, numPorts> outOwner;
    /** Credits available towards downstream (output, vnet). */
    std::array<std::array<unsigned, numVnets>, numPorts> credits;
    /** Round-robin pointer per output over (vnet*numPorts+input). */
    std::array<unsigned, numPorts> rrPtr;

    struct Link
    {
        Router *next = nullptr;
        Port nextIn = portLocal;
    };
    std::array<Link, numPorts> links;

    /** Who feeds each of our input ports (for credit return). */
    struct Upstream
    {
        Router *router = nullptr;
        Port out = portLocal;
    };
    std::array<Upstream, numPorts> upstream;

    std::function<void(Flit)> ejectFn;
    std::function<void(unsigned)> localCreditFn;
    bool tickPending = false;

    /** Flits forwarded per output port (see forwardedFlits()). */
    std::array<std::uint64_t, numPorts> fwdFlits{};

    /** @name Fault state (inert until armFaults()). @{ */
    bool faultsArmed = false;
    bool isDead = false;
    StatRegistry *stats = nullptr;
    const std::uint8_t *table = nullptr; ///< [inPort][dst] slab or null
    unsigned tableTiles = 0;
    /** Outgoing link via port p is dead. */
    std::array<bool, numPorts> linkDead{};
    /** Head of the packet on (in, vnet) was dropped: drop the rest. */
    std::array<std::array<bool, numVnets>, numPorts> dropUntilTail{};
    /** Owner (out, vnet) decided to discard its packet (corruption):
     *  drop granted flits instead of forwarding, until the tail. */
    std::array<std::array<bool, numVnets>, numPorts> dropOwned{};
    /** packetSeq of the worm owning (out, vnet) — lets a poison tail
     *  name the worm it terminates. Tracked only while armed. */
    std::array<std::array<std::uint64_t, numVnets>, numPorts> ownerSeq{};
    std::function<bool()> corruptFn;
    /** @} */
};

} // namespace noc
} // namespace misar

#endif // MISAR_NOC_ROUTER_HH
