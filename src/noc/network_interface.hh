/**
 * @file
 * Per-tile network interface: packet segmentation/injection on one
 * side, flit reassembly/ejection on the other.
 *
 * When NocConfig::reliable is set the NI also runs an end-to-end
 * reliable-delivery layer (TCP-like, but per (peer, vnet) stream):
 * sequenced packets are buffered until a cumulative ack arrives on
 * the control vnet, retransmitted on timeout with exponential
 * backoff, and delivered in order exactly once at the receiver. The
 * layer is invisible to everything above the NI — MSA, directory and
 * L1 traffic is protected with zero protocol changes.
 */

#ifndef MISAR_NOC_NETWORK_INTERFACE_HH
#define MISAR_NOC_NETWORK_INTERFACE_HH

#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>

#include "noc/packet.hh"
#include "noc/router.hh"
#include "obs/tracer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"

namespace misar {
namespace noc {

/**
 * Tile endpoint of the NoC.
 *
 * Outbound packets queue (unbounded) in the NI and trickle into the
 * local router input as credits allow, one flit per cycle. Inbound
 * flits are reassembled by packet sequence number; complete packets
 * are handed to the tile's sink callback.
 */
class NetworkInterface
{
  public:
    using Sink = std::function<void(std::shared_ptr<Packet>)>;

    NetworkInterface(EventQueue &eq, const NocConfig &cfg, Router &router,
                     CoreId tile, StatRegistry &stats);

    /** Queue @p pkt for injection (or local loopback if dst==tile). */
    void send(std::shared_ptr<Packet> pkt);

    /** Install the delivery callback. */
    void setSink(Sink sink) { this->sink = std::move(sink); }

    CoreId tile() const { return _tile; }

    /** Pin this NI's events to its tile's lane (see Router::setLane). */
    void setLane(LaneId l) { _lane = l; }
    LaneId lane() const { return _lane; }

    /**
     * Attach the tracer (null = untraced). Every packet ejected at
     * this NI becomes a complete event on @p track spanning its
     * injection-to-delivery interval.
     */
    void
    attachTracer(obs::Tracer *t, obs::TrackId track)
    {
        tracer = t;
        this->track = track;
    }

    /** @name Fault support. @{ */

    /** Enable fault tolerances: partial-reassembly discard instead
     *  of panic, and detour-hop accounting on delivery. */
    void armFaults() { faultsArmed = true; }

    /** The tile dropped off the mesh (its router was killed): all
     *  queued and future traffic is discarded. */
    void kill();

    bool dead() const { return isDead; }

    /** Unacked sequenced packets held for retransmission. */
    unsigned
    pendingRetx() const
    {
        return static_cast<unsigned>(pending.size());
    }

    /** One line per in-flight packet (stall-report census). */
    void reportInFlight(std::ostream &os) const;

    /** @} */

    /** Packets queued for injection across all vnets (heatmap gauge). */
    unsigned
    injectQueueDepth() const
    {
        unsigned n = 0;
        for (const auto &q : outQ)
            n += static_cast<unsigned>(q.size());
        return n;
    }

  private:
    /** Retransmission state of one unacked sequenced packet. */
    struct PendingTx
    {
        std::shared_ptr<Packet> pkt;
        Tick deadline = 0;
        unsigned tries = 0;
    };

    /** Receive state of one (source, vnet) sequenced stream. */
    struct RxStream
    {
        std::uint64_t delivered = 0; ///< highest in-order seq sunk
        /** A coalesced cumulative ack is already scheduled. */
        bool ackPending = false;
        /** Out-of-order arrivals parked until the gap fills. */
        std::map<std::uint64_t, std::shared_ptr<Packet>> reorder;
    };

    /** Key of one (peer, vnet) stream. */
    static std::uint32_t
    streamKey(CoreId peer, unsigned vnet)
    {
        return (static_cast<std::uint32_t>(peer) << 2) | vnet;
    }

    /** Ordered key of one pending packet: (peer, vnet, seq). */
    static std::uint64_t
    pendingKey(CoreId peer, unsigned vnet, std::uint64_t seq)
    {
        return (static_cast<std::uint64_t>(peer) << 44) |
               (static_cast<std::uint64_t>(vnet) << 40) | seq;
    }

    /** Router freed an injection-buffer slot on @p vnet. */
    void creditReturn(unsigned vnet);

    /** Router ejected @p flit towards us. */
    void eject(Flit flit);

    /** Hand a reassembled packet up: ack handling, dedup/reorder,
     *  then the tile sink. */
    void deliver(std::shared_ptr<Packet> pkt);

    /** In-order at-most-once delivery of a sequenced packet. */
    void deliverSequenced(std::shared_ptr<Packet> pkt);

    /** Cumulative ack from @p ack's source: release pending. */
    void handleAck(const AckPacket &ack);

    /** Send a cumulative ack for stream (peer, vnet) up to cum. */
    void sendAck(CoreId peer, unsigned vnet, std::uint64_t cum);

    /** Coalesce: schedule one cumulative ack cfg.ackDelay out. */
    void scheduleAck(CoreId peer, unsigned vnet);

    /** Queue a (re)transmission as a fresh wire packet. */
    void enqueue(std::shared_ptr<Packet> pkt);

    /** Arm (or pull in) the retransmission timer. */
    void armRetxTimer(Tick deadline);
    void retxFire();
    /** Scan pending for expired entries; resend or abandon. */
    void retxCheck();

    /** Try to inject one flit this cycle. */
    void tick();

    void scheduleTick();

    EventQueue &eq;
    const NocConfig &cfg;
    Router &router;
    CoreId _tile;
    LaneId _lane = 0;
    StatRegistry &stats;
    /** @name Per-packet stats. @{ */
    StatHandle packetsSent;
    StatHandle packetsRecv;
    StatHandle localLoopbacks;
    AverageHandle packetLatency;
    /** @} */
    Sink sink;

    struct OutPacket
    {
        std::shared_ptr<Packet> pkt;
        unsigned flitsLeft;
        unsigned flitsTotal;
        std::uint64_t seq;
    };
    /** Per-vnet injection queues. */
    std::array<std::deque<OutPacket>, numVnets> outQ;
    /** Credits towards the local router input, per vnet. */
    std::array<unsigned, numVnets> credits;
    /** Reassembly: flits received per in-flight packet seq. */
    FlatMap<std::uint64_t, unsigned> reassembly;

    unsigned rrVnet = 0;
    bool tickPending = false;
    std::uint64_t nextSeq;

    /** @name Reliable-delivery state (empty unless cfg.reliable). @{ */
    /** Next relSeq per outgoing (peer, vnet) stream. */
    FlatMap<std::uint32_t, std::uint64_t> txSeq;
    /** Unacked sequenced packets, ordered by (peer, vnet, seq) so
     *  the timeout scan and cumulative-ack release are ranges. */
    std::map<std::uint64_t, PendingTx> pending;
    /** Receive streams, keyed by (source, vnet). */
    std::map<std::uint32_t, RxStream> rx;
    bool retxArmed = false;
    Tick retxArmedAt = 0;
    /** @} */

    bool faultsArmed = false;
    bool isDead = false;

    obs::Tracer *tracer = nullptr;
    obs::TrackId track = 0;
};

} // namespace noc
} // namespace misar

#endif // MISAR_NOC_NETWORK_INTERFACE_HH
