#include "noc/network_interface.hh"

#include <algorithm>
#include <ostream>

#include "sim/logging.hh"

namespace misar {
namespace noc {

NetworkInterface::NetworkInterface(EventQueue &eq, const NocConfig &cfg,
                                   Router &router, CoreId tile,
                                   StatRegistry &stats)
    : eq(eq), cfg(cfg), router(router), _tile(tile), stats(stats),
      packetsSent(stats, "noc.packetsSent"),
      packetsRecv(stats, "noc.packetsRecv"),
      localLoopbacks(stats, "noc.localLoopbacks"),
      packetLatency(stats, "noc.packetLatency"),
      nextSeq(static_cast<std::uint64_t>(tile) << 40)
{
    for (unsigned v = 0; v < numVnets; ++v)
        credits[v] = cfg.bufferDepth;
    router.setEjectFn([this](Flit f) { eject(std::move(f)); });
    router.setLocalCreditFn([this](unsigned v) { creditReturn(v); });
}

void
NetworkInterface::send(std::shared_ptr<Packet> pkt)
{
    if (isDead) {
        // The tile is partitioned off; nothing it sends can leave.
        stats.counter("noc.deadNiDrops").inc();
        return;
    }
    pkt->injectTick = eq.now();
    packetsSent.inc();

    if (pkt->dst() == _tile) {
        // Local loopback: bypass the mesh with a short fixed latency.
        Sink &s = sink;
        localLoopbacks.inc();
        eq.scheduleL(_lane, cfg.routerLatency, [&s, pkt] { s(pkt); });
        return;
    }

    if (pkt->vnet >= numVnets)
        panic("packet with invalid vnet %u", pkt->vnet);

    // Reliable delivery: sequence the packet (acks stay unsequenced
    // — a lost ack is repaired by the next) and hold a reference for
    // retransmission until the peer's cumulative ack releases it.
    if (cfg.reliable && pkt->vnet != vnetCtrl && pkt->relSeq == 0) {
        pkt->relSeq = ++txSeq[streamKey(pkt->dst(), pkt->vnet)];
        const Tick deadline = eq.now() + cfg.retransmitTimeout;
        pending.emplace(pendingKey(pkt->dst(), pkt->vnet, pkt->relSeq),
                        PendingTx{pkt, deadline, 0});
        armRetxTimer(deadline);
    }

    enqueue(std::move(pkt));
}

void
NetworkInterface::enqueue(std::shared_ptr<Packet> pkt)
{
    // Each (re)transmission is a fresh wire packet with its own flit
    // sequence; hops restarts with it (the stat-only detour counter
    // can be smudged by a late-arriving earlier copy, never wrong by
    // more than that copy's hops).
    pkt->hops = 0;
    const unsigned flits = flitCount(pkt->sizeBytes(), cfg.flitBytes);
    const unsigned vnet = pkt->vnet;
    outQ[vnet].push_back(OutPacket{std::move(pkt), flits, flits, nextSeq++});
    scheduleTick();
}

void
NetworkInterface::creditReturn(unsigned vnet)
{
    ++credits[vnet];
    scheduleTick();
}

void
NetworkInterface::scheduleTick()
{
    if (tickPending || isDead)
        return;
    bool work = false;
    for (unsigned v = 0; v < numVnets; ++v)
        work |= (!outQ[v].empty() && credits[v] > 0);
    if (!work)
        return;
    tickPending = true;
    eq.scheduleL(_lane, 1, [this] { tick(); });
}

void
NetworkInterface::tick()
{
    tickPending = false;
    if (isDead)
        return;
    // Inject at most one flit per cycle, round-robin across vnets.
    for (unsigned k = 0; k < numVnets; ++k) {
        unsigned v = (rrVnet + k) % numVnets;
        if (outQ[v].empty() || credits[v] == 0)
            continue;
        OutPacket &op = outQ[v].front();
        Flit flit;
        flit.pkt = op.pkt;
        flit.head = (op.flitsLeft == op.flitsTotal);
        flit.tail = (op.flitsLeft == 1);
        flit.packetSeq = op.seq;
        --op.flitsLeft;
        --credits[v];
        router.acceptFlit(portLocal, v, std::move(flit));
        if (op.flitsLeft == 0)
            outQ[v].pop_front();
        rrVnet = (v + 1) % numVnets;
        break;
    }
    scheduleTick();
}

void
NetworkInterface::eject(Flit flit)
{
    if (isDead)
        return;
    if (flit.poison) {
        // Synthesized tail of a worm severed by dead hardware: the
        // packet can never complete; drop the partial reassembly.
        reassembly.erase(flit.packetSeq);
        stats.counter("noc.partialPkts").inc();
        return;
    }
    unsigned &got = reassembly[flit.packetSeq];
    ++got;
    if (!flit.tail)
        return;
    // Tail flit: the whole packet has arrived.
    unsigned expect = flitCount(flit.pkt->sizeBytes(), cfg.flitBytes);
    if (got != expect) {
        if (faultsArmed) {
            reassembly.erase(flit.packetSeq);
            stats.counter("noc.partialPkts").inc();
            return;
        }
        panic("NI %u: packet %llu reassembled %u of %u flits", _tile,
              static_cast<unsigned long long>(flit.packetSeq), got, expect);
    }
    reassembly.erase(flit.packetSeq);
    packetsRecv.inc();
    packetLatency.sample(
        static_cast<double>(eq.now() - flit.pkt->injectTick));
    if (faultsArmed) {
        // Detour accounting: hops counts routers visited; an XY path
        // visits Manhattan distance + 1 of them.
        const Packet &p = *flit.pkt;
        const unsigned dim = router.meshDim();
        const unsigned sx = p.src() % dim, sy = p.src() / dim;
        const unsigned dx = p.dst() % dim, dy = p.dst() / dim;
        const unsigned manhattan = (sx > dx ? sx - dx : dx - sx) +
                                   (sy > dy ? sy - dy : dy - sy);
        if (p.hops > manhattan + 1)
            stats.counter("noc.detourHops").inc(p.hops - manhattan - 1);
    }
    if (tracer)
        tracer->complete(track, flit.pkt->injectTick, eq.now(),
                         flit.pkt->vnet == 0
                             ? "pkt.req"
                             : (flit.pkt->vnet == 1 ? "pkt.resp"
                                                    : "pkt.ctrl"));
    deliver(std::move(flit.pkt));
}

void
NetworkInterface::deliver(std::shared_ptr<Packet> pkt)
{
    if (pkt->vnet == vnetCtrl) {
        auto *ack = dynamic_cast<AckPacket *>(pkt.get());
        if (!ack)
            panic("NI %u: non-ack packet on the control vnet", _tile);
        handleAck(*ack);
        return;
    }
    if (pkt->relSeq != 0) {
        deliverSequenced(std::move(pkt));
        return;
    }
    if (!sink)
        panic("NI %u has no sink installed", _tile);
    sink(std::move(pkt));
}

void
NetworkInterface::deliverSequenced(std::shared_ptr<Packet> pkt)
{
    const CoreId peer = pkt->src();
    const unsigned vnet = pkt->vnet;
    const std::uint64_t seq = pkt->relSeq;
    RxStream &s = rx[streamKey(peer, vnet)];

    if (seq <= s.delivered) {
        // Already delivered (retransmission raced the ack): drop and
        // re-ack so the sender releases its copy.
        stats.counter("noc.rel.dedups").inc();
        sendAck(peer, vnet, s.delivered);
        return;
    }
    if (seq == s.delivered + 1) {
        s.delivered = seq;
        if (!sink)
            panic("NI %u has no sink installed", _tile);
        sink(std::move(pkt));
        // Drain any parked successors the gap was hiding.
        while (!s.reorder.empty() &&
               s.reorder.begin()->first == s.delivered + 1) {
            auto parked = std::move(s.reorder.begin()->second);
            s.reorder.erase(s.reorder.begin());
            ++s.delivered;
            sink(std::move(parked));
        }
        scheduleAck(peer, vnet);
        return;
    }
    // Gap: park until the missing packet is retransmitted. The ack
    // is cumulative, so it implicitly nacks the gap.
    if (s.reorder.emplace(seq, std::move(pkt)).second)
        stats.counter("noc.rel.reorders").inc();
    else
        stats.counter("noc.rel.dedups").inc();
    sendAck(peer, vnet, s.delivered);
}

void
NetworkInterface::handleAck(const AckPacket &ack)
{
    stats.counter("noc.rel.acksRecv").inc();
    const std::uint64_t lo = pendingKey(ack.src(), ack.vnetAcked, 0);
    const std::uint64_t hi =
        pendingKey(ack.src(), ack.vnetAcked, ack.cumSeq);
    pending.erase(pending.lower_bound(lo), pending.upper_bound(hi));
}

void
NetworkInterface::sendAck(CoreId peer, unsigned vnet, std::uint64_t cum)
{
    stats.counter("noc.rel.acksSent").inc();
    send(std::make_shared<AckPacket>(_tile, peer, vnet, cum));
}

void
NetworkInterface::scheduleAck(CoreId peer, unsigned vnet)
{
    RxStream &s = rx[streamKey(peer, vnet)];
    if (s.ackPending)
        return; // the scheduled ack is cumulative; it covers us
    s.ackPending = true;
    eq.scheduleL(_lane, cfg.ackDelay, [this, peer, vnet] {
        if (isDead)
            return;
        RxStream &cur = rx[streamKey(peer, vnet)];
        cur.ackPending = false;
        sendAck(peer, vnet, cur.delivered);
    });
}

void
NetworkInterface::armRetxTimer(Tick deadline)
{
    if (retxArmed && retxArmedAt <= deadline)
        return;
    retxArmed = true;
    retxArmedAt = deadline;
    eq.scheduleL(_lane, deadline - eq.now(), [this] { retxFire(); });
}

void
NetworkInterface::retxFire()
{
    // Superseded timer events (an earlier deadline was armed after
    // this one was scheduled) fire at the wrong tick: ignore them.
    if (isDead || !retxArmed || eq.now() != retxArmedAt)
        return;
    retxArmed = false;
    retxCheck();
}

void
NetworkInterface::retxCheck()
{
    const Tick now = eq.now();
    Tick earliest = 0;
    bool have = false;
    for (auto it = pending.begin(); it != pending.end();) {
        PendingTx &p = it->second;
        if (p.deadline <= now) {
            ++p.tries;
            if (p.tries > cfg.retransmitLimit) {
                // Give up: the destination is gone or the mesh is
                // partitioned. The layers above (MSA client retry /
                // abandon, the liveness watchdog) take over.
                stats.counter("noc.rel.abandoned").inc();
                it = pending.erase(it);
                continue;
            }
            stats.counter("noc.rel.retransmits").inc();
            enqueue(p.pkt);
            Tick backoff = cfg.retransmitTimeout
                           << std::min(p.tries, 16u);
            p.deadline = now + std::min(backoff, cfg.retransmitCap);
        }
        if (!have || p.deadline < earliest) {
            earliest = p.deadline;
            have = true;
        }
        ++it;
    }
    if (have)
        armRetxTimer(earliest);
}

void
NetworkInterface::kill()
{
    isDead = true;
    for (unsigned v = 0; v < numVnets; ++v)
        outQ[v].clear();
    pending.clear();
    rx.clear();
    reassembly.clear();
    retxArmed = false;
}

void
NetworkInterface::reportInFlight(std::ostream &os) const
{
    for (const auto &kv : pending) {
        const PendingTx &p = kv.second;
        os << "    NI " << _tile << " -> " << p.pkt->dst() << " vnet "
           << p.pkt->vnet << " seq " << p.pkt->relSeq << " tries "
           << p.tries << " age "
           << (eq.now() - p.pkt->injectTick) << "\n";
    }
    for (unsigned v = 0; v < numVnets; ++v) {
        if (!outQ[v].empty())
            os << "    NI " << _tile << " vnet " << v << " injectQ "
               << outQ[v].size() << " pkts\n";
    }
    for (const auto &kv : rx) {
        if (!kv.second.reorder.empty())
            os << "    NI " << _tile << " stream " << kv.first
               << " holds " << kv.second.reorder.size()
               << " out-of-order pkts\n";
    }
}

} // namespace noc
} // namespace misar
