#include "noc/router.hh"

#include <bit>

#include "sim/logging.hh"
#include "sim/stats.hh"

namespace misar {
namespace noc {

namespace {

/** Number of (input, vnet) buffers: bits in a request mask. */
constexpr unsigned slots = numVnets * numPorts;
static_assert(slots < 32, "a request mask is one unsigned word");

/** The bits of input 0 on every vnet; shift left by an input. */
static_assert(numVnets == 3, "allVnets lists one bit per vnet");
constexpr unsigned allVnets = 1u | (1u << numPorts) | (1u << (2 * numPorts));

} // namespace

Router::Router(EventQueue &eq, const NocConfig &cfg, unsigned id, unsigned x,
               unsigned y, unsigned dim)
    : eq(eq), cfg(cfg), _id(id), x(x), y(y), dim(dim)
{
    for (unsigned o = 0; o < numPorts; ++o) {
        rrPtr[o] = 0;
        for (unsigned v = 0; v < numVnets; ++v) {
            outOwner[o][v] = -1;
            credits[o][v] = cfg.bufferDepth;
            inBuf[o][v].init(cfg.bufferDepth);
        }
    }
}

void
Router::connect(Port out, Router *next, Port in)
{
    links[out].next = next;
    links[out].nextIn = in;
    // Record the reverse mapping so 'next' can return credits for the
    // buffer slots of its input port 'in' to our output port 'out'.
    next->upstream[in] = {this, out};
}

Port
Router::route(CoreId dst) const
{
    unsigned dx = dst % dim;
    unsigned dy = dst / dim;
    if (dx > x)
        return portEast;
    if (dx < x)
        return portWest;
    if (dy > y)
        return portSouth;
    if (dy < y)
        return portNorth;
    return portLocal;
}

void
Router::acceptFlit(Port in, unsigned vnet, Flit flit)
{
    if (isDead) {
        // Flits in flight towards a just-killed router are lost; the
        // sender's NI recovers them end-to-end. No credit is returned:
        // the upstream output link is dead too.
        if (stats)
            stats->counter("noc.flitsDropped").inc();
        return;
    }
    if (inBuf[in][vnet].full())
        panic("router %u input %u vnet %u buffer overflow", _id, in, vnet);
    if (faultsArmed && flit.head)
        ++flit.pkt->hops; // detour accounting (vs. Manhattan distance)
    inBuf[in][vnet].push_back(std::move(flit));
    occupied |= slotBit(in, vnet);
    scheduleTick();
}

void
Router::returnCredit(Port out, unsigned vnet)
{
    if (credits[out][vnet] >= cfg.bufferDepth)
        panic("router %u output %u vnet %u credit overflow", _id, out, vnet);
    ++credits[out][vnet];
    scheduleTick();
}

void
Router::scheduleTick()
{
    if (tickPending || isDead)
        return;
    tickPending = true;
    eq.scheduleL(_lane, 1, [this] { tick(); });
}

void
Router::creditUpstream(Port in, unsigned vnet)
{
    if (in == portLocal) {
        // The NI lives on this tile's lane.
        if (localCreditFn)
            eq.scheduleL(_lane, 1, [this, vnet] { localCreditFn(vnet); });
    } else if (upstream[in].router) {
        Router *up = upstream[in].router;
        Port up_out = upstream[in].out;
        eq.scheduleL(up->lane(), 1, [up, up_out, vnet] {
            up->returnCredit(up_out, vnet);
        });
    }
}

bool
Router::ownedByAny(Port in, unsigned vnet) const
{
    for (unsigned o = 0; o < numPorts; ++o)
        if (outOwner[o][vnet] == static_cast<int>(in))
            return true;
    return false;
}

void
Router::dropFront(Port in, unsigned vnet)
{
    Flit &f = inBuf[in][vnet].front();
    if (f.head && !f.tail)
        dropUntilTail[in][vnet] = true;
    if (f.tail)
        dropUntilTail[in][vnet] = false;
    const bool poison = f.poison;
    inBuf[in][vnet].pop_front();
    if (inBuf[in][vnet].empty())
        occupied &= ~slotBit(in, vnet);
    // Poison tails were injected locally and never consumed an
    // upstream credit, so none is returned for them.
    if (!poison)
        creditUpstream(in, vnet);
    if (stats)
        stats->counter("noc.flitsDropped").inc();
}

bool
Router::faultDrops(unsigned &served)
{
    bool any = false;
    for (unsigned in = 0; in < numPorts; ++in) {
        if (served & (allVnets << in))
            continue;
        for (unsigned v = 0; v < numVnets; ++v) {
            auto &buf = inBuf[in][v];
            if (buf.empty())
                continue;
            const Flit &f = buf.front();
            bool drop = false;
            if (!f.head) {
                // Remainder of a worm whose head was dropped here, or
                // an orphan whose ownership was flushed (its worm was
                // severed by dead hardware).
                drop = dropUntilTail[in][v] ||
                       !ownedByAny(static_cast<Port>(in), v);
            } else {
                // A fresh head ends any partial-drop window (possible
                // only across a fault; live links never lose flits).
                dropUntilTail[in][v] = false;
                const Port out =
                    routeFor(static_cast<Port>(in), f.pkt->dst());
                if (out >= numPorts) {
                    // No legal route (destination partitioned off or
                    // tables mid-reconfiguration): drop the packet,
                    // the source NI retransmits or abandons.
                    drop = true;
                    stats->counter("noc.pktsUnroutable").inc();
                }
            }
            if (drop) {
                dropFront(static_cast<Port>(in), v);
                served |= allVnets << in;
                any = true;
                break;
            }
        }
    }
    return any;
}

void
Router::kill()
{
    isDead = true;
    occupied = 0;
    for (unsigned p = 0; p < numPorts; ++p) {
        for (unsigned v = 0; v < numVnets; ++v) {
            inBuf[p][v].clear();
            outOwner[p][v] = -1;
            dropUntilTail[p][v] = false;
            dropOwned[p][v] = false;
        }
    }
}

void
Router::flushSeveredOwnership()
{
    if (isDead)
        return;
    bool retry = false;
    for (unsigned out = 0; out < numPorts; ++out) {
        for (unsigned v = 0; v < numVnets; ++v) {
            const int own = outOwner[out][v];
            // Local injections die only with the whole router.
            if (own <= static_cast<int>(portLocal))
                continue;
            const Upstream &up = upstream[own];
            if (!up.router ||
                !(up.router->isDead || up.router->linkDead[up.out]))
                continue; // owner input still live: worm will finish
            auto &buf = inBuf[own][v];
            bool has_tail = false;
            for (unsigned i = 0; i < buf.size(); ++i) {
                if (buf.at(i).tail) {
                    has_tail = true;
                    break;
                }
            }
            if (has_tail)
                continue; // the real tail made it across in time
            if (buf.full()) {
                // Transiently full; the chain below drains into an
                // NI, so space frees within a few cycles.
                retry = true;
                continue;
            }
            // The worm's tail is lost on the dead hardware: inject a
            // poison tail behind any surviving flits. It flows the
            // owned channel, releasing ownership hop by hop, and the
            // destination NI discards the partial reassembly.
            Flit poison;
            poison.tail = true;
            poison.poison = true;
            poison.packetSeq = ownerSeq[out][v];
            buf.push_back(std::move(poison));
            occupied |= slotBit(own, v);
            if (stats)
                stats->counter("noc.poisonTails").inc();
            scheduleTick();
        }
    }
    if (retry)
        eq.scheduleL(_lane, 4, [this] { flushSeveredOwnership(); });
}

void
Router::forEachBufferedFlit(
    const std::function<void(Port, unsigned, const Flit &)> &fn) const
{
    for (unsigned p = 0; p < numPorts; ++p)
        for (unsigned v = 0; v < numVnets; ++v)
            for (unsigned i = 0; i < inBuf[p][v].size(); ++i)
                fn(static_cast<Port>(p), v, inBuf[p][v].at(i));
}

void
Router::tick()
{
    tickPending = false;
    if (isDead)
        return;
    bool progress = false;
    unsigned served = 0; // request bits of inputs served this cycle

    if (faultsArmed)
        progress |= faultDrops(served);

    // Switch requests, one pass over the occupied inputs: bit
    // (vnet * numPorts + in) of req[out] is set when the front flit of
    // (in, vnet) may take output out this cycle. Wormhole allocation:
    // a head flit needs a free channel on its routed output; body/tail
    // flits may only follow their own head (which fixed the route, so
    // no per-flit route check is needed — or possible: poison tails
    // carry no packet). Only a grant pops a buffer or changes an
    // output's ownership, and a grant serves its input and ends its
    // output's turn, so the masks stay exact for the outputs after it.
    // Bit o of outs is set when req[o] is non-empty.
    std::array<unsigned, numPorts> req{};
    unsigned outs = 0;
    for (unsigned todo = occupied & ~served; todo; todo &= todo - 1) {
        const unsigned idx = static_cast<unsigned>(std::countr_zero(todo));
        const unsigned vnet = idx / numPorts;
        const unsigned in = idx % numPorts;
        const Flit &front = inBuf[in][vnet].front();
        const unsigned bit = 1u << idx;
        if (front.head) {
            const Port out =
                routeFor(static_cast<Port>(in), front.pkt->dst());
            if (out < numPorts && outOwner[out][vnet] == -1) {
                req[out] |= bit;
                outs |= 1u << out;
            }
        } else {
            for (unsigned out = 0; out < numPorts; ++out)
                if (outOwner[out][vnet] == static_cast<int>(in)) {
                    req[out] |= bit;
                    outs |= 1u << out;
                }
        }
    }

    // Each requested output, in ascending order, grants the first
    // eligible request at or after its round-robin pointer; a granted
    // input is served for this cycle. Outputs without a request have
    // nothing to grant, so they are not visited.
    for (; outs; outs &= outs - 1) {
        const unsigned out = static_cast<unsigned>(std::countr_zero(outs));
        const unsigned cand = req[out] & ~served;
        if (!cand)
            continue;
        const unsigned r = rrPtr[out];
        unsigned rot = ((cand >> r) | (cand << (slots - r))) &
                       ((1u << slots) - 1);
        for (; rot; rot &= rot - 1) {
            const unsigned idx =
                (r + static_cast<unsigned>(std::countr_zero(rot))) % slots;
            const unsigned vnet = idx / numPorts;
            const unsigned in = idx % numPorts;
            auto &buf = inBuf[in][vnet];
            Flit &front = buf.front();

            const bool is_local = (out == portLocal);

            // Flits headed for dead hardware, or following a head the
            // corruption roll discarded, are dropped at grant time:
            // they consume no downstream credit but free their buffer
            // slot and release the wormhole channel normally.
            bool discard = false;
            if (faultsArmed && !is_local) {
                if (linkDead[out])
                    discard = true;
                else if (!front.head && dropOwned[out][vnet])
                    discard = true;
            }

            if (!discard && !is_local && credits[out][vnet] == 0)
                continue;

            // Grant: forward this flit.
            Flit flit = std::move(front);
            buf.pop_front();
            if (buf.empty())
                occupied &= ~slotBit(in, vnet);
            served |= allVnets << in;
            progress = true;
            rrPtr[out] = (idx + 1) % slots;

            // Transient link fault: rolled once per packet per link
            // traversal, on the head; the downstream CRC discards
            // the whole packet, modelled as a sender-side discard.
            bool corrupted = false;
            if (!discard && faultsArmed && !is_local && flit.head &&
                corruptFn && corruptFn()) {
                corrupted = true;
                discard = true;
                stats->counter("noc.pktsCorrupted").inc();
            }

            if (flit.head && !flit.tail) {
                outOwner[out][vnet] = static_cast<int>(in);
                if (faultsArmed) {
                    ownerSeq[out][vnet] = flit.packetSeq;
                    dropOwned[out][vnet] = corrupted;
                }
            }
            if (flit.tail) {
                outOwner[out][vnet] = -1;
                if (faultsArmed)
                    dropOwned[out][vnet] = false;
            }

            // Return the freed buffer slot upstream (one cycle);
            // locally-injected poison tails never consumed one.
            if (!flit.poison)
                creditUpstream(static_cast<Port>(in), vnet);

            if (discard) {
                stats->counter("noc.flitsDropped").inc();
            } else if (is_local) {
                ejectFn(std::move(flit));
            } else {
                --credits[out][vnet];
                ++fwdFlits[out];
                Router *next = links[out].next;
                Port next_in = links[out].nextIn;
                if (!next)
                    panic("router %u: flit routed off mesh edge", _id);
                Tick lat = cfg.routerLatency + cfg.linkLatency;
                // Move the flit into the lambda; shared_ptr keeps the
                // packet alive across hops. The hop runs on the
                // neighbour's lane.
                eq.scheduleL(next->lane(), lat,
                             [next, next_in, vnet, f = std::move(flit)]()
                                 mutable {
                    next->acceptFlit(next_in, vnet, std::move(f));
                });
            }
            break; // one flit per output per cycle
        }
    }

    if (occupied && progress)
        scheduleTick();
}

} // namespace noc
} // namespace misar
