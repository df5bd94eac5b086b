#include "noc/mesh.hh"

#include <cstdlib>
#include <ostream>

#include "sim/logging.hh"

namespace misar {
namespace noc {

Mesh::Mesh(EventQueue &eq, const NocConfig &cfg, unsigned dim,
           StatRegistry &stats)
    : eq(eq), stats(stats), _dim(dim)
{
    routers.reserve(dim * dim);
    nis.reserve(dim * dim);
    for (unsigned y = 0; y < dim; ++y)
        for (unsigned x = 0; x < dim; ++x)
            routers.push_back(std::make_unique<Router>(
                eq, cfg, y * dim + x, x, y, dim));
    for (unsigned y = 0; y < dim; ++y) {
        for (unsigned x = 0; x < dim; ++x) {
            Router *r = routers[y * dim + x].get();
            if (x + 1 < dim)
                r->connect(portEast, routers[y * dim + x + 1].get(),
                           portWest);
            if (x > 0)
                r->connect(portWest, routers[y * dim + x - 1].get(),
                           portEast);
            if (y + 1 < dim)
                r->connect(portSouth, routers[(y + 1) * dim + x].get(),
                           portNorth);
            if (y > 0)
                r->connect(portNorth, routers[(y - 1) * dim + x].get(),
                           portSouth);
        }
    }
    for (unsigned t = 0; t < dim * dim; ++t)
        nis.push_back(std::make_unique<NetworkInterface>(
            eq, cfg, *routers[t], t, stats));
}

void
Mesh::send(std::shared_ptr<Packet> pkt)
{
    CoreId s = pkt->src();
    if (s >= nis.size())
        panic("packet source tile %u out of range", s);
    if (pkt->dst() >= nis.size())
        panic("packet destination tile %u out of range", pkt->dst());
    nis[s]->send(std::move(pkt));
}

void
Mesh::setSink(CoreId t, NetworkInterface::Sink sink)
{
    if (t >= nis.size())
        panic("sink tile %u out of range", t);
    nis[t]->setSink(std::move(sink));
}

unsigned
Mesh::hopDistance(CoreId a, CoreId b) const
{
    int ax = static_cast<int>(a % _dim), ay = static_cast<int>(a / _dim);
    int bx = static_cast<int>(b % _dim), by = static_cast<int>(b / _dim);
    return static_cast<unsigned>(std::abs(ax - bx) + std::abs(ay - by));
}

void
Mesh::armFaults()
{
    for (auto &r : routers)
        r->armFaults(&stats);
    for (auto &n : nis)
        n->armFaults();
}

void
Mesh::setCorruptFn(const std::function<bool(unsigned)> &fn)
{
    for (auto &r : routers) {
        const unsigned id = r->id();
        r->setCorruptFn([fn, id] { return fn(id); });
    }
}

Port
Mesh::portToward(unsigned a, unsigned b) const
{
    const int dx = static_cast<int>(b % _dim) - static_cast<int>(a % _dim);
    const int dy = static_cast<int>(b / _dim) - static_cast<int>(a / _dim);
    if (dx == 1 && dy == 0)
        return portEast;
    if (dx == -1 && dy == 0)
        return portWest;
    if (dx == 0 && dy == 1)
        return portSouth;
    if (dx == 0 && dy == -1)
        return portNorth;
    panic("routers %u and %u are not mesh neighbours", a, b);
}

void
Mesh::markLinkDead(unsigned a, unsigned b)
{
    if (a >= numTiles() || b >= numTiles())
        panic("link kill %u-%u out of range", a, b);
    routers[a]->killOutputLink(portToward(a, b));
    routers[b]->killOutputLink(portToward(b, a));
    stats.counter("noc.deadLinks").inc();
}

void
Mesh::markRouterDead(unsigned r)
{
    if (r >= numTiles())
        panic("router kill %u out of range", r);
    routers[r]->kill();
    nis[r]->kill();
    for (unsigned p = 1; p < numPorts; ++p) {
        const unsigned x = r % _dim, y = r / _dim;
        int n = -1;
        switch (static_cast<Port>(p)) {
          case portNorth:
            n = y > 0 ? static_cast<int>(r - _dim) : -1;
            break;
          case portSouth:
            n = y + 1 < _dim ? static_cast<int>(r + _dim) : -1;
            break;
          case portEast:
            n = x + 1 < _dim ? static_cast<int>(r + 1) : -1;
            break;
          case portWest:
            n = x > 0 ? static_cast<int>(r - 1) : -1;
            break;
          default:
            break;
        }
        if (n >= 0)
            routers[n]->killOutputLink(
                portToward(static_cast<unsigned>(n), r));
    }
    stats.counter("noc.deadRouters").inc();
}

Topology
Mesh::liveTopology() const
{
    Topology t(_dim);
    for (unsigned r = 0; r < numTiles(); ++r) {
        t.deadRouter[r] = routers[r]->dead();
        for (unsigned p = 1; p < numPorts; ++p)
            t.deadOut[r][p] = routers[r]->outputDead(static_cast<Port>(p));
    }
    return t;
}

void
Mesh::installTables(RouteTables t)
{
    tables = std::move(t);
    stats.counter("noc.reconfigs").inc();
    for (unsigned r = 0; r < numTiles(); ++r) {
        if (routers[r]->dead())
            continue;
        routers[r]->setRouteTable(tables.routerSlab(r), numTiles());
    }
    // With the new tables in place, terminate wormholes severed by
    // the dead hardware (in-flight stragglers have landed by now:
    // nocDetectDelay far exceeds one hop's latency).
    for (unsigned r = 0; r < numTiles(); ++r) {
        if (!routers[r]->dead())
            routers[r]->flushSeveredOwnership();
    }
}

void
Mesh::buildReport(std::ostream &os) const
{
    os << "  NoC in-flight census:\n";
    const Tick now = eq.now();
    for (unsigned r = 0; r < numTiles(); ++r) {
        if (routers[r]->dead()) {
            os << "    router " << r << " DEAD\n";
            continue;
        }
        routers[r]->forEachBufferedFlit(
            [&](Port in, unsigned vnet, const Flit &f) {
                os << "    router " << r << " in " << in << " vnet "
                   << vnet;
                if (f.pkt) {
                    os << " pkt " << f.pkt->src() << "->"
                       << f.pkt->dst() << " age "
                       << (now - f.pkt->injectTick);
                } else {
                    os << " poison-tail";
                }
                os << (f.head ? " head" : (f.tail ? " tail" : " body"))
                   << "\n";
            });
    }
    for (unsigned t = 0; t < numTiles(); ++t) {
        if (!nis[t]->dead())
            nis[t]->reportInFlight(os);
    }
}

} // namespace noc
} // namespace misar
