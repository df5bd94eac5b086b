/**
 * @file
 * NoC resilience tests: up-down routing-table correctness under
 * arbitrary link/router kills, end-to-end reliable delivery
 * (sequencing, dedup, reorder, retransmission), mid-run mesh
 * reconfiguration, partition detection with MSA slice shedding, and
 * stall-report attribution.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <vector>

#include "noc/mesh.hh"
#include "noc/routing.hh"
#include "resil/noc_fault_injector.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sync/sync_lib.hh"
#include "system/presets.hh"
#include "system/system.hh"

namespace misar {
namespace noc {
namespace {

// ---------------------------------------------------------------------
// Up-down routing tables (pure functions, no simulation)
// ---------------------------------------------------------------------

/**
 * Follow the tables from @p src to @p dst, modelling the in-port the
 * way a real flit experiences it. Returns the hop count, or a
 * negative code: -1 no route, -2 misdelivered, -3 routed onto dead
 * hardware, -4 loop (step bound exceeded).
 */
int
walkRoute(const RouteTables &tbl, const Topology &topo, unsigned src,
          unsigned dst, int max_steps = 64)
{
    unsigned r = src;
    Port in = portLocal;
    for (int steps = 0; steps < max_steps; ++steps) {
        std::uint8_t out = tbl.lookup(r, in, dst);
        if (out == routeInvalid)
            return -1;
        if (out == portLocal)
            return r == dst ? steps : -2;
        int nxt = topo.neighbor(r, static_cast<Port>(out));
        if (nxt < 0 || !topo.linkUsable(r, static_cast<Port>(out)))
            return -3;
        in = oppositePort(static_cast<Port>(out));
        r = static_cast<unsigned>(nxt);
    }
    return -4;
}

/** Kill the a->b and b->a directions of one link in @p topo. */
void
cutLink(Topology &topo, unsigned a, Port p)
{
    int b = topo.neighbor(a, p);
    ASSERT_GE(b, 0);
    topo.deadOut[a][p] = true;
    topo.deadOut[b][oppositePort(p)] = true;
}

TEST(UpDownRouting, HealthyMeshFullReachability)
{
    Topology topo(4);
    RouteTables tbl = computeUpDownTables(topo);
    for (unsigned s = 0; s < 16; ++s)
        for (unsigned d = 0; d < 16; ++d)
            EXPECT_GE(walkRoute(tbl, topo, s, d), 0)
                << s << " -> " << d;
}

TEST(UpDownRouting, SurvivesEverySingleLinkKill)
{
    // Any single dead link leaves a 4x4 mesh connected; the tables
    // must route every pair, without loops, over live hardware only.
    for (unsigned r = 0; r < 16; ++r) {
        for (Port p : {portEast, portSouth}) {
            Topology topo(4);
            if (topo.neighbor(r, p) < 0)
                continue;
            cutLink(topo, r, p);
            RouteTables tbl = computeUpDownTables(topo);
            for (unsigned s = 0; s < 16; ++s)
                for (unsigned d = 0; d < 16; ++d)
                    EXPECT_GE(walkRoute(tbl, topo, s, d), 0)
                        << s << " -> " << d << " with link " << r
                        << " port " << p << " dead";
        }
    }
}

TEST(UpDownRouting, EdgeColumnLinkKillStaysRoutable)
{
    // The counterexample that rules out odd-even turn routing: a
    // dead vertical link in column 0 must still leave its endpoints
    // mutually reachable (around via column 1).
    Topology topo(4);
    cutLink(topo, 0, portSouth); // link between tiles 0 and 4
    RouteTables tbl = computeUpDownTables(topo);
    EXPECT_GE(walkRoute(tbl, topo, 0, 4), 2);
    EXPECT_GE(walkRoute(tbl, topo, 4, 0), 2);
}

TEST(UpDownRouting, DeadRouterPartitionsOnlyItself)
{
    Topology topo(3);
    topo.deadRouter[4] = true; // centre of the 3x3
    std::vector<int> comp = components(topo);
    EXPECT_EQ(comp[4], -1);
    for (unsigned r = 0; r < 9; ++r) {
        if (r != 4) {
            EXPECT_EQ(comp[r], 0) << "tile " << r;
        }
    }

    RouteTables tbl = computeUpDownTables(topo);
    for (unsigned s = 0; s < 9; ++s) {
        if (s == 4)
            continue;
        for (unsigned d = 0; d < 9; ++d) {
            if (d == 4) {
                EXPECT_EQ(walkRoute(tbl, topo, s, d), -1);
            } else {
                EXPECT_GE(walkRoute(tbl, topo, s, d), 0)
                    << s << " -> " << d;
            }
        }
    }
}

TEST(UpDownRouting, ColumnCutSplitsComponents)
{
    // Cut every horizontal link out of column 0 of a 3x3: tiles
    // {0, 3, 6} become their own component and cross-partition
    // routes must be invalid, not looping.
    Topology topo(3);
    cutLink(topo, 0, portEast);
    cutLink(topo, 3, portEast);
    cutLink(topo, 6, portEast);
    std::vector<int> comp = components(topo);
    for (unsigned r : {0u, 3u, 6u})
        EXPECT_EQ(comp[r], 0);
    for (unsigned r : {1u, 2u, 4u, 5u, 7u, 8u})
        EXPECT_EQ(comp[r], 1);

    RouteTables tbl = computeUpDownTables(topo);
    EXPECT_EQ(walkRoute(tbl, topo, 0, 1), -1);
    EXPECT_EQ(walkRoute(tbl, topo, 5, 6), -1);
    EXPECT_GE(walkRoute(tbl, topo, 0, 6), 0);
    EXPECT_GE(walkRoute(tbl, topo, 1, 8), 0);
}

// ---------------------------------------------------------------------
// End-to-end reliable delivery on a live mesh
// ---------------------------------------------------------------------

/** Test payload carrying an identifying tag. */
class TestPacket : public Packet
{
  public:
    TestPacket(CoreId src, CoreId dst, unsigned size, int tag)
        : Packet(src, dst, size), tag(tag)
    {}
    int tag;
};

/** Mesh fixture with the NI reliable-delivery layer enabled. */
struct RelFixture
{
    EventQueue eq;
    NocConfig cfg;
    StatRegistry stats;
    std::unique_ptr<Mesh> mesh;
    std::vector<std::vector<int>> received; // per-tile tags, in order

    explicit RelFixture(unsigned dim)
    {
        cfg.reliable = true;
        mesh = std::make_unique<Mesh>(eq, cfg, dim, stats);
        received.resize(dim * dim);
        for (CoreId t = 0; t < dim * dim; ++t) {
            mesh->setSink(t, [this, t](std::shared_ptr<Packet> p) {
                received[t].push_back(
                    static_cast<TestPacket *>(p.get())->tag);
            });
        }
    }

    void
    send(CoreId s, CoreId d, int tag, unsigned size = ctrlBytes,
         unsigned vnet = 0, std::uint64_t rel_seq = 0)
    {
        auto p = std::make_shared<TestPacket>(s, d, size, tag);
        p->vnet = vnet;
        p->relSeq = rel_seq;
        mesh->send(std::move(p));
    }
};

TEST(NocResil, ReliableDeliveryDrainsPendingOnAck)
{
    RelFixture f(4);
    for (int i = 0; i < 10; ++i)
        f.send(0, 15, i);
    ASSERT_TRUE(f.eq.run(2000000));
    ASSERT_EQ(f.received[15].size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(f.received[15][i], i);
    // Acks released every retransmission buffer; nothing retried.
    EXPECT_EQ(f.mesh->ni(0).pendingRetx(), 0u);
    EXPECT_GT(f.stats.counterValue("noc.rel.acksSent"), 0u);
    EXPECT_GT(f.stats.counterValue("noc.rel.acksRecv"), 0u);
    EXPECT_EQ(f.stats.counterValue("noc.rel.retransmits"), 0u);
    EXPECT_EQ(f.stats.counterValue("noc.rel.dedups"), 0u);
}

TEST(NocResil, DuplicateWirePacketsAreDeduped)
{
    // Two wire copies of sequence 1 (a retransmission racing its
    // ack): the receiver must sink exactly one.
    RelFixture f(4);
    f.send(0, 15, 7, ctrlBytes, 0, 1);
    f.send(0, 15, 7, ctrlBytes, 0, 1);
    ASSERT_TRUE(f.eq.run(2000000));
    ASSERT_EQ(f.received[15].size(), 1u);
    EXPECT_EQ(f.received[15][0], 7);
    EXPECT_EQ(f.stats.counterValue("noc.rel.dedups"), 1u);
}

TEST(NocResil, ReorderedSequencesDeliverInOrder)
{
    // Sequence 2 hits the wire before sequence 1 (as after a
    // selective loss): the receiver parks it and delivers 1 then 2.
    RelFixture f(4);
    f.send(0, 15, 2, ctrlBytes, 0, 2);
    f.send(0, 15, 1, ctrlBytes, 0, 1);
    ASSERT_TRUE(f.eq.run(2000000));
    ASSERT_EQ(f.received[15].size(), 2u);
    EXPECT_EQ(f.received[15][0], 1);
    EXPECT_EQ(f.received[15][1], 2);
    EXPECT_EQ(f.stats.counterValue("noc.rel.reorders"), 1u);
}

TEST(NocResil, LinkKillMidStreamRecoversEverything)
{
    // A stream crossing the 5-6 link while it dies: packets caught
    // in the detection window are lost on the dead hardware and must
    // come back via retransmission over the detour route.
    RelFixture f(4);
    ResilConfig rc;
    rc.linkKills.push_back({5, 6, 500});
    rc.nocDetectDelay = 64;
    resil::NocFaultInjector inj(f.eq, rc, *f.mesh, f.stats);
    inj.start();

    const int n = 100;
    for (int i = 0; i < n; ++i) {
        f.eq.schedule(static_cast<Tick>(10 * i), [&f, i] {
            f.send(4, 7, i, dataBytes, 1);
        });
    }
    ASSERT_TRUE(f.eq.run(20000000));
    ASSERT_EQ(f.received[7].size(), static_cast<std::size_t>(n));
    std::vector<int> want(n);
    for (int i = 0; i < n; ++i)
        want[i] = i;
    EXPECT_EQ(f.received[7], want);
    EXPECT_EQ(f.mesh->ni(4).pendingRetx(), 0u);
    EXPECT_EQ(f.stats.counterValue("noc.deadLinks"), 1u);
    EXPECT_GT(f.stats.counterValue("noc.rel.retransmits"), 0u);
    EXPECT_GT(f.stats.counterValue("noc.detourHops"), 0u);
    EXPECT_EQ(f.stats.counterValue("noc.rel.abandoned"), 0u);
}

TEST(NocResil, CorruptionIsRetransmittedNotLost)
{
    RelFixture f(4);
    ResilConfig rc;
    rc.flitCorruptProb = 0.02;
    rc.faultSeed = 12345;
    resil::NocFaultInjector inj(f.eq, rc, *f.mesh, f.stats);
    inj.start();

    const int n = 300;
    for (int i = 0; i < n; ++i)
        f.send(static_cast<CoreId>(i % 16),
               static_cast<CoreId>((i * 7 + 3) % 16), i, dataBytes, 1);
    ASSERT_TRUE(f.eq.run(50000000));
    std::size_t total = 0;
    for (const auto &v : f.received)
        total += v.size();
    EXPECT_EQ(total, static_cast<std::size_t>(n));
    EXPECT_GT(f.stats.counterValue("noc.pktsCorrupted"), 0u);
    EXPECT_GT(f.stats.counterValue("noc.rel.retransmits"), 0u);
}

TEST(NocResil, RouterKillStrandsTileAndAbandonsItsTraffic)
{
    RelFixture f(4);
    f.cfg.retransmitTimeout = 200;
    f.cfg.retransmitCap = 400;
    f.cfg.retransmitLimit = 3;
    ResilConfig rc;
    rc.routerKills.push_back({5, 500});
    rc.nocDetectDelay = 64;
    resil::NocFaultInjector inj(f.eq, rc, *f.mesh, f.stats);
    std::vector<unsigned> stranded;
    inj.setPartitionFn([&stranded](unsigned t) { stranded.push_back(t); });
    inj.start();

    // Cross traffic that used to route through router 5, plus doomed
    // traffic addressed to the dead tile itself.
    for (int i = 0; i < 20; ++i) {
        f.eq.schedule(static_cast<Tick>(40 * i), [&f, i] {
            f.send(1, 9, i);       // column through (1,1) under XY
            f.send(0, 5, 100 + i); // to the dead tile
        });
    }
    ASSERT_TRUE(f.eq.run(20000000));
    EXPECT_EQ(stranded, std::vector<unsigned>{5});
    ASSERT_EQ(f.received[9].size(), 20u);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(f.received[9][i], i);
    // Packets for the stranded tile are finite-retried then dropped.
    EXPECT_GT(f.stats.counterValue("noc.rel.abandoned"), 0u);
    EXPECT_EQ(f.mesh->ni(0).pendingRetx(), 0u);
    EXPECT_EQ(f.stats.counterValue("noc.deadRouters"), 1u);
    EXPECT_TRUE(f.mesh->routerDead(5));
}

} // namespace
} // namespace noc

// ---------------------------------------------------------------------
// Full-system behaviour under NoC faults
// ---------------------------------------------------------------------

namespace {

using cpu::ThreadApi;
using cpu::ThreadTask;
using sync::SyncLib;

TEST(NocResilSystem, RouterKillOfNonHomeTileSurvives)
{
    // The victim thread finishes its work before its router dies and
    // every sync variable is homed off the victim tile; the other 15
    // threads must run to completion across the degraded mesh.
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 2);
    cfg.resil.routerKills.push_back({5, 60000});
    sys::System s(cfg);
    SyncLib lib(SyncLib::Flavor::Hw, 16);

    // Lock addresses homed at tiles 0-3 (block / 64 mod 16).
    const std::vector<Addr> locks = {0x0, 0x40, 0x80, 0xc0};
    auto body = [&](ThreadApi t) -> ThreadTask {
        if (t.id() == 5) {
            // Victim: brief early work only.
            co_await lib.mutexLock(t, locks[0]);
            co_await t.compute(50);
            co_await lib.mutexUnlock(t, locks[0]);
            co_return;
        }
        for (int i = 0; i < 10; ++i) {
            const Addr l = locks[(t.id() + i) % locks.size()];
            co_await lib.mutexLock(t, l);
            co_await t.compute(40);
            co_await lib.mutexUnlock(t, l);
            co_await t.compute(9000); // stretch past the kill tick
        }
        co_await lib.barrierWait(t, 0x200, 15);
    };
    for (CoreId c = 0; c < 16; ++c)
        s.start(c, body(s.api(c)));

    ASSERT_EQ(s.runDetailed(500000000ULL), sys::RunOutcome::Finished);
    EXPECT_EQ(s.stats().counterValue("noc.deadRouters"), 1u);
    EXPECT_EQ(s.stats().counterValue("resil.partitionSheds"), 1u);
    EXPECT_TRUE(s.msaSlice(5).isOffline());
    // The system must have forced reliable delivery on.
    EXPECT_TRUE(s.config().noc.reliable);
}

TEST(NocResilSystem, OpsHomedAtStrandedTileFastFail)
{
    // After the partition, a new op homed at the dead tile must FAIL
    // immediately (software fallback) instead of burning the whole
    // timeout ladder against unreachable hardware.
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 2);
    cfg.resil.routerKills.push_back({5, 50000});
    sys::System s(cfg);

    auto idle = [](ThreadApi t) -> ThreadTask {
        co_await t.compute(120000);
    };
    s.start(0, idle(s.api(0)));

    cpu::SyncResult result = cpu::SyncResult::Success;
    bool called = false;
    s.eventQueue().schedule(80000, [&] {
        cpu::Op op;
        op.type = cpu::OpType::Sync;
        op.instr = cpu::SyncInstr::Lock;
        op.addr = 0x140; // block 5 -> homed at tile 5
        s.clientHub()->execute(0, op, [&](cpu::SyncResult r) {
            result = r;
            called = true;
        });
    });

    ASSERT_EQ(s.runDetailed(500000000ULL), sys::RunOutcome::Finished);
    EXPECT_TRUE(called);
    EXPECT_EQ(result, cpu::SyncResult::Fail);
    EXPECT_EQ(s.stats().counterValue("resil.unreachableFastFails"), 1u);
}

TEST(NocResilSystem, StallReportAttributesPartitionNotDeadlock)
{
    // All 16 threads meet at a barrier homed at tile 0, but tile 5's
    // router dies before its thread arrives: the run stalls, and the
    // report must carry the NoC census and the partition attribution
    // (detoured-but-alive traffic is not a protocol deadlock).
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 2);
    cfg.resil.routerKills.push_back({5, 30000});
    sys::System s(cfg);
    SyncLib lib(SyncLib::Flavor::Hw, 16);

    auto body = [&](ThreadApi t) -> ThreadTask {
        co_await t.compute(t.id() == 5 ? 60000 : 100);
        co_await lib.barrierWait(t, 0x0, 16);
    };
    for (CoreId c = 0; c < 16; ++c)
        s.start(c, body(s.api(c)));

    EXPECT_NE(s.runDetailed(50000000ULL), sys::RunOutcome::Finished);
    const std::string report = s.buildStallReport();
    EXPECT_NE(report.find("NoC in-flight census"), std::string::npos);
    EXPECT_NE(report.find("DEAD"), std::string::npos);
    EXPECT_NE(report.find("PARTITION"), std::string::npos)
        << report;
}

} // namespace
} // namespace misar
