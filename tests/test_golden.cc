/**
 * @file
 * Cross-commit golden digests.
 *
 * The determinism suite compares two runs of the same build, so it
 * cannot notice a change that is deterministic but different — a
 * switch allocator that grants the same flits in another order, say.
 * These tests fold whole observable behaviours into FNV-1a digests
 * and compare them against constants recorded from a reference
 * build. A deliberate behaviour change must re-record them and say
 * why; a performance change must leave them alone.
 *
 *  - NocTraceDigest: seeded ctrl and data packets on vnets 0 and 1,
 *    plus a hotspot destination, through an 8x8 mesh with two-flit
 *    input buffers (heavy wormhole and credit contention). Every
 *    delivery's (destination, tag, tick), in delivery order.
 *  - FaultedRegistryDigest: the full StatRegistry dump of 16-core
 *    fft on msa-omu2-nocfaults, seed 1. The run drops flits,
 *    corrupts packets and reconfigures the routing tables, so it
 *    drives the router's discard and corrupted-worm paths.
 *  - HotCounterRegistryDigests: the full registry dumps of two
 *    fault-free 16-core runs, seed 1, which between them reach every
 *    per-event counter family: server-poisson on msa-omu at 4
 *    requests per kilotick (noc, core, L1, LLC, MSA slice,
 *    sync.<INSTR>.hw|sw, srv.*), and raytrace on the pthread
 *    baseline (atomics and crossed snoops, no MSA).
 *  - MsaGateRegistryDigests: the full registry dumps of three
 *    16-core runs, seed 1, that reach MSA request-gate outcomes no
 *    other digest reaches: dedup on MSA/OMU-1 with the OMU off
 *    (parked entries and tombstones), fluidanimate on fig9's
 *    lock-only MSA (BARRIER unsupported), and dedup on a
 *    barrier-only MSA (LOCK and COND_WAIT unsupported).
 *  - OfflineShedRegistryDigests, RecoveryRegistryDigests,
 *    SuspendRegistryDigests, MigratedUnlockRegistryDigest: the full
 *    registry dumps of 16-core runs, seed 1, that reach the MSA entry
 *    teardown paths no other digest reaches: offline shedding of
 *    locks (raytrace) and barriers (ocean) on msa-omu-faults, a dead
 *    owner's lock revocation (radiosity on msa-omu2-corefaults), a
 *    slice failover re-homing live entries (fluidanimate), lock and
 *    barrier suspension (raytrace) and cond-wait suspension (dedup)
 *    under timer interrupts, and a migrated UNLOCK aborting the
 *    lock's waiters.
 *  - CampaignReportDigest: report.json, report.csv and report.txt of
 *    three in-process campaigns that between them reach every cell
 *    block: spec stats (one counter absent from the runs), baseline
 *    speedups and heatmap pressure; a server arrival-rate x
 *    retry-policy sweep under an SLO; and a tenant-mix sweep.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/thread_api.hh"
#include "msa/msa_slice.hh"
#include "noc/mesh.hh"
#include "orch/aggregate.hh"
#include "orch/engine.hh"
#include "orch/job.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sync/sync_lib.hh"
#include "system/interrupt_driver.hh"
#include "workload/app_catalog.hh"
#include "workload/runner.hh"
#include "workload/synthetic_app.hh"

namespace misar {
namespace {

/** @name Recorded digests; re-record only with a stated reason. @{ */
constexpr std::uint64_t nocTraceDigest = 0x0ab5cf903513d8bcULL;
constexpr std::uint64_t faultedRegistryDigest = 0x66e7b55d6da2d48cULL;
constexpr std::uint64_t serverRegistryDigest = 0xd7cfdc2adfe3fbf7ULL;
constexpr std::uint64_t raytraceRegistryDigest = 0x9e04db7becef0edaULL;
constexpr std::uint64_t campaignReportDigest = 0x475ac7e4f7d5a65eULL;
constexpr std::uint64_t tombstoneRegistryDigest = 0x61d01d3161759009ULL;
constexpr std::uint64_t lockOnlyRegistryDigest = 0xfc9a8fa99118f6bfULL;
constexpr std::uint64_t barrierOnlyRegistryDigest = 0xb01b1bb30b8a7eaaULL;
constexpr std::uint64_t offlineLockRegistryDigest = 0x918991cf72cb2e67ULL;
constexpr std::uint64_t offlineBarrierRegistryDigest = 0x4a341fb496980f8cULL;
constexpr std::uint64_t revocationRegistryDigest = 0x91a63359aee2da47ULL;
constexpr std::uint64_t failoverRegistryDigest = 0xf52b7c5da070f2f7ULL;
constexpr std::uint64_t lockSuspendRegistryDigest = 0xd8207a812c169919ULL;
constexpr std::uint64_t condSuspendRegistryDigest = 0xaa2067078ada6830ULL;
constexpr std::uint64_t migratedUnlockRegistryDigest = 0x9d70600e3ec1f4d9ULL;
/** @} */

constexpr std::uint64_t fnvBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

void
fnvByte(std::uint64_t &h, unsigned char b)
{
    h ^= b;
    h *= fnvPrime;
}

/** Fold @p v into @p h as eight little-endian bytes. */
void
fnvWord(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        fnvByte(h, static_cast<unsigned char>(v >> (8 * i)));
}

std::uint64_t
fnvString(const std::string &s)
{
    std::uint64_t h = fnvBasis;
    for (char c : s)
        fnvByte(h, static_cast<unsigned char>(c));
    return h;
}

/** Test payload carrying an identifying tag. */
class TagPacket : public noc::Packet
{
  public:
    TagPacket(CoreId src, CoreId dst, unsigned size, std::uint64_t tag)
        : Packet(src, dst, size), tag(tag)
    {}
    std::uint64_t tag;
};

TEST(Golden, NocTraceDigest)
{
    constexpr unsigned dim = 8;
    constexpr unsigned tiles = dim * dim;
    constexpr unsigned packets = 4000;
    constexpr CoreId hotspot = 27;

    EventQueue eq;
    NocConfig cfg;
    cfg.bufferDepth = 2;
    StatRegistry stats;
    noc::Mesh mesh(eq, cfg, dim, stats);

    std::uint64_t h = fnvBasis;
    unsigned delivered = 0;
    for (CoreId t = 0; t < tiles; ++t) {
        mesh.setSink(t, [&, t](std::shared_ptr<noc::Packet> p) {
            fnvWord(h, t);
            fnvWord(h, static_cast<const TagPacket &>(*p).tag);
            fnvWord(h, eq.now());
            ++delivered;
        });
    }

    // Injection times, endpoints, sizes and vnets all come from one
    // seeded stream, drawn up front so the schedule is fixed.
    Rng rng(0x601de7ULL);
    for (std::uint64_t tag = 0; tag < packets; ++tag) {
        const Tick at = rng.range(3000);
        const CoreId src = static_cast<CoreId>(rng.range(tiles));
        CoreId dst = rng.range(4) == 0
                         ? hotspot
                         : static_cast<CoreId>(rng.range(tiles));
        if (dst == src)
            dst = (dst + 1) % tiles;
        const unsigned size =
            rng.range(2) ? noc::dataBytes : noc::ctrlBytes;
        const unsigned vnet = static_cast<unsigned>(rng.range(2));
        eq.schedule(at, [&mesh, src, dst, size, vnet, tag] {
            auto p = std::make_shared<TagPacket>(src, dst, size, tag);
            p->vnet = vnet;
            mesh.send(std::move(p));
        });
    }
    ASSERT_TRUE(eq.run());
    ASSERT_EQ(delivered, packets);
    EXPECT_EQ(h, nocTraceDigest) << std::hex << "digest 0x" << h;
}

/** Run 16-core @p app on @p config at seed 1 (and @p rate requests
 *  per kilotick when non-zero), after @p tweak, when given, edits the
 *  resolved config; the finished System. */
std::unique_ptr<sys::System>
runJob(const char *config, const char *app, double rate = 0.0,
       void (*tweak)(SystemConfig &) = nullptr)
{
    orch::JobSpec job;
    job.preset.config = config;
    job.app = app;
    job.cores = 16;
    job.seed = 1;
    job.arrivalRate = rate;
    orch::JobRun run =
        orch::resolveJob(job, orch::CampaignSpec::ServerSweep{});
    if (tweak)
        tweak(run.cfg);

    std::unique_ptr<sys::System> system;
    workload::RunOptions opts;
    opts.system = &system;
    const workload::RunResult r = workload::runAppWithConfig(
        run.app, run.cfg, run.flavor, job.seed, job.preset.config, opts);
    EXPECT_TRUE(r.finished);
    return system;
}

std::uint64_t
registryDigest(const StatRegistry &stats)
{
    std::ostringstream os;
    stats.dump(os);
    return fnvString(os.str());
}

TEST(Golden, FaultedRegistryDigest)
{
    const auto system = runJob("msa-omu2-nocfaults", "fft");
    const StatRegistry &stats = system->stats();
    // The run must keep exercising the fault paths it pins.
    EXPECT_EQ(stats.counterValue("noc.flitsDropped"), 16u);
    EXPECT_EQ(stats.counterValue("noc.pktsCorrupted"), 3u);
    EXPECT_EQ(stats.counterValue("noc.reconfigs"), 1u);

    const std::uint64_t h = registryDigest(stats);
    EXPECT_EQ(h, faultedRegistryDigest) << std::hex << "digest 0x" << h;
}

TEST(Golden, HotCounterRegistryDigests)
{
    const auto server = runJob("msa-omu", "server-poisson", 4.0);
    const StatRegistry &s = server->stats();
    // The families this digest pins must stay reached.
    EXPECT_GT(s.counterValue("noc.localLoopbacks"), 0u);
    EXPECT_GT(s.sumCountersSuffix(".msa.evictions"), 0u);
    EXPECT_GT(s.counterValue("sync.LOCK.hw"), 0u);
    EXPECT_GT(s.counterValue("sync.COND_SIGNAL.sw"), 0u);
    EXPECT_GT(s.counterValue("sync.silentLocks"), 0u);
    EXPECT_GT(s.sumCountersSuffix(".srv.completed"), 0u);
    EXPECT_GT(s.sumCountersSuffix(".srv.rejectedSlo") +
                  s.sumCountersSuffix(".srv.rejected"),
              0u);
    const std::uint64_t hs = registryDigest(s);
    EXPECT_EQ(hs, serverRegistryDigest) << std::hex << "digest 0x" << hs;

    const auto raytrace = runJob("baseline", "raytrace");
    const StatRegistry &r = raytrace->stats();
    EXPECT_GT(r.sumCountersSuffix(".atomics"), 0u);
    EXPECT_GT(r.sumCountersSuffix(".l1.crossedSnoops"), 0u);
    EXPECT_EQ(r.sumCounters("sync.hwOps"), 0u);
    const std::uint64_t hr = registryDigest(r);
    EXPECT_EQ(hr, raytraceRegistryDigest) << std::hex << "digest 0x" << hr;
}

TEST(Golden, MsaGateRegistryDigests)
{
    // MSA/OMU-1 without the OMU: a cond wait whose lock is in software
    // leaves a tombstone, and later requests FAIL on it.
    const auto parked = runJob("msa-omu", "dedup", 0.0, [](SystemConfig &c) {
        c.msa.msaEntries = 1;
        c.msa.omuEnabled = false;
    });
    unsigned tombstones = 0;
    for (CoreId t = 0; t < 16; ++t)
        parked->msaSlice(t).forEachEntry(
            [&](const msa::MsaEntry &e) { tombstones += e.tombstone; });
    EXPECT_GT(tombstones, 0u);
    const std::uint64_t ht = registryDigest(parked->stats());
    EXPECT_EQ(ht, tombstoneRegistryDigest) << std::hex << "digest 0x" << ht;

    // fig9's lock-only MSA.
    const auto lock_only =
        runJob("msa-omu", "fluidanimate", 0.0, [](SystemConfig &c) {
            c.msa.support.barriers = false;
            c.msa.support.condVars = false;
        });
    const StatRegistry &l = lock_only->stats();
    EXPECT_GT(l.counterValue("sync.BARRIER.sw"), 0u);
    EXPECT_EQ(l.counterValue("sync.BARRIER.hw"), 0u);
    EXPECT_GT(l.counterValue("sync.LOCK.hw"), 0u);
    const std::uint64_t hl = registryDigest(l);
    EXPECT_EQ(hl, lockOnlyRegistryDigest) << std::hex << "digest 0x" << hl;

    // fig9's barrier-only MSA.
    const auto barrier_only =
        runJob("msa-omu", "dedup", 0.0, [](SystemConfig &c) {
            c.msa.support.locks = false;
            c.msa.support.condVars = false;
        });
    const StatRegistry &b = barrier_only->stats();
    EXPECT_GT(b.counterValue("sync.LOCK.sw"), 0u);
    EXPECT_EQ(b.counterValue("sync.LOCK.hw"), 0u);
    EXPECT_GT(b.counterValue("sync.COND_WAIT.sw"), 0u);
    EXPECT_EQ(b.counterValue("sync.COND_WAIT.hw"), 0u);
    const std::uint64_t hb = registryDigest(b);
    EXPECT_EQ(hb, barrierOnlyRegistryDigest)
        << std::hex << "digest 0x" << hb;
}

TEST(Golden, OfflineShedRegistryDigests)
{
    // Tile 0 goes offline at tick 60000: its locks shed at their next
    // release, its barriers at once.
    const auto raytrace = runJob("msa-omu-faults", "raytrace");
    const StatRegistry &l = raytrace->stats();
    EXPECT_GT(l.sumCountersSuffix(".msa.offlineLockAborts"), 0u);
    const std::uint64_t hl = registryDigest(l);
    EXPECT_EQ(hl, offlineLockRegistryDigest) << std::hex << "digest 0x" << hl;

    const auto ocean = runJob("msa-omu-faults", "ocean");
    const StatRegistry &b = ocean->stats();
    EXPECT_GT(b.sumCountersSuffix(".msa.offlineBarrierAborts"), 0u);
    const std::uint64_t hb = registryDigest(b);
    EXPECT_EQ(hb, offlineBarrierRegistryDigest)
        << std::hex << "digest 0x" << hb;
}

TEST(Golden, RecoveryRegistryDigests)
{
    // A core dies holding a lock; its lease expires and the slice
    // revokes it.
    const auto radiosity = runJob("msa-omu2-corefaults", "radiosity");
    const StatRegistry &r = radiosity->stats();
    EXPECT_GT(r.sumCountersSuffix(".msa.lockRevocations"), 0u);
    const std::uint64_t hr = registryDigest(r);
    EXPECT_EQ(hr, revocationRegistryDigest) << std::hex << "digest 0x" << hr;

    // Tile 0's slice fails over to tile 1 mid-run.
    const auto fluid =
        runJob("msa-omu", "fluidanimate", 0.0, [](SystemConfig &c) {
            c.resil.offlineTile = 0;
            c.resil.offlineAtTick = 30000;
            c.resil.failoverBuddy = 1;
        });
    const StatRegistry &f = fluid->stats();
    EXPECT_GT(f.sumCountersSuffix(".msa.rehomedVars"), 0u);
    const std::uint64_t hf = registryDigest(f);
    EXPECT_EQ(hf, failoverRegistryDigest) << std::hex << "digest 0x" << hf;
}

/** Run 16-core @p app on MSA/OMU-2 at seed 1 under timer interrupts
 *  (period 2000, seed 77), built as bench/ablation_suspend.cc builds
 *  its runs; the finished System. */
std::unique_ptr<sys::System>
runInterrupted(const char *app)
{
    auto s = std::make_unique<sys::System>(
        makeConfig(16, AccelMode::MsaOmu, 2));
    sync::SyncLib lib(sync::SyncLib::Flavor::Hw, 16);
    const workload::AppSpec &spec = workload::appByName(app);
    workload::AppLayout lay;
    for (CoreId c = 0; c < 16; ++c)
        s->start(c, workload::appThread(s->api(c), spec, lay, &lib, 16, 1));
    sys::InterruptDriver irq(*s, 2000, 77);
    EXPECT_TRUE(s->run(5000000000ULL));
    return s;
}

TEST(Golden, SuspendRegistryDigests)
{
    const auto raytrace = runInterrupted("raytrace");
    const StatRegistry &l = raytrace->stats();
    EXPECT_GT(l.sumCountersSuffix(".msa.lockSuspends"), 0u);
    EXPECT_GT(l.sumCountersSuffix(".msa.barrierAborts"), 0u);
    const std::uint64_t hl = registryDigest(l);
    EXPECT_EQ(hl, lockSuspendRegistryDigest) << std::hex << "digest 0x" << hl;

    const auto dedup = runInterrupted("dedup");
    const StatRegistry &c = dedup->stats();
    EXPECT_GT(c.sumCountersSuffix(".msa.condAborts"), 0u);
    const std::uint64_t hc = registryDigest(c);
    EXPECT_EQ(hc, condSuspendRegistryDigest) << std::hex << "digest 0x" << hc;
}

TEST(Golden, MigratedUnlockRegistryDigest)
{
    // MsaUnlock.MigratedUnlockAbortsWaiters: core 0 takes the lock and
    // "migrates", core 5 releases it, and cores 1-3 queued behind it
    // are aborted to software.
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 2);
    cfg.msa.hwSyncBitOpt = false;
    sys::System s(cfg);
    sync::SyncLib lib(sync::SyncLib::Flavor::Hw, 16);
    auto owner = [](cpu::ThreadApi t, Addr l) -> cpu::ThreadTask {
        co_await t.lockInstr(l);
        co_await t.compute(3000);
    };
    auto migrant = [](cpu::ThreadApi t, Addr l) -> cpu::ThreadTask {
        co_await t.compute(3000);
        co_await t.unlockInstr(l);
    };
    auto waiter = [](cpu::ThreadApi t, sync::SyncLib *lib,
                     Addr l) -> cpu::ThreadTask {
        co_await t.compute(500);
        co_await lib->mutexLock(t, l);
        co_await t.compute(100);
        co_await lib->mutexUnlock(t, l);
    };
    s.start(0, owner(s.api(0), 0x8000));
    s.start(5, migrant(s.api(5), 0x8000));
    for (CoreId c = 1; c <= 3; ++c)
        s.start(c, waiter(s.api(c), &lib, 0x8000));
    ASSERT_TRUE(s.run(10000000));
    EXPECT_GT(s.stats().sumCountersSuffix(".msa.migratedUnlocks"), 0u);
    EXPECT_GT(s.stats().sumCountersSuffix(".msa.lockAborts"), 0u);
    const std::uint64_t h = registryDigest(s.stats());
    EXPECT_EQ(h, migratedUnlockRegistryDigest) << std::hex << "digest 0x" << h;
}

/** Campaigns whose reports reach every cell block. */
const char *const reportGrids[] = {
    R"({"name": "stats-pressure",
        "presets": [{"name": "Base", "config": "baseline"},
                    {"name": "MSA", "config": "msa-omu", "entries": 2}],
        "apps": ["fft"], "cores": [16], "seeds": [1, 2],
        "baseline": "Base",
        "stats": ["sync.hwOps", "resil.coreKills"],
        "obs": {"sampleInterval": 10000, "heatmap": true}})",
    R"({"name": "rates-policies",
        "presets": [{"name": "msa-omu", "config": "msa-omu",
                     "entries": 16}],
        "apps": ["server-poisson"], "cores": [16], "seeds": [1, 2],
        "server": {"arrivalRates": [4, 8],
                   "retryPolicies": ["none", "budgeted"],
                   "slo": 20000, "queueCap": 32,
                   "retryBudget": 0.2}})",
    R"({"name": "tenants",
        "presets": [{"name": "msa-omu", "config": "msa-omu",
                     "entries": 16}],
        "apps": ["server-poisson"], "cores": [16], "seeds": [1, 2],
        "server": {"tenantMixes": ["2:2", "2:6"], "slo": 20000}})",
};

TEST(Golden, CampaignReportDigest)
{
    std::uint64_t h = fnvBasis;
    std::string json;
    for (const char *text : reportGrids) {
        orch::CampaignSpec spec;
        std::string err;
        ASSERT_TRUE(orch::CampaignSpec::parse(text, spec, err)) << err;
        ASSERT_EQ(spec.validate(), "");
        const std::vector<orch::JobRecord> records =
            orch::runCampaignInProcess(spec);
        const orch::CampaignReport report(spec, records);
        std::ostringstream j, c, t;
        report.writeJson(j);
        report.writeCsv(c);
        report.writeTable(t);
        for (const std::string &s : {j.str(), c.str(), t.str()})
            for (char ch : s)
                fnvByte(h, static_cast<unsigned char>(ch));
        json += j.str();
    }
    // The blocks this digest pins must stay reached.
    for (const char *block : {"\"speedup\"", "\"stats\"", "\"syncWait\"",
                              "\"pressure\"", "\"server\"",
                              "\"tenants\""})
        EXPECT_NE(json.find(block), std::string::npos) << block;
    EXPECT_EQ(h, campaignReportDigest) << std::hex << "digest 0x" << h;
}

} // namespace
} // namespace misar
