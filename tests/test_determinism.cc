/**
 * @file
 * Determinism harness: the whole simulator re-run under the same
 * configuration and seed must reproduce bit-identical results.
 *
 * This is the regression gate for the event-kernel rework (calendar
 * queue + pooled events): any drift in (tick, insertion-order)
 * execution semantics shows up here as a stats-registry or profiler
 * mismatch long before anyone reads a paper figure. Faulted runs are
 * included on purpose — fault injection stresses retry/timeout paths
 * whose schedules are the easiest to perturb.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "obs/sync_profiler.hh"
#include "srv/server_app.hh"
#include "sync/sync_lib.hh"
#include "system/presets.hh"
#include "system/system.hh"
#include "workload/app_catalog.hh"
#include "workload/synthetic_app.hh"

namespace misar {
namespace {

struct RunSnapshot
{
    std::string statsDump; ///< full StatRegistry text dump
    std::string profJson;  ///< sync-profiler top-N JSON
    Tick makespan = 0;
    std::uint64_t executed = 0;
};

/**
 * One full run of @p app on preset @p pc; returns its fingerprint.
 * @p threads is the simulation kernel's host thread count; @p profile
 * arms the sync profiler (serial-only — the threaded kernel rejects
 * it, and cross-thread-count comparisons must configure both sides
 * identically). A non-zero @p split stops the run there first and
 * then resumes it, so the stat shards are merged twice.
 */
RunSnapshot
runOnceSpec(sys::PaperConfig pc, unsigned cores,
            const workload::AppSpec &spec, std::uint64_t seed,
            unsigned threads = 1, bool profile = true, Tick split = 0)
{
    SystemConfig cfg = sys::configFor(pc, cores);
    cfg.seed = seed;
    cfg.simThreads = threads;
    cfg.obs.profileSync = profile;
    sys::System s(cfg);
    sync::SyncLib lib(sys::flavorFor(pc), cores);
    if (cfg.resil.coreFaultsEnabled())
        lib.setDeadQuery(
            [&s](CoreId c) { return s.isDeclaredDead(c); });
    workload::AppLayout layout;
    std::unique_ptr<srv::ServerHarness> harness;
    if (spec.server.enabled)
        harness = std::make_unique<srv::ServerHarness>(spec.server,
                                                       cores, seed);
    for (CoreId t = 0; t < cores; ++t)
        s.start(t, harness
                       ? harness->thread(s.api(t), &lib)
                       : workload::appThread(s.api(t), spec, layout,
                                             &lib, cores, seed));
    if (split)
        EXPECT_EQ(s.runDetailed(split), sys::RunOutcome::LimitReached);
    EXPECT_EQ(s.runDetailed(2000000000ULL), sys::RunOutcome::Finished);

    RunSnapshot snap;
    std::ostringstream stats_os;
    s.stats().dump(stats_os);
    snap.statsDump = stats_os.str();
    if (const obs::SyncProfiler *p = s.syncProfiler()) {
        std::ostringstream prof_os;
        p->writeJson(prof_os, 32);
        snap.profJson = prof_os.str();
    }
    snap.makespan = s.eventQueue().now();
    snap.executed = s.eventQueue().executedEvents();
    return snap;
}

RunSnapshot
runOnce(sys::PaperConfig pc, unsigned cores, const char *app,
        std::uint64_t seed, unsigned threads = 1, bool profile = true)
{
    return runOnceSpec(pc, cores, workload::appByName(app), seed,
                       threads, profile);
}

/** server-poisson past the knee with SLO admission + budgeted
 *  retries armed: the overload layer's own RNG streams (backoff
 *  jitter) and host-side retry heaps join the fingerprint. */
workload::AppSpec
retryingServerSpec()
{
    workload::AppSpec spec = workload::appByName("server-poisson");
    spec.server.arrivalRate = 6.0;
    spec.server.queueCap = 256;
    spec.server.sloTicks = 20000;
    spec.server.retryPolicy = srv::RetryPolicy::Budgeted;
    return spec;
}

void
expectIdenticalRuns(sys::PaperConfig pc, unsigned cores, const char *app)
{
    RunSnapshot a = runOnce(pc, cores, app, 7);
    RunSnapshot b = runOnce(pc, cores, app, 7);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.statsDump, b.statsDump);
    EXPECT_FALSE(a.statsDump.empty());
    EXPECT_EQ(a.profJson, b.profJson);
    EXPECT_FALSE(a.profJson.empty());
}

TEST(Determinism, Msa16TwoRunsBitIdentical)
{
    expectIdenticalRuns(sys::PaperConfig::MsaOmu2, 16, "radiosity");
}

TEST(Determinism, MsaOmu2FaultsTwoRunsBitIdentical)
{
    expectIdenticalRuns(sys::PaperConfig::MsaOmu2Faults, 16, "radiosity");
}

TEST(Determinism, MsaOmu2NocFaultsTwoRunsBitIdentical)
{
    // NoC faults exercise corruption rolls, retransmission timers,
    // and the mid-run routing reconfiguration — all of which must
    // replay bit-identically under the same seed.
    expectIdenticalRuns(sys::PaperConfig::MsaOmu2NocFaults, 16,
                        "radiosity");
}

TEST(Determinism, MsaOmu2CoreFaultsTwoRunsBitIdentical)
{
    // A dead participant exercises lease probes, lock revocation,
    // epoch fencing, and barrier reconfiguration; the whole recovery
    // cascade must land on the same ticks in both runs.
    expectIdenticalRuns(sys::PaperConfig::MsaOmu2CoreFaults, 16,
                        "radiosity");
}

TEST(Determinism, ServerPoissonTwoRunsBitIdentical)
{
    // The open-loop server: arrival schedule, MPSC dispatch, work
    // stealing and per-request latency recording must all replay
    // bit-identically (stats dump includes the core*.srv.* counters).
    expectIdenticalRuns(sys::PaperConfig::MsaOmu2, 16, "server-poisson");
}

TEST(Determinism, ServerCoreFaultsTwoRunsBitIdentical)
{
    // A dead worker mid-run: the stranded-request accounting and the
    // recovery cascade must land on the same ticks in both runs.
    expectIdenticalRuns(sys::PaperConfig::MsaOmu2CoreFaults, 16,
                        "server-poisson");
}

/**
 * `--threads 1` runs the serial kernel itself — same code path, no
 * engine — so its stats dump is bit-identical to a run that never
 * mentioned threads. This pins the CLI contract on the existing
 * preset x app matrix.
 */
void
expectThreadsOneIsSerial(sys::PaperConfig pc, unsigned cores,
                         const char *app)
{
    RunSnapshot serial = runOnce(pc, cores, app, 7);
    RunSnapshot t1 = runOnce(pc, cores, app, 7, /*threads=*/1);
    EXPECT_EQ(serial.makespan, t1.makespan);
    EXPECT_EQ(serial.executed, t1.executed);
    EXPECT_EQ(serial.statsDump, t1.statsDump);
    EXPECT_EQ(serial.profJson, t1.profJson);
}

TEST(Determinism, ThreadsOneBitIdenticalToSerialKernel)
{
    expectThreadsOneIsSerial(sys::PaperConfig::MsaOmu2, 16, "radiosity");
    expectThreadsOneIsSerial(sys::PaperConfig::MsaOmu2Faults, 16,
                             "radiosity");
    expectThreadsOneIsSerial(sys::PaperConfig::MsaOmu2NocFaults, 16,
                             "radiosity");
    expectThreadsOneIsSerial(sys::PaperConfig::MsaOmu2CoreFaults, 16,
                             "radiosity");
}

/**
 * The PDES contract: for any N, the threaded kernel executes the
 * same trajectory, so the merged statistics registry and the final
 * clock must match `--threads 1` exactly. (The profiler stays off on
 * both sides: it is serial-only.)
 */
void
expectStatsIdenticalAcrossThreads(sys::PaperConfig pc, unsigned cores,
                                  const char *app)
{
    RunSnapshot t1 = runOnce(pc, cores, app, 7, 1, /*profile=*/false);
    EXPECT_FALSE(t1.statsDump.empty());
    for (unsigned n : {2u, 4u}) {
        RunSnapshot tn = runOnce(pc, cores, app, 7, n, false);
        EXPECT_EQ(t1.makespan, tn.makespan) << "threads=" << n;
        EXPECT_EQ(t1.statsDump, tn.statsDump) << "threads=" << n;
    }
}

TEST(Determinism, Msa16StatsIdenticalAcrossThreadCounts)
{
    expectStatsIdenticalAcrossThreads(sys::PaperConfig::MsaOmu2, 16,
                                      "radiosity");
}

TEST(Determinism, Msa64StatsIdenticalAcrossThreadCounts)
{
    expectStatsIdenticalAcrossThreads(sys::PaperConfig::MsaOmu2, 64,
                                      "radiosity");
}

TEST(Determinism, FaultedStatsIdenticalAcrossThreadCounts)
{
    // Message faults + a mid-run slice decommission: the injector
    // runs on the master lane and reaches into tiles; retry/timeout
    // schedules are the easiest to perturb, so this is the sharpest
    // cross-thread-count probe.
    expectStatsIdenticalAcrossThreads(sys::PaperConfig::MsaOmu2Faults,
                                      16, "radiosity");
}

TEST(Determinism, ServerStatsIdenticalAcrossThreadCounts)
{
    // Host-side server recording is per-core slots merged in core
    // order, so the threaded kernel must reproduce the serial stats
    // dump exactly — any cross-core mutable host state would show
    // up here as a diverging srv counter.
    expectStatsIdenticalAcrossThreads(sys::PaperConfig::MsaOmu2, 16,
                                      "server-poisson");
}

TEST(Determinism, McsTourStatsIdenticalAcrossThreadCounts)
{
    // Regression test for the sync-library aux allocator hazard: the
    // MCS/tournament software algorithms lean on per-object auxiliary
    // memory, whose addresses are now a pure function of the object
    // (a first-use bump allocator raced across partitions and handed
    // out interleaving-dependent addresses). The CI TSan job runs
    // this under -fsanitize=thread.
    expectStatsIdenticalAcrossThreads(sys::PaperConfig::McsTour, 16,
                                      "radiosity");
}

TEST(Determinism, ServerRetryTwoRunsBitIdentical)
{
    // SLO shedding + budgeted retries: backoff jitter and the retry
    // heap are seed-derived, so two runs must still be bit-identical.
    workload::AppSpec spec = retryingServerSpec();
    RunSnapshot a =
        runOnceSpec(sys::PaperConfig::MsaOmu2, 16, spec, 7);
    RunSnapshot b =
        runOnceSpec(sys::PaperConfig::MsaOmu2, 16, spec, 7);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.statsDump, b.statsDump);
    EXPECT_FALSE(a.statsDump.empty());
    EXPECT_EQ(a.profJson, b.profJson);
}

TEST(Determinism, ServerRetryStatsIdenticalAcrossThreadCounts)
{
    // Retry state (heaps, token bucket, EWMA words) must not leak
    // host scheduling into the run: `--threads 2` merges to the same
    // stats dump as the serial kernel.
    workload::AppSpec spec = retryingServerSpec();
    RunSnapshot t1 = runOnceSpec(sys::PaperConfig::MsaOmu2, 16, spec,
                                 7, 1, /*profile=*/false);
    EXPECT_FALSE(t1.statsDump.empty());
    RunSnapshot t2 = runOnceSpec(sys::PaperConfig::MsaOmu2, 16, spec,
                                 7, 2, false);
    EXPECT_EQ(t1.makespan, t2.makespan);
    EXPECT_EQ(t1.statsDump, t2.statsDump);
}

TEST(Determinism, SplitThreadedRunMatchesSerial)
{
    // A threaded run stopped at a tick limit and resumed must replay
    // the serial run: the engine files its in-flight cross-partition
    // mail into the queues when it shuts down, and stat handles keep
    // their shard entries across the merge and reset that end each
    // runDetailed().
    const workload::AppSpec &spec = workload::appByName("radiosity");
    RunSnapshot serial = runOnceSpec(sys::PaperConfig::MsaOmu2, 16, spec,
                                     7, 1, /*profile=*/false);
    RunSnapshot split = runOnceSpec(sys::PaperConfig::MsaOmu2, 16, spec,
                                    7, 4, false, /*split=*/20000);
    EXPECT_EQ(serial.makespan, split.makespan);
    EXPECT_EQ(serial.statsDump, split.statsDump);
}

TEST(Determinism, ThreadedRunsAreRunToRunDeterministic)
{
    // Fixed N must also be repeatable against itself (mailbox drain
    // order, not host scheduling, decides the merge).
    RunSnapshot a = runOnce(sys::PaperConfig::MsaOmu2, 16, "radiosity",
                            7, 4, false);
    RunSnapshot b = runOnce(sys::PaperConfig::MsaOmu2, 16, "radiosity",
                            7, 4, false);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.statsDump, b.statsDump);
    EXPECT_FALSE(a.statsDump.empty());
}

TEST(Determinism, DifferentSeedsActuallyDiffer)
{
    // Sanity check that the fingerprint is sensitive at all: a
    // different seed must not produce the same stats dump (otherwise
    // the identity assertions above would be vacuous).
    RunSnapshot a = runOnce(sys::PaperConfig::MsaOmu2Faults, 16,
                            "radiosity", 7);
    RunSnapshot b = runOnce(sys::PaperConfig::MsaOmu2Faults, 16,
                            "radiosity", 8);
    EXPECT_NE(a.statsDump, b.statsDump);
}

} // namespace
} // namespace misar
