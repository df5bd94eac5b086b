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
    std::uint64_t executed = 0; ///< events the queue ran
};

/**
 * One full run of @p app on preset @p pc, with the sync profiler
 * armed; returns its fingerprint. A non-zero @p split stops the run
 * there first and then resumes it.
 */
RunSnapshot
runOnceSpec(sys::PaperConfig pc, unsigned cores,
            const workload::AppSpec &spec, std::uint64_t seed,
            Tick split = 0)
{
    SystemConfig cfg = sys::configFor(pc, cores);
    cfg.seed = seed;
    cfg.obs.profileSync = true;
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
    if (split) {
        EXPECT_EQ(s.runDetailed(split), sys::RunOutcome::LimitReached);
    }
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
        std::uint64_t seed)
{
    return runOnceSpec(pc, cores, workload::appByName(app), seed);
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

TEST(Determinism, SplitRunMatchesUninterrupted)
{
    // A run stopped at a tick limit and resumed must replay the
    // uninterrupted run. The split is a multiple of runDetailed()'s
    // 10,000-tick chunk, so both runs check for completion at the
    // same ticks.
    const workload::AppSpec &spec = workload::appByName("radiosity");
    RunSnapshot whole = runOnceSpec(sys::PaperConfig::MsaOmu2, 16, spec, 7);
    RunSnapshot split = runOnceSpec(sys::PaperConfig::MsaOmu2, 16, spec, 7,
                                    /*split=*/20000);
    EXPECT_EQ(whole.makespan, split.makespan);
    EXPECT_EQ(whole.executed, split.executed);
    EXPECT_EQ(whole.statsDump, split.statsDump);
    EXPECT_FALSE(whole.statsDump.empty());
    EXPECT_EQ(whole.profJson, split.profJson);
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
