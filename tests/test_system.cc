/**
 * @file
 * System-level tests: cross-configuration determinism, paper-shape
 * regression guards (cheap versions of the headline results), NoC
 * backpressure under system load, and end-to-end pipeline apps on
 * every accelerator mode.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>

#include "srv/server_app.hh"
#include "sync/sync_lib.hh"
#include "system/system.hh"
#include "util/json.hh"
#include "workload/app_catalog.hh"
#include "workload/microbench.hh"
#include "workload/runner.hh"

namespace misar {
namespace sys {
namespace {

using workload::appByName;
using workload::RunResult;
using workload::runApp;

// Every paper configuration is deterministic: same seed, same cycle.
class DeterminismTest : public ::testing::TestWithParam<PaperConfig>
{};

TEST_P(DeterminismTest, SameSeedSameMakespan)
{
    const workload::AppSpec &spec = appByName("water-sp");
    RunResult a = runApp(spec, 16, GetParam(), 99);
    RunResult b = runApp(spec, 16, GetParam(), 99);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.hwOps, b.hwOps);
    EXPECT_EQ(a.swOps, b.swOps);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DeterminismTest,
    ::testing::Values(PaperConfig::Baseline, PaperConfig::Msa0,
                      PaperConfig::McsTour, PaperConfig::MsaOmu1,
                      PaperConfig::MsaOmu2, PaperConfig::MsaInf,
                      PaperConfig::Ideal, PaperConfig::Spinlock),
    [](const ::testing::TestParamInfo<PaperConfig> &info) {
        std::string n = paperConfigName(info.param);
        std::string out;
        for (char c : n)
            if (std::isalnum(static_cast<unsigned char>(c)))
                out += c;
        return out;
    });

// --- Cheap paper-shape guards (regression alarms) -------------------------

TEST(PaperShape, StreamclusterSpeedupAt16Cores)
{
    const workload::AppSpec &spec = appByName("streamcluster");
    RunResult base = runApp(spec, 16, PaperConfig::Baseline);
    RunResult msa = runApp(spec, 16, PaperConfig::MsaOmu2);
    double sp = static_cast<double>(base.makespan) / msa.makespan;
    EXPECT_GT(sp, 2.0) << "barrier acceleration regressed";
}

TEST(PaperShape, Msa0WithinFewPercentOfBaseline)
{
    const workload::AppSpec &spec = appByName("ocean");
    RunResult base = runApp(spec, 16, PaperConfig::Baseline);
    RunResult msa0 = runApp(spec, 16, PaperConfig::Msa0);
    double ratio = static_cast<double>(msa0.makespan) / base.makespan;
    EXPECT_GT(ratio, 0.90);
    EXPECT_LT(ratio, 1.10);
}

TEST(PaperShape, Omu2TracksInfinity)
{
    for (const char *name : {"streamcluster", "fluidanimate"}) {
        const workload::AppSpec &spec = appByName(name);
        RunResult omu2 = runApp(spec, 16, PaperConfig::MsaOmu2);
        RunResult inf = runApp(spec, 16, PaperConfig::MsaInf);
        double ratio =
            static_cast<double>(omu2.makespan) / inf.makespan;
        EXPECT_LT(ratio, 1.10) << name << ": OMU-2 far from MSA-inf";
    }
}

TEST(PaperShape, IdealIsAlwaysFastestHardware)
{
    const workload::AppSpec &spec = appByName("water-sp");
    RunResult omu2 = runApp(spec, 16, PaperConfig::MsaOmu2);
    RunResult ideal = runApp(spec, 16, PaperConfig::Ideal);
    EXPECT_LE(ideal.makespan, omu2.makespan);
}

TEST(PaperShape, MsaLockHandoffOrderOfMagnitudeUnderPthread)
{
    workload::RawLatencies base =
        workload::measureRawLatency(16, PaperConfig::Baseline);
    workload::RawLatencies msa =
        workload::measureRawLatency(16, PaperConfig::MsaOmu2);
    EXPECT_LT(msa.lockHandoff * 4, base.lockHandoff);
    EXPECT_LT(msa.barrierHandoff * 4, base.barrierHandoff);
}

// --- Pipeline (cond-var) apps across every mode ---------------------------

class PipelineModeTest : public ::testing::TestWithParam<PaperConfig>
{};

TEST_P(PipelineModeTest, DedupFinishes)
{
    const workload::AppSpec &spec = appByName("dedup");
    RunResult r = runApp(spec, 16, GetParam());
    EXPECT_TRUE(r.finished);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PipelineModeTest,
    ::testing::Values(PaperConfig::Baseline, PaperConfig::Msa0,
                      PaperConfig::MsaOmu1, PaperConfig::MsaOmu2,
                      PaperConfig::MsaInf, PaperConfig::Ideal),
    [](const ::testing::TestParamInfo<PaperConfig> &info) {
        std::string n = paperConfigName(info.param);
        std::string out;
        for (char c : n)
            if (std::isalnum(static_cast<unsigned char>(c)))
                out += c;
        return out;
    });

// --- Misc system behaviours -------------------------------------------------

TEST(SystemMisc, RunDetectsDeadlock)
{
    // A thread that waits on a barrier nobody else joins: run() must
    // report failure, not hang (the event queue drains).
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 2);
    System s(cfg);
    sync::SyncLib lib(sync::SyncLib::Flavor::Hw, 16);
    auto body = [](cpu::ThreadApi t, sync::SyncLib *lib) -> cpu::ThreadTask {
        co_await lib->barrierWait(t, 0x2000, 2); // partner never comes
    };
    s.start(0, body(s.api(0), &lib));
    EXPECT_FALSE(s.run(200000));
}

TEST(SystemMisc, TraceCapturesSystemRun)
{
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 2);
    cfg.obs.traceEnabled = true;
    System s(cfg);
    sync::SyncLib lib(sync::SyncLib::Flavor::Hw, 16);
    auto body = [](cpu::ThreadApi t, sync::SyncLib *lib) -> cpu::ThreadTask {
        co_await lib->mutexLock(t, 0x1000);
        co_await t.compute(10);
        co_await lib->mutexUnlock(t, 0x1000);
    };
    s.start(0, body(s.api(0), &lib));
    ASSERT_TRUE(s.run(100000));
    std::ostringstream os;
    s.writeTrace(os);
    // Core 0's row (pid 0, tid 0) holds the LOCK and compute slices.
    const util::Json t = util::parseJson(os.str());
    std::set<std::string> core0;
    for (const util::Json &e : t.at("traceEvents").arr)
        if (e.at("ph").str == "X" && e.at("pid").num == obs::pidCores &&
            e.at("tid").num == 0)
            core0.insert(e.at("name").str);
    EXPECT_TRUE(core0.count("LOCK"));
    EXPECT_TRUE(core0.count("compute"));
}

TEST(SystemMisc, SixtyFourCoreSmoke)
{
    const workload::AppSpec &spec = appByName("barnes");
    RunResult r = runApp(spec, 64, PaperConfig::MsaOmu2);
    EXPECT_TRUE(r.finished);
    EXPECT_GT(r.hwCoverage, 0.5);
}

// Per-event stats count through bound handles, so once a run is warm
// the registry's name lookups no longer grow with simulated work: what
// is left are first counts of rare stats and once-per-thread ones.
TEST(SystemMisc, StatLookupsDoNotScaleWithEvents)
{
    struct Case
    {
        PaperConfig pc;
        const char *app;
        unsigned iters; ///< 0 = the catalog's
    };
    // fft's catalog run (30 iterations) ends ~100k ticks in: too few
    // events to amortise its first counts. Run it 20x longer.
    for (const Case &c : {Case{PaperConfig::MsaOmu2, "fft", 600},
                          Case{PaperConfig::Baseline, "raytrace", 0},
                          Case{PaperConfig::MsaOmu2, "server-poisson", 0}}) {
        SCOPED_TRACE(c.app);
        constexpr unsigned cores = 16;
        SystemConfig cfg = configFor(c.pc, cores);
        cfg.seed = 1;
        System s(cfg);
        sync::SyncLib lib(flavorFor(c.pc), cores);
        workload::AppSpec spec = appByName(c.app);
        if (c.iters)
            spec.iters = c.iters;
        workload::AppLayout layout;
        std::unique_ptr<srv::ServerHarness> harness;
        if (spec.server.enabled)
            harness = std::make_unique<srv::ServerHarness>(spec.server,
                                                           cores, 1);
        for (CoreId t = 0; t < cores; ++t)
            s.start(t, harness ? harness->thread(s.api(t), &lib)
                               : workload::appThread(s.api(t), spec,
                                                     layout, &lib,
                                                     cores, 1));

        // Warm up, then count over the rest of the run.
        ASSERT_EQ(s.runDetailed(100000), RunOutcome::LimitReached);
        const std::uint64_t lookups0 = s.stats().lookups();
        const std::uint64_t events0 = s.eventQueue().executedEvents();
        ASSERT_EQ(s.runDetailed(2000000000ULL), RunOutcome::Finished);
        const std::uint64_t lookups = s.stats().lookups() - lookups0;
        const std::uint64_t events =
            s.eventQueue().executedEvents() - events0;
        EXPECT_GT(events, 100000u);
        EXPECT_LT(lookups * 10000, events)
            << lookups << " lookups in " << events << " events";
    }
}

} // namespace
} // namespace sys
} // namespace misar
