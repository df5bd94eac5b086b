/**
 * @file
 * Overload-control tests: SLO-aware admission accounting, retry
 * policies (naive storms vs. budgeted), the retry-budget bound,
 * two-tenant accounting and brownout, conservation under core faults
 * with retries in flight, inertness of every overload path at the
 * defaults, and the conditional v4 run-report blocks.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/run_report.hh"
#include "sim/stats.hh"
#include "srv/server_stats.hh"
#include "system/presets.hh"
#include "util/json.hh"
#include "workload/app_catalog.hh"
#include "workload/runner.hh"

using namespace misar;

namespace {

/** server-poisson pushed past the knee with SLO admission armed. */
workload::AppSpec
overloadSpec(srv::RetryPolicy policy)
{
    workload::AppSpec spec = workload::appByName("server-poisson");
    spec.server.arrivalRate = 6.0;
    spec.server.queueCap = 256;
    spec.server.sloTicks = 20000;
    spec.server.retryPolicy = policy;
    return spec;
}

srv::ServerStats
run(const workload::AppSpec &spec,
    sys::PaperConfig cfg = sys::PaperConfig::MsaOmu2,
    std::uint64_t seed = 7)
{
    workload::RunResult r = workload::runApp(spec, 16, cfg, seed);
    EXPECT_TRUE(r.finished);
    EXPECT_TRUE(r.hasServer);
    return r.server;
}

/** generated == completed + rejected + rejectedSlo + stranded. */
void
expectConserved(const srv::ServerStats &s)
{
    EXPECT_EQ(s.generated,
              s.completed + s.rejected + s.rejectedSlo + s.stranded);
}

util::Json
parsed(const std::string &text)
{
    std::string err;
    util::Json j = util::parseJson(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    return j;
}

} // namespace

TEST(Overload, SloAdmissionShedsBeforeTheRingFills)
{
    workload::AppSpec spec = overloadSpec(srv::RetryPolicy::None);
    srv::ServerStats s = run(spec);
    // The 256-deep ring never fills: SLO admission sheds first.
    EXPECT_GT(s.rejectedSlo, 0u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.retries, 0u);
    expectConserved(s);
    EXPECT_EQ(s.generated, spec.server.requests);
    EXPECT_EQ(s.sloTicks, spec.server.sloTicks);
    EXPECT_LE(s.sloMet, s.completed);
    EXPECT_LE(s.goodput, s.throughput);
    EXPECT_GT(s.goodput, 0.0);
    EXPECT_EQ(s.latency.count(), s.completed);
    EXPECT_TRUE(s.knee) << "rate 6 should be past the knee";
}

TEST(Overload, NaiveRetriesAmplifyButNeverDoubleCount)
{
    srv::ServerStats s = run(overloadSpec(srv::RetryPolicy::Naive));
    EXPECT_GT(s.retries, 0u);
    EXPECT_EQ(s.retryBudgetDenied, 0u);
    // Final-disposition accounting: a request that retried N times is
    // still generated exactly once and reaches one disposition.
    EXPECT_EQ(s.generated, 1500u);
    expectConserved(s);
}

TEST(Overload, BudgetedRetriesRespectTheTokenBound)
{
    workload::AppSpec spec = overloadSpec(srv::RetryPolicy::Budgeted);
    srv::ServerStats s = run(spec);
    expectConserved(s);
    // Spent retries never exceed the burst allowance plus the
    // success-refilled fraction (successes <= completed).
    const double bound =
        static_cast<double>(spec.server.retryBurst) +
        spec.server.retryBudgetRatio * static_cast<double>(s.completed);
    EXPECT_LE(static_cast<double>(s.retries), bound + 1.0)
        << s.retries << " retries vs budget bound " << bound;
    // Past the knee the budget must actually be binding.
    EXPECT_GT(s.retryBudgetDenied, 0u);
    srv::ServerStats naive = run(overloadSpec(srv::RetryPolicy::Naive));
    EXPECT_LT(s.retries, naive.retries);
}

TEST(Overload, TenantAccountingSumsToRunTotals)
{
    workload::AppSpec spec = workload::appByName("server-burst");
    spec.server.queueCap = 256;
    spec.server.sloTicks = 30000;
    spec.server.tenantHiRate = 1.0;
    spec.server.tenantLoRate = 3.0;
    spec.server.arrivalRate = 4.0;
    srv::ServerStats s = run(spec);
    expectConserved(s);
    ASSERT_EQ(s.tenants.size(), 2u);
    EXPECT_EQ(s.tenants[0].name, "hi");
    EXPECT_EQ(s.tenants[1].name, "lo");
    EXPECT_DOUBLE_EQ(s.tenants[0].offeredRate, 1.0);
    EXPECT_DOUBLE_EQ(s.tenants[1].offeredRate, 3.0);

    std::uint64_t gen = 0, done = 0, rej = 0, rej_slo = 0, str = 0,
                  met = 0, lat = 0;
    for (const srv::TenantStats &t : s.tenants) {
        gen += t.generated;
        done += t.completed;
        rej += t.rejected;
        rej_slo += t.rejectedSlo;
        str += t.stranded;
        met += t.sloMet;
        lat += t.latency.count();
        EXPECT_EQ(t.generated,
                  t.completed + t.rejected + t.rejectedSlo + t.stranded)
            << t.name;
        EXPECT_EQ(t.latency.count(), t.completed) << t.name;
    }
    EXPECT_EQ(gen, s.generated);
    EXPECT_EQ(done, s.completed);
    EXPECT_EQ(rej, s.rejected);
    EXPECT_EQ(rej_slo, s.rejectedSlo);
    EXPECT_EQ(str, s.stranded);
    EXPECT_EQ(met, s.sloMet);
    EXPECT_EQ(lat, s.latency.count());
}

TEST(Overload, BrownoutShedsLowPriorityFirst)
{
    workload::AppSpec spec = workload::appByName("server-burst");
    spec.server.queueCap = 256;
    spec.server.sloTicks = 30000;
    spec.server.tenantHiRate = 1.0;
    spec.server.tenantLoRate = 3.0;
    spec.server.arrivalRate = 4.0;
    spec.server.brownoutRatio = 0.5;
    srv::ServerStats s = run(spec, sys::PaperConfig::MsaOmu2, 1);
    ASSERT_EQ(s.tenants.size(), 2u);
    const srv::TenantStats &hi = s.tenants[0], &lo = s.tenants[1];
    // The lo burst is shed at half the SLO's predicted wait; hi rides
    // through untouched and inside its SLO.
    EXPECT_GT(lo.rejectedSlo, 0u);
    EXPECT_EQ(hi.rejectedSlo + hi.rejected, 0u);
    EXPECT_LE(hi.latency.p99(), spec.server.sloTicks);
    EXPECT_GT(hi.goodput, 0.0);
}

TEST(Overload, CoreFaultsWithBudgetedRetriesNeverLoseRequests)
{
    // Retry + SLO shedding + slice failover + dead cores at once:
    // every request still reaches exactly one final disposition.
    workload::AppSpec spec = overloadSpec(srv::RetryPolicy::Budgeted);
    workload::RunResult r = workload::runApp(
        spec, 16, sys::PaperConfig::MsaOmu2CoreFaults, 7);
    ASSERT_TRUE(r.finished);
    EXPECT_GT(r.resilience["coreKills"], 0u)
        << "fault preset did not kill a core";
    const srv::ServerStats &s = r.server;
    EXPECT_EQ(s.generated, spec.server.requests);
    expectConserved(s);
    EXPECT_EQ(s.latency.count(), s.completed);
}

TEST(Overload, PathsAreInertByDefault)
{
    // A PR 9-era run (no SLO, no retries, no tenants) must see none
    // of the overload machinery in its stats.
    srv::ServerStats s =
        run(workload::appByName("server-poisson"));
    EXPECT_EQ(s.sloTicks, 0u);
    EXPECT_EQ(s.retryPolicy, srv::RetryPolicy::None);
    EXPECT_EQ(s.rejectedSlo, 0u);
    EXPECT_EQ(s.retries, 0u);
    EXPECT_EQ(s.retryBudgetDenied, 0u);
    EXPECT_EQ(s.sloMet, s.completed);
    EXPECT_DOUBLE_EQ(s.goodput, s.throughput);
    EXPECT_TRUE(s.tenants.empty());
}

TEST(Overload, RunReportV4BlocksAreConditional)
{
    StatRegistry stats;
    obs::RunMeta meta;
    meta.app = "server-poisson";
    meta.outcome = "finished";
    meta.makespan = 1000;

    srv::ServerStats plain;
    plain.offeredRate = 2.0;
    plain.generated = 10;
    plain.completed = 10;
    plain.sloMet = 10;
    plain.throughput = 1.0;
    plain.goodput = 1.0;
    std::ostringstream p;
    obs::writeRunReport(p, meta, stats, nullptr, 16, nullptr, nullptr,
                        nullptr, &plain);
    const util::Json pj = parsed(p.str());
    const util::Json &psrv = pj.at("server");
    // v4 additions present even when the features are off...
    EXPECT_EQ(psrv.at("rejectedSlo").uintOr(99), 0u);
    EXPECT_TRUE(psrv.at("goodput").isNum());
    // ...but the conditional blocks only appear when armed.
    EXPECT_FALSE(psrv.has("slo"));
    EXPECT_FALSE(psrv.has("retries"));
    EXPECT_FALSE(psrv.has("tenants"));
    // And every v3 field is still in place.
    for (const char *k : {"generated", "completed", "rejected",
                          "stranded", "throughput", "knee"})
        EXPECT_TRUE(psrv.has(k)) << k;

    srv::ServerStats armed = plain;
    armed.sloTicks = 20000;
    armed.sloMet = 8;
    armed.rejectedSlo = 2;
    armed.retryPolicy = srv::RetryPolicy::Budgeted;
    armed.retries = 3;
    armed.retryBudgetDenied = 1;
    armed.tenants.resize(2);
    armed.tenants[0].name = "hi";
    armed.tenants[1].name = "lo";
    std::ostringstream a;
    obs::writeRunReport(a, meta, stats, nullptr, 16, nullptr, nullptr,
                        nullptr, &armed);
    const util::Json aj = parsed(a.str());
    const util::Json &asrv = aj.at("server");
    EXPECT_EQ(asrv.at("slo").at("ticks").uintOr(0), 20000u);
    EXPECT_EQ(asrv.at("slo").at("met").uintOr(0), 8u);
    EXPECT_EQ(asrv.at("retries").at("policy").stringOr(""), "budgeted");
    EXPECT_EQ(asrv.at("retries").at("attempts").uintOr(0), 3u);
    EXPECT_EQ(asrv.at("retries").at("budgetDenied").uintOr(0), 1u);
    ASSERT_TRUE(asrv.at("tenants").isArr());
    ASSERT_EQ(asrv.at("tenants").arr.size(), 2u);
    EXPECT_EQ(asrv.at("tenants").arr[0].at("name").stringOr(""), "hi");
    EXPECT_EQ(asrv.at("tenants").arr[1].at("name").stringOr(""), "lo");
}
