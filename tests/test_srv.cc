/**
 * @file
 * Server subsystem tests: arrival-schedule generation, service
 * distributions, end-to-end request accounting, determinism across
 * runs and kernel thread counts, fault-run accounting, admission
 * control, the closed-loop taskqueue port, campaign "server" sweep
 * validation, and the misar_sim CLI guards for the server flags.
 */

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "orch/campaign_spec.hh"
#include "srv/arrival.hh"
#include "srv/server_app.hh"
#include "system/presets.hh"
#include "workload/app_catalog.hh"
#include "workload/runner.hh"

using namespace misar;
using srv::ArrivalMode;
using srv::ServiceDist;

namespace {

/** Full-field equality of two runs' server blocks. */
void
expectServerEq(const srv::ServerStats &a, const srv::ServerStats &b)
{
    EXPECT_DOUBLE_EQ(a.offeredRate, b.offeredRate);
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.rejected, b.rejected);
    EXPECT_EQ(a.stranded, b.stranded);
    EXPECT_EQ(a.steals, b.steals);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.knee, b.knee);
    EXPECT_TRUE(a.latency == b.latency);
    EXPECT_EQ(a.rejectedSlo, b.rejectedSlo);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.retryBudgetDenied, b.retryBudgetDenied);
    EXPECT_EQ(a.sloMet, b.sloMet);
    EXPECT_EQ(a.sloTicks, b.sloTicks);
    EXPECT_EQ(a.retryPolicy, b.retryPolicy);
    EXPECT_DOUBLE_EQ(a.goodput, b.goodput);
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        const srv::TenantStats &ta = a.tenants[i], &tb = b.tenants[i];
        EXPECT_EQ(ta.name, tb.name);
        EXPECT_DOUBLE_EQ(ta.offeredRate, tb.offeredRate);
        EXPECT_EQ(ta.generated, tb.generated);
        EXPECT_EQ(ta.completed, tb.completed);
        EXPECT_EQ(ta.rejected, tb.rejected);
        EXPECT_EQ(ta.rejectedSlo, tb.rejectedSlo);
        EXPECT_EQ(ta.stranded, tb.stranded);
        EXPECT_EQ(ta.sloMet, tb.sloMet);
        EXPECT_DOUBLE_EQ(ta.goodput, tb.goodput);
        EXPECT_TRUE(ta.latency == tb.latency);
    }
}

/** The final-disposition conservation invariant. */
void
expectConserved(const srv::ServerStats &s)
{
    EXPECT_EQ(s.generated,
              s.completed + s.rejected + s.rejectedSlo + s.stranded);
}

} // namespace

// --- Arrival schedules ----------------------------------------------------

TEST(Arrival, ScheduleIsDeterministicAndMonotone)
{
    for (ArrivalMode m : {ArrivalMode::Poisson, ArrivalMode::Burst}) {
        srv::RequestSchedule a = srv::makeSchedule(
            m, 2.0, ServiceDist::Exp, 300, 500, 20000, 7);
        srv::RequestSchedule b = srv::makeSchedule(
            m, 2.0, ServiceDist::Exp, 300, 500, 20000, 7);
        EXPECT_EQ(a.arrival, b.arrival);
        EXPECT_EQ(a.service, b.service);

        ASSERT_EQ(a.arrival.size(), 500u);
        for (std::size_t i = 1; i < a.arrival.size(); ++i)
            ASSERT_GE(a.arrival[i], a.arrival[i - 1]) << i;
        for (Tick s : a.service)
            ASSERT_GE(s, 1u);

        srv::RequestSchedule c = srv::makeSchedule(
            m, 2.0, ServiceDist::Exp, 300, 500, 20000, 8);
        EXPECT_NE(a.arrival, c.arrival);
    }

    // Closed mode has no arrival instants.
    srv::RequestSchedule cl = srv::makeSchedule(
        ArrivalMode::Closed, 0.0, ServiceDist::Exp, 300, 64, 20000, 7);
    for (Tick t : cl.arrival)
        EXPECT_EQ(t, 0u);
}

TEST(Arrival, MeanRateRoughlyMatchesOffered)
{
    // 2 req/ktick over 2000 requests: last arrival ~1e6 ticks.
    for (ArrivalMode m : {ArrivalMode::Poisson, ArrivalMode::Burst}) {
        srv::RequestSchedule s = srv::makeSchedule(
            m, 2.0, ServiceDist::Fixed, 300, 2000, 20000, 1);
        const double span = static_cast<double>(s.arrival.back());
        EXPECT_GT(span, 0.7e6) << static_cast<int>(m);
        EXPECT_LT(span, 1.4e6) << static_cast<int>(m);
    }
}

TEST(Arrival, ParseServiceDistNames)
{
    ServiceDist d;
    EXPECT_TRUE(srv::parseServiceDist("fixed", d));
    EXPECT_EQ(d, ServiceDist::Fixed);
    EXPECT_TRUE(srv::parseServiceDist("exp", d));
    EXPECT_EQ(d, ServiceDist::Exp);
    EXPECT_TRUE(srv::parseServiceDist("pareto", d));
    EXPECT_EQ(d, ServiceDist::Pareto);
    EXPECT_FALSE(srv::parseServiceDist("zipf", d));
    EXPECT_FALSE(srv::parseServiceDist("", d));
    // Every advertised name parses back.
    EXPECT_EQ(srv::serviceDistNames(), "fixed, exp, pareto");
}

TEST(Arrival, ServiceDistributionShapes)
{
    srv::RequestSchedule fx = srv::makeSchedule(
        ArrivalMode::Poisson, 2.0, ServiceDist::Fixed, 300, 1000,
        20000, 3);
    for (Tick s : fx.service)
        ASSERT_EQ(s, 300u);

    srv::RequestSchedule ex = srv::makeSchedule(
        ArrivalMode::Poisson, 2.0, ServiceDist::Exp, 300, 4000, 20000,
        3);
    double sum = 0;
    for (Tick s : ex.service)
        sum += static_cast<double>(s);
    const double mean = sum / 4000.0;
    EXPECT_GT(mean, 0.85 * 300);
    EXPECT_LT(mean, 1.15 * 300);

    // Pareto: xm = mean/2, clamped at 50x the mean.
    srv::RequestSchedule pa = srv::makeSchedule(
        ArrivalMode::Poisson, 2.0, ServiceDist::Pareto, 300, 4000,
        20000, 3);
    Tick mx = 0;
    for (Tick s : pa.service) {
        ASSERT_GE(s, 150u);
        ASSERT_LE(s, 300u * 50);
        mx = std::max(mx, s);
    }
    EXPECT_GT(mx, 1000u) << "heavy tail never materialized";
}

TEST(Arrival, ParseRetryPolicyNames)
{
    srv::RetryPolicy p;
    EXPECT_TRUE(srv::parseRetryPolicy("none", p));
    EXPECT_EQ(p, srv::RetryPolicy::None);
    EXPECT_TRUE(srv::parseRetryPolicy("naive", p));
    EXPECT_EQ(p, srv::RetryPolicy::Naive);
    EXPECT_TRUE(srv::parseRetryPolicy("budgeted", p));
    EXPECT_EQ(p, srv::RetryPolicy::Budgeted);
    EXPECT_FALSE(srv::parseRetryPolicy("always", p));
    EXPECT_FALSE(srv::parseRetryPolicy("", p));
    // Every advertised name parses back.
    EXPECT_EQ(srv::retryPolicyNames(), "none, naive, budgeted");
}

TEST(Arrival, ParseTenantMixStrict)
{
    double hi = 0, lo = 0;
    EXPECT_TRUE(srv::parseTenantMix("1:3", hi, lo));
    EXPECT_DOUBLE_EQ(hi, 1.0);
    EXPECT_DOUBLE_EQ(lo, 3.0);
    EXPECT_TRUE(srv::parseTenantMix("0.5:1.5", hi, lo));
    EXPECT_DOUBLE_EQ(hi, 0.5);
    EXPECT_DOUBLE_EQ(lo, 1.5);
    for (const char *bad :
         {"", "1", "1:", ":3", "1:3:5", "0:3", "1:0", "-1:3", "1:-3",
          "x:3", "1:y", "1x:3", "inf:3", "nan:3", "1 :3"})
        EXPECT_FALSE(srv::parseTenantMix(bad, hi, lo)) << bad;
}

TEST(Arrival, TenantScheduleSplitsAndMerges)
{
    srv::RequestSchedule a = srv::makeTenantSchedule(
        ArrivalMode::Burst, 1.0, 3.0, ServiceDist::Exp, 300, 1000,
        20000, 7);
    srv::RequestSchedule b = srv::makeTenantSchedule(
        ArrivalMode::Burst, 1.0, 3.0, ServiceDist::Exp, 300, 1000,
        20000, 7);
    EXPECT_EQ(a.arrival, b.arrival);
    EXPECT_EQ(a.service, b.service);
    EXPECT_EQ(a.tenant, b.tenant);

    ASSERT_EQ(a.arrival.size(), 1000u);
    ASSERT_EQ(a.tenant.size(), 1000u);
    for (std::size_t i = 1; i < a.arrival.size(); ++i)
        ASSERT_GE(a.arrival[i], a.arrival[i - 1]) << i;

    // Counts split proportionally to the rates (1:3 of 1000).
    unsigned hi = 0;
    for (std::uint8_t t : a.tenant) {
        ASSERT_LE(t, 1u);
        hi += t == 0;
    }
    EXPECT_EQ(hi, 250u);

    // Both tenants present and a different seed moves the arrivals.
    srv::RequestSchedule c = srv::makeTenantSchedule(
        ArrivalMode::Burst, 1.0, 3.0, ServiceDist::Exp, 300, 1000,
        20000, 8);
    EXPECT_NE(a.arrival, c.arrival);

    // Single-tenant schedules keep the tenant table empty (inert).
    srv::RequestSchedule s = srv::makeSchedule(
        ArrivalMode::Poisson, 2.0, ServiceDist::Exp, 300, 500, 20000,
        7);
    EXPECT_TRUE(s.tenant.empty());
}

// --- End-to-end runs ------------------------------------------------------

TEST(ServerRun, AccountingInvariantHolds)
{
    const workload::AppSpec &spec = workload::appByName("server-poisson");
    workload::RunResult r =
        workload::runApp(spec, 16, sys::PaperConfig::MsaOmu2, 7);
    ASSERT_TRUE(r.finished);
    ASSERT_TRUE(r.hasServer);
    const srv::ServerStats &s = r.server;
    EXPECT_EQ(s.generated, spec.server.requests);
    expectConserved(s);
    EXPECT_EQ(s.stranded, 0u) << "requests lost without any fault";
    EXPECT_EQ(s.latency.count(), s.completed);
    EXPECT_GT(s.throughput, 0.0);
}

TEST(ServerRun, OverloadShedsAtTheAdmissionBound)
{
    workload::AppSpec spec = workload::appByName("server-poisson");
    spec.server.arrivalRate = 20.0; // far past the knee
    spec.server.queueCap = 4;
    spec.server.requests = 600;
    workload::RunResult r =
        workload::runApp(spec, 16, sys::PaperConfig::MsaOmu2, 7);
    ASSERT_TRUE(r.finished);
    const srv::ServerStats &s = r.server;
    EXPECT_GT(s.rejected, 0u);
    EXPECT_TRUE(s.knee);
    expectConserved(s);
}

TEST(ServerRun, TwoRunsAtFixedSeedAreBitIdentical)
{
    const workload::AppSpec &spec = workload::appByName("server-burst");
    workload::RunResult a =
        workload::runApp(spec, 16, sys::PaperConfig::MsaOmu2, 5);
    workload::RunResult b =
        workload::runApp(spec, 16, sys::PaperConfig::MsaOmu2, 5);
    ASSERT_TRUE(a.finished && b.finished);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.hwOps, b.hwOps);
    EXPECT_EQ(a.swOps, b.swOps);
    expectServerEq(a.server, b.server);
}

TEST(ServerRun, StatsIdenticalAcrossKernelThreadCounts)
{
    const workload::AppSpec &spec = workload::appByName("server-poisson");
    sync::SyncLib::Flavor fl = sys::flavorFor(sys::PaperConfig::MsaOmu2);
    workload::RunResult runs[2];
    for (unsigned i = 0; i < 2; ++i) {
        SystemConfig cfg = sys::configFor(sys::PaperConfig::MsaOmu2, 16);
        cfg.simThreads = i + 1;
        workload::RunResult r =
            workload::runAppWithConfig(spec, cfg, fl, 7);
        ASSERT_TRUE(r.finished) << "threads=" << i + 1;
        runs[i] = std::move(r);
    }
    EXPECT_EQ(runs[0].makespan, runs[1].makespan);
    EXPECT_EQ(runs[0].hwOps, runs[1].hwOps);
    EXPECT_EQ(runs[0].swOps, runs[1].swOps);
    expectServerEq(runs[0].server, runs[1].server);
}

TEST(ServerRun, CoreFaultsNeverLoseRequests)
{
    // A core dies mid-run: its in-flight request may be stranded, but
    // every generated request is still accounted for — completed,
    // rejected, or stranded, never silently lost.
    const workload::AppSpec &spec = workload::appByName("server-poisson");
    workload::RunResult r = workload::runApp(
        spec, 16, sys::PaperConfig::MsaOmu2CoreFaults, 7);
    ASSERT_TRUE(r.finished);
    EXPECT_GT(r.resilience["coreKills"], 0u)
        << "fault preset did not kill a core";
    const srv::ServerStats &s = r.server;
    EXPECT_EQ(s.generated, spec.server.requests);
    expectConserved(s);
}

TEST(ServerRun, CoreFaultRunsAreDeterministicToo)
{
    const workload::AppSpec &spec = workload::appByName("server-poisson");
    workload::RunResult a = workload::runApp(
        spec, 16, sys::PaperConfig::MsaOmu2CoreFaults, 9);
    workload::RunResult b = workload::runApp(
        spec, 16, sys::PaperConfig::MsaOmu2CoreFaults, 9);
    ASSERT_TRUE(a.finished && b.finished);
    EXPECT_EQ(a.makespan, b.makespan);
    expectServerEq(a.server, b.server);
}

TEST(ServerRun, ClosedLoopTaskqueueCompletesEverything)
{
    const workload::AppSpec &spec = workload::appByName("taskqueue");
    workload::RunResult r =
        workload::runApp(spec, 16, sys::PaperConfig::MsaOmu2, 1);
    ASSERT_TRUE(r.finished);
    ASSERT_TRUE(r.hasServer);
    const srv::ServerStats &s = r.server;
    EXPECT_EQ(s.completed, 16u * spec.server.tasksPerWorker);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(s.stranded, 0u);
    EXPECT_TRUE(s.latency.empty()) << "closed loop has no arrivals";
    EXPECT_FALSE(s.knee);
}

TEST(ServerRun, ObservabilityIsInert)
{
    // Profiling/sampling must not perturb the simulation: identical
    // makespan and server accounting with obs fully on and fully off.
    const workload::AppSpec &spec = workload::appByName("server-poisson");
    sync::SyncLib::Flavor fl = sys::flavorFor(sys::PaperConfig::MsaOmu2);
    SystemConfig on = sys::configFor(sys::PaperConfig::MsaOmu2, 16);
    on.obs.profileSync = true;
    on.obs.sampleInterval = 5000;
    on.obs.heatmapEnabled = true;
    SystemConfig off = sys::configFor(sys::PaperConfig::MsaOmu2, 16);
    workload::RunResult a = workload::runAppWithConfig(spec, on, fl, 3);
    workload::RunResult b = workload::runAppWithConfig(spec, off, fl, 3);
    ASSERT_TRUE(a.finished && b.finished);
    EXPECT_EQ(a.makespan, b.makespan);
    expectServerEq(a.server, b.server);
}

// --- Campaign "server" sweep validation -----------------------------------

namespace {

std::string
specJson(const std::string &apps, const std::string &server)
{
    return R"({"name":"t","presets":["msa-omu"],"apps":)" + apps +
           R"(,"cores":[16],"seeds":[1])" +
           (server.empty() ? "" : ",\"server\":" + server) + "}";
}

} // namespace

TEST(ServerSweep, UnknownServerKeyIsRejected)
{
    orch::CampaignSpec s;
    std::string err;
    EXPECT_FALSE(orch::CampaignSpec::parse(
        specJson(R"(["server-poisson"])", R"({"arrivalRate":[2]})"), s,
        err));
    EXPECT_NE(err.find("unknown \"server\" key 'arrivalRate'"),
              std::string::npos)
        << err;
}

TEST(ServerSweep, NonServerAppInSweepIsRejected)
{
    orch::CampaignSpec s;
    std::string err;
    ASSERT_TRUE(orch::CampaignSpec::parse(
        specJson(R"(["fft"])", R"({"arrivalRates":[2]})"), s, err))
        << err;
    EXPECT_NE(s.validate().find("non-server app"), std::string::npos);
}

TEST(ServerSweep, RatesOnClosedLoopAppAreRejected)
{
    orch::CampaignSpec s;
    std::string err;
    ASSERT_TRUE(orch::CampaignSpec::parse(
        specJson(R"(["taskqueue"])", R"({"arrivalRates":[2]})"), s,
        err))
        << err;
    EXPECT_NE(s.validate().find("closed-loop"), std::string::npos);
}

TEST(ServerSweep, BadServiceDistIsRejected)
{
    orch::CampaignSpec s;
    std::string err;
    ASSERT_TRUE(orch::CampaignSpec::parse(
        specJson(R"(["server-poisson"])",
                 R"({"arrivalRates":[2],"serviceDist":"zipf"})"),
        s, err))
        << err;
    EXPECT_NE(s.validate().find("unknown server.serviceDist"),
              std::string::npos);
}

TEST(ServerSweep, RateAxisExpandsBetweenCoresAndSeeds)
{
    orch::CampaignSpec s;
    std::string err;
    ASSERT_TRUE(orch::CampaignSpec::parse(
        specJson(R"(["server-poisson"])", R"({"arrivalRates":[2,4]})"),
        s, err))
        << err;
    ASSERT_EQ(s.validate(), "");
    std::vector<orch::JobSpec> jobs = s.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].key(), "msa-omu|server-poisson|c16|s1|r0|a2");
    EXPECT_EQ(jobs[1].key(), "msa-omu|server-poisson|c16|s1|r0|a4");
    // Without a sweep the historical key shape is untouched.
    orch::CampaignSpec plain;
    ASSERT_TRUE(orch::CampaignSpec::parse(
        specJson(R"(["server-poisson"])", ""), plain, err));
    ASSERT_EQ(plain.validate(), "");
    EXPECT_EQ(plain.expand()[0].key(),
              "msa-omu|server-poisson|c16|s1|r0");
}

TEST(ServerSweep, OverloadKnobsAreValidated)
{
    struct Case
    {
        const char *server;
        const char *needle;
    };
    const Case cases[] = {
        {R"({"arrivalRates":[2],"slo":0})",
         "\"server.slo\" must be a positive tick count"},
        {R"({"arrivalRates":[2],"retryPolicies":["always"]})",
         "unknown server.retryPolicies entry 'always'"},
        {R"({"arrivalRates":[2],"retryPolicies":[]})",
         "\"server.retryPolicies\" must be a non-empty"},
        {R"({"arrivalRates":[2],"retryBudget":0.1})",
         "server.retryBudget needs \"budgeted\""},
        {R"({"arrivalRates":[2],"retryPolicies":["naive"],)"
         R"("retryBudget":0.1})",
         "server.retryBudget needs \"budgeted\""},
        {R"({"arrivalRates":[2],"retryBudget":-0.1})",
         "\"server.retryBudget\" must be a positive"},
        {R"({"tenantMixes":["1:3:5"]})",
         "bad server.tenantMixes entry '1:3:5'"},
        {R"({"tenantMixes":["1:3"],"arrivalRates":[2]})",
         "mutually exclusive"},
        {R"({"slo":20000,"budget":0.1})",
         "unknown \"server\" key 'budget'"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.server);
        orch::CampaignSpec s;
        std::string err;
        EXPECT_FALSE(orch::CampaignSpec::parse(
            specJson(R"(["server-poisson"])", c.server), s, err));
        EXPECT_NE(err.find(c.needle), std::string::npos) << err;
    }
}

TEST(ServerSweep, OverloadAxesOnClosedLoopAppAreRejected)
{
    for (const char *server :
         {R"({"slo":20000})", R"({"retryPolicies":["naive"]})",
          R"({"tenantMixes":["1:3"]})"}) {
        SCOPED_TRACE(server);
        orch::CampaignSpec s;
        std::string err;
        ASSERT_TRUE(orch::CampaignSpec::parse(
            specJson(R"(["taskqueue"])", server), s, err))
            << err;
        EXPECT_NE(s.validate().find("closed-loop"), std::string::npos);
    }
}

TEST(ServerSweep, PolicyAndMixAxesExpandIntoJobKeys)
{
    orch::CampaignSpec s;
    std::string err;
    ASSERT_TRUE(orch::CampaignSpec::parse(
        specJson(R"(["server-poisson"])",
                 R"({"arrivalRates":[2],"slo":20000,)"
                 R"("retryPolicies":["none","budgeted"],)"
                 R"("retryBudget":0.1})"),
        s, err))
        << err;
    ASSERT_EQ(s.validate(), "");
    std::vector<orch::JobSpec> jobs = s.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].key(),
              "msa-omu|server-poisson|c16|s1|r0|a2|pnone");
    EXPECT_EQ(jobs[1].key(),
              "msa-omu|server-poisson|c16|s1|r0|a2|pbudgeted");

    orch::CampaignSpec m;
    ASSERT_TRUE(orch::CampaignSpec::parse(
        specJson(R"(["server-burst"])",
                 R"({"slo":30000,"tenantMixes":["1:3"]})"),
        m, err))
        << err;
    ASSERT_EQ(m.validate(), "");
    std::vector<orch::JobSpec> mjobs = m.expand();
    ASSERT_EQ(mjobs.size(), 1u);
    EXPECT_EQ(mjobs[0].key(), "msa-omu|server-burst|c16|s1|r0|t1:3");
}

// --- misar_sim CLI guards -------------------------------------------------

namespace {

/** Run the real simulator binary; return its exit code + output. */
int
runSim(const std::string &args, std::string &output)
{
    const std::string cmd =
        std::string(MISAR_SIM_PATH) + " " + args + " 2>&1";
    FILE *p = ::popen(cmd.c_str(), "r");
    EXPECT_NE(p, nullptr);
    if (!p)
        return -1;
    char buf[512];
    output.clear();
    while (std::fgets(buf, sizeof(buf), p))
        output += buf;
    int st = ::pclose(p);
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

} // namespace

TEST(ServerCli, BadServerFlagsAreRejected)
{
    struct Case
    {
        const char *args;
        const char *needle;
    };
    const Case cases[] = {
        {"--app server-poisson --arrival-rate 0",
         "--arrival-rate expects a positive number"},
        {"--app server-poisson --arrival-rate -2",
         "--arrival-rate expects a positive number"},
        {"--app server-poisson --arrival-rate junk",
         "--arrival-rate expects a positive number"},
        {"--app server-poisson --arrival-rate 2x",
         "--arrival-rate expects a positive number"},
        {"--app server-poisson --arrival-rate inf",
         "--arrival-rate expects a positive number"},
        {"--app server-poisson --service-dist zipf",
         "unknown --service-dist 'zipf'"},
        {"--app fft --arrival-rate 2",
         "only apply to server workloads"},
        {"--app fft --queue-cap 8", "only apply to server workloads"},
        {"--app taskqueue --arrival-rate 2",
         "does not apply to the closed-loop"},
        {"--app server-poisson --slo 0",
         "--slo expects a positive"},
        {"--app server-poisson --slo -5",
         "--slo expects a positive"},
        {"--app server-poisson --retry-policy always",
         "unknown --retry-policy 'always'"},
        {"--app server-poisson --retry-budget 0.1",
         "--retry-budget only applies with --retry-policy budgeted"},
        {"--app server-poisson --retry-policy naive "
         "--retry-budget 0.1",
         "--retry-budget only applies with --retry-policy budgeted"},
        {"--app server-poisson --retry-budget 0",
         "--retry-budget expects a positive"},
        {"--app server-poisson --tenants 1:3:5",
         "--tenants expects HI:LO"},
        {"--app server-poisson --tenants 0:3",
         "--tenants expects HI:LO"},
        {"--app server-poisson --arrival-rate 2 --tenants 1:3",
         "sums to 4, not the --arrival-rate 2"},
        {"--app fft --slo 20000", "only apply to server workloads"},
        {"--app taskqueue --slo 20000",
         "do not apply to the closed-loop"},
        {"--app taskqueue --retry-policy naive",
         "do not apply to the closed-loop"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.args);
        std::string out;
        EXPECT_EQ(runSim(c.args, out), 1) << out;
        EXPECT_NE(out.find(c.needle), std::string::npos) << out;
    }
}

TEST(ServerCli, ServerRunPrintsRequestAccounting)
{
    std::string out;
    const int rc = runSim(
        "--app server-poisson --cores 16 --config msa-omu "
        "--arrival-rate 4 --service-dist fixed --queue-cap 16",
        out);
    EXPECT_EQ(rc, 0) << out;
    EXPECT_NE(out.find("requests"), std::string::npos) << out;
    EXPECT_NE(out.find("req latency"), std::string::npos) << out;
}
