/**
 * @file
 * Overload robustness study of the open-loop task server: what
 * happens past the saturation knee under three client retry policies,
 * and whether strict-priority brownout keeps a high-priority tenant
 * inside its SLO while a low-priority burst overruns the system.
 *
 * Part 1 — retry storms. An offered-load sweep on MSA/OMU with
 * SLO-aware admission, one column per --retry-policy. The claims
 * under test are the classic metastability results:
 *
 *   - naive retries (unbounded, exponential backoff only) amplify
 *     offered load past the knee, so goodput COLLAPSES below the
 *     no-retry baseline exactly where retries were supposed to help;
 *   - budgeted retries (token bucket refilled by a fraction of
 *     successes) keep goodput within 10% of the no-retry baseline at
 *     every rate, because the budget caps the amplification.
 *
 * Part 2 — multi-tenant brownout. A bursty low-priority stream plus a
 * steady high-priority stream over the same queues. With brownout
 * (lo tenant admitted only up to half the SLO's predicted wait) the
 * hi tenant's p99 must hold its SLO through the lo burst; the
 * brownout=1.0 contrast column shows what the hi tenant suffers when
 * admission stops prioritizing.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/repro.hh"
#include "sim/logging.hh"
#include "workload/app_catalog.hh"
#include "workload/runner.hh"

using namespace misar;

namespace {

constexpr unsigned cores = 16;

srv::ServerStats
runServer(const workload::AppSpec &spec, const char *label)
{
    workload::RunResult r = workload::runAppWithConfig(
        spec, makeConfig(cores, AccelMode::MsaOmu, 16),
        sync::SyncLib::Flavor::Hw, /*seed=*/1, label);
    if (!r.finished)
        fatal("%s did not finish", label);
    return r.server;
}

} // namespace

int
bench::serverOverload()
{
    banner("Server overload robustness",
           "retry storms vs. budgets + multi-tenant brownout");

    bool pass = true;

    // ---- Part 1: retry storms past the knee ------------------------

    // 6 req/ktick is ~2.4x the saturated service rate — deep
    // overload, yet shy of the regime where the budget's burst
    // tokens themselves displace SLO-meeting work.
    const std::vector<double> rates = {2, 4, 6};
    constexpr srv::RetryPolicy policies[] = {
        srv::RetryPolicy::None,
        srv::RetryPolicy::Naive,
        srv::RetryPolicy::Budgeted,
    };

    workload::AppSpec base = workload::appByName("server-poisson");
    base.server.requests = 1500;
    base.server.queueCap = 256;
    base.server.sloTicks = 20000;

    std::printf("retry policies at SLO %llu ticks, queueCap %llu:\n\n",
                static_cast<unsigned long long>(base.server.sloTicks),
                static_cast<unsigned long long>(base.server.queueCap));
    std::printf("%-10s %7s %9s %9s %8s %8s %8s %8s\n", "Policy",
                "Offered", "Achieved", "Goodput", "p99", "SloRej",
                "Retries", "Knee");

    // goodput[policy][rate]; knee flags from the no-retry baseline.
    std::vector<std::vector<double>> goodput(std::size(policies));
    std::vector<bool> none_knee;

    for (std::size_t pi = 0; pi < std::size(policies); ++pi) {
        for (double rate : rates) {
            workload::AppSpec spec = base;
            spec.server.arrivalRate = rate;
            spec.server.retryPolicy = policies[pi];
            std::string label = std::string("overload-") +
                                srv::retryPolicyName(policies[pi]);
            srv::ServerStats s = runServer(spec, label.c_str());
            std::printf(
                "%-10s %7g %9.4f %9.4f %8llu %8llu %8llu %8s\n",
                srv::retryPolicyName(policies[pi]), rate, s.throughput,
                s.goodput,
                static_cast<unsigned long long>(s.latency.p99()),
                static_cast<unsigned long long>(s.rejectedSlo),
                static_cast<unsigned long long>(s.retries),
                s.knee ? "yes" : "no");
            goodput[pi].push_back(s.goodput);
            if (pi == 0)
                none_knee.push_back(s.knee);
        }
        std::printf("\n");
    }

    // Gate 1: past the knee, naive retries make goodput WORSE than
    // not retrying at all (the retry storm).
    bool storm_seen = false;
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
        if (!none_knee[ri])
            continue;
        storm_seen = true;
        if (goodput[1][ri] >= goodput[0][ri]) {
            pass = false;
            std::printf("FAIL: naive goodput %.4f >= none %.4f at "
                        "post-knee rate %g\n",
                        goodput[1][ri], goodput[0][ri], rates[ri]);
        }
    }
    if (!storm_seen) {
        pass = false;
        std::printf("FAIL: no swept rate crossed the knee; sweep "
                    "cannot exhibit a retry storm\n");
    }

    // Gate 2: budgeted retries stay within 10% of the no-retry
    // baseline at EVERY rate (graceful degradation, no storm).
    for (std::size_t ri = 0; ri < rates.size(); ++ri) {
        if (goodput[2][ri] < 0.9 * goodput[0][ri]) {
            pass = false;
            std::printf("FAIL: budgeted goodput %.4f < 90%% of none "
                        "%.4f at rate %g\n",
                        goodput[2][ri], goodput[0][ri], rates[ri]);
        }
    }

    // ---- Part 2: multi-tenant brownout through a lo burst ----------

    workload::AppSpec burst = workload::appByName("server-burst");
    burst.server.requests = 1500;
    burst.server.queueCap = 256;
    burst.server.sloTicks = 30000;
    burst.server.tenantHiRate = 1.0; // steady Poisson
    burst.server.tenantLoRate = 3.0; // bursty (MMPP), 3x the hi rate
    burst.server.arrivalRate =
        burst.server.tenantHiRate + burst.server.tenantLoRate;

    std::printf("tenants hi %.1f + lo %.1f req/ktick, SLO %llu:\n\n",
                burst.server.tenantHiRate, burst.server.tenantLoRate,
                static_cast<unsigned long long>(burst.server.sloTicks));
    std::printf("%-9s %-7s %9s %8s %8s %8s\n", "Brownout", "Tenant",
                "Goodput", "p99", "Done", "Shed");

    std::uint64_t hi_p99_brownout = 0;
    for (double ratio : {0.5, 1.0}) {
        workload::AppSpec spec = burst;
        spec.server.brownoutRatio = ratio;
        srv::ServerStats s = runServer(spec, "overload-tenants");
        if (s.tenants.size() != 2)
            fatal("expected 2 tenant rows, got %zu", s.tenants.size());
        for (const srv::TenantStats &t : s.tenants) {
            std::printf(
                "%-9g %-7s %9.4f %8llu %8llu %8llu\n", ratio,
                t.name.c_str(), t.goodput,
                static_cast<unsigned long long>(t.latency.p99()),
                static_cast<unsigned long long>(t.completed),
                static_cast<unsigned long long>(t.rejected +
                                                t.rejectedSlo));
        }
        if (ratio == 0.5)
            hi_p99_brownout = s.tenants[0].latency.p99();
        std::printf("\n");
    }

    // Gate 3: with brownout, the hi tenant's p99 holds its SLO even
    // while the lo burst is being shed.
    if (hi_p99_brownout > burst.server.sloTicks) {
        pass = false;
        std::printf("FAIL: hi-tenant p99 %llu > SLO %llu under "
                    "brownout\n",
                    static_cast<unsigned long long>(hi_p99_brownout),
                    static_cast<unsigned long long>(
                        burst.server.sloTicks));
    }

    std::printf("overload robustness (storm + budget + brownout): %s\n",
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
