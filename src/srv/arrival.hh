/**
 * @file
 * Open-loop request generation: seeded arrival processes and
 * service-time distributions.
 *
 * Everything here is host-side and pure: a RequestSchedule is fully
 * materialized from (spec, seed) before the simulation starts, so the
 * per-request tables are immutable during the run. That keeps the
 * open-loop server deterministic at a fixed seed and free of
 * coordinated omission — request latency is always measured from the
 * *scheduled* arrival tick, never from when a dispatcher happened to
 * get around to it.
 */

#ifndef MISAR_SRV_ARRIVAL_HH
#define MISAR_SRV_ARRIVAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace misar {
namespace srv {

/** How requests arrive over simulated time. */
enum class ArrivalMode
{
    Poisson, ///< memoryless arrivals at a fixed mean rate
    Burst,   ///< 2-state MMPP: alternating high/low-rate phases
    Closed,  ///< no arrivals: each worker seeds its own deque once
};

/** Per-request service-time distribution. */
enum class ServiceDist
{
    Fixed,  ///< every request costs exactly the mean
    Exp,    ///< exponential around the mean
    Pareto, ///< heavy tail (alpha = 2), clamped at 50x the mean
};

/** Parse a CLI/spec name ("fixed", "exp", "pareto"). */
bool parseServiceDist(const std::string &name, ServiceDist &out);

const char *serviceDistName(ServiceDist d);

/** Comma-joined list of valid names, for error messages. */
std::string serviceDistNames();

/**
 * Parse a "HI:LO" tenant mix (two positive finite decimal rates in
 * requests per kilotick, separated by exactly one ':'). Shared by the
 * misar_sim CLI, campaign specs, and the in-process engine so every
 * layer accepts exactly the same strings.
 */
bool parseTenantMix(const std::string &text, double &hi, double &lo);

/** Immutable per-request tables, generated before the run. */
struct RequestSchedule
{
    /** Scheduled arrival tick of request i (nondecreasing). */
    std::vector<Tick> arrival;
    /** Service cost of request i in compute cycles (>= 1). */
    std::vector<Tick> service;
    /**
     * Tenant of request i (0 = high priority, 1 = low priority).
     * Empty for single-tenant schedules — every consumer treats an
     * empty table as "all tenant 0".
     */
    std::vector<std::uint8_t> tenant;
};

/**
 * Generate @p requests arrivals at @p rate requests per kilotick.
 *
 * Poisson draws i.i.d. exponential gaps. Burst is a 2-state MMPP
 * (rate x1.8 in the high phase, x0.2 in the low phase, exponential
 * dwell of mean @p burst_dwell ticks per phase) realized by thinning a
 * high-rate Poisson stream, so its long-run mean rate is still @p
 * rate. Closed mode yields an all-zero arrival table.
 */
RequestSchedule makeSchedule(ArrivalMode mode, double rate,
                             ServiceDist dist, Tick service_mean,
                             unsigned requests, Tick burst_dwell,
                             std::uint64_t seed);

/**
 * Two-tenant schedule: the high-priority stream (tenant 0) always
 * arrives Poisson at @p hi_rate; the low-priority stream (tenant 1)
 * arrives at @p lo_rate using @p mode — Burst makes only the low
 * tenant bursty, which is the brownout experiment's shape (steady
 * interactive traffic plus a bursty batch tenant). The two streams
 * are drawn from independent seed-derived RNGs and merged by arrival
 * tick (ties: high priority first); request counts split
 * proportionally to the rates. Service times are drawn from the same
 * independent stream as single-tenant schedules, in merged order.
 */
RequestSchedule makeTenantSchedule(ArrivalMode mode, double hi_rate,
                                   double lo_rate, ServiceDist dist,
                                   Tick service_mean, unsigned requests,
                                   Tick burst_dwell, std::uint64_t seed);

} // namespace srv
} // namespace misar

#endif // MISAR_SRV_ARRIVAL_HH
