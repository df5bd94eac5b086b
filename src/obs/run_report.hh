/**
 * @file
 * Machine-readable run report.
 *
 * One JSON document per simulation run: run metadata (configuration,
 * seed, termination reason), a resilience summary (every fault,
 * recovery and degradation count, so faulted runs diff cleanly), the
 * full StatRegistry, and the sync-variable contention profile when
 * the profiler ran. Schema documented in docs/OBSERVABILITY.md.
 */

#ifndef MISAR_OBS_RUN_REPORT_HH
#define MISAR_OBS_RUN_REPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"
#include "srv/server_stats.hh"

namespace misar {

class EventQueue;

namespace sys {
class System;
} // namespace sys

namespace util {
struct Json;
} // namespace util

namespace obs {

class SyncProfiler;
class StatSampler;
class ResourceMonitor;

/**
 * Report schema version ("schemaVersion" in the JSON).
 *
 * v4 (this version) is a strict superset of v3, which was a strict
 * superset of v2 and v1: every earlier field is still present with
 * the same type and meaning. New in v2: the "latency" block
 * (log-bucketed run-level sync-wait histogram, see obs/histogram.hh)
 * whenever the profiler ran, and the "heatmap" resource-pressure
 * summary when the monitor ran. New in v3: the "server" block
 * (request accounting, throughput, p50/p99/p999 request latency, and
 * the saturation-knee flag) when the run was an open- or closed-loop
 * server workload. New in v4, inside "server": "rejectedSlo" and
 * "goodput" always, plus the "slo" block (ticks, met) when an SLO was
 * set, the "retries" block (policy, attempts, budgetDenied) when a
 * retry policy was armed, and the "tenants" array (per-tenant
 * accounting + latency) for two-tenant runs.
 */
constexpr unsigned runReportSchemaVersion = 4;

/** Run metadata block of the report. */
struct RunMeta
{
    std::string app;    ///< workload name ("" outside app harnesses)
    std::string preset; ///< harness configuration name (CLI/preset)
    std::string accel;  ///< SystemConfig::accelName()
    std::string flavor; ///< sync library flavor name
    unsigned cores = 0;
    unsigned smtWays = 1;
    unsigned msaEntries = 0;
    unsigned omuCounters = 0;
    bool omuEnabled = true;
    bool hwSyncBitOpt = true;
    std::uint64_t seed = 0;
    /** runDetailed outcome: Finished | Deadlock | LimitReached. */
    std::string outcome;
    Tick makespan = 0;
    double hwCoverage = 0.0;
};

/**
 * The run report's "resilience" block: a run's fault, recovery and
 * degradation counts as (key, value) pairs in report order. All zero
 * on a fault-free run.
 */
struct ResilienceSummary
{
    std::vector<std::pair<const char *, std::uint64_t>> values;

    /** Value of @p key; 0 when the summary lacks it. */
    std::uint64_t operator[](const std::string &key) const;
};

/** Derive the "resilience" block from a run's registry (reads
 *  without registering any counter). */
ResilienceSummary resilienceSummary(const StatRegistry &stats);

/** Read back a parsed report's "resilience" block; a key the report
 *  lacks reads 0. */
ResilienceSummary parseResilience(const util::Json &block);

/**
 * Write the JSON run report. @p prof adds the "syncVars" top-N array
 * (pass the profiler's top-N as @p top_n); null omits the section.
 * @p sampler embeds the time-series row count + interval (the rows
 * themselves go to CSV, not the report). @p eq adds an "eventQueue"
 * block with the kernel's host-side allocation counters (event-pool
 * stats live here and not in the StatRegistry so the registry stays
 * comparable across kernel implementations). @p monitor embeds the
 * "heatmap" resource-pressure summary (the full matrix goes to
 * heatmap.json, not the report). @p server adds the "server" block
 * of an open-/closed-loop server run (request accounting, throughput,
 * tail latency, saturation-knee flag).
 */
void writeRunReport(std::ostream &os, const RunMeta &meta,
                    const StatRegistry &stats,
                    const SyncProfiler *prof = nullptr,
                    std::size_t top_n = 16,
                    const StatSampler *sampler = nullptr,
                    const EventQueue *eq = nullptr,
                    const ResourceMonitor *monitor = nullptr,
                    const srv::ServerStats *server = nullptr);

/**
 * Write @p body (a report's text) to @p path durably: the bytes are
 * fully written and fsync'd before returning, so the file survives
 * an immediately following abort()/_exit(). Campaign workers rely on
 * this — a job that panics right after (or during, via
 * CrashReportGuard) still leaves an ingestible report. Returns false
 * (with a warning) on I/O errors.
 */
bool writeFileDurable(const std::string &path, const std::string &body);

/**
 * Arms the logging termination hook so that, if panic()/fatal()
 * fires while a run is in flight, the JSON run report is still
 * written (durably) with "outcome" set to "panic" or "fatal" and
 * the makespan observed at the moment of death. Construct after the
 * System (with the pre-run metadata) and disarm() once the normal
 * report has been written. Only one guard can be armed at a time —
 * the hook is process-global, like the termination it intercepts.
 */
class CrashReportGuard
{
  public:
    CrashReportGuard(std::string path, sys::System &system, RunMeta meta,
                     std::size_t top_n);
    ~CrashReportGuard() { disarm(); }

    CrashReportGuard(const CrashReportGuard &) = delete;
    CrashReportGuard &operator=(const CrashReportGuard &) = delete;

    /** Normal completion: the real report was written; stand down. */
    void disarm();

  private:
    bool armed = false;
};

} // namespace obs
} // namespace misar

#endif // MISAR_OBS_RUN_REPORT_HH
