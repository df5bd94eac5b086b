/**
 * @file
 * Campaign aggregation: fold per-job records into per-cell
 * statistics and emit the campaign report (JSON + CSV + text table).
 *
 * A cell is one (preset, app, cores) point of the grid; its jobs
 * differ only in seed/repetition. Per cell the aggregator reports
 * outcome counts and folds each column of one table (aggregate.cc)
 * over the finished jobs: makespan, hardware coverage, every
 * spec-selected counter, sync waits, the pressure, server and tenant
 * blocks, and — when the spec names a baseline preset — the speedup
 * against the baseline job with the same (app, cores, seed, rep).
 *
 * Report output is deliberately deterministic: cells are emitted in
 * grid order, jobs in id order, and numbers with fixed formatting,
 * so two campaigns over the same spec and seeds produce
 * byte-identical reports regardless of worker count, retries, or
 * resume boundaries. Wall-clock and scheduling data stay out of
 * this report (they live in the manifest and the --bench-out file).
 */

#ifndef MISAR_ORCH_AGGREGATE_HH
#define MISAR_ORCH_AGGREGATE_HH

#include <algorithm>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "orch/job.hh"

namespace misar {
namespace util {
struct Json;
} // namespace util

namespace orch {

/** Mean/min/max/CI accumulator. */
struct Agg
{
    unsigned n = 0;
    double sum = 0.0, mn = 0.0, mx = 0.0;
    /** Per-sample values in accumulation (job-id) order, for ci95(). */
    std::vector<double> values;

    void
    add(double v)
    {
        mn = n ? std::min(mn, v) : v;
        mx = n ? std::max(mx, v) : v;
        sum += v;
        ++n;
        values.push_back(v);
    }

    double mean() const { return n ? sum / n : 0.0; }

    /**
     * Half-width of the 95% confidence interval of the mean:
     * t_{0.975,n-1} * s / sqrt(n) with the Student-t critical value
     * (1.96 beyond 30 degrees of freedom). 0 when n < 2.
     */
    double ci95() const;
};

/** How a column folds its cell's finished jobs. */
enum class Fold
{
    Agg,   ///< mean, ci95, min and max of the values
    Hist,  ///< the histograms merged bucket-wise (exact percentiles)
    Count, ///< the jobs whose value is positive
};

/**
 * One per-cell column (the table in aggregate.cc): its block ("" for
 * the top level, "stats", "pressure", "server", "tenants", "hi" or
 * "lo"), its key there, the run-report members summed into a job's
 * value, its decimals and its fold. A job whose report lacks the
 * block contributes nothing; a member missing inside a present block
 * reads 0.
 */
struct Column
{
    std::string block, key;
    std::vector<std::string> members;
    int decimals;
    Fold fold;
};

/**
 * Fill a record from the job's parsed JSON run report @p doc (a null
 * @p doc reads as zeros): its resilience summary and one value per
 * column. Both executors record a job through this one function; the
 * executor's outcome stays authoritative.
 */
void ingestReport(JobRecord &r, const CampaignSpec &spec,
                  const util::Json &doc);

/** One column folded over a cell's finished jobs, in the member its
 *  Fold names. */
struct ColumnFold
{
    Agg agg;
    obs::LogHistogram hist;
    unsigned count = 0;
};

/**
 * One (preset, app, cores) cell's aggregated results. Campaigns with
 * a "server" arrival-rate sweep split cells further by rate, so one
 * (preset, app, cores) pair then owns one cell per offered load.
 */
struct Cell
{
    std::string preset;
    std::string app;
    unsigned cores = 0;
    /** Offered load axis value (0 = no arrival-rate sweep). */
    double arrivalRate = 0.0;
    /** Retry-policy axis value ("" = no retry-policy sweep). */
    std::string retryPolicy;
    /** Tenant-mix axis value ("" = no tenant-mix sweep). */
    std::string tenantMix;
    unsigned jobs = 0; ///< grid jobs in this cell (incl. failed)
    std::map<std::string, unsigned> outcomes;
    /** One fold per report column, in the column table's order. */
    std::vector<ColumnFold> folds;

    /** This cell's records in (seed, rep) grid order. */
    std::vector<const JobRecord *> recs;
};

class CampaignReport
{
  public:
    /** @p records must be the full grid in job-id order. */
    CampaignReport(const CampaignSpec &spec,
                   const std::vector<JobRecord> &records);

    const std::vector<Cell> &cells() const { return _cells; }

    /** Cell lookup; nullptr when absent from the grid. Pass the
     *  offered load / retry policy / tenant mix to address a cell of
     *  the corresponding server sweep axis. */
    const Cell *cell(const std::string &preset, const std::string &app,
                     unsigned cores, double arrivalRate = 0.0,
                     const std::string &retryPolicy = "",
                     const std::string &tenantMix = "") const;

    /** Cell @p c's fold of the column called "key" at the top level
     *  or "block.key" ("server.latency", "stats.sync.hwOps"). */
    const ColumnFold &column(const Cell &c, const std::string &name) const;

    /**
     * Per-(seed, rep) speedups of @p preset against the spec's
     * baseline for one (app, cores); empty when no baseline is
     * configured or runs are missing. Order follows the preset's
     * seed list.
     */
    std::vector<double> speedups(const std::string &preset,
                                 const std::string &app, unsigned cores,
                                 double arrivalRate = 0.0,
                                 const std::string &retryPolicy = "",
                                 const std::string &tenantMix = "") const;

    /** Campaign-wide outcome count for @p outcome. */
    unsigned outcomeCount(JobOutcome o) const;

    /** Jobs that ended in any state other than Finished. */
    std::vector<const JobRecord *> failures() const;

    void writeJson(std::ostream &os) const;
    void writeCsv(std::ostream &os) const;
    void writeTable(std::ostream &os) const;

  private:
    std::vector<double> speedups(const Cell &c) const;

    const CampaignSpec &spec;
    const std::vector<JobRecord> &records;
    const std::vector<Column> columns;
    std::vector<Cell> _cells;
    std::map<std::string, std::size_t> index; ///< cell key -> _cells
};

} // namespace orch
} // namespace misar

#endif // MISAR_ORCH_AGGREGATE_HH
