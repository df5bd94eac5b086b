#include "orch/aggregate.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "orch/json.hh"

namespace misar {
namespace orch {

namespace {

std::string
cellKey(const std::string &preset, const std::string &app, unsigned cores,
        double arrivalRate, const std::string &retryPolicy,
        const std::string &tenantMix)
{
    return preset + "|" + app + "|" + std::to_string(cores) +
           serverAxesKey(arrivalRate, retryPolicy, tenantMix);
}

std::string
cellKey(const JobSpec &j)
{
    return cellKey(j.preset.name, j.app, j.cores, j.arrivalRate,
                   j.retryPolicy, j.tenantMix);
}

/** Fixed-width decimal formatting (deterministic report bytes). */
std::string
fmt(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

/** Two-sided 95% Student-t critical value for @p df degrees of
 *  freedom (the normal 1.96 beyond the tabulated range). */
double
tCrit95(unsigned df)
{
    static const double table[] = {
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306,
        2.262,  2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120,
        2.110,  2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064,
        2.060,  2.056, 2.052, 2.048, 2.045, 2.042,
    };
    if (df == 0)
        return 0.0;
    if (df <= std::size(table))
        return table[df - 1];
    return 1.96;
}

/** One aggregate as a {n, mean, ci95, min, max} member. */
void
writeAgg(JsonWriter &w, const std::string &name, const Agg &a, int decimals)
{
    w.key(name).beginObject();
    w.kv("n", a.n);
    w.kv("mean", a.mean(), decimals);
    w.kv("ci95", a.ci95(), decimals);
    w.kv("min", a.mn, decimals);
    w.kv("max", a.mx, decimals);
    w.endObject();
}

/** Percentile summary of a merged sync-wait histogram. */
void
writeHist(JsonWriter &w, const obs::LogHistogram &h)
{
    w.beginObject();
    w.kv("count", h.count());
    w.kv("mean", h.mean(), 3);
    w.kv("p50", h.p50());
    w.kv("p90", h.p90());
    w.kv("p99", h.p99());
    w.kv("p999", h.p999());
    w.kv("max", h.max());
    w.endObject();
}

/** The fixed outcome emission order (determinism). */
constexpr JobOutcome outcomeOrder[] = {
    JobOutcome::Finished, JobOutcome::Deadlock, JobOutcome::TickLimit,
    JobOutcome::Error,    JobOutcome::Crash,    JobOutcome::Timeout,
    JobOutcome::SpawnError, JobOutcome::Missing,
};

} // namespace

double
Agg::ci95() const
{
    if (n < 2)
        return 0.0;
    const double m = mean();
    double var = 0.0;
    for (double v : values)
        var += (v - m) * (v - m);
    var /= n - 1;
    return tCrit95(n - 1) * std::sqrt(var / n);
}

CampaignReport::CampaignReport(const CampaignSpec &spec,
                               const std::vector<JobRecord> &records)
    : spec(spec), records(records)
{
    // A cell is the jobs that differ only in seed and rep; its first
    // job in grid order places it.
    for (const JobSpec &j : spec.expand()) {
        if (!index.emplace(cellKey(j), _cells.size()).second)
            continue;
        Cell cell;
        cell.preset = j.preset.name;
        cell.app = j.app;
        cell.cores = j.cores;
        cell.arrivalRate = j.arrivalRate;
        cell.retryPolicy = j.retryPolicy;
        cell.tenantMix = j.tenantMix;
        _cells.push_back(std::move(cell));
    }

    for (const JobRecord &r : records) {
        auto it = index.find(cellKey(r.job));
        if (it == index.end())
            continue; // not part of this spec's grid
        Cell &cell = _cells[it->second];
        ++cell.jobs;
        ++cell.outcomes[jobOutcomeName(r.outcome)];
        cell.recs.push_back(&r);
        if (r.outcome != JobOutcome::Finished)
            continue;
        cell.makespan.add(static_cast<double>(r.makespan));
        cell.hwCoverage.add(r.hwCoverage);
        cell.syncWait.merge(r.syncWait);
        if (r.hasPressure) {
            cell.overflowEvents.add(
                static_cast<double>(r.overflowEvents));
            cell.omuEpisodes.add(static_cast<double>(r.omuEpisodes));
            cell.omuEpisodeTicks.add(
                static_cast<double>(r.omuEpisodeTicks));
            cell.omuHighWater.add(static_cast<double>(r.omuHighWater));
            cell.maxSliceOccupancy.add(r.maxSliceOccupancy);
            cell.maxNiQueueDepth.add(r.maxNiQueueDepth);
        }
        if (r.hasServer) {
            ++cell.srvJobs;
            cell.srvKnee += r.srvKnee;
            cell.srvThroughput.add(r.srvThroughput);
            cell.srvRejected.add(static_cast<double>(r.srvRejected));
            cell.srvStranded.add(static_cast<double>(r.srvStranded));
            cell.srvLatency.merge(r.srvLatency);
            cell.srvGoodput.add(r.srvGoodput);
            cell.srvRejectedSlo.add(
                static_cast<double>(r.srvRejectedSlo));
            cell.srvRetries.add(static_cast<double>(r.srvRetries));
            if (!r.srvTenants.empty())
                ++cell.srvTenantJobs;
            for (const JobRecord::TenantRecord &t : r.srvTenants) {
                if (t.name == "hi") {
                    cell.srvHiGoodput.add(t.goodput);
                    cell.srvHiRejected.add(
                        static_cast<double>(t.rejected));
                    cell.srvHiLatency.merge(t.latency);
                } else if (t.name == "lo") {
                    cell.srvLoGoodput.add(t.goodput);
                    cell.srvLoRejected.add(
                        static_cast<double>(t.rejected));
                    cell.srvLoLatency.merge(t.latency);
                }
            }
        }
        for (const std::string &s : spec.stats) {
            auto cv = r.counters.find(s);
            cell.counters[s].add(
                cv == r.counters.end()
                    ? 0.0
                    : static_cast<double>(cv->second));
        }
    }

    // Speedups need every cell populated first.
    if (!spec.baseline.empty()) {
        for (Cell &cell : _cells) {
            if (cell.preset == spec.baseline)
                continue;
            for (const JobRecord *r : cell.recs) {
                if (r->outcome != JobOutcome::Finished || !r->makespan)
                    continue;
                const JobRecord *b =
                    match(spec.baseline, cell.app, cell.cores,
                          cell.arrivalRate, cell.retryPolicy,
                          cell.tenantMix, r->job.seed, r->job.rep);
                if (b && b->outcome == JobOutcome::Finished &&
                    b->makespan)
                    cell.speedup.add(static_cast<double>(b->makespan) /
                                     static_cast<double>(r->makespan));
            }
        }
    }
}

const Cell *
CampaignReport::cell(const std::string &preset, const std::string &app,
                     unsigned cores, double arrivalRate,
                     const std::string &retryPolicy,
                     const std::string &tenantMix) const
{
    auto it = index.find(
        cellKey(preset, app, cores, arrivalRate, retryPolicy, tenantMix));
    return it == index.end() ? nullptr : &_cells[it->second];
}

const JobRecord *
CampaignReport::match(const std::string &preset, const std::string &app,
                      unsigned cores, double arrivalRate,
                      const std::string &retryPolicy,
                      const std::string &tenantMix, std::uint64_t seed,
                      unsigned rep) const
{
    const Cell *c =
        cell(preset, app, cores, arrivalRate, retryPolicy, tenantMix);
    if (!c)
        return nullptr;
    for (const JobRecord *r : c->recs)
        if (r->job.seed == seed && r->job.rep == rep)
            return r;
    return nullptr;
}

std::vector<double>
CampaignReport::speedups(const std::string &preset, const std::string &app,
                         unsigned cores, double arrivalRate,
                         const std::string &retryPolicy,
                         const std::string &tenantMix) const
{
    std::vector<double> out;
    if (spec.baseline.empty())
        return out;
    const Cell *c =
        cell(preset, app, cores, arrivalRate, retryPolicy, tenantMix);
    if (!c)
        return out;
    for (const JobRecord *r : c->recs) {
        if (r->outcome != JobOutcome::Finished || !r->makespan)
            continue;
        const JobRecord *b = match(spec.baseline, app, cores,
                                   arrivalRate, retryPolicy, tenantMix,
                                   r->job.seed, r->job.rep);
        if (b && b->outcome == JobOutcome::Finished && b->makespan)
            out.push_back(static_cast<double>(b->makespan) /
                          static_cast<double>(r->makespan));
    }
    return out;
}

unsigned
CampaignReport::outcomeCount(JobOutcome o) const
{
    unsigned n = 0;
    for (const JobRecord &r : records)
        n += r.outcome == o;
    return n;
}

std::vector<const JobRecord *>
CampaignReport::failures() const
{
    std::vector<const JobRecord *> out;
    for (const JobRecord &r : records)
        if (r.outcome != JobOutcome::Finished)
            out.push_back(&r);
    return out;
}

void
CampaignReport::writeJson(std::ostream &os) const
{
    JsonWriter w(os);
    w.beginObject();
    w.kv("schemaVersion", 4);
    w.kv("campaign", spec.name);
    w.kv("jobs", std::uint64_t(records.size()));

    w.key("outcomes").beginObject();
    for (JobOutcome o : outcomeOrder)
        w.kv(jobOutcomeName(o), outcomeCount(o));
    w.endObject();

    w.key("cells").beginArray();
    for (const Cell &c : _cells) {
        w.beginObject();
        w.kv("preset", c.preset);
        w.kv("app", c.app);
        w.kv("cores", c.cores);
        if (c.arrivalRate > 0)
            w.key("arrivalRate").rawValue(formatRate(c.arrivalRate));
        if (!c.retryPolicy.empty())
            w.kv("retryPolicy", c.retryPolicy);
        if (!c.tenantMix.empty())
            w.kv("tenantMix", c.tenantMix);
        w.kv("jobs", c.jobs);
        w.key("outcomes").beginObject();
        for (JobOutcome o : outcomeOrder) {
            auto it = c.outcomes.find(jobOutcomeName(o));
            if (it != c.outcomes.end())
                w.kv(it->first, it->second);
        }
        w.endObject();
        writeAgg(w, "makespan", c.makespan, 3);
        writeAgg(w, "hwCoverage", c.hwCoverage, 6);
        if (!spec.baseline.empty() && c.preset != spec.baseline)
            writeAgg(w, "speedup", c.speedup, 6);
        if (!spec.stats.empty()) {
            w.key("stats").beginObject();
            for (const std::string &s : spec.stats) {
                auto it = c.counters.find(s);
                static const Agg empty;
                writeAgg(w, s, it == c.counters.end() ? empty : it->second,
                         3);
            }
            w.endObject();
        }
        if (!c.syncWait.empty()) {
            w.key("syncWait");
            writeHist(w, c.syncWait);
        }
        if (c.overflowEvents.n) {
            w.key("pressure").beginObject();
            w.kv("jobs", c.overflowEvents.n);
            writeAgg(w, "overflowEvents", c.overflowEvents, 3);
            writeAgg(w, "omuEpisodes", c.omuEpisodes, 3);
            writeAgg(w, "omuEpisodeTicks", c.omuEpisodeTicks, 3);
            writeAgg(w, "omuHighWater", c.omuHighWater, 3);
            writeAgg(w, "maxSliceOccupancy", c.maxSliceOccupancy, 3);
            writeAgg(w, "maxNiQueueDepth", c.maxNiQueueDepth, 3);
            w.endObject();
        }
        if (c.srvJobs) {
            w.key("server").beginObject();
            w.kv("jobs", c.srvJobs);
            writeAgg(w, "throughput", c.srvThroughput, 6);
            writeAgg(w, "goodput", c.srvGoodput, 6);
            writeAgg(w, "rejected", c.srvRejected, 3);
            writeAgg(w, "rejectedSlo", c.srvRejectedSlo, 3);
            writeAgg(w, "retries", c.srvRetries, 3);
            writeAgg(w, "stranded", c.srvStranded, 3);
            w.kv("knee", c.srvKnee);
            w.key("latency");
            writeHist(w, c.srvLatency);
            if (c.srvTenantJobs) {
                w.key("tenants").beginObject();
                w.kv("jobs", c.srvTenantJobs);
                w.key("hi").beginObject();
                writeAgg(w, "goodput", c.srvHiGoodput, 6);
                writeAgg(w, "rejected", c.srvHiRejected, 3);
                w.key("latency");
                writeHist(w, c.srvHiLatency);
                w.endObject();
                w.key("lo").beginObject();
                writeAgg(w, "goodput", c.srvLoGoodput, 6);
                writeAgg(w, "rejected", c.srvLoRejected, 3);
                w.key("latency");
                writeHist(w, c.srvLoLatency);
                w.endObject();
                w.endObject();
            }
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();

    w.key("failures").beginArray();
    for (const JobRecord *r : failures()) {
        w.beginObject();
        w.kv("job", r->job.id);
        w.kv("key", r->job.key());
        w.kv("outcome", jobOutcomeName(r->outcome));
        w.kv("log", r->note);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

void
CampaignReport::writeCsv(std::ostream &os) const
{
    os << "preset,app,cores,arrivalRate,retryPolicy,tenantMix,jobs";
    for (JobOutcome o : outcomeOrder)
        os << "," << jobOutcomeName(o);
    os << ",makespan_mean,makespan_ci95,makespan_min,makespan_max"
          ",hwCoverage_mean,hwCoverage_ci95";
    if (!spec.baseline.empty())
        os << ",speedup_mean,speedup_ci95,speedup_min,speedup_max";
    for (const std::string &s : spec.stats)
        os << "," << s << "_mean," << s << "_ci95," << s << "_min,"
           << s << "_max";
    os << ",syncWait_count,syncWait_mean,syncWait_p50,syncWait_p90"
          ",syncWait_p99,syncWait_p999,syncWait_max";
    os << ",pressure_jobs,overflowEvents_mean,omuEpisodes_mean"
          ",omuEpisodeTicks_mean,omuHighWater_max"
          ",maxSliceOccupancy_max,maxNiQueueDepth_max";
    os << ",server_jobs,throughput_mean,throughput_ci95,rejected_mean"
          ",stranded_mean,reqLatency_p50,reqLatency_p99"
          ",reqLatency_p999,knee_jobs";
    os << ",goodput_mean,goodput_ci95,rejectedSlo_mean,retries_mean"
          ",hi_goodput_mean,hi_rejected_mean,hi_p99"
          ",lo_goodput_mean,lo_rejected_mean,lo_p99";
    os << "\n";

    for (const Cell &c : _cells) {
        os << c.preset << "," << c.app << "," << c.cores << ","
           << formatRate(c.arrivalRate) << "," << c.retryPolicy << ","
           << c.tenantMix << "," << c.jobs;
        for (JobOutcome o : outcomeOrder) {
            auto it = c.outcomes.find(jobOutcomeName(o));
            os << "," << (it == c.outcomes.end() ? 0u : it->second);
        }
        os << "," << fmt(c.makespan.mean(), 3) << ","
           << fmt(c.makespan.ci95(), 3) << "," << fmt(c.makespan.mn, 3)
           << "," << fmt(c.makespan.mx, 3) << ","
           << fmt(c.hwCoverage.mean(), 6) << ","
           << fmt(c.hwCoverage.ci95(), 6);
        if (!spec.baseline.empty()) {
            os << "," << fmt(c.speedup.mean(), 6) << ","
               << fmt(c.speedup.ci95(), 6) << ","
               << fmt(c.speedup.mn, 6) << "," << fmt(c.speedup.mx, 6);
        }
        for (const std::string &s : spec.stats) {
            auto it = c.counters.find(s);
            static const Agg empty;
            const Agg &a = it == c.counters.end() ? empty : it->second;
            os << "," << fmt(a.mean(), 3) << "," << fmt(a.ci95(), 3)
               << "," << fmt(a.mn, 3) << "," << fmt(a.mx, 3);
        }
        os << "," << c.syncWait.count() << ","
           << fmt(c.syncWait.mean(), 3) << "," << c.syncWait.p50()
           << "," << c.syncWait.p90() << "," << c.syncWait.p99() << ","
           << c.syncWait.p999() << "," << c.syncWait.max();
        os << "," << c.overflowEvents.n << ","
           << fmt(c.overflowEvents.mean(), 3) << ","
           << fmt(c.omuEpisodes.mean(), 3) << ","
           << fmt(c.omuEpisodeTicks.mean(), 3) << ","
           << fmt(c.omuHighWater.mx, 3) << ","
           << fmt(c.maxSliceOccupancy.mx, 3) << ","
           << fmt(c.maxNiQueueDepth.mx, 3);
        os << "," << c.srvJobs << "," << fmt(c.srvThroughput.mean(), 6)
           << "," << fmt(c.srvThroughput.ci95(), 6) << ","
           << fmt(c.srvRejected.mean(), 3) << ","
           << fmt(c.srvStranded.mean(), 3) << "," << c.srvLatency.p50()
           << "," << c.srvLatency.p99() << "," << c.srvLatency.p999()
           << "," << c.srvKnee;
        os << "," << fmt(c.srvGoodput.mean(), 6) << ","
           << fmt(c.srvGoodput.ci95(), 6) << ","
           << fmt(c.srvRejectedSlo.mean(), 3) << ","
           << fmt(c.srvRetries.mean(), 3) << ","
           << fmt(c.srvHiGoodput.mean(), 6) << ","
           << fmt(c.srvHiRejected.mean(), 3) << ","
           << c.srvHiLatency.p99() << ","
           << fmt(c.srvLoGoodput.mean(), 6) << ","
           << fmt(c.srvLoRejected.mean(), 3) << ","
           << c.srvLoLatency.p99();
        os << "\n";
    }
}

void
CampaignReport::writeTable(std::ostream &os) const
{
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%-20s %-14s %5s %4s %12s %11s %8s %9s %9s\n",
                  "Preset", "App", "Cores", "ok", "Makespan", "+-95%",
                  "HwCov", "Speedup", "p99Wait");
    os << line;
    for (const Cell &c : _cells) {
        auto fin = c.outcomes.find("finished");
        unsigned ok = fin == c.outcomes.end() ? 0 : fin->second;
        std::string sp = "-";
        if (!spec.baseline.empty() && c.preset != spec.baseline &&
            c.speedup.n)
            sp = fmt(c.speedup.mean(), 2);
        std::string wait = "-";
        if (!c.syncWait.empty())
            wait = std::to_string(c.syncWait.p99());
        std::snprintf(line, sizeof(line),
                      "%-20s %-14s %5u %2u/%-2u %12.0f %11.0f %7.1f%% "
                      "%9s %9s\n",
                      c.preset.c_str(), c.app.c_str(), c.cores, ok,
                      c.jobs, c.makespan.mean(), c.makespan.ci95(),
                      100.0 * c.hwCoverage.mean(), sp.c_str(),
                      wait.c_str());
        os << line;
    }

    bool anyServer = false;
    for (const Cell &c : _cells)
        anyServer |= c.srvJobs != 0;
    if (anyServer) {
        std::snprintf(line, sizeof(line),
                      "\n%-20s %-14s %6s %-8s %10s %10s %8s %8s %8s "
                      "%6s %5s\n",
                      "Preset", "App", "Rate", "Policy", "Thruput",
                      "Goodput", "p50", "p99", "p999", "Rej", "Knee");
        os << line;
        for (const Cell &c : _cells) {
            if (!c.srvJobs)
                continue;
            std::snprintf(
                line, sizeof(line),
                "%-20s %-14s %6s %-8s %10.4f %10.4f %8llu %8llu %8llu "
                "%6.0f %2u/%-2u\n",
                c.preset.c_str(), c.app.c_str(),
                c.arrivalRate > 0 ? formatRate(c.arrivalRate).c_str()
                                  : "-",
                c.retryPolicy.empty() ? "-" : c.retryPolicy.c_str(),
                c.srvThroughput.mean(), c.srvGoodput.mean(),
                static_cast<unsigned long long>(c.srvLatency.p50()),
                static_cast<unsigned long long>(c.srvLatency.p99()),
                static_cast<unsigned long long>(c.srvLatency.p999()),
                c.srvRejected.mean(), c.srvKnee, c.srvJobs);
            os << line;
        }
    }

    bool anyTenants = false;
    for (const Cell &c : _cells)
        anyTenants |= c.srvTenantJobs != 0;
    if (anyTenants) {
        std::snprintf(line, sizeof(line),
                      "\n%-20s %-14s %8s %-6s %10s %8s %6s\n", "Preset",
                      "App", "Mix", "Tenant", "Goodput", "p99", "Rej");
        os << line;
        for (const Cell &c : _cells) {
            if (!c.srvTenantJobs)
                continue;
            const char *mix =
                c.tenantMix.empty() ? "-" : c.tenantMix.c_str();
            std::snprintf(
                line, sizeof(line),
                "%-20s %-14s %8s %-6s %10.4f %8llu %6.0f\n",
                c.preset.c_str(), c.app.c_str(), mix, "hi",
                c.srvHiGoodput.mean(),
                static_cast<unsigned long long>(c.srvHiLatency.p99()),
                c.srvHiRejected.mean());
            os << line;
            std::snprintf(
                line, sizeof(line),
                "%-20s %-14s %8s %-6s %10.4f %8llu %6.0f\n",
                c.preset.c_str(), c.app.c_str(), mix, "lo",
                c.srvLoGoodput.mean(),
                static_cast<unsigned long long>(c.srvLoLatency.p99()),
                c.srvLoRejected.mean());
            os << line;
        }
    }

    auto fails = failures();
    if (!fails.empty()) {
        os << "\nfailed jobs:\n";
        for (const JobRecord *r : fails) {
            os << "  #" << r->job.id << " " << r->job.key() << " -> "
               << jobOutcomeName(r->outcome) << "\n";
            if (!r->note.empty()) {
                std::istringstream is(r->note);
                std::string l;
                while (std::getline(is, l))
                    os << "    | " << l << "\n";
            }
        }
    }
}

} // namespace orch
} // namespace misar
