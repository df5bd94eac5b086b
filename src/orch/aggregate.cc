#include "orch/aggregate.hh"

#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "sim/logging.hh"
#include "util/json.hh"

namespace misar {
namespace orch {

namespace {

/**
 * The report's columns, in report.json order within each block: the
 * block, the key, the run-report members summed into a job's value
 * ('/'-separated paths under the block's root; "" is the root itself,
 * so a block's "jobs" column counts the jobs that show the block),
 * the decimals and the fold. Speedup reads no member: the report
 * folds it from the baseline match. A new row shows in report.json;
 * report.csv prints what csvFields lists.
 */
const Column columnTable[] = {
    {"", "makespan", {"meta/makespan"}, 3, Fold::Agg},
    {"", "hwCoverage", {"meta/hwCoverage"}, 6, Fold::Agg},
    {"", "speedup", {}, 6, Fold::Agg},
    {"", "syncWait", {"latency/syncWait"}, 3, Fold::Hist},
    {"pressure", "jobs", {""}, 0, Fold::Count},
    {"pressure", "overflowEvents", {"overflowEvents"}, 3, Fold::Agg},
    {"pressure", "omuEpisodes", {"omuEpisodes"}, 3, Fold::Agg},
    {"pressure", "omuEpisodeTicks", {"omuEpisodeTicks"}, 3, Fold::Agg},
    {"pressure", "omuHighWater", {"omuHighWater"}, 3, Fold::Agg},
    {"pressure", "maxSliceOccupancy", {"maxSliceOccupancy"}, 3, Fold::Agg},
    {"pressure", "maxNiQueueDepth", {"maxNiQueueDepth"}, 3, Fold::Agg},
    {"server", "jobs", {""}, 0, Fold::Count},
    {"server", "throughput", {"throughput"}, 6, Fold::Agg},
    {"server", "goodput", {"goodput"}, 6, Fold::Agg},
    {"server", "rejected", {"rejected"}, 3, Fold::Agg},
    {"server", "rejectedSlo", {"rejectedSlo"}, 3, Fold::Agg},
    {"server", "retries", {"retries/attempts"}, 3, Fold::Agg},
    {"server", "stranded", {"stranded"}, 3, Fold::Agg},
    {"server", "knee", {"knee"}, 0, Fold::Count},
    {"server", "latency", {"latency"}, 3, Fold::Hist},
    {"tenants", "jobs", {""}, 0, Fold::Count},
    {"hi", "goodput", {"goodput"}, 6, Fold::Agg},
    // A tenant's rejected requests: full-ring and SLO final sheds.
    {"hi", "rejected", {"rejected", "rejectedSlo"}, 3, Fold::Agg},
    {"hi", "latency", {"latency"}, 3, Fold::Hist},
    {"lo", "goodput", {"goodput"}, 6, Fold::Agg},
    {"lo", "rejected", {"rejected", "rejectedSlo"}, 3, Fold::Agg},
    {"lo", "latency", {"latency"}, 3, Fold::Hist},
};

/** Each block's root in a run report (a step into an array picks the
 *  element of that name). A job shows a block when its report has
 *  the root; "" is the report itself, always shown. */
const std::map<std::string, std::string> blockRoots = {
    {"", ""}, {"stats", ""}, {"pressure", "heatmap"}, {"server", "server"},
    {"tenants", "server/tenants"}, {"hi", "server/tenants/hi"},
    {"lo", "server/tenants/lo"}};

/** report.csv's fields after a cell's axes and outcome counts: a
 *  header prefix, the column and its statistics, "<prefix>_<stat>"
 *  each. The speedup and spec stats fields follow hwCoverage. */
struct CsvField
{
    std::string prefix, column;
    std::vector<std::string> stats;
};

const CsvField csvFields[] = {
    {"makespan", "makespan", {"mean", "ci95", "min", "max"}},
    {"hwCoverage", "hwCoverage", {"mean", "ci95"}},
    {"syncWait", "syncWait", {"count", "mean", "p50", "p90", "p99", "p999",
                              "max"}},
    {"pressure", "pressure.jobs", {"jobs"}},
    {"overflowEvents", "pressure.overflowEvents", {"mean"}},
    {"omuEpisodes", "pressure.omuEpisodes", {"mean"}},
    {"omuEpisodeTicks", "pressure.omuEpisodeTicks", {"mean"}},
    {"omuHighWater", "pressure.omuHighWater", {"max"}},
    {"maxSliceOccupancy", "pressure.maxSliceOccupancy", {"max"}},
    {"maxNiQueueDepth", "pressure.maxNiQueueDepth", {"max"}},
    {"server", "server.jobs", {"jobs"}},
    {"throughput", "server.throughput", {"mean", "ci95"}},
    {"rejected", "server.rejected", {"mean"}},
    {"stranded", "server.stranded", {"mean"}},
    {"reqLatency", "server.latency", {"p50", "p99", "p999"}},
    {"knee", "server.knee", {"jobs"}},
    {"goodput", "server.goodput", {"mean", "ci95"}},
    {"rejectedSlo", "server.rejectedSlo", {"mean"}},
    {"retries", "server.retries", {"mean"}},
    {"hi_goodput", "hi.goodput", {"mean"}},
    {"hi_rejected", "hi.rejected", {"mean"}},
    {"hi", "hi.latency", {"p99"}},
    {"lo_goodput", "lo.goodput", {"mean"}},
    {"lo_rejected", "lo.rejected", {"mean"}},
    {"lo", "lo.latency", {"p99"}},
};

/** The report's columns for @p spec: the table plus one "stats"
 *  column per spec-selected counter. */
std::vector<Column>
reportColumns(const CampaignSpec &spec)
{
    std::vector<Column> out(std::begin(columnTable), std::end(columnTable));
    for (const std::string &s : spec.stats)
        out.push_back({"stats", s, {"stats/counters/" + s}, 3, Fold::Agg});
    return out;
}

/** The index of the column called "key" (top level) or "block.key". */
std::size_t
indexOf(const std::vector<Column> &columns, const std::string &name)
{
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const Column &c = columns[i];
        if (name == (c.block.empty() ? c.key : c.block + "." + c.key))
            return i;
    }
    panic("no campaign-report column '%s'", name.c_str());
}

/** The value at '/'-separated @p path under @p v; a null value when
 *  absent. A step into an array picks the element of that "name". */
const util::Json &
lookup(const util::Json &v, const std::string &path)
{
    if (path.empty())
        return v;
    const std::size_t slash = path.find('/');
    const std::string step = path.substr(0, slash);
    const util::Json *next = &v.at(step); // null unless v is an object
    for (const util::Json &e : v.arr)
        if (e.at("name").stringOr("") == step) {
            next = &e;
            break;
        }
    return slash == std::string::npos ? *next
                                      : lookup(*next, path.substr(slash + 1));
}

/** A member as a number: true and a block's root count 1. */
double
numberOf(const util::Json &j)
{
    if (j.kind == util::Json::Bool)
        return j.boolean;
    return j.isObj() || j.isArr() ? 1.0 : j.numberOr(0.0);
}

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

/** @p s as one RFC 4180 field: quoted, inner quotes doubled, when it
 *  holds a comma, a quote or a line break. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char ch : s)
        out += ch == '"' ? "\"\"" : std::string(1, ch);
    return out + "\"";
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

/** One printed statistic of a fold. */
struct Stat
{
    const char *name;
    double value;
    int decimals;
};

/** Fold @p f of column @p col as report.json prints it: an Agg's n,
 *  mean, ci95, min and max, a histogram's count, mean and p50 to
 *  max, a Count's number of jobs. */
std::vector<Stat>
statsOf(const Column &col, const ColumnFold &f)
{
    const int d = col.decimals;
    const Agg &a = f.agg;
    const obs::LogHistogram &h = f.hist;
    if (col.fold == Fold::Agg)
        return {{"n", double(a.n), 0}, {"mean", a.mean(), d},
                {"ci95", a.ci95(), d}, {"min", a.mn, d}, {"max", a.mx, d}};
    if (col.fold == Fold::Hist)
        return {{"count", double(h.count()), 0}, {"mean", h.mean(), d},
                {"p50", double(h.p50()), 0},     {"p90", double(h.p90()), 0},
                {"p99", double(h.p99()), 0},     {"p999", double(h.p999()), 0},
                {"max", double(h.max()), 0}};
    return {{"jobs", double(f.count), 0}};
}

/** Column @p col's fold @p f as the next member of @p w. */
void
writeColumn(util::JsonWriter &w, const Column &col, const ColumnFold &f)
{
    const std::vector<Stat> stats = statsOf(col, f);
    if (col.fold == Fold::Count) {
        w.kv(col.key, stats[0].value, 0);
        return;
    }
    w.key(col.key).beginObject();
    for (const Stat &s : stats)
        w.kv(s.name, s.value, s.decimals);
    w.endObject();
}

/** Cell @p c's @p block as an object of @p w: its columns, then
 *  whatever @p nested writes. */
void
writeBlock(util::JsonWriter &w, const std::vector<Column> &columns,
           const Cell &c, const std::string &block,
           const std::function<void()> &nested = {})
{
    w.key(block).beginObject();
    for (std::size_t i = 0; i < columns.size(); ++i)
        if (columns[i].block == block)
            writeColumn(w, columns[i], c.folds[i]);
    if (nested)
        nested();
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

void
ingestReport(JobRecord &r, const CampaignSpec &spec, const util::Json &doc)
{
    r.resilience = obs::parseResilience(doc.at("resilience"));
    const std::vector<Column> columns = reportColumns(spec);
    r.values.assign(columns.size(), ColumnValue{});
    for (std::size_t i = 0; i < columns.size(); ++i) {
        const Column &col = columns[i];
        const std::string &path = blockRoots.at(col.block);
        const util::Json &root = lookup(doc, path);
        const bool shown = path.empty() || root.isObj() ||
                           (root.isArr() && !root.arr.empty());
        if (!shown || col.members.empty())
            continue;
        ColumnValue &v = r.values[i];
        v.num = 0.0;
        for (const std::string &m : col.members) {
            obs::LogHistogram h;
            if (col.fold != Fold::Hist)
                v.num += numberOf(lookup(root, m));
            else if (obs::LogHistogram::fromJson(lookup(root, m), h))
                v.hist.merge(h);
        }
    }
    r.makespan = static_cast<Tick>(r.values[indexOf(columns, "makespan")].num);
    r.syncWait = r.values[indexOf(columns, "syncWait")].hist;
}

CampaignReport::CampaignReport(const CampaignSpec &spec,
                               const std::vector<JobRecord> &records)
    : spec(spec), records(records), columns(reportColumns(spec))
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
        cell.folds.resize(columns.size());
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
        if (r.values.size() != columns.size())
            panic("job %u was not ingested with this spec's columns",
                  r.job.id);
        for (std::size_t i = 0; i < columns.size(); ++i) {
            const ColumnValue &v = r.values[i];
            ColumnFold &f = cell.folds[i];
            if (columns[i].fold == Fold::Hist)
                f.hist.merge(v.hist);
            else if (columns[i].fold == Fold::Count)
                f.count += v.num > 0;
            else if (!std::isnan(v.num))
                f.agg.add(v.num);
        }
    }

    // Speedups need every cell populated first.
    const std::size_t speedup = indexOf(columns, "speedup");
    for (Cell &cell : _cells)
        if (cell.preset != spec.baseline)
            for (double s : speedups(cell))
                cell.folds[speedup].agg.add(s);
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

const ColumnFold &
CampaignReport::column(const Cell &c, const std::string &name) const
{
    return c.folds[indexOf(columns, name)];
}

std::vector<double>
CampaignReport::speedups(const std::string &preset, const std::string &app,
                         unsigned cores, double arrivalRate,
                         const std::string &retryPolicy,
                         const std::string &tenantMix) const
{
    const Cell *c =
        cell(preset, app, cores, arrivalRate, retryPolicy, tenantMix);
    return c ? speedups(*c) : std::vector<double>{};
}

std::vector<double>
CampaignReport::speedups(const Cell &c) const
{
    std::vector<double> out;
    const Cell *base = cell(spec.baseline, c.app, c.cores, c.arrivalRate,
                            c.retryPolicy, c.tenantMix);
    if (!base)
        return out; // no baseline configured, or not in the grid
    auto finished = [](const JobRecord *r) {
        return r->outcome == JobOutcome::Finished && r->makespan;
    };
    for (const JobRecord *r : c.recs) {
        if (!finished(r))
            continue;
        // The baseline job with the same seed and rep.
        auto b = std::find_if(
            base->recs.begin(), base->recs.end(), [r](const JobRecord *b) {
                return b->job.seed == r->job.seed && b->job.rep == r->job.rep;
            });
        if (b != base->recs.end() && finished(*b))
            out.push_back(static_cast<double>((*b)->makespan) /
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
    util::JsonWriter w(os);
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
        auto top = [&](const std::string &name) {
            const std::size_t i = indexOf(columns, name);
            writeColumn(w, columns[i], c.folds[i]);
        };
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
        top("makespan");
        top("hwCoverage");
        if (!spec.baseline.empty() && c.preset != spec.baseline)
            top("speedup");
        if (!spec.stats.empty())
            writeBlock(w, columns, c, "stats");
        if (!column(c, "syncWait").hist.empty())
            top("syncWait");
        if (column(c, "pressure.jobs").count)
            writeBlock(w, columns, c, "pressure");
        if (column(c, "server.jobs").count)
            writeBlock(w, columns, c, "server", [&] {
                if (column(c, "tenants.jobs").count)
                    writeBlock(w, columns, c, "tenants", [&] {
                        writeBlock(w, columns, c, "hi");
                        writeBlock(w, columns, c, "lo");
                    });
            });
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
    std::vector<CsvField> fields(std::begin(csvFields), std::end(csvFields));
    std::vector<CsvField> extra;
    const std::vector<std::string> agg = {"mean", "ci95", "min", "max"};
    if (!spec.baseline.empty())
        extra.push_back({"speedup", "speedup", agg});
    for (const std::string &s : spec.stats)
        extra.push_back({s, "stats." + s, agg});
    fields.insert(fields.begin() + 2, extra.begin(), extra.end());

    os << "preset,app,cores,arrivalRate,retryPolicy,tenantMix,jobs";
    for (JobOutcome o : outcomeOrder)
        os << "," << jobOutcomeName(o);
    for (const CsvField &f : fields)
        for (const std::string &stat : f.stats)
            os << "," << csvField(f.prefix + "_" + stat);
    os << "\n";

    for (const Cell &c : _cells) {
        os << csvField(c.preset) << "," << csvField(c.app) << ","
           << c.cores << "," << formatRate(c.arrivalRate) << ","
           << csvField(c.retryPolicy) << "," << csvField(c.tenantMix)
           << "," << c.jobs;
        for (JobOutcome o : outcomeOrder) {
            auto it = c.outcomes.find(jobOutcomeName(o));
            os << "," << (it == c.outcomes.end() ? 0u : it->second);
        }
        for (const CsvField &f : fields) {
            const std::size_t i = indexOf(columns, f.column);
            const std::vector<Stat> stats = statsOf(columns[i], c.folds[i]);
            for (const std::string &stat : f.stats)
                for (const Stat &s : stats)
                    if (stat == s.name)
                        os << "," << fmt(s.value, s.decimals);
        }
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
        const Agg &makespan = column(c, "makespan").agg;
        // Speedups exist only for non-baseline cells with a baseline.
        const Agg &speedup = column(c, "speedup").agg;
        const std::string sp = speedup.n ? fmt(speedup.mean(), 2) : "-";
        const obs::LogHistogram &syncWait = column(c, "syncWait").hist;
        const std::string wait =
            syncWait.empty() ? "-" : std::to_string(syncWait.p99());
        std::snprintf(line, sizeof(line),
                      "%-20s %-14s %5u %2u/%-2u %12.0f %11.0f %7.1f%% "
                      "%9s %9s\n",
                      c.preset.c_str(), c.app.c_str(), c.cores, ok,
                      c.jobs, makespan.mean(), makespan.ci95(),
                      100.0 * column(c, "hwCoverage").agg.mean(),
                      sp.c_str(), wait.c_str());
        os << line;
    }

    auto any = [&](const char *name) {
        for (const Cell &c : _cells)
            if (column(c, name).count)
                return true;
        return false;
    };
    if (any("server.jobs")) {
        std::snprintf(line, sizeof(line),
                      "\n%-20s %-14s %6s %-8s %10s %10s %8s %8s %8s "
                      "%6s %5s\n",
                      "Preset", "App", "Rate", "Policy", "Thruput",
                      "Goodput", "p50", "p99", "p999", "Rej", "Knee");
        os << line;
        for (const Cell &c : _cells) {
            const unsigned jobs = column(c, "server.jobs").count;
            const obs::LogHistogram &lat = column(c, "server.latency").hist;
            if (!jobs)
                continue;
            std::snprintf(
                line, sizeof(line),
                "%-20s %-14s %6s %-8s %10.4f %10.4f %8llu %8llu %8llu "
                "%6.0f %2u/%-2u\n",
                c.preset.c_str(), c.app.c_str(),
                c.arrivalRate > 0 ? formatRate(c.arrivalRate).c_str()
                                  : "-",
                c.retryPolicy.empty() ? "-" : c.retryPolicy.c_str(),
                column(c, "server.throughput").agg.mean(),
                column(c, "server.goodput").agg.mean(),
                static_cast<unsigned long long>(lat.p50()),
                static_cast<unsigned long long>(lat.p99()),
                static_cast<unsigned long long>(lat.p999()),
                column(c, "server.rejected").agg.mean(),
                column(c, "server.knee").count, jobs);
            os << line;
        }
    }

    if (any("tenants.jobs")) {
        std::snprintf(line, sizeof(line),
                      "\n%-20s %-14s %8s %-6s %10s %8s %6s\n", "Preset",
                      "App", "Mix", "Tenant", "Goodput", "p99", "Rej");
        os << line;
        for (const Cell &c : _cells) {
            if (!column(c, "tenants.jobs").count)
                continue;
            for (const std::string t : {"hi", "lo"}) {
                std::snprintf(
                    line, sizeof(line),
                    "%-20s %-14s %8s %-6s %10.4f %8llu %6.0f\n",
                    c.preset.c_str(), c.app.c_str(),
                    c.tenantMix.empty() ? "-" : c.tenantMix.c_str(),
                    t.c_str(), column(c, t + ".goodput").agg.mean(),
                    static_cast<unsigned long long>(
                        column(c, t + ".latency").hist.p99()),
                    column(c, t + ".rejected").agg.mean());
                os << line;
            }
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
