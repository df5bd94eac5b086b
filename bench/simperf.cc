/**
 * @file
 * Host-throughput benchmark for the simulation kernel.
 *
 * Unlike repro's figures (which reproduce paper results in
 * simulated time), this harness measures how fast the simulator
 * itself runs on the host: simulated ticks/second and events/second
 * over the standard presets. It is the regression gate for the event
 * kernel (calendar queue + pooled events) and the flat hot-path
 * containers; see docs/PERFORMANCE.md.
 *
 * Modes:
 *   simperf                    full run (scale 20, 3 reps per preset)
 *   simperf --smoke            quick run (scale 2, 1 rep) for CI
 *   simperf --out FILE         write the JSON result (default
 *                              BENCH_simperf.json in the CWD)
 *   simperf --check FILE       after measuring, compare ticksPerSec
 *                              per preset against the matching mode
 *                              section of FILE; exit 1 if any preset
 *                              regressed more than --tolerance
 *   simperf --tolerance X      allowed fractional regression (0.15)
 *   simperf --obs-overhead     fault-free observability overhead
 *                              gate: msa16 with the stat sampler +
 *                              resource monitor armed vs plain, best
 *                              wall time of the reps on each side;
 *                              exit 1 when the overhead exceeds
 *                              --tolerance (default 3% in this mode)
 *
 * The checked-in BENCH_simperf.json holds "full" and "smoke"
 * sections measured on the reference machine plus a "before" section
 * with the pre-calendar-queue kernel numbers; CI runs
 * `simperf --smoke --check BENCH_simperf.json`. Its "threaded"
 * sections record the parallel kernel that has since been removed;
 * --check reads only the serial preset rows.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "sync/sync_lib.hh"
#include "system/presets.hh"
#include "system/system.hh"
#include "workload/app_catalog.hh"
#include "workload/synthetic_app.hh"

using namespace misar;
using namespace misar::workload;

namespace {

struct Preset
{
    const char *name;
    sys::PaperConfig pc;
    unsigned cores;
};

/** The standard preset matrix (mirrors the determinism harness). */
const Preset presets[] = {
    {"msa16", sys::PaperConfig::MsaOmu2, 16},
    {"msa64", sys::PaperConfig::MsaOmu2, 64},
    {"msa-omu2-faults", sys::PaperConfig::MsaOmu2Faults, 16},
    {"sw-fallback", sys::PaperConfig::Msa0, 16},
};

struct Result
{
    std::string name;
    unsigned cores = 0;
    std::uint64_t ticks = 0;
    std::uint64_t events = 0;
    double wallSec = 0.0;
    EventQueue::PoolStats pool;
    long rssKb = 0;
};

constexpr Tick tickLimit = 2000000000ULL;

Result
runPreset(const Preset &p, unsigned scale, unsigned reps)
{
    // Warm up caches/branch predictors with one small untimed run.
    {
        AppSpec w = appByName("radiosity");
        sys::System s(sys::configFor(p.pc, p.cores));
        sync::SyncLib lib(sys::flavorFor(p.pc), p.cores);
        AppLayout layout;
        for (CoreId c = 0; c < p.cores; ++c)
            s.start(c, appThread(s.api(c), w, layout, &lib, p.cores, 1));
        s.runDetailed(tickLimit);
    }

    AppSpec spec = appByName("radiosity");
    spec.iters *= scale;

    Result res;
    res.name = p.name;
    res.cores = p.cores;
    for (unsigned r = 0; r < reps; ++r) {
        sys::System s(sys::configFor(p.pc, p.cores));
        sync::SyncLib lib(sys::flavorFor(p.pc), p.cores);
        AppLayout layout;
        for (CoreId c = 0; c < p.cores; ++c)
            s.start(c, appThread(s.api(c), spec, layout, &lib, p.cores, 1));
        auto t0 = std::chrono::steady_clock::now();
        auto out = s.runDetailed(tickLimit);
        auto t1 = std::chrono::steady_clock::now();
        if (out != sys::RunOutcome::Finished)
            fatal("simperf: %s rep %u did not finish", p.name, r);
        res.wallSec += std::chrono::duration<double>(t1 - t0).count();
        res.ticks += s.eventQueue().now();
        res.pool = s.eventQueue().poolStats(); // last rep's counters
        res.events += res.pool.executed;
    }
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    res.rssKb = ru.ru_maxrss; // cumulative process high-water mark
    return res;
}

void
writeJson(std::ostream &os, const char *mode, unsigned scale, unsigned reps,
          const std::vector<Result> &results)
{
    os << "{\"schemaVersion\":1,\"generator\":\"bench/simperf\","
       << "\"kernel\":\"calendar-queue\",\"mode\":\"" << mode << "\","
       << "\"" << mode << "\":{\"scale\":" << scale << ",\"reps\":" << reps
       << ",\"workload\":\"radiosity\",\"presets\":[";
    bool first = true;
    for (const Result &r : results) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  {\"name\":\"" << r.name << "\",\"cores\":" << r.cores
           << ",\"ticks\":" << r.ticks << ",\"events\":" << r.events
           << ",\"wallSec\":" << r.wallSec
           << ",\"ticksPerSec\":" << std::uint64_t(r.ticks / r.wallSec)
           << ",\"eventsPerSec\":" << std::uint64_t(r.events / r.wallSec)
           << ",\"eventsPerTick\":" << double(r.events) / double(r.ticks)
           << ",\"maxRssKb\":" << r.rssKb
           << ",\"pool\":{\"recordCapacity\":" << r.pool.recordCapacity
           << ",\"chunkAllocs\":" << r.pool.chunkAllocs
           << ",\"heapCallbacks\":" << r.pool.heapCallbacks
           << ",\"scheduled\":" << r.pool.scheduled
           << ",\"maxPending\":" << r.pool.maxPending << "}}";
    }
    os << "\n]}}\n";
}

/**
 * Best (smallest) wall time over @p reps timed runs of the msa16
 * preset, with or without the sampler + resource monitor armed.
 * Best-of damps host noise far better than the mean, which matters
 * when gating a few-percent overhead budget.
 */
double
bestWallSec(const Preset &p, const AppSpec &spec, unsigned reps, bool obs)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        SystemConfig cfg = sys::configFor(p.pc, p.cores);
        if (obs) {
            cfg.obs.sampleInterval = 10000;
            cfg.obs.heatmapEnabled = true;
        }
        sys::System s(cfg);
        sync::SyncLib lib(sys::flavorFor(p.pc), p.cores);
        AppLayout layout;
        for (CoreId c = 0; c < p.cores; ++c)
            s.start(c, appThread(s.api(c), spec, layout, &lib, p.cores, 1));
        auto t0 = std::chrono::steady_clock::now();
        auto out = s.runDetailed(tickLimit);
        auto t1 = std::chrono::steady_clock::now();
        if (out != sys::RunOutcome::Finished)
            fatal("simperf: obs-overhead rep %u did not finish", r);
        double w = std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || w < best)
            best = w;
    }
    return best;
}

/**
 * The fault-free observability overhead gate. Returns the process
 * exit code: 0 within budget, 1 over budget.
 */
int
runObsOverhead(bool smoke, double tolerance)
{
    const Preset &p = presets[0]; // msa16
    const unsigned scale = smoke ? 2 : 8;
    const unsigned reps = smoke ? 3 : 5;
    AppSpec spec = appByName("radiosity");
    spec.iters *= scale;

    bestWallSec(p, spec, 1, false); // warm-up, untimed semantics

    const double plain = bestWallSec(p, spec, reps, false);
    const double obs = bestWallSec(p, spec, reps, true);
    const double overhead = plain > 0.0 ? obs / plain - 1.0 : 0.0;
    const bool ok = overhead <= tolerance;
    std::printf("obs-overhead %-8s plain=%.3fs obs=%.3fs overhead=%+.2f%% "
                "budget=%.0f%%  %s\n",
                p.name, plain, obs, overhead * 100.0, tolerance * 100.0,
                ok ? "ok" : "OVER BUDGET");
    if (!ok)
        std::fprintf(stderr,
                     "simperf: sampler+heatmap overhead %.2f%% exceeds "
                     "%.0f%% budget\n",
                     overhead * 100.0, tolerance * 100.0);
    return ok ? 0 : 1;
}

/**
 * Minimal lookup into a prior simperf JSON: the ticksPerSec of
 * @p preset inside the @p mode section. Relies on the schema placing
 * each mode's presets after its `"<mode>":` key and the "before"
 * section last. Returns -1 when absent (not an error: a baseline may
 * predate a preset).
 */
double
baselineTicksPerSec(const std::string &json, const std::string &mode,
                    const std::string &preset)
{
    std::size_t sec = json.find("\"" + mode + "\":");
    if (sec == std::string::npos)
        return -1.0;
    std::size_t at = json.find("\"name\":\"" + preset + "\"", sec);
    if (at == std::string::npos)
        return -1.0;
    const std::string key = "\"ticksPerSec\":";
    std::size_t k = json.find(key, at);
    if (k == std::string::npos)
        return -1.0;
    return std::atof(json.c_str() + k + key.size());
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    bool smoke = false;
    bool obs_overhead = false;
    std::string out_path = "BENCH_simperf.json";
    std::string check_path;
    double tolerance = 0.15;
    bool tolerance_set = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--smoke") {
            smoke = true;
        } else if (a == "--obs-overhead") {
            obs_overhead = true;
        } else if (a == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else if (a == "--check" && i + 1 < argc) {
            check_path = argv[++i];
        } else if (a == "--tolerance" && i + 1 < argc) {
            tolerance = std::atof(argv[++i]);
            tolerance_set = true;
        } else {
            std::fprintf(stderr,
                         "usage: simperf [--smoke] [--obs-overhead] "
                         "[--out FILE] [--check FILE] [--tolerance X]\n");
            return 2;
        }
    }
    if (obs_overhead)
        return runObsOverhead(smoke, tolerance_set ? tolerance : 0.03);
    const char *mode = smoke ? "smoke" : "full";
    const unsigned scale = smoke ? 2 : 20;
    const unsigned reps = smoke ? 1 : 3;

    std::vector<Result> results;
    for (const Preset &p : presets) {
        Result r = runPreset(p, scale, reps);
        std::printf("%-16s ticks/s=%-8llu events/s=%-9llu ev/tick=%.2f "
                    "chunkAllocs=%llu heapCallbacks=%llu rss=%ldKB\n",
                    r.name.c_str(),
                    (unsigned long long)(r.ticks / r.wallSec),
                    (unsigned long long)(r.events / r.wallSec),
                    double(r.events) / double(r.ticks),
                    (unsigned long long)r.pool.chunkAllocs,
                    (unsigned long long)r.pool.heapCallbacks, r.rssKb);
        results.push_back(std::move(r));
    }

    if (!out_path.empty()) {
        std::ofstream f(out_path);
        if (!f)
            fatal("simperf: cannot open %s", out_path.c_str());
        writeJson(f, mode, scale, reps, results);
        std::printf("wrote %s\n", out_path.c_str());
    }

    if (check_path.empty())
        return 0;

    std::ifstream bf(check_path);
    if (!bf)
        fatal("simperf: cannot open baseline %s", check_path.c_str());
    std::stringstream ss;
    ss << bf.rdbuf();
    const std::string baseline = ss.str();

    int regressed = 0;
    for (const Result &r : results) {
        double base = baselineTicksPerSec(baseline, mode, r.name);
        if (base <= 0) {
            std::printf("check %-16s no %s baseline, skipped\n",
                        r.name.c_str(), mode);
            continue;
        }
        double now = r.ticks / r.wallSec;
        double ratio = now / base;
        bool ok = ratio >= 1.0 - tolerance;
        std::printf("check %-16s %8.0f vs baseline %8.0f  (%+.1f%%)  %s\n",
                    r.name.c_str(), now, base, (ratio - 1.0) * 100.0,
                    ok ? "ok" : "REGRESSED");
        if (!ok)
            ++regressed;
    }
    if (regressed) {
        std::fprintf(stderr,
                     "simperf: %d preset(s) regressed more than %.0f%%\n",
                     regressed, tolerance * 100.0);
        return 1;
    }
    return 0;
}
