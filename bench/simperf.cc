/**
 * @file
 * Host-throughput benchmark for the simulation kernel.
 *
 * Unlike the fig*_ benches (which reproduce paper results in
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
 *   simperf --threads-gate X   minimum msa64 speedup at 4 host
 *                              threads vs --threads 1 (default 1.8;
 *                              0 disables). Skipped automatically on
 *                              hosts with fewer than 4 hardware
 *                              threads, where the target is
 *                              unreachable by construction.
 *
 * Besides the serial preset matrix, every full/smoke run sweeps the
 * PDES kernel (`--threads` 1/2/4) over msa64 and the scale-study
 * msa256 preset and records a "threaded" section with per-row
 * speedups vs the threads-1 row. The serial rows stay the CI
 * regression gate (--check ignores the threaded section: host-thread
 * availability varies across machines, so cross-run speedup
 * comparisons are not apples-to-apples).
 *
 * The checked-in BENCH_simperf.json holds "full" and "smoke"
 * sections measured on the reference machine plus a "before" section
 * with the pre-calendar-queue kernel numbers; CI runs
 * `simperf --smoke --check BENCH_simperf.json`.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
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
        res.events += s.eventQueue().executedEvents();
        res.pool = s.eventQueue().poolStats(); // last rep's counters
    }
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    res.rssKb = ru.ru_maxrss; // cumulative process high-water mark
    return res;
}

/** One (preset, --threads N) row of the PDES sweep. */
struct ThreadedResult
{
    std::string name;
    unsigned cores = 0;
    unsigned threads = 0;
    unsigned scale = 0;
    std::uint64_t ticks = 0;   ///< simulated ticks of the best rep
    std::uint64_t events = 0;  ///< executed events of the best rep
    double wallSec = 0.0;      ///< best (smallest) rep wall time
    double speedup = 0.0;      ///< threads-1 row wallSec / this wallSec
};

/**
 * Configuration for one sweep target. msa64 is the serial matrix's
 * MSA/OMU-2 @ 64; msa256 is the scale-study CLI preset (it pins its
 * own core count and NoC sizing).
 */
bool
sweepConfig(const std::string &name, SystemConfig &cfg,
            sync::SyncLib::Flavor &flavor)
{
    if (name == "msa64") {
        cfg = sys::configFor(sys::PaperConfig::MsaOmu2, 64);
        flavor = sys::flavorFor(sys::PaperConfig::MsaOmu2);
        return true;
    }
    return sys::cliPresetFor(name, 0, 2, cfg, flavor);
}

ThreadedResult
runThreaded(const char *name, unsigned threads, unsigned scale,
            unsigned reps)
{
    SystemConfig base;
    sync::SyncLib::Flavor flavor = sync::SyncLib::Flavor::Hw;
    if (!sweepConfig(name, base, flavor))
        fatal("simperf: unknown sweep preset %s", name);
    base.simThreads = threads;

    AppSpec spec = appByName("radiosity");
    spec.iters *= scale;

    ThreadedResult res;
    res.name = name;
    res.cores = base.numCores;
    res.threads = threads;
    res.scale = scale;
    for (unsigned r = 0; r < reps; ++r) {
        SystemConfig cfg = base;
        sys::System s(cfg);
        sync::SyncLib lib(flavor, cfg.numCores);
        AppLayout layout;
        for (CoreId c = 0; c < cfg.numCores; ++c)
            s.start(c, appThread(s.api(c), spec, layout, &lib,
                                 cfg.numCores, 1));
        auto t0 = std::chrono::steady_clock::now();
        auto out = s.runDetailed(tickLimit);
        auto t1 = std::chrono::steady_clock::now();
        if (out != sys::RunOutcome::Finished)
            fatal("simperf: %s --threads %u rep %u did not finish", name,
                  threads, r);
        double w = std::chrono::duration<double>(t1 - t0).count();
        if (r == 0 || w < res.wallSec) {
            res.wallSec = w;
            res.ticks = s.eventQueue().now();
            res.events = s.eventQueue().executedEvents();
        }
    }
    return res;
}

/**
 * The `--threads` 1/2/4 sweep over msa64 and msa256. Best-of-reps
 * wall times (host noise would otherwise dominate the speedup
 * ratios); msa256 runs at half scale to bound the bench's wall time
 * — speedups are ratios within a row group, so the scales need not
 * match across presets.
 */
std::vector<ThreadedResult>
runThreadsSweep(unsigned scale, unsigned reps)
{
    const char *targets[] = {"msa64", "msa256"};
    const unsigned counts[] = {1, 2, 4};
    std::vector<ThreadedResult> rows;
    for (const char *t : targets) {
        const unsigned s =
            std::strcmp(t, "msa256") == 0 ? std::max(1u, scale / 2) : scale;
        double base_wall = 0.0;
        for (unsigned n : counts) {
            ThreadedResult r = runThreaded(t, n, s, reps);
            if (n == 1)
                base_wall = r.wallSec;
            r.speedup = r.wallSec > 0.0 ? base_wall / r.wallSec : 0.0;
            std::printf("%-8s --threads %u  ticks/s=%-9llu wall=%.3fs "
                        "speedup=%.2fx\n",
                        r.name.c_str(), r.threads,
                        (unsigned long long)(r.ticks / r.wallSec), r.wallSec,
                        r.speedup);
            rows.push_back(std::move(r));
        }
    }
    return rows;
}

void
writeJson(std::ostream &os, const char *mode, unsigned scale, unsigned reps,
          const std::vector<Result> &results,
          const std::vector<ThreadedResult> &threaded)
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
    os << "\n]";
    if (!threaded.empty()) {
        os << ",\"threaded\":{\"workload\":\"radiosity\",\"hostThreads\":"
           << std::thread::hardware_concurrency() << ",\"rows\":[";
        first = true;
        for (const ThreadedResult &r : threaded) {
            if (!first)
                os << ",";
            first = false;
            os << "\n  {\"name\":\"" << r.name << "\",\"cores\":" << r.cores
               << ",\"threads\":" << r.threads << ",\"scale\":" << r.scale
               << ",\"ticks\":" << r.ticks << ",\"events\":" << r.events
               << ",\"wallSec\":" << r.wallSec
               << ",\"ticksPerSec\":" << std::uint64_t(r.ticks / r.wallSec)
               << ",\"speedup\":" << r.speedup << "}";
        }
        os << "\n]}";
    }
    os << "}}\n";
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
    double threads_gate = 1.8;
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
        } else if (a == "--threads-gate" && i + 1 < argc) {
            threads_gate = std::atof(argv[++i]);
        } else {
            std::fprintf(stderr,
                         "usage: simperf [--smoke] [--obs-overhead] "
                         "[--out FILE] [--check FILE] [--tolerance X] "
                         "[--threads-gate X]\n");
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

    // PDES sweep: msa64 and msa256 at --threads 1/2/4. The msa256
    // threads-4 row doubles as the scale-study smoke gate — it must
    // complete at all.
    std::vector<ThreadedResult> threaded =
        runThreadsSweep(scale, smoke ? 1 : 2);

    if (!out_path.empty()) {
        std::ofstream f(out_path);
        if (!f)
            fatal("simperf: cannot open %s", out_path.c_str());
        writeJson(f, mode, scale, reps, results, threaded);
        std::printf("wrote %s\n", out_path.c_str());
    }

    // Both gates are evaluated and reported before the exit code is
    // decided, so a failing threads gate never hides a serial
    // throughput regression (or the other way round).
    int failures = 0;

    // The speedup gate: msa64 at 4 threads must beat --threads 1 by
    // the configured factor. Only meaningful where 4 host threads can
    // actually run in parallel.
    const unsigned host_threads = std::thread::hardware_concurrency();
    if (threads_gate > 0.0 && host_threads >= 4) {
        for (const ThreadedResult &r : threaded) {
            if (r.name != "msa64" || r.threads != 4)
                continue;
            const bool ok = r.speedup >= threads_gate;
            std::printf("threads-gate msa64 %.2fx %s %.2fx  %s\n",
                        r.speedup, ok ? ">=" : "<", threads_gate,
                        ok ? "ok" : "FAILED");
            if (!ok) {
                std::fprintf(stderr,
                             "simperf: msa64 --threads 4 speedup %.2fx "
                             "below the %.2fx gate\n",
                             r.speedup, threads_gate);
                ++failures;
            }
        }
    } else if (threads_gate > 0.0) {
        std::printf("threads-gate skipped: host has %u hardware "
                    "thread(s), need 4\n",
                    host_threads);
    }

    if (check_path.empty())
        return failures ? 1 : 0;

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
        ++failures;
    }
    return failures ? 1 : 0;
}
