/**
 * @file
 * repro: regenerate the reproduction's figures (results/) in one run.
 *
 *   repro OUTDIR [FIGURE...]
 *
 * writes OUTDIR/<figure>.txt for each named figure, or for all 15.
 * The grid figures are planned first (see bench/repro.hh). A fork
 * pool as wide as this process's CPU affinity mask then runs each
 * whole-figure task and each distinct job once; a job's worker
 * leaves its run report at OUTDIR/jobs/<job>.json, and every
 * worker's stderr goes to OUTDIR/repro.log. Last, the grid figures
 * render from the reports. Nothing depends on the worker count, so
 * `taskset -c 0 repro OUTDIR` writes the same files serially.
 *
 * One summary line goes to stderr: figures, jobs declared, jobs run,
 * whole-figure tasks, workers and wall seconds. Exits 1 naming each
 * figure whose own checks fail, and 2 on a usage error.
 */

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>

#include "bench/repro.hh"
#include "orch/job.hh"
#include "orch/process_pool.hh"
#include "sim/logging.hh"
#include "util/json.hh"
#include "workload/runner.hh"

namespace misar {
namespace bench {

std::uint64_t
JobResult::counter(const std::string &name) const
{
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

double
JobResult::hwCoverage() const
{
    const double hw = static_cast<double>(counter("sync.hwOps"));
    const double sw = static_cast<double>(counter("sync.swOps"));
    return (hw + sw) > 0 ? hw / (hw + sw) : 0.0;
}

const JobResult &
Runner::operator()(const Job &job)
{
    const auto it = std::find(jobs.begin(), jobs.end(), job);
    if (results.empty()) { // the plan pass
        static const JobResult standIn;
        ++declared;
        if (it == jobs.end())
            jobs.push_back(job);
        return standIn;
    }
    if (it == jobs.end())
        panic("a figure asked for a job its plan pass did not declare");
    return results[it - jobs.begin()];
}

orch::CampaignSpec
loadSpec(const std::string &file)
{
    const std::string path = MISAR_CAMPAIGN_SPEC_DIR "/" + file;
    orch::CampaignSpec spec;
    std::string err;
    if (!orch::CampaignSpec::parseFile(path, spec, err))
        fatal("%s: %s", path.c_str(), err.c_str());
    err = spec.validate();
    if (!err.empty())
        fatal("%s: %s", path.c_str(), err.c_str());
    return spec;
}

SpecResults
runSpec(Runner &run, const orch::CampaignSpec &spec)
{
    SpecResults out;
    for (const orch::JobSpec &j : spec.expand()) {
        const orch::JobRun jr = orch::resolveJob(j, spec.server);
        out[{j.preset.name, j.app, j.cores}][j.seed] =
            &run({jr.app, jr.cfg, jr.flavor, j.seed, spec.tickLimit});
    }
    return out;
}

const JobResult &
finished(const SpecResults &results, const std::string &preset,
         const std::string &app, unsigned cores, std::uint64_t seed)
{
    const JobResult &r = *results.at({preset, app, cores}).at(seed);
    if (!r.finished)
        fatal("%s on %s (seed %llu) did not finish", app.c_str(),
              preset.c_str(), static_cast<unsigned long long>(seed));
    return r;
}

} // namespace bench
} // namespace misar

using namespace misar;
using namespace misar::bench;

namespace {

struct Figure
{
    const char *name;
    int (*grid)(Runner &); ///< a grid figure, or
    int (*whole)();        ///< a whole-figure task
};

const Figure figures[] = {
    {"fig5_raw_latency", nullptr, fig5RawLatency},
    {"fig6_speedup", fig6Speedup, nullptr},
    {"fig7_coverage", fig7Coverage, nullptr},
    {"fig8_hwsync_opt", fig8HwsyncOpt, nullptr},
    {"fig9_breakdown", fig9Breakdown, nullptr},
    {"ablation_msa_entries", ablationMsaEntries, nullptr},
    {"ablation_omu_counters", ablationOmuCounters, nullptr},
    {"ablation_noc_latency", ablationNocLatency, nullptr},
    {"ablation_sw_algos", nullptr, ablationSwAlgos},
    {"ablation_suspend", nullptr, ablationSuspend},
    {"multiprogram", nullptr, multiprogram},
    {"ext_rwlock", nullptr, extRwlock},
    {"resil_degradation", resilDegradation, nullptr},
    {"server_tail", nullptr, serverTail},
    {"server_overload", nullptr, serverOverload},
};

/** Point stdout, where the figures print, at @p path. */
void
stdoutTo(const std::string &path)
{
    if (!std::freopen(path.c_str(), "w", stdout))
        fatal("cannot write %s", path.c_str());
}

JobResult
readReport(const std::string &path)
{
    std::string err;
    const util::Json doc = util::parseJsonFile(path, &err);
    if (!doc.isObj())
        fatal("%s: %s", path.c_str(), err.c_str());
    JobResult r;
    r.finished = doc.at("meta").at("outcome").stringOr("") == "finished";
    r.makespan = doc.at("meta").at("makespan").uintOr(0);
    r.resilience = obs::parseResilience(doc.at("resilience"));
    for (const auto &[name, v] : doc.at("stats").at("counters").obj)
        r.counters.emplace(name, v.uintOr(0));
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const int named = std::max(argc - 2, 0); // FIGURE arguments
    std::vector<const Figure *> chosen;
    for (const Figure &f : figures)
        if (!named ||
            std::count(argv + 2, argv + 2 + named, std::string(f.name)))
            chosen.push_back(&f);
    if (argc < 2 || (named && chosen.size() != unsigned(named))) {
        std::fprintf(stderr, "usage: repro OUTDIR [FIGURE...]\n");
        return 2;
    }
    const std::string dir = argv[1];
    ::mkdir(dir.c_str(), 0755);
    if (::mkdir((dir + "/jobs").c_str(), 0755) != 0 && errno != EEXIST)
        fatal("cannot create %s/jobs", dir.c_str());
    const std::string log = dir + "/repro.log";
    std::remove(log.c_str());
    auto report = [&](unsigned job) {
        return dir + "/jobs/" + std::to_string(job) + ".json";
    };
    const auto t0 = std::chrono::steady_clock::now();

    // Figures print their tables to stdout: nowhere while planning,
    // and to the figure's own file when it runs or renders.
    stdoutTo("/dev/null");
    Runner run;
    for (const Figure *f : chosen)
        if (f->grid)
            f->grid(run);

    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    ::sched_getaffinity(0, sizeof(cpus), &cpus);
    orch::ProcessPool pool(CPU_COUNT(&cpus));
    const unsigned nJobs = static_cast<unsigned>(run.jobs.size());
    auto out = [&](unsigned i) {
        return dir + "/" + chosen[i]->name + ".txt";
    };
    // Whole-figure tasks first: each takes longer than most jobs.
    const auto tasks = std::count_if(chosen.begin(), chosen.end(),
                                     [](const Figure *f) { return f->whole; });
    for (unsigned i = 0; i < chosen.size(); ++i)
        if (chosen[i]->whole)
            pool.push({nJobs + i,
                       [f = chosen[i], path = out(i)] {
                           stdoutTo(path);
                           return f->whole();
                       },
                       log});
    for (unsigned i = 0; i < nJobs; ++i)
        pool.push({i,
                   [&run, i, path = report(i)] {
                       const Job &j = run.jobs[i];
                       SystemConfig cfg = j.cfg;
                       cfg.obs.statsJsonPath = path;
                       workload::RunOptions opts;
                       opts.tickLimit = j.tickLimit;
                       workload::runAppWithConfig(j.app, cfg, j.flavor,
                                                  j.seed, "", opts);
                       return 0;
                   },
                   log});
    std::vector<unsigned> failed;
    pool.run([&](const orch::PoolTask &t, const orch::PoolOutcome &o) {
        if (!o.exited || o.exitCode != 0)
            failed.push_back(t.id);
    });
    for (unsigned id : failed)
        if (id < nJobs)
            fatal("job %u (%s) failed; see %s", id,
                  run.jobs[id].app.name.c_str(), log.c_str());

    // The render pass.
    for (unsigned i = 0; i < nJobs; ++i)
        run.results.push_back(readReport(report(i)));
    for (unsigned i = 0; i < chosen.size(); ++i) {
        if (!chosen[i]->grid)
            continue;
        stdoutTo(out(i));
        if (chosen[i]->grid(run))
            failed.push_back(nJobs + i);
    }
    std::fflush(stdout);

    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - t0;
    std::fprintf(stderr,
                 "repro: %zu figures, %u jobs declared, %u run, %td "
                 "whole-figure tasks, %u workers, %.1f s\n",
                 chosen.size(), run.declared, nJobs, tasks, pool.workers(),
                 wall.count());
    std::sort(failed.begin(), failed.end());
    for (unsigned id : failed)
        std::fprintf(stderr, "repro: %s failed\n", chosen[id - nJobs]->name);
    return failed.empty() ? 0 : 1;
}
