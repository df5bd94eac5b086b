/**
 * @file
 * misar_campaign: parallel, fault-tolerant experiment orchestration.
 *
 * Expands a JSON campaign spec (presets x apps x cores x seeds x
 * reps) into a job list, runs each job in a forked worker process
 * (which calls the job function the in-process executor calls) under
 * a pool with wall-clock timeouts and bounded retries, journals
 * every terminal job to an append-only manifest (so --resume
 * completes an interrupted campaign), and aggregates the per-job
 * run reports into one campaign report:
 *
 *   <out-dir>/report.json   machine-readable cells + failures
 *   <out-dir>/report.csv    one row per (cell, metric)
 *   <out-dir>/report.txt    human-readable table
 *   <out-dir>/spec.json     the spec as executed (provenance)
 *   <out-dir>/manifest.jsonl  the journal (timing, attempts)
 *   <out-dir>/jobs/         per-job run reports, heatmaps + logs
 *
 * A per-job report's meta.preset is the spec's preset name. A job's
 * log holds what the run printed: nothing for a finished job, the
 * warnings and the fatal or panic line of a failed one. No misar_sim
 * binary is involved, so there is no --sim flag, and no job ends as
 * "spawn-error" (the outcome keeps its report key).
 *
 * The three report files depend only on the spec and the simulation
 * results — never on worker count, retries, or resume boundaries —
 * so a campaign resumed after a kill reproduces the uninterrupted
 * report byte for byte.
 *
 * Exit codes: 0 all jobs finished; 2 campaign complete but some
 * jobs failed (deadlock/tick-limit/crash/...); 75 campaign
 * incomplete (--stop-after or setup abort) — rerun with --resume.
 */

#include <climits>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.hh"
#include "orch/aggregate.hh"
#include "orch/campaign_spec.hh"
#include "orch/engine.hh"
#include "orch/exit_codes.hh"
#include "sim/logging.hh"

using namespace misar;
using namespace misar::cli;
using namespace misar::orch;

namespace {

void
usage()
{
    std::printf(
        "usage: misar_campaign --spec FILE [options]\n"
        "options:\n"
        "  --out-dir DIR    output directory (default campaign-out)\n"
        "  --workers N      parallel jobs (default or 0: hw concurrency)\n"
        "  --resume         skip jobs already in DIR's manifest\n"
        "  --dry-run        print the expanded job list and exit\n"
        "  --bench-out FILE write host-side throughput metrics JSON\n"
        "  --quiet          suppress per-job progress lines\n"
        "  --progress       live one-line stderr ticker (done/running/\n"
        "                   failed, EWMA job rate, ETA); the same data\n"
        "                   is always in <out-dir>/status.json, which\n"
        "                   is atomically rewritten as jobs spawn and\n"
        "                   finish (watch with: watch cat status.json)\n"
        "failure injection (CI/testing):\n"
        "  --chaos-kill-job N  SIGKILL job N's first attempt\n"
        "  --stop-after N      stop dispatching after N completions\n"
        "exit codes: 0 ok, 2 jobs failed, 75 incomplete (resume)\n");
}

bool
writeFile(const std::string &path, const std::string &body)
{
    std::ofstream f(path);
    if (!f) {
        warn("cannot open %s", path.c_str());
        return false;
    }
    f << body;
    return f.good();
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spec_path;
    EngineOptions opts;
    bool dry_run = false;
    std::string bench_out;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            return argv[++i];
        };
        if (a == "--spec") {
            spec_path = next();
        } else if (a == "--out-dir") {
            opts.outDir = next();
        } else if (a == "--workers") {
            opts.workers = parseUnsignedArg("--workers", next(),
                                            /*allow_zero=*/true);
        } else if (a == "--resume") {
            opts.resume = true;
        } else if (a == "--dry-run") {
            dry_run = true;
        } else if (a == "--bench-out") {
            bench_out = next();
        } else if (a == "--quiet") {
            opts.verbose = false;
        } else if (a == "--progress") {
            opts.progress = true;
            opts.verbose = false; // ticker and per-job lines clash
        } else if (a == "--chaos-kill-job") {
            opts.chaosKillJob = static_cast<int>(parseDecimalArg(
                "--chaos-kill-job", next(), /*allow_zero=*/true, INT_MAX));
        } else if (a == "--stop-after") {
            opts.stopAfter = static_cast<int>(parseDecimalArg(
                "--stop-after", next(), /*allow_zero=*/false, INT_MAX));
        } else if (a == "--help" || a == "-h") {
            usage();
            return 0;
        } else {
            usage();
            fatal("unknown option %s", a.c_str());
        }
    }
    if (spec_path.empty()) {
        usage();
        return exitFatal;
    }

    std::ifstream sf(spec_path);
    if (!sf)
        fatal("cannot open spec %s", spec_path.c_str());
    std::stringstream ss;
    ss << sf.rdbuf();
    const std::string spec_text = ss.str();

    CampaignSpec spec;
    std::string err;
    if (!CampaignSpec::parse(spec_text, spec, err))
        fatal("%s: %s", spec_path.c_str(), err.c_str());
    err = spec.validate();
    if (!err.empty())
        fatal("%s: %s", spec_path.c_str(), err.c_str());

    const std::vector<JobSpec> jobs = spec.expand();
    if (dry_run) {
        std::printf("campaign %s: %zu jobs\n", spec.name.c_str(),
                    jobs.size());
        for (const JobSpec &j : jobs)
            std::printf("%6u  %s\n", j.id, j.key().c_str());
        return 0;
    }

    inform("campaign %s: %zu jobs", spec.name.c_str(), jobs.size());

    std::vector<JobRecord> records;
    CampaignRunStats stats;
    if (!runCampaign(spec, opts, records, stats, err))
        fatal("%s", err.c_str());

    // Provenance: the spec as executed lives beside its results.
    writeFile(opts.outDir + "/spec.json", spec_text);

    CampaignReport report(spec, records);
    {
        std::ofstream f(opts.outDir + "/report.json");
        report.writeJson(f);
    }
    {
        std::ofstream f(opts.outDir + "/report.csv");
        report.writeCsv(f);
    }
    {
        std::ofstream f(opts.outDir + "/report.txt");
        report.writeTable(f);
        std::ostringstream table;
        report.writeTable(table);
        std::fputs(table.str().c_str(), stdout);
    }

    if (!bench_out.empty()) {
        char buf[512];
        std::snprintf(
            buf, sizeof(buf),
            "{\"schemaVersion\":1,\"campaign\":\"%s\","
            "\"workers\":%u,\"jobsTotal\":%u,\"jobsRun\":%u,"
            "\"jobsSkipped\":%u,\"attempts\":%u,"
            "\"wallSec\":%.3f,\"busySec\":%.3f,"
            "\"jobsPerSec\":%.3f,\"workerUtilization\":%.3f}\n",
            spec.name.c_str(), stats.workers, stats.jobsTotal,
            stats.jobsRun, stats.jobsSkipped, stats.attempts,
            stats.wallSec, stats.busySec,
            stats.wallSec > 0.0 ? stats.jobsRun / stats.wallSec : 0.0,
            stats.workerUtilization());
        writeFile(bench_out, buf);
    }

    const unsigned finished = report.outcomeCount(JobOutcome::Finished);
    const unsigned missing = report.outcomeCount(JobOutcome::Missing);
    inform("campaign %s: %u/%zu finished, %u failed, %u not run "
           "(%.1fs wall, %u workers, %.0f%% utilization)",
           spec.name.c_str(), finished, jobs.size(),
           static_cast<unsigned>(jobs.size()) - finished - missing,
           missing, stats.wallSec, stats.workers,
           100.0 * stats.workerUtilization());
    inform("report: %s/report.{json,csv,txt}", opts.outDir.c_str());

    if (!stats.complete) {
        warn("campaign incomplete; rerun with --resume to finish");
        return exitCampaignIncomplete;
    }
    if (finished != jobs.size())
        return exitCampaignJobsFailed;
    return 0;
}
