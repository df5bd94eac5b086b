#include "orch/engine.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "orch/aggregate.hh"
#include "orch/exit_codes.hh"
#include "orch/manifest.hh"
#include "orch/process_pool.hh"
#include "sim/logging.hh"
#include "util/json.hh"
#include "workload/runner.hh"

namespace misar {
namespace orch {

namespace {

double
nowSec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

bool
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST)
        return true;
    warn("cannot create directory %s: %s", path.c_str(),
         std::strerror(errno));
    return false;
}

/** Last lines of a (log) file, capped; failure context for reports. */
std::string
readTail(const std::string &path, std::size_t maxLines = 12,
         std::size_t maxBytes = 2000)
{
    std::ifstream f(path);
    if (!f)
        return "";
    std::deque<std::string> tail;
    std::string line;
    while (std::getline(f, line)) {
        tail.push_back(line);
        if (tail.size() > maxLines)
            tail.pop_front();
    }
    std::string out;
    for (const std::string &l : tail) {
        out += l;
        out += '\n';
    }
    if (out.size() > maxBytes)
        out.erase(0, out.size() - maxBytes);
    return out;
}

std::string
jobLogRelPath(unsigned jobId)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "jobs/job_%06u.log", jobId);
    return buf;
}

std::string
jobHeatmapRelPath(unsigned jobId)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "jobs/job_%06u.heatmap.json", jobId);
    return buf;
}

/**
 * Live campaign progress: <outDir>/status.json, rewritten atomically
 * (tmp + fsync + rename) on every spawn and completion so a poller
 * never reads a torn document. Status carries wall-clock data — an
 * EWMA job-completion rate and an ETA — which is exactly why it is a
 * separate file: the final report.* files are byte-compared across
 * worker counts and resume boundaries and must stay time-free.
 */
class StatusWriter
{
  public:
    StatusWriter(std::string path, std::string campaign,
                 unsigned jobs_total, unsigned jobs_skipped)
        : path(std::move(path)), campaign(std::move(campaign)),
          total(jobs_total), skipped(jobs_skipped), t0(nowSec())
    {
    }

    /** A job reached a terminal state: fold into the EWMA rate. */
    void
    onJobDone()
    {
        const double now = nowSec();
        const double dt =
            std::max(now - (doneSeen ? lastDone : t0), 1e-9);
        ewmaInterval =
            doneSeen ? 0.3 * dt + 0.7 * ewmaInterval : dt;
        ++doneSeen;
        lastDone = now;
    }

    double
    jobsPerSec() const
    {
        return ewmaInterval > 0.0 ? 1.0 / ewmaInterval : 0.0;
    }

    double
    etaSec(unsigned done) const
    {
        const unsigned remaining = total > done ? total - done : 0;
        return jobsPerSec() > 0.0 ? remaining * ewmaInterval : 0.0;
    }

    void
    write(unsigned done, unsigned running, unsigned failed,
          unsigned retries, unsigned attempts, bool complete)
    {
        std::ostringstream os;
        util::JsonWriter w(os);
        w.beginObject();
        w.kv("schemaVersion", 1);
        w.kv("campaign", campaign);
        w.kv("jobsTotal", total);
        w.kv("jobsDone", done);
        w.kv("jobsRunning", running);
        w.kv("jobsFailed", failed);
        w.kv("jobsSkipped", skipped);
        w.kv("retries", retries);
        w.kv("attempts", attempts);
        w.kv("elapsedSec", nowSec() - t0, 3);
        w.kv("jobsPerSec", jobsPerSec(), 4);
        w.kv("etaSec", etaSec(done), 1);
        w.kv("complete", complete);
        w.endObject();
        os << "\n";
        writeAtomic(os.str());
    }

  private:
    void
    writeAtomic(const std::string &body)
    {
        const std::string tmp = path + ".tmp";
        int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd < 0)
            return; // status is best-effort; never fail the campaign
        std::size_t off = 0;
        while (off < body.size()) {
            ssize_t n = ::write(fd, body.data() + off, body.size() - off);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                ::close(fd);
                ::unlink(tmp.c_str());
                return;
            }
            off += static_cast<std::size_t>(n);
        }
        ::fsync(fd);
        ::close(fd);
        ::rename(tmp.c_str(), path.c_str());
    }

    std::string path;
    std::string campaign;
    unsigned total;
    unsigned skipped;
    double t0;
    double lastDone = 0.0;
    double ewmaInterval = 0.0;
    unsigned doneSeen = 0;
};

/** The outcome of a job that exited with @p code (exit_codes.hh). */
JobOutcome
outcomeOfExit(int code)
{
    switch (code) {
      case exitFinished:
        return JobOutcome::Finished;
      case exitDeadlock:
        return JobOutcome::Deadlock;
      case exitTickLimit:
        return JobOutcome::TickLimit;
      case exitFatal:
        return JobOutcome::Error;
      default:
        return JobOutcome::Crash;
    }
}

JobOutcome
classify(const PoolOutcome &o)
{
    if (o.timedOut)
        return JobOutcome::Timeout;
    if (!o.exited)
        return JobOutcome::Crash;
    return outcomeOfExit(o.exitCode);
}

/**
 * Run job @p j of @p spec: the one job function of both executors.
 * The profiler is always armed: it adds the report's syncVars.
 */
sys::RunOutcome
runJob(const CampaignSpec &spec, const JobSpec &j,
       const InProcessHooks &hooks, std::string *report)
{
    JobRun run = resolveJob(j, spec.server);
    run.cfg.obs.profileSync = true;
    run.cfg.obs.sampleInterval = spec.obs.sampleInterval;
    run.cfg.obs.heatmapEnabled = spec.obs.heatmap;
    if (hooks.tweak)
        hooks.tweak(j, run.cfg);
    run.cfg.validate();

    workload::RunOptions ro;
    ro.tickLimit = spec.tickLimit;
    ro.report = report;
    return workload::runAppWithConfig(run.app, run.cfg, run.flavor, j.seed,
                                      j.preset.name, ro)
        .outcome;
}

} // namespace

std::string
jobReportRelPath(unsigned jobId)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "jobs/job_%06u.json", jobId);
    return buf;
}

bool
runCampaign(const CampaignSpec &spec, const EngineOptions &opts,
            std::vector<JobRecord> &out, CampaignRunStats &stats,
            std::string &err)
{
    const std::vector<JobSpec> jobs = spec.expand();
    const std::uint64_t hash = spec.gridHash();

    if (!ensureDir(opts.outDir) || !ensureDir(opts.outDir + "/jobs")) {
        err = "cannot create campaign directory " + opts.outDir;
        return false;
    }
    const std::string manifestPath = opts.outDir + "/manifest.jsonl";

    // Journaled terminal states from a previous (interrupted) run.
    std::map<unsigned, ManifestEntry> done;
    bool fresh = true;
    if (opts.resume) {
        struct stat st;
        if (::stat(manifestPath.c_str(), &st) == 0) {
            std::vector<ManifestEntry> entries;
            if (!Manifest::load(manifestPath, spec.name, hash, entries,
                                err))
                return false;
            for (ManifestEntry &e : entries) {
                if (e.job >= jobs.size() ||
                    jobs[e.job].key() != e.key) {
                    err = "manifest entry for job " +
                          std::to_string(e.job) +
                          " does not match the spec's grid";
                    return false;
                }
                done[e.job] = std::move(e);
            }
            fresh = false;
        }
    }

    Manifest manifest;
    if (!manifest.open(manifestPath, spec.name, jobs.size(), hash,
                       fresh)) {
        err = "cannot open manifest " + manifestPath;
        return false;
    }

    unsigned workers = opts.workers
                           ? opts.workers
                           : std::max(1u,
                                      std::thread::hardware_concurrency());
    ProcessPool pool(workers);

    stats = CampaignRunStats{};
    stats.workers = workers;
    stats.jobsTotal = static_cast<unsigned>(jobs.size());
    stats.jobsSkipped = static_cast<unsigned>(done.size());

    std::map<unsigned, unsigned> attempts;  // job id -> spawns
    std::map<unsigned, double> jobWallSec;  // summed over attempts
    bool stopped = false;
    unsigned completedNow = 0;
    unsigned runningNow = 0;
    unsigned retriesNow = 0;
    unsigned failedNow = 0;
    for (const auto &d : done)
        failedNow += d.second.outcome != "finished";
    StatusWriter status(opts.outDir + "/status.json", spec.name,
                        static_cast<unsigned>(jobs.size()),
                        static_cast<unsigned>(done.size()));

    // Where a worker's job leaves the artifacts ingestion reads.
    InProcessHooks artifacts;
    artifacts.tweak = [&](const JobSpec &j, SystemConfig &cfg) {
        cfg.obs.statsJsonPath = opts.outDir + "/" + jobReportRelPath(j.id);
        if (spec.obs.heatmap)
            cfg.obs.heatmapJsonPath =
                opts.outDir + "/" + jobHeatmapRelPath(j.id);
    };
    auto makeTask = [&](const JobSpec &j) {
        PoolTask t;
        t.id = j.id;
        t.body = [&spec, &j, &artifacts] {
            return exitCodeFor(runJob(spec, j, artifacts, nullptr));
        };
        t.logPath = opts.outDir + "/" + jobLogRelPath(j.id);
        t.timeoutSec = spec.timeoutSec;
        return t;
    };

    const double t0 = nowSec();
    for (const JobSpec &j : jobs) {
        if (done.count(j.id))
            continue;
        // A fresh attempt must not inherit artifacts of a previous
        // (crashed or stale) attempt.
        ::unlink((opts.outDir + "/" + jobReportRelPath(j.id)).c_str());
        ::unlink((opts.outDir + "/" + jobLogRelPath(j.id)).c_str());
        ::unlink((opts.outDir + "/" + jobHeatmapRelPath(j.id)).c_str());
        pool.push(makeTask(j));
    }
    status.write(static_cast<unsigned>(done.size()), 0, failedNow,
                 retriesNow, stats.attempts, done.size() == jobs.size());

    auto onSpawn = [&](const PoolTask &t, pid_t pid) {
        ++attempts[t.id];
        ++stats.attempts;
        ++runningNow;
        if (static_cast<int>(t.id) == opts.chaosKillJob &&
            attempts[t.id] == 1) {
            warn("chaos: killing job %u's first attempt (pid %d)", t.id,
                 static_cast<int>(pid));
            ::kill(pid, SIGKILL);
        }
        status.write(static_cast<unsigned>(done.size()), runningNow,
                     failedNow, retriesNow, stats.attempts, false);
    };

    auto onDone = [&](const PoolTask &t, const PoolOutcome &o) {
        const JobSpec &j = jobs[t.id];
        JobOutcome oc = classify(o);
        jobWallSec[t.id] += o.wallSec;
        if (runningNow)
            --runningNow;

        if (jobOutcomeRetryable(oc) && attempts[t.id] <= spec.maxRetries &&
            !stopped) {
            if (opts.verbose)
                inform("job %u (%s) %s; retrying (%u/%u)", t.id,
                       j.key().c_str(), jobOutcomeName(oc),
                       attempts[t.id], spec.maxRetries);
            ::unlink(
                (opts.outDir + "/" + jobReportRelPath(t.id)).c_str());
            ::unlink(
                (opts.outDir + "/" + jobHeatmapRelPath(t.id)).c_str());
            ++retriesNow;
            status.write(static_cast<unsigned>(done.size()), runningNow,
                         failedNow, retriesNow, stats.attempts, false);
            pool.push(makeTask(j));
            return;
        }

        ManifestEntry e;
        e.job = t.id;
        e.key = j.key();
        e.outcome = jobOutcomeName(oc);
        e.exitCode = o.exited ? o.exitCode : -1;
        e.termSignal = o.exited ? 0 : o.termSignal;
        e.attempts = attempts[t.id];
        e.wallSec = jobWallSec[t.id];
        e.report = jobReportRelPath(t.id);
        manifest.append(e);
        done[t.id] = e;
        ++completedNow;
        ++stats.jobsRun;
        status.onJobDone();
        failedNow += oc != JobOutcome::Finished;
        status.write(static_cast<unsigned>(done.size()), runningNow,
                     failedNow, retriesNow, stats.attempts,
                     done.size() == jobs.size());
        if (opts.progress)
            std::fprintf(stderr,
                         "\r[%zu/%zu] running=%u failed=%u retries=%u "
                         "%.2f jobs/s eta %.0fs   ",
                         done.size(), jobs.size(), runningNow, failedNow,
                         retriesNow, status.jobsPerSec(),
                         status.etaSec(
                             static_cast<unsigned>(done.size())));
        if (opts.verbose)
            inform("job %u/%zu %s -> %s (%.2fs)", t.id, jobs.size(),
                   j.key().c_str(), jobOutcomeName(oc), o.wallSec);

        if (opts.stopAfter >= 0 &&
            completedNow >= static_cast<unsigned>(opts.stopAfter) &&
            !stopped) {
            warn("stop-after %d reached; not dispatching further jobs",
                 opts.stopAfter);
            stopped = true;
            pool.cancelQueued();
        }
    };

    pool.run(onDone, onSpawn);
    manifest.close();
    if (opts.progress)
        std::fprintf(stderr, "\n");

    stats.wallSec = nowSec() - t0;
    stats.busySec = pool.busySec();
    stats.complete = done.size() == jobs.size();
    status.write(static_cast<unsigned>(done.size()), 0, failedNow,
                 retriesNow, stats.attempts, stats.complete);

    // Aggregation input: every journaled job re-read from its report
    // in id order, so report bytes depend only on the grid and the
    // simulations — not on scheduling, retries, or resume boundaries.
    out.clear();
    out.reserve(jobs.size());
    for (const JobSpec &j : jobs) {
        JobRecord r;
        r.job = j;
        auto it = done.find(j.id);
        if (it != done.end()) {
            r.outcome = jobOutcomeFromName(it->second.outcome);
            const std::string path = opts.outDir + "/" + it->second.report;
            std::string perr;
            const util::Json doc = util::parseJsonFile(path, &perr);
            if (!doc.isObj() && r.outcome == JobOutcome::Finished)
                warn("job %u: unreadable run report %s (%s)", j.id,
                     path.c_str(), perr.c_str());
            ingestReport(r, spec, doc);
            if (r.outcome != JobOutcome::Finished)
                r.note =
                    readTail(opts.outDir + "/" + jobLogRelPath(j.id));
        }
        out.push_back(std::move(r));
    }
    return true;
}

std::vector<JobRecord>
runCampaignInProcess(const CampaignSpec &spec, const InProcessHooks &hooks)
{
    std::vector<JobRecord> out;
    for (const JobSpec &j : spec.expand()) {
        std::string report;
        JobRecord r;
        r.job = j;
        r.outcome = outcomeOfExit(
            exitCodeFor(runJob(spec, j, hooks, &report)));
        ingestReport(r, spec, util::parseJson(report));
        out.push_back(std::move(r));
    }
    return out;
}

} // namespace orch
} // namespace misar
