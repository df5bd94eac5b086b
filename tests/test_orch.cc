/**
 * @file
 * Campaign-engine tests: JSON parser, spec expansion, manifest
 * journal, process pool, outcome propagation through run reports,
 * crash-report durability, and the subprocess end-to-end path
 * (spawn, exit-code classification, chaos kill + retry, resume).
 */

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/run_report.hh"
#include "orch/aggregate.hh"
#include "orch/campaign_spec.hh"
#include "orch/engine.hh"
#include "orch/exit_codes.hh"
#include "orch/json.hh"
#include "orch/manifest.hh"
#include "orch/process_pool.hh"
#include "sim/logging.hh"
#include "system/presets.hh"
#include "workload/app_catalog.hh"
#include "workload/runner.hh"

using namespace misar;
using namespace misar::orch;

namespace {

std::string
tmpDir()
{
    char tmpl[] = "/tmp/misar_orch_XXXXXX";
    const char *d = ::mkdtemp(tmpl);
    EXPECT_NE(d, nullptr);
    return d;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::stringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

/** A tiny 2x2x2 spec used by the engine tests (fast apps). */
CampaignSpec
smokeSpec()
{
    CampaignSpec spec;
    std::string err;
    const std::string text = R"({
        "name": "t",
        "presets": [
            {"name": "Base", "config": "baseline"},
            {"name": "MSA", "config": "msa-omu", "entries": 2}
        ],
        "apps": ["fft"],
        "cores": [16],
        "seeds": [1, 2],
        "baseline": "Base",
        "stats": ["sync.hwOps"],
        "timeoutSec": 120
    })";
    EXPECT_TRUE(CampaignSpec::parse(text, spec, err)) << err;
    EXPECT_EQ(spec.validate(), "");
    return spec;
}

} // namespace

// ---------------------------------------------------------------- JSON

TEST(OrchJson, ParsesScalarsArraysObjects)
{
    std::string err;
    Json j = parseJson(
        R"({"a": 1.5, "b": [true, null, "x\n\"y\""], "n": -3})", &err);
    ASSERT_TRUE(j.isObj()) << err;
    EXPECT_DOUBLE_EQ(j.at("a").numberOr(0), 1.5);
    EXPECT_EQ(j.at("n").numberOr(0), -3);
    ASSERT_TRUE(j.at("b").isArr());
    EXPECT_TRUE(j.at("b").arr[0].boolOr(false));
    EXPECT_TRUE(j.at("b").arr[1].isNull());
    EXPECT_EQ(j.at("b").arr[2].stringOr(""), "x\n\"y\"");
    EXPECT_FALSE(j.has("missing"));
    EXPECT_TRUE(j.at("missing").isNull());
}

TEST(OrchJson, DecodesUnicodeEscapes)
{
    Json j = parseJson(R"({"s": "Aé"})");
    EXPECT_EQ(j.at("s").stringOr(""), "A\xc3\xa9");
}

TEST(OrchJson, ReportsErrorsWithOffset)
{
    std::string err;
    Json j = parseJson("{\"a\": }", &err);
    EXPECT_TRUE(j.isNull());
    EXPECT_NE(err.find("offset"), std::string::npos);

    err.clear();
    parseJson("{\"a\": 1} trailing", &err);
    EXPECT_FALSE(err.empty());
}

TEST(OrchJson, UintOrRejectsNegativesAndNonNumbers)
{
    Json j = parseJson(R"({"neg": -5, "s": "x"})");
    EXPECT_EQ(j.at("neg").uintOr(7), 7u);
    EXPECT_EQ(j.at("s").uintOr(7), 7u);
    EXPECT_EQ(j.at("absent").uintOr(9), 9u);
}

// ---------------------------------------------------------------- spec

TEST(OrchSpec, ExpandsGridDeterministically)
{
    CampaignSpec spec = smokeSpec();
    std::vector<JobSpec> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 4u); // 2 presets x 1 app x 1 cores x 2 seeds
    for (unsigned i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobs[i].id, i);
    EXPECT_EQ(jobs[0].key(), "Base|fft|c16|s1|r0");
    EXPECT_EQ(jobs[3].key(), "MSA|fft|c16|s2|r0");
    EXPECT_EQ(spec.gridHash(), smokeSpec().gridHash());

    CampaignSpec other = smokeSpec();
    other.tickLimit += 1;
    EXPECT_NE(spec.gridHash(), other.gridHash());
}

TEST(OrchSpec, PresetSeedOverrideAndShorthandApps)
{
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(CampaignSpec::parse(
        R"({"presets": [{"name": "F", "config": "msa-omu-faults",
                         "seeds": [1, 2, 3]}],
            "apps": "headline"})",
        spec, err))
        << err;
    EXPECT_EQ(spec.validate(), "");
    EXPECT_EQ(spec.apps, workload::headlineApps());
    EXPECT_EQ(spec.expand().size(), 3 * spec.apps.size());
}

TEST(OrchSpec, ValidateCatchesBadInput)
{
    CampaignSpec spec = smokeSpec();
    spec.apps.push_back("no-such-app");
    EXPECT_NE(spec.validate().find("unknown app"), std::string::npos);

    spec = smokeSpec();
    spec.presets[0].config = "no-such-preset";
    EXPECT_NE(spec.validate().find("unknown preset"), std::string::npos);

    spec = smokeSpec();
    spec.cores = {15};
    EXPECT_NE(spec.validate().find("perfect square"), std::string::npos);

    spec = smokeSpec();
    spec.presets[1].name = spec.presets[0].name;
    EXPECT_NE(spec.validate().find("duplicate"), std::string::npos);

    spec = smokeSpec();
    spec.baseline = "nope";
    EXPECT_NE(spec.validate().find("baseline"), std::string::npos);
}

TEST(OrchSpec, OutcomeNamesRoundTrip)
{
    const JobOutcome all[] = {
        JobOutcome::Finished,   JobOutcome::Deadlock,
        JobOutcome::TickLimit,  JobOutcome::Error,
        JobOutcome::Crash,      JobOutcome::Timeout,
        JobOutcome::SpawnError, JobOutcome::Missing,
    };
    for (JobOutcome o : all)
        EXPECT_EQ(jobOutcomeFromName(jobOutcomeName(o)), o);
    EXPECT_TRUE(jobOutcomeRetryable(JobOutcome::Crash));
    EXPECT_TRUE(jobOutcomeRetryable(JobOutcome::Timeout));
    EXPECT_FALSE(jobOutcomeRetryable(JobOutcome::Deadlock));
    EXPECT_FALSE(jobOutcomeRetryable(JobOutcome::Error));
}

// ------------------------------------------------------------ manifest

TEST(OrchManifest, RoundTripsEntries)
{
    const std::string dir = tmpDir();
    const std::string path = dir + "/m.jsonl";

    Manifest m;
    ASSERT_TRUE(m.open(path, "camp", 3, 0xabcdULL, true));
    ManifestEntry e;
    e.job = 2;
    e.key = "K|fft|c16|s1|r0";
    e.outcome = "finished";
    e.exitCode = 0;
    e.attempts = 2;
    e.wallSec = 1.25;
    e.report = "jobs/job_000002.json";
    ASSERT_TRUE(m.append(e));
    m.close();

    std::vector<ManifestEntry> got;
    std::string err;
    ASSERT_TRUE(Manifest::load(path, "camp", 0xabcdULL, got, err)) << err;
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].job, 2u);
    EXPECT_EQ(got[0].key, e.key);
    EXPECT_EQ(got[0].outcome, "finished");
    EXPECT_EQ(got[0].attempts, 2u);
    EXPECT_EQ(got[0].report, e.report);
}

TEST(OrchManifest, ToleratesTornTrailingLine)
{
    const std::string dir = tmpDir();
    const std::string path = dir + "/m.jsonl";
    Manifest m;
    ASSERT_TRUE(m.open(path, "camp", 2, 1, true));
    ManifestEntry e;
    e.job = 0;
    e.key = "a";
    e.outcome = "finished";
    ASSERT_TRUE(m.append(e));
    m.close();
    {
        std::ofstream f(path, std::ios::app);
        f << "{\"job\":1,\"key\":\"b\",\"outc"; // torn mid-write
    }
    std::vector<ManifestEntry> got;
    std::string err;
    ASSERT_TRUE(Manifest::load(path, "camp", 1, got, err)) << err;
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].key, "a");
}

TEST(OrchManifest, RejectsMismatchedGrid)
{
    const std::string dir = tmpDir();
    const std::string path = dir + "/m.jsonl";
    Manifest m;
    ASSERT_TRUE(m.open(path, "camp", 2, 1, true));
    m.close();

    std::vector<ManifestEntry> got;
    std::string err;
    EXPECT_FALSE(Manifest::load(path, "camp", 2, got, err));
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_FALSE(Manifest::load(path, "other", 1, got, err));
    err.clear();
    EXPECT_FALSE(Manifest::load(dir + "/absent.jsonl", "camp", 1, got,
                                err));
}

// ---------------------------------------------------------------- pool

TEST(OrchPool, ReportsExitCodesAndExecFailures)
{
    const std::string dir = tmpDir();
    ProcessPool pool(2);
    std::map<unsigned, PoolOutcome> got;
    auto push = [&](unsigned id, std::vector<std::string> argv) {
        PoolTask t;
        t.id = id;
        t.argv = std::move(argv);
        t.logPath = dir + "/" + std::to_string(id) + ".log";
        pool.push(t);
    };
    push(0, {"/bin/sh", "-c", "echo out; exit 0"});
    push(1, {"/bin/sh", "-c", "exit 41"});
    push(2, {"/nonexistent/binary"});
    pool.run([&](const PoolTask &t, const PoolOutcome &o) {
        got[t.id] = o;
    });

    ASSERT_EQ(got.size(), 3u);
    EXPECT_TRUE(got[0].exited);
    EXPECT_EQ(got[0].exitCode, 0);
    EXPECT_EQ(got[1].exitCode, 41);
    EXPECT_EQ(got[2].exitCode, 127); // exec failure convention
    EXPECT_NE(slurp(dir + "/0.log").find("out"), std::string::npos);
}

TEST(OrchPool, KillsTasksPastTheirDeadline)
{
    const std::string dir = tmpDir();
    ProcessPool pool(1);
    PoolTask t;
    t.id = 0;
    t.argv = {"/bin/sh", "-c", "sleep 30"};
    t.logPath = dir + "/t.log";
    t.timeoutSec = 0.2;
    pool.push(t);
    PoolOutcome got;
    pool.run([&](const PoolTask &, const PoolOutcome &o) { got = o; });
    EXPECT_TRUE(got.timedOut);
    EXPECT_FALSE(got.exited);
    EXPECT_LT(got.wallSec, 10.0);
}

TEST(OrchPool, OnDoneMayPushRetries)
{
    const std::string dir = tmpDir();
    ProcessPool pool(2);
    PoolTask t;
    t.id = 7;
    t.argv = {"/bin/sh", "-c", "exit 3"};
    t.logPath = dir + "/t.log";
    pool.push(t);
    unsigned attempts = 0;
    pool.run([&](const PoolTask &task, const PoolOutcome &) {
        if (++attempts < 3)
            pool.push(task);
    });
    EXPECT_EQ(attempts, 3u);
    EXPECT_GT(pool.busySec(), 0.0);
}

// ------------------------------------------------------------- catalog

TEST(OrchCatalog, EveryAppResolvesAndUnknownIsNull)
{
    for (const workload::AppSpec &s : workload::appCatalog()) {
        const workload::AppSpec *f = workload::findApp(s.name);
        ASSERT_NE(f, nullptr) << s.name;
        EXPECT_EQ(f->name, s.name);
        EXPECT_EQ(&workload::appByName(s.name), f);
    }
    EXPECT_EQ(workload::findApp("no-such-app"), nullptr);
}

TEST(OrchCatalogDeathTest, AppByNameFailsCleanly)
{
    EXPECT_EXIT(workload::appByName("no-such-app"),
                ::testing::ExitedWithCode(1), "unknown application");
}

TEST(OrchCatalog, EveryCliPresetResolves)
{
    SystemConfig cfg;
    sync::SyncLib::Flavor fl;
    for (const std::string &name : sys::cliPresetNames()) {
        ASSERT_TRUE(sys::cliPresetFor(name, 16, 2, cfg, fl)) << name;
        cfg.validate();
        // The scale-study meshes pin their own core count; every
        // other preset takes the caller's.
        if (name == "msa256")
            EXPECT_EQ(cfg.numCores, 256u);
        else if (name == "msa1024")
            EXPECT_EQ(cfg.numCores, 1024u);
        else
            EXPECT_EQ(cfg.numCores, 16u) << name;
    }
    EXPECT_FALSE(sys::cliPresetFor("bogus", 16, 2, cfg, fl));
}

// ------------------------------------------- run-report round-trip

TEST(OrchRunReport, ResultRoundTripsThroughJson)
{
    const std::string dir = tmpDir();
    const std::string path = dir + "/report.json";

    // The faulted preset produces nonzero resilience counters, so
    // the round-trip checks more than zeros.
    SystemConfig cfg;
    sync::SyncLib::Flavor fl;
    ASSERT_TRUE(sys::cliPresetFor("msa-omu-faults", 16, 2, cfg, fl));
    cfg.obs.statsJsonPath = path;
    cfg.validate();

    workload::RunOptions opts;
    std::vector<std::string> capture = {"sync.hwOps", "noc.packetsSent"};
    opts.captureCounters = &capture;
    workload::RunResult r = workload::runAppWithConfig(
        workload::appByName("fft"), cfg, fl, 1, "msa-omu-faults", opts);
    ASSERT_TRUE(r.finished);

    std::string err;
    Json doc = parseJsonFile(path, &err);
    ASSERT_TRUE(doc.isObj()) << err;
    const Json &meta = doc.at("meta");
    EXPECT_EQ(meta.at("outcome").stringOr(""),
              sys::runOutcomeName(r.outcome));
    EXPECT_EQ(meta.at("makespan").uintOr(0), r.makespan);
    EXPECT_EQ(meta.at("preset").stringOr(""), "msa-omu-faults");
    EXPECT_EQ(meta.at("seed").uintOr(0), 1u);
    EXPECT_NEAR(meta.at("hwCoverage").numberOr(-1), r.hwCoverage, 1e-6);

    // The report's block and the run's summary hold the same keys
    // and values, and parse back to the same summary.
    const Json &resil = doc.at("resilience");
    EXPECT_EQ(resil.obj.size(), r.resilience.values.size());
    for (const auto &[key, v] : r.resilience.values)
        EXPECT_EQ(resil.at(key).uintOr(99), v) << key;
    EXPECT_EQ(obs::parseResilience(resil).values, r.resilience.values);
    // Fault injection ran: at least one counter must be nonzero.
    EXPECT_GT(r.resilience["timeouts"] + r.resilience["retries"] +
                  r.resilience["abortedOps"] +
                  r.resilience["offlineSheds"],
              0u);

    const Json &counters = doc.at("stats").at("counters");
    EXPECT_EQ(counters.at("sync.hwOps").uintOr(0), r.hwOps);
    EXPECT_EQ(r.captured.at("sync.hwOps"), r.hwOps);
    EXPECT_EQ(counters.at("noc.packetsSent").uintOr(0),
              r.captured.at("noc.packetsSent"));
}

TEST(OrchRunReportDeathTest, FatalStillWritesDurableReport)
{
    const std::string dir = tmpDir();
    const std::string path = dir + "/crash.json";
    EXPECT_EXIT(
        {
            SystemConfig cfg;
            sync::SyncLib::Flavor fl;
            sys::cliPresetFor("msa-omu", 16, 2, cfg, fl);
            cfg.obs.statsJsonPath = path;
            cfg.validate();
            sys::System s(cfg);
            obs::RunMeta meta;
            meta.app = "t";
            obs::CrashReportGuard guard(path, s, meta, 4);
            fatal("boom");
        },
        ::testing::ExitedWithCode(1), "boom");
    std::string err;
    Json doc = parseJsonFile(path, &err);
    ASSERT_TRUE(doc.isObj()) << err;
    EXPECT_EQ(doc.at("meta").at("outcome").stringOr(""), "fatal");
}

TEST(OrchRunReportDeathTest, PanicStillWritesDurableReport)
{
    const std::string dir = tmpDir();
    const std::string path = dir + "/crash.json";
    EXPECT_EXIT(
        {
            SystemConfig cfg;
            sync::SyncLib::Flavor fl;
            sys::cliPresetFor("msa-omu", 16, 2, cfg, fl);
            cfg.obs.statsJsonPath = path;
            cfg.validate();
            sys::System s(cfg);
            obs::RunMeta meta;
            meta.app = "t";
            obs::CrashReportGuard guard(path, s, meta, 4);
            panic("invariant");
        },
        ::testing::KilledBySignal(SIGABRT), "invariant");
    Json doc = parseJsonFile(path);
    ASSERT_TRUE(doc.isObj());
    EXPECT_EQ(doc.at("meta").at("outcome").stringOr(""), "panic");
}

// -------------------------------------------------------------- engine

TEST(OrchEngine, InProcessRunsAreDeterministic)
{
    CampaignSpec spec = smokeSpec();
    std::vector<JobRecord> a = runCampaignInProcess(spec);
    std::vector<JobRecord> b = runCampaignInProcess(spec);
    ASSERT_EQ(a.size(), 4u);
    for (const JobRecord &r : a)
        EXPECT_EQ(r.outcome, JobOutcome::Finished) << r.job.key();

    std::ostringstream ja, jb;
    CampaignReport(spec, a).writeJson(ja);
    CampaignReport(spec, b).writeJson(jb);
    EXPECT_EQ(ja.str(), jb.str());

    // MSA beats the pthread baseline on fft: a sane speedup cell.
    CampaignReport rep(spec, a);
    std::vector<double> sp = rep.speedups("MSA", "fft", 16);
    ASSERT_EQ(sp.size(), 2u);
    for (double s : sp)
        EXPECT_GT(s, 0.5);
    // Captured counters flowed into the cell aggregation.
    const Cell *cell = rep.cell("MSA", "fft", 16);
    ASSERT_NE(cell, nullptr);
    EXPECT_GT(cell->counters.at("sync.hwOps").mean(), 0.0);
}

TEST(OrchEngine, SubprocessMatchesInProcessAndResumes)
{
    CampaignSpec spec = smokeSpec();

    const std::string dir = tmpDir();
    EngineOptions opts;
    opts.outDir = dir + "/fresh";
    opts.workers = 2;
    opts.simPath = MISAR_SIM_PATH;
    opts.verbose = false;

    std::vector<JobRecord> sub;
    CampaignRunStats stats;
    std::string err;
    ASSERT_TRUE(runCampaign(spec, opts, sub, stats, err)) << err;
    EXPECT_TRUE(stats.complete);
    EXPECT_EQ(stats.jobsRun, 4u);

    // Subprocess and in-process execution agree on the simulation
    // results (and therefore on the aggregated report bytes).
    std::vector<JobRecord> inproc = runCampaignInProcess(spec);
    ASSERT_EQ(sub.size(), inproc.size());
    for (std::size_t i = 0; i < sub.size(); ++i) {
        EXPECT_EQ(sub[i].outcome, JobOutcome::Finished);
        EXPECT_EQ(sub[i].makespan, inproc[i].makespan) << i;
        EXPECT_EQ(sub[i].hwOps, inproc[i].hwOps) << i;
        EXPECT_EQ(sub[i].counters, inproc[i].counters) << i;
    }
    std::ostringstream jsub, jin;
    CampaignReport(spec, sub).writeJson(jsub);
    CampaignReport(spec, inproc).writeJson(jin);
    EXPECT_EQ(jsub.str(), jin.str());

    // Chaos: kill job 1's first attempt (retry covers it), stop
    // early, then resume; the resumed campaign's report must equal
    // the uninterrupted one byte for byte.
    EngineOptions chaos = opts;
    chaos.outDir = dir + "/chaos";
    chaos.chaosKillJob = 1;
    chaos.stopAfter = 1;
    std::vector<JobRecord> part;
    ASSERT_TRUE(runCampaign(spec, chaos, part, stats, err)) << err;
    EXPECT_FALSE(stats.complete);
    EXPECT_GT(stats.attempts, stats.jobsRun); // the chaos retry

    EngineOptions resume = chaos;
    resume.chaosKillJob = -1;
    resume.stopAfter = -1;
    resume.resume = true;
    std::vector<JobRecord> full;
    ASSERT_TRUE(runCampaign(spec, resume, full, stats, err)) << err;
    EXPECT_TRUE(stats.complete);
    EXPECT_GT(stats.jobsSkipped, 0u);

    std::ostringstream jfull;
    CampaignReport(spec, full).writeJson(jfull);
    EXPECT_EQ(jfull.str(), jsub.str());
}

TEST(OrchEngine, ExecutorsAgreeOnEveryJobAxis)
{
    // One grid per job axis the smoke spec leaves at its default: the
    // server rate x retry-policy sweep with every server override,
    // the tenant-mix sweep, and an SMT preset. Both executors resolve,
    // run and record each job through the same code, so the three
    // report files must agree byte for byte.
    const char *texts[] = {
        R"({"name": "rates-policies",
            "presets": [{"name": "MSA", "config": "msa-omu",
                         "entries": 16}],
            "apps": ["server-poisson"], "cores": [16], "seeds": [1, 2],
            "server": {"arrivalRates": [4, 8],
                       "retryPolicies": ["none", "budgeted"],
                       "slo": 20000, "queueCap": 32,
                       "retryBudget": 0.2},
            "timeoutSec": 120})",
        R"({"name": "tenants",
            "presets": [{"name": "MSA", "config": "msa-omu",
                         "entries": 16}],
            "apps": ["server-poisson"], "cores": [16], "seeds": [1, 2],
            "server": {"tenantMixes": ["2:2", "2:6"], "slo": 20000},
            "timeoutSec": 120})",
        R"({"name": "smt",
            "presets": [{"name": "MSA-SMT2", "config": "msa-omu",
                         "smt": 2}],
            "apps": ["fft"], "cores": [16],
            "timeoutSec": 120})",
    };
    const std::string dir = tmpDir();
    for (const char *text : texts) {
        CampaignSpec spec;
        std::string err;
        ASSERT_TRUE(CampaignSpec::parse(text, spec, err)) << err;
        ASSERT_EQ(spec.validate(), "");
        SCOPED_TRACE(spec.name);

        EngineOptions opts;
        opts.outDir = dir + "/" + spec.name;
        opts.workers = 2;
        opts.simPath = MISAR_SIM_PATH;
        opts.verbose = false;
        std::vector<JobRecord> sub;
        CampaignRunStats stats;
        ASSERT_TRUE(runCampaign(spec, opts, sub, stats, err)) << err;
        const std::vector<JobRecord> inproc = runCampaignInProcess(spec);
        ASSERT_EQ(sub.size(), inproc.size());
        for (const JobRecord &r : sub)
            EXPECT_EQ(r.outcome, JobOutcome::Finished) << r.job.key();

        const CampaignReport a(spec, sub), b(spec, inproc);
        std::ostringstream ja, jb, ca, cb, ta, tb;
        a.writeJson(ja);
        b.writeJson(jb);
        a.writeCsv(ca);
        b.writeCsv(cb);
        a.writeTable(ta);
        b.writeTable(tb);
        EXPECT_EQ(ja.str(), jb.str());
        EXPECT_EQ(ca.str(), cb.str());
        EXPECT_EQ(ta.str(), tb.str());
    }
}

TEST(OrchEngine, ResumeRejectsChangedGrid)
{
    CampaignSpec spec = smokeSpec();
    const std::string dir = tmpDir();
    EngineOptions opts;
    opts.outDir = dir;
    opts.workers = 2;
    opts.simPath = MISAR_SIM_PATH;
    opts.verbose = false;

    std::vector<JobRecord> recs;
    CampaignRunStats stats;
    std::string err;
    ASSERT_TRUE(runCampaign(spec, opts, recs, stats, err)) << err;

    CampaignSpec changed = spec;
    changed.seeds = {1, 3};
    EngineOptions resume = opts;
    resume.resume = true;
    EXPECT_FALSE(runCampaign(changed, resume, recs, stats, err));
    EXPECT_FALSE(err.empty());
}

TEST(OrchEngine, ClassifiesTickLimitFromExitCode)
{
    // A 10k-tick budget is far too small for fft: misar_sim exits
    // with the tick-limit code, and the engine must classify it,
    // journal it as non-retryable, and aggregate it as failed.
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(CampaignSpec::parse(
        R"({"name": "tl",
            "presets": [{"name": "MSA", "config": "msa-omu"}],
            "apps": ["fft"], "cores": [16],
            "tickLimit": 10000, "timeoutSec": 120})",
        spec, err))
        << err;
    ASSERT_EQ(spec.validate(), "");

    const std::string dir = tmpDir();
    EngineOptions opts;
    opts.outDir = dir;
    opts.workers = 1;
    opts.simPath = MISAR_SIM_PATH;
    opts.verbose = false;

    std::vector<JobRecord> recs;
    CampaignRunStats stats;
    ASSERT_TRUE(runCampaign(spec, opts, recs, stats, err)) << err;
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].outcome, JobOutcome::TickLimit);
    EXPECT_EQ(stats.attempts, 1u); // deterministic: no retry
    EXPECT_FALSE(recs[0].note.empty()); // log tail captured

    CampaignReport rep(spec, recs);
    EXPECT_EQ(rep.outcomeCount(JobOutcome::TickLimit), 1u);
    ASSERT_EQ(rep.failures().size(), 1u);

    // The simulator still flushed a report before the nonzero exit;
    // its outcome field carries the truncation through.
    Json doc = parseJsonFile(dir + "/" + jobReportRelPath(0), &err);
    ASSERT_TRUE(doc.isObj()) << err;
    EXPECT_EQ(doc.at("meta").at("outcome").stringOr(""),
              "limit-reached");
}
