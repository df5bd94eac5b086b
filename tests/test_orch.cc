/**
 * @file
 * Campaign-engine tests: JSON parser, spec parsing and expansion,
 * manifest journal, process pool, outcome propagation through run
 * reports, crash-report durability, the worker-pool end-to-end path
 * (fork, exit-code classification, chaos kill + retry, resume), and
 * the misar_sim and misar_campaign command lines.
 */

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/run_report.hh"
#include "orch/aggregate.hh"
#include "orch/campaign_spec.hh"
#include "orch/engine.hh"
#include "orch/exit_codes.hh"
#include "orch/manifest.hh"
#include "orch/process_pool.hh"
#include "sim/logging.hh"
#include "system/presets.hh"
#include "util/json.hh"
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
    util::Json j = util::parseJson(
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
    util::Json j = util::parseJson(R"({"s": "Aé"})");
    EXPECT_EQ(j.at("s").stringOr(""), "A\xc3\xa9");
}

TEST(OrchJson, ReportsErrorsWithOffset)
{
    std::string err;
    util::Json j = util::parseJson("{\"a\": }", &err);
    EXPECT_TRUE(j.isNull());
    EXPECT_NE(err.find("offset"), std::string::npos);

    err.clear();
    util::parseJson("{\"a\": 1} trailing", &err);
    EXPECT_FALSE(err.empty());
}

TEST(OrchJson, UintOrRejectsNegativesAndNonNumbers)
{
    util::Json j = util::parseJson(R"({"neg": -5, "s": "x"})");
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

    // A repeated stats name would write its report column twice.
    spec = smokeSpec();
    spec.stats = {"sync.hwOps", "sync.hwOps"};
    EXPECT_EQ(spec.validate(), "duplicate stats name 'sync.hwOps'");
}

TEST(OrchSpec, RejectsUnknownKeysAndWrongTypes)
{
    // Each case changes one member of a valid spec. Read leniently,
    // each would run a different grid than written (a typo'd key or
    // a quoted number silently falls back to the default).
    auto spec = [](const std::string &preset, const std::string &extra) {
        return R"({"presets": [)" + preset + R"(], "apps": ["fft"])" +
               extra + "}";
    };
    // A valid preset object, or one with member @p m added.
    auto preset = [](const std::string &m = "") {
        return R"({"config": "msa-omu")" + (m.empty() ? "" : ", " + m) +
               "}";
    };
    struct Case
    {
        std::string preset, extra;
        const char *needle;
    };
    const Case cases[] = {
        {preset(), R"(, "seed": [7])", "unknown spec key 'seed'"},
        {preset(R"("entires": 1)"), "",
         "unknown preset key 'entires'"},
        {preset(), R"(, "obs": {"heatmaps": true})",
         "unknown \"obs\" key 'heatmaps'"},
        {preset(R"("entries": "1")"), "",
         "\"presets[0].entries\" must be a non-negative integer"},
        {preset(R"("entries": 1.5)"), "",
         "\"presets[0].entries\" must be a non-negative integer"},
        {preset(R"("entries": 5000000000)"), "",
         "\"presets[0].entries\" must be a non-negative integer"},
        {preset(R"("hwsync": "false")"), "",
         "\"presets[0].hwsync\" must be true or false"},
        {preset(R"("omu": 0)"), "",
         "\"presets[0].omu\" must be true or false"},
        {preset(R"("smt": -1)"), "",
         "\"presets[0].smt\" must be a non-negative integer"},
        {preset(R"("threads": 4)"), "",
         "unknown preset key 'threads'"},
        {preset(R"("seeds": [1, "2"])"), "",
         "\"presets[0].seeds\" must be an array of non-negative integers"},
        {R"("baseline", {"name": 3, "config": "msa-omu"})", "",
         "\"presets[1].name\" must be a string"},
        {R"({"config": ["msa-omu"]})", "",
         "\"presets[0].config\" must be a string"},
        {preset(), R"(, "name": 5)", "\"name\" must be a string"},
        {preset(), R"(, "seeds": ["3"])",
         "\"seeds\" must be an array of non-negative integers"},
        {preset(), R"(, "cores": 16)",
         "\"cores\" must be an array of non-negative integers"},
        {preset(), R"(, "reps": "2")",
         "\"reps\" must be a non-negative integer"},
        {preset(), R"(, "tickLimit": -1)",
         "\"tickLimit\" must be a non-negative integer"},
        {preset(), R"(, "timeoutSec": "60")",
         "\"timeoutSec\" must be a number"},
        {preset(), R"(, "maxRetries": true)",
         "\"maxRetries\" must be a non-negative integer"},
        {preset(), R"(, "baseline": ["msa-omu"])",
         "\"baseline\" must be a string"},
        {preset(), R"(, "stats": ["sync.hwOps", 1])",
         "\"stats\" must be an array of strings"},
        {preset(), R"(, "obs": {"sampleInterval": "1000"})",
         "\"obs.sampleInterval\" must be a non-negative integer"},
        {preset(), R"(, "obs": {"heatmap": 1})",
         "\"obs.heatmap\" must be true or false"},
        {preset(), R"(, "server": {"serviceDist": 1})",
         "\"server.serviceDist\" must be a string"},
        {preset(), R"(, "server": {"queueCap": "32"})",
         "\"server.queueCap\" must be a non-negative integer"},
        {preset(), R"(, "server": {"slo": "20000"})",
         "\"server.slo\" must be a non-negative integer"},
        {preset(),
         R"(, "server": {"retryPolicies": ["budgeted"],)"
         R"( "retryBudget": "0.1"})",
         "\"server.retryBudget\" must be a number"},
        {preset(), R"(, "server": {"retryPolicies": "none"})",
         "\"server.retryPolicies\" must be an array of strings"},
        {preset(), R"(, "server": {"tenantMixes": [13]})",
         "\"server.tenantMixes\" must be an array of strings"},
    };
    CampaignSpec s;
    std::string err;
    ASSERT_TRUE(CampaignSpec::parse(spec(preset(), ""), s, err)) << err;
    for (const Case &c : cases) {
        const std::string text = spec(c.preset, c.extra);
        SCOPED_TRACE(text);
        err.clear();
        EXPECT_FALSE(CampaignSpec::parse(text, s, err));
        EXPECT_NE(err.find(c.needle), std::string::npos) << err;
    }
}

TEST(OrchSpec, CheckedInSpecsParseAndValidate)
{
    unsigned specs = 0;
    for (const auto &f :
         std::filesystem::directory_iterator(MISAR_CAMPAIGN_SPEC_DIR)) {
        if (f.path().extension() != ".json")
            continue;
        SCOPED_TRACE(f.path().string());
        CampaignSpec spec;
        std::string err;
        EXPECT_TRUE(CampaignSpec::parseFile(f.path().string(), spec, err))
            << err;
        EXPECT_EQ(spec.validate(), "");
        EXPECT_FALSE(spec.expand().empty());
        ++specs;
    }
    EXPECT_GT(specs, 0u);
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

TEST(OrchPool, ReportsExitCodesAndSignals)
{
    const std::string dir = tmpDir();
    ProcessPool pool(2);
    std::map<unsigned, PoolOutcome> got;
    auto push = [&](unsigned id, std::function<int()> body) {
        PoolTask t;
        t.id = id;
        t.body = std::move(body);
        t.logPath = dir + "/" + std::to_string(id) + ".log";
        pool.push(t);
    };
    // Output the child leaves buffered must still reach its log.
    push(0, [] {
        std::printf("out\n");
        return 0;
    });
    push(1, [] { return 41; });
    push(2, [] {
        ::raise(SIGKILL);
        return 0;
    });
    pool.run([&](const PoolTask &t, const PoolOutcome &o) {
        got[t.id] = o;
    });

    ASSERT_EQ(got.size(), 3u);
    EXPECT_TRUE(got[0].exited);
    EXPECT_EQ(got[0].exitCode, 0);
    EXPECT_EQ(got[1].exitCode, 41);
    EXPECT_FALSE(got[2].exited);
    EXPECT_EQ(got[2].termSignal, SIGKILL);
    EXPECT_FALSE(got[2].timedOut);
    EXPECT_EQ(slurp(dir + "/0.log"), "out\n");
}

TEST(OrchPool, KillsTasksPastTheirDeadline)
{
    const std::string dir = tmpDir();
    ProcessPool pool(1);
    PoolTask t;
    t.id = 0;
    t.body = [] {
        ::sleep(30);
        return 0;
    };
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
    t.body = [] { return 3; };
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

    workload::RunResult r = workload::runAppWithConfig(
        workload::appByName("fft"), cfg, fl, 1, "msa-omu-faults");
    ASSERT_TRUE(r.finished);

    std::string err;
    util::Json doc = util::parseJsonFile(path, &err);
    ASSERT_TRUE(doc.isObj()) << err;
    const util::Json &meta = doc.at("meta");
    EXPECT_EQ(meta.at("outcome").stringOr(""),
              sys::runOutcomeName(r.outcome));
    EXPECT_EQ(meta.at("makespan").uintOr(0), r.makespan);
    EXPECT_EQ(meta.at("preset").stringOr(""), "msa-omu-faults");
    EXPECT_EQ(meta.at("seed").uintOr(0), 1u);
    EXPECT_NEAR(meta.at("hwCoverage").numberOr(-1), r.hwCoverage, 1e-6);

    // The report's block and the run's summary hold the same keys
    // and values, and parse back to the same summary.
    const util::Json &resil = doc.at("resilience");
    EXPECT_EQ(resil.obj.size(), r.resilience.values.size());
    for (const auto &[key, v] : r.resilience.values)
        EXPECT_EQ(resil.at(key).uintOr(99), v) << key;
    EXPECT_EQ(obs::parseResilience(resil).values, r.resilience.values);
    // Fault injection ran: at least one counter must be nonzero.
    EXPECT_GT(r.resilience["timeouts"] + r.resilience["retries"] +
                  r.resilience["abortedOps"] +
                  r.resilience["offlineSheds"],
              0u);

    const util::Json &counters = doc.at("stats").at("counters");
    EXPECT_EQ(counters.at("sync.hwOps").uintOr(0), r.hwOps);
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
    util::Json doc = util::parseJsonFile(path, &err);
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
    util::Json doc = util::parseJsonFile(path);
    ASSERT_TRUE(doc.isObj());
    EXPECT_EQ(doc.at("meta").at("outcome").stringOr(""), "panic");
}

// -------------------------------------------------------------- engine

namespace {

/**
 * One grid per job axis the smoke spec leaves at its default: the
 * server rate x retry-policy sweep with every server override, the
 * tenant-mix sweep, and an SMT preset. Each preset is named after
 * its config, the label misar_sim gives its runs.
 */
const char *const jobAxisGrids[] = {
    R"({"name": "rates-policies",
        "presets": [{"name": "msa-omu", "config": "msa-omu",
                     "entries": 16}],
        "apps": ["server-poisson"], "cores": [16], "seeds": [1, 2],
        "server": {"arrivalRates": [4, 8],
                   "retryPolicies": ["none", "budgeted"],
                   "slo": 20000, "queueCap": 32,
                   "retryBudget": 0.2},
        "timeoutSec": 120})",
    R"({"name": "tenants",
        "presets": [{"name": "msa-omu", "config": "msa-omu",
                     "entries": 16}],
        "apps": ["server-poisson"], "cores": [16], "seeds": [1, 2],
        "server": {"tenantMixes": ["2:2", "2:6"], "slo": 20000},
        "timeoutSec": 120})",
    R"({"name": "smt",
        "presets": [{"name": "msa-omu", "config": "msa-omu", "smt": 2}],
        "apps": ["fft"], "cores": [16],
        "timeoutSec": 120})",
};

/** misar_sim's flags for job @p j of @p spec. */
std::string
simFlags(const CampaignSpec &spec, const JobSpec &j)
{
    std::ostringstream os;
    os << "--app " << j.app << " --config " << j.preset.config
       << " --cores " << j.cores << " --entries " << j.preset.entries
       << " --seed " << j.seed << " --tick-limit " << spec.tickLimit;
    if (j.preset.smt != 1)
        os << " --smt " << j.preset.smt;
    if (!j.preset.hwsync)
        os << " --no-hwsync";
    if (!j.preset.omu)
        os << " --no-omu";
    if (j.arrivalRate > 0)
        os << " --arrival-rate " << formatRate(j.arrivalRate);
    if (!spec.server.serviceDist.empty())
        os << " --service-dist " << spec.server.serviceDist;
    if (spec.server.queueCap)
        os << " --queue-cap " << spec.server.queueCap;
    if (spec.server.slo)
        os << " --slo " << spec.server.slo;
    if (!j.retryPolicy.empty()) {
        os << " --retry-policy " << j.retryPolicy;
        // misar_sim accepts a budget only for the budgeted policy.
        if (spec.server.retryBudget > 0 && j.retryPolicy == "budgeted")
            os << " --retry-budget " << formatRate(spec.server.retryBudget);
    }
    if (!j.tenantMix.empty())
        os << " --tenants " << j.tenantMix;
    return os.str();
}

/** Run a shell command; its exit code, with stdout+stderr in @p out. */
int
runCommand(const std::string &cmd, std::string &out)
{
    FILE *p = ::popen((cmd + " 2>&1").c_str(), "r");
    EXPECT_NE(p, nullptr) << cmd;
    if (!p)
        return -1;
    char buf[512];
    out.clear();
    while (std::fgets(buf, sizeof(buf), p))
        out += buf;
    const int st = ::pclose(p);
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

} // namespace


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
    // The spec's stats counters flowed into the cell aggregation.
    const Cell *cell = rep.cell("MSA", "fft", 16);
    ASSERT_NE(cell, nullptr);
    EXPECT_GT(rep.column(*cell, "stats.sync.hwOps").agg.mean(), 0.0);
}

TEST(OrchEngine, SubprocessMatchesInProcessAndResumes)
{
    CampaignSpec spec = smokeSpec();

    const std::string dir = tmpDir();
    EngineOptions opts;
    opts.outDir = dir + "/fresh";
    opts.workers = 2;
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
    // Both executors resolve, run and record each job through the
    // same code, so every job's run report and the three campaign
    // report files must agree byte for byte.
    const std::string dir = tmpDir();
    for (const char *text : jobAxisGrids) {
        CampaignSpec spec;
        std::string err;
        ASSERT_TRUE(CampaignSpec::parse(text, spec, err)) << err;
        ASSERT_EQ(spec.validate(), "");
        SCOPED_TRACE(spec.name);

        EngineOptions opts;
        opts.outDir = dir + "/" + spec.name;
        opts.workers = 2;
        opts.verbose = false;
        std::vector<JobRecord> sub;
        CampaignRunStats stats;
        ASSERT_TRUE(runCampaign(spec, opts, sub, stats, err)) << err;
        auto inprocReport = [&](unsigned id) {
            return opts.outDir + "-inproc-" + std::to_string(id) + ".json";
        };
        InProcessHooks hooks;
        hooks.tweak = [&](const JobSpec &j, SystemConfig &cfg) {
            cfg.obs.statsJsonPath = inprocReport(j.id);
        };
        const std::vector<JobRecord> inproc =
            runCampaignInProcess(spec, hooks);
        ASSERT_EQ(sub.size(), inproc.size());
        for (const JobRecord &r : sub) {
            EXPECT_EQ(r.outcome, JobOutcome::Finished) << r.job.key();
            EXPECT_EQ(slurp(opts.outDir + "/" + jobReportRelPath(r.job.id)),
                      slurp(inprocReport(r.job.id)))
                << r.job.key();
        }

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

TEST(OrchEngine, SimFlagsReproduceSpecJobs)
{
    // Campaign jobs do not go through misar_sim, so this pins its
    // flags to the spec's jobs: run with the flags that describe a
    // job, misar_sim writes the job's in-process report byte for
    // byte.
    const std::string dir = tmpDir();
    for (const char *text : jobAxisGrids) {
        CampaignSpec spec;
        std::string err;
        ASSERT_TRUE(CampaignSpec::parse(text, spec, err)) << err;
        ASSERT_EQ(spec.validate(), "");
        SCOPED_TRACE(spec.name);

        auto path = [&](const char *executor, unsigned id) {
            return dir + "/" + spec.name + "-" + executor + "-" +
                   std::to_string(id) + ".json";
        };
        InProcessHooks hooks;
        hooks.tweak = [&](const JobSpec &j, SystemConfig &cfg) {
            cfg.obs.statsJsonPath = path("inproc", j.id);
        };
        const std::vector<JobRecord> inproc =
            runCampaignInProcess(spec, hooks);
        ASSERT_EQ(inproc.size(), spec.expand().size());
        for (const JobSpec &j : spec.expand()) {
            SCOPED_TRACE(j.key());
            const std::string flags = simFlags(spec, j);
            std::string out;
            EXPECT_EQ(runCommand(std::string(MISAR_SIM_PATH) + " " + flags +
                                     " --stats-json " + path("sim", j.id),
                                 out),
                      0)
                << flags << "\n"
                << out;
            const std::string report = slurp(path("inproc", j.id));
            EXPECT_FALSE(report.empty());
            EXPECT_EQ(slurp(path("sim", j.id)), report) << flags;
        }
    }
}

TEST(OrchEngine, ResumeRejectsChangedGrid)
{
    CampaignSpec spec = smokeSpec();
    const std::string dir = tmpDir();
    EngineOptions opts;
    opts.outDir = dir;
    opts.workers = 2;
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
    util::Json doc =
        util::parseJsonFile(dir + "/" + jobReportRelPath(0), &err);
    ASSERT_TRUE(doc.isObj()) << err;
    EXPECT_EQ(doc.at("meta").at("outcome").stringOr(""),
              "limit-reached");
}

// --------------------------------------------------------------- report

namespace {

/** RFC 4180 text as rows of fields. */
std::vector<std::vector<std::string>>
parseCsv(const std::string &text)
{
    std::vector<std::vector<std::string>> rows(1, {""});
    bool quoted = false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char ch = text[i];
        std::string &field = rows.back().back();
        if (quoted && ch == '"' && i + 1 < text.size() && text[i + 1] == '"')
            field += text[i++];
        else if (ch == '"')
            quoted = !quoted;
        else if (quoted || (ch != ',' && ch != '\n'))
            field += ch;
        else if (ch == ',')
            rows.back().emplace_back();
        else
            rows.push_back({""});
    }
    rows.pop_back(); // after the final line break
    return rows;
}

} // namespace

TEST(OrchReport, CsvQuotesFieldsThatNeedIt)
{
    // Preset names and stats counters come straight from the spec.
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(CampaignSpec::parse(
        R"({"name": "q",
            "presets": [
                {"name": "MSA, 2 entries", "config": "msa-omu",
                 "entries": 2},
                {"name": "say \"hi\"\nthere", "config": "baseline"}
            ],
            "apps": ["fft"], "cores": [16],
            "stats": ["odd,counter"]})",
        spec, err))
        << err;
    ASSERT_EQ(spec.validate(), "");
    std::vector<JobRecord> records; // jobs that never ran
    for (const JobSpec &j : spec.expand()) {
        records.emplace_back();
        records.back().job = j;
    }
    std::ostringstream os;
    CampaignReport(spec, records).writeCsv(os);

    const auto rows = parseCsv(os.str());
    ASSERT_EQ(rows.size(), 3u) << os.str();
    for (const auto &row : rows)
        EXPECT_EQ(row.size(), rows[0].size()) << os.str();
    EXPECT_EQ(rows[0][0], "preset");
    EXPECT_NE(std::find(rows[0].begin(), rows[0].end(), "odd,counter_mean"),
              rows[0].end());
    EXPECT_EQ(rows[1][0], "MSA, 2 entries");
    EXPECT_EQ(rows[2][0], "say \"hi\"\nthere");
    EXPECT_EQ(rows[2][1], "fft");
}

TEST(OrchReport, ColumnsReadOnlyTheBlocksAReportHas)
{
    // Two finished jobs of one cell. The first report has a server
    // block without "goodput" or "retries" and a lone "hi" tenant;
    // the second has neither, nor a hardware coverage.
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(CampaignSpec::parse(
        R"({"name": "c",
            "presets": [{"name": "MSA", "config": "msa-omu"}],
            "apps": ["fft"], "cores": [16], "seeds": [1, 2],
            "stats": ["sync.hwOps"]})",
        spec, err))
        << err;
    ASSERT_EQ(spec.validate(), "");
    const char *const reports[] = {
        R"({"meta": {"makespan": 100, "hwCoverage": 0.5},
            "stats": {"counters": {"sync.hwOps": 7}},
            "server": {"throughput": 2.5, "knee": true,
                       "tenants": [{"name": "hi", "goodput": 1.5,
                                    "rejected": 2, "rejectedSlo": 3}]}})",
        R"({"meta": {"makespan": 300}, "stats": {"counters": {}}})",
    };
    std::vector<JobRecord> records;
    for (const JobSpec &j : spec.expand()) {
        records.emplace_back();
        records.back().job = j;
        records.back().outcome = JobOutcome::Finished;
        ingestReport(records.back(), spec,
                     util::parseJson(reports[records.size() - 1]));
    }
    EXPECT_EQ(records[1].makespan, 300u);

    const CampaignReport rep(spec, records);
    ASSERT_EQ(rep.cells().size(), 1u);
    const Cell &c = rep.cells()[0];
    // Keys missing from a block the report has read 0.
    EXPECT_EQ(rep.column(c, "makespan").agg.mean(), 200.0);
    EXPECT_EQ(rep.column(c, "hwCoverage").agg.n, 2u);
    EXPECT_EQ(rep.column(c, "hwCoverage").agg.mean(), 0.25);
    EXPECT_EQ(rep.column(c, "stats.sync.hwOps").agg.mean(), 3.5);
    EXPECT_EQ(rep.column(c, "server.goodput").agg.mean(), 0.0);
    EXPECT_EQ(rep.column(c, "server.retries").agg.n, 1u);
    // Blocks count only the jobs whose report has them.
    EXPECT_EQ(rep.column(c, "pressure.jobs").count, 0u);
    EXPECT_EQ(rep.column(c, "server.jobs").count, 1u);
    EXPECT_EQ(rep.column(c, "server.knee").count, 1u);
    EXPECT_EQ(rep.column(c, "server.throughput").agg.n, 1u);
    EXPECT_EQ(rep.column(c, "tenants.jobs").count, 1u);
    EXPECT_EQ(rep.column(c, "hi.rejected").agg.mean(), 5.0);
    EXPECT_EQ(rep.column(c, "lo.goodput").agg.n, 0u);
}

// ------------------------------------------------------------------ cli

TEST(OrchCli, BadCampaignFlagsAreRejected)
{
    // --dry-run: a flag that slipped through would exit 0 here.
    const std::string base = std::string(MISAR_CAMPAIGN_PATH) + " --spec " +
                             MISAR_CAMPAIGN_SPEC_DIR + "/smoke.json " +
                             "--dry-run ";
    struct Case
    {
        const char *args;
        const char *needle;
    };
    const Case cases[] = {
        {"--workers -1", "--workers expects a decimal number, got '-1'"},
        {"--workers abc", "--workers expects a decimal number, got 'abc'"},
        {"--workers 4x", "--workers expects a decimal number, got '4x'"},
        {"--workers 4294967296", "--workers 4294967296 is out of range"},
        {"--stop-after x",
         "--stop-after expects a positive decimal number, got 'x'"},
        {"--stop-after 0",
         "--stop-after expects a positive decimal number, got '0'"},
        {"--chaos-kill-job x",
         "--chaos-kill-job expects a decimal number, got 'x'"},
        {"--chaos-kill-job -1",
         "--chaos-kill-job expects a decimal number, got '-1'"},
        {"--chaos-kill-job 2147483648",
         "--chaos-kill-job 2147483648 is out of range"},
    };
    std::string out;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.args);
        EXPECT_EQ(runCommand(base + c.args, out), 1) << out;
        EXPECT_NE(out.find(c.needle), std::string::npos) << out;
    }
    // 0 workers still means hardware concurrency, and job 0 is a
    // valid chaos target.
    EXPECT_EQ(runCommand(base + "--workers 0 --chaos-kill-job 0 "
                                "--stop-after 1",
                         out),
              0)
        << out;
}

