/**
 * @file
 * Reproduction benchmark program. Runs one named workload at one seed,
 * serially in this process, and prints its metrics as the last line
 * of standard output:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
 *
 * With --trace 0 the line holds the end-to-end metrics; with
 * --trace 1 it holds the per-layer metrics, and the spans recorded
 * around every call into the simulator are written to
 * DIR/spans-NAME-seedN.json. Host time is thread-CPU time, scaled to
 * a fixed host speed by a probe (hostProbe()). See perfbench/README.md
 * for the workloads and the metric definitions.
 */

#include <unistd.h>
#include <time.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <queue>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/run_report.hh"
#include "orch/aggregate.hh"
#include "orch/campaign_spec.hh"
#include "orch/engine.hh"
#include "sim/logging.hh"
#include "srv/server_app.hh"
#include "sync/sync_lib.hh"
#include "system/presets.hh"
#include "system/system.hh"
#include "util/json.hh"
#include "workload/app_catalog.hh"
#include "workload/synthetic_app.hh"

using namespace misar;

namespace {

constexpr Tick tickLimit = 2000000000ULL;

/** Thread-CPU seconds: the simulator is single-threaded, so this is
 *  its host cost without the time the VM spends running others. */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/** Monotonic wall seconds, used only to bound the run's length. */
double
wallNow()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * Peak resident set of this process image in MiB. getrusage()'s
 * ru_maxrss is not used: it also counts the image exec() replaced,
 * which for a program started from Python is the interpreter.
 */
double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    for (std::string line; std::getline(f, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    fatal("no VmHWM in /proc/self/status");
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------------
// Host speed

/**
 * Median time of hostProbe() in a quiet spell of the host this
 * benchmark was sized on (4-vCPU KVM guest on a Xeon Sapphire Rapids
 * host), in thread-CPU seconds. Host times are reported at this speed.
 */
constexpr double probeNominal = 0.036;

/** Keeps the probe's result live. */
volatile std::uint64_t probeSink = 0;

/**
 * A fixed piece of work shaped like the simulator's inner loop: pop the
 * earliest event from a heap, update a hashed per-object record, branch
 * on it, schedule a follow-up. Returns its thread-CPU seconds. It is
 * not simulator code, so no change to src/ moves it; only the host
 * does. The shared host this benchmark was sized on has spells of
 * minutes in which such code runs up to 1.75x slower on every core
 * (contention for the physical core, not for memory: a pointer chase
 * through 16 MiB does not slow), and the probe slows with the
 * simulator through them, if less in the worst of them.
 */
double
hostProbe()
{
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    const double t0 = cpuNow();
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::unordered_map<std::uint32_t, std::uint64_t> records;
    std::mt19937_64 rng(42);
    for (std::uint32_t id = 0; id < 4096; ++id)
        queue.push({rng() % 1000, id});
    std::uint64_t acc = 0;
    for (unsigned n = 0; n < 200000; ++n) {
        const auto [when, id] = queue.top();
        queue.pop();
        std::uint64_t &r = records[(id * 2654435761u) % 200000];
        r += when;
        if (r & 1)
            acc += r;
        else
            acc ^= when;
        queue.push({when + 1 + rng() % 64, id});
    }
    probeSink = acc;
    return cpuNow() - t0;
}

// ---------------------------------------------------------------------
// Spans

/** One traced call, in thread-CPU seconds since the process began. */
struct Span
{
    std::string name;
    int parent = -1; ///< index into the span list; -1 at the root
    double start = 0.0;
    double end = 0.0;
};

/**
 * In-memory span log. While off (every untraced pass) open() and
 * close() only test a flag, so untraced passes time the same calls.
 */
class SpanLog
{
  public:
    bool on = false;

    int
    open(const char *name)
    {
        if (!on)
            return -1;
        spans.push_back({name, current, cpuNow(), 0.0});
        current = int(spans.size()) - 1;
        return current;
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans[id].end = cpuNow();
        current = spans[id].parent;
    }

    std::size_t size() const { return spans.size(); }

    /** Summed duration of the spans named @p name from index @p from. */
    double
    total(const std::string &name, std::size_t from) const
    {
        double t = 0.0;
        for (std::size_t i = from; i < spans.size(); ++i)
            if (spans[i].name == name)
                t += spans[i].end - spans[i].start;
        return t;
    }

    /** Write every span as one JSON array (one span per line). */
    void
    write(std::ostream &os, const std::string &workload,
          std::uint64_t seed) const
    {
        util::JsonWriter w(os);
        w.beginArray();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            w.newline();
            w.beginObject();
            w.kv("id", std::uint64_t(i));
            w.kv("name", spans[i].name);
            w.kv("parent", std::int64_t(spans[i].parent));
            w.kv("start_s", spans[i].start, 9);
            w.kv("end_s", spans[i].end, 9);
            w.kv("workload", workload);
            w.kv("seed", seed);
            w.endObject();
        }
        w.newline();
        w.endArray();
        os << "\n";
    }

  private:
    std::vector<Span> spans;
    int current = -1;
};

/** Records a span for the lifetime of the scope. */
class Scope
{
  public:
    Scope(SpanLog &log, const char *name) : log(log), id(log.open(name)) {}
    ~Scope() { log.close(id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    SpanLog &log;
    int id;
};

// ---------------------------------------------------------------------
// Per-simulation records

/** Layer counts summed over a pass's simulations. */
struct Tally
{
    std::uint64_t events = 0, chunkAllocs = 0;
    std::uint64_t heapCallbacks = 0, maxPending = 0;
    std::uint64_t packets = 0, latCount = 0;
    double latSum = 0.0;
    std::uint64_t l1Hits = 0, l1Misses = 0, l1Invalidations = 0;
    std::uint64_t llcTransactions = 0;
    std::uint64_t loads = 0, stores = 0, atomics = 0, syncInstrs = 0;
    std::uint64_t msaRequests = 0, msaAllocations = 0, msaEvictions = 0;
    std::uint64_t omuIncrements = 0, silentLocks = 0;
    std::uint64_t hwOps = 0, swOps = 0, abortedOps = 0;
    std::uint64_t syncWaitSamples = 0;
    srv::ServerStats srvSum; ///< counts summed over server simulations
};

/** FNV-1a over @p s, continuing from @p h. */
void
fnv(std::uint64_t &h, const std::string &s)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    h ^= 0xff; // field separator
    h *= 1099511628211ULL;
}

/** Order-stable hash of a parsed JSON value (objects are key-sorted). */
void
hashJson(std::uint64_t &h, const util::Json &j)
{
    char buf[40];
    switch (j.kind) {
      case util::Json::Null:
        fnv(h, "null");
        break;
      case util::Json::Bool:
        fnv(h, j.boolean ? "true" : "false");
        break;
      case util::Json::Num:
        std::snprintf(buf, sizeof buf, "%.17g", j.num);
        fnv(h, buf);
        break;
      case util::Json::Str:
        fnv(h, "s:" + j.str);
        break;
      case util::Json::Arr:
        fnv(h, "[");
        for (const util::Json &e : j.arr)
            hashJson(h, e);
        fnv(h, "]");
        break;
      case util::Json::Obj:
        fnv(h, "{");
        for (const auto &[k, v] : j.obj) {
            fnv(h, k);
            hashJson(h, v);
        }
        fnv(h, "}");
        break;
    }
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const std::size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/** Everything one pass over a workload produced. */
struct Pass
{
    double runCpu = 0.0;        ///< thread-CPU seconds after setup
    std::uint64_t simTicks = 0; ///< summed makespans
    unsigned sims = 0;
    unsigned failed = 0;
    std::vector<std::string> failures; ///< one line per failed simulation
    /** (label, registry digest) per simulation, in run order. */
    std::vector<std::pair<std::string, std::string>> digests;
    Tally tally;
    /** Simulated results particular to the workload (deterministic). */
    std::map<std::string, double> design;
    /** Span durations of this pass by span name (traced passes). */
    std::map<std::string, double> spanTotals;

    void
    fail(const std::string &why)
    {
        ++failed;
        failures.push_back(why);
    }
};

/**
 * Fold one simulation's JSON run report into @p p: digest of its full
 * StatRegistry ("stats" block), layer counts, makespan and outcome.
 */
void
addReport(Pass &p, const std::string &label, const std::string &text)
{
    ++p.sims;
    std::string err;
    const util::Json rep = util::parseJson(text, &err);
    if (!rep.isObj()) {
        p.fail(label + ": unreadable run report (" + err + ")");
        return;
    }
    const util::Json &meta = rep.at("meta");
    if (meta.at("outcome").stringOr("") != "finished")
        p.fail(label + ": outcome " + meta.at("outcome").stringOr("?"));

    std::uint64_t h = 1469598103934665603ULL;
    hashJson(h, rep.at("stats"));
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
    p.digests.emplace_back(label, hex);

    Tally &t = p.tally;
    const std::uint64_t makespan = meta.at("makespan").uintOr(0);
    p.simTicks += makespan;
    const util::Json &eq = rep.at("eventQueue");
    t.events += eq.at("executedEvents").uintOr(0);
    t.chunkAllocs += eq.at("chunkAllocs").uintOr(0);
    t.heapCallbacks += eq.at("heapCallbacks").uintOr(0);
    t.maxPending = std::max(t.maxPending, eq.at("maxPending").uintOr(0));

    const util::Json &stats = rep.at("stats");
    const util::Json &lat = stats.at("averages").at("noc.packetLatency");
    t.latCount += lat.at("count").uintOr(0);
    t.latSum += lat.at("sum").numberOr(0.0);
    for (const auto &[name, v] : stats.at("counters").obj) {
        const std::uint64_t n = v.uintOr(0);
        const bool core = name.rfind("core", 0) == 0;
        if (name == "noc.packetsSent")
            t.packets += n;
        else if (name == "sync.hwOps")
            t.hwOps += n;
        else if (name == "sync.swOps")
            t.swOps += n;
        else if (name == "sync.abortedOps")
            t.abortedOps += n;
        else if (endsWith(name, ".l1.hits"))
            t.l1Hits += n;
        else if (endsWith(name, ".l1.misses"))
            t.l1Misses += n;
        else if (endsWith(name, ".l1.invalidations"))
            t.l1Invalidations += n;
        else if (endsWith(name, ".llc.transactions"))
            t.llcTransactions += n;
        else if (endsWith(name, ".msa.requests"))
            t.msaRequests += n;
        else if (endsWith(name, ".msa.allocations"))
            t.msaAllocations += n;
        else if (endsWith(name, ".msa.evictions"))
            t.msaEvictions += n;
        else if (endsWith(name, ".msa.omuIncrements"))
            t.omuIncrements += n;
        else if (endsWith(name, ".msa.silentLocks"))
            t.silentLocks += n;
        else if (core && endsWith(name, ".loads"))
            t.loads += n;
        else if (core && endsWith(name, ".stores"))
            t.stores += n;
        else if (core && endsWith(name, ".atomics"))
            t.atomics += n;
        else if (core && endsWith(name, ".syncInstrs"))
            t.syncInstrs += n;
    }
}

/** Run report of a simulation this program built and ran itself. */
std::string
reportOf(sys::System &s, sys::RunOutcome out, const std::string &app,
         const std::string &preset, std::uint64_t seed,
         const srv::ServerStats *server)
{
    obs::RunMeta meta;
    meta.app = app;
    meta.preset = preset;
    meta.cores = s.numCores();
    meta.seed = seed;
    meta.outcome = sys::runOutcomeName(out);
    meta.makespan = s.makespan();
    meta.hwCoverage = s.hwCoverage();
    std::ostringstream os;
    obs::writeRunReport(os, meta, s.stats(), nullptr, 0, nullptr,
                        &s.eventQueue(), nullptr, server);
    return os.str();
}

// ---------------------------------------------------------------------
// Workloads

/** A simulation built and started, ready for its first tick. */
struct Sim
{
    sync::SyncLib lib;
    workload::AppLayout layout;
    std::unique_ptr<srv::ServerHarness> harness;
    sys::System system; ///< destroyed first: its threads use the above

    Sim(const SystemConfig &cfg, sync::SyncLib::Flavor flavor)
        : lib(flavor, cfg.numCores), system(cfg)
    {}
};

/**
 * Build and start one simulation of @p app: System and SyncLib
 * construction, the server's arrival schedule, and one thread per
 * core. This is the setup that setup_s times.
 */
std::unique_ptr<Sim>
buildSim(const SystemConfig &cfg, sync::SyncLib::Flavor flavor,
         const workload::AppSpec &app, std::uint64_t seed, SpanLog &spans)
{
    std::unique_ptr<Sim> sim;
    {
        Scope s(spans, "system.build");
        sim = std::make_unique<Sim>(cfg, flavor);
    }
    if (app.server.enabled) {
        Scope s(spans, "srv.harness");
        sim->harness = std::make_unique<srv::ServerHarness>(
            app.server, cfg.numCores, seed);
    }
    Scope s(spans, "workload.start");
    for (CoreId c = 0; c < cfg.numCores; ++c)
        sim->system.start(
            c, sim->harness
                   ? sim->harness->thread(sim->system.api(c), &sim->lib)
                   : workload::appThread(sim->system.api(c), app,
                                         sim->layout, &sim->lib,
                                         cfg.numCores, seed));
    return sim;
}

/** One simulation of a direct (non-campaign) workload. */
struct SimCase
{
    std::string label;
    std::string preset;
    SystemConfig cfg;
    sync::SyncLib::Flavor flavor = sync::SyncLib::Flavor::Hw;
    workload::AppSpec app;
};

/** Build @p c, run it to the end, and fold its report into @p p. The
 *  run and its report, not the build, count toward the run time. */
srv::ServerStats
runCase(const SimCase &c, std::uint64_t seed, SpanLog &spans, Pass &p)
{
    std::unique_ptr<Sim> sim = buildSim(c.cfg, c.flavor, c.app, seed, spans);
    const double t0 = cpuNow();
    sys::RunOutcome out;
    {
        Scope s(spans, "system.run");
        out = sim->system.runDetailed(tickLimit);
    }
    srv::ServerStats st;
    if (sim->harness) {
        Scope s(spans, "srv.finalize");
        st = sim->harness->finalize(sim->system.makespan());
    }
    const std::string report =
        reportOf(sim->system, out, c.app.name, c.preset, seed,
                 sim->harness ? &st : nullptr);
    p.runCpu += cpuNow() - t0;
    addReport(p, c.label, report);
    return st;
}

SimCase
paperCase(const char *label, sys::PaperConfig pc, unsigned cores,
          const char *app)
{
    SimCase c{label, sys::paperConfigName(pc), sys::configFor(pc, cores),
              sys::flavorFor(pc), workload::appByName(app)};
    c.cfg.validate();
    return c;
}

// -- msa64-radiosity / pthread64-raytrace -----------------------------

const std::vector<SimCase> &
msa64Radiosity()
{
    static const std::vector<SimCase> v = {paperCase(
        "msa64-radiosity", sys::PaperConfig::MsaOmu2, 64, "radiosity")};
    return v;
}

const std::vector<SimCase> &
pthread64Raytrace()
{
    static const std::vector<SimCase> v = [] {
        SimCase c = paperCase("pthread64-raytrace",
                              sys::PaperConfig::Baseline, 64, "raytrace");
        // The catalog's 80 iterations take ~45 s of host time here;
        // 6 keep the hot-lock convoy and fit several passes in a run.
        c.app.iters = 6;
        return std::vector<SimCase>{c};
    }();
    return v;
}

// -- server16-overload ------------------------------------------------

/** Offered loads (requests per kilotick): below the knee, and past it. */
constexpr double lightRate = 1.0;
constexpr double overloadRate = 4.0;

/** bench/campaigns/server_overload.json's MSA row at one rate, with
 *  budgeted retries. */
SimCase
serverCase(const char *label, double rate)
{
    SimCase c;
    c.label = label;
    c.preset = "msa-omu";
    if (!sys::cliPresetFor("msa-omu", 16, 16, c.cfg, c.flavor))
        fatal("unknown preset 'msa-omu'");
    c.cfg.validate();
    c.app = workload::appByName("server-poisson");
    srv::ServerSpec &s = c.app.server;
    s.arrivalRate = rate;
    s.queueCap = 256;
    s.sloTicks = 20000;
    s.retryPolicy = srv::RetryPolicy::Budgeted;
    s.retryBudgetRatio = 0.1;
    return c;
}

const std::vector<SimCase> &
serverCases()
{
    static const std::vector<SimCase> v = {
        serverCase("server16-rate1", lightRate),
        serverCase("server16-rate4", overloadRate),
    };
    return v;
}

/** The server's final-disposition invariant. */
bool
serverBalanced(const srv::ServerStats &s)
{
    return s.generated ==
           s.completed + s.rejected + s.rejectedSlo + s.stranded;
}

void
addServer(srv::ServerStats &sum, const srv::ServerStats &s)
{
    sum.generated += s.generated;
    sum.completed += s.completed;
    sum.rejected += s.rejected;
    sum.rejectedSlo += s.rejectedSlo;
    sum.stranded += s.stranded;
    sum.retries += s.retries;
    sum.retryBudgetDenied += s.retryBudgetDenied;
    sum.steals += s.steals;
    sum.sloMet += s.sloMet;
}

// -- fig6-quick16 -----------------------------------------------------

/** The 16-core half of bench/campaigns/fig6_quick.json. The seed list
 *  is replaced by the run's seed. */
const char *const fig6Spec = R"spec({
  "name": "fig6-quick16",
  "presets": [
    {"name": "Baseline(pthread)", "config": "baseline"},
    {"name": "MSA-0", "config": "msa0"},
    {"name": "MCS-Tour", "config": "mcs-tour"},
    {"name": "MSA/OMU-1", "config": "msa-omu", "entries": 1},
    {"name": "MSA/OMU-2", "config": "msa-omu", "entries": 2},
    {"name": "MSA-inf", "config": "msa-inf"},
    {"name": "Ideal", "config": "ideal"}
  ],
  "apps": "headline",
  "cores": [16],
  "seeds": [1],
  "baseline": "Baseline(pthread)",
  "tickLimit": 2000000000,
  "timeoutSec": 600,
  "maxRetries": 2
})spec";

orch::CampaignSpec
fig6Parse(std::uint64_t seed)
{
    orch::CampaignSpec spec;
    std::string err;
    if (!orch::CampaignSpec::parse(fig6Spec, spec, err))
        fatal("fig6-quick16 spec: %s", err.c_str());
    spec.seeds = {seed};
    err = spec.validate();
    if (!err.empty())
        fatal("fig6-quick16 spec: %s", err.c_str());
    return spec;
}

/** The engine's per-job SystemConfig (runCampaignInProcess). */
SystemConfig
fig6JobConfig(const orch::JobSpec &j, sync::SyncLib::Flavor &flavor)
{
    SystemConfig cfg;
    if (!sys::cliPresetFor(j.preset.config, j.cores, j.preset.entries, cfg,
                           flavor))
        fatal("unknown preset config '%s'", j.preset.config.c_str());
    cfg.smtWays = j.preset.smt;
    cfg.simThreads = j.preset.threads;
    cfg.msa.hwSyncBitOpt = j.preset.hwsync;
    cfg.msa.omuEnabled = j.preset.omu;
    cfg.seed = j.seed;
    cfg.obs.profileSync = j.preset.threads == 1;
    cfg.validate();
    return cfg;
}

/** GeoMean over apps of MSA/OMU-2's speedup over Ideal's; 0 when a
 *  speedup is missing. */
double
msaIdealRatio(const orch::CampaignSpec &spec,
              const orch::CampaignReport &report)
{
    double logSum = 0.0;
    for (const std::string &app : spec.apps) {
        const std::vector<double> msa = report.speedups("MSA/OMU-2", app, 16);
        const std::vector<double> ideal = report.speedups("Ideal", app, 16);
        if (msa.empty() || ideal.empty() || msa[0] <= 0.0 || ideal[0] <= 0.0)
            return 0.0;
        logSum += std::log(msa[0] / ideal[0]);
    }
    return spec.apps.empty() ? 0.0 : std::exp(logSum / spec.apps.size());
}

// ---------------------------------------------------------------------
// Workload table

/** Thread-CPU seconds to build @p cases (their destruction excluded). */
double
setupCases(const std::vector<SimCase> &cases, std::uint64_t seed)
{
    SpanLog off;
    double t = 0.0;
    for (const SimCase &c : cases) {
        const double t0 = cpuNow();
        std::unique_ptr<Sim> sim = buildSim(c.cfg, c.flavor, c.app, seed, off);
        t += cpuNow() - t0;
    }
    return t;
}

Pass
passCases(const std::vector<SimCase> &cases, std::uint64_t seed,
          SpanLog &spans)
{
    Pass p;
    for (const SimCase &c : cases)
        runCase(c, seed, spans, p);
    return p;
}

Pass
serverPass(std::uint64_t seed, SpanLog &spans)
{
    Pass p;
    std::vector<srv::ServerStats> st;
    for (const SimCase &c : serverCases()) {
        st.push_back(runCase(c, seed, spans, p));
        if (!serverBalanced(st.back()))
            p.fail(c.label + ": generated != completed + rejected + "
                             "rejectedSlo + stranded");
        addServer(p.tally.srvSum, st.back());
    }
    const srv::ServerStats &over = st[1];
    p.design["srv.p99_light_ticks"] = double(st[0].latency.p99());
    p.design["srv.p99_overload_ticks"] = double(over.latency.p99());
    p.design["srv.capacity_per_kt"] = over.throughput;
    return p;
}

/** Spec parse and expansion plus a construction-only pass over the
 *  grid: the builds the engine performs inside its run. */
double
fig6Setup(std::uint64_t seed)
{
    SpanLog off;
    double t0 = cpuNow();
    const orch::CampaignSpec spec = fig6Parse(seed);
    const std::vector<orch::JobSpec> jobs = spec.expand();
    double t = cpuNow() - t0;
    for (const orch::JobSpec &j : jobs) {
        t0 = cpuNow();
        sync::SyncLib::Flavor flavor = sync::SyncLib::Flavor::Hw;
        const SystemConfig cfg = fig6JobConfig(j, flavor);
        std::unique_ptr<Sim> sim =
            buildSim(cfg, flavor, workload::appByName(j.app), j.seed, off);
        t += cpuNow() - t0;
    }
    return t;
}

Pass
fig6Pass(std::uint64_t seed, SpanLog &spans, const std::string &out)
{
    Pass p;
    orch::CampaignSpec spec;
    {
        Scope s(spans, "orch.expand");
        spec = fig6Parse(seed);
    }
    // Per process, so that runs sharing a build directory cannot
    // read each other's reports.
    const std::string dir =
        out + "/fig6-jobs-" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    auto reportPath = [&dir](unsigned id) {
        return dir + "/job-" + std::to_string(id) + ".json";
    };

    const double t0 = cpuNow();
    // Every job writes its run report, as a misar_campaign worker
    // does: the in-process engine exposes no per-job registry. The
    // hook runs as each job starts, so it also bounds the job spans.
    int job = -1;
    orch::InProcessHooks hooks;
    hooks.tweak = [&](const orch::JobSpec &j, SystemConfig &cfg) {
        spans.close(job);
        job = spans.open("orch.job");
        cfg.obs.statsJsonPath = reportPath(j.id);
    };
    std::vector<orch::JobRecord> records;
    {
        Scope s(spans, "orch.run");
        records = orch::runCampaignInProcess(spec, hooks);
        spans.close(job);
    }
    std::ostringstream json, table;
    double msaIdeal = 0.0;
    std::size_t failures = 0;
    {
        Scope s(spans, "orch.report");
        const orch::CampaignReport report(spec, records);
        report.writeJson(json);
        report.writeTable(table);
        msaIdeal = msaIdealRatio(spec, report);
        failures = report.failures().size();
    }
    p.runCpu = cpuNow() - t0;

    for (const orch::JobRecord &rec : records) {
        const std::string label =
            rec.job.preset.name + "/" + rec.job.app;
        std::ifstream f(reportPath(rec.job.id));
        std::stringstream text;
        text << f.rdbuf();
        addReport(p, label, text.str());
        if (rec.outcome != orch::JobOutcome::Finished)
            p.fail(label + ": job outcome " +
                   orch::jobOutcomeName(rec.outcome));
        p.tally.syncWaitSamples += rec.syncWait.count();
    }
    std::filesystem::remove_all(dir);
    if (failures)
        p.fail(std::to_string(failures) +
               " jobs listed by CampaignReport::failures()");
    if (msaIdeal <= 0.0)
        p.fail("a MSA/OMU-2 or Ideal speedup is missing from the report");
    std::uint64_t h = 1469598103934665603ULL;
    fnv(h, json.str());
    fnv(h, table.str());
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
    p.digests.emplace_back("campaign-report", hex);
    p.design["orch.jobs"] = double(records.size());
    p.design["orch.msa_ideal_ratio"] = msaIdeal;
    return p;
}

struct Workload
{
    const char *name;
    /** Thread-CPU seconds to build every simulation of the workload. */
    double (*setup)(std::uint64_t seed);
    /** One full pass: build, run, report. */
    Pass (*pass)(std::uint64_t seed, SpanLog &spans, const std::string &out);
};

const Workload workloads[] = {
    {"msa64-radiosity",
     [](std::uint64_t seed) { return setupCases(msa64Radiosity(), seed); },
     [](std::uint64_t seed, SpanLog &spans, const std::string &) {
         return passCases(msa64Radiosity(), seed, spans);
     }},
    {"pthread64-raytrace",
     [](std::uint64_t seed) {
         return setupCases(pthread64Raytrace(), seed);
     },
     [](std::uint64_t seed, SpanLog &spans, const std::string &) {
         return passCases(pthread64Raytrace(), seed, spans);
     }},
    {"server16-overload",
     [](std::uint64_t seed) { return setupCases(serverCases(), seed); },
     [](std::uint64_t seed, SpanLog &spans, const std::string &) {
         return serverPass(seed, spans);
     }},
    {"fig6-quick16", fig6Setup, fig6Pass},
};

// ---------------------------------------------------------------------
// Metrics

struct MetricDef
{
    const char *name;
    const char *unit;
};

const MetricDef endToEndMetrics[] = {
    {"run_cpu_s", "s"},   {"sim_ticks_per_cpu_s", "ticks/s"},
    {"setup_s", "s"},     {"max_rss_mb", "MiB"},
    {"sim_ticks", "ticks"},
};

const MetricDef perLayerMetrics[] = {
    {"sim.events", "count"},
    {"sim.events_per_tick", "events/tick"},
    {"sim.ns_per_event", "ns"},
    {"sim.max_pending", "count"},
    {"sim.chunk_allocs", "count"},
    {"sim.heap_callbacks", "count"},
    {"noc.packets", "count"},
    {"noc.avg_latency_ticks", "ticks"},
    {"noc.packets_per_kevent", "1/kevent"},
    {"mem.l1_misses", "count"},
    {"mem.l1_miss_ratio", "ratio"},
    {"mem.l1_invalidations", "count"},
    {"mem.llc_transactions", "count"},
    {"cpu.loads", "count"},
    {"cpu.stores", "count"},
    {"cpu.atomics", "count"},
    {"cpu.sync_instrs", "count"},
    {"msa.requests", "count"},
    {"msa.allocations", "count"},
    {"msa.evictions", "count"},
    {"msa.omu_increments", "count"},
    {"msa.silent_locks", "count"},
    {"msa.hw_coverage", "ratio"},
    {"sync.hw_ops", "count"},
    {"sync.sw_ops", "count"},
    {"sync.aborted_ops", "count"},
    {"srv.generated", "count"},
    {"srv.completed", "count"},
    {"srv.rejected", "count"},
    {"srv.rejected_slo", "count"},
    {"srv.retries", "count"},
    {"srv.retry_denied", "count"},
    {"srv.steals", "count"},
    {"srv.slo_met_ratio", "ratio"},
    {"srv.p99_light_ticks", "ticks"},
    {"srv.p99_overload_ticks", "ticks"},
    {"srv.capacity_per_kt", "req/ktick"},
    {"srv.harness_s", "s"},
    {"srv.finalize_s", "s"},
    {"system.build_s", "s"},
    {"system.run_s", "s"},
    {"workload.start_s", "s"},
    {"orch.jobs", "count"},
    {"orch.msa_ideal_ratio", "ratio"},
    {"orch.expand_s", "s"},
    {"orch.run_s", "s"},
    {"orch.job_s", "s"},
    {"orch.report_s", "s"},
    {"obs.syncwait_samples", "count"},
    {"trace.overhead_s", "s"},
};

/** Spans whose per-pass totals are per-layer metrics (name + "_s"). */
const char *const spanMetrics[] = {
    "srv.harness",  "srv.finalize", "system.build", "system.run",
    "workload.start", "orch.expand", "orch.run",    "orch.job",
    "orch.report",
};

/**
 * The simulated per-layer counts of a pass. Deterministic at a fixed
 * seed: every pass of a run, traced or not, must give the same map.
 */
std::map<std::string, double>
layerCounts(const Pass &p)
{
    const Tally &t = p.tally;
    const srv::ServerStats &s = t.srvSum;
    std::map<std::string, double> m = {
        {"srv.p99_light_ticks", 0.0},  {"srv.p99_overload_ticks", 0.0},
        {"srv.capacity_per_kt", 0.0},  {"orch.jobs", 0.0},
        {"orch.msa_ideal_ratio", 0.0},
    };
    for (const auto &[k, v] : p.design)
        m[k] = v;
    m["sim.events"] = double(t.events);
    m["sim.events_per_tick"] = ratio(double(t.events), double(p.simTicks));
    m["sim.max_pending"] = double(t.maxPending);
    m["sim.chunk_allocs"] = double(t.chunkAllocs);
    m["sim.heap_callbacks"] = double(t.heapCallbacks);
    m["noc.packets"] = double(t.packets);
    m["noc.avg_latency_ticks"] = ratio(t.latSum, double(t.latCount));
    m["noc.packets_per_kevent"] =
        ratio(1000.0 * double(t.packets), double(t.events));
    m["mem.l1_misses"] = double(t.l1Misses);
    m["mem.l1_miss_ratio"] =
        ratio(double(t.l1Misses), double(t.l1Hits + t.l1Misses));
    m["mem.l1_invalidations"] = double(t.l1Invalidations);
    m["mem.llc_transactions"] = double(t.llcTransactions);
    m["cpu.loads"] = double(t.loads);
    m["cpu.stores"] = double(t.stores);
    m["cpu.atomics"] = double(t.atomics);
    m["cpu.sync_instrs"] = double(t.syncInstrs);
    m["msa.requests"] = double(t.msaRequests);
    m["msa.allocations"] = double(t.msaAllocations);
    m["msa.evictions"] = double(t.msaEvictions);
    m["msa.omu_increments"] = double(t.omuIncrements);
    m["msa.silent_locks"] = double(t.silentLocks);
    m["msa.hw_coverage"] =
        ratio(double(t.hwOps), double(t.hwOps + t.swOps));
    m["sync.hw_ops"] = double(t.hwOps);
    m["sync.sw_ops"] = double(t.swOps);
    m["sync.aborted_ops"] = double(t.abortedOps);
    m["srv.generated"] = double(s.generated);
    m["srv.completed"] = double(s.completed);
    m["srv.rejected"] = double(s.rejected);
    m["srv.rejected_slo"] = double(s.rejectedSlo);
    m["srv.retries"] = double(s.retries);
    m["srv.retry_denied"] = double(s.retryBudgetDenied);
    m["srv.steals"] = double(s.steals);
    m["srv.slo_met_ratio"] = ratio(double(s.sloMet), double(s.generated));
    m["obs.syncwait_samples"] = double(t.syncWaitSamples);
    return m;
}

/** What @p p simulated differently from @p ref ("" when nothing). */
std::string
difference(const Pass &ref, const std::map<std::string, double> &refCounts,
           const Pass &p)
{
    if (p.digests.size() != ref.digests.size())
        return "the number of simulations";
    for (std::size_t i = 0; i < p.digests.size(); ++i)
        if (p.digests[i] != ref.digests[i])
            return "the registry of " + ref.digests[i].first;
    if (p.simTicks != ref.simTicks)
        return "sim_ticks";
    for (const auto &[k, v] : layerCounts(p))
        if (refCounts.at(k) != v)
            return k;
    return "";
}

void
printMetrics(const std::map<std::string, double> &values,
             const MetricDef *defs, std::size_t n, bool correct,
             std::uint64_t attempted, std::uint64_t failed)
{
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < n; ++i) {
        const auto it = values.find(defs[i].name);
        if (it == values.end())
            panic("metric %s was not computed", defs[i].name);
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", defs[i].name, it->second, defs[i].unit);
    }
    std::printf("}}\n");
}

// ---------------------------------------------------------------------
// Command line

struct Args
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out DIR\nworkloads:",
                 why);
    for (const Workload &w : workloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

bool
parseUint(const char *s, std::uint64_t &out)
{
    if (!*s || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno || *end)
        return false;
    out = v;
    return true;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value after " + flag).c_str());
        const char *v = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            for (const Workload &w : workloads)
                if (std::strcmp(w.name, v) == 0)
                    a.workload = &w;
            if (!a.workload)
                usage((std::string("unknown workload ") + v).c_str());
        } else if (flag == "--seed") {
            if (!parseUint(v, a.seed))
                usage("--seed takes a non-negative integer");
            haveSeed = true;
        } else if (flag == "--seconds") {
            if (!parseUint(v, n) || n == 0 || n > 3600)
                usage("--seconds takes an integer in [1, 3600]");
            a.seconds = double(n);
            haveSeconds = true;
        } else if (flag == "--trace") {
            if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
                usage("--trace takes 0 or 1");
            a.trace = v[0] == '1';
            haveTrace = true;
        } else if (flag == "--out") {
            a.out = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!a.workload || !haveSeed || !haveSeconds || !haveTrace ||
        a.out.empty())
        usage("--workload, --seed, --seconds, --trace and --out are "
              "required");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const Args a = parseArgs(argc, argv);
    const Workload &w = *a.workload;
    std::filesystem::create_directories(a.out);
    const double wall0 = wallNow();

    // Set-up time: the median of construction-only setups. They are
    // taken after every untraced pass, for a twentieth of its CPU time,
    // so that the samples span the same stretch of host time as the
    // passes: the host's speed drifts within a run.
    std::vector<double> setups;
    auto sampleSetups = [&](double budget) {
        double spent = 0.0;
        for (unsigned n = 0; n < 3 || spent < budget; ++n) {
            setups.push_back(w.setup(a.seed));
            spent += setups.back();
        }
    };

    // Host speed: the probe, run after every pass for a thirtieth of
    // its CPU time (at least three times), so that its samples span
    // the same stretch of host time as the passes.
    std::vector<double> probes;
    auto sampleProbes = [&](double budget) {
        double spent = 0.0;
        for (unsigned n = 0; n < 3 || spent < budget; ++n) {
            probes.push_back(hostProbe());
            spent += probes.back();
        }
    };

    // Passes until the time is used up. A traced run alternates
    // untraced and traced passes so host drift hits both alike.
    SpanLog spans;
    std::vector<Pass> plain, traced;
    for (;;) {
        const bool tr = a.trace && plain.size() > traced.size();
        spans.on = tr;
        const std::size_t first = spans.size();
        const double ws = wallNow();
        Pass p;
        {
            Scope s(spans, "pass");
            p = w.pass(a.seed, spans, a.out);
        }
        std::printf("pass %zu %s run_cpu_s %.6f wall_s %.6f\n",
                    plain.size() + traced.size() + 1,
                    tr ? "traced" : "untraced", p.runCpu, wallNow() - ws);
        std::fflush(stdout);
        for (const char *name : spanMetrics)
            p.spanTotals[name] = spans.total(name, first);
        if (!a.trace)
            sampleSetups(p.runCpu / 20);
        sampleProbes(p.runCpu / 30);
        (tr ? traced : plain).push_back(std::move(p));
        const double now = wallNow();
        const bool minimum = !a.trace || !traced.empty();
        if (minimum && now - wall0 + (now - ws) > a.seconds)
            break;
    }

    // Correctness: every simulation finished with its invariants, and
    // every pass — traced or not — simulated exactly the same thing.
    const Pass &ref = plain.front();
    const std::map<std::string, double> counts = layerCounts(ref);
    std::uint64_t attempted = 0, failed = 0;
    std::string differs;
    for (const std::vector<Pass> *set : {&plain, &traced})
        for (const Pass &p : *set) {
            attempted += p.sims;
            failed += p.failed;
            if (differs.empty())
                differs = difference(ref, counts, p);
        }

    // Host times are scaled to the probe's nominal speed, which takes
    // out most of the host's slow spells (see perfbench/README.md).
    const double hostScale = probeNominal / median(probes);
    std::vector<double> plainCpu, tracedCpu;
    for (const Pass &p : plain)
        plainCpu.push_back(p.runCpu);
    for (const Pass &p : traced)
        tracedCpu.push_back(p.runCpu);
    const double runCpu = median(plainCpu) * hostScale;

    std::printf("workload %s seed %" PRIu64 ": %zu untraced and %zu traced "
                "passes\n",
                w.name, a.seed, plain.size(), traced.size());
    std::printf("host probe: median %.6f s over %zu runs (nominal %.6f s), "
                "host times scaled by %.6f\n",
                median(probes), probes.size(), probeNominal, hostScale);
    std::printf("unscaled: median pass %.6f s", median(plainCpu));
    if (!setups.empty())
        std::printf(", median set-up %.6g s", median(setups));
    std::printf("\n");
    for (const auto &[label, digest] : ref.digests)
        std::printf("registry %s %s\n", digest.c_str(), label.c_str());
    for (const auto &[k, v] : ref.design)
        std::printf("design %s %.17g\n", k.c_str(), v);
    for (const std::vector<Pass> *set : {&plain, &traced})
        for (const Pass &p : *set)
            for (const std::string &f : p.failures)
                std::printf("FAILED %s\n", f.c_str());
    if (!differs.empty())
        std::printf("FAILED passes at one seed differ in %s\n",
                    differs.c_str());
    std::printf("failed share %" PRIu64 "/%" PRIu64 " = %.17g\n", failed,
                attempted, ratio(double(failed), double(attempted)));
    const bool correct = differs.empty() && failed == 0;

    if (!a.trace) {
        const std::map<std::string, double> values = {
            {"run_cpu_s", runCpu},
            {"sim_ticks_per_cpu_s", ratio(double(ref.simTicks), runCpu)},
            {"setup_s", median(setups) * hostScale},
            {"max_rss_mb", peakRssMb()},
            {"sim_ticks", double(ref.simTicks)},
        };
        printMetrics(values, endToEndMetrics, std::size(endToEndMetrics),
                     correct, attempted, failed);
        return 0;
    }

    std::map<std::string, double> values = counts;
    values["sim.ns_per_event"] =
        ratio(runCpu * 1e9, double(ref.tally.events));
    for (const char *name : spanMetrics) {
        std::vector<double> v;
        for (const Pass &p : traced)
            v.push_back(p.spanTotals.at(name));
        values[std::string(name) + "_s"] = median(v);
    }
    const double overhead = median(tracedCpu) * hostScale - runCpu;
    values["trace.overhead_s"] = overhead;
    std::printf("tracing overhead %.17g s of %.17g s untraced run time\n",
                overhead, runCpu);

    const std::string path = a.out + "/spans-" + w.name + "-seed" +
                             std::to_string(a.seed) + ".json";
    std::ofstream f(path);
    spans.write(f, w.name, a.seed);
    if (!f)
        fatal("cannot write %s", path.c_str());
    std::printf("spans written to %s\n", path.c_str());
    printMetrics(values, perLayerMetrics, std::size(perLayerMetrics),
                 correct, attempted, failed);
    return 0;
}
