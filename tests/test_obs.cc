/**
 * @file
 * Observability-layer tests: statistics edge cases, tracer bounding
 * (core op rows included), the periodic sampler, JSON
 * well-formedness of the Chrome trace and the machine-readable run
 * report (validated with a small in-test JSON parser), end-to-end
 * sync-flow linkage across the core / MSA-slice / NoC tracks, and
 * the inertness guarantee (the whole layer off or on must not move a
 * single simulated cycle).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "obs/run_report.hh"
#include "obs/sampler.hh"
#include "obs/sync_profiler.hh"
#include "obs/tracer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sync/sync_lib.hh"
#include "system/system.hh"
#include "util/json.hh"
#include "workload/app_catalog.hh"
#include "workload/synthetic_app.hh"

namespace misar {
namespace {

// --- A minimal JSON parser (enough to round-trip our own output) ----------

struct Json
{
    enum Kind { Null, Bool, Num, Str, Arr, Obj } kind = Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    const Json &
    at(const std::string &k) const
    {
        static const Json none;
        auto it = obj.find(k);
        return it == obj.end() ? none : it->second;
    }
    bool has(const std::string &k) const { return obj.count(k) != 0; }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s(text) {}

    Json
    parse()
    {
        Json v = value();
        ws();
        if (pos != s.size())
            fail("trailing garbage");
        return v;
    }

    bool ok() const { return error.empty(); }
    const std::string &err() const { return error; }

  private:
    void
    fail(const char *why)
    {
        if (error.empty())
            error = std::string(why) + " at offset " + std::to_string(pos);
        // Skip to the end so parsing terminates.
        pos = s.size();
    }

    void
    ws()
    {
        while (pos < s.size() &&
               std::isspace(static_cast<unsigned char>(s[pos])))
            ++pos;
    }

    char
    peek()
    {
        return pos < s.size() ? s[pos] : '\0';
    }

    bool
    eat(char c)
    {
        ws();
        if (peek() != c)
            return false;
        ++pos;
        return true;
    }

    Json
    value()
    {
        ws();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': case 'f': return boolean();
          case 'n': literal("null"); return Json{};
          default: return number();
        }
    }

    void
    literal(const char *lit)
    {
        for (const char *p = lit; *p; ++p)
            if (pos >= s.size() || s[pos++] != *p)
                return fail("bad literal");
    }

    Json
    boolean()
    {
        Json v;
        v.kind = Json::Bool;
        if (peek() == 't') {
            literal("true");
            v.b = true;
        } else {
            literal("false");
        }
        return v;
    }

    Json
    number()
    {
        std::size_t start = pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '-' || s[pos] == '+' || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E'))
            ++pos;
        if (pos == start) {
            fail("bad number");
            return Json{};
        }
        Json v;
        v.kind = Json::Num;
        v.num = std::stod(s.substr(start, pos - start));
        return v;
    }

    Json
    string()
    {
        Json v;
        v.kind = Json::Str;
        if (!eat('"')) {
            fail("expected string");
            return v;
        }
        while (pos < s.size() && s[pos] != '"') {
            char c = s[pos++];
            if (c == '\\') {
                if (pos >= s.size()) {
                    fail("bad escape");
                    return v;
                }
                char e = s[pos++];
                switch (e) {
                  case '"': v.str += '"'; break;
                  case '\\': v.str += '\\'; break;
                  case '/': v.str += '/'; break;
                  case 'b': v.str += '\b'; break;
                  case 'f': v.str += '\f'; break;
                  case 'n': v.str += '\n'; break;
                  case 'r': v.str += '\r'; break;
                  case 't': v.str += '\t'; break;
                  case 'u':
                    if (pos + 4 > s.size()) {
                        fail("bad \\u escape");
                        return v;
                    }
                    // Low codepoints only — all our escaper emits.
                    v.str += static_cast<char>(
                        std::stoi(s.substr(pos, 4), nullptr, 16));
                    pos += 4;
                    break;
                  default: fail("bad escape"); return v;
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
                return v;
            } else {
                v.str += c;
            }
        }
        if (!eat('"'))
            fail("unterminated string");
        return v;
    }

    Json
    array()
    {
        Json v;
        v.kind = Json::Arr;
        eat('[');
        ws();
        if (eat(']'))
            return v;
        do {
            v.arr.push_back(value());
        } while (eat(','));
        if (!eat(']'))
            fail("expected ]");
        return v;
    }

    Json
    object()
    {
        Json v;
        v.kind = Json::Obj;
        eat('{');
        ws();
        if (eat('}'))
            return v;
        do {
            ws();
            Json key = string();
            if (!eat(':')) {
                fail("expected :");
                return v;
            }
            v.obj[key.str] = value();
        } while (eat(','));
        if (!eat('}'))
            fail("expected }");
        return v;
    }

    const std::string &s;
    std::size_t pos = 0;
    std::string error;
};

Json
parseJson(const std::string &text, bool *ok = nullptr)
{
    JsonParser p(text);
    Json v = p.parse();
    if (ok)
        *ok = p.ok();
    EXPECT_TRUE(p.ok()) << p.err();
    return v;
}

// --- Statistics edge cases ------------------------------------------------

TEST(StatAverage, EmptyIsAllZero)
{
    StatAverage a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    EXPECT_DOUBLE_EQ(a.min(), 0.0);
    EXPECT_DOUBLE_EQ(a.max(), 0.0);
    EXPECT_DOUBLE_EQ(a.sum(), 0.0);
}

TEST(StatAverage, SingleSample)
{
    StatAverage a;
    a.sample(-7.5);
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.mean(), -7.5);
    EXPECT_DOUBLE_EQ(a.min(), -7.5);
    EXPECT_DOUBLE_EQ(a.max(), -7.5);
}

TEST(StatAverage, ResetRestoresEmptyState)
{
    StatAverage a;
    a.sample(3.0);
    a.sample(9.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
    // min tracking restarts cleanly: first post-reset sample wins.
    a.sample(100.0);
    EXPECT_DOUBLE_EQ(a.min(), 100.0);
    EXPECT_DOUBLE_EQ(a.max(), 100.0);
}

TEST(StatRegistry, CounterValueOfUntouchedCounterIsZeroAndNonCreating)
{
    StatRegistry r;
    const StatRegistry &cr = r;
    EXPECT_EQ(cr.counterValue("never.touched"), 0u);
    r.counter("a.hits").inc(3);
    EXPECT_EQ(cr.counterValue("a.hits"), 3u);
    // The const lookup must not have materialized the missing name.
    bool saw_phantom = false;
    cr.forEachCounter([&](const std::string &n, const StatCounter &) {
        saw_phantom |= (n == "never.touched");
    });
    EXPECT_FALSE(saw_phantom);
}

TEST(JsonEscapeFn, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(util::jsonEscape("plain"), "plain");
    EXPECT_EQ(util::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(util::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(util::jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(util::jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(ChromeTrace, OutputParsesAndCarriesMetadata)
{
    StatRegistry stats;
    obs::Tracer tr(stats, 16);
    const obs::TrackId core = tr.addTrack(obs::pidCores, 0, "core 0");
    tr.complete(core, 10, 20, "LOCK", 0x1000);
    tr.complete(core, 20, 30, "compute \"x\\y\""); // hostile label
    std::ostringstream os;
    tr.write(os);
    Json t = parseJson(os.str());
    ASSERT_EQ(t.kind, Json::Obj);
    const Json &ev = t.at("traceEvents");
    ASSERT_EQ(ev.kind, Json::Arr);
    bool saw_thread_name = false, saw_hostile = false;
    for (const Json &e : ev.arr) {
        if (e.at("ph").str == "M" && e.at("name").str == "thread_name")
            saw_thread_name = true;
        if (e.at("ph").str == "X" &&
            e.at("name").str == "compute \"x\\y\"")
            saw_hostile = true;
    }
    EXPECT_TRUE(saw_thread_name);
    EXPECT_TRUE(saw_hostile) << "hostile label did not round-trip";
}

// --- Tracer ---------------------------------------------------------------

TEST(Tracer, PerTrackCapFeedsDroppedCounter)
{
    StatRegistry stats;
    obs::Tracer tr(stats, 2);
    obs::TrackId t = tr.addTrack(obs::pidMsa, 0, "slice 0");
    tr.complete(t, 0, 1, "A");
    tr.complete(t, 1, 2, "B");
    tr.complete(t, 2, 3, "C");
    tr.instant(t, 3, "D");
    EXPECT_EQ(tr.dropped(), 2u);
    EXPECT_EQ(stats.counterValue("trace.droppedEvents"), 2u);
}

TEST(Tracer, FlowIdsAreNeverZero)
{
    StatRegistry stats;
    obs::Tracer tr(stats, 16);
    EXPECT_NE(tr.newFlowId(), 0u);
    EXPECT_NE(tr.newFlowId(), tr.newFlowId());
}

// --- Sampler --------------------------------------------------------------

TEST(Sampler, RowCapDropsAndCounts)
{
    EventQueue eq;
    obs::StatSampler s(eq, 100);
    double v = 1.0;
    s.addProbe("probe", [&] { return v; });
    s.setMaxRows(2);
    s.sampleNow();
    v = 2.0;
    s.sampleNow();
    v = 3.0;
    s.sampleNow(); // over the cap: dropped
    EXPECT_EQ(s.rows().size(), 2u);
    EXPECT_EQ(s.droppedRows(), 1u);
    EXPECT_DOUBLE_EQ(s.rows()[1].values[0], 2.0);
}

TEST(Sampler, PeriodicSamplingFollowsTheClock)
{
    EventQueue eq;
    obs::StatSampler s(eq, 10);
    s.addProbe("now", [&] { return static_cast<double>(eq.now()); });
    bool done = false;
    s.setDoneFn([&] { return done; });
    // Keep the queue alive for 35 ticks of simulated work.
    for (Tick t = 1; t <= 35; ++t)
        eq.schedule(t, [&, t] { done = (t == 35); });
    s.start(); // t=0 row + periodic rows at 10, 20, 30
    EXPECT_EQ(s.pendingMaintenance(), 1u);
    eq.run();
    ASSERT_EQ(s.rows().size(), 4u);
    EXPECT_EQ(s.rows()[0].tick, 0u);
    EXPECT_EQ(s.rows()[3].tick, 30u);
    EXPECT_DOUBLE_EQ(s.rows()[2].values[0], 20.0);
    EXPECT_EQ(s.pendingMaintenance(), 0u);
}

TEST(Sampler, CsvRoundTrip)
{
    EventQueue eq;
    obs::StatSampler s(eq, 5);
    s.addProbe("alpha", [] { return 1.5; });
    s.addProbe("weird,\"label", [] { return 2.0; });
    s.sampleNow();
    std::ostringstream os;
    s.writeCsv(os);
    std::istringstream is(os.str());
    std::string header, row;
    std::getline(is, header);
    std::getline(is, row);
    EXPECT_EQ(header, "tick,alpha,\"weird,\"\"label\"");
    EXPECT_EQ(row, "0,1.5,2");
}

TEST(Sampler, EmptySamplerStillWritesHeader)
{
    EventQueue eq;
    obs::StatSampler s(eq, 5);
    std::ostringstream os;
    s.writeCsv(os);
    EXPECT_EQ(os.str(), "tick\n");
}

// --- Run report -----------------------------------------------------------

TEST(RunReport, RoundTripsThroughJson)
{
    StatRegistry stats;
    stats.counter("sync.hwOps").inc(42);
    stats.counter("tile0.msa.allocations").inc(7);
    stats.counter("weird\"name\\with\njunk").inc(1);
    stats.average("noc.packetLatency").sample(10.0);
    stats.average("noc.packetLatency").sample(20.0);

    obs::RunMeta meta;
    meta.app = "unit \"test\"";
    meta.preset = "msa-omu";
    meta.accel = "MSA/OMU-2";
    meta.flavor = "hw-hybrid";
    meta.cores = 16;
    meta.seed = 99;
    meta.outcome = "finished";
    meta.makespan = 12345;
    meta.hwCoverage = 0.75;

    std::ostringstream os;
    obs::writeRunReport(os, meta, stats);
    Json r = parseJson(os.str());
    EXPECT_DOUBLE_EQ(r.at("schemaVersion").num,
                     double(obs::runReportSchemaVersion));
    EXPECT_EQ(r.at("meta").at("app").str, "unit \"test\"");
    EXPECT_DOUBLE_EQ(r.at("meta").at("seed").num, 99.0);
    EXPECT_EQ(r.at("meta").at("outcome").str, "finished");
    const Json &counters = r.at("stats").at("counters");
    EXPECT_DOUBLE_EQ(counters.at("sync.hwOps").num, 42.0);
    EXPECT_DOUBLE_EQ(counters.at("weird\"name\\with\njunk").num, 1.0);
    const Json &lat = r.at("stats").at("averages").at("noc.packetLatency");
    EXPECT_DOUBLE_EQ(lat.at("mean").num, 15.0);
    EXPECT_DOUBLE_EQ(lat.at("count").num, 2.0);
    // The registry holds no histograms; the schema keeps the member.
    EXPECT_EQ(r.at("stats").at("histograms").kind, Json::Obj);
    EXPECT_TRUE(r.at("stats").at("histograms").obj.empty());
    // Resilience block is always present, zeros on clean runs.
    EXPECT_DOUBLE_EQ(r.at("resilience").at("timeouts").num, 0.0);
    // No profiler/sampler attached: optional sections absent.
    EXPECT_FALSE(r.has("syncVars"));
    EXPECT_FALSE(r.has("samples"));
}

// --- End-to-end: flows, profiler, and inertness ---------------------------

namespace e2e {

/** Run @p app on a 16-core MSA/OMU-2 system with @p obs applied. */
std::unique_ptr<sys::System>
run(const char *app, const ObsConfig &o, std::uint64_t seed = 1)
{
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 2);
    cfg.obs = o;
    cfg.seed = seed;
    auto s = std::make_unique<sys::System>(cfg);
    sync::SyncLib lib(sync::SyncLib::Flavor::Hw, 16);
    workload::AppLayout layout;
    const workload::AppSpec &spec = workload::appByName(app);
    for (CoreId t = 0; t < 16; ++t)
        s->start(t, workload::appThread(s->api(t), spec, layout, &lib,
                                        16, seed));
    EXPECT_TRUE(s->run(200000000ULL));
    return s;
}

} // namespace e2e

TEST(EndToEnd, LockFlowLinksCoreToSliceToCore)
{
    ObsConfig o;
    o.traceEnabled = true;
    auto s = e2e::run("radix", o);
    std::ostringstream os;
    s->writeTrace(os);
    Json t = parseJson(os.str());
    const Json &ev = t.at("traceEvents");
    ASSERT_EQ(ev.kind, Json::Arr);
    ASSERT_FALSE(ev.arr.empty());

    // Index flow phases by id, and slice "X" events by (tid, ts).
    struct FlowSpots
    {
        bool s_on_core = false, t_on_slice = false, f_on_core = false;
        double slice_tid = -1, slice_ts = -1;
    };
    std::map<double, FlowSpots> flows;
    std::map<std::pair<double, double>, std::string> slice_x;
    for (const Json &e : ev.arr) {
        const std::string &ph = e.at("ph").str;
        double pid = e.at("pid").num;
        if (ph == "X" && pid == obs::pidMsa)
            slice_x[{e.at("tid").num, e.at("ts").num}] = e.at("name").str;
        if (ph != "s" && ph != "t" && ph != "f")
            continue;
        FlowSpots &f = flows[e.at("id").num];
        if (ph == "s" && pid == obs::pidCores)
            f.s_on_core = true;
        if (ph == "t" && pid == obs::pidMsa) {
            f.t_on_slice = true;
            f.slice_tid = e.at("tid").num;
            f.slice_ts = e.at("ts").num;
        }
        if (ph == "f" && pid == obs::pidCores)
            f.f_on_core = true;
    }
    unsigned lock_links = 0;
    for (const auto &kv : flows) {
        const FlowSpots &f = kv.second;
        if (f.s_on_core && f.t_on_slice && f.f_on_core &&
            slice_x[{f.slice_tid, f.slice_ts}] == "LOCK")
            ++lock_links;
    }
    EXPECT_GT(lock_links, 0u)
        << "no LOCK flow is linked core -> slice -> core";
}

TEST(Tracer, CoreOpsPastTheCapAreCountedAsDropped)
{
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 2);
    cfg.obs.traceEnabled = true;
    cfg.obs.traceMaxEvents = 3;
    sys::System s(cfg);
    auto body = [](cpu::ThreadApi t) -> cpu::ThreadTask {
        for (int i = 0; i < 10; ++i)
            co_await t.compute(5);
    };
    s.start(0, body(s.api(0)));
    ASSERT_TRUE(s.run(100000));
    std::ostringstream os;
    s.writeTrace(os);
    Json t = parseJson(os.str());
    unsigned computes = 0;
    for (const Json &e : t.at("traceEvents").arr)
        computes += e.at("ph").str == "X" && e.at("name").str == "compute";
    EXPECT_EQ(computes, 3u);
    EXPECT_EQ(s.stats().counterValue("trace.droppedEvents"), 7u);
}

TEST(Tracer, TracingOffRecordsNothing)
{
    sys::System s(makeConfig(16, AccelMode::MsaOmu, 2));
    sync::SyncLib lib(sync::SyncLib::Flavor::Hw, 16);
    auto body = [](cpu::ThreadApi t, sync::SyncLib *lib) -> cpu::ThreadTask {
        co_await lib->mutexLock(t, 0x1000);
        co_await t.compute(10);
        co_await lib->mutexUnlock(t, 0x1000);
    };
    s.start(0, body(s.api(0), &lib));
    ASSERT_TRUE(s.run(100000));
    EXPECT_EQ(s.tracer(), nullptr);
    std::ostringstream os;
    s.writeTrace(os);
    EXPECT_TRUE(os.str().empty());
}

TEST(EndToEnd, ProfilerSeesContentionAndReportsHottest)
{
    ObsConfig o;
    o.profileSync = true;
    auto s = e2e::run("radix", o);
    const obs::SyncProfiler *p = s->syncProfiler();
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->numVars(), 0u);
    auto hot = p->hottest(4);
    ASSERT_FALSE(hot.empty());
    // Hottest-first ordering by total wait.
    for (std::size_t i = 1; i < hot.size(); ++i)
        EXPECT_GE(hot[i - 1]->contention(), hot[i]->contention());
    std::uint64_t ops = 0;
    for (const auto *v : hot)
        ops += v->ops;
    EXPECT_GT(ops, 0u);
    std::ostringstream js;
    p->writeJson(js, 4);
    Json arr = parseJson(js.str());
    EXPECT_EQ(arr.kind, Json::Arr);
    EXPECT_EQ(arr.arr.size(), hot.size());
}

TEST(EndToEnd, ObservabilityIsInert)
{
    ObsConfig off; // defaults: everything disabled
    ObsConfig on;
    on.traceEnabled = true;
    on.profileSync = true;
    on.sampleInterval = 1000;
    auto a = e2e::run("water-sp", off, 7);
    auto b = e2e::run("water-sp", on, 7);
    EXPECT_EQ(a->makespan(), b->makespan())
        << "observability perturbed the schedule";
    EXPECT_EQ(a->stats().counterValue("sync.hwOps"),
              b->stats().counterValue("sync.hwOps"));
    EXPECT_EQ(a->stats().counterValue("noc.packetsSent"),
              b->stats().counterValue("noc.packetsSent"));
    EXPECT_GT(b->sampler()->rows().size(), 1u);
}

} // namespace
} // namespace misar
