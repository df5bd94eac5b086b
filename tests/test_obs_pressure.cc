/**
 * @file
 * Resource-pressure observability tests: the log-bucketed latency
 * histogram (exactness below 128, the 1% relative-error bound on
 * percentiles, merge == histogram-of-concatenated-stream, JSON
 * round-trip), the ResourceMonitor's episode/high-water/overflow
 * bookkeeping and row-cap alignment, system-level heatmap timelines
 * under forced OMU overflow and under the faulted presets (gap-free,
 * sampler-aligned, episode spans cross-checked against the sampled
 * per-tile OMU gauges), run-report schema v2 (strict superset of
 * v1), strict CLI validation of --top / --sample-interval in the
 * real misar_sim binary, and that its --stats dump lists exactly the
 * stats of the same run's --stats-json report.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/heatmap.hh"
#include "obs/histogram.hh"
#include "obs/run_report.hh"
#include "obs/sampler.hh"
#include "obs/sync_profiler.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sync/sync_lib.hh"
#include "system/presets.hh"
#include "system/system.hh"
#include "util/json.hh"
#include "workload/app_catalog.hh"
#include "workload/synthetic_app.hh"

namespace misar {
namespace {

using obs::LogHistogram;
using obs::ResourceMonitor;

/** Deterministic 64-bit LCG (no platform-dependent distributions). */
struct Lcg
{
    std::uint64_t s;
    explicit Lcg(std::uint64_t seed) : s(seed) {}

    std::uint64_t
    next()
    {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        return s;
    }

    /** Uniform-ish value in [0, bound). */
    std::uint64_t next(std::uint64_t bound) { return next() % bound; }
};

util::Json
parsed(const std::string &text)
{
    std::string err;
    util::Json j = util::parseJson(text, &err);
    EXPECT_TRUE(err.empty()) << err;
    return j;
}

// --- LogHistogram ---------------------------------------------------------

TEST(LogHistogram, EmptyIsZero)
{
    LogHistogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(LogHistogram, ValuesBelowLimitAreExact)
{
    LogHistogram h;
    for (std::uint64_t v = 0; v < LogHistogram::exactLimit; ++v) {
        EXPECT_EQ(LogHistogram::bucketIndex(v), v);
        EXPECT_EQ(LogHistogram::bucketValue(static_cast<unsigned>(v)), v);
        h.record(v);
    }
    EXPECT_EQ(h.count(), LogHistogram::exactLimit);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), LogHistogram::exactLimit - 1);
    // The k-th smallest of 0..127 is k-1; percentile() reports it
    // exactly because every value has its own bucket.
    EXPECT_EQ(h.percentile(0.5), 63u);
    EXPECT_EQ(h.percentile(1.0), 127u);
}

TEST(LogHistogram, ReconstructionErrorIsBounded)
{
    // Any recorded value comes back (as its bucket midpoint) within
    // 1/128 relative error, across the whole 64-bit range.
    Lcg rng(17);
    std::vector<std::uint64_t> vals;
    for (unsigned mag = 7; mag < 63; ++mag)
        for (unsigned i = 0; i < 32; ++i)
            vals.push_back((1ULL << mag) + rng.next(1ULL << mag));
    for (std::uint64_t v : vals) {
        const unsigned idx = LogHistogram::bucketIndex(v);
        const std::uint64_t mid = LogHistogram::bucketValue(idx);
        EXPECT_LE(LogHistogram::bucketLow(idx), v);
        const double err =
            v > mid ? double(v - mid) / double(v) : double(mid - v) / double(v);
        EXPECT_LE(err, 1.0 / 128.0) << "value " << v;
    }
}

TEST(LogHistogram, PercentilesWithinOnePercentOfExact)
{
    // A mixed stream spanning the exact range and several decades of
    // bucketed range; exact percentiles computed from the sorted
    // stream by the same rank rule percentile() documents.
    Lcg rng(99);
    std::vector<std::uint64_t> vals;
    for (unsigned i = 0; i < 4000; ++i)
        vals.push_back(rng.next(100));
    for (unsigned i = 0; i < 4000; ++i)
        vals.push_back(100 + rng.next(10000));
    for (unsigned i = 0; i < 2000; ++i)
        vals.push_back(10000 + rng.next(10000000));
    LogHistogram h;
    for (std::uint64_t v : vals)
        h.record(v);
    std::vector<std::uint64_t> sorted = vals;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::max<double>(1.0, std::ceil(q * double(sorted.size()))));
        const std::uint64_t exact = sorted[rank - 1];
        const std::uint64_t got = h.percentile(q);
        const double err = got > exact ? double(got - exact)
                                       : double(exact - got);
        EXPECT_LE(err, 0.01 * double(exact) + 0.5)
            << "q=" << q << " exact=" << exact << " got=" << got;
    }
}

TEST(LogHistogram, MergeMatchesConcatenatedStream)
{
    Lcg rng(7);
    LogHistogram a, b, all;
    for (unsigned i = 0; i < 5000; ++i) {
        const std::uint64_t v = rng.next(1u << 20);
        (i % 3 ? a : b).record(v);
        all.record(v);
    }
    LogHistogram merged = a;
    merged.merge(b);
    EXPECT_TRUE(merged == all);
    EXPECT_EQ(merged.count(), all.count());
    EXPECT_EQ(merged.sum(), all.sum());
    EXPECT_EQ(merged.min(), all.min());
    EXPECT_EQ(merged.max(), all.max());
    for (double q : {0.5, 0.9, 0.99, 0.999})
        EXPECT_EQ(merged.percentile(q), all.percentile(q)) << "q=" << q;
}

TEST(LogHistogram, JsonRoundTrip)
{
    Lcg rng(3);
    LogHistogram h;
    for (unsigned i = 0; i < 1000; ++i)
        h.record(rng.next(1u << 24));
    std::ostringstream os;
    {
        util::JsonWriter w(os);
        h.writeJson(w);
    }
    const util::Json doc = parsed(os.str());
    LogHistogram back;
    ASSERT_TRUE(LogHistogram::fromJson(doc, back));
    EXPECT_TRUE(back == h);

    // A count that disagrees with the bucket totals is rejected.
    std::string tampered = os.str();
    const std::string needle = "\"count\":1000";
    const std::size_t at = tampered.find(needle);
    ASSERT_NE(at, std::string::npos);
    tampered.replace(at, needle.size(), "\"count\":1001");
    LogHistogram bad;
    EXPECT_FALSE(LogHistogram::fromJson(parsed(tampered), bad));
}

// --- ResourceMonitor ------------------------------------------------------

TEST(ResourceMonitor, EpisodesOpenAndCloseOnActivityEdges)
{
    ResourceMonitor m(100);
    // Tile 2: 0 -> 1 live counters opens, back to 0 closes.
    m.omuUpdate(2, 1, 5, 1000);
    m.omuUpdate(2, 2, 3, 1200); // still active: no new episode
    m.omuUpdate(2, 0, 0, 1500);
    // Tile 0: separate episode, interleaved in time.
    m.omuUpdate(0, 1, 9, 1100);
    m.omuUpdate(0, 0, 0, 1300);
    ASSERT_EQ(m.omuEpisodes().size(), 2u);
    const ResourceMonitor::Episode &e0 = m.omuEpisodes()[0];
    EXPECT_EQ(e0.tile, 2u);
    EXPECT_EQ(e0.begin, 1000u);
    EXPECT_EQ(e0.end, 1500u);
    EXPECT_TRUE(e0.closed);
    const ResourceMonitor::Episode &e1 = m.omuEpisodes()[1];
    EXPECT_EQ(e1.tile, 0u);
    EXPECT_EQ(e1.begin, 1100u);
    EXPECT_EQ(e1.end, 1300u);
    EXPECT_TRUE(e1.closed);
    EXPECT_EQ(m.omuEpisodeTicks(), 500u + 200u);
    EXPECT_EQ(m.omuHighWater(), 9u);
}

TEST(ResourceMonitor, FinalizeClosesOpenEpisodesIdempotently)
{
    ResourceMonitor m(100);
    m.omuUpdate(1, 1, 2, 400);
    m.finalize(900);
    ASSERT_EQ(m.omuEpisodes().size(), 1u);
    EXPECT_EQ(m.omuEpisodes()[0].end, 900u);
    // Still marked unclosed: the span was cut by end-of-run, not by
    // the activity draining.
    EXPECT_FALSE(m.omuEpisodes()[0].closed);
    EXPECT_EQ(m.omuEpisodeTicks(), 500u);
    m.finalize(2000); // idempotent: the earlier cut stands
    EXPECT_EQ(m.omuEpisodes()[0].end, 900u);
}

TEST(ResourceMonitor, OverflowEventsCount)
{
    ResourceMonitor m(100);
    EXPECT_EQ(m.overflowEvents(), 0u);
    m.onOverflow(3, 50);
    m.onOverflow(3, 60);
    m.onOverflow(1, 70);
    EXPECT_EQ(m.overflowEvents(), 3u);
}

TEST(ResourceMonitor, RowCapDropsWholeRowsAndStaysAligned)
{
    ResourceMonitor m(10);
    double va = 1.0, vb = 10.0;
    m.addGauge("a", "kindA", 0, 0, [&] { return va; });
    m.addGauge("b", "kindB", 0, 1, [&] { return vb; });
    m.setMaxRows(2);
    m.sample(0);
    va = 2.0;
    vb = 20.0;
    m.sample(10);
    va = 3.0;
    m.sample(20); // over the cap: the whole row is dropped
    EXPECT_EQ(m.numSamples(), 2u);
    EXPECT_EQ(m.droppedRows(), 1u);
    ASSERT_EQ(m.gaugeValues(0).size(), 2u);
    ASSERT_EQ(m.gaugeValues(1).size(), 2u);
    EXPECT_DOUBLE_EQ(m.gaugeValues(0)[1], 2.0);
    EXPECT_DOUBLE_EQ(m.maxOfKind("kindA"), 2.0);
    EXPECT_DOUBLE_EQ(m.maxOfKind("kindB"), 20.0);
    EXPECT_DOUBLE_EQ(m.maxOfKind("absent"), 0.0);
}

// --- System-level timelines -----------------------------------------------

/** Run catalog app @p app on @p cfg; the system is returned for
 *  inspection (sampler, monitor, profiler all still attached). */
std::unique_ptr<sys::System>
runSystem(SystemConfig cfg, sync::SyncLib::Flavor flavor, const char *app,
          std::uint64_t seed = 1)
{
    cfg.seed = seed;
    auto s = std::make_unique<sys::System>(cfg);
    sync::SyncLib lib(flavor, cfg.numThreads());
    workload::AppLayout layout;
    const workload::AppSpec &spec = workload::appByName(app);
    for (CoreId t = 0; t < cfg.numThreads(); ++t)
        s->start(t, workload::appThread(s->api(t), spec, layout, &lib,
                                        cfg.numThreads(), seed));
    EXPECT_TRUE(s->run(500000000ULL));
    return s;
}

/** Quiesce-sample, finalize the monitor, and check the timeline is
 *  sampler-aligned and gap-free (consecutive periodic rows exactly
 *  one interval apart; the quiesce row may land anywhere after). */
void
checkTimeline(sys::System &s, Tick interval)
{
    ASSERT_NE(s.sampler(), nullptr);
    ASSERT_NE(s.monitor(), nullptr);
    s.sampler()->sampleNow(); // the quiesce row the runner takes
    s.monitor()->finalize(s.eventQueue().now());

    const ResourceMonitor &m = *s.monitor();
    const auto &rows = s.sampler()->rows();
    ASSERT_GE(rows.size(), 3u) << "run too short to exercise sampling";
    // Monitor rows ride the sampler's schedule one-for-one.
    ASSERT_EQ(m.numSamples(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(m.sampleTicks()[i], rows[i].tick) << "row " << i;
    for (std::size_t g = 0; g < m.numGauges(); ++g)
        ASSERT_EQ(m.gaugeValues(g).size(), m.numSamples())
            << "gauge " << m.gaugeName(g) << " misaligned";
    // Gap-free: t=0 row, then exactly one interval per periodic row.
    EXPECT_EQ(m.sampleTicks().front(), 0u);
    for (std::size_t i = 1; i + 1 < m.sampleTicks().size(); ++i)
        EXPECT_EQ(m.sampleTicks()[i] - m.sampleTicks()[i - 1], interval)
            << "gap before row " << i;
    EXPECT_GE(m.sampleTicks().back(),
              m.sampleTicks()[m.sampleTicks().size() - 2]);
    EXPECT_EQ(m.droppedRows(), 0u);
}

TEST(PressureE2E, ForcedOverflowEpisodesSpanSampledOmuActivity)
{
    // One MSA entry per tile forces entry-allocation overflow, which
    // drives addresses through the OMU: overflow events and OMU
    // activity episodes must both appear.
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 1);
    cfg.obs.heatmapEnabled = true;
    cfg.obs.sampleInterval = 1000;
    // water-sp on a 1-entry MSA spends most of the run with live OMU
    // counters (hundreds of overflows), so the 1000-tick cadence is
    // guaranteed to catch live samples for the cross-check.
    auto s = runSystem(cfg, sync::SyncLib::Flavor::Hw, "water-sp");
    checkTimeline(*s, 1000);

    const ResourceMonitor &m = *s->monitor();
    EXPECT_GT(m.overflowEvents(), 0u);
    ASSERT_FALSE(m.omuEpisodes().empty());
    EXPECT_GT(m.omuEpisodeTicks(), 0u);
    EXPECT_GT(m.omuHighWater(), 0u);

    // Cross-check the event-driven episode spans against the sampled
    // per-tile OMU gauges: a sample that sees a live counter must lie
    // inside an episode of that tile, and a sample that sees none
    // must not lie strictly inside one. Boundary-equal ticks are
    // excluded from the zero check (same-tick event order between the
    // sampler maintenance event and the OMU update is unspecified).
    std::size_t activeSamples = 0;
    for (std::size_t g = 0; g < m.numGauges(); ++g) {
        if (m.gaugeKind(g) != "omu")
            continue;
        const std::string &name = m.gaugeName(g); // "slice<T>.omu<I>"
        const unsigned tile =
            static_cast<unsigned>(std::atoi(name.c_str() + 5));
        const std::vector<double> &vals = m.gaugeValues(g);
        for (std::size_t i = 0; i < vals.size(); ++i) {
            const Tick t = m.sampleTicks()[i];
            bool inside = false, interior = false;
            for (const ResourceMonitor::Episode &e : m.omuEpisodes()) {
                if (e.tile != tile)
                    continue;
                inside |= e.begin <= t && t <= e.end;
                interior |= e.begin < t && t < e.end;
            }
            if (vals[i] > 0) {
                ++activeSamples;
                EXPECT_TRUE(inside)
                    << name << " live at tick " << t
                    << " outside every episode of tile " << tile;
            } else {
                // All gauges of the tile must be zero for the tick to
                // be provably episode-free; a single zero counter
                // proves nothing, so only check single-counter spans
                // via the aggregate below.
            }
        }
    }
    EXPECT_GT(activeSamples, 0u)
        << "sampling never caught a live OMU counter; interval too "
           "coarse for the cross-check to mean anything";

    // Aggregate per-tile activity: all counters zero at a sampled
    // tick => that tick is not strictly inside any episode.
    for (unsigned tile = 0; tile < cfg.numCores; ++tile) {
        std::vector<std::size_t> tileGauges;
        for (std::size_t g = 0; g < m.numGauges(); ++g)
            if (m.gaugeKind(g) == "omu" &&
                m.gaugeName(g).compare(0, 5, "slice") == 0 &&
                static_cast<unsigned>(
                    std::atoi(m.gaugeName(g).c_str() + 5)) == tile)
                tileGauges.push_back(g);
        ASSERT_FALSE(tileGauges.empty());
        for (std::size_t i = 0; i < m.numSamples(); ++i) {
            double any = 0.0;
            for (std::size_t g : tileGauges)
                any += m.gaugeValues(g)[i];
            if (any > 0)
                continue;
            const Tick t = m.sampleTicks()[i];
            for (const ResourceMonitor::Episode &e : m.omuEpisodes()) {
                if (e.tile != tile)
                    continue;
                EXPECT_FALSE(e.begin < t && t < e.end)
                    << "tile " << tile << " idle at sampled tick "
                    << t << " inside episode [" << e.begin << ","
                    << e.end << "]";
            }
        }
    }

    // The heatmap document carries the same data.
    std::ostringstream os;
    m.writeJson(os);
    const util::Json doc = parsed(os.str());
    EXPECT_EQ(doc.at("schemaVersion").uintOr(0), 1u);
    EXPECT_EQ(doc.at("interval").uintOr(0), 1000u);
    EXPECT_EQ(doc.at("ticks").arr.size(), m.numSamples());
    EXPECT_EQ(doc.at("resources").arr.size(), m.numGauges());
    EXPECT_EQ(doc.at("overflowEvents").uintOr(0), m.overflowEvents());
    const util::Json &eps = doc.at("omuEpisodes");
    ASSERT_EQ(eps.arr.size(), m.omuEpisodes().size());
    for (std::size_t i = 0; i < eps.arr.size(); ++i) {
        const ResourceMonitor::Episode &e = m.omuEpisodes()[i];
        EXPECT_EQ(eps.arr[i].at("tile").uintOr(~0u), e.tile);
        EXPECT_EQ(eps.arr[i].at("begin").uintOr(~0u), e.begin);
        EXPECT_EQ(eps.arr[i].at("end").uintOr(~0u), e.end);
        EXPECT_EQ(eps.arr[i].at("closed").boolOr(!e.closed), e.closed);
    }
}

TEST(PressureE2E, TimelinesGapFreeUnderCoreFaults)
{
    SystemConfig cfg = sys::configFor(sys::PaperConfig::MsaOmu2CoreFaults,
                                      16);
    cfg.obs.heatmapEnabled = true;
    cfg.obs.sampleInterval = 5000;
    auto s = runSystem(cfg, sys::flavorFor(sys::PaperConfig::MsaOmu2CoreFaults),
                       "radix");
    checkTimeline(*s, 5000);
    EXPECT_GT(s->stats().counterValue("resil.coreKills"), 0u)
        << "preset did not actually kill a core";
}

TEST(PressureE2E, TimelinesGapFreeUnderSliceFailover)
{
    SystemConfig cfg = sys::configFor(sys::PaperConfig::MsaOmu2Faults, 16);
    cfg.resil.failoverBuddy = 1; // re-home tile 0's variables
    cfg.obs.heatmapEnabled = true;
    cfg.obs.sampleInterval = 5000;
    auto s = runSystem(cfg, sys::flavorFor(sys::PaperConfig::MsaOmu2Faults),
                       "fft");
    checkTimeline(*s, 5000);
    EXPECT_GT(s->stats().sumCountersSuffix(".msa.offlineEvents"), 0u)
        << "preset did not actually decommission a slice";
}

TEST(PressureE2E, DisabledMonitorIsInertAndAbsent)
{
    SystemConfig off = makeConfig(16, AccelMode::MsaOmu, 2);
    auto a = runSystem(off, sync::SyncLib::Flavor::Hw, "water-sp", 7);
    EXPECT_EQ(a->monitor(), nullptr);
    EXPECT_EQ(a->sampler(), nullptr);

    // Identical obs-off runs dump byte-identical reports.
    auto a2 = runSystem(off, sync::SyncLib::Flavor::Hw, "water-sp", 7);
    obs::RunMeta meta;
    meta.app = "water-sp";
    meta.outcome = "finished";
    std::ostringstream ra, ra2;
    obs::writeRunReport(ra, meta, a->stats());
    obs::writeRunReport(ra2, meta, a2->stats());
    EXPECT_EQ(ra.str(), ra2.str());

    // The full pressure stack on the same seed must not move the
    // schedule or any registry counter.
    SystemConfig on = off;
    on.obs.heatmapEnabled = true;
    on.obs.sampleInterval = 2000;
    auto b = runSystem(on, sync::SyncLib::Flavor::Hw, "water-sp", 7);
    EXPECT_EQ(a->makespan(), b->makespan())
        << "the pressure monitor perturbed the schedule";
    EXPECT_EQ(a->stats().counterValue("sync.hwOps"),
              b->stats().counterValue("sync.hwOps"));
    EXPECT_EQ(a->stats().counterValue("noc.packetsSent"),
              b->stats().counterValue("noc.packetsSent"));
    std::ostringstream rb;
    obs::writeRunReport(rb, meta, b->stats());
    EXPECT_EQ(ra.str(), rb.str())
        << "pressure monitoring leaked into the stats registry";
}

// --- Run report v2 --------------------------------------------------------

TEST(RunReportV2, StrictSupersetOfV1WithLatencyAndHeatmap)
{
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 1);
    cfg.obs.profileSync = true;
    cfg.obs.heatmapEnabled = true;
    cfg.obs.sampleInterval = 2000;
    auto s = runSystem(cfg, sync::SyncLib::Flavor::Hw, "radix");
    s->sampler()->sampleNow();
    s->monitor()->finalize(s->eventQueue().now());

    obs::RunMeta meta;
    meta.app = "radix";
    meta.preset = "msa-omu";
    meta.accel = s->config().accelName();
    meta.flavor = "hw-hybrid";
    meta.cores = 16;
    meta.seed = 1;
    meta.outcome = "finished";
    meta.makespan = s->makespan();
    meta.hwCoverage = 0.5;
    std::ostringstream os;
    obs::writeRunReport(os, meta, s->stats(), s->syncProfiler(), 8,
                        s->sampler(), &s->eventQueue(), s->monitor());
    const util::Json r = parsed(os.str());

    EXPECT_EQ(r.at("schemaVersion").uintOr(0), 4u);
    // Every v1 required field, same type and place.
    for (const char *k : {"app", "preset", "accel", "flavor", "outcome"})
        EXPECT_TRUE(r.at("meta").at(k).isStr()) << "meta." << k;
    for (const char *k : {"cores", "seed", "makespan", "hwCoverage"})
        EXPECT_TRUE(r.at("meta").at(k).isNum()) << "meta." << k;
    EXPECT_TRUE(r.at("resilience").at("timeouts").isNum());
    EXPECT_TRUE(r.at("stats").at("counters").isObj());
    EXPECT_TRUE(r.at("stats").at("averages").isObj());
    EXPECT_TRUE(r.at("stats").at("histograms").isObj());
    EXPECT_TRUE(r.at("syncVars").isArr());
    EXPECT_TRUE(r.at("samples").isObj());
    EXPECT_TRUE(r.at("eventQueue").isObj());

    // v2 additions: the run-level wait histogram round-trips to the
    // profiler's own aggregate, and the heatmap summary matches the
    // monitor.
    ASSERT_TRUE(r.at("latency").at("syncWait").isObj());
    LogHistogram wait;
    ASSERT_TRUE(
        LogHistogram::fromJson(r.at("latency").at("syncWait"), wait));
    EXPECT_TRUE(wait == s->syncProfiler()->overallWait());
    EXPECT_GT(wait.count(), 0u);
    const util::Json &hm = r.at("heatmap");
    ASSERT_TRUE(hm.isObj());
    EXPECT_EQ(hm.at("resources").uintOr(0), s->monitor()->numGauges());
    EXPECT_EQ(hm.at("samples").uintOr(0), s->monitor()->numSamples());
    EXPECT_EQ(hm.at("overflowEvents").uintOr(0),
              s->monitor()->overflowEvents());
    EXPECT_EQ(hm.at("omuEpisodes").uintOr(0),
              s->monitor()->omuEpisodes().size());

    // Without profiler and monitor the v2 blocks are absent (v1
    // consumers see a v1-shaped document).
    std::ostringstream plain;
    obs::writeRunReport(plain, meta, s->stats());
    const util::Json p = parsed(plain.str());
    EXPECT_FALSE(p.has("latency"));
    EXPECT_FALSE(p.has("heatmap"));
    EXPECT_FALSE(p.has("syncVars"));
}

// --- misar_sim CLI validation ---------------------------------------------

/** Run the real simulator binary; return its exit code + output. */
int
runSim(const std::string &args, std::string &output)
{
    const std::string cmd =
        std::string(MISAR_SIM_PATH) + " " + args + " 2>&1";
    FILE *p = ::popen(cmd.c_str(), "r");
    EXPECT_NE(p, nullptr);
    if (!p)
        return -1;
    char buf[512];
    output.clear();
    while (std::fgets(buf, sizeof(buf), p))
        output += buf;
    int st = ::pclose(p);
    return WIFEXITED(st) ? WEXITSTATUS(st) : -1;
}

TEST(ObsCli, BadTopAndSampleIntervalAreRejected)
{
    struct Case
    {
        const char *args;
        const char *needle;
    };
    const Case cases[] = {
        // Zero, negative, non-numeric, and trailing-garbage values
        // must all die in the parser with a usable message, not be
        // silently atoi'd into nonsense.
        {"--app fft --top 0", "--top expects a positive"},
        {"--app fft --top -3", "--top expects a positive"},
        {"--app fft --top junk", "--top expects a positive"},
        {"--app fft --top 4x", "--top expects a positive"},
        {"--app fft --sample-interval 0",
         "--sample-interval expects a positive"},
        {"--app fft --sample-interval -5",
         "--sample-interval expects a positive"},
        {"--app fft --sample-interval abc",
         "--sample-interval expects a positive"},
        {"--app fft --sample-interval 10k",
         "--sample-interval expects a positive"},
        // The run-shape numbers too: "5e9" is not a 5-tick budget,
        // "-1" entries do not wrap, and "16x" / "7abc" are not 16 / 7.
        {"--app fft --tick-limit 5e9", "--tick-limit expects a positive"},
        {"--app fft --entries -1", "--entries expects a decimal"},
        {"--app fft --cores 16x", "--cores expects a positive"},
        {"--app fft --cores 4294967312", "--cores 4294967312 is out of"},
        {"--app fft --smt 2x", "--smt expects a positive"},
        {"--app fft --seed 7abc", "--seed expects a decimal"},
        // A removed flag is refused, not ignored.
        {"--app fft --threads 2", "unknown option --threads"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.args);
        std::string out;
        EXPECT_EQ(runSim(c.args, out), 1) << out;
        EXPECT_NE(out.find(c.needle), std::string::npos) << out;
    }
}

TEST(ObsCli, HeatmapOutWritesParseableDocument)
{
    const std::string path = "test_obs_pressure_heatmap_" +
                             std::to_string(::getpid()) + ".json";
    std::string out;
    const int rc =
        runSim("--app fft --cores 4 --config msa-omu --entries 1 "
               "--heatmap-out " + path, out);
    EXPECT_EQ(rc, 0) << out;
    std::string err;
    const util::Json doc = util::parseJsonFile(path, &err);
    EXPECT_TRUE(err.empty()) << err;
    EXPECT_EQ(doc.at("schemaVersion").uintOr(0), 1u);
    // --heatmap-out without --sample-interval defaults the cadence.
    EXPECT_EQ(doc.at("interval").uintOr(0), 10000u);
    EXPECT_GT(doc.at("ticks").arr.size(), 1u);
    EXPECT_FALSE(doc.at("resources").arr.empty());
    EXPECT_TRUE(doc.has("omuEpisodes"));
    EXPECT_TRUE(doc.has("overflowEvents"));
    std::remove(path.c_str());
}

TEST(ObsCli, StatsDumpListsTheReportsStats)
{
    // Printing the run summary must read the registry, not register
    // zero counters the report never saw. A baseline run never uses
    // the sync unit: its summary has no coverage figure.
    for (const char *config : {"msa-omu", "msa-omu-faults", "baseline"}) {
        SCOPED_TRACE(config);
        const std::string path = "test_obs_pressure_stats_" +
                                 std::to_string(::getpid()) + ".json";
        std::string out;
        ASSERT_EQ(runSim(std::string("--app fft --cores 16 --config ") +
                             config + " --stats --stats-json " + path,
                         out),
                  0)
            << out;
        const bool no_sync_unit = std::string(config) == "baseline";
        EXPECT_EQ(out.find("0 hardware / 0 software (coverage n/a)") !=
                      std::string::npos,
                  no_sync_unit)
            << out;
        EXPECT_EQ(out.find("% coverage)") == std::string::npos,
                  no_sync_unit)
            << out;
        const std::string marker = "--- full statistics ---\n";
        const std::size_t at = out.find(marker);
        ASSERT_NE(at, std::string::npos) << out;
        std::set<std::string> dumped;
        std::istringstream lines(out.substr(at + marker.size()));
        for (std::string line; std::getline(lines, line);)
            if (!line.empty())
                dumped.insert(line.substr(0, line.find(' ')));

        std::string err;
        const util::Json doc = util::parseJsonFile(path, &err);
        ASSERT_TRUE(err.empty()) << err;
        std::set<std::string> reported;
        for (const char *kind : {"counters", "averages"})
            for (const auto &[name, v] : doc.at("stats").at(kind).obj)
                reported.insert(name);
        auto missing = [](const std::set<std::string> &from,
                          const std::set<std::string> &in) {
            std::string names;
            for (const std::string &n : from)
                if (!in.count(n))
                    names += " " + n;
            return names;
        };
        EXPECT_FALSE(reported.empty());
        EXPECT_EQ(dumped, reported)
            << "only in --stats:" << missing(dumped, reported)
            << "\nonly in --stats-json:" << missing(reported, dumped);
        std::remove(path.c_str());
    }
}

} // namespace
} // namespace misar
