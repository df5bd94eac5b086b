/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering,
 * statistics, RNG determinism, and configuration validation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "obs/tracer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "util/json.hh"

namespace misar {
namespace {

TEST(EventQueue, StartsAtZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunsEventsInTickOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        eq.schedule(1, [&] {
            eq.schedule(1, [&] { ++fired; });
            ++fired;
        });
        ++fired;
    });
    eq.run();
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.now(), 3u);
}

TEST(EventQueue, ZeroDelayRunsSameTick)
{
    EventQueue eq;
    Tick seen = maxTick;
    eq.schedule(7, [&] { eq.schedule(0, [&] { seen = eq.now(); }); });
    eq.run();
    EXPECT_EQ(seen, 7u);
}

TEST(EventQueue, RunLimitStops)
{
    EventQueue eq;
    bool late = false;
    eq.schedule(100, [&] { late = true; });
    EXPECT_FALSE(eq.run(50));
    EXPECT_FALSE(late);
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(late);
}

TEST(EventQueue, RunUntilAdvancesClock)
{
    EventQueue eq;
    eq.runUntil(42);
    EXPECT_EQ(eq.now(), 42u);
}

TEST(EventQueue, CountsExecutedEvents)
{
    EventQueue eq;
    for (int i = 0; i < 5; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.executedEvents(), 5u);
}

TEST(Stats, CounterBasics)
{
    StatCounter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(4);
    EXPECT_EQ(c.value(), 5u);
    c.dec(2);
    EXPECT_EQ(c.value(), 3u);
}

TEST(Stats, AverageTracksMoments)
{
    StatAverage a;
    a.sample(2.0);
    a.sample(4.0);
    a.sample(9.0);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
    EXPECT_DOUBLE_EQ(a.min(), 2.0);
    EXPECT_DOUBLE_EQ(a.max(), 9.0);
    EXPECT_EQ(a.count(), 3u);
}

TEST(Stats, RegistryPrefixSum)
{
    StatRegistry r;
    r.counter("tile0.l1.miss").inc(3);
    r.counter("tile1.l1.miss").inc(4);
    r.counter("tile1.l1.hit").inc(100);
    r.counter("other").inc(7);
    EXPECT_EQ(r.sumCounters("tile"), 107u);
    EXPECT_EQ(r.sumCounters("tile0"), 3u);
    EXPECT_EQ(r.sumCounters("nope"), 0u);
}

TEST(Stats, PooledMeanWeightsBySamples)
{
    StatRegistry r;
    r.average("x.a").sample(1.0);
    r.average("x.a").sample(1.0);
    r.average("x.b").sample(4.0);
    EXPECT_DOUBLE_EQ(r.pooledMean("x."), 2.0);
}

TEST(Stats, DumpContainsNames)
{
    StatRegistry r;
    r.counter("alpha").inc(1);
    r.average("beta").sample(2.5);
    std::ostringstream os;
    r.dump(os);
    const std::string s = os.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("beta"), std::string::npos);
}

TEST(Stats, HandleCreatesNoEntryUntilFirstCount)
{
    StatRegistry r;
    const std::string prefix = "tile0.l1.";
    StatHandle hits(r, prefix, "hits");
    AverageHandle lat(r, "noc.latency");
    std::ostringstream os;
    r.dump(os);
    EXPECT_EQ(os.str(), "");
    EXPECT_EQ(r.lookups(), 0u);

    hits.inc(0); // creates the entry, like counter(name).inc(0)
    lat.sample(4.0);
    std::ostringstream os2;
    r.dump(os2);
    EXPECT_EQ(os2.str(), "tile0.l1.hits 0\n"
                         "noc.latency mean=4.00 count=1 min=4.00 max=4.00\n");
}

TEST(Stats, HandleLooksUpOnceAndSurvivesReset)
{
    StatRegistry r;
    const std::string prefix = "core3.";
    StatHandle loads(r, prefix, "loads");
    loads.inc();
    loads.inc(2);
    EXPECT_EQ(r.lookups(), 1u);
    EXPECT_EQ(r.counterValue("core3.loads"), 3u);

    r.reset();
    EXPECT_EQ(r.counterValue("core3.loads"), 0u);
    loads.inc(5);
    EXPECT_EQ(r.counterValue("core3.loads"), 5u);
    EXPECT_EQ(r.lookups(), 1u);
}

TEST(Stats, HandlesWithOneNameShareAnEntry)
{
    StatRegistry r;
    const std::string a = "tile1.", b = "tile1.";
    StatHandle x(r, a, "misses");
    StatHandle y(r, b, "misses");
    StatHandle z(r, "tile1.misses");
    x.inc();
    y.inc(2);
    z.inc(4);
    r.counter("tile1.misses").inc(8);
    EXPECT_EQ(r.counterValue("tile1.misses"), 15u);
    EXPECT_EQ(r.sumCounters("tile1."), 15u);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, RangeInBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.range(17), 17u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Config, MeshDimSquare)
{
    SystemConfig cfg = makeConfig(16, AccelMode::MsaOmu, 2);
    EXPECT_EQ(cfg.meshDim(), 4u);
    cfg = makeConfig(64, AccelMode::MsaInfinite);
    EXPECT_EQ(cfg.meshDim(), 8u);
}

TEST(Config, AccelNames)
{
    EXPECT_EQ(makeConfig(16, AccelMode::None).accelName(), "MSA-0");
    EXPECT_EQ(makeConfig(16, AccelMode::MsaOmu, 1).accelName(), "MSA/OMU-1");
    EXPECT_EQ(makeConfig(16, AccelMode::MsaOmu, 2).accelName(), "MSA/OMU-2");
    EXPECT_EQ(makeConfig(16, AccelMode::MsaInfinite).accelName(), "MSA-inf");
    EXPECT_EQ(makeConfig(16, AccelMode::Ideal).accelName(), "Ideal");
}

TEST(Config, BlockHelpers)
{
    EXPECT_EQ(blockAlign(0x1234), 0x1200u);
    EXPECT_EQ(blockOffset(0x1234), 0x34u);
    EXPECT_EQ(blockAlign(blockAlign(0xdeadbeef)), blockAlign(0xdeadbeef));
}

TEST(Trace, ChromeJsonWellFormed)
{
    StatRegistry stats;
    obs::Tracer tr(stats, 16);
    const obs::TrackId a = tr.addTrack(obs::pidCores, 0, "core 0");
    const obs::TrackId b = tr.addTrack(obs::pidCores, 1, "core 1");
    tr.complete(a, 0, 4, "compute");
    tr.complete(b, 2, 9, "read", 0x40);
    std::ostringstream os;
    tr.write(os);
    const std::string j = os.str();
    std::string err;
    EXPECT_TRUE(util::parseJson(j, &err).isObj()) << err;
    EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(j.find("\"name\":\"compute\""), std::string::npos);
    EXPECT_NE(j.find("\"tid\":1"), std::string::npos);
    EXPECT_NE(j.find("0x40"), std::string::npos);
}

} // namespace
} // namespace misar
