/**
 * @file
 * Targeted tests for the calendar-queue event kernel and the flat
 * hash map backing the hot-path containers.
 *
 * test_sim.cc covers the EventQueue's externally visible ordering
 * contract; the cases here aim at the calendar-queue internals
 * (8-tick near window of lane chains, 4096-tick bucket ring,
 * far-future overflow heap, event-record pool) by crossing their
 * boundaries on purpose.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/flat_map.hh"

namespace misar {
namespace {

/** The kernel's near-future ring covers this many ticks. */
constexpr Tick ringWindow = 4096;
/** Events due fewer than this many ticks ahead skip the ring. */
constexpr Tick nearWindow = 8;

TEST(EventQueueCalendar, BucketWrapAround)
{
    // Events more than one window apart land in the same ring bucket
    // (tick mod 4096); they must still run in tick order.
    EventQueue eq;
    std::vector<Tick> fired;
    auto at = [&](Tick t) { eq.scheduleAt(t, [&fired, &eq] {
        fired.push_back(eq.now());
    }); };
    at(5);
    at(5 + ringWindow);     // same bucket as 5, next lap
    at(5 + 2 * ringWindow); // same bucket, two laps out
    at(ringWindow - 1);
    at(ringWindow);         // bucket 0, second lap
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(fired, (std::vector<Tick>{5, ringWindow - 1, ringWindow,
                                        5 + ringWindow,
                                        5 + 2 * ringWindow}));
}

TEST(EventQueueCalendar, WrapAroundWhileRunning)
{
    // Chain of events each rescheduling itself one window ahead: the
    // ring index wraps many times while the queue is live.
    EventQueue eq;
    int hops = 0;
    std::function<void()> hop = [&] {
        if (++hops < 20)
            eq.schedule(ringWindow - 1, hop);
    };
    eq.schedule(1, hop);
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(hops, 20);
    EXPECT_EQ(eq.now(), 1 + 19 * (ringWindow - 1));
}

TEST(EventQueueCalendar, OverflowPromotion)
{
    // Far-future events start in the overflow heap and must fire at
    // their exact tick after promotion into the ring.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleAt(10 * ringWindow, [&] { order.push_back(2); });
    eq.scheduleAt(3, [&] { order.push_back(1); });
    eq.scheduleAt(100 * ringWindow + 7, [&] { order.push_back(3); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 100 * ringWindow + 7);
}

TEST(EventQueueCalendar, PromotedEventPrecedesLaterSameTickInsertion)
{
    // Event A sits in the overflow heap for tick T. After the clock
    // advances far enough that T is inside the ring window, event B
    // is scheduled for the same tick T directly into the ring. A was
    // scheduled first, so A must run first.
    EventQueue eq;
    const Tick target = 3 * ringWindow;
    std::vector<char> order;
    eq.scheduleAt(target, [&] { order.push_back('A'); });
    eq.scheduleAt(target - 10, [&] {
        eq.scheduleAt(target, [&] { order.push_back('B'); });
    });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<char>{'A', 'B'}));
}

TEST(EventQueueCalendar, InterleavedAbsoluteAndRelative)
{
    // Mix scheduleAt/schedule across both levels and compare against
    // a reference executed order sorted by (tick, insertion order).
    EventQueue eq;
    std::multimap<Tick, int> expect;
    std::vector<int> fired;
    int id = 0;
    auto add = [&](Tick when, bool absolute) {
        int me = id++;
        expect.emplace(when, me);
        if (absolute)
            eq.scheduleAt(when, [&fired, me] { fired.push_back(me); });
        else
            eq.schedule(when - eq.now(), [&fired, me] { fired.push_back(me); });
    };
    // Deterministic pseudo-random tick pattern spanning both levels.
    std::uint64_t x = 12345;
    for (int i = 0; i < 500; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        Tick when = (x >> 33) % (8 * ringWindow);
        add(when, i % 2 == 0);
    }
    EXPECT_TRUE(eq.run());
    std::vector<int> want;
    for (const auto &[when, me] : expect)
        want.push_back(me);
    EXPECT_EQ(fired, want);
}

TEST(EventQueueCalendar, PendingAndEmptyInvariants)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    eq.schedule(1, [] {});
    eq.scheduleAt(5 * ringWindow, [] {}); // overflow level
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_FALSE(eq.run(2)); // first event ran, far one still pending
    EXPECT_EQ(eq.pending(), 1u);
    EXPECT_FALSE(eq.empty());
    EXPECT_TRUE(eq.run());
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executedEvents(), 2u);
}

TEST(EventQueueCalendar, SameTickInsertionDuringDrainRunsInOrder)
{
    // Regression for the drain loop: events scheduled *for the
    // current tick* from inside a callback must run this tick, after
    // everything already queued at this tick, in insertion order.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(1);
        eq.schedule(0, [&] {
            order.push_back(3);
            eq.schedule(0, [&] { order.push_back(4); });
        });
    });
    eq.schedule(10, [&] { order.push_back(2); });
    EXPECT_TRUE(eq.run());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueueCalendarDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    ASSERT_EQ(eq.now(), 100u);
    EXPECT_DEATH(eq.scheduleAt(99, [] {}), "scheduled in the past");
}

TEST(EventQueueCalendar, PoolRecyclesRecordsUnderChurn)
{
    // After a warmup wave, steady-state schedule/run churn must not
    // allocate new pool chunks: records are recycled via the free
    // list and small callbacks live in the inline buffer.
    EventQueue eq;
    for (int wave = 0; wave < 50; ++wave) {
        for (int i = 0; i < 200; ++i)
            eq.schedule(i % 7, [] {});
        eq.run();
    }
    const auto warmed = eq.poolStats();
    EXPECT_GT(warmed.chunkAllocs, 0u);
    EXPECT_EQ(warmed.heapCallbacks, 0u);
    for (int wave = 0; wave < 200; ++wave) {
        for (int i = 0; i < 200; ++i)
            eq.schedule(i % 7, [] {});
        eq.run();
    }
    const auto after = eq.poolStats();
    EXPECT_EQ(after.chunkAllocs, warmed.chunkAllocs);
    EXPECT_EQ(after.recordCapacity, warmed.recordCapacity);
    EXPECT_EQ(after.heapCallbacks, 0u);
    EXPECT_EQ(after.scheduled, warmed.scheduled + 200u * 200u);
}

TEST(EventQueueCalendar, OversizedCallbackFallsBackToHeap)
{
    // Captures too fat for the inline buffer are boxed (counted, not
    // broken): the callback still runs and still destructs cleanly.
    EventQueue eq;
    std::array<std::uint64_t, 32> fat{}; // 256 bytes > inline buffer
    fat[0] = 42;
    std::uint64_t seen = 0;
    eq.schedule(1, [fat, &seen] { seen = fat[0]; });
    EXPECT_EQ(eq.poolStats().heapCallbacks, 1u);
    eq.run();
    EXPECT_EQ(seen, 42u);
}

TEST(EventQueueCalendar, DestructorDropsPendingWithoutRunning)
{
    // Pending callbacks (inline and boxed) are destroyed, not run,
    // when the queue dies; ASan/LSan guards the boxed deallocation.
    bool ran = false;
    std::array<std::uint64_t, 32> fat{};
    {
        EventQueue eq;
        eq.schedule(5, [&ran] { ran = true; });
        eq.scheduleAt(20 * ringWindow, [fat, &ran] {
            ran = fat[0] != 0;
        });
    }
    EXPECT_FALSE(ran);
}

TEST(EventQueueCalendar, MaxPendingHighWaterMark)
{
    EventQueue eq;
    for (int i = 0; i < 100; ++i)
        eq.schedule(1, [] {});
    EXPECT_EQ(eq.poolStats().maxPending, 100u);
    eq.run();
    EXPECT_EQ(eq.poolStats().maxPending, 100u);
}

/**
 * A seeded random multi-lane schedule checked against a reference
 * model: the kernel must execute exactly in ascending (tick, lane,
 * issue order), whichever level each event waited in. Callbacks
 * schedule follow-ups across every boundary of the near window, the
 * ring and the overflow heap; waves are separated by idle gaps longer
 * than the ring; the loop stops the drain with runUntil() and drain
 * limits, and moves the clock past idle ticks with runUntil() before
 * filing events due that very tick from outside a drain.
 */
void
expectReferenceOrder(std::uint64_t seed)
{
    constexpr LaneId numLanes = 5;
    EventQueue eq;
    eq.setNumLanes(numLanes);

    struct Key
    {
        Tick when;
        LaneId lane;
        std::size_t id; ///< issue order
    };
    std::vector<Key> issued;
    std::vector<std::size_t> fired;
    std::uint64_t x = seed;
    auto rnd = [&x](std::uint64_t n) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        return (x >> 33) % n;
    };
    const Tick delays[] = {0,
                           1,
                           2,
                           3,
                           nearWindow - 1,
                           nearWindow,
                           nearWindow + 1,
                           100,
                           ringWindow - 1,
                           ringWindow,
                           ringWindow + 1,
                           3 * ringWindow + 17};
    auto pickDelay = [&] { return delays[rnd(std::size(delays))]; };
    std::size_t spawnBudget = 0;

    std::function<void(std::size_t)> body;
    auto issue = [&](LaneId lane, Tick delay) {
        const std::size_t id = issued.size();
        issued.push_back({eq.now() + delay, lane, id});
        eq.scheduleL(lane, delay, [&body, id] { body(id); });
    };
    body = [&](std::size_t id) {
        fired.push_back(id);
        EXPECT_EQ(eq.now(), issued[id].when);
        EXPECT_EQ(eq.currentLane(), issued[id].lane);
        for (std::uint64_t k = rnd(3); k > 0 && spawnBudget > 0;
             --k, --spawnBudget) {
            const Tick delay = pickDelay();
            // A same-tick follow-up may only target this or a later
            // lane: earlier lanes already ran this tick.
            const LaneId cur = eq.currentLane();
            const LaneId lane = static_cast<LaneId>(
                delay == 0 ? cur + rnd(numLanes - cur) : rnd(numLanes));
            issue(lane, delay);
        }
    };

    for (int wave = 0; wave < 10; ++wave) {
        spawnBudget = 3000;
        const Tick gap = 2 * ringWindow + rnd(ringWindow);
        for (int i = 0; i < 6; ++i)
            issue(static_cast<LaneId>(rnd(numLanes)), gap + rnd(3));
        while (!eq.empty()) {
            const std::uint64_t step = rnd(3);
            if (step == 0) {
                eq.runUntil(eq.now() + 1 + rnd(300));
                continue;
            }
            if (step == 1) {
                eq.run(rnd(2 * ringWindow));
                continue;
            }
            // Move the clock forward; when nothing was due up to the
            // new tick, that tick has not run, so events may be filed
            // for it from outside a drain.
            const Tick to = eq.now() + 1 + rnd(20);
            const bool idle = eq.nextEventTick() > to;
            eq.runUntil(to);
            issue(static_cast<LaneId>(rnd(numLanes)),
                  (idle ? 0 : 1) + pickDelay());
        }
    }

    std::vector<Key> want = issued;
    std::sort(want.begin(), want.end(), [](const Key &a, const Key &b) {
        return std::tie(a.when, a.lane, a.id) <
               std::tie(b.when, b.lane, b.id);
    });
    std::vector<std::size_t> wantIds;
    for (const Key &k : want)
        wantIds.push_back(k.id);
    ASSERT_EQ(fired.size(), issued.size());
    EXPECT_EQ(fired, wantIds);
    EXPECT_EQ(eq.executedEvents(), issued.size());
    EXPECT_EQ(eq.poolStats().scheduled, issued.size());
}

TEST(EventQueueOrder, LanesMatchReferenceModel)
{
    for (std::uint64_t seed : {1u, 2u, 3u})
        expectReferenceOrder(seed);
}

// ---------------------------------------------------------------------
// FlatMap
// ---------------------------------------------------------------------

TEST(FlatMap, BasicInsertFindErase)
{
    FlatMap<std::uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_FALSE(m.contains(7));
    m.insert(7, 70);
    m.insert(8, 80);
    EXPECT_EQ(m.size(), 2u);
    ASSERT_NE(m.find(7), nullptr);
    EXPECT_EQ(*m.find(7), 70);
    EXPECT_EQ(m.find(9), nullptr);
    EXPECT_TRUE(m.erase(7));
    EXPECT_FALSE(m.erase(7));
    EXPECT_EQ(m.size(), 1u);
    EXPECT_FALSE(m.contains(7));
    EXPECT_TRUE(m.contains(8));
}

TEST(FlatMap, OperatorIndexDefaultConstructs)
{
    FlatMap<std::uint64_t, unsigned> m;
    EXPECT_EQ(m[5], 0u);
    m[5] += 3;
    EXPECT_EQ(m[5], 3u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, TakeRemovesAndReturns)
{
    FlatMap<std::uint64_t, std::shared_ptr<int>> m;
    m.insert(1, std::make_shared<int>(11));
    auto p = m.take(1);
    ASSERT_TRUE(p);
    EXPECT_EQ(*p, 11);
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.take(1), nullptr); // absent -> default V
}

TEST(FlatMap, GrowsPastInitialCapacityAndKeepsEntries)
{
    FlatMap<std::uint64_t, std::uint64_t> m(8);
    for (std::uint64_t k = 0; k < 1000; ++k)
        m.insert(k * 64, k); // block-aligned keys share low zero bits
    EXPECT_EQ(m.size(), 1000u);
    for (std::uint64_t k = 0; k < 1000; ++k) {
        ASSERT_NE(m.find(k * 64), nullptr) << k;
        EXPECT_EQ(*m.find(k * 64), k);
    }
}

TEST(FlatMap, ChurnMatchesReferenceMap)
{
    // Randomized insert/erase/take churn cross-checked against
    // std::map; exercises backward-shift deletion under collisions.
    FlatMap<std::uint64_t, int> m;
    std::map<std::uint64_t, int> ref;
    std::uint64_t x = 99;
    for (int i = 0; i < 20000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint64_t key = (x >> 40) & 0xff; // small space -> churn
        int op = (x >> 20) % 3;
        if (op == 0) {
            m.insert(key, i);
            ref[key] = i;
        } else if (op == 1) {
            EXPECT_EQ(m.erase(key), ref.erase(key) > 0);
        } else {
            auto it = ref.find(key);
            int want = it == ref.end() ? 0 : it->second;
            if (it != ref.end())
                ref.erase(it);
            EXPECT_EQ(m.take(key), want);
        }
        EXPECT_EQ(m.size(), ref.size());
    }
    for (const auto &[k, v] : ref) {
        ASSERT_NE(m.find(k), nullptr);
        EXPECT_EQ(*m.find(k), v);
    }
}

TEST(FlatMap, ClearEmptiesEverything)
{
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t k = 0; k < 100; ++k)
        m.insert(k, 1);
    m.clear();
    EXPECT_TRUE(m.empty());
    for (std::uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(m.contains(k));
    m.insert(3, 4);
    EXPECT_EQ(m.size(), 1u);
}

} // namespace
} // namespace misar
