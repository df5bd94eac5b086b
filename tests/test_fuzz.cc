/**
 * @file
 * Configuration-matrix fuzz: randomized mixed synchronization
 * workloads swept across core counts, MSA sizes, OMU sizes, and the
 * HWSync toggle. Every run must terminate, preserve mutual
 * exclusion and barrier alignment, and drain the OMU counters.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/rng.hh"
#include "sync/sync_lib.hh"
#include "system/system.hh"

namespace misar {
namespace sync {
namespace {

using cpu::ThreadApi;
using cpu::ThreadTask;

struct FuzzParam
{
    unsigned cores;
    unsigned entries;
    unsigned omuCounters;
    bool hwsync;
    std::uint64_t seed;
    /** Run under the fault injector + offline slice + checkers. */
    bool faults = false;
};

std::string
paramName(const ::testing::TestParamInfo<FuzzParam> &info)
{
    const FuzzParam &p = info.param;
    std::string name = "c";
    name += std::to_string(p.cores) + "_e" + std::to_string(p.entries) +
            "_o" + std::to_string(p.omuCounters) +
            (p.hwsync ? "_hws" : "_plain") + "_s" + std::to_string(p.seed) +
            (p.faults ? "_flt" : "");
    return name;
}

struct FuzzShared
{
    std::vector<int> inCs;
    std::vector<int> maxInCs;
    std::vector<std::uint64_t> csCount;
    std::vector<unsigned> epoch;
};

constexpr unsigned fuzzLocks = 6;

ThreadTask
fuzzThread(ThreadApi t, SyncLib *lib, FuzzShared *sh, unsigned threads,
           std::uint64_t seed, int iters)
{
    Rng rng(seed * 7919 + t.id() * 131 + 3);
    for (int i = 0; i < iters; ++i) {
        co_await t.compute(rng.range(120));
        switch (rng.range(4)) {
          case 0:
          case 1: { // lock / trylock a random lock
            unsigned w = static_cast<unsigned>(rng.range(fuzzLocks));
            Addr lock = 0x1000 + w * 2048;
            bool got = true;
            if (rng.range(3) == 0)
                got = co_await lib->mutexTryLock(t, lock);
            else
                co_await lib->mutexLock(t, lock);
            if (got) {
                sh->inCs[w]++;
                sh->maxInCs[w] = std::max(sh->maxInCs[w], sh->inCs[w]);
                sh->csCount[w]++;
                co_await t.compute(rng.range(60));
                sh->inCs[w]--;
                co_await lib->mutexUnlock(t, lock);
            }
            break;
          }
          case 2: { // shared memory traffic
            Addr a = 0x100000 + rng.range(64) * blockBytes;
            if (rng.range(2))
                co_await t.read(a);
            else
                co_await t.write(a, i);
            break;
          }
          case 3: // pure compute
            co_await t.compute(rng.range(200));
            break;
        }
    }
    // All threads meet at the end (also validates barrier under the
    // preceding chaos).
    co_await lib->barrierWait(t, 0xbeef00, threads);
    sh->epoch[t.id()]++;
}

class FuzzTest : public ::testing::TestWithParam<FuzzParam>
{};

TEST_P(FuzzTest, TerminatesWithInvariantsIntact)
{
    const FuzzParam &p = GetParam();
    SystemConfig cfg = makeConfig(p.cores, AccelMode::MsaOmu, p.entries);
    cfg.msa.omuCounters = p.omuCounters;
    cfg.msa.hwSyncBitOpt = p.hwsync;
    if (p.faults) {
        cfg.resil.dropProb = 0.03;
        cfg.resil.dupProb = 0.02;
        cfg.resil.delayProb = 0.05;
        cfg.resil.delayTicks = 250;
        cfg.resil.timeoutTicks = 3000;
        cfg.resil.maxRetries = 8;
        cfg.resil.faultSeed = p.seed * 977 + 5;
        cfg.resil.offlineTile = 0;
        cfg.resil.offlineAtTick = 20000;
        cfg.resil.watchdogInterval = 5000000;
        cfg.resil.invariantChecks = true;
        cfg.resil.invariantInterval = 50000;
    }
    sys::System s(cfg);
    std::vector<std::string> violations;
    if (auto *ic = s.invariantChecker())
        ic->setViolationHandler(
            [&violations](const std::vector<std::string> &v) {
                violations.insert(violations.end(), v.begin(), v.end());
            });
    SyncLib lib(SyncLib::Flavor::Hw, p.cores);
    FuzzShared sh;
    sh.inCs.assign(fuzzLocks, 0);
    sh.maxInCs.assign(fuzzLocks, 0);
    sh.csCount.assign(fuzzLocks, 0);
    sh.epoch.assign(p.cores, 0);

    const int iters = p.cores >= 64 ? 8 : 15;
    for (CoreId c = 0; c < p.cores; ++c)
        s.start(c, fuzzThread(s.api(c), &lib, &sh, p.cores, p.seed,
                              iters));
    ASSERT_TRUE(s.run(500000000ULL)) << "deadlock or runaway";

    for (unsigned w = 0; w < fuzzLocks; ++w) {
        EXPECT_EQ(sh.inCs[w], 0);
        EXPECT_LE(sh.maxInCs[w], 1) << "lock " << w;
    }
    for (unsigned e : sh.epoch)
        EXPECT_EQ(e, 1u);
    // Quiesced: every OMU counter on every tile must be zero.
    for (CoreId tile = 0; tile < p.cores; ++tile) {
        const auto &omu = s.msaSlice(tile).omu();
        for (unsigned k = 0; k < 64; ++k)
            ASSERT_EQ(omu.count(k * 8), 0u)
                << "tile " << tile << " counter probe " << k;
    }
    EXPECT_TRUE(violations.empty())
        << "first violation: " << violations.front();
    if (p.faults) {
        EXPECT_TRUE(s.msaSlice(0).isOffline());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FuzzTest,
    ::testing::Values(FuzzParam{4, 1, 1, true, 1},
                      FuzzParam{4, 2, 4, false, 2},
                      FuzzParam{16, 1, 1, false, 3},
                      FuzzParam{16, 1, 4, true, 4},
                      FuzzParam{16, 2, 2, true, 5},
                      FuzzParam{16, 4, 4, false, 6},
                      FuzzParam{64, 1, 2, true, 7},
                      FuzzParam{64, 2, 4, true, 8},
                      FuzzParam{64, 2, 1, false, 9},
                      FuzzParam{16, 2, 4, true, 10},
                      FuzzParam{16, 2, 4, true, 11},
                      FuzzParam{16, 2, 4, true, 12},
                      // Same chaos under the fault campaign: message
                      // drops/dups/delays plus tile 0 decommissioned
                      // mid-run, with watchdog + invariant checker.
                      FuzzParam{4, 2, 4, true, 21, true},
                      FuzzParam{16, 1, 4, false, 22, true},
                      FuzzParam{16, 2, 2, true, 23, true},
                      FuzzParam{64, 2, 4, true, 24, true}),
    paramName);

} // namespace
} // namespace sync
} // namespace misar
