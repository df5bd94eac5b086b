/**
 * @file
 * Extension study: reader-writer locks (the LCU [23] comparison
 * point from the paper's related work). A read-mostly shared
 * structure is protected either by a plain mutex or by a reader-
 * writer lock, in software and on the MSA. Reader concurrency is
 * where an RW-aware accelerator pays off.
 */

#include <cstdio>

#include "bench/repro.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sync/sync_lib.hh"
#include "system/system.hh"

using namespace misar;
using cpu::ThreadApi;
using cpu::ThreadTask;

namespace {

constexpr Addr theLock = 0x1000;

enum class Prot
{
    Mutex,
    RwLock,
};

ThreadTask
worker(ThreadApi t, sync::SyncLib *lib, Prot prot, unsigned write_pct,
       int iters, std::uint64_t *reads, std::uint64_t *writes)
{
    Rng rng(0x1234 + t.id());
    for (int i = 0; i < iters; ++i) {
        const bool writer = rng.range(100) < write_pct;
        if (prot == Prot::Mutex)
            co_await lib->mutexLock(t, theLock);
        else if (writer)
            co_await lib->rwWrLock(t, theLock);
        else
            co_await lib->rwRdLock(t, theLock);

        co_await t.compute(writer ? 120 : 80); // section work
        if (writer)
            ++*writes;
        else
            ++*reads;

        if (prot == Prot::Mutex)
            co_await lib->mutexUnlock(t, theLock);
        else
            co_await lib->rwUnlock(t, theLock);
        co_await t.compute(100 + rng.range(100));
    }
}

Tick
run(unsigned cores, sync::SyncLib::Flavor flavor, AccelMode mode,
    Prot prot, unsigned write_pct)
{
    sys::System s(makeConfig(cores, mode, 2));
    sync::SyncLib lib(flavor, cores);
    std::uint64_t reads = 0, writes = 0;
    for (CoreId c = 0; c < cores; ++c)
        s.start(c, worker(s.api(c), &lib, prot, write_pct, 30, &reads,
                          &writes));
    if (!s.run(2000000000ULL))
        fatal("rwlock bench did not finish");
    return s.makespan();
}

} // namespace

int
bench::extRwlock()
{
    banner("Extension",
           "reader-writer locks, read-mostly workload (64 cores)");

    using F = sync::SyncLib::Flavor;
    std::printf("%-10s %14s %14s %14s %14s\n", "Write %", "sw mutex",
                "sw rwlock", "MSA mutex", "MSA rwlock");
    for (unsigned wp : {0u, 5u, 20u, 50u}) {
        Tick sw_mutex = run(64, F::PthreadSw, AccelMode::None,
                            Prot::Mutex, wp);
        Tick sw_rw = run(64, F::PthreadSw, AccelMode::None, Prot::RwLock,
                         wp);
        Tick hw_mutex = run(64, F::Hw, AccelMode::MsaOmu, Prot::Mutex,
                            wp);
        Tick hw_rw = run(64, F::Hw, AccelMode::MsaOmu, Prot::RwLock, wp);
        std::printf("%-10u %14llu %14llu %14llu %14llu\n", wp,
                    static_cast<unsigned long long>(sw_mutex),
                    static_cast<unsigned long long>(sw_rw),
                    static_cast<unsigned long long>(hw_mutex),
                    static_cast<unsigned long long>(hw_rw));
    }
    std::printf("\nExpected: rwlocks beat mutexes as the read share "
                "grows; the MSA's batched reader\ngrants keep it ahead "
                "of the software rwlock, echoing the LCU motivation.\n");
    return 0;
}
