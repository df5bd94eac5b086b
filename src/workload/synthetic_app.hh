/**
 * @file
 * Synthetic application workloads.
 *
 * Each Splash-2 / PARSEC benchmark is modeled by its synchronization
 * signature: how many locks it uses, how they map to threads, how
 * contended they are, how often barriers fire, whether it runs a
 * condition-variable pipeline, and how much compute sits between
 * synchronization operations. See DESIGN.md §3 for the substitution
 * rationale.
 */

#ifndef MISAR_WORKLOAD_SYNTHETIC_APP_HH
#define MISAR_WORKLOAD_SYNTHETIC_APP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/thread_api.hh"
#include "srv/server_app.hh"
#include "sync/sync_lib.hh"

namespace misar {
namespace workload {

/** Synchronization-signature parameters of one application. */
struct AppSpec
{
    std::string name;

    /** Per-thread outer iterations ("time steps" / "work units"). */
    unsigned iters = 50;

    /** Compute cycles per iteration outside critical sections. */
    Tick computePerIter = 400;

    /** Random shared-array accesses per iteration (cache traffic). */
    unsigned sharedMemOps = 2;

    // --- Locks ---
    /** Distinct lock addresses (0 disables lock activity). */
    unsigned lockPoolSize = 0;
    /** Lock acquire/release pairs per iteration. */
    unsigned lockOpsPerIter = 0;
    /**
     * Probability [0,1] that a thread picks a lock from its own
     * partition of the pool (same-thread reacquisition, the
     * fluidanimate pattern) instead of a random one (the radiosity
     * pattern).
     */
    double lockAffinity = 0.0;
    /** Cycles spent inside each critical section. */
    Tick csLen = 40;
    /** Additionally contend one global hot lock every k iterations
     *  (0 = never; the raytrace work-counter pattern). */
    unsigned hotLockEvery = 0;

    // --- Barriers ---
    /** Hit the all-thread barrier every k iterations (0 = never). */
    unsigned barrierEvery = 0;

    /**
     * One-shot initialization locks acquired per thread before the
     * main loop (distinct addresses, never reused). Real programs
     * initialize and briefly lock many structures at startup; without
     * the OMU those addresses permanently occupy MSA entries
     * (the Figure 7 effect).
     */
    unsigned initLocksPerThread = 2;

    // --- Condition-variable pipeline ---
    /** Run producer/consumer pairs over a condvar mailbox. */
    bool pipeline = false;

    /** Items each producer pushes when pipeline is enabled. */
    unsigned pipelineItems = 30;

    // --- Task server ---
    /**
     * When server.enabled, the app is a task server (open- or
     * closed-loop) and runs through srv::ServerHarness instead of
     * appThread — harness call sites branch on this.
     */
    srv::ServerSpec server;

    bool operator==(const AppSpec &) const = default;
};

/** Address-space layout of one application instance. */
struct AppLayout
{
    Addr lockBase = 0x10000000;
    Addr barrierAddr = 0x20000000;
    Addr sharedBase = 0x30000000;
    unsigned sharedBlocks = 4096;
    Addr pipeBase = 0x50000000;
    /**
     * First core of this app instance. Thread ranks are core id
     * minus this, so several applications can co-run on disjoint
     * core ranges (shift the address bases per instance too).
     */
    CoreId firstCore = 0;

    /** Shift every base by @p app_index address-space slots. */
    void
    relocate(unsigned app_index)
    {
        const Addr shift = static_cast<Addr>(app_index) * 0x100000000ULL;
        lockBase += shift;
        barrierAddr += shift;
        sharedBase += shift;
        pipeBase += shift;
    }
};

/**
 * Build the thread body for @p core of an app instance.
 * All threads of the app must use the same @p lib and @p layout.
 */
cpu::ThreadTask appThread(cpu::ThreadApi t, const AppSpec &spec,
                          const AppLayout &layout, sync::SyncLib *lib,
                          unsigned num_threads, std::uint64_t seed);

} // namespace workload
} // namespace misar

#endif // MISAR_WORKLOAD_SYNTHETIC_APP_HH
