/**
 * @file
 * Liveness watchdog: detects no-forward-progress windows.
 *
 * Cores bump a shared progress cell every time a thread retires a
 * synchronization instruction or finishes. The watchdog samples the
 * cell every `interval` ticks; if a whole window passes with no
 * progress while threads are still running, it asks the system for a
 * waits-for report (blocked ops, entry ownership, cycles) and hands
 * it to the stall handler — by default warn + fatal(), overridable
 * for tests and for the deadlock path in System::runDetailed().
 */

#ifndef MISAR_RESIL_WATCHDOG_HH
#define MISAR_RESIL_WATCHDOG_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace misar {
namespace resil {

/** Periodic no-forward-progress detector. */
class Watchdog
{
  public:
    /** Builds the human-readable stall report. */
    using ReportFn = std::function<std::string()>;
    /** Invoked with the report when a stall is detected. */
    using StallFn = std::function<void(const std::string &)>;
    /** True once every thread has finished (stops the watchdog). */
    using DoneFn = std::function<bool()>;
    /**
     * Secondary progress signal (monotone counter). A window with no
     * thread progress but aux movement — NoC packets delivered,
     * retransmissions in flight — is granted grace instead of being
     * reported: detoured or retransmitted traffic is slow, not dead.
     */
    using AuxProgressFn = std::function<std::uint64_t()>;

    Watchdog(EventQueue &eq, Tick interval, StatRegistry &stats);

    void setReportFn(ReportFn f) { report = std::move(f); }
    void setStallHandler(StallFn f) { onStall = std::move(f); }
    void setDoneFn(DoneFn f) { allDone = std::move(f); }
    void setAuxProgressFn(AuxProgressFn f) { auxProgress = std::move(f); }

    /** Arm the first window. */
    void start();

    /** Cell cores increment on every retired sync op / thread exit. */
    std::uint64_t *progressCell() { return &progress; }

    /** Number of still-pending maintenance events (0 or 1); lets the
     *  system exclude watchdog ticks from deadlock detection. */
    unsigned pendingMaintenance() const { return scheduled ? 1u : 0u; }

    /** True once a stall has been reported. */
    bool stalled() const { return firedStall; }

  private:
    void check();

    EventQueue &eq;
    Tick interval;
    StatRegistry &stats;
    ReportFn report;
    StallFn onStall;
    DoneFn allDone;
    AuxProgressFn auxProgress;

    std::uint64_t progress = 0;
    std::uint64_t lastSeen = 0;
    std::uint64_t lastAux = 0;
    bool scheduled = false;
    bool firedStall = false;
};

} // namespace resil
} // namespace misar

#endif // MISAR_RESIL_WATCHDOG_HH
