/**
 * @file
 * Process exit codes of a job run: misar_sim exits with them, and so
 * does each forked campaign worker, so the campaign engine classifies
 * jobs from the exit status alone:
 *
 *   0   finished             every thread completed
 *   1   fatal()              user/configuration error (never retried)
 *   40  deadlock             event queue drained with blocked threads
 *   41  tick-limit           tick budget exhausted (livelock/runaway)
 *   SIGABRT                  panic() — an internal invariant tripped
 *
 * Anything else (signals, other codes) is classified as a crash by
 * the engine and is eligible for retry.
 */

#ifndef MISAR_ORCH_EXIT_CODES_HH
#define MISAR_ORCH_EXIT_CODES_HH

#include "system/system.hh"

namespace misar {
namespace orch {

constexpr int exitFinished = 0;
/** fatal(): bad flags/config; deterministic, the engine never retries. */
constexpr int exitFatal = 1;
constexpr int exitDeadlock = 40;
constexpr int exitTickLimit = 41;

/** misar_campaign: campaign ran but some jobs failed permanently. */
constexpr int exitCampaignJobsFailed = 2;
/** misar_campaign: stopped before every job completed (resumable). */
constexpr int exitCampaignIncomplete = 75;

/** The exit code of a run that ended with @p o. */
inline int
exitCodeFor(sys::RunOutcome o)
{
    switch (o) {
      case sys::RunOutcome::Finished:
        return exitFinished;
      case sys::RunOutcome::Deadlock:
        return exitDeadlock;
      case sys::RunOutcome::LimitReached:
        return exitTickLimit;
    }
    return exitFatal;
}

} // namespace orch
} // namespace misar

#endif // MISAR_ORCH_EXIT_CODES_HH
