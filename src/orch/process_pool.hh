/**
 * @file
 * Fork worker pool with wall-clock timeout enforcement.
 *
 * The pool runs queued tasks with at most N concurrent child
 * processes. Each child is a fork of the calling process: it
 * redirects its stdout+stderr to the task's log file, calls the
 * task's body and exits with the body's return value, so a body
 * that crashes or hangs takes down only its own process. A task
 * whose wall-clock deadline passes is SIGKILLed and reported as
 * timed out. The completion callback may push further tasks (the
 * engine uses this to retry crashed jobs), so the pool drains queue
 * and running set together.
 *
 * The child runs arbitrary code after fork(), so run() must be
 * called while the process has no other threads.
 *
 * The pool is single-threaded: it polls children with
 * waitpid(WNOHANG) on a short cadence, which also serves as the
 * timeout clock. Jobs are simulator runs lasting 0.1s..minutes, so
 * millisecond polling granularity is irrelevant to throughput.
 */

#ifndef MISAR_ORCH_PROCESS_POOL_HH
#define MISAR_ORCH_PROCESS_POOL_HH

#include <sys/types.h>

#include <functional>
#include <map>
#include <string>
#include <vector>

namespace misar {
namespace orch {

/** One unit of work for a forked child. */
struct PoolTask
{
    unsigned id = 0; ///< caller-chosen task identity
    /** Runs in the child; its return value is the exit status. */
    std::function<int()> body;
    std::string logPath;     ///< stdout+stderr (appended)
    double timeoutSec = 0.0; ///< 0 = no deadline
};

/** How one task attempt ended. */
struct PoolOutcome
{
    unsigned id = 0;
    bool exited = false;   ///< child exited (vs. was signaled)
    int exitCode = -1;     ///< valid when exited
    int termSignal = 0;    ///< valid when !exited
    bool timedOut = false; ///< pool killed it at the deadline
    double wallSec = 0.0;  ///< spawn-to-reap wall clock
};

class ProcessPool
{
  public:
    /** Called right after a task's child is forked. */
    using OnSpawn = std::function<void(const PoolTask &, pid_t)>;
    /** Called once per finished attempt; may push() new tasks. */
    using OnDone = std::function<void(const PoolTask &, const PoolOutcome &)>;

    explicit ProcessPool(unsigned workers);

    /** Enqueue a task (legal from inside an OnDone callback). */
    void push(PoolTask t);

    /** Run until both the queue and the running set are empty. */
    void run(const OnDone &onDone, const OnSpawn &onSpawn = nullptr);

    /**
     * Drop every queued (not yet spawned) task; running children
     * still finish and report. Used for early campaign stop.
     */
    void cancelQueued();

    unsigned workers() const { return nWorkers; }

    /** Sum of finished attempts' wall time (utilization metric). */
    double busySec() const { return totalBusySec; }

  private:
    struct Running
    {
        PoolTask task;
        double startSec = 0.0;
        double deadlineSec = 0.0; ///< 0 = none
        bool killed = false;
    };

    void spawnOne(const OnSpawn &onSpawn);

    unsigned nWorkers;
    std::vector<PoolTask> queue; ///< FIFO (front = next to run)
    std::map<pid_t, Running> running;
    double totalBusySec = 0.0;
};

} // namespace orch
} // namespace misar

#endif // MISAR_ORCH_PROCESS_POOL_HH
