#include "orch/process_pool.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "sim/logging.hh"

namespace misar {
namespace orch {

namespace {

double
nowSec()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(clock::now().time_since_epoch())
        .count();
}

/**
 * A forked child's whole life. _exit() skips the parent's atexit
 * handlers and static destructors; noexcept makes an exception from
 * the body a crash instead of unwinding into the parent's pool loop.
 */
[[noreturn]] void
runChild(const PoolTask &task) noexcept
{
    if (!task.logPath.empty()) {
        int fd = ::open(task.logPath.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            if (fd > STDERR_FILENO)
                ::close(fd);
        }
    }
    const int status = task.body();
    std::fflush(nullptr);
    ::_exit(status);
}

} // namespace

ProcessPool::ProcessPool(unsigned workers)
    : nWorkers(workers ? workers : 1)
{
}

void
ProcessPool::push(PoolTask t)
{
    queue.push_back(std::move(t));
}

void
ProcessPool::cancelQueued()
{
    queue.clear();
}

void
ProcessPool::spawnOne(const OnSpawn &onSpawn)
{
    PoolTask task = std::move(queue.front());
    queue.erase(queue.begin());

    // Output buffered before the fork would otherwise be written by
    // both processes.
    std::fflush(nullptr);
    pid_t pid = ::fork();
    if (pid < 0)
        panic("fork failed: %s", std::strerror(errno));
    if (pid == 0)
        runChild(task);

    Running r;
    r.task = std::move(task);
    r.startSec = nowSec();
    r.deadlineSec =
        r.task.timeoutSec > 0 ? r.startSec + r.task.timeoutSec : 0.0;
    running.emplace(pid, std::move(r));
    if (onSpawn)
        onSpawn(running[pid].task, pid);
}

void
ProcessPool::run(const OnDone &onDone, const OnSpawn &onSpawn)
{
    while (!queue.empty() || !running.empty()) {
        while (!queue.empty() && running.size() < nWorkers)
            spawnOne(onSpawn);

        // Reap everything that has finished.
        bool reaped = false;
        for (auto it = running.begin(); it != running.end();) {
            int status = 0;
            pid_t r = ::waitpid(it->first, &status, WNOHANG);
            if (r == 0) {
                ++it;
                continue;
            }
            Running done = std::move(it->second);
            it = running.erase(it);
            reaped = true;

            PoolOutcome out;
            out.id = done.task.id;
            out.wallSec = nowSec() - done.startSec;
            totalBusySec += out.wallSec;
            if (r < 0) {
                // Shouldn't happen (we forked it); classify as crash.
                out.exited = false;
                out.termSignal = SIGKILL;
            } else if (WIFEXITED(status)) {
                out.exited = true;
                out.exitCode = WEXITSTATUS(status);
            } else if (WIFSIGNALED(status)) {
                out.exited = false;
                out.termSignal = WTERMSIG(status);
            }
            out.timedOut = done.killed;
            onDone(done.task, out);
        }
        if (reaped)
            continue; // callbacks may have queued work; spawn first

        // Enforce deadlines, then sleep a poll interval.
        double now = nowSec();
        for (auto &[pid, r] : running) {
            if (!r.killed && r.deadlineSec > 0 && now >= r.deadlineSec) {
                warn("task %u exceeded its %.1fs timeout; killing",
                     r.task.id, r.task.timeoutSec);
                r.killed = true;
                ::kill(pid, SIGKILL);
            }
        }
        if (!running.empty())
            ::usleep(2000);
    }
}

} // namespace orch
} // namespace misar
