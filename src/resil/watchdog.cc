#include "resil/watchdog.hh"

#include "sim/logging.hh"

namespace misar {
namespace resil {

Watchdog::Watchdog(EventQueue &eq, Tick interval, StatRegistry &stats)
    : eq(eq), interval(interval), stats(stats)
{
    onStall = [](const std::string &rep) {
        warn("%s", rep.c_str());
        fatal("liveness watchdog: no thread made forward progress for "
              "a full window; see the waits-for report above");
    };
}

void
Watchdog::start()
{
    if (scheduled || interval == 0)
        return;
    scheduled = true;
    eq.schedule(interval, [this] { check(); });
}

void
Watchdog::check()
{
    scheduled = false;
    if (allDone && allDone())
        return;
    if (progress == lastSeen && !firedStall) {
        // No thread progressed — but traffic still moving through a
        // degraded mesh (detours, retransmissions) means the system
        // is slow, not dead. Grace the window; the fault recovery
        // paths are all bounded, so a truly dead system quiets down
        // and the next window fires.
        if (auxProgress) {
            const std::uint64_t aux = auxProgress();
            if (aux != lastAux) {
                lastAux = aux;
                stats.counter("resil.watchdogNocGrace").inc();
                scheduled = true;
                eq.schedule(interval, [this] { check(); });
                return;
            }
        }
        firedStall = true;
        stats.counter("resil.watchdogStalls").inc();
        onStall(report ? report() : std::string("(no report available)"));
        // If the handler returned (tests), stop rescheduling — one
        // report per stall is enough.
        return;
    }
    lastSeen = progress;
    if (auxProgress)
        lastAux = auxProgress();
    scheduled = true;
    eq.schedule(interval, [this] { check(); });
}

} // namespace resil
} // namespace misar
