#include "obs/tracer.hh"

#include <set>

#include "sim/logging.hh"
#include "util/json.hh"

namespace misar {
namespace obs {

Tracer::Tracer(StatRegistry &stats, std::size_t max_events_per_track)
    : stats(stats), maxEventsPerTrack(max_events_per_track)
{}

TrackId
Tracer::addTrack(unsigned pid, unsigned tid, std::string name)
{
    tracks.push_back(Track{pid, tid, std::move(name), {}});
    return static_cast<TrackId>(tracks.size() - 1);
}

bool
Tracer::push(TrackId t, Ev ev)
{
    Track &tr = tracks.at(t);
    if (tr.events.size() >= maxEventsPerTrack) {
        ++_dropped;
        stats.counter("trace.droppedEvents").inc();
        return false;
    }
    tr.events.push_back(ev);
    return true;
}

void
Tracer::complete(TrackId t, Tick start, Tick end, const char *name,
                 Addr addr)
{
    push(t, Ev{start, end - start, name, addr, 0, Ev::Complete, false});
}

void
Tracer::instant(TrackId t, Tick ts, const char *name, Addr addr,
                std::uint64_t value, bool has_value)
{
    push(t, Ev{ts, 0, name, addr, value, Ev::Instant, has_value});
}

void
Tracer::flow(TrackId t, FlowPhase ph, std::uint64_t id, Tick ts, Addr addr)
{
    Ev::Kind k = ph == FlowPhase::Start  ? Ev::FlowStart
                 : ph == FlowPhase::Step ? Ev::FlowStep
                                         : Ev::FlowEnd;
    push(t, Ev{ts, 0, "sync", addr, id, k, false});
}

void
Tracer::counter(TrackId t, Tick ts, const char *name, std::uint64_t value)
{
    push(t, Ev{ts, 0, name, 0, value, Ev::Counter, true});
}

std::uint64_t
Tracer::dropped() const
{
    return _dropped;
}

void
Tracer::writeEvent(std::ostream &os, const Track &tr, const Ev &e) const
{
    const char *ph = nullptr;
    switch (e.kind) {
      case Ev::Complete:
        ph = "X";
        break;
      case Ev::Instant:
        ph = "i";
        break;
      case Ev::FlowStart:
        ph = "s";
        break;
      case Ev::FlowStep:
        ph = "t";
        break;
      case Ev::FlowEnd:
        ph = "f";
        break;
      case Ev::Counter:
        ph = "C";
        break;
    }
    os << "{\"ph\":\"" << ph << "\",\"pid\":" << tr.pid
       << ",\"tid\":" << tr.tid << ",\"ts\":" << e.ts;
    if (e.kind == Ev::Complete)
        os << ",\"dur\":" << e.dur;
    if (e.kind == Ev::Instant)
        os << ",\"s\":\"t\"";
    if (e.kind == Ev::FlowStart || e.kind == Ev::FlowStep ||
        e.kind == Ev::FlowEnd) {
        os << ",\"cat\":\"sync\",\"id\":" << e.id;
        if (e.kind == Ev::FlowEnd)
            os << ",\"bp\":\"e\"";
    }
    os << ",\"name\":\"" << util::jsonEscape(e.name ? e.name : "") << "\"";
    if (e.addr || e.hasValue) {
        os << ",\"args\":{";
        bool first = true;
        if (e.addr) {
            os << "\"addr\":\"0x" << std::hex << e.addr << std::dec
               << "\"";
            first = false;
        }
        if (e.hasValue)
            os << (first ? "" : ",") << "\"value\":" << e.id;
        os << "}";
    }
    os << "}";
}

void
Tracer::write(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    auto sep = [&] {
        if (!first)
            os << ",";
        first = false;
    };

    // --- metadata: process names (one per pid) and thread names ---
    std::set<unsigned> pids_named;
    auto process_name = [&](unsigned pid, const char *name) {
        if (!pids_named.insert(pid).second)
            return;
        sep();
        os << "{\"ph\":\"M\",\"pid\":" << pid
           << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
           << util::jsonEscape(name) << "\"}}";
    };
    std::set<unsigned> cores_named;
    process_name(pidCores, "cores");
    for (const Track &tr : tracks) {
        switch (tr.pid) {
          case pidMsa:
            process_name(pidMsa, "msa slices");
            break;
          case pidNoc:
            process_name(pidNoc, "noc");
            break;
          default:
            break;
        }
        if (tr.pid == pidCores && !cores_named.insert(tr.tid).second)
            continue;
        sep();
        os << "{\"ph\":\"M\",\"pid\":" << tr.pid << ",\"tid\":" << tr.tid
           << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
           << util::jsonEscape(tr.name) << "\"}}";
    }

    // --- events, track by track ---
    for (const Track &tr : tracks) {
        for (const Ev &e : tr.events) {
            sep();
            writeEvent(os, tr, e);
        }
    }
    os << "],\"displayTimeUnit\":\"ns\"}\n";
}

} // namespace obs
} // namespace misar
