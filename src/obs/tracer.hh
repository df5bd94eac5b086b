/**
 * @file
 * Multi-component simulation tracer.
 *
 * One recorder for every component of the chip: per-core operation
 * timelines (compute, memory and sync instructions), MSA slice
 * activity (allocations, overflows, sheds, aborts, OMU counter
 * transitions), NoC packet delivery, and — most importantly — Chrome
 * trace *flow events* that stitch one synchronization operation
 * end-to-end across components (core issues LOCK -> request packet
 * crosses the mesh -> slice decides -> response -> core resumes).
 *
 * The exported file is Chrome trace-event JSON ("catapult" format),
 * viewable in https://ui.perfetto.dev or chrome://tracing. Rows are
 * grouped by process: pid 0 = cores, pid 1 = MSA slices, pid 2 = NoC
 * interfaces; process_name / thread_name metadata labels every row.
 * Ticks are written as microseconds, so 1 cycle is 1 "us" in the
 * viewer.
 *
 * All recording is gated on construction: components hold a Tracer
 * pointer that is null when tracing is off, so a disabled build does
 * no work and schedules stay bit-identical.
 */

#ifndef MISAR_OBS_TRACER_HH
#define MISAR_OBS_TRACER_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace misar {
namespace obs {

/** Well-known process ids for the trace's row grouping. */
constexpr unsigned pidCores = 0;
constexpr unsigned pidMsa = 1;
constexpr unsigned pidNoc = 2;

/** Identifier of one trace row (returned by Tracer::addTrack). */
using TrackId = unsigned;

/** Phase of a cross-component flow (Chrome "s"/"t"/"f" events). */
enum class FlowPhase : std::uint8_t { Start, Step, End };

/** Central trace recorder for every component. */
class Tracer
{
  public:
    /**
     * @param stats   registry that receives the "trace.droppedEvents"
     *                counter when events are discarded.
     * @param max_events_per_track  growth bound per track; events
     *                beyond it are dropped (and counted), so tracing
     *                a long run cannot exhaust memory.
     */
    Tracer(StatRegistry &stats, std::size_t max_events_per_track);

    /** Register a trace row. @p name labels it in the viewer. */
    TrackId addTrack(unsigned pid, unsigned tid, std::string name);

    /** A completed [start, end) interval (Chrome "X" event). */
    void complete(TrackId t, Tick start, Tick end, const char *name,
                  Addr addr = 0);

    /** A point event (Chrome "i" instant), with an optional value
     *  rendered into args (e.g. an OMU counter's new count). */
    void instant(TrackId t, Tick ts, const char *name, Addr addr = 0,
                 std::uint64_t value = 0, bool has_value = false);

    /** One phase of flow @p id (Chrome "s"/"t"/"f" events). */
    void flow(TrackId t, FlowPhase ph, std::uint64_t id, Tick ts,
              Addr addr = 0);

    /**
     * A counter sample (Chrome "C" event): the viewer renders one
     * stacked area chart per (pid, name). @p name must outlive the
     * tracer (the resource monitor owns its gauge names).
     */
    void counter(TrackId t, Tick ts, const char *name,
                 std::uint64_t value);

    /** Allocate a fresh, never-zero flow id. */
    std::uint64_t newFlowId() { return ++lastFlowId; }

    /** Events discarded across all tracks because a cap was hit. */
    std::uint64_t dropped() const;

    /**
     * Write the full Chrome trace: metadata, then every registered
     * track's events in registration order. A core row (pid 0) is
     * shared by several tracks and is named once, by the first track
     * registered on it; every other track names its own row.
     */
    void write(std::ostream &os) const;

  private:
    struct Ev
    {
        Tick ts;
        Tick dur;
        const char *name;
        Addr addr;
        std::uint64_t id; ///< flow id, or instant value
        enum Kind : std::uint8_t
        {
            Complete,
            Instant,
            FlowStart,
            FlowStep,
            FlowEnd,
            Counter,
        } kind;
        bool hasValue;
    };

    struct Track
    {
        unsigned pid;
        unsigned tid;
        std::string name;
        std::vector<Ev> events;
    };

    bool push(TrackId t, Ev ev);
    void writeEvent(std::ostream &os, const Track &tr, const Ev &e) const;

    StatRegistry &stats;
    std::size_t maxEventsPerTrack;
    std::vector<Track> tracks;
    std::uint64_t lastFlowId = 0;
    std::uint64_t _dropped = 0;
};

} // namespace obs
} // namespace misar

#endif // MISAR_OBS_TRACER_HH
