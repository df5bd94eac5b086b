/**
 * @file
 * Private per-core L1 data cache (MESI client side).
 *
 * Set-associative with LRU replacement. One outstanding miss per
 * cache (cores are blocking). Dirty/clean-exclusive evictions are
 * fire-and-forget PutM/PutE notifications; the home tolerates stale
 * puts by checking ownership. Each line carries the MiSAR HWSync bit
 * (paper §5): set only by MSA InstallE grants and cleared whenever
 * the line is lost or downgraded.
 */

#ifndef MISAR_MEM_L1_CACHE_HH
#define MISAR_MEM_L1_CACHE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/functional_mem.hh"
#include "mem/msg.hh"
#include "obs/tracer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/stats.hh"

namespace misar {
namespace mem {

/** MESI stable states for an L1 line. */
enum class L1State : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/** Private L1 data cache for one core. */
class L1Cache
{
  public:
    using AccessCb = std::function<void(std::uint64_t)>;
    using SendFn = std::function<void(std::shared_ptr<MemMsg>)>;

    L1Cache(EventQueue &eq, const MemConfig &cfg, CoreId core,
            unsigned num_tiles, FunctionalMem &fmem, SendFn send,
            StatRegistry &stats, unsigned max_outstanding = 1);

    /** Load the 64-bit word at @p a; @p cb receives the value. */
    void read(Addr a, AccessCb cb);

    /** Store @p v to @p a; @p cb receives the old value. */
    void write(Addr a, std::uint64_t v, AccessCb cb);

    /** Atomic RMW at @p a; @p cb receives the old value. */
    void atomic(Addr a, AtomicOp op, std::uint64_t operand,
                std::uint64_t operand2, AccessCb cb);

    /** Incoming coherence message from the NoC. */
    void handleMessage(const std::shared_ptr<MemMsg> &msg);

    /**
     * MiSAR §5 fast-path predicate: the block holding @p a is present,
     * writable (E/M), and its HWSync bit is set.
     */
    bool hasWritableHwSync(Addr a) const;

    /** Clear the HWSync bit (silent privilege revoked, paper §5). */
    void
    clearHwSync(Addr a)
    {
        if (Line *line = findLine(blockAlign(a)))
            line->hwSync = false;
    }

    /**
     * Query installed by the MSA client: true while the block holds
     * a lock the local core acquired silently and has not released.
     * While true, the line is pinned (never a victim) and incoming
     * invalidations/downgrades are deferred — the hardware analogue
     * of stalling a snoop during an atomic. flushDeferred() releases
     * them at unlock time.
     */
    using HoldQuery = std::function<bool(Addr block)>;

    void setHoldQuery(HoldQuery q) { holdQuery = std::move(q); }

    /** Process a coherence message deferred by a silent hold. */
    void flushDeferred(Addr block);

    /** Lookup state of the block holding @p a (tests/debug). */
    L1State state(Addr a) const;

    /** Read-only line view for the invariant checker. */
    struct LineView
    {
        Addr block;
        L1State state;
        bool hwSync;
    };

    /** Visit every valid line (invariant checker / debug). */
    void forEachLine(const std::function<void(const LineView &)> &fn) const;

    CoreId core() const { return _core; }

    /**
     * Attach the observability tracer: snoop anomalies — coherence
     * requests crossing an in-flight fill ("SNOOP_X") or stalled by
     * a silently-held lock ("SNOOP_DEFER") — become instant events
     * on @p track (this core's trace row).
     */
    void
    attachTracer(obs::Tracer *t, obs::TrackId track)
    {
        tracer = t;
        _track = track;
    }

  private:
    struct Line
    {
        Addr block = invalidAddr;
        L1State state = L1State::Invalid;
        bool hwSync = false;
        std::uint64_t lru = 0;
    };

    struct Mshr
    {
        bool valid = false;
        Addr block = invalidAddr;
        /**
         * A snoop that crossed the in-flight fill on the other
         * virtual network. The home serializes per-block
         * transactions and has our ack for everything it sent before
         * granting us, so a snoop arriving while the fill is
         * outstanding is always ordered after the grant: it is acked
         * immediately and applied to the line once the fill lands
         * (otherwise the late fill would install a copy the
         * directory no longer tracks).
         */
        enum class PostFill { None, ToShared, ToInvalid };
        PostFill postFill = PostFill::None;
        // Deferred functional operation, applied at grant time.
        enum class Kind { Read, Write, Atomic } kind = Kind::Read;
        Addr addr = invalidAddr;
        std::uint64_t wval = 0;
        AtomicOp aop = AtomicOp::TestAndSet;
        std::uint64_t opnd = 0, opnd2 = 0;
        AccessCb cb;
    };

    unsigned setIndex(Addr block) const;
    Line *findLine(Addr block);
    const Line *findLine(Addr block) const;

    /** Choose a victim way in @p set (invalid first, else LRU). */
    Line &victimIn(unsigned set);

    /** Evict @p line if valid (fire-and-forget PutM/PutE). */
    void evict(Line &line);

    /** Install @p block in @p state, evicting if needed. */
    Line &install(Addr block, L1State state);

    /** Start a miss: evict a victim, send @p req, park in an MSHR. */
    void startMiss(MemOp req, Mshr mshr);

    /** Grant arrived: install, apply the deferred op, call back. */
    void complete(L1State new_state, Addr block);

    void touch(Line &line);

    EventQueue &eq;
    const MemConfig &cfg;
    CoreId _core;
    unsigned numTiles;
    FunctionalMem &fmem;
    SendFn send;
    std::string statPrefix;
    /** @name Per-access and per-snoop stats. @{ */
    StatHandle hits;
    StatHandle misses;
    StatHandle evictions;
    StatHandle deferredSnoops;
    StatHandle crossedSnoops;
    StatHandle invalidations;
    StatHandle backInvalidations;
    /** @} */

    std::vector<std::vector<Line>> sets;
    /** One MSHR per hardware thread sharing this cache. */
    std::vector<Mshr> mshrs;
    std::uint64_t lruClock = 0;
    HoldQuery holdQuery;
    obs::Tracer *tracer = nullptr;
    obs::TrackId _track = 0;
    /** At most one deferred coherence message per block (the
     *  blocking directory serializes per-block transactions). */
    FlatMap<Addr, std::shared_ptr<MemMsg>> deferredMsgs;
};

} // namespace mem
} // namespace misar

#endif // MISAR_MEM_L1_CACHE_HH
