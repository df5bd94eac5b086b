/**
 * @file
 * Home tile of the shared LLC: one slice of cache + full-map
 * directory per tile, blocking (one transaction per block).
 *
 * The slice has finite, set-associative capacity: the first touch of
 * a block pays DRAM latency, later touches pay LLC latency, and
 * filling a set evicts an LRU victim (back-invalidating any shared
 * L1 copies). Exclusively-owned lines are never evicted — their
 * authoritative copy lives in an L1 and evicting the directory entry
 * would orphan it; a set whose ways are all owned simply overflows
 * (counted in stats), which real directory caches handle the same
 * way via escape mechanisms.
 */

#ifndef MISAR_MEM_HOME_SLICE_HH
#define MISAR_MEM_HOME_SLICE_HH

#include <bitset>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

#include "mem/msg.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace misar {
namespace mem {

/**
 * Upper bound on hardware threads supported by the directory sharer
 * vector and the MSA wait-queue bitsets. Sized for the msa1024
 * scale-study mesh; loops over these bitsets iterate the configured
 * core count, not the capacity, so small meshes only pay the larger
 * per-entry footprint.
 */
constexpr unsigned maxCores = 1024;

/**
 * Directory + LLC slice for the blocks homed at one tile.
 *
 * All transactions for a block serialize through its entry's busy
 * flag; requests arriving while busy queue in order. The MSA uses
 * grantExclusive() to push a lock block into the new owner's L1 in
 * E state with the HWSync bit (paper §5).
 */
class HomeSlice
{
  public:
    using SendFn = std::function<void(std::shared_ptr<MemMsg>)>;

    HomeSlice(EventQueue &eq, const MemConfig &cfg, CoreId tile,
              unsigned num_tiles, SendFn send, StatRegistry &stats);

    /** Incoming coherence message from the NoC. */
    void handleMessage(std::shared_ptr<MemMsg> msg);

    /**
     * MiSAR lock-grant path: make @p to the exclusive owner of
     * @p block (invalidating everyone else), push the block into its
     * L1 via InstallE with @p hw_sync, then invoke @p done.
     */
    void grantExclusive(Addr block, CoreId to, bool hw_sync,
                        std::function<void()> done);

    /** Directory state probe for tests. */
    bool isOwner(Addr block, CoreId c) const;
    bool isSharer(Addr block, CoreId c) const;

    /** Read-only directory view for the invariant checker. */
    struct DirView
    {
        Addr block;
        bool exclusive; ///< directory state is Exclusive
        bool shared;    ///< directory state is Shared
        CoreId owner;
        bool busy;
    };

    /** Visit every directory entry (invariant checker / debug). */
    void forEachEntry(const std::function<void(const DirView &)> &fn) const;

  private:
    enum class DState : std::uint8_t { Uncached, Shared, Exclusive };

    struct Job
    {
        // Either a coherence request or an MSA exclusive grant.
        std::shared_ptr<MemMsg> msg;
        // Grant fields (msg == nullptr):
        Addr block = invalidAddr;
        CoreId grantTo = invalidCore;
        bool hwSync = false;
        std::function<void()> done;
    };

    struct Entry
    {
        DState state = DState::Uncached;
        std::bitset<maxCores> sharers;
        CoreId owner = invalidCore;
        bool cold = true;
        bool busy = false;
        unsigned pendingAcks = 0;
        /**
         * Puts from the current owner that are known to be in flight
         * because we re-granted the block to a core that (from our
         * view) still owned it — its eviction notice had not arrived
         * yet. Those puts must be dropped, not processed (puts ride
         * the reply vnet and can overtake the re-request).
         */
        unsigned pendingStalePuts = 0;
        /** Continuation run when pendingAcks reaches zero. */
        std::function<void()> onAcked;
        std::deque<Job> queue;
        /** LRU timestamp for set-capacity victim selection. */
        Tick lastTouch = 0;
    };

    /** Set index of @p block within this slice. */
    unsigned setOf(Addr block) const;

    /** Find-or-create, enforcing set capacity on creation. */
    Entry &entry(Addr block);

    /** Find-only; nullptr when the block has no directory entry. */
    Entry *findEntry(Addr block);

    /** Evict an eligible LRU victim from @p set, if any. */
    void enforceCapacity(unsigned set);

    /** Begin @p job now if the entry is idle, else queue it. */
    void submit(Addr block, Job job);

    /** Charge tag/DRAM latency, then run the job body. */
    void start(Addr block, Job job);

    void doRequest(Addr block, const std::shared_ptr<MemMsg> &msg);
    void doGrant(Addr block, Job job);
    void doPut(Addr block, const std::shared_ptr<MemMsg> &msg);

    /** Transaction finished: unbusy and start the next queued job. */
    void finish(Addr block);

    void sendMsg(CoreId dst, MemOp op, Addr block, bool hw_sync = false);

    EventQueue &eq;
    const MemConfig &cfg;
    CoreId tile;
    unsigned numTiles;
    SendFn send;
    std::string statPrefix;
    /** @name Per-transaction stats. @{ */
    StatHandle setOverflows;
    StatHandle llcEvictions;
    StatHandle coldMisses;
    StatHandle transactions;
    StatHandle invalidationsSent;
    StatHandle msaGrants;
    StatHandle writebacks;
    /** @} */

    std::unordered_map<Addr, Entry> entries;
    /** Resident block addresses per set (capacity bookkeeping). */
    std::unordered_map<unsigned, std::vector<Addr>> setResidents;
};

} // namespace mem
} // namespace misar

#endif // MISAR_MEM_HOME_SLICE_HH
