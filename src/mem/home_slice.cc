#include "mem/home_slice.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace misar {
namespace mem {

HomeSlice::HomeSlice(EventQueue &eq, const MemConfig &cfg, CoreId tile,
                     unsigned num_tiles, SendFn send, StatRegistry &stats)
    : eq(eq), cfg(cfg), tile(tile), numTiles(num_tiles),
      send(std::move(send)),
      statPrefix("tile" + std::to_string(tile) + ".llc."),
      setOverflows(stats, statPrefix, "setOverflows"),
      llcEvictions(stats, statPrefix, "llcEvictions"),
      coldMisses(stats, statPrefix, "coldMisses"),
      transactions(stats, statPrefix, "transactions"),
      invalidationsSent(stats, statPrefix, "invalidationsSent"),
      msaGrants(stats, statPrefix, "msaGrants"),
      writebacks(stats, statPrefix, "writebacks")
{
    if (num_tiles > maxCores)
        fatal("HomeSlice supports at most %u tiles", maxCores);
}

unsigned
HomeSlice::setOf(Addr block) const
{
    // Lines interleave across tiles; within a slice, consecutive
    // lines of this slice map to consecutive sets.
    std::uint64_t line = block / blockBytes;
    return static_cast<unsigned>((line / numTiles) &
                                 (cfg.llcSliceSets - 1));
}

HomeSlice::Entry *
HomeSlice::findEntry(Addr block)
{
    auto it = entries.find(block);
    return it == entries.end() ? nullptr : &it->second;
}

HomeSlice::Entry &
HomeSlice::entry(Addr block)
{
    auto it = entries.find(block);
    if (it != entries.end())
        return it->second;
    const unsigned set = setOf(block);
    enforceCapacity(set);
    setResidents[set].push_back(block);
    return entries[block];
}

void
HomeSlice::enforceCapacity(unsigned set)
{
    std::vector<Addr> &res = setResidents[set];
    if (res.size() < cfg.llcWays)
        return;
    // Victim: LRU among evictable entries. Exclusively-owned or
    // in-flight lines are not evictable (see header).
    Addr victim = invalidAddr;
    Tick oldest = maxTick;
    for (Addr a : res) {
        const Entry &e = entries.at(a);
        if (e.busy || e.pendingAcks || !e.queue.empty())
            continue;
        if (e.state == DState::Exclusive)
            continue;
        if (e.lastTouch < oldest) {
            oldest = e.lastTouch;
            victim = a;
        }
    }
    if (victim == invalidAddr) {
        setOverflows.inc();
        return; // every way pinned: overflow rather than deadlock
    }
    Entry &v = entries.at(victim);
    if (v.state == DState::Shared) {
        for (unsigned c = 0; c < numTiles; ++c)
            if (v.sharers.test(c))
                sendMsg(c, MemOp::BackInv, victim);
    }
    llcEvictions.inc();
    entries.erase(victim);
    res.erase(std::find(res.begin(), res.end(), victim));
}

void
HomeSlice::sendMsg(CoreId dst, MemOp op, Addr block, bool hw_sync)
{
    auto m = std::make_shared<MemMsg>(tile, dst, op, block);
    m->hwSync = hw_sync;
    send(std::move(m));
}

void
HomeSlice::handleMessage(std::shared_ptr<MemMsg> msg)
{
    const Addr block = msg->block;
    switch (msg->op) {
      case MemOp::GetS:
      case MemOp::GetM: {
        Job job;
        job.msg = std::move(msg);
        job.block = block;
        submit(block, std::move(job));
        break;
      }
      case MemOp::PutM:
      case MemOp::PutE: {
        // Puts are fire-and-forget from the L1. If the entry is busy
        // the put may be stale by dequeue time; doPut() re-checks
        // ownership then. A put for an already-evicted entry has
        // nothing to update.
        Entry *e = findEntry(block);
        if (!e)
            break;
        if (e->busy) {
            Job job;
            job.msg = std::move(msg);
            job.block = block;
            e->queue.push_back(std::move(job));
        } else {
            doPut(block, msg);
        }
        break;
      }
      case MemOp::InvAck:
      case MemOp::FwdAck: {
        Entry *e = findEntry(block);
        if (!e || !e->busy || e->pendingAcks == 0)
            panic("home %u: unexpected ack for block %llx", tile,
                  static_cast<unsigned long long>(block));
        if (--e->pendingAcks == 0) {
            auto k = std::move(e->onAcked);
            e->onAcked = nullptr;
            k();
        }
        break;
      }
      default:
        panic("home %u: unexpected message op %d", tile,
              static_cast<int>(msg->op));
    }
}

void
HomeSlice::submit(Addr block, Job job)
{
    Entry &e = entry(block);
    if (e.busy) {
        e.queue.push_back(std::move(job));
        return;
    }
    start(block, std::move(job));
}

void
HomeSlice::start(Addr block, Job job)
{
    Entry &e = entry(block);
    e.busy = true;
    e.lastTouch = eq.now();
    Tick lat = cfg.llcHitLatency;
    if (e.cold) {
        e.cold = false;
        lat += cfg.memLatency;
        coldMisses.inc();
    }
    transactions.inc();
    eq.schedule(lat, [this, block, job = std::move(job)]() mutable {
        if (job.msg) {
            if (job.msg->op == MemOp::PutM || job.msg->op == MemOp::PutE) {
                doPut(block, job.msg);
                finish(block);
            } else {
                doRequest(block, job.msg);
            }
        } else {
            doGrant(block, std::move(job));
        }
    });
}

void
HomeSlice::doRequest(Addr block, const std::shared_ptr<MemMsg> &msg)
{
    Entry &e = entry(block);
    const CoreId req = msg->src();
    const bool is_get_m = (msg->op == MemOp::GetM);

    switch (e.state) {
      case DState::Uncached:
        e.state = DState::Exclusive;
        e.owner = req;
        sendMsg(req, is_get_m ? MemOp::DataM : MemOp::DataE, block);
        finish(block);
        return;

      case DState::Shared: {
        if (!is_get_m) {
            e.sharers.set(req);
            sendMsg(req, MemOp::DataS, block);
            finish(block);
            return;
        }
        // GetM on shared data: invalidate every other sharer.
        const bool req_was_sharer = e.sharers.test(req);
        unsigned invs = 0;
        for (unsigned c = 0; c < numTiles; ++c) {
            if (c != req && e.sharers.test(c)) {
                sendMsg(c, MemOp::Inv, block);
                ++invs;
            }
        }
        invalidationsSent.inc(invs);
        auto grant = [this, block, req, req_was_sharer] {
            Entry &e2 = entry(block);
            e2.state = DState::Exclusive;
            e2.sharers.reset();
            e2.owner = req;
            sendMsg(req, req_was_sharer ? MemOp::GrantM : MemOp::DataM,
                    block);
            finish(block);
        };
        if (invs == 0) {
            grant();
        } else {
            e.pendingAcks = invs;
            e.onAcked = std::move(grant);
        }
        return;
      }

      case DState::Exclusive: {
        const CoreId owner = e.owner;
        if (owner == req) {
            // Stale ownership: the requester's PutE/PutM is still in
            // flight. The data is functionally fresh, so just
            // re-grant, and remember to drop that put when it lands.
            ++e.pendingStalePuts;
            sendMsg(req, is_get_m ? MemOp::DataM : MemOp::DataE, block);
            finish(block);
            return;
        }
        if (is_get_m) {
            sendMsg(owner, MemOp::Inv, block);
            invalidationsSent.inc();
            e.pendingAcks = 1;
            e.onAcked = [this, block, req] {
                Entry &e2 = entry(block);
                e2.state = DState::Exclusive;
                e2.owner = req;
                sendMsg(req, MemOp::DataM, block);
                finish(block);
            };
        } else {
            sendMsg(owner, MemOp::FwdGetS, block);
            e.pendingAcks = 1;
            e.onAcked = [this, block, req, owner] {
                Entry &e2 = entry(block);
                e2.state = DState::Shared;
                e2.sharers.reset();
                e2.sharers.set(owner);
                e2.sharers.set(req);
                e2.owner = invalidCore;
                sendMsg(req, MemOp::DataS, block);
                finish(block);
            };
        }
        return;
      }
    }
}

void
HomeSlice::doGrant(Addr block, Job job)
{
    Entry &e = entry(block);
    const CoreId to = job.grantTo;
    msaGrants.inc();

    // Invalidate everyone except the grantee.
    unsigned invs = 0;
    if (e.state == DState::Shared) {
        for (unsigned c = 0; c < numTiles; ++c) {
            if (c != to && e.sharers.test(c)) {
                sendMsg(c, MemOp::Inv, block);
                ++invs;
            }
        }
    } else if (e.state == DState::Exclusive && e.owner != to) {
        sendMsg(e.owner, MemOp::Inv, block);
        ++invs;
    } else if (e.state == DState::Exclusive && e.owner == to) {
        // The grantee may have a PutE/PutM in flight for this block;
        // make sure it cannot clobber the pushed InstallE copy.
        // (Dropping a real future put instead is harmless: the
        // directory only becomes conservatively stale.)
        ++e.pendingStalePuts;
    }

    auto fin = [this, block, to, hw = job.hwSync,
                done = std::move(job.done)] {
        Entry &e2 = entry(block);
        e2.state = DState::Exclusive;
        e2.sharers.reset();
        e2.owner = to;
        sendMsg(to, MemOp::InstallE, block, hw);
        if (done)
            done();
        finish(block);
    };
    if (invs == 0) {
        fin();
    } else {
        e.pendingAcks = invs;
        e.onAcked = std::move(fin);
    }
}

void
HomeSlice::doPut(Addr block, const std::shared_ptr<MemMsg> &msg)
{
    Entry &e = entry(block);
    if (e.state == DState::Exclusive && e.owner == msg->src() &&
        e.pendingStalePuts > 0) {
        // This put belongs to an ownership epoch we already re-granted
        // past; dropping it keeps the re-granted copy valid.
        --e.pendingStalePuts;
        return;
    }
    // Drop stale puts: only the current owner's put changes state.
    if (e.state == DState::Exclusive && e.owner == msg->src()) {
        e.state = DState::Uncached;
        e.owner = invalidCore;
        writebacks.inc();
    }
}

void
HomeSlice::finish(Addr block)
{
    Entry &e = entry(block);
    e.busy = false;
    if (e.queue.empty())
        return;
    Job next = std::move(e.queue.front());
    e.queue.pop_front();
    start(block, std::move(next));
}

void
HomeSlice::grantExclusive(Addr block, CoreId to, bool hw_sync,
                          std::function<void()> done)
{
    Job job;
    job.block = block;
    job.grantTo = to;
    job.hwSync = hw_sync;
    job.done = std::move(done);
    submit(block, std::move(job));
}

bool
HomeSlice::isOwner(Addr block, CoreId c) const
{
    auto it = entries.find(block);
    return it != entries.end() && it->second.state == DState::Exclusive &&
           it->second.owner == c;
}

bool
HomeSlice::isSharer(Addr block, CoreId c) const
{
    auto it = entries.find(block);
    if (it == entries.end())
        return false;
    if (it->second.state == DState::Shared)
        return it->second.sharers.test(c);
    return it->second.state == DState::Exclusive && it->second.owner == c;
}

void
HomeSlice::forEachEntry(const std::function<void(const DirView &)> &fn) const
{
    for (const auto &[block, e] : entries) {
        DirView v;
        v.block = block;
        v.exclusive = e.state == DState::Exclusive;
        v.shared = e.state == DState::Shared;
        v.owner = e.owner;
        v.busy = e.busy;
        fn(v);
    }
}

} // namespace mem
} // namespace misar
