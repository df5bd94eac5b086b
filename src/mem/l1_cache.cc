#include "mem/l1_cache.hh"

#include "sim/logging.hh"

namespace misar {
namespace mem {

L1Cache::L1Cache(EventQueue &eq, const MemConfig &cfg, CoreId core,
                 unsigned num_tiles, FunctionalMem &fmem, SendFn send,
                 StatRegistry &stats, unsigned max_outstanding)
    : eq(eq), cfg(cfg), _core(core), numTiles(num_tiles), fmem(fmem),
      send(std::move(send)),
      statPrefix("tile" + std::to_string(core) + ".l1."),
      hits(stats, statPrefix, "hits"), misses(stats, statPrefix, "misses"),
      evictions(stats, statPrefix, "evictions"),
      deferredSnoops(stats, statPrefix, "deferredSnoops"),
      crossedSnoops(stats, statPrefix, "crossedSnoops"),
      invalidations(stats, statPrefix, "invalidations"),
      backInvalidations(stats, statPrefix, "backInvalidations"),
      mshrs(max_outstanding ? max_outstanding : 1)
{
    sets.resize(cfg.l1Sets);
    for (auto &s : sets)
        s.resize(cfg.l1Ways);
}

unsigned
L1Cache::setIndex(Addr block) const
{
    return static_cast<unsigned>((block / blockBytes) & (cfg.l1Sets - 1));
}

L1Cache::Line *
L1Cache::findLine(Addr block)
{
    for (auto &line : sets[setIndex(block)])
        if (line.state != L1State::Invalid && line.block == block)
            return &line;
    return nullptr;
}

const L1Cache::Line *
L1Cache::findLine(Addr block) const
{
    for (const auto &line : sets[setIndex(block)])
        if (line.state != L1State::Invalid && line.block == block)
            return &line;
    return nullptr;
}

void
L1Cache::touch(Line &line)
{
    line.lru = ++lruClock;
}

L1Cache::Line &
L1Cache::victimIn(unsigned set)
{
    Line *victim = nullptr;
    for (auto &line : sets[set]) {
        if (line.state == L1State::Invalid)
            return line;
        // Never evict a block holding a silently-held lock.
        if (holdQuery && holdQuery(line.block))
            continue;
        if (!victim || line.lru < victim->lru)
            victim = &line;
    }
    if (!victim)
        panic("L1 %u: all ways of a set pinned by silent holds", _core);
    return *victim;
}

void
L1Cache::flushDeferred(Addr block)
{
    std::shared_ptr<MemMsg> msg = deferredMsgs.take(blockAlign(block));
    if (!msg)
        return;
    handleMessage(msg);
}

void
L1Cache::evict(Line &line)
{
    if (line.state == L1State::Invalid)
        return;
    evictions.inc();
    // Fire-and-forget: the home checks ownership, so a stale put that
    // crosses an Inv/Fwd in flight is dropped there harmlessly.
    if (line.state == L1State::Modified) {
        send(std::make_shared<MemMsg>(_core, homeTile(line.block, numTiles),
                                      MemOp::PutM, line.block));
    } else if (line.state == L1State::Exclusive) {
        send(std::make_shared<MemMsg>(_core, homeTile(line.block, numTiles),
                                      MemOp::PutE, line.block));
    }
    // Shared lines drop silently; the directory tolerates stale
    // sharers (they simply ack a future Inv without holding the line).
    line.state = L1State::Invalid;
    line.hwSync = false;
    line.block = invalidAddr;
}

L1Cache::Line &
L1Cache::install(Addr block, L1State state)
{
    Line *line = findLine(block);
    if (!line) {
        line = &victimIn(setIndex(block));
        evict(*line);
    }
    line->block = block;
    line->state = state;
    touch(*line);
    return *line;
}

void
L1Cache::startMiss(MemOp req, Mshr m)
{
    for (Mshr &slot : mshrs) {
        if (!slot.valid) {
            slot = std::move(m);
            slot.valid = true;
            send(std::make_shared<MemMsg>(
                _core, homeTile(slot.block, numTiles), req, slot.block));
            return;
        }
    }
    panic("L1 %u: more outstanding misses than hardware threads",
          _core);
}

void
L1Cache::read(Addr a, AccessCb cb)
{
    const Addr block = blockAlign(a);
    eq.schedule(cfg.l1HitLatency, [this, a, block, cb = std::move(cb)] {
        Line *line = findLine(block);
        if (line) {
            hits.inc();
            touch(*line);
            cb(fmem.read(a));
            return;
        }
        misses.inc();
        Mshr m;
        m.block = block;
        m.kind = Mshr::Kind::Read;
        m.addr = a;
        m.cb = std::move(cb);
        startMiss(MemOp::GetS, std::move(m));
    });
}

void
L1Cache::write(Addr a, std::uint64_t v, AccessCb cb)
{
    const Addr block = blockAlign(a);
    eq.schedule(cfg.l1HitLatency, [this, a, v, block, cb = std::move(cb)] {
        Line *line = findLine(block);
        if (line && (line->state == L1State::Modified ||
                     line->state == L1State::Exclusive)) {
            hits.inc();
            line->state = L1State::Modified;
            touch(*line);
            std::uint64_t old = fmem.read(a);
            fmem.write(a, v);
            cb(old);
            return;
        }
        misses.inc();
        Mshr m;
        m.block = block;
        m.kind = Mshr::Kind::Write;
        m.addr = a;
        m.wval = v;
        m.cb = std::move(cb);
        startMiss(MemOp::GetM, std::move(m));
    });
}

void
L1Cache::atomic(Addr a, AtomicOp op, std::uint64_t operand,
                std::uint64_t operand2, AccessCb cb)
{
    const Addr block = blockAlign(a);
    eq.schedule(cfg.l1HitLatency,
                [this, a, op, operand, operand2, block, cb = std::move(cb)] {
        Line *line = findLine(block);
        if (line && (line->state == L1State::Modified ||
                     line->state == L1State::Exclusive)) {
            hits.inc();
            line->state = L1State::Modified;
            touch(*line);
            cb(fmem.atomic(a, op, operand, operand2));
            return;
        }
        misses.inc();
        Mshr m;
        m.block = block;
        m.kind = Mshr::Kind::Atomic;
        m.addr = a;
        m.aop = op;
        m.opnd = operand;
        m.opnd2 = operand2;
        m.cb = std::move(cb);
        startMiss(MemOp::GetM, std::move(m));
    });
}

void
L1Cache::complete(L1State new_state, Addr block)
{
    Mshr *hit = nullptr;
    for (Mshr &slot : mshrs) {
        if (slot.valid && slot.block == block) {
            hit = &slot;
            break;
        }
    }
    if (!hit)
        panic("L1 %u: grant with no matching outstanding miss", _core);
    Line &line = install(block, new_state);
    Mshr m = std::move(*hit);
    hit->valid = false;

    // A snoop serialized after this grant crossed the fill in
    // flight: honor it now that the data (and the functional op
    // below) have been satisfied exactly once.
    if (m.postFill == Mshr::PostFill::ToShared) {
        line.state = L1State::Shared;
        line.hwSync = false;
    } else if (m.postFill == Mshr::PostFill::ToInvalid) {
        line.state = L1State::Invalid;
        line.hwSync = false;
        line.block = invalidAddr;
    }

    std::uint64_t result = 0;
    switch (m.kind) {
      case Mshr::Kind::Read:
        result = fmem.read(m.addr);
        break;
      case Mshr::Kind::Write:
        result = fmem.read(m.addr);
        fmem.write(m.addr, m.wval);
        break;
      case Mshr::Kind::Atomic:
        result = fmem.atomic(m.addr, m.aop, m.opnd, m.opnd2);
        break;
    }
    m.cb(result);
}

void
L1Cache::handleMessage(const std::shared_ptr<MemMsg> &msg)
{
    const Addr block = msg->block;
    const CoreId home = homeTile(block, numTiles);
    if ((msg->op == MemOp::FwdGetS || msg->op == MemOp::Inv) &&
        holdQuery && holdQuery(block) && findLine(block)) {
        // The block carries a silently-held lock: stall the snoop
        // until the lock is released (see header).
        if (deferredMsgs.contains(block))
            panic("L1 %u: second deferred snoop for block %llx", _core,
                  (unsigned long long)block);
        deferredMsgs[block] = msg;
        deferredSnoops.inc();
        if (tracer)
            tracer->instant(_track, eq.now(), "SNOOP_DEFER", block);
        return;
    }
    if (msg->op == MemOp::FwdGetS || msg->op == MemOp::Inv ||
        msg->op == MemOp::BackInv) {
        for (Mshr &slot : mshrs) {
            if (!slot.valid || slot.block != block)
                continue;
            // Snoop crossed our in-flight fill (see Mshr::PostFill).
            crossedSnoops.inc();
            if (tracer)
                tracer->instant(_track, eq.now(), "SNOOP_X", block);
            if (msg->op == MemOp::FwdGetS) {
                if (slot.postFill == Mshr::PostFill::None)
                    slot.postFill = Mshr::PostFill::ToShared;
                send(std::make_shared<MemMsg>(_core, home, MemOp::FwdAck,
                                              block));
            } else {
                slot.postFill = Mshr::PostFill::ToInvalid;
                if (msg->op == MemOp::Inv)
                    send(std::make_shared<MemMsg>(_core, home,
                                                  MemOp::InvAck, block));
            }
            // Any copy we still hold is from the pre-grant epoch and
            // covered by the same snoop.
            if (Line *line = findLine(block)) {
                line->state = L1State::Invalid;
                line->hwSync = false;
                line->block = invalidAddr;
            }
            return;
        }
    }
    switch (msg->op) {
      case MemOp::FwdGetS: {
        // Downgrade to S; ack even if we no longer hold the line
        // (a put of ours crossed the forward in flight).
        Line *line = findLine(block);
        if (line) {
            line->state = L1State::Shared;
            line->hwSync = false;
        }
        send(std::make_shared<MemMsg>(_core, home, MemOp::FwdAck, block));
        break;
      }
      case MemOp::Inv: {
        Line *line = findLine(block);
        if (line) {
            line->state = L1State::Invalid;
            line->hwSync = false;
            line->block = invalidAddr;
            invalidations.inc();
        }
        send(std::make_shared<MemMsg>(_core, home, MemOp::InvAck, block));
        break;
      }
      case MemOp::BackInv: {
        // LLC eviction: drop our (shared) copy; no ack expected.
        Line *line = findLine(block);
        if (line) {
            line->state = L1State::Invalid;
            line->hwSync = false;
            line->block = invalidAddr;
            backInvalidations.inc();
        }
        break;
      }
      case MemOp::DataS:
        complete(L1State::Shared, block);
        break;
      case MemOp::DataE:
        complete(L1State::Exclusive, block);
        break;
      case MemOp::DataM:
      case MemOp::GrantM:
        complete(L1State::Modified, block);
        break;
      case MemOp::InstallE: {
        // MSA lock grant pushed the block to us (paper §5).
        Line &line = install(block, L1State::Exclusive);
        line.hwSync = msg->hwSync;
        break;
      }
      default:
        panic("L1 %u: unexpected coherence message %d", _core,
              static_cast<int>(msg->op));
    }
}

bool
L1Cache::hasWritableHwSync(Addr a) const
{
    const Line *line = findLine(blockAlign(a));
    return line && line->hwSync &&
           (line->state == L1State::Exclusive ||
            line->state == L1State::Modified);
}

L1State
L1Cache::state(Addr a) const
{
    const Line *line = findLine(blockAlign(a));
    return line ? line->state : L1State::Invalid;
}

void
L1Cache::forEachLine(const std::function<void(const LineView &)> &fn) const
{
    for (const auto &set : sets) {
        for (const Line &line : set) {
            if (line.state == L1State::Invalid)
                continue;
            fn(LineView{line.block, line.state, line.hwSync});
        }
    }
}

} // namespace mem
} // namespace misar
