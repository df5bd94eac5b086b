#include "sim/event_queue.hh"

#include <algorithm>

namespace misar {

EventQueue::EventQueue() = default;

EventQueue::~EventQueue()
{
    // Destroy (without running) every callable still pending — lane
    // chains, ring, and overflow alike; the chunks vector frees the
    // records.
    auto destroyChain = [](EventRecord *r) {
        while (r) {
            EventRecord *next = r->next;
            r->op(r, false);
            r = next;
        }
    };
    for (Chain &l : nearLanes)
        destroyChain(l.head);
    for (Chain &b : buckets)
        destroyChain(b.head);
    for (EventRecord *r : overflow)
        r->op(r, false);
}

void
EventQueue::setNumLanes(LaneId n)
{
    if (n <= numLanes)
        return;
    numLanes = n;
    // Lane-major storage: the new lanes append, existing chains and
    // occupancy words keep their index.
    nearLanes.resize(static_cast<std::size_t>(n) << nearBits);
    nearOcc.resize(((static_cast<std::size_t>(n) + 63) / 64) << nearBits, 0);
}

void
EventQueue::growPool()
{
    auto chunk = std::make_unique<EventRecord[]>(chunkSize);
    for (std::size_t i = chunkSize; i-- > 0;) {
        chunk[i].next = freeHead;
        freeHead = &chunk[i];
    }
    chunks.push_back(std::move(chunk));
    ++pstats.chunkAllocs;
    pstats.recordCapacity += chunkSize;
}

void
EventQueue::appendBucket(EventRecord *r)
{
    Chain &b = buckets[static_cast<std::size_t>(r->when) & bucketMask];
    r->next = nullptr;
    if (b.tail) {
        b.tail->next = r;
    } else {
        b.head = r;
        const std::size_t idx =
            static_cast<std::size_t>(r->when) & bucketMask;
        occ[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }
    b.tail = r;
    ++ringCount;
}

void
EventQueue::pushOverflow(EventRecord *r)
{
    overflow.push_back(r);
    std::push_heap(overflow.begin(), overflow.end(), later);
}

void
EventQueue::promote()
{
    // maxTick-adjacent clocks cannot overflow the boundaries in any
    // real run, but saturate anyway so the comparisons stay sound.
    const Tick boundary = (_now > maxTick - window) ? maxTick
                                                    : _now + window;
    while (!overflow.empty() && overflow.front()->when < boundary) {
        std::pop_heap(overflow.begin(), overflow.end(), later);
        EventRecord *r = overflow.back();
        overflow.pop_back();
        // Heap pops ascend in (when, seq). A record filed straight
        // into the ring was issued at a clock within the horizon of
        // its tick, after promote() had run at that clock, so each
        // bucket stays in issue order.
        appendBucket(r);
    }

    // Ticks in [max(nearEnd, now), now + nearTicks) enter the near
    // window now. Their ring buckets move into the lane chains before
    // anything can append there directly: every direct append is
    // issued later (within nearTicks of its tick), so FIFO order stays
    // issue order. Skipped ticks below now hold no events (the
    // clock only jumps to the next pending tick).
    const Tick end = (_now > maxTick - nearTicks) ? maxTick
                                                  : _now + nearTicks;
    for (Tick t = std::max(nearEnd, _now); t < end && ringCount; ++t) {
        const std::size_t idx = static_cast<std::size_t>(t) & bucketMask;
        Chain &b = buckets[idx];
        if (!b.head)
            continue;
        for (EventRecord *r = b.head; r;) {
            EventRecord *next = r->next;
            appendNear(r);
            --ringCount;
            r = next;
        }
        b.head = b.tail = nullptr;
        occ[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }
    nearEnd = end;
}

Tick
EventQueue::nextRingTick() const
{
    const std::size_t s = static_cast<std::size_t>(_now) & bucketMask;
    std::size_t w = s >> 6;
    const unsigned b = static_cast<unsigned>(s & 63);
    // Circular scan starting at bucket s: high bits of word w first,
    // then the following words, then the low bits of word w.
    std::uint64_t word = occ[w] & (~std::uint64_t{0} << b);
    for (std::size_t n = 0; n < numWords; ++n) {
        if (word) {
            const std::size_t idx =
                (w << 6) | static_cast<std::size_t>(std::countr_zero(word));
            return _now + ((idx - s) & bucketMask);
        }
        w = (w + 1) & (numWords - 1);
        word = occ[w];
    }
    if (b) {
        word = occ[s >> 6] & (~std::uint64_t{0} >> (64 - b));
        if (word) {
            const std::size_t idx =
                ((s >> 6) << 6) |
                static_cast<std::size_t>(std::countr_zero(word));
            return _now + ((idx - s) & bucketMask);
        }
    }
    panic("event ring count %zu but no occupied bucket", ringCount);
}

void
EventQueue::runTick(Tick t)
{
    if (t != _now)
        panic("runTick(%llu) but now is %llu",
              static_cast<unsigned long long>(t),
              static_cast<unsigned long long>(_now));
    // Execute the tick's lane chains in ascending lane order, each in
    // issue order. Callbacks may append same-tick events to the
    // current or any later lane; the occupancy rescan picks up lanes
    // that only just became occupied.
    const unsigned slot = static_cast<unsigned>(t) & nearMask;
    for (LaneId l = nextOccupiedLane(slot, 0); l < numLanes;
         l = nextOccupiedLane(slot, l)) {
        Chain &lane = nearLane(l, t);
        curLane = l;
        while (EventRecord *r = lane.head) {
            lane.head = r->next;
            if (!lane.head)
                lane.tail = nullptr;
            --numPending;
            ++pstats.executed;
            r->op(r, true);
            freeRecord(r);
        }
        nearOcc[nearOccIndex(l >> 6, slot)] &=
            ~(std::uint64_t{1} << (l & 63));
    }
    nearSlots &= ~(1u << slot);
    curLane = 0;
}

EventQueue::DrainResult
EventQueue::drain(Tick limit)
{
    const Tick deadline = (limit == maxTick) ? maxTick : _now + limit;
    while (numPending) {
        const Tick t = nextEventTick();
        if (t > deadline)
            return DrainResult::LimitHit;
        _now = t;
        promote();
        runTick(t);
    }
    return DrainResult::Drained;
}

void
EventQueue::runUntil(Tick until)
{
    while (numPending) {
        const Tick t = nextEventTick();
        if (t > until)
            break;
        _now = t;
        promote();
        runTick(t);
    }
    if (_now < until) {
        _now = until;
        promote();
    }
}

} // namespace misar
