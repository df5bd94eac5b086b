#include "sim/parallel.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace misar {

ParallelEngine::ParallelEngine(EventQueue &global,
                               std::vector<EventQueue *> parts_in,
                               std::vector<unsigned> laneToPart_in)
    : global(global), parts(std::move(parts_in)),
      laneToPart(std::move(laneToPart_in)),
      numParts(static_cast<unsigned>(parts.size())),
      barRelease(numParts), barDone(numParts)
{
    if (numParts < 2)
        panic("parallel engine needs >= 2 partitions");
    handles.resize(numParts);
    mailboxes.resize(static_cast<std::size_t>(numParts) * (numParts + 1));

    // Each partition queue owns a contiguous lane range; derive it
    // from the lane map so the hook can insert in-partition sends
    // inline and only mail genuinely foreign ones.
    for (unsigned p = 0; p < numParts; ++p) {
        handles[p] = Handle{this, p};
        LaneId lo = 0, hi = 0;
        bool seen = false;
        for (LaneId l = 1; l < laneToPart.size(); ++l) {
            if (laneToPart[l] != p)
                continue;
            if (!seen) {
                lo = l;
                seen = true;
            } else if (l != hi) {
                panic("partition %u owns non-contiguous lanes", p);
            }
            hi = l + 1;
        }
        if (!seen)
            panic("partition %u owns no lanes", p);
        parts[p]->setCrossHook(&handles[p], &ParallelEngine::hook, lo, hi);
    }

    threads.reserve(numParts - 1);
    for (unsigned p = 1; p < numParts; ++p)
        threads.emplace_back([this, p] { workerLoop(p); });
}

ParallelEngine::~ParallelEngine()
{
    shutdown();
}

void
ParallelEngine::shutdown()
{
    if (joined)
        return;
    joined = true;
    ctlStop = true;
    barRelease.arriveAndWait();
    for (auto &t : threads)
        t.join();
    for (unsigned p = 0; p < numParts; ++p)
        parts[p]->setCrossHook(nullptr, nullptr, 0, 0);
    // A run stopped at a tick limit leaves mail in flight. File it in
    // its destination queue, as the next round would have, so that a
    // later engine (the next runDetailed()) continues the trajectory.
    // The global inbox is already empty: every step() drains it.
    for (unsigned dst = 0; dst < numParts; ++dst)
        deliverMail(dst, *parts[dst]);
}

void
ParallelEngine::hook(void *ctx, LaneId dstLane, Tick when, Tick sendTick,
                     LaneId senderLane, EventQueue::Callback fn)
{
    Handle *h = static_cast<Handle *>(ctx);
    ParallelEngine *e = h->engine;
    if (dstLane >= e->laneToPart.size())
        panic("cross event to unmapped lane %u", dstLane);
    const unsigned dst = e->laneToPart[dstLane];
    auto &items = e->box(h->src, dst).gen[e->ctlGen];
    items.push_back(MailItem{when, sendTick, dstLane, senderLane,
                             std::move(fn)});
    ++h->sent;
}

std::uint64_t
ParallelEngine::crossEvents() const
{
    std::uint64_t n = 0;
    for (const Handle &h : handles)
        n += h.sent;
    return n;
}

std::size_t
ParallelEngine::pending() const
{
    std::size_t n = global.pending();
    for (const EventQueue *q : parts)
        n += q->pending();
    for (const Mailbox &m : mailboxes)
        n += m.gen[0].size() + m.gen[1].size();
    return n;
}

Tick
ParallelEngine::minNextTick() const
{
    Tick t = global.nextEventTick();
    for (const EventQueue *q : parts)
        t = std::min(t, q->nextEventTick());
    for (const Mailbox &m : mailboxes)
        for (const auto &g : m.gen)
            for (const MailItem &it : g)
                t = std::min(t, it.when);
    return t;
}

void
ParallelEngine::deliverMail(unsigned dst, EventQueue &q)
{
    // Both generations are quiescent here (workers parked); drain in
    // (generation, source) order. Cross-generation items differ in
    // sendTick — one round per tick — so the receiving queue's sender
    // key keeps the merge deterministic regardless.
    for (unsigned g = 0; g < 2; ++g)
        for (unsigned src = 0; src < numParts; ++src) {
            auto &items = box(src, dst).gen[g];
            for (MailItem &it : items)
                q.insertForeign(it.dstLane, it.when, it.sendTick,
                                it.senderLane, std::move(it.fn));
            items.clear();
        }
}

void
ParallelEngine::workerBody(unsigned p)
{
    EventQueue *q = parts[p];
    const unsigned readGen = ctlGen ^ 1;
    for (unsigned src = 0; src < numParts; ++src) {
        auto &items = box(src, p).gen[readGen];
        for (MailItem &it : items)
            q->insertForeign(it.dstLane, it.when, it.sendTick,
                             it.senderLane, std::move(it.fn));
        items.clear();
    }
    if (q->nextEventTick() == ctlTick)
        q->runTick(ctlTick);
}

void
ParallelEngine::workerLoop(unsigned p)
{
    for (;;) {
        barRelease.arriveAndWait();
        if (ctlStop)
            return;
        workerBody(p);
        barDone.arriveAndWait();
    }
}

void
ParallelEngine::round(Tick t)
{
    for (EventQueue *q : parts)
        q->advanceTo(t);
    global.advanceTo(t);
    // Lane 0 runs first within a tick. Global events may call into
    // any tile (workers are parked) and schedule same-tick follow-ups
    // onto tile lanes; the clocks are already aligned so those land
    // at the right tick.
    if (global.nextEventTick() == t)
        global.runTick(t);
    ctlTick = t;
    ctlGen ^= 1;
    ++roundCount;
    barRelease.arriveAndWait();
    workerBody(0);
    barDone.arriveAndWait();
}

bool
ParallelEngine::step(Tick until)
{
    deliverMail(numParts, global); // the global inbox
    Tick gNext = global.nextEventTick();
    Tick pNext = maxTick;
    for (const EventQueue *q : parts)
        pNext = std::min(pNext, q->nextEventTick());
    Tick mNext = maxTick;
    for (const Mailbox &m : mailboxes)
        for (const auto &g : m.gen)
            for (const MailItem &it : g)
                mNext = std::min(mNext, it.when);
    const Tick t = std::min({gNext, pNext, mNext});
    if (t > until || t == maxTick)
        return false;
    if (gNext == t && pNext > t && mNext > t) {
        // Global-only tick (watchdog, sampler, injector, checker):
        // run it master-side without waking the workers. Align the
        // partition clocks first so same-tick master->tile schedules
        // land at the right tick.
        for (EventQueue *q : parts)
            q->advanceTo(t);
        global.advanceTo(t);
        global.runTick(t);
        return true;
    }
    round(t);
    return true;
}

void
ParallelEngine::runUntil(Tick until)
{
    while (step(until)) {
    }
    for (EventQueue *q : parts)
        if (q->now() < until)
            q->advanceTo(until);
    if (global.now() < until)
        global.advanceTo(until);
}

void
ParallelEngine::drainAll()
{
    while (step(maxTick)) {
    }
}

} // namespace misar
