#include "srv/server_app.hh"

#include <algorithm>
#include <cmath>
#include <string>

#include "sim/logging.hh"
#include "sim/rng.hh"

namespace misar {
namespace srv {

using cpu::SubTask;
using cpu::ThreadApi;
using cpu::ThreadTask;
using sync::SyncLib;

namespace {

/** Base of the server's simulated address range (above app bases). */
constexpr Addr srvBase = 0x60000000;

/** Requests pulled from a dispatch ring per drainer visit. */
constexpr unsigned drainBatch = 8;

/** Idle worker back-off between steal sweeps, in cycles. */
constexpr Tick idleBackoff = 300;

/** EWMA weight: new = old + (sample - old) / ewmaShift. */
constexpr int ewmaShift = 3;

/** One core's core<id>.srv.* counters, bound on first count. */
struct SrvCounters
{
    SrvCounters(StatRegistry &st, CoreId id)
        : prefix("core" + std::to_string(id) + ".srv."),
          generated(st, prefix, "generated"),
          retries(st, prefix, "retries"),
          retryDenied(st, prefix, "retryDenied"),
          rejectedSlo(st, prefix, "rejectedSlo"),
          rejected(st, prefix, "rejected"), steals(st, prefix, "steals"),
          completed(st, prefix, "completed")
    {}
    SrvCounters(const SrvCounters &) = delete;
    SrvCounters &operator=(const SrvCounters &) = delete;

    std::string prefix;
    StatHandle generated;
    StatHandle retries;
    StatHandle retryDenied;
    StatHandle rejectedSlo;
    StatHandle rejected;
    StatHandle steals;
    StatHandle completed;
};

/** Why a request was shed at admission this attempt. */
enum class ShedCause
{
    None,
    Full, ///< dispatch ring full — the PR 9 rejection
    Slo,  ///< predicted wait would bust the SLO
};

} // namespace

bool
parseRetryPolicy(const std::string &name, RetryPolicy &out)
{
    if (name == "none")
        out = RetryPolicy::None;
    else if (name == "naive")
        out = RetryPolicy::Naive;
    else if (name == "budgeted")
        out = RetryPolicy::Budgeted;
    else
        return false;
    return true;
}

const char *
retryPolicyName(RetryPolicy p)
{
    switch (p) {
    case RetryPolicy::None:
        return "none";
    case RetryPolicy::Naive:
        return "naive";
    case RetryPolicy::Budgeted:
        return "budgeted";
    }
    return "?";
}

std::string
retryPolicyNames()
{
    return "none, naive, budgeted";
}

unsigned
ServerHarness::dispatchers(unsigned num_threads)
{
    return num_threads >= 8 ? 2 : 1;
}

ServerHarness::ServerHarness(const ServerSpec &spec, unsigned num_threads,
                             std::uint64_t seed)
    : spec_(spec), numThreads(num_threads), numDisp(0), seed(seed)
{
    if (!spec_.enabled)
        fatal("ServerHarness built from a non-server app spec");
    const bool closed = spec_.mode == ArrivalMode::Closed;
    const bool overload = spec_.sloTicks > 0 ||
                          spec_.retryPolicy != RetryPolicy::None ||
                          spec_.tenantsEnabled();
    if (closed && overload)
        fatal("overload controls (slo/retries/tenants) need an "
              "open-loop arrival mode");
    if (!closed) {
        numDisp = dispatchers(num_threads);
        if (num_threads < 2 * numDisp)
            fatal("server apps need at least %u threads, have %u",
                  2 * numDisp, num_threads);
        if (spec_.arrivalRate <= 0)
            fatal("server arrival rate must be positive");
    }
    if ((spec_.tenantHiRate > 0.0) != (spec_.tenantLoRate > 0.0))
        fatal("tenant mix needs both a hi and a lo rate");
    if (spec_.tenantsEnabled()) {
        const double sum = spec_.tenantHiRate + spec_.tenantLoRate;
        if (std::fabs(sum - spec_.arrivalRate) > 1e-9 * sum)
            fatal("tenant mix %g:%g sums to %g, not the arrival "
                  "rate %g",
                  spec_.tenantHiRate, spec_.tenantLoRate, sum,
                  spec_.arrivalRate);
    }
    if (!(spec_.brownoutRatio > 0.0) || spec_.brownoutRatio > 1.0)
        fatal("brownout ratio must be in (0, 1]");
    if (spec_.retryPolicy == RetryPolicy::Budgeted &&
        !(spec_.retryBudgetRatio > 0.0))
        fatal("retry budget ratio must be positive");
    if (spec_.retryPolicy != RetryPolicy::None &&
        (spec_.retryBackoffBase == 0 ||
         spec_.retryBackoffCap < spec_.retryBackoffBase))
        fatal("retry backoff must be positive and cap >= base");

    const unsigned total_requests =
        closed ? num_threads * spec_.tasksPerWorker : spec_.requests;
    if (spec_.tenantsEnabled())
        sched = makeTenantSchedule(spec_.mode, spec_.tenantHiRate,
                                   spec_.tenantLoRate, spec_.serviceDist,
                                   spec_.serviceMean, total_requests,
                                   spec_.burstDwell, seed);
    else
        sched = makeSchedule(spec_.mode, spec_.arrivalRate,
                             spec_.serviceDist, spec_.serviceMean,
                             total_requests, spec_.burstDwell, seed);

    stopAddr = srvBase;
    producersDoneAddr = srvBase + srvBlock;

    // Overload-control words live in their own region between the
    // rings (srvBase + 0x1000) and the deques (srvBase + 0x100000),
    // so arming them never shifts the layout PR 9 runs depend on.
    ctrlBase = srvBase + 0xF0000;
    successesAddr = ctrlBase;
    retrySpentAddr = ctrlBase + srvBlock;

    Addr next = srvBase + 0x1000;
    for (unsigned q = 0; q < numDisp; ++q) {
        queues.push_back({next, spec_.queueCap});
        next += DispatchQueue::span(spec_.queueCap);
    }
    next = srvBase + 0x100000;
    for (unsigned c = 0; c < num_threads; ++c) {
        deques.push_back({next, spec_.dequeCap});
        next += LocalDeque::span(spec_.dequeCap);
    }

    perCore.resize(num_threads);
}

ThreadTask
ServerHarness::thread(ThreadApi t, SyncLib *lib)
{
    if (spec_.mode == ArrivalMode::Closed)
        return closedWorkerThread(t, lib);
    if (t.id() < numDisp)
        return dispatcherThread(t, lib);
    return workerThread(t, lib);
}

Tick
ServerHarness::retryDelay(std::uint64_t id, unsigned attempt) const
{
    // Capped exponential backoff with deterministic jitter: the
    // jitter stream is keyed on (seed, id, attempt) alone, so it is
    // independent of dispatcher interleaving.
    const unsigned shift = std::min(attempt, 31u);
    const Tick backoff = std::min(spec_.retryBackoffCap,
                                  spec_.retryBackoffBase << shift);
    Rng jitter(seed ^ (id * 0x9e3779b97f4a7c15ULL) ^
               ((attempt + 1) * 0xc2b2ae3d27d4eb4fULL));
    const Tick half = std::max<Tick>(1, backoff / 2);
    return half + jitter.range(half + 1);
}

/**
 * Claim one retry token. The bucket holds retryBurst tokens plus
 * retryBudgetRatio per success so far; claims are a fetchAdd on the
 * spent counter, refunded when the claim overshot the cap. Both words
 * live in simulated memory, so the budget is globally consistent
 * across dispatchers and deterministic.
 */
SubTask<bool>
ServerHarness::claimRetryToken(ThreadApi t)
{
    const std::uint64_t successes = co_await t.read(successesAddr);
    const std::uint64_t cap =
        spec_.retryBurst +
        static_cast<std::uint64_t>(
            static_cast<double>(successes) * spec_.retryBudgetRatio);
    const std::uint64_t before = co_await t.fetchAdd(retrySpentAddr, 1);
    if (before < cap)
        co_return true;
    co_await t.fetchAdd(retrySpentAddr,
                        static_cast<std::uint64_t>(-1));
    co_return false;
}

/** Serve request @p id: burn its service cost, record its latency. */
SubTask<>
ServerHarness::execRequest(ThreadApi t, std::uint64_t id,
                           StatHandle &completed)
{
    co_await t.compute(sched.service[id]);
    PerCore &pc = perCore[t.id()];
    pc.completed += 1;
    completed.inc();
    if (spec_.mode == ArrivalMode::Closed)
        co_return;
    // Latency from the *scheduled* arrival tick: queueing delay a
    // saturated server inflicts is part of the number (no
    // coordinated omission).
    const Tick latency = t.now() - sched.arrival[id];
    pc.lat.record(latency);

    const unsigned ten = tenantOf(id);
    if (spec_.tenantsEnabled()) {
        pc.tenant[ten].completed += 1;
        pc.tenant[ten].lat.record(latency);
    }
    if (spec_.sloTicks > 0) {
        if (latency <= spec_.sloTicks) {
            pc.sloMet += 1;
            if (spec_.tenantsEnabled())
                pc.tenant[ten].sloMet += 1;
        }
        // Feed the admission EWMA with this ring's observed service
        // interval (gap between consecutive completions), which
        // tracks the *effective* per-request cost including dispatch
        // and queue hand-off — a raw burn-cycles EWMA would
        // systematically undershoot the true wait. The unlocked
        // read-modify-write can lose concurrent samples; that only
        // slows convergence and stays deterministic.
        const unsigned q = ringOf(id);
        const Tick done = t.now();
        const std::uint64_t last = co_await t.read(lastDoneAddr(q));
        co_await t.write(lastDoneAddr(q), done);
        const std::int64_t sample =
            last == 0 || done <= last
                ? static_cast<std::int64_t>(sched.service[id])
                : static_cast<std::int64_t>(done - last);
        const std::int64_t old = static_cast<std::int64_t>(
            co_await t.read(ewmaAddr(q)));
        std::int64_t next =
            old == 0 ? sample : old + ((sample - old) >> ewmaShift);
        if (next < 1)
            next = 1;
        co_await t.write(ewmaAddr(q),
                         static_cast<std::uint64_t>(next));
    }
    if (spec_.retryPolicy == RetryPolicy::Budgeted)
        co_await t.fetchAdd(successesAddr, 1);
}

ThreadTask
ServerHarness::dispatcherThread(ThreadApi t, SyncLib *lib)
{
    const CoreId d = t.id();
    PerCore &pc = perCore[d];
    SrvCounters counts(t.stats(), d);
    const bool slo_on = spec_.sloTicks > 0;
    const bool tenants_on = spec_.tenantsEnabled();

    // Min-heap of this dispatcher's pending client retries, ordered
    // by due tick (ties by id). Host-side state is fine here: a retry
    // belongs to the dispatcher that generated the request, and every
    // tick in it comes from simulated time.
    std::vector<PendingRetry> retries;
    const auto later = [](const PendingRetry &a, const PendingRetry &b) {
        return a.due != b.due ? a.due > b.due : a.id > b.id;
    };

    std::uint64_t next = d; // next fresh request id for this dispatcher
    const std::uint64_t total = sched.arrival.size();

    while (next < total || !retries.empty()) {
        // Serve whichever is due first: the next fresh arrival or the
        // earliest pending retry.
        PendingRetry cur;
        const bool take_retry =
            !retries.empty() &&
            (next >= total || retries.front().due <= sched.arrival[next]);
        if (take_retry) {
            std::pop_heap(retries.begin(), retries.end(), later);
            cur = retries.back();
            retries.pop_back();
        } else {
            cur = {sched.arrival[next], next, 0};
            next += numDisp;
        }

        const Tick now = t.now();
        if (cur.due > now)
            co_await t.compute(cur.due - now);

        const std::uint64_t id = cur.id;
        const unsigned ten = tenantOf(id);
        if (cur.attempt == 0) {
            // A request is generated exactly once, at its first
            // admission attempt; retries are tracked separately.
            pc.generated += 1;
            counts.generated.inc();
            if (tenants_on)
                pc.tenant[ten].generated += 1;
        } else {
            pc.retries += 1;
            counts.retries.inc();
        }

        // Round-robin over the rings so each one sees every producer.
        const unsigned qi = ringOf(id);
        const DispatchQueue &q = queues[qi];

        ShedCause cause = ShedCause::None;
        if (slo_on) {
            // Predicted wait = ring depth x the EWMA of the ring's
            // observed service interval. Brownout: the low tenant
            // only gets brownoutRatio of the SLO headroom, so under
            // pressure it sheds first and the high tenant's p99
            // holds.
            const std::uint64_t depth = co_await q.depth(t);
            std::uint64_t ewma = co_await t.read(ewmaAddr(qi));
            if (ewma == 0)
                ewma = spec_.serviceMean;
            const double limit =
                ten == 1 && tenants_on
                    ? spec_.brownoutRatio *
                          static_cast<double>(spec_.sloTicks)
                    : static_cast<double>(spec_.sloTicks);
            if (static_cast<double>(depth * ewma) > limit)
                cause = ShedCause::Slo;
        }
        if (cause == ShedCause::None) {
            const bool ok = co_await q.tryPush(t, lib, id + 1);
            if (!ok)
                cause = ShedCause::Full;
        }
        if (cause == ShedCause::None)
            continue;

        // Shed: the client retries if the policy and budget allow,
        // otherwise this is the request's final disposition.
        bool retry = spec_.retryPolicy != RetryPolicy::None &&
                     cur.attempt < spec_.retryLimit;
        if (retry && spec_.retryPolicy == RetryPolicy::Budgeted) {
            retry = co_await claimRetryToken(t);
            if (!retry) {
                pc.retryDenied += 1;
                counts.retryDenied.inc();
            }
        }
        if (retry) {
            const Tick due = t.now() + retryDelay(id, cur.attempt);
            retries.push_back({due, id, cur.attempt + 1});
            std::push_heap(retries.begin(), retries.end(), later);
            continue;
        }
        if (cause == ShedCause::Slo) {
            pc.rejectedSlo += 1;
            counts.rejectedSlo.inc();
            if (tenants_on)
                pc.tenant[ten].rejectedSlo += 1;
        } else {
            pc.rejected += 1;
            counts.rejected.inc();
            if (tenants_on)
                pc.tenant[ten].rejected += 1;
        }
    }

    // Last producer out raises the stop flag and wakes the drainers.
    // Retry heaps are fully drained above, so no request is still in
    // flight on the client side when the flag goes up.
    const std::uint64_t before =
        co_await t.fetchAdd(producersDoneAddr, 1);
    if (before + 1 == numDisp) {
        co_await t.write(stopAddr, 1);
        for (const DispatchQueue &q : queues)
            co_await q.wakeAll(t, lib);
    }
}

ThreadTask
ServerHarness::workerThread(ThreadApi t, SyncLib *lib)
{
    const CoreId c = t.id();
    const bool drainer = c < numDisp + queues.size();
    const LocalDeque own = deques[c];
    PerCore &pc = perCore[c];
    SrvCounters counts(t.stats(), c);
    // Steal targets: only drainers ever hold queued work in open-loop
    // mode, so the sweep stays short and the drainer deques hot.
    const unsigned victims = queues.size();
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + c * 0xc2b2ae35ULL + 17);
    std::uint64_t batch[drainBatch];

    for (;;) {
        // 1. Serve everything in our own deque, oldest first.
        for (;;) {
            const std::uint64_t v = co_await own.popFront(t, lib);
            if (!v)
                break;
            co_await execRequest(t, v - 1, counts.completed);
        }

        // 2. Drainers refill from their dispatch ring (blocking while
        //    it is empty and producers are still running).
        if (drainer) {
            const unsigned n = co_await queues[c - numDisp].popBatch(
                t, lib, stopAddr, batch, drainBatch);
            if (n) {
                for (unsigned i = 0; i < n; ++i) {
                    const bool ok =
                        co_await own.pushBack(t, lib, batch[i]);
                    if (!ok)
                        co_await execRequest(t, batch[i] - 1,
                                             counts.completed);
                }
                continue;
            }
            // 0 = stop flag up and the ring fully drained.
        }

        // 3. Steal from a drainer deque, rotating the first victim.
        bool got = false;
        const unsigned start = rng.range(victims);
        for (unsigned k = 0; k < victims; ++k) {
            const CoreId victim = numDisp + (start + k) % victims;
            if (victim == c)
                continue;
            const std::uint64_t v =
                co_await deques[victim].stealBack(t, lib);
            if (v) {
                pc.steals += 1;
                counts.steals.inc();
                co_await execRequest(t, v - 1, counts.completed);
                got = true;
                break;
            }
        }
        if (got)
            continue;

        // 4. Nothing anywhere: exit once the producers are done,
        //    otherwise back off and sweep again.
        const std::uint64_t stop = co_await t.read(stopAddr);
        if (stop)
            co_return;
        co_await t.compute(idleBackoff);
    }
}

ThreadTask
ServerHarness::closedWorkerThread(ThreadApi t, SyncLib *lib)
{
    const CoreId c = t.id();
    const LocalDeque own = deques[c];
    PerCore &pc = perCore[c];
    SrvCounters counts(t.stats(), c);
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + c * 0xc2b2ae35ULL + 17);

    // Task ids this worker is responsible for seeding.
    const std::uint64_t first =
        static_cast<std::uint64_t>(c) * spec_.tasksPerWorker;
    std::uint64_t seeded = 0;

    for (;;) {
        for (;;) {
            const std::uint64_t v = co_await own.popFront(t, lib);
            if (!v)
                break;
            co_await execRequest(t, v - 1, counts.completed);
        }

        // Seed the next wave of our own tasks (bounded by the deque).
        if (seeded < spec_.tasksPerWorker) {
            while (seeded < spec_.tasksPerWorker) {
                const std::uint64_t id = first + seeded;
                const bool ok = co_await own.pushBack(t, lib, id + 1);
                if (!ok)
                    break;
                ++seeded;
                pc.generated += 1;
                counts.generated.inc();
            }
            continue;
        }

        // All our tasks seeded and our deque is dry: steal anywhere.
        bool got = false;
        const unsigned start = rng.range(numThreads);
        for (unsigned k = 0; k < numThreads; ++k) {
            const CoreId victim = (start + k) % numThreads;
            if (victim == c)
                continue;
            const std::uint64_t v =
                co_await deques[victim].stealBack(t, lib);
            if (v) {
                pc.steals += 1;
                counts.steals.inc();
                co_await execRequest(t, v - 1, counts.completed);
                got = true;
                break;
            }
        }
        if (!got)
            co_return;
    }
}

ServerStats
ServerHarness::finalize(Tick makespan) const
{
    ServerStats s;
    const bool open = spec_.mode != ArrivalMode::Closed;
    s.offeredRate = open ? spec_.arrivalRate : 0.0;
    s.sloTicks = spec_.sloTicks;
    s.retryPolicy = spec_.retryPolicy;
    for (const PerCore &pc : perCore) {
        s.generated += pc.generated;
        s.completed += pc.completed;
        s.rejected += pc.rejected;
        s.steals += pc.steals;
        s.rejectedSlo += pc.rejectedSlo;
        s.retries += pc.retries;
        s.retryBudgetDenied += pc.retryDenied;
        s.sloMet += pc.sloMet;
        s.latency.merge(pc.lat);
    }
    // Final-disposition accounting: every generated request is
    // completed, finally rejected (full ring or SLO), or stranded by
    // a fault — retried attempts never add a second disposition.
    const std::uint64_t done =
        s.completed + s.rejected + s.rejectedSlo;
    s.stranded = s.generated > done ? s.generated - done : 0;
    if (spec_.sloTicks == 0)
        s.sloMet = s.completed;
    if (makespan > 0) {
        s.throughput =
            static_cast<double>(s.completed) * 1000.0 / makespan;
        s.goodput =
            static_cast<double>(s.sloMet) * 1000.0 / makespan;
    }
    // Saturation knee: with bounded queues, sustained overload always
    // surfaces as shed (or fault-stranded) requests. Throughput-vs-
    // offered comparisons are noisy at small request counts (the
    // post-arrival drain tail dilutes the rate), so shed fraction >1%
    // is the criterion — counting each request's *final* disposition
    // once, so retries cannot push a run over the knee by themselves.
    if (open && s.generated > 0)
        s.knee =
            (s.rejected + s.rejectedSlo + s.stranded) * 100 >
            s.generated;

    if (spec_.tenantsEnabled()) {
        const double rates[2] = {spec_.tenantHiRate,
                                 spec_.tenantLoRate};
        const char *names[2] = {"hi", "lo"};
        for (unsigned i = 0; i < 2; ++i) {
            TenantStats ts;
            ts.name = names[i];
            ts.offeredRate = rates[i];
            for (const PerCore &pc : perCore) {
                const TenantSlot &slot = pc.tenant[i];
                ts.generated += slot.generated;
                ts.completed += slot.completed;
                ts.rejected += slot.rejected;
                ts.rejectedSlo += slot.rejectedSlo;
                ts.sloMet += slot.sloMet;
                ts.latency.merge(slot.lat);
            }
            const std::uint64_t tdone =
                ts.completed + ts.rejected + ts.rejectedSlo;
            ts.stranded =
                ts.generated > tdone ? ts.generated - tdone : 0;
            if (spec_.sloTicks == 0)
                ts.sloMet = ts.completed;
            if (makespan > 0) {
                ts.throughput = static_cast<double>(ts.completed) *
                                1000.0 / makespan;
                ts.goodput = static_cast<double>(ts.sloMet) * 1000.0 /
                             makespan;
            }
            s.tenants.push_back(std::move(ts));
        }
    }
    return s;
}

} // namespace srv
} // namespace misar
