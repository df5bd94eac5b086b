#include "obs/run_report.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "obs/heatmap.hh"
#include "obs/sampler.hh"
#include "obs/sync_profiler.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "system/system.hh"
#include "util/json.hh"

namespace misar {
namespace obs {

namespace {

/**
 * One key of the "resilience" block and the stats it sums, in report
 * order. A name starting with '.' is a per-tile suffix summed over
 * every tile; any other name is one global counter.
 */
struct ResilienceKey
{
    const char *key;
    const char *stats[4];
};

const ResilienceKey resilienceKeys[] = {
    {"timeouts", {"resil.timeouts"}},
    {"retries", {"resil.retries"}},
    {"abandonedOps", {"resil.abandonedOps"}},
    {"staleResponses", {"resil.staleResponses"}},
    {"watchdogStalls", {"resil.watchdogStalls"}},
    {"invariantViolations", {"resil.invariantViolations"}},
    {"injectedDrops", {"resil.injectedDrops"}},
    {"injectedDups", {"resil.injectedDups"}},
    {"injectedDelays", {"resil.injectedDelays"}},
    {"abortedOps", {"sync.abortedOps"}},
    {"offlineEvents", {".msa.offlineEvents"}},
    {"offlineSheds",
     {".msa.offlineLockAborts", ".msa.offlineRwAborts",
      ".msa.offlineBarrierAborts", ".msa.offlineCondAborts"}},
    {"offlineDenied", {".msa.offlineDenied"}},
    {"crossedSnoops", {".l1.crossedSnoops"}},
    {"nocRetransmits", {"noc.rel.retransmits"}},
    {"nocDedups", {"noc.rel.dedups"}},
    {"nocAbandoned", {"noc.rel.abandoned"}},
    {"flitsCorrupted", {"noc.pktsCorrupted"}},
    {"detourHops", {"noc.detourHops"}},
    {"deadLinks", {"noc.deadLinks"}},
    {"deadRouters", {"noc.deadRouters"}},
    {"partitionSheds", {"resil.partitionSheds"}},
    {"coreKills", {"resil.coreKills"}},
    {"deadDeclarations", {"resil.deadDeclarations"}},
    {"lockRevocations", {".msa.lockRevocations"}},
    {"barrierReconfigs", {".msa.barrierReconfigs"}},
    {"fencedReleases", {".msa.fencedReleases"}},
    {"leaseProbes", {".msa.leaseProbes"}},
    {"leaseRenewals", {".msa.leaseRenewals"}},
    {"deadWaiterDrops", {".msa.deadWaiterDrops"}},
    {"failovers", {".msa.failovers"}},
    {"rehomedVars", {".msa.rehomedVars"}},
};

} // namespace

std::uint64_t
ResilienceSummary::operator[](const std::string &key) const
{
    for (const auto &[k, v] : values)
        if (key == k)
            return v;
    return 0;
}

ResilienceSummary
resilienceSummary(const StatRegistry &stats)
{
    ResilienceSummary r;
    for (const ResilienceKey &k : resilienceKeys) {
        std::uint64_t v = 0;
        for (const char *name : k.stats)
            if (name)
                v += name[0] == '.' ? stats.sumCountersSuffix(name)
                                    : stats.counterValue(name);
        r.values.emplace_back(k.key, v);
    }
    return r;
}

ResilienceSummary
parseResilience(const util::Json &block)
{
    ResilienceSummary r;
    for (const ResilienceKey &k : resilienceKeys)
        r.values.emplace_back(k.key, block.at(k.key).uintOr(0));
    return r;
}

void
writeRunReport(std::ostream &os, const RunMeta &meta,
               const StatRegistry &stats, const SyncProfiler *prof,
               std::size_t top_n, const StatSampler *sampler,
               const EventQueue *eq, const ResourceMonitor *monitor,
               const srv::ServerStats *server)
{
    util::JsonWriter w(os);
    w.beginObject();
    w.kv("schemaVersion", runReportSchemaVersion);

    // -- metadata ----------------------------------------------------
    w.key("meta").beginObject();
    w.kv("app", meta.app);
    w.kv("preset", meta.preset);
    w.kv("accel", meta.accel);
    w.kv("flavor", meta.flavor);
    w.kv("cores", meta.cores);
    w.kv("smtWays", meta.smtWays);
    w.kv("msaEntries", meta.msaEntries);
    w.kv("omuCounters", meta.omuCounters);
    w.kv("omuEnabled", meta.omuEnabled);
    w.kv("hwSyncBitOpt", meta.hwSyncBitOpt);
    w.kv("seed", meta.seed);
    w.kv("outcome", meta.outcome);
    w.kv("makespan", meta.makespan);
    w.kv("hwCoverage", meta.hwCoverage, 6);
    w.endObject();

    // -- resilience summary ------------------------------------------
    w.key("resilience").beginObject();
    for (const auto &[key, v] : resilienceSummary(stats).values)
        w.kv(key, v);
    w.endObject();

    // -- full statistics registry ------------------------------------
    w.key("stats").beginObject();
    w.key("counters").beginObject();
    stats.forEachCounter([&](const std::string &name, const StatCounter &c) {
        w.kv(name, c.value());
    });
    w.endObject();
    w.key("averages").beginObject();
    stats.forEachAverage([&](const std::string &name, const StatAverage &a) {
        w.key(name).beginObject();
        w.kv("count", a.count());
        w.kv("mean", a.mean(), 3);
        w.kv("min", a.count() ? a.min() : 0.0, 3);
        w.kv("max", a.max(), 3);
        w.kv("sum", a.sum(), 3);
        w.endObject();
    });
    w.endObject();
    // Schema v1-v4 carry a "histograms" member; the registry has none.
    w.key("histograms").beginObject().endObject();
    w.endObject();

    // -- sync-variable contention profile ----------------------------
    if (prof) {
        std::ostringstream vars;
        prof->writeJson(vars, top_n);
        w.key("syncVars").rawValue(vars.str());

        // Run-level wait distribution: merged across reps by campaign
        // aggregation, so it lives outside the top-N-truncated array.
        w.key("latency").beginObject();
        w.key("syncWait");
        prof->overallWait().writeJson(w);
        w.endObject();
    }

    // -- event-kernel host-side counters ------------------------------
    if (eq) {
        const EventQueue::PoolStats &ps = eq->poolStats();
        w.key("eventQueue").beginObject();
        w.kv("executedEvents", ps.executed);
        w.kv("scheduledEvents", ps.scheduled);
        w.kv("recordCapacity", ps.recordCapacity);
        w.kv("chunkAllocs", ps.chunkAllocs);
        w.kv("heapCallbacks", ps.heapCallbacks);
        w.kv("maxPending", ps.maxPending);
        w.endObject();
    }

    // -- time-series sampler summary ---------------------------------
    if (sampler) {
        w.key("samples").beginObject();
        w.kv("interval", sampler->interval());
        w.kv("rows", std::uint64_t(sampler->rows().size()));
        w.kv("droppedRows", sampler->droppedRows());
        w.key("columns").beginArray();
        for (const std::string &label : sampler->labels())
            w.value(label);
        w.endArray();
        w.endObject();
    }

    // -- resource-pressure summary -----------------------------------
    if (monitor) {
        w.key("heatmap");
        monitor->writeSummaryJson(w);
    }

    // -- server-run accounting (schema v3, extended in v4) -------------
    if (server) {
        w.key("server").beginObject();
        w.kv("offeredRate", server->offeredRate, 4);
        w.kv("generated", server->generated);
        w.kv("completed", server->completed);
        w.kv("rejected", server->rejected);
        w.kv("stranded", server->stranded);
        w.kv("steals", server->steals);
        w.kv("throughput", server->throughput, 6);
        w.kv("p50", server->latency.p50());
        w.kv("p99", server->latency.p99());
        w.kv("p999", server->latency.p999());
        w.kv("knee", server->knee);
        // v4 additions keep the v3 keys above byte-identical: new
        // scalars are appended, and the slo/retries/tenants blocks
        // appear only when the corresponding feature was armed.
        w.kv("rejectedSlo", server->rejectedSlo);
        w.kv("goodput", server->goodput, 6);
        if (server->sloTicks > 0) {
            w.key("slo").beginObject();
            w.kv("ticks", server->sloTicks);
            w.kv("met", server->sloMet);
            w.endObject();
        }
        if (server->retryPolicy != srv::RetryPolicy::None) {
            w.key("retries").beginObject();
            w.kv("policy", srv::retryPolicyName(server->retryPolicy));
            w.kv("attempts", server->retries);
            w.kv("budgetDenied", server->retryBudgetDenied);
            w.endObject();
        }
        if (!server->tenants.empty()) {
            w.key("tenants").beginArray();
            for (const srv::TenantStats &ts : server->tenants) {
                w.beginObject();
                w.kv("name", ts.name);
                w.kv("offeredRate", ts.offeredRate, 4);
                w.kv("generated", ts.generated);
                w.kv("completed", ts.completed);
                w.kv("rejected", ts.rejected);
                w.kv("rejectedSlo", ts.rejectedSlo);
                w.kv("stranded", ts.stranded);
                w.kv("sloMet", ts.sloMet);
                w.kv("throughput", ts.throughput, 6);
                w.kv("goodput", ts.goodput, 6);
                w.kv("p50", ts.latency.p50());
                w.kv("p99", ts.latency.p99());
                w.kv("p999", ts.latency.p999());
                w.key("latency");
                ts.latency.writeJson(w);
                w.endObject();
            }
            w.endArray();
        }
        w.key("latency");
        server->latency.writeJson(w);
        w.endObject();
    }

    w.endObject();
    os << "\n";
}

bool
writeFileDurable(const std::string &path, const std::string &body)
{
    int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) {
        warn("cannot open stats file %s: %s", path.c_str(),
             std::strerror(errno));
        return false;
    }
    std::size_t off = 0;
    while (off < body.size()) {
        ssize_t n = ::write(fd, body.data() + off, body.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            warn("write to %s failed: %s", path.c_str(),
                 std::strerror(errno));
            ::close(fd);
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    bool synced = ::fsync(fd) == 0;
    ::close(fd);
    if (!synced)
        warn("fsync of %s failed", path.c_str());
    return synced;
}

CrashReportGuard::CrashReportGuard(std::string path, sys::System &system,
                                   RunMeta meta, std::size_t top_n)
{
    setTerminationHook([path = std::move(path), &system,
                        meta = std::move(meta),
                        top_n](const char *kind) mutable {
        meta.outcome = kind;
        meta.makespan = system.makespan();
        meta.hwCoverage = system.hwCoverage();
        if (system.monitor())
            system.monitor()->finalize(system.eventQueue().now());
        std::ostringstream os;
        writeRunReport(os, meta, system.stats(), system.syncProfiler(),
                       top_n, system.sampler(), &system.eventQueue(),
                       system.monitor());
        writeFileDurable(path, os.str());
    });
    armed = true;
}

void
CrashReportGuard::disarm()
{
    if (armed) {
        clearTerminationHook();
        armed = false;
    }
}

} // namespace obs
} // namespace misar
