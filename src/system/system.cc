#include "system/system.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "sim/logging.hh"

namespace misar {
namespace sys {

System::System(const SystemConfig &cfg_in) : cfg(cfg_in)
{
    cfg.validate();
    if (cfg.resil.nocFaultsEnabled() && !cfg.noc.reliable) {
        // Without end-to-end retransmission a lost coherence or
        // memory message wedges the chip; faults imply reliability.
        warn("NoC faults configured without noc.reliable; "
             "enabling reliable delivery");
        cfg.noc.reliable = true;
    }

    // --- event lanes ------------------------------------------------
    // Each tile's router, NI, core and slice run on the tile's lane
    // (every mode but Ideal); the (tick, lane) execution order is
    // part of every recorded trajectory.
    eq.setNumLanes(cfg.laneCount());

    ms = std::make_unique<mem::MemSystem>(eq, cfg, _stats);
    for (CoreId t = 0; t < cfg.numCores; ++t) {
        ms->mesh().router(t).setLane(cfg.laneOf(t));
        ms->mesh().ni(t).setLane(cfg.laneOf(t));
    }

    const bool has_msa = cfg.msa.mode == AccelMode::MsaOmu ||
                         cfg.msa.mode == AccelMode::MsaInfinite;

    if (has_msa) {
        auto hub_owner =
            std::make_unique<msa::MsaClientHub>(eq, cfg, *ms, _stats);
        hub = hub_owner.get();
        syncUnit = std::move(hub_owner);

        auto send_fn = [this](std::shared_ptr<msa::MsaMsg> m) {
            ms->send(std::move(m));
        };
        for (CoreId t = 0; t < cfg.numCores; ++t) {
            slices.push_back(std::make_unique<msa::MsaSlice>(
                eq, cfg, t, ms->home(t), send_fn, _stats));
            slices.back()->setLane(cfg.laneOf(t));
            // Push/revoke traffic must follow an address's *home*
            // directory, not the slice's own tile: after a slice
            // failover the buddy serves variables whose cached copies
            // are still tracked by the original (alive) home tile.
            slices.back()->setHomeLookup(
                [this](Addr block) -> mem::HomeSlice & {
                    return ms->homeOf(block);
                });
        }
        ms->setOtherSink([this](CoreId tile,
                                std::shared_ptr<noc::Packet> pkt) {
            auto mm = std::dynamic_pointer_cast<msa::MsaMsg>(pkt);
            if (!mm)
                panic("tile %u: unknown packet class", tile);
            if (msa::isClientBound(mm->op)) {
                // Client-bound responses name the hardware thread.
                CoreId thread = mm->requester;
                if (thread == invalidCore)
                    thread = tile; // defensive: 1-thread-per-core
                hub->handleMessage(thread, mm);
            } else {
                slices[tile]->handleMessage(std::move(mm));
            }
        });
    } else if (cfg.msa.mode == AccelMode::Ideal) {
        syncUnit = std::make_unique<msa::IdealSyncUnit>(_stats);
    } else {
        syncUnit = std::make_unique<msa::NullSyncUnit>(_stats);
    }

    for (CoreId t = 0; t < cfg.numThreads(); ++t) {
        const CoreId tile = cfg.tileOf(t);
        cores.push_back(std::make_unique<cpu::Core>(
            eq, cfg.core, t, ms->l1(tile), _stats));
        cores.back()->setLane(cfg.laneOf(tile));
        cores.back()->setSyncUnit(syncUnit.get());
    }

    // --- resilience wiring (all no-ops under the default config) ---

    if (cfg.resil.messageFaultsEnabled() && has_msa) {
        injector = std::make_unique<resil::FaultInjector>(
            eq, cfg.resil, cfg.numCores, _stats,
            [this](std::shared_ptr<noc::Packet> p) {
                ms->sendDirect(std::move(p));
            });
        ms->setSendInterceptor([this](
                const std::shared_ptr<noc::Packet> &p) {
            return injector->intercept(p);
        });
    }

    if (cfg.resil.offlineTile >= 0 && has_msa) {
        CoreId t = static_cast<CoreId>(cfg.resil.offlineTile);
        if (cfg.resil.failoverBuddy >= 0) {
            // Slice failover: instead of shedding its live variables
            // to software, the dying slice serializes them into a
            // state-handoff message for the buddy, then forwards all
            // later traffic there. The buddy queues anything that
            // overtakes the handoff (vnet reordering) until the state
            // arrives.
            CoreId b = static_cast<CoreId>(cfg.resil.failoverBuddy);
            eq.scheduleAt(cfg.resil.offlineAtTick, [this, t, b] {
                slices[b]->expectHandoff(t);
                slices[t]->failoverTo(b);
            });
        } else {
            eq.scheduleAt(cfg.resil.offlineAtTick,
                          [this, t] { slices[t]->goOffline(); });
        }
    }

    if (cfg.resil.coreFaultsEnabled()) {
        declaredDead.assign(cfg.numThreads(), false);
        coreInjector = std::make_unique<resil::CoreFaultInjector>(
            eq, cfg.resil, _stats);
        coreInjector->setKillFn([this](unsigned c) {
            if (c < cores.size())
                cores[c]->kill();
            if (hub)
                hub->killCore(c);
        });
        coreInjector->setDeclareFn([this](unsigned c) {
            if (c < declaredDead.size())
                declaredDead[c] = true;
            // Every slice learns of the death: barrier membership
            // drops the corpse, its held locks are revoked under
            // epoch fencing, queued waits are discarded.
            for (auto &s : slices)
                s->coreDeclaredDead(c);
        });
        coreInjector->start();
    }

    if (cfg.resil.watchdogInterval > 0) {
        wdog = std::make_unique<resil::Watchdog>(
            eq, cfg.resil.watchdogInterval, _stats);
        for (auto &c : cores)
            c->setProgressCell(wdog->progressCell());
        wdog->setReportFn([this] { return buildStallReport(); });
        wdog->setDoneFn([this] { return allFinished(); });
        wdog->start();
    }

    if (cfg.resil.nocFaultsEnabled()) {
        nocInjector = std::make_unique<resil::NocFaultInjector>(
            eq, cfg.resil, ms->mesh(), _stats);
        nocInjector->setPartitionFn([this, has_msa](unsigned tile) {
            _stats.counter("resil.partitionSheds").inc();
            if (has_msa && tile < slices.size() &&
                !slices[tile]->isOffline()) {
                // Reuse the offline-shed path: entries migrate to
                // software and new requests are refused. Messages
                // the shed sends towards the lost partition are
                // dropped at the dead hardware; their recipients
                // are unreachable anyway.
                slices[tile]->goOffline();
            }
            if (hub)
                hub->markHomeUnreachable(tile);
        });
        nocInjector->start();

        if (wdog) {
            // A partitioned mesh stalls threads without being a
            // protocol deadlock: report, attribute, and keep going
            // so in-process campaigns and benches can classify the
            // outcome instead of dying on fatal().
            wdog->setStallHandler([this](const std::string &rep) {
                warn("%s", rep.c_str());
                warn("liveness watchdog: stall under NoC faults "
                     "(%llu stranded tiles); continuing to drain",
                     static_cast<unsigned long long>(
                         _stats.counterValue("resil.strandedTiles")));
                _stats.counter("resil.watchdogNocStalls").inc();
            });
            // Packets delivered, dropped, or retransmitted through a
            // degraded mesh are progress: merely-detoured traffic
            // must not be classified as deadlock.
            wdog->setAuxProgressFn([this] {
                return _stats.counterValue("noc.packetsRecv") +
                       _stats.counterValue("noc.flitsDropped") +
                       _stats.counterValue("noc.rel.retransmits");
            });
        }
    }

    if (wdog && cfg.resil.coreFaultsEnabled() &&
        !cfg.resil.nocFaultsEnabled()) {
        // Peers of a corpse stall until the lease machinery and the
        // dead declaration reconfigure around it — and a victim that
        // died holding a *software* lock wedges its waiters forever.
        // Either way the run should be classified (finished /
        // deadlock / limit), not aborted by fatal(): report,
        // attribute, keep draining.
        wdog->setStallHandler([this](const std::string &rep) {
            warn("%s", rep.c_str());
            warn("liveness watchdog: stall under core faults "
                 "(%llu kill(s)); continuing to drain",
                 static_cast<unsigned long long>(
                     _stats.counterValue("resil.coreKills")));
            _stats.counter("resil.watchdogCoreStalls").inc();
        });
    }

    if (cfg.resil.invariantChecks && has_msa) {
        checker = std::make_unique<resil::InvariantChecker>(
            *this, cfg.resil.invariantInterval, _stats);
        checker->start();
    }

    applyObservability();
}

void
System::applyObservability()
{
    const ObsConfig &o = cfg.obs;
    if (!o.anyEnabled())
        return;

    if (o.traceEnabled) {
        _tracer = std::make_unique<obs::Tracer>(_stats, o.traceMaxEvents);
        // One op row per hardware thread, registered first: these
        // tracks name the core rows and lead the trace.
        for (CoreId c = 0; c < cores.size(); ++c)
            cores[c]->attachTracer(
                _tracer.get(),
                _tracer->addTrack(obs::pidCores, c,
                                  "core " + std::to_string(c)));
        for (CoreId t = 0; t < cfg.numCores; ++t) {
            obs::TrackId tk = _tracer->addTrack(obs::pidNoc, t,
                                                "ni " + std::to_string(t));
            ms->mesh().ni(t).attachTracer(_tracer.get(), tk);
        }
        // L1 snoop anomalies land on the row of the tile's first
        // hardware thread (the L1 is shared by its SMT siblings).
        for (CoreId t = 0; t < cfg.numCores; ++t) {
            const unsigned tid = t * cfg.smtWays;
            obs::TrackId tk = _tracer->addTrack(
                obs::pidCores, tid, "core " + std::to_string(tid));
            ms->l1(t).attachTracer(_tracer.get(), tk);
        }
    }
    if (o.profileSync)
        profiler = std::make_unique<obs::SyncProfiler>();

    if (_tracer || profiler) {
        if (hub)
            hub->attachObservers(_tracer.get(), profiler.get());
        for (auto &s : slices)
            s->attachObservers(_tracer.get(), profiler.get());
    }

    if (o.heatmapEnabled) {
        _monitor = std::make_unique<obs::ResourceMonitor>(o.sampleInterval);
        _monitor->attachTracer(_tracer.get()); // null when tracing is off
        for (std::size_t t = 0; t < slices.size(); ++t) {
            msa::MsaSlice *s = slices[t].get();
            s->attachMonitor(_monitor.get());
            const std::string n = "slice" + std::to_string(t);
            const unsigned tid = static_cast<unsigned>(t);
            _monitor->addGauge(n + ".occupancy", "msaOccupancy",
                               obs::pidMsa, tid, [s] {
                                   return double(s->validEntries());
                               });
            _monitor->addGauge(n + ".free", "msaFree", obs::pidMsa, tid,
                               [s] { return double(s->freeEntries()); });
            for (unsigned i = 0; i < s->omu().numCounters(); ++i)
                _monitor->addGauge(n + ".omu" + std::to_string(i), "omu",
                                   obs::pidMsa, tid, [s, i] {
                                       return double(s->omu().countAt(i));
                                   });
        }
        static const struct
        {
            noc::Port port;
            const char *name;
        } outs[] = {
            {noc::portNorth, "north"},
            {noc::portEast, "east"},
            {noc::portSouth, "south"},
            {noc::portWest, "west"},
        };
        for (CoreId t = 0; t < cfg.numCores; ++t) {
            noc::NetworkInterface &ni = ms->mesh().ni(t);
            _monitor->addGauge("ni" + std::to_string(t) + ".queue",
                               "niQueue", obs::pidNoc, t, [&ni] {
                                   return double(ni.injectQueueDepth());
                               });
            noc::Router &r = ms->mesh().router(t);
            for (const auto &o2 : outs) {
                const noc::Port p = o2.port;
                _monitor->addGauge("router" + std::to_string(t) + "." +
                                       o2.name,
                                   "nocLink", obs::pidNoc, t, [&r, p] {
                                       return double(r.forwardedFlits(p));
                                   });
            }
        }
    }

    if (o.sampleInterval > 0) {
        _sampler = std::make_unique<obs::StatSampler>(eq, o.sampleInterval);
        auto cnt = [this](const char *name) {
            return [this, name] {
                return static_cast<double>(_stats.counterValue(name));
            };
        };
        auto pooled = [this](const char *suffix) {
            return [this, suffix] {
                return static_cast<double>(_stats.sumCountersSuffix(suffix));
            };
        };
        _sampler->addProbe("syncHwOps", cnt("sync.hwOps"));
        _sampler->addProbe("syncSwOps", cnt("sync.swOps"));
        _sampler->addProbe("silentLocks", cnt("sync.silentLocks"));
        _sampler->addProbe("abortedOps", cnt("sync.abortedOps"));
        _sampler->addProbe("nocPacketsSent", cnt("noc.packetsSent"));
        _sampler->addProbe("msaAllocations", pooled(".msa.allocations"));
        _sampler->addProbe("msaEvictions", pooled(".msa.evictions"));
        _sampler->addProbe("crossedSnoops", pooled(".l1.crossedSnoops"));
        _sampler->addProbe("resilTimeouts", cnt("resil.timeouts"));
        _sampler->addProbe("resilRetries", cnt("resil.retries"));
        _sampler->setDoneFn([this] { return allFinished(); });
        if (_monitor)
            _sampler->addObserver(
                [m = _monitor.get()](Tick now) { m->sample(now); });
        _sampler->start();
    }
}

bool
System::allFinished() const
{
    for (auto &c : cores)
        if (!c->finished())
            return false;
    return true;
}

RunOutcome
System::runDetailed(Tick limit)
{
    // Run in slices so we can stop as soon as all threads are done
    // (background NoC/coherence events may still be queued).
    const Tick chunk = 10000;
    const Tick start = eq.now();
    const Tick deadline = (limit == maxTick) ? maxTick : start + limit;
    for (;;) {
        Tick until = (deadline - eq.now() < chunk) ? deadline
                                                   : eq.now() + chunk;
        eq.runUntil(until);
        if (allFinished()) {
            if (checker) {
                // Settle in-flight background traffic so the strict
                // end-state checks see a quiesced system. Safe: the
                // interrupt driver, watchdog, and checker all stop
                // once every thread has finished.
                eq.run();
                checker->atQuiesce();
            }
            return RunOutcome::Finished;
        }
        // Maintenance self-rescheduling events (watchdog/checker/
        // sampler) must not mask a dead system.
        std::size_t maint =
            (wdog ? wdog->pendingMaintenance() : 0u) +
            (checker ? checker->pendingMaintenance() : 0u) +
            (_sampler ? _sampler->pendingMaintenance() : 0u);
        if (eq.pending() <= maint) {
            warn("event queue drained with threads still blocked "
                 "(deadlock) at tick %llu",
                 static_cast<unsigned long long>(eq.now()));
            warn("%s", buildStallReport().c_str());
            return RunOutcome::Deadlock;
        }
        if (eq.now() >= deadline)
            return RunOutcome::LimitReached;
    }
}

Tick
System::makespan() const
{
    Tick m = 0;
    for (auto &c : cores)
        m = std::max(m, c->finishTick());
    return m;
}

void
System::writeTrace(std::ostream &os) const
{
    if (_tracer)
        _tracer->write(os);
}

std::string
System::buildStallReport() const
{
    std::ostringstream os;
    os << "=== stall report @ tick " << eq.now()
       << " (pending events: " << eq.pending() << ") ===\n";

    // Per-thread outstanding operations.
    struct Blocked { CoreId core; Addr addr; };
    std::vector<Blocked> blocked;
    for (CoreId c = 0; c < cfg.numThreads(); ++c) {
        if (cores[c]->finished())
            continue;
        os << "  thread " << static_cast<unsigned>(c) << ": running";
        if (hub) {
            auto s = hub->snapshot(c);
            if (s.active) {
                os << ", blocked in " << cpu::syncInstrName(s.instr)
                   << " @ 0x" << std::hex << s.addr << std::dec
                   << " since tick " << s.issuedAt
                   << " (waited " << (eq.now() - s.issuedAt)
                   << ", retries " << s.retries
                   << (s.interrupted ? ", interrupted" : "") << ")";
                if (s.instr == cpu::SyncInstr::Lock ||
                    s.instr == cpu::SyncInstr::TryLock ||
                    s.instr == cpu::SyncInstr::RdLock ||
                    s.instr == cpu::SyncInstr::WrLock)
                    blocked.push_back({c, s.addr});
            }
        }
        os << "\n";
    }

    // Per-slice entry state.
    static const char *type_names[] = {"Lock", "Barrier", "Cond",
                                       "RwLock"};
    for (CoreId t = 0; t < cfg.numCores && t < slices.size(); ++t) {
        slices[t]->forEachEntry([&](const msa::MsaEntry &e) {
            os << "  slice " << static_cast<unsigned>(t) << ": "
               << type_names[static_cast<unsigned>(e.type)]
               << " @ 0x" << std::hex << e.addr << std::dec
               << " owner=";
            if (e.owner == invalidCore)
                os << "-";
            else
                os << static_cast<unsigned>(e.owner);
            os << " waiters=" << e.hwQueue.count();
            if (e.busy)
                os << " busy";
            if (e.pinCount)
                os << " pins=" << e.pinCount;
            if (slices[t]->isOffline())
                os << " (offline)";
            os << "\n";
        });
    }

    // Waits-for edges: blocked acquirer -> recorded lock owner.
    // A cycle among them is a hard deadlock.
    std::vector<std::pair<CoreId, CoreId>> edges;
    for (const auto &b : blocked) {
        CoreId home = mem::homeTile(blockAlign(b.addr), cfg.numCores);
        if (home >= slices.size())
            continue;
        const msa::MsaEntry *e = slices[home]->findEntry(b.addr);
        if (e && e->owner != invalidCore && e->owner != b.core) {
            edges.emplace_back(b.core, e->owner);
            os << "  waits-for: thread "
               << static_cast<unsigned>(b.core) << " -> thread "
               << static_cast<unsigned>(e->owner) << " (lock 0x"
               << std::hex << b.addr << std::dec << ")\n";
        }
    }
    // Simple cycle walk over the (at most one outgoing edge per
    // thread) waits-for graph.
    for (const auto &[from, to] : edges) {
        CoreId cur = to;
        std::set<CoreId> seen{from};
        while (true) {
            if (seen.count(cur)) {
                if (cur == from)
                    os << "  CYCLE: waits-for cycle through thread "
                       << static_cast<unsigned>(from) << "\n";
                break;
            }
            seen.insert(cur);
            auto it = std::find_if(edges.begin(), edges.end(),
                                   [cur](const auto &e) {
                                       return e.first == cur;
                                   });
            if (it == edges.end())
                break;
            cur = it->second;
        }
    }

    // Core-fault attribution: stalls caused by a dead participant
    // are transient (until leases and the declaration reconfigure
    // around the corpse) or — for a corpse that died holding a
    // *software* lock — unrecoverable; either way the report should
    // say "fault consequence", not "protocol deadlock".
    if (cfg.resil.coreFaultsEnabled()) {
        os << "  dead:";
        bool any_dead = false;
        for (CoreId c = 0; c < cfg.numThreads(); ++c) {
            if (c < cores.size() && cores[c]->killed()) {
                os << " thread " << static_cast<unsigned>(c)
                   << (isDeclaredDead(c) ? " (declared)"
                                         : " (undetected)");
                any_dead = true;
            }
        }
        os << (any_dead ? "\n" : " none\n");
        for (const auto &b : blocked) {
            CoreId home = mem::homeTile(blockAlign(b.addr),
                                        cfg.numCores);
            if (home >= slices.size())
                continue;
            const msa::MsaEntry *e = slices[home]->findEntry(b.addr);
            if (e && e->owner != invalidCore &&
                e->owner < cores.size() && cores[e->owner]->killed())
                os << "  DEAD_HOLDER: thread "
                   << static_cast<unsigned>(b.core)
                   << " waits on lock 0x" << std::hex << b.addr
                   << std::dec << " held by dead thread "
                   << static_cast<unsigned>(e->owner) << "\n";
        }
        for (CoreId t = 0; t < slices.size(); ++t) {
            slices[t]->forEachEntry([&](const msa::MsaEntry &e) {
                if (e.type != msa::SyncType::Barrier ||
                    !e.hwQueue.any())
                    return;
                unsigned dead_missing = 0;
                for (CoreId c = 0; c < cfg.numThreads(); ++c)
                    if (!e.hwQueue.test(c) && c < cores.size() &&
                        cores[c]->killed())
                        ++dead_missing;
                if (dead_missing &&
                    e.hwQueue.count() + dead_missing >= e.goal)
                    os << "  DEAD_PARTICIPANT: barrier 0x" << std::hex
                       << e.addr << std::dec << " on slice "
                       << static_cast<unsigned>(t) << " short only of "
                       << dead_missing << " dead arrival(s)\n";
            });
        }
    }

    // NoC in-flight census + partition attribution: a wedged mesh is
    // debuggable (what is stuck where), and stalls on tiles cut off
    // by dead links/routers are labelled as partition, not deadlock.
    if (cfg.resil.nocFaultsEnabled()) {
        ms->mesh().buildReport(os);
        const noc::Topology topo = ms->mesh().liveTopology();
        const std::vector<int> comp = noc::components(topo);
        bool split = false;
        for (unsigned t = 1; t < comp.size() && !split; ++t)
            split = comp[t] != comp[0];
        if (split) {
            os << "  PARTITION: mesh is split; stalls on tiles";
            for (unsigned t = 0; t < comp.size(); ++t)
                if (comp[t] != comp[0])
                    os << " " << t;
            os << " are attributed to unreachability, not deadlock\n";
        }
    }
    return os.str();
}

double
System::hwCoverage() const
{
    double hw = static_cast<double>(_stats.counterValue("sync.hwOps"));
    double sw = static_cast<double>(_stats.counterValue("sync.swOps"));
    return (hw + sw) > 0 ? hw / (hw + sw) : 0.0;
}

} // namespace sys
} // namespace misar
