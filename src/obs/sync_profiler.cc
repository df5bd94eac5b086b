#include "obs/sync_profiler.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "util/json.hh"

namespace misar {
namespace obs {

namespace {

bool
isAcquire(cpu::SyncInstr k)
{
    switch (k) {
      case cpu::SyncInstr::Lock:
      case cpu::SyncInstr::TryLock:
      case cpu::SyncInstr::RdLock:
      case cpu::SyncInstr::WrLock:
        return true;
      default:
        return false;
    }
}

bool
isRelease(cpu::SyncInstr k)
{
    return k == cpu::SyncInstr::Unlock || k == cpu::SyncInstr::RwUnlock;
}

} // namespace

SyncVarStats &
SyncProfiler::at(Addr a, cpu::SyncInstr kind)
{
    SyncVarStats &v = vars[a];
    if (v.addr == invalidAddr)
        v.addr = a;
    v.kind = kind;
    return v;
}

void
SyncProfiler::onComplete(CoreId core, const cpu::Op &op, cpu::SyncResult r,
                         Tick issued_at, Tick now)
{
    if (op.instr == cpu::SyncInstr::Finish)
        return; // bookkeeping, not synchronization
    SyncVarStats &v = at(op.addr, op.instr);
    ++v.ops;
    if (r == cpu::SyncResult::Abort)
        ++v.aborts;

    const bool waited = isAcquire(op.instr) ||
                        op.instr == cpu::SyncInstr::Barrier ||
                        op.instr == cpu::SyncInstr::CondWait;
    if (waited) {
        const Tick w = now - issued_at;
        v.wait.sample(static_cast<double>(w));
        v.waitHist.record(w);
        allWait.record(w);
    }
    if (isAcquire(op.instr)) {
        // Success/Busy were performed by hardware; Fail routes the op
        // to the software fallback; Abort kicked it there mid-flight.
        if (r == cpu::SyncResult::Success) {
            ++v.hwAcquires;
            holdStart[{core, op.addr}] = now;
        } else if (r == cpu::SyncResult::Busy) {
            ++v.hwAcquires;
        } else {
            ++v.swAcquires;
        }
    }
    if (isRelease(op.instr) && r == cpu::SyncResult::Success) {
        auto it = holdStart.find({core, op.addr});
        if (it != holdStart.end()) {
            v.hold.sample(static_cast<double>(now - it->second));
            holdStart.erase(it);
        }
    }
}

void
SyncProfiler::onSilentAcquire(CoreId core, Addr a, Tick now)
{
    SyncVarStats &v = at(a, cpu::SyncInstr::Lock);
    ++v.ops;
    ++v.hwAcquires;
    ++v.silentAcquires;
    v.wait.sample(0.0);
    v.waitHist.record(0);
    allWait.record(0);
    holdStart[{core, a}] = now;
}

void
SyncProfiler::onHwRelease(CoreId core, Addr a, Tick now)
{
    SyncVarStats &v = at(a, cpu::SyncInstr::Unlock);
    ++v.ops;
    auto it = holdStart.find({core, a});
    if (it != holdStart.end()) {
        v.hold.sample(static_cast<double>(now - it->second));
        holdStart.erase(it);
    }
}

void
SyncProfiler::onGrant(Addr a, CoreId core)
{
    SyncVarStats &v = at(a, cpu::SyncInstr::Lock);
    auto it = lastGrantee.find(a);
    if (it != lastGrantee.end()) {
        if (it->second == core)
            ++v.reacquires;
        else
            ++v.handoffs;
    }
    lastGrantee[a] = core;
}

void
SyncProfiler::onBarrierArrive(Addr a, Tick now)
{
    episodeStart.emplace(a, now); // keeps the first arrival's tick
}

void
SyncProfiler::onBarrierRelease(Addr a, Tick now)
{
    auto it = episodeStart.find(a);
    if (it == episodeStart.end())
        return;
    at(a, cpu::SyncInstr::Barrier)
        .barrierEpisode.sample(static_cast<double>(now - it->second));
    episodeStart.erase(it);
}

const SyncVarStats *
SyncProfiler::var(Addr a) const
{
    auto it = vars.find(a);
    return it == vars.end() ? nullptr : &it->second;
}

std::vector<const SyncVarStats *>
SyncProfiler::hottest(std::size_t top_n) const
{
    std::vector<const SyncVarStats *> v;
    v.reserve(vars.size());
    for (const auto &[a, s] : vars)
        v.push_back(&s);
    std::sort(v.begin(), v.end(),
              [](const SyncVarStats *a, const SyncVarStats *b) {
                  if (a->contention() != b->contention())
                      return a->contention() > b->contention();
                  if (a->ops != b->ops)
                      return a->ops > b->ops;
                  return a->addr < b->addr; // deterministic ties
              });
    if (v.size() > top_n)
        v.resize(top_n);
    return v;
}

void
SyncProfiler::writeReport(std::ostream &os, std::size_t top_n) const
{
    os << "=== hottest sync variables (top " << top_n << " of "
       << vars.size() << ", by total wait) ===\n";
    os << std::left << std::setw(12) << "addr" << std::right
       << std::setw(8) << "ops" << std::setw(8) << "hw" << std::setw(8)
       << "sw" << std::setw(8) << "silent" << std::setw(9) << "handoff"
       << std::setw(8) << "reacq" << std::setw(12) << "waitSum"
       << std::setw(10) << "waitMean" << std::setw(10) << "holdMean"
       << std::setw(10) << "barrMean" << std::setw(7) << "abort"
       << "\n";
    for (const SyncVarStats *v : hottest(top_n)) {
        std::ostringstream a;
        a << "0x" << std::hex << v->addr;
        os << std::left << std::setw(12) << a.str() << std::right
           << std::setw(8) << v->ops << std::setw(8) << v->hwAcquires
           << std::setw(8) << v->swAcquires << std::setw(8)
           << v->silentAcquires << std::setw(9) << v->handoffs
           << std::setw(8) << v->reacquires << std::setw(12) << std::fixed
           << std::setprecision(0) << v->wait.sum() << std::setw(10)
           << std::setprecision(1) << v->wait.mean() << std::setw(10)
           << v->hold.mean() << std::setw(10) << v->barrierEpisode.mean()
           << std::setw(7) << v->aborts << "\n";
    }
}

void
SyncProfiler::writeJson(std::ostream &os, std::size_t top_n) const
{
    util::JsonWriter w(os);
    w.beginArray();
    for (const SyncVarStats *v : hottest(top_n)) {
        char addr[32];
        std::snprintf(addr, sizeof(addr), "0x%llx",
                      (unsigned long long)v->addr);
        w.beginObject();
        w.kv("addr", addr);
        w.kv("kind", cpu::syncInstrName(v->kind));
        w.kv("ops", v->ops);
        w.kv("hwAcquires", v->hwAcquires);
        w.kv("swAcquires", v->swAcquires);
        w.kv("silentAcquires", v->silentAcquires);
        w.kv("aborts", v->aborts);
        w.kv("handoffs", v->handoffs);
        w.kv("reacquires", v->reacquires);
        w.key("wait").beginObject();
        w.kv("sum", v->wait.sum(), 1);
        w.kv("mean", v->wait.mean(), 1);
        w.kv("max", v->wait.max(), 1);
        w.kv("count", std::uint64_t(v->wait.count()));
        w.kv("p50", v->waitHist.p50());
        w.kv("p99", v->waitHist.p99());
        w.key("hist");
        v->waitHist.writeJson(w);
        w.endObject();
        w.key("hold").beginObject();
        w.kv("mean", v->hold.mean(), 1);
        w.kv("count", std::uint64_t(v->hold.count()));
        w.endObject();
        w.key("barrierEpisode").beginObject();
        w.kv("mean", v->barrierEpisode.mean(), 1);
        w.kv("max", v->barrierEpisode.max(), 1);
        w.kv("count", std::uint64_t(v->barrierEpisode.count()));
        w.endObject();
        w.endObject();
    }
    w.endArray();
}

} // namespace obs
} // namespace misar
