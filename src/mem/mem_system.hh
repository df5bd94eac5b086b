/**
 * @file
 * Assembly of the coherent memory system over the mesh: one L1 and
 * one home (LLC+directory) slice per tile, plus message dispatch.
 */

#ifndef MISAR_MEM_MEM_SYSTEM_HH
#define MISAR_MEM_MEM_SYSTEM_HH

#include <functional>
#include <memory>
#include <vector>

#include "mem/functional_mem.hh"
#include "mem/home_slice.hh"
#include "mem/l1_cache.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace misar {
namespace mem {

/**
 * The full memory subsystem. Non-coherence packets arriving at a
 * tile (e.g. MSA traffic) are handed to the extra sink, so the MSA
 * layer can share the mesh.
 */
class MemSystem
{
  public:
    using OtherSink =
        std::function<void(CoreId, std::shared_ptr<noc::Packet>)>;

    MemSystem(EventQueue &eq, const SystemConfig &cfg, StatRegistry &stats);

    L1Cache &l1(CoreId c) { return *l1s[c]; }
    HomeSlice &home(CoreId c) { return *homes[c]; }
    FunctionalMem &fmem() { return _fmem; }
    noc::Mesh &mesh() { return *_mesh; }
    unsigned numTiles() const { return static_cast<unsigned>(l1s.size()); }

    /** Home slice responsible for @p block. */
    HomeSlice &homeOf(Addr block) { return home(homeTile(block, numTiles())); }

    /** Install the handler for non-coherence packets. */
    void setOtherSink(OtherSink s) { otherSink = std::move(s); }

    /**
     * Interceptor consulted on every send(); returning true means the
     * packet was consumed (dropped, delayed, duplicated...). Used by
     * the fault injector. Only send() is intercepted — coherence
     * traffic uses internal paths and is never faulted.
     */
    using SendInterceptor =
        std::function<bool(const std::shared_ptr<noc::Packet> &)>;

    void setSendInterceptor(SendInterceptor f) { interceptor = std::move(f); }

    /** Inject an arbitrary packet (used by the MSA layer). */
    void
    send(std::shared_ptr<noc::Packet> pkt)
    {
        if (interceptor && interceptor(pkt))
            return;
        _mesh->send(std::move(pkt));
    }

    /** Inject bypassing the interceptor (injector re-injection). */
    void sendDirect(std::shared_ptr<noc::Packet> pkt)
    {
        _mesh->send(std::move(pkt));
    }

  private:
    void dispatch(CoreId tile, std::shared_ptr<noc::Packet> pkt);

    FunctionalMem _fmem;
    std::unique_ptr<noc::Mesh> _mesh;
    std::vector<std::unique_ptr<L1Cache>> l1s;
    std::vector<std::unique_ptr<HomeSlice>> homes;
    OtherSink otherSink;
    SendInterceptor interceptor;
};

} // namespace mem
} // namespace misar

#endif // MISAR_MEM_MEM_SYSTEM_HH
