#include "mem/mem_system.hh"

#include "sim/logging.hh"

namespace misar {
namespace mem {

MemSystem::MemSystem(EventQueue &eq, const SystemConfig &cfg,
                     StatRegistry &stats)
{
    const unsigned n = cfg.numCores;
    _mesh = std::make_unique<noc::Mesh>(eq, cfg.noc, cfg.meshDim(), stats);

    auto send_fn = [this](std::shared_ptr<MemMsg> m) {
        _mesh->send(std::move(m));
    };

    l1s.reserve(n);
    homes.reserve(n);
    for (CoreId c = 0; c < n; ++c) {
        l1s.push_back(std::make_unique<L1Cache>(eq, cfg.mem, c, n, _fmem,
                                                send_fn, stats,
                                                cfg.smtWays));
        homes.push_back(std::make_unique<HomeSlice>(eq, cfg.mem, c, n,
                                                    send_fn, stats));
        _mesh->setSink(c, [this, c](std::shared_ptr<noc::Packet> p) {
            dispatch(c, std::move(p));
        });
    }
}

void
MemSystem::dispatch(CoreId tile, std::shared_ptr<noc::Packet> pkt)
{
    auto mm = std::dynamic_pointer_cast<MemMsg>(pkt);
    if (!mm) {
        if (!otherSink)
            panic("tile %u: non-coherence packet with no extra sink", tile);
        otherSink(tile, std::move(pkt));
        return;
    }
    switch (mm->op) {
      case MemOp::GetS:
      case MemOp::GetM:
      case MemOp::PutM:
      case MemOp::PutE:
      case MemOp::InvAck:
      case MemOp::FwdAck:
        homes[tile]->handleMessage(std::move(mm));
        break;
      default:
        l1s[tile]->handleMessage(mm);
        break;
    }
}

} // namespace mem
} // namespace misar
