#include "resil/fault_injector.hh"

#include "msa/msa_msg.hh"

namespace misar {
namespace resil {

namespace {

/**
 * Faultable = transaction-tracked MSA traffic. The txn field is only
 * ever stamped by the client on transactional requests and echoed by
 * the slice on the matching final response; everything else (silent
 * ops, fire-and-forget unlocks, suspend handshakes, on-behalf
 * slice-to-slice traffic, FailNotice) carries txn == 0 and must be
 * delivered faithfully.
 */
bool
faultable(const std::shared_ptr<noc::Packet> &pkt)
{
    auto mm = std::dynamic_pointer_cast<msa::MsaMsg>(pkt);
    if (!mm)
        return false;
    return mm->txn != 0 && mm->op != msa::MsaOp::FailNotice;
}

} // namespace

FaultInjector::FaultInjector(EventQueue &eq, const ResilConfig &cfg,
                             unsigned numTiles, StatRegistry &stats,
                             ForwardFn forward)
    : eq(eq), cfg(cfg), stats(stats), forward(std::move(forward))
{
    rngs.reserve(numTiles);
    for (unsigned t = 0; t < numTiles; ++t)
        rngs.emplace_back(cfg.faultSeed ^
                          (0xda942042e4dd58b5ULL * (t + 1)));
}

bool
FaultInjector::intercept(const std::shared_ptr<noc::Packet> &pkt)
{
    if (eq.now() < cfg.faultsFromTick || !faultable(pkt))
        return false;
    const double roll = rngs[pkt->src()].uniform();
    if (roll < cfg.dropProb) {
        stats.counter("resil.injectedDrops").inc();
        return true;
    }
    if (roll < cfg.dropProb + cfg.dupProb) {
        stats.counter("resil.injectedDups").inc();
        forward(pkt);
        auto copy = std::make_shared<msa::MsaMsg>(
            *std::static_pointer_cast<msa::MsaMsg>(pkt));
        // Re-injection happens at the source tile, on its lane.
        eq.schedule(cfg.delayTicks,
                    [f = forward, copy] { f(copy); });
        return true;
    }
    if (roll < cfg.dropProb + cfg.dupProb + cfg.delayProb) {
        stats.counter("resil.injectedDelays").inc();
        eq.schedule(cfg.delayTicks, [f = forward, pkt] { f(pkt); });
        return true;
    }
    return false;
}

} // namespace resil
} // namespace misar
